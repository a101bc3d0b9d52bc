import gc
import weakref
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from sandlab import (
    PreconditionError,
    analytic_toppling_bounds,
    dual_threshold_bound,
    effective_resistance,
    grid_sandpile,
    line_sandpile,
    min_to_topple,
    min_to_topple_uniform,
    point_config,
    potential_checks,
    solve_potential,
    stabilize,
)
from sandlab import engine as engine_mod
from sandlab import potentials as potentials_mod
from sandlab.errors import InternalError

import oracles


def test_grid2_field_exact(grid2):
    fld = solve_potential(grid2, 0)
    want = [1, Fraction(2, 7), Fraction(2, 7), Fraction(1, 7)]
    for v, expect in enumerate(want):
        assert abs(fld.values[v] - float(expect)) < 1e-12
    assert fld.residual <= 1e-10
    assert abs(fld.total - 12 / 7) < 1e-12


def test_field_is_cached(grid2):
    assert solve_potential(grid2, 1) is solve_potential(grid2, 1)


def test_field_matches_fraction_oracle():
    for g in (grid_sandpile(3), line_sandpile(4)):
        for pole in range(0, g.n_ordinary, 2):
            exact = oracles.exact_potential(g, pole)
            fld = solve_potential(g, pole)
            worst = max(
                abs(fld.values[v] - float(exact[v])) for v in range(g.n_ordinary)
            )
            assert worst <= 1e-9


def test_field_positive_and_peaked_at_pole(grid4):
    for pole in (0, 5, 10):
        fld = solve_potential(grid4, pole)
        assert fld.values.min() > 0
        assert np.argmax(fld.values) == pole
        assert abs(fld.values[pole] - 1.0) < 1e-14


def test_resistance_to_sink(grid2):
    r = effective_resistance(grid2, grid2.sink, 0)
    assert abs(r - 7 / 24) < 1e-12
    assert effective_resistance(grid2, 0, grid2.sink) == r


def test_resistance_matches_fraction_oracle():
    g = grid_sandpile(3)
    for u, v in [(0, 8), (0, 4), (g.sink, 4), (2, 6)]:
        exact = oracles.exact_resistance(g, u, v)
        assert abs(effective_resistance(g, u, v) - float(exact)) <= 1e-9


def test_resistance_symmetry(grid4):
    pairs = [(0, 7), (3, 12), (5, 11)]
    for u, v in pairs:
        assert abs(
            effective_resistance(grid4, u, v) - effective_resistance(grid4, v, u)
        ) < 1e-12


def test_resistance_rejects_equal_endpoints(grid2):
    with pytest.raises(PreconditionError, match="distinct"):
        effective_resistance(grid2, 1, 1)


# -- solver -----------------------------------------------------------------


def test_cg_path_matches_lu(monkeypatch):
    lu_graph = grid_sandpile(8)
    poles = (0, 27, 63)
    pairs = ((0, 63), (9, 36), (lu_graph.sink, 27))
    lu_fields = [solve_potential(lu_graph, w) for w in poles]
    lu_reff = [effective_resistance(lu_graph, u, v) for u, v in pairs]
    assert potentials_mod._solver(lu_graph).lu is not None

    monkeypatch.setattr(potentials_mod, "DIRECT_SOLVE_LIMIT", 0)
    g = grid_sandpile(8)
    for w, lu in zip(poles, lu_fields):
        fld = solve_potential(g, w)
        assert np.abs(fld.values - lu.values).max() <= 1e-9
        assert fld.residual <= potentials_mod.RESIDUAL_TOLERANCE
    assert potentials_mod._solver(g).lu is None
    for (u, v), want in zip(pairs, lu_reff):
        r = effective_resistance(g, u, v)
        assert abs(r - effective_resistance(g, v, u)) <= 1e-9
        assert abs(r - want) <= 1e-9


def test_solver_state_dies_with_graph():
    g = grid_sandpile(4)
    solve_potential(g, 5)
    effective_resistance(g, 0, 15)
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None


# -- laws -------------------------------------------------------------------


def test_reciprocity_exact_in_fractions(grid2):
    # R(sink,t) * pi_t(v) = R(sink,v) * pi_v(t), exactly
    for t, v in permutations(range(4), 2):
        rt = oracles.exact_resistance(grid2, t, grid2.sink)
        rv = oracles.exact_resistance(grid2, v, grid2.sink)
        pt = oracles.exact_potential(grid2, t)
        pv = oracles.exact_potential(grid2, v)
        assert rt * pt[v] == rv * pv[t]


def test_triangle_law_exact_in_fractions(grid2):
    fields = [oracles.exact_potential(grid2, w) for w in range(4)]
    for i in range(4):
        for j in range(4):
            for k in range(4):
                assert fields[i][j] * fields[j][k] <= fields[i][k]


def test_potential_checks_pass(grid4):
    rng = np.random.default_rng(7)
    m = grid4.n_ordinary
    pairs = []
    while len(pairs) < 20:
        t, v = rng.integers(0, m, size=2)
        if t != v:
            pairs.append((int(t), int(v)))
    triples = [tuple(int(x) for x in rng.integers(0, m, size=3)) for _ in range(60)]
    report = potential_checks(grid4, pairs, triples)
    assert report.ok
    assert report.reciprocity_checked == 20
    assert report.triangle_checked == 60
    assert report.reciprocity_worst <= 1e-9
    assert report.triangle_worst <= 1e-9


def test_potential_checks_rejects_degenerate_pair(grid2):
    with pytest.raises(PreconditionError, match="distinct"):
        potential_checks(grid2, [(1, 1)], [])


# -- threshold bounds -------------------------------------------------------


def test_analytic_bounds_grid2(grid2):
    lo, hi = analytic_toppling_bounds(grid2, 3, 0)
    assert abs(lo - 12 / 5) < 1e-12
    assert abs(hi - 36.0) < 1e-12
    assert lo <= min_to_topple(grid2, 3, 0) <= hi


def test_analytic_bounds_bracket_everywhere():
    g = grid_sandpile(4)
    rng = np.random.default_rng(13)
    for _ in range(15):
        v, w = (int(x) for x in rng.integers(0, g.n_ordinary, size=2))
        lo, hi = analytic_toppling_bounds(g, v, w)
        measured = min_to_topple(g, v, w)
        assert lo <= measured <= hi


def test_dual_bound_grid2(grid2):
    ball = grid2.ordinary_ball(3, 1)
    cert, bound = dual_threshold_bound(grid2, 3, 1, 0)
    assert abs(bound - 36 / 5) < 1e-12
    assert cert.ball == tuple(int(x) for x in ball)
    assert cert.max_violation <= 1e-9
    assert abs(float(cert.y[list(cert.ball)].sum()) - 1.0) < 1e-12
    measured = min_to_topple_uniform(grid2, ball, 0)
    assert measured.h_no_topple == 5 <= bound


def test_dual_bound_with_pole_inside_ball(grid2):
    _, bound = dual_threshold_bound(grid2, 0, 1, 0)
    assert abs(bound - 36 / 11) < 1e-12
    ball = grid2.ordinary_ball(0, 1)
    measured = min_to_topple_uniform(grid2, ball, 0)
    assert measured.h_no_topple <= bound


def test_weak_duality_sampled(grid8):
    rng = np.random.default_rng(23)
    m = grid8.n_ordinary
    done = 0
    while done < 25:
        v, w = (int(x) for x in rng.integers(0, m, size=2))
        r = int(rng.integers(0, 3))
        ball = set(int(x) for x in grid8.ordinary_ball(v, r))
        if w in ball:
            continue
        _, bound = dual_threshold_bound(grid8, v, r, w)
        measured = min_to_topple_uniform(grid8, sorted(ball), w)
        assert measured.h_no_topple <= bound + 1e-9
        done += 1


# -- identity recheck -------------------------------------------------------


def _rechecks(g, res, c):
    received = engine_mod._balance_check(
        g, c, res.stable, res.score, res.sink_absorbed
    )
    return received is not None


def test_verify_identity_accepts_real_runs(grid4):
    rng = np.random.default_rng(31)
    for _ in range(10):
        c = rng.integers(0, 10, size=grid4.n_ordinary).tolist()
        res = stabilize(grid4, c)
        assert _rechecks(grid4, res, c)


def test_verify_identity_rejects_tampering(grid2):
    c = point_config(grid2, 3, 30)
    res = stabilize(grid2, c)
    assert _rechecks(grid2, res, c)

    bad_score = res.__class__(
        stable=res.stable,
        score=[s + 1 for s in res.score],
        sink_absorbed=res.sink_absorbed,
        topplings_total=res.topplings_total,
        received=res.received,
    )
    assert not _rechecks(grid2, bad_score, c)
    failures = engine_mod.engine_stats()["identity_failures"]
    with pytest.raises(InternalError, match="audit failed"):
        engine_mod._audit(grid2, c, bad_score.stable, bad_score.score)
    assert engine_mod.engine_stats()["identity_failures"] == failures + 1

    bad_absorbed = res.__class__(
        stable=res.stable,
        score=res.score,
        sink_absorbed=res.sink_absorbed + 1,
        topplings_total=res.topplings_total,
        received=res.received,
    )
    assert not _rechecks(grid2, bad_absorbed, c)
