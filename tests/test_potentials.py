import gc
import weakref
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
    strip_sandpile,
)
from sandlab import engine as engine_mod
from sandlab import potentials as potentials_mod
from sandlab.errors import InternalError

import oracles
from test_engine import _swapped_grid5, _window_interior


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


def test_grid8_sine_transform_path_matches_lu(monkeypatch):
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
    rec = potentials_mod._solver(g)
    assert rec.spectrum is not None and rec.lu is None
    for (u, v), want in zip(pairs, lu_reff):
        r = effective_resistance(g, u, v)
        assert abs(r - effective_resistance(g, v, u)) <= 1e-9
        assert abs(r - want) <= 1e-9


def _lu_solve(g, rhs):
    """Reference solve: a COLAMD sparse LU of the float Laplacian."""
    return spla.splu(sp.csc_matrix(g.laplacian().astype(float))).solve(rhs)


def _lu_field(g, w):
    x = _lu_solve(g, np.eye(1, g.n_ordinary, w).ravel())
    return x / x[w]


def _lu_resistance(g, u, v):
    rhs = np.zeros(g.n_ordinary)
    if u != g.sink:
        rhs[u] += 1.0
    if v != g.sink:
        rhs[v] -= 1.0
    x = _lu_solve(g, rhs)
    return (x[u] if u != g.sink else 0.0) - (x[v] if v != g.sink else 0.0)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 12),
    cols=st.integers(1, 12),
    pole=st.floats(0, 1, exclude_max=True),
    other=st.floats(0, 1, exclude_max=True),
)
@example(rows=1, cols=1, pole=0.0, other=0.0)
@example(rows=1, cols=12, pole=0.5, other=0.0)
@example(rows=12, cols=1, pole=0.0, other=0.9)
@example(rows=12, cols=12, pole=0.5, other=0.1)
def test_spectral_path_matches_lu(rows, cols, pole, other):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(potentials_mod, "DIRECT_SOLVE_LIMIT", 0)
        g = strip_sandpile(rows, cols)
        m = g.n_ordinary
        w, u = int(pole * m), int(other * m)
        fld = solve_potential(g, w)
        rec = potentials_mod._solver(g)
        assert rec.lu is None and rec.spectrum.shape == (rows, cols)
        assert g._block == (rows, cols)
        assert np.abs(fld.values - _lu_field(g, w)).max() <= 1e-12
        assert fld.residual <= 1e-14
        pairs = [(g.sink, u), (u, g.sink)] + ([(w, u), (u, w)] if u != w else [])
        for a, b in pairs:
            assert abs(effective_resistance(g, a, b) - _lu_resistance(g, a, b)) <= 1e-12


def test_dst_is_the_orthonormal_sine_matrix():
    rng = np.random.default_rng(5)
    for n in range(1, 21):
        j = np.arange(1, n + 1)
        sine = np.sqrt(2 / (n + 1)) * np.sin(np.outer(j, j) * np.pi / (n + 1))
        a = rng.standard_normal((3, n))
        assert np.abs(potentials_mod._dst(a) - a @ sine).max() <= 1e-13
        assert np.abs(potentials_mod._dst(potentials_mod._dst(a)) - a).max() <= 1e-13


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    shape=st.tuples(st.integers(1, 9), st.integers(1, 120)),
)
def test_dst_of_chosen_rows_is_bit_identical_to_the_full_batch(data, shape):
    # the sine-transform solve transforms only some rows of a batch; this
    # holds only because numpy.fft.rfft gives a row the same bits alone
    a = data.draw(hnp.arrays(np.float64, shape, elements=st.floats(-1e6, 1e6)))
    rows = sorted(data.draw(st.sets(st.integers(0, shape[0] - 1))))
    dst = potentials_mod._dst
    assert dst(a)[rows].tobytes() == dst(a[rows]).tobytes()


def _reference_solve(g, rhs):
    return oracles.reference_sine_solve(potentials_mod._solver(g).spectrum, rhs)


def _assert_pole_and_resistances_exact(g, w, partner):
    """Pole ``w``'s field, its sink resistance (solved, then from the cache)
    and, unless ``partner == w``, the dipole ``w``-``partner`` both ways
    equal the four-transform reference solve byte for byte."""
    m = g.n_ordinary
    x = _reference_solve(g, np.eye(1, m, w).ravel())
    sink_ends = ((g.sink, w), (w, g.sink))
    assert [effective_resistance(g, a, b) for a, b in sink_ends] == [float(x[w])] * 2
    assert solve_potential(g, w).values.tobytes() == (x / x[w]).tobytes()
    assert [effective_resistance(g, a, b) for a, b in sink_ends] == [float(x[w])] * 2
    if partner != w:
        for a, b in ((w, partner), (partner, w)):
            rhs = np.zeros(m)
            rhs[a], rhs[b] = 1.0, -1.0
            y = _reference_solve(g, rhs)
            assert effective_resistance(g, a, b) == float(y[a] - y[b])


def test_spectral_solves_equal_the_four_transform_reference_on_strips(monkeypatch):
    monkeypatch.setattr(potentials_mod, "DIRECT_SOLVE_LIMIT", 0)
    for rows in range(1, 13):
        for cols in range(1, 13):
            g = strip_sandpile(rows, cols)
            m = g.n_ordinary
            assert potentials_mod._solver(g).spectrum is not None
            for w in range(m):
                # a dipole costs two reference solves: check one at every third pole
                partner = (7 * w + 3) % m if w % 3 == 0 else w
                _assert_pole_and_resistances_exact(g, w, partner)


def test_spectral_solves_equal_the_four_transform_reference_on_grid100():
    g = grid_sandpile(100)
    assert potentials_mod._solver(g).spectrum is not None
    rng = np.random.default_rng(41)
    corners = [(0, 9999), (99, 9900), (0, 99)]
    sampled = [tuple(int(x) for x in rng.integers(0, 10_000, size=2)) for _ in range(12)]
    for w, partner in corners + sampled:
        _assert_pole_and_resistances_exact(g, w, partner)


def _count_solves(monkeypatch):
    calls = []
    solve = potentials_mod._laplacian_solve

    def counted(rec, rhs, read=None):
        calls.append(read)
        return solve(rec, rhs, read)

    monkeypatch.setattr(potentials_mod, "_laplacian_solve", counted)
    return calls


@pytest.mark.parametrize("limit", [potentials_mod.DIRECT_SOLVE_LIMIT, 0])
def test_sink_resistance_of_a_cached_pole_takes_no_solve(monkeypatch, limit):
    monkeypatch.setattr(potentials_mod, "DIRECT_SOLVE_LIMIT", limit)
    g = grid_sandpile(8)
    solved = effective_resistance(g, g.sink, 27)
    calls = _count_solves(monkeypatch)
    assert effective_resistance(g, 27, g.sink) == solved
    assert calls == [[27]]
    solve_potential(g, 27)
    assert len(calls) == 2
    assert effective_resistance(g, g.sink, 27) == solved
    assert effective_resistance(g, 27, g.sink) == solved
    assert len(calls) == 2
    effective_resistance(g, 27, 28)
    assert calls[2:] == [[27, 28]]


@pytest.mark.parametrize("limit", [potentials_mod.DIRECT_SOLVE_LIMIT, 0])
def test_potential_checks_solve_nothing_for_cached_poles(monkeypatch, limit):
    monkeypatch.setattr(potentials_mod, "DIRECT_SOLVE_LIMIT", limit)
    g = grid_sandpile(8)
    cold = potential_checks(grid_sandpile(8), [(3, 40), (40, 61)], [(3, 40, 61)])
    for w in (3, 40, 61):
        solve_potential(g, w)
    calls = _count_solves(monkeypatch)
    warm = potential_checks(g, [(3, 40), (40, 61)], [(3, 40, 61)])
    assert calls == []
    assert warm == cold


@pytest.mark.parametrize("limit", [potentials_mod.DIRECT_SOLVE_LIMIT, 0])
def test_evicted_pole_resistance_is_solved_again_with_the_same_bits(monkeypatch, limit):
    monkeypatch.setattr(potentials_mod, "DIRECT_SOLVE_LIMIT", limit)
    g = grid_sandpile(8)
    monkeypatch.setattr(potentials_mod, "_FIELD_CACHE_BYTES", 8 * g.n_ordinary)
    solve_potential(g, 5)
    calls = _count_solves(monkeypatch)
    cached = effective_resistance(g, g.sink, 5)
    assert calls == []
    solve_potential(g, 6)
    assert list(potentials_mod._solver(g).fields) == [6]
    again = effective_resistance(g, 5, g.sink)
    assert calls == [None, [5]]
    assert np.float64(again).tobytes() == np.float64(cached).tobytes()


def test_non_lattice_graphs_above_the_limit_take_lu(monkeypatch):
    ell = [(x, y) for x in range(1, 5) for y in range(1, 5) if x > 2 or y < 3]
    monkeypatch.setattr(potentials_mod, "DIRECT_SOLVE_LIMIT", 0)
    for g in (_window_interior(6, 6, ell), _swapped_grid5(0, 0), _swapped_grid5(2, 2)):
        assert g._block is None
        m = g.n_ordinary
        for w in (0, m // 2, m - 1):
            fld = solve_potential(g, w)
            assert np.abs(fld.values - _lu_field(g, w)).max() <= 1e-9
            assert fld.residual <= potentials_mod.RESIDUAL_TOLERANCE
        for u, v in ((0, m - 1), (g.sink, m // 2)):
            assert abs(effective_resistance(g, u, v) - _lu_resistance(g, u, v)) <= 1e-9
        rec = potentials_mod._solver(g)
        assert rec.lu is not None and rec.spectrum is None


@pytest.mark.parametrize("limit", [potentials_mod.DIRECT_SOLVE_LIMIT, 0])
def test_field_cache_stays_within_budget(monkeypatch, limit):
    monkeypatch.setattr(potentials_mod, "DIRECT_SOLVE_LIMIT", limit)
    g = grid_sandpile(8)
    field_bytes = 8 * g.n_ordinary
    monkeypatch.setattr(potentials_mod, "_FIELD_CACHE_BYTES", 3 * field_bytes + 100)
    first = solve_potential(g, 0)
    rec = potentials_mod._solver(g)
    for w in range(1, 7):
        solve_potential(g, w)
        assert len(rec.fields) * field_bytes <= potentials_mod._FIELD_CACHE_BYTES
    assert list(rec.fields) == [4, 5, 6]
    again = solve_potential(g, 0)
    assert again is not first
    assert again.values.tobytes() == first.values.tobytes()
    assert list(rec.fields) == [5, 6, 0]


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
    return engine_mod._balance_check(g, c, res.stable, res.score) == res


def test_verify_identity_accepts_real_runs(grid4):
    rng = np.random.default_rng(31)
    for _ in range(10):
        c = rng.integers(0, 10, size=grid4.n_ordinary).tolist()
        res = stabilize(grid4, c)
        assert _rechecks(grid4, res, c)


def test_verify_identity_rejects_tampering(grid2, monkeypatch):
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
    # the stencil kernel hands the forged vectors to the audit inside stabilize
    forged = (bad_score._stable, bad_score._score)
    monkeypatch.setattr(engine_mod, "_stabilize_lattice", lambda *_: forged)
    with pytest.raises(InternalError, match="audit failed"):
        stabilize(grid2, c)
    assert engine_mod.engine_stats()["identity_failures"] == failures + 1

    bad_absorbed = res.__class__(
        stable=res.stable,
        score=res.score,
        sink_absorbed=res.sink_absorbed + 1,
        topplings_total=res.topplings_total,
        received=res.received,
    )
    assert not _rechecks(grid2, bad_absorbed, c)
