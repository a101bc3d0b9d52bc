import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sandlab import (
    BoundParams,
    PreconditionError,
    ResourceLimitError,
    classify_path,
    engine_stats,
    estimate_alpha,
    estimate_hlc,
    estimate_mv,
    find_central_path_grid,
    flood_count,
    grid_sandpile,
    line_sandpile,
    point_config,
    propagate,
    single_step,
    strip_sandpile,
    tcl_bound,
)
from sandlab.epicenter import _staircase


# -- staircase --------------------------------------------------------------


def test_staircase_known_descent():
    assert _staircase((2, 2), (0, 0)) == [(2, 2), (2, 1), (1, 1), (1, 0), (0, 0)]


def test_staircase_trivial():
    assert _staircase((3, 4), (3, 4)) == [(3, 4)]


@settings(max_examples=80, deadline=None)
@given(
    px=st.integers(-6, 6), py=st.integers(-6, 6),
    qx=st.integers(-6, 6), qy=st.integers(-6, 6),
)
def test_staircase_is_a_lattice_path(px, py, qx, qy):
    path = _staircase((px, py), (qx, qy))
    assert path[0] == (px, py)
    assert path[-1] == (qx, qy)
    assert len(path) == abs(qx - px) + abs(qy - py) + 1
    for (ax, ay), (bx, by) in zip(path, path[1:]):
        assert abs(ax - bx) + abs(ay - by) == 1
    # each hop of the dominant coordinate lands on the floor of the segment,
    # as exact rational arithmetic reads it
    if abs(qy - py) > abs(qx - px):
        path, (px, py), (qx, qy) = [(y, x) for x, y in path], (py, px), (qy, qx)
    for (ax, _), (bx, by) in zip(path, path[1:]):
        if bx != ax:
            assert by == math.floor(Fraction((qy - py) * (bx - px), qx - px) + py)


# -- path classification ----------------------------------------------------


def test_center_to_corner_contracts():
    g = grid_sandpile(5)
    p = find_central_path_grid(g, g.vertex_at(2, 2), g.vertex_at(0, 0))
    assert p.eta == (2, 1, 1, 0, 0)
    assert len(p.segments) == 1
    seg = p.segments[0]
    assert seg.phase == "contraction"
    assert abs(seg.b + 0.5) < 1e-9
    assert abs(seg.advance_rate() - 1 / 0.75) < 1e-9


def test_corner_to_center_expands():
    g = grid_sandpile(9)
    p = find_central_path_grid(g, g.vertex_at(0, 0), g.vertex_at(4, 4))
    assert p.eta == (0, 0, 1, 1, 2, 2, 3, 3, 4)
    (seg,) = p.segments
    assert seg.phase == "expansion"
    assert abs(seg.b - 0.5) < 1e-9
    assert abs(seg.advance_rate() - 1.25) < 1e-9


def test_center_to_edge_is_unit_contraction():
    g = grid_sandpile(9)
    p = find_central_path_grid(g, g.vertex_at(4, 4), g.vertex_at(4, 0))
    assert p.eta == (4, 3, 2, 1, 0)
    (seg,) = p.segments
    assert seg.phase == "contraction"
    assert abs(seg.b + 1.0) < 1e-9
    assert abs(seg.advance_rate() - 2.0) < 1e-9


def test_generic_pair_splits_in_two():
    g = grid_sandpile(9)
    p = find_central_path_grid(g, g.vertex_at(0, 2), g.vertex_at(7, 6))
    assert p.k == 2
    first, second = p.segments
    assert first.phase == "expansion"
    assert second.phase == "contraction"
    assert abs(first.b - 0.642857) < 1e-5
    assert abs(second.b + 0.542857) < 1e-5
    # residual bounds actually bound the residuals
    for seg in p.segments:
        assert seg.a_l <= 0 <= seg.a_u
        assert max(abs(seg.a_l), abs(seg.a_u)) <= 1.0 + 1e-6


def test_trivial_path():
    g = grid_sandpile(5)
    p = find_central_path_grid(g, 7, 7)
    assert p.vertices == () and p.segments == ()


def test_non_grid_is_refused():
    g = line_sandpile(6)
    with pytest.raises(PreconditionError, match="grid family only"):
        find_central_path_grid(g, 0, 5)


def test_classify_rejects_broken_path():
    g = grid_sandpile(5)
    with pytest.raises(PreconditionError, match="not adjacent"):
        classify_path(g, [g.vertex_at(0, 0), g.vertex_at(2, 2)])


def test_drift_needs_budget():
    g = grid_sandpile(9)
    ring = [g.vertex_at(2, y) for y in range(2, 7)]  # eta constant 2
    p = classify_path(g, ring, l=5.0)
    (seg,) = p.segments
    assert seg.phase == "drift"
    assert seg.advance_rate() == 1.0
    with pytest.raises(PreconditionError, match=r"not \(k,l\)-central"):
        classify_path(g, ring, l=0.0)


def test_splits_come_before_drift():
    # eta 1, 2, 1 is linear and flat, but its interior maximum splits it
    g = grid_sandpile(5)
    path = [g.vertex_at(x, 2) for x in (1, 2, 3)]
    for l in (0.0, 5.0):
        phases = [seg.phase for seg in classify_path(g, path, l=l).segments]
        assert phases == ["expansion", "contraction"]


@pytest.mark.parametrize("p, q", [
    ((7, 8), (6, 6)), ((7, 8), (13, 12)), ((7, 8), (10, 2)), ((9, 7), (7, 8)),
])
def test_grid_paths_with_a_flat_stretch_take_a_drift(p, q):
    # refused while grid paths were classified with l = 0
    g = grid_sandpile(16)
    path = find_central_path_grid(g, g.vertex_at(*p), g.vertex_at(*q))
    assert path.drift_len == BoundParams.grid_defaults().drift_len
    assert "drift" in [seg.phase for seg in path.segments]


def test_eta_ratio_window_along_segments():
    g = grid_sandpile(17)
    p = find_central_path_grid(g, g.vertex_at(1, 1), g.vertex_at(15, 15))
    eta = p.eta
    for i in range(len(eta) - 1):
        assert abs(eta[i] - eta[i + 1]) <= 1  # Lipschitz along the path


# -- bounds -----------------------------------------------------------------


def test_grid_default_constant():
    bp = BoundParams.grid_defaults()
    assert bp.epicenter_constant() == 1440.0


def test_tcl_bound_frozen():
    bp = BoundParams.grid_defaults()
    assert bp.drift_len == 0.5
    want_exp = 2 + 4 * math.log(1440, 1.5)
    assert abs(want_exp - 73.74376534150521) < 1e-9
    got = tcl_bound(bp, 33)
    assert abs(got / (2 * 4 * 33**want_exp) - 1) < 1e-9


def test_tcl_bound_unit_constant_collapses():
    # delta = d(d+1) * 3^alpha makes K = 1, leaving n^k exactly
    bp = BoundParams(c_sigma=1.0, c_h=1.0, max_degree=1, delta_lo=6.0,
                     alpha=1.0, k_segments=2)
    assert bp.epicenter_constant() == 1.0
    assert tcl_bound(bp, 10) == 1.0 * 1 * 10**2


def test_tcl_bound_guards():
    bp = BoundParams.grid_defaults()
    with pytest.raises(PreconditionError, match="n >= 2"):
        tcl_bound(bp, 1)
    flat = BoundParams(c_sigma=2.0, c_h=0.25, max_degree=4, delta_lo=1.0,
                       alpha=2.0, g_hat=1.0)
    with pytest.raises(PreconditionError, match="non-advancing"):
        tcl_bound(flat, 8)


def test_from_estimates_wiring():
    a = estimate_alpha("grid", [8], 10, 1)
    h = estimate_hlc("grid", [8], 10, 1)
    m = estimate_mv("grid", [8], 10, 1)
    bp = BoundParams.from_estimates(a, h, m)
    assert bp.c_sigma == h.estimates["c_sigma"]
    assert bp.c_h == m.estimates["c_h"]
    assert bp.delta_lo == a.estimates["delta_lo"]
    assert bp.alpha == a.estimates["alpha"]


# -- single step ------------------------------------------------------------


def test_single_step_center_of_grid33():
    g = grid_sandpile(33)
    bp = BoundParams.grid_defaults()
    c = g.vertex_at(16, 16)
    assert int(g.eta()[c]) == 16
    ball = g.ordinary_ball(c, 16)
    need = flood_count(g, c, ball)
    assert need == 1768
    base = point_config(g, c, need)
    u = g.vertex_at(24, 16)  # half a radius ahead
    k_emp, bound = single_step(g, c, u, base, bp)
    assert k_emp == 1
    assert bound == 1440.0
    assert k_emp <= bound


def test_single_step_self_is_free():
    g = grid_sandpile(9)
    bp = BoundParams.grid_defaults()
    c = g.vertex_at(4, 4)
    base = point_config(g, c, flood_count(g, c, g.ordinary_ball(c, 4)))
    k_emp, bound = single_step(g, c, c, base, bp)
    assert k_emp == 1 and bound == 1440.0


def test_single_step_guards():
    g = grid_sandpile(9)
    bp = BoundParams.grid_defaults()
    edge = g.vertex_at(0, 4)
    with pytest.raises(PreconditionError, match="no interior ball"):
        single_step(g, edge, edge, [0] * g.n_ordinary, bp)
    c = g.vertex_at(4, 4)
    with pytest.raises(PreconditionError, match="does not flood"):
        single_step(g, c, g.vertex_at(4, 2), [0] * g.n_ordinary, bp)
    base = point_config(g, c, flood_count(g, c, g.ordinary_ball(c, 4)))
    with pytest.raises(PreconditionError, match="expected 2"):
        single_step(g, c, g.vertex_at(4, 3), base, bp)


# -- propagation ------------------------------------------------------------


def test_propagate_grid17_frozen():
    g = grid_sandpile(17)
    bp = BoundParams.grid_defaults()
    before = engine_stats()["stabilizations"]
    tr = propagate(g, g.vertex_at(1, 1), g.vertex_at(15, 15), bp)
    # every stabilization is a search probe that topples; none is repeated
    # afterwards, and each step composes its first probe from the result before
    assert engine_stats()["stabilizations"] - before == 13
    assert tr.k0 == 4
    assert len(tr.steps) == 11
    assert [s.multiplier for s in tr.steps] == [4, 4, 2, 2, 2, 2, 2, 2, 2, 1, 2]
    assert tr.total == 16384
    assert tr.target_flooded


def test_propagate_total_is_multiplicative():
    g = grid_sandpile(17)
    bp = BoundParams.grid_defaults()
    tr = propagate(g, g.vertex_at(1, 1), g.vertex_at(15, 15), bp)
    prod = tr.k0
    for s in tr.steps:
        prod *= s.multiplier
    assert tr.total == prod
    assert isinstance(tr.total, int)


def test_propagate_step_radii_stay_in_window():
    g = grid_sandpile(17)
    bp = BoundParams.grid_defaults()
    p = g.vertex_at(1, 1)
    tr = propagate(g, p, g.vertex_at(15, 15), bp)
    prev = int(g.eta()[p])
    for s in tr.steps:
        if prev >= 2:
            assert prev / 2 <= s.radius <= 3 * prev / 2
        prev = s.radius


def test_propagate_same_site():
    g = grid_sandpile(9)
    tr = propagate(g, 5, 5, BoundParams.grid_defaults())
    assert (tr.k0, tr.total, tr.target_flooded) == (1, 1, True)
    assert tr.steps == ()


def test_propagate_from_boundary_start():
    g = grid_sandpile(17)
    tr = propagate(g, g.vertex_at(0, 8), g.vertex_at(8, 8),
                   BoundParams.grid_defaults())
    assert tr.target_flooded
    assert tr.k0 >= 1


def test_propagate_respects_step_budget():
    g = grid_sandpile(17)
    bp = BoundParams.grid_defaults()
    with pytest.raises(ResourceLimitError, match="within 3 steps") as exc:
        propagate(g, g.vertex_at(1, 1), g.vertex_at(15, 15), bp, max_steps=3)
    trace = exc.value.trace
    assert len(trace.steps) == 3
    assert not trace.target_flooded


def test_propagate_refuses_non_grid_without_flag():
    g = strip_sandpile(2, 8)
    with pytest.raises(PreconditionError, match="grid family only"):
        propagate(g, 0, 15, BoundParams.grid_defaults())


def test_propagate_heuristic_on_rectangle():
    g = strip_sandpile(9, 5)  # 9x5 block, not a square grid
    bp = BoundParams.grid_defaults()
    tr = propagate(g, g.vertex_at(4, 2), g.vertex_at(0, 2), bp, heuristic=True)
    assert tr.target_flooded


def test_trace_json_shape():
    g = grid_sandpile(9)
    tr = propagate(g, g.vertex_at(1, 1), g.vertex_at(7, 7),
                   BoundParams.grid_defaults())
    data = tr.to_json()
    assert data["total"] == str(tr.total)
    assert data["target_flooded"] is True
    assert len(data["steps"]) == len(tr.steps)
    assert set(data["steps"][0]) == {"center", "radius", "multiplier", "segment"}


# -- family-level invariant -------------------------------------------------


def test_totals_stay_under_estimated_bound():
    a = estimate_alpha("grid", [8, 16], 30, 0)
    h = estimate_hlc("grid", [8, 16], 30, 0)
    m = estimate_mv("grid", [8, 16], 30, 0)
    bp = BoundParams.from_estimates(a, h, m)
    totals = []
    for n in (8, 16, 32):
        g = grid_sandpile(n)
        tr = propagate(g, g.vertex_at(1, 1), g.vertex_at(n - 2, n - 2), bp)
        assert tr.target_flooded
        assert tr.total <= tcl_bound(bp, n)
        totals.append((n, tr.total))
    xs = [math.log(n) for n, _ in totals]
    ys = [math.log(t) for _, t in totals]
    mean_x, mean_y = sum(xs) / 3, sum(ys) / 3
    slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sum(
        (x - mean_x) ** 2 for x in xs
    )
    assert slope <= 4.0 + 1e-9
