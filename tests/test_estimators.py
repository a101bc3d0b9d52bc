import pytest

from sandlab import (
    PreconditionError,
    estimate_alpha,
    estimate_hlc,
    estimate_ls,
    estimate_mv,
    estimate_op,
    gen_family,
)
from sandlab.estimators import CSV_HEADER

from test_engine import _swapped_grid5, _window_interior


# one run spec shared by the frozen-value tests below
GRID_SPEC = ("grid", [8, 16], 30, 0)


def test_alpha_grid_quadratic():
    rep = estimate_alpha(*GRID_SPEC)
    assert abs(rep.estimates["alpha"] - 2.0) < 1e-9
    assert abs(rep.estimates["delta_lo"] - 4.0) < 1e-9
    assert rep.estimates["delta_up"] == 4.0
    assert len(rep.rows) == 60
    assert rep.witness["extreme"] == "delta_up"


def test_alpha_line_linear():
    rep = estimate_alpha("line", [16, 32], 30, 0)
    assert abs(rep.estimates["alpha"] - 1.0) < 1e-9
    assert abs(rep.estimates["delta_lo"] - 2.0) < 1e-9
    assert abs(rep.estimates["delta_up"] - 2.0) < 1e-9


def test_alpha_degenerate_single_radius():
    # grid(5) has one eligible site; a single draw gives a single radius
    with pytest.raises(PreconditionError, match="degenerate fit"):
        estimate_alpha("grid", [5], 1, 0)


def test_hlc_grid_bounded():
    rep = estimate_hlc(*GRID_SPEC)
    assert abs(rep.estimates["c_sigma"] - 1.44) < 1e-12
    assert rep.flags == {"no_uniform_c_sigma": False}
    assert rep.witness == {"n": 16, "v": 122, "r": 5}


def test_hlc_line_explodes():
    rep = estimate_hlc("line", [16, 32], 30, 0)
    assert rep.estimates["c_sigma"] == 3987862.0
    assert rep.flags["no_uniform_c_sigma"] is True


def test_mv_grid_frozen():
    rep = estimate_mv(*GRID_SPEC)
    assert abs(rep.estimates["c_h"] - 0.6164266908633497) < 1e-12
    assert rep.estimates["radius1_worst_err"] <= 1e-12
    assert rep.excluded == 0
    assert len(rep.rows) == 60
    first = rep.rows[0]
    assert (first.n, first.sample_id, first.v, first.r) == (8, 0, 26, 2)
    assert abs(first.value - 0.8102420459062482) < 1e-15
    assert first.aux["pole"] == 1


def test_mv_radius_one_is_five_quarters():
    rep = estimate_mv(*GRID_SPEC)
    ones = [row for row in rep.rows if row.r == 1]
    assert ones  # the draw hits radius 1 often
    for row in ones:
        assert abs(row.value - 1.25) < 1e-12


def test_mv_pole_outside_forbidden_zone():
    rep = estimate_mv(*GRID_SPEC)
    g = gen_family("grid", 8)
    for row in [r for r in rep.rows if r.n == 8][:6]:
        ball = set(int(b) for b in g.ordinary_ball(row.v, row.r))
        near = set(ball)
        for b in ball:
            near.update(u for u, _ in g.ordinary_neighbors(b))
        assert row.aux["pole"] not in near


@pytest.mark.parametrize("shape", ["lshape", "swapped_grid5"])
def test_ball_one_wider_is_the_ball_and_its_neighbours(shape):
    # estimate_mv draws its pole outside ordinary_ball(v, r + 1)
    if shape == "lshape":
        ell = [(x, y) for x in range(1, 5) for y in range(1, 5) if x > 2 or y < 3]
        g = _window_interior(6, 6, ell)
    else:
        g = _swapped_grid5(1, 2)
    for v in range(g.n_ordinary):
        for r in range(4):
            ball = g.ordinary_ball(v, r).tolist()
            near = set(ball)
            for b in ball:
                near.update(u for u, _ in g.ordinary_neighbors(b))
            assert g.ordinary_ball(v, r + 1).tolist() == sorted(near)


def test_mv_summary_is_min_per_size():
    rep = estimate_mv(*GRID_SPEC)
    for n in (8, 16):
        vals = [row.value for row in rep.rows if row.n == n]
        assert rep.summary_value(n) == min(vals)


def test_mv_line_constant():
    rep = estimate_mv("line", [16, 32], 30, 0)
    assert abs(rep.estimates["c_h"] - 2.5) < 1e-12
    assert rep.excluded == 0


def test_ls_grid_frozen():
    rep = estimate_ls("grid", [8, 16], 20, 0)
    assert abs(rep.estimates["c_l"] - 18 / 7) < 1e-12
    assert rep.flags["superposition_violations"] == 0
    assert rep.flags["c_l_within_theorem"] is True
    assert rep.estimates["c_h_used"] == estimate_mv("grid", [8, 16], 20, 0).estimates["c_h"]
    for row in rep.rows:
        assert row.outer is not None and row.outer >= row.r
        assert {"target", "H", "h"} <= set(row.aux)


def test_ls_refuses_thin_family():
    with pytest.raises(PreconditionError, match="family too thin"):
        estimate_ls("line", [8], 5, 0)


def test_op_grid_frozen():
    rep = estimate_op("grid", [8, 16], 20, 0)
    assert rep.estimates["fhat_max"] == 29
    assert rep.flags["formula_violations"] == 0
    assert rep.table == ((1.0, 4), (1.5, 7), (2.0, 12), (3.0, 26), (4.0, 29))
    # needed count grows with the radius ratio
    values = [fhat for _, fhat in rep.table]
    assert values == sorted(values)


def test_op_uses_supplied_reports():
    # estimate_op supplies its constants from the reports of its own
    # (family, sizes, samples, seed)
    a = estimate_alpha("grid", [8], 10, 3)
    h = estimate_hlc("grid", [8], 10, 3)
    m = estimate_mv("grid", [8], 10, 3)
    rep = estimate_op("grid", [8], 10, 3)
    assert rep.estimates["alpha_used"] == a.estimates["alpha"]
    assert rep.estimates["c_sigma_used"] == h.estimates["c_sigma"]
    assert rep.estimates["c_h_used"] == m.estimates["c_h"]
    assert rep.estimates["delta_lo_used"] == a.estimates["delta_lo"]


def test_op_refuses_thin_family():
    with pytest.raises(PreconditionError, match="family too thin"):
        estimate_op("line", [8], 5, 0)


def test_thin_family_with_no_room_at_all():
    with pytest.raises(PreconditionError, match="family too thin"):
        estimate_alpha("grid", [2], 5, 0)


def test_run_spec_validation():
    with pytest.raises(PreconditionError, match="at least one family size"):
        estimate_alpha("grid", [], 5, 0)
    with pytest.raises(PreconditionError, match="at least one sample"):
        estimate_alpha("grid", [8], 0, 0)


@pytest.mark.parametrize(
    "estimate", [estimate_alpha, estimate_hlc, estimate_mv, estimate_ls, estimate_op]
)
def test_negative_seed_rejected(estimate):
    with pytest.raises(PreconditionError, match="seed must be nonnegative"):
        estimate("grid", [8], 3, -1)


# -- report format ----------------------------------------------------------


def test_csv_shape_and_first_row():
    rep = estimate_mv(*GRID_SPEC)
    lines = rep.to_csv().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "grid,8,0,mv,0,26,2,,0.8102420459062482"
    # detail rows then one summary row per size
    assert len(lines) == 1 + len(rep.rows) + 2
    assert lines[-2].startswith("grid,8,0,mv,summary,,,,")
    assert lines[-1].startswith("grid,16,0,mv,summary,,,,")


def test_csv_fills_outer_radius_column():
    rep = estimate_ls("grid", [8], 10, 0)
    detail = rep.to_csv().splitlines()[1]
    fields = detail.split(",")
    assert fields[7] != ""  # R column
    assert int(fields[7]) >= int(fields[6])


def test_reports_are_byte_deterministic():
    a = estimate_mv(*GRID_SPEC)
    b = estimate_mv(*GRID_SPEC)
    assert a.to_csv() == b.to_csv()


def test_seed_changes_draws_not_conclusions():
    r0 = estimate_alpha("grid", [8, 16], 30, 0)
    r1 = estimate_alpha("grid", [8, 16], 30, 1)
    assert [(row.v, row.r) for row in r0.rows] != [(row.v, row.r) for row in r1.rows]
    assert abs(r1.estimates["alpha"] - 2.0) < 1e-9


def test_properties_draw_independent_streams():
    a = estimate_alpha("grid", [8], 12, 0)
    h = estimate_hlc("grid", [8], 12, 0)
    assert [(r.v, r.r) for r in a.rows] != [(r.v, r.r) for r in h.rows]
