"""The benchmark's output checks accept true answers and reject corrupted ones."""

import dataclasses

import numpy as np
import pytest

from sandlab import (
    BoundParams,
    effective_resistance,
    engine,
    estimate_hlc,
    grid_sandpile,
    line_sandpile,
    propagate,
    solve_potential,
)

import checks


@pytest.fixture(scope="module")
def g8():
    return grid_sandpile(8)


@pytest.fixture(scope="module")
def drop(g8):
    counts = engine.point_config(g8, g8.vertex_at(3, 4), 300)
    return counts, engine.stabilize(g8, counts)


def test_stabilization_accepts_true_result(g8, drop):
    counts, res = drop
    assert checks.check_stabilization(g8, counts, res) == []


def _bump(values, v, by=1):
    out = list(values)
    out[v] += by
    return out


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda res: {"stable": _bump(res.stable, 5)},
        lambda res: {"stable": _bump(res.stable, 5, by=-res.stable[5] - 1)},
        lambda res: {"score": _bump(res.score, 9)},
        lambda res: {"sink_absorbed": res.sink_absorbed + 1},
        lambda res: {"topplings_total": res.topplings_total - 1},
    ],
    ids=["stable", "negative-stable", "score", "absorbed", "topplings"],
)
def test_stabilization_rejects_corruption(g8, drop, corrupt):
    counts, res = drop
    bad = dataclasses.replace(res, **corrupt(res))
    assert checks.check_stabilization(g8, counts, bad)


def test_stabilization_check_is_exact_beyond_int64():
    g = line_sandpile(5)
    counts = [0, 0, 3 << 70, 0, 0]
    res = engine.stabilize(g, counts)
    assert checks.check_stabilization(g, counts, res) == []
    bad = dataclasses.replace(res, stable=_bump(res.stable, 2))
    assert checks.check_stabilization(g, counts, bad)


def test_flooded_matches_received(g8):
    rng = np.random.default_rng(3)
    for _ in range(20):
        counts = [int(x) for x in rng.integers(0, 6, size=g8.n_ordinary)]
        counts = [c if rng.random() < 0.3 else 0 for c in counts]
        res = engine.stabilize(g8, counts)
        targets = [int(t) for t in rng.choice(g8.n_ordinary, size=5, replace=False)]
        assert checks.flooded(g8, counts, res.score, targets) == res.flooded(targets)


def _threshold_cases():
    g = grid_sandpile(8)
    v, w = g.vertex_at(3, 3), g.vertex_at(3, 6)
    ball = g.ordinary_ball(v, 2)
    line = line_sandpile(6)
    return [
        ("flood", engine.flood_count(g, v, ball), checks.flood_predicate(g, v, ball)),
        (
            "topple",
            engine.min_to_topple(g, v, w),
            checks.topple_predicate(g, lambda x: engine.point_config(g, v, x), w),
        ),
        (
            "uniform",
            engine.min_to_topple_uniform(g, ball, w).h_topple,
            checks.topple_predicate(g, lambda x: engine.uniform_config(g, ball, x), w),
        ),
        ("tcl", engine.tcl_single_site(g, v).value, checks.all_topple_predicate(g, v)),
        ("tcl-line", engine.tcl_single_site(line, 2).value, checks.all_topple_predicate(line, 2)),
    ]


THRESHOLD_CASES = _threshold_cases()


@pytest.mark.parametrize("name,answer,predicate", THRESHOLD_CASES,
                         ids=[case[0] for case in THRESHOLD_CASES])
def test_threshold_accepts_answer_and_rejects_off_by_one(name, answer, predicate):
    assert checks.check_threshold(predicate, answer) == []
    assert checks.check_threshold(predicate, answer + 1)
    assert checks.check_threshold(predicate, answer - 1)


def test_field_accepts_true_field(g8):
    w = g8.vertex_at(2, 5)
    assert checks.check_field(g8, solve_potential(g8, w), w) == []


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda f: {"residual": 1e-3},
        lambda f: {"values": f.values + np.where(np.arange(len(f.values)) == 7, 1e-6, 0)},
        lambda f: {"values": f.values / 2},
        lambda f: {"pole": f.pole + 1},
    ],
    ids=["reported-residual", "values", "pole-value", "pole"],
)
def test_field_rejects_wrong_residual_or_pole(g8, corrupt):
    w = g8.vertex_at(2, 5)
    fld = solve_potential(g8, w)
    assert checks.check_field(g8, dataclasses.replace(fld, **corrupt(fld)), w)


def test_resistance_checks(g8):
    r = effective_resistance(g8, 3, 40)
    assert checks.check_resistance(r, effective_resistance(g8, 40, 3)) == []
    assert checks.check_resistance(r, r * (1 + 1e-6))
    assert checks.check_resistance(-r)


def test_epicenter_trace_total(g8):
    data = propagate(g8, g8.vertex_at(1, 1), g8.vertex_at(6, 6),
                     BoundParams.grid_defaults()).to_json()
    assert checks.check_epicenter_trace(data) == []
    assert checks.check_epicenter_trace({**data, "total": str(int(data["total"]) + 1)})


def test_estimate_csv_row_counts():
    report = estimate_hlc("grid", [8], 4, 0)
    text = report.to_csv()
    assert checks.check_estimate_csv(text, [8], 4, report.excluded) == []
    dropped = "".join(text.splitlines(keepends=True)[:-2]) + text.splitlines(keepends=True)[-1]
    assert checks.check_estimate_csv(dropped, [8], 4, report.excluded)
    assert checks.check_estimate_csv(text, [8, 16], 4, report.excluded)


def test_flood_report_ball_size():
    data = {"results": {"ball_size": 13, "count": 40}}
    assert checks.check_flood_report(data, 13) == []
    assert checks.check_flood_report(data, 12)
    assert checks.check_flood_report({"results": {"ball_size": 13, "count": 0}}, 13)
