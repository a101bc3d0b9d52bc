"""Output checks of the benchmark, run outside the timed region.

Each checker returns a list of problems; an empty list means the output
passed.  The checks recompute what they certify from the graph's edges and
from public ``stabilize`` calls, so they do not trust the code under test
to check itself.
"""

from __future__ import annotations

import csv
import io

import numpy as np

from sandlab import engine

RESIDUAL_LIMIT = 1e-10
RESISTANCE_RTOL = 1e-8


def _exact(values, dtype):
    return np.array([int(x) for x in values], dtype=dtype)


def check_stabilization(g, counts, res) -> list[str]:
    """Exact integer recheck of one stabilization.

    Checks that ``stable`` is stable, that ``score`` is nonnegative, the
    balance identity stable = counts - L score with L from
    ``g.laplacian()``, conservation of particles into the sink, and the
    reported totals.
    """
    m = g.n_ordinary
    if len(res.stable) != m or len(res.score) != m:
        return [f"result has {len(res.stable)}/{len(res.score)} entries, expected {m}"]
    # int64 is exact while no partial sum can reach 2^62; beyond that the
    # same arithmetic runs on Python integers
    bound = sum(int(c) for c in counts) + max(int(s) for s in res.score) * 2 * int(g.degree.max())
    dtype = np.int64 if bound < 1 << 62 else object
    c0 = _exact(counts, dtype)
    stable = _exact(res.stable, dtype)
    score = _exact(res.score, dtype)
    deg = _exact(g.degree, dtype)
    problems = []
    if not ((stable >= 0) & (stable < deg)).all():
        v = int(np.flatnonzero(~((stable >= 0) & (stable < deg)))[0])
        problems.append(f"vertex {v} not stable: {stable[v]} with degree {deg[v]}")
    if (score < 0).any():
        problems.append(f"negative score at vertex {int(np.flatnonzero(score < 0)[0])}")
    lap = g.laplacian().tocoo()
    flow = np.zeros(m, dtype=dtype)
    np.add.at(flow, lap.row, _exact(lap.data, dtype) * score[lap.col])
    bad = np.flatnonzero(stable != c0 - flow)
    if len(bad):
        problems.append(f"balance identity fails at vertex {int(bad[0])}")
    absorbed = int((_exact(g.sink_mult, dtype) * score).sum())
    if int(c0.sum()) != int(stable.sum()) + absorbed:
        problems.append("particles not conserved into the sink")
    if int(res.sink_absorbed) != absorbed:
        problems.append(f"sink_absorbed {res.sink_absorbed} != {absorbed}")
    if int(res.topplings_total) != int(score.sum()):
        problems.append(f"topplings_total {res.topplings_total} != sum(score)")
    return problems


def flooded(g, counts, score, targets) -> bool:
    """Every target got a particle: placed there or sent by a neighbor."""
    adj = g.adjacency().tocsr()
    toppled = np.array([int(s) > 0 for s in score])
    for t in targets:
        t = int(t)
        nbrs = adj.indices[adj.indptr[t]:adj.indptr[t + 1]]
        if int(counts[t]) == 0 and not toppled[nbrs].any():
            return False
    return True


def check_threshold(predicate, x) -> list[str]:
    """A least-count answer ``x``: the predicate holds at x, fails at x-1."""
    x = int(x)
    if x < 1:
        return [f"threshold {x} below 1"]
    problems = []
    if not predicate(x):
        problems.append(f"predicate fails at the answer {x}")
    if predicate(x - 1):
        problems.append(f"predicate already holds at {x - 1}, below the answer {x}")
    return problems


def flood_predicate(g, v, targets):
    def holds(x):
        counts = engine.point_config(g, v, x)
        res = engine.stabilize(g, counts)
        return flooded(g, counts, res.score, targets)

    return holds


def topple_predicate(g, counts_for, w):
    """``w`` topples when ``counts_for(x)`` is stabilized."""

    def holds(x):
        return engine.stabilize(g, counts_for(x)).score[w] >= 1

    return holds


def all_topple_predicate(g, v):
    def holds(x):
        score = engine.stabilize(g, engine.point_config(g, v, x)).score
        return all(s >= 1 for s in score)

    return holds


def harmonic_residual(g, values, pole) -> float:
    """Worst degree-relative harmonicity defect off the pole, from g.edges."""
    deg = np.asarray(g.degree, dtype=float)
    edges = np.array(g.edges, dtype=np.int64).reshape(-1, 3)
    u, v, mult = edges[edges[:, 1] != g.sink].T
    defect = deg * values
    np.subtract.at(defect, u, mult * values[v])
    np.subtract.at(defect, v, mult * values[u])
    rel = np.abs(defect) / deg
    rel[pole] = 0.0
    return float(rel.max())


def check_field(g, fld, pole) -> list[str]:
    """Pole value 1, values in [0, 1], residual small and honestly reported."""
    values = np.asarray(fld.values, dtype=float)
    if values.shape != (g.n_ordinary,):
        return [f"field has shape {values.shape}"]
    problems = []
    if int(fld.pole) != int(pole):
        problems.append(f"field pole {fld.pole} != requested {pole}")
    if abs(values[pole] - 1.0) > 1e-12:
        problems.append(f"pole value {values[pole]!r} != 1")
    if values.min() < -1e-12 or values.max() > 1.0 + 1e-12:
        problems.append("field leaves [0, 1]")
    residual = harmonic_residual(g, values, pole)
    if residual > RESIDUAL_LIMIT:
        problems.append(f"recomputed residual {residual:.3e} > {RESIDUAL_LIMIT:g}")
    if abs(float(fld.residual) - residual) > RESIDUAL_LIMIT:
        problems.append(
            f"reported residual {float(fld.residual):.3e} != recomputed {residual:.3e}"
        )
    return problems


def check_resistance(r_uv, r_vu=None) -> list[str]:
    """Positive, and symmetric when the reverse value is given."""
    problems = []
    if not np.isfinite(r_uv) or r_uv <= 0:
        problems.append(f"resistance {r_uv!r} not positive")
    if r_vu is not None and abs(r_uv - r_vu) > RESISTANCE_RTOL * abs(r_uv):
        problems.append(f"R(u,v) = {r_uv!r} but R(v,u) = {r_vu!r}")
    return problems


def check_epicenter_trace(data: dict) -> list[str]:
    """The exact total equals k0 times the product of the step multipliers."""
    product = int(data["k0"])
    for step in data["steps"]:
        product *= int(step["multiplier"])
    if int(data["total"]) != product:
        return [f"total {data['total']} != k0 * multipliers = {product}"]
    return []


def check_estimate_csv(text: str, sizes, samples: int, excluded: int) -> list[str]:
    """One row per kept sample and one summary row per size."""
    rows = list(csv.DictReader(io.StringIO(text)))
    summary = sum(1 for row in rows if row["sample_id"] == "summary")
    detail = len(rows) - summary
    problems = []
    if summary != len(sizes):
        problems.append(f"{summary} summary rows for {len(sizes)} sizes")
    if detail + excluded != len(sizes) * samples:
        problems.append(
            f"{detail} sample rows + {excluded} excluded != {len(sizes) * samples} drawn"
        )
    return problems


def check_flood_report(data: dict, ball_size: int) -> list[str]:
    result = data["results"]
    problems = []
    if int(result["ball_size"]) != ball_size:
        problems.append(f"ball_size {result['ball_size']} != {ball_size}")
    if int(result["count"]) < 1:
        problems.append(f"flood count {result['count']} below 1")
    return problems
