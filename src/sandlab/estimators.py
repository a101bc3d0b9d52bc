"""Seeded empirical estimation of family-level growth and diffusion constants.

Each estimator draws (vertex, radius) samples on members of a generator
family, runs the engine or the potential solver, and reduces the samples to
a named constant: the volume-growth exponent, the flooding ratio, the
mean-value ratio of harmonic fields, the local-superposition ratio, and the
uniform overlap thresholds.  Reports are deterministic functions of
(family, sizes, samples, seed) down to the CSV bytes.

Sampling prefers vertices whose largest sink-free ball has radius at least
2.  Families where no such vertex exists (the line: every vertex touches
the sink) fall back to measuring ball room by the distance to the least
internally connected vertices, which plays the same role the sink boundary
plays elsewhere.  Threshold-based estimators need true interior balls and
refuse the fallback.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .engine import (
    _least_multiple,
    flood_count,
    min_to_topple,
    min_to_topple_uniform,
    uniform_config,
)
from .errors import PreconditionError, ResourceLimitError
from .graph_core import gen_family
from .potentials import solve_potential

__all__ = [
    "SampleRow",
    "EstimateReport",
    "estimate_alpha",
    "estimate_hlc",
    "estimate_mv",
    "estimate_ls",
    "estimate_op",
    "CSV_HEADER",
]

CSV_HEADER = "family,n,seed,property,sample_id,v,r,R,value"

# rng stream tags so the properties draw independent, reproducible samples
_PROP_CODES = {"alpha": 1, "hlc": 2, "mv": 3, "ls": 4, "op": 5}

# hlc flags a family whose worst ratio climbs by more than this factor
_HLC_GROWTH_FACTOR = 2.0

# most samples (sizes times samples per size) one estimate may draw: each
# sample keeps a row, and a larger request would run for hours; the CLI's
# default of 50 per size is far below it
SAMPLE_BUDGET = 10**5


@dataclass(frozen=True)
class SampleRow:
    """One CSV detail row; ``outer`` fills the R column when the sample
    has an outer radius, and ``aux`` holds off-schema context (poles)."""

    family: str
    n: int
    sample_id: object
    v: object
    r: object
    outer: object
    value: object
    aux: dict = field(default_factory=dict, compare=False)


@dataclass
class EstimateReport:
    property_name: str
    family: str
    sizes: list[int]
    samples_per_size: int
    seed: int
    estimates: dict
    flags: dict
    witness: dict
    excluded: int
    rows: list[SampleRow]
    table: tuple = ()

    def summary_value(self, n: int):
        """Per-size aggregate written to the summary CSV row."""
        values = [row.value for row in self.rows if row.n == n]
        if not values:
            return ""
        if self.property_name == "mv":
            return min(values)
        return max(values)

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for row in self.rows:
            lines.append(
                ",".join(
                    [
                        row.family,
                        str(row.n),
                        str(self.seed),
                        self.property_name,
                        str(row.sample_id),
                        _fmt(row.v),
                        _fmt(row.r),
                        _fmt(row.outer),
                        _fmt(row.value),
                    ]
                )
            )
        for n in self.sizes:
            lines.append(
                ",".join(
                    [
                        self.family,
                        str(n),
                        str(self.seed),
                        self.property_name,
                        "summary",
                        "",
                        "",
                        "",
                        _fmt(self.summary_value(n)),
                    ]
                )
            )
        return "\n".join(lines) + "\n"


def _fmt(x) -> str:
    if x is None or x == "":
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


# ---------------------------------------------------------------------------
# sampling plumbing


def _sample_pool(g):
    """Eligible sample sites and their per-site radius caps.

    Returns (sites, caps, interior) where ``interior`` tells whether caps
    came from sink distance (true interior balls) or from the thin-family
    fallback.
    """
    eta = g.eta()
    sites = np.flatnonzero(eta >= 2)
    if len(sites):
        return sites, eta, True
    internal = g.degree - g.sink_mult
    ends = np.flatnonzero(internal == internal.min())
    caps = g.ordinary_distances(ends)
    sites = np.flatnonzero(caps >= 2)
    if len(sites) == 0:
        raise PreconditionError("family too thin")
    return sites, caps, False


def _draws(prop, family, sizes, samples, seed, interior=False):
    """The shared sampling loop: one seeded stream per (property, size).

    Yields ``(n, i, g, rng, v, r, cap)`` for sample ``i`` on size ``n``:
    the drawn site ``v``, radius ``r`` in [1, cap], and the site's radius
    cap.  Consumers may draw more from ``rng`` before taking the next
    sample.  ``interior`` refuses the thin-family fallback pool.
    """
    for n in sizes:
        g = gen_family(family, n)
        sites, caps, is_interior = _sample_pool(g)
        if interior and not is_interior:
            raise PreconditionError("family too thin")
        rng = np.random.default_rng([int(seed), _PROP_CODES[prop], int(n)])
        for i in range(samples):
            v = int(sites[rng.integers(len(sites))])
            cap = int(caps[v])
            yield n, i, g, rng, v, int(rng.integers(1, cap + 1)), cap


# ---------------------------------------------------------------------------
# estimators


def estimate_alpha(family, sizes, samples, seed) -> EstimateReport:
    """Fit the volume-growth exponent of ball volume against radius.

    Pools log(vol) on log(r) across sizes by least squares; the bracketing
    constants are the min and max of vol / r^alpha over the same samples.
    """
    _check_args(sizes, samples, seed)
    rows = []
    for n, i, g, _, v, r, _ in _draws("alpha", family, sizes, samples, seed):
        vol = g.ball_volume(g.ordinary_ball(v, r))
        rows.append(SampleRow(family, n, i, v, r, None, int(vol)))
    points = [row for row in rows if row.value > 0]
    if len(set(row.r for row in points)) < 2:
        raise PreconditionError("degenerate fit: need at least two radii")
    logs_r = np.log([row.r for row in points])
    logs_v = np.log([row.value for row in points])
    alpha, _ = np.polyfit(logs_r, logs_v, 1)
    alpha = float(alpha)
    ratios = [(row.value / row.r**alpha, row.n, row.v, row.r) for row in points]
    lo = min(ratios)
    up = max(ratios)
    witness = {"n": up[1], "v": up[2], "r": up[3], "extreme": "delta_up"}
    estimates = {
        "alpha": alpha,
        "delta_lo": float(lo[0]),
        "delta_up": float(up[0]),
    }
    return EstimateReport("alpha", family, list(sizes), samples, seed, estimates,
                          {}, witness, 0, rows)


def estimate_hlc(family, sizes, samples, seed) -> EstimateReport:
    """Worst ratio of single-site flood count to ball volume.

    A family with uniformly bounded ratio diffuses isotropically; the
    report flags the family when the per-size worst ratio climbs strictly
    with size and more than doubles overall.
    """
    _check_args(sizes, samples, seed)
    rows = []
    for n, i, g, _, v, r, _ in _draws("hlc", family, sizes, samples, seed):
        ball = g.ordinary_ball(v, r)
        ratio = flood_count(g, v, ball) / g.ball_volume(ball)
        rows.append(SampleRow(family, n, i, v, r, None, float(ratio)))
    per_size_max = [max(row.value for row in rows if row.n == n) for n in sizes]
    climbing = all(a < b for a, b in zip(per_size_max, per_size_max[1:]))
    no_uniform = (
        len(per_size_max) >= 2
        and climbing
        and per_size_max[-1] > _HLC_GROWTH_FACTOR * per_size_max[0]
    )
    worst = max(rows, key=lambda row: row.value)
    estimates = {"c_sigma": worst.value}
    flags = {"no_uniform_c_sigma": bool(no_uniform)}
    witness = {"n": worst.n, "v": worst.v, "r": worst.r}
    return EstimateReport("hlc", family, list(sizes), samples, seed, estimates,
                          flags, witness, 0, rows)


def estimate_mv(family, sizes, samples, seed) -> EstimateReport:
    """Smallest ball-averaged mass of a harmonic field relative to its center.

    For each sampled ball and a pole outside the ball and its neighborhood,
    the ratio is sum of the field over the ball divided by field-at-center
    times ball volume.  Samples whose ball leaves no room for a pole are
    excluded and counted.
    """
    _check_args(sizes, samples, seed)
    rows = []
    excluded = 0
    radius1_err = 0.0
    for n, i, g, rng, v, r, _ in _draws("mv", family, sizes, samples, seed):
        ball = g.ordinary_ball(v, r)
        vol = g.ball_volume(ball)
        # the pole lies outside the ball and its neighbours, ordinary_ball(v, r + 1)
        pool = np.setdiff1d(np.arange(g.n_ordinary), g.ordinary_ball(v, r + 1))
        if not pool.size or vol == 0:
            excluded += 1
            continue
        w = int(pool[int(rng.integers(len(pool)))])
        pi = solve_potential(g, w).values
        ratio = float(pi[ball].sum() / (pi[v] * vol))
        rows.append(SampleRow(family, n, i, v, r, None, ratio,
                              aux={"pole": int(w)}))
        if r == 1:
            ideal = (1 + int(g.degree[v])) / vol
            radius1_err = max(radius1_err, abs(ratio - ideal))
    if not rows:
        raise PreconditionError("no admissible pole for any sampled ball")
    worst = min(rows, key=lambda row: row.value)
    estimates = {"c_h": worst.value, "radius1_worst_err": float(radius1_err)}
    witness = {"n": worst.n, "v": worst.v, "r": worst.r, "pole": worst.aux["pole"]}
    return EstimateReport("mv", family, list(sizes), samples, seed, estimates,
                          {}, witness, excluded, rows)


def estimate_ls(family, sizes, samples, seed) -> EstimateReport:
    """Uniform-ball thresholds against single-site thresholds.

    Samples (v, r, R, w) with w on the inner boundary of the outer ball,
    measures the single-site threshold H at v and the least uniform
    per-site count h on the inner ball that topples w, and reports the
    largest h * Vol / H.  Each sample is also checked against the
    mean-value bound h <= ((D + 1) / C_h) * H / Vol + 1, D the largest
    degree seen; violations make the report unusable and are counted.
    """
    _check_args(sizes, samples, seed)
    c_h = estimate_mv(family, sizes, samples, seed).estimates["c_h"]
    rows = []
    excluded = 0
    dmax = 0
    triples = []
    for n, i, g, rng, v, r, cap in _draws("ls", family, sizes, samples, seed,
                                         interior=True):
        dmax = max(dmax, int(g.degree.max()))
        outer = int(rng.integers(r, cap + 1))
        boundary = _inner_boundary(g, g.ordinary_ball(v, outer))
        if not boundary:
            excluded += 1
            continue
        w = boundary[int(rng.integers(len(boundary)))]
        ball = g.ordinary_ball(v, r)
        vol = g.ball_volume(ball)
        big = min_to_topple(g, v, w)
        h = min_to_topple_uniform(g, ball, w).h_topple
        rows.append(SampleRow(family, n, i, v, r, outer, float(h * vol / big),
                              aux={"target": int(w), "H": big, "h": h}))
        triples.append((h, big, vol))
    if not rows:
        raise PreconditionError("no usable threshold samples")
    violations = sum(h > (dmax + 1) / c_h * big / vol + 1 for h, big, vol in triples)
    worst = max(rows, key=lambda row: row.value)
    c_l = worst.value
    theorem_cap = (dmax + 1) / c_h * 1.05 + 1
    estimates = {"c_l": c_l, "c_h_used": float(c_h)}
    flags = {
        "superposition_violations": violations,
        "c_l_within_theorem": bool(c_l <= theorem_cap),
    }
    witness = {"n": worst.n, "v": worst.v, "r": worst.r,
               "R": worst.outer, "target": worst.aux["target"]}
    return EstimateReport("ls", family, list(sizes), samples, seed, estimates,
                          flags, witness, excluded, rows)


def estimate_op(family, sizes, samples, seed) -> EstimateReport:
    """Uniform inner-ball count needed to topple a whole outer ball.

    Tabulates the threshold against the radius ratio R / r and checks each
    sample against the closed-form overlap bound built from the run's own
    estimated constants.
    """
    _check_args(sizes, samples, seed)
    alpha_report = estimate_alpha(family, sizes, samples, seed)
    alpha = alpha_report.estimates["alpha"]
    delta_lo = alpha_report.estimates["delta_lo"]
    c_sigma = estimate_hlc(family, sizes, samples, seed).estimates["c_sigma"]
    c_h = estimate_mv(family, sizes, samples, seed).estimates["c_h"]
    rows = []
    violations = 0
    by_ratio: dict[float, int] = {}
    for n, i, g, rng, v, r, cap in _draws("op", family, sizes, samples, seed,
                                         interior=True):
        dmax = int(g.degree.max())
        outer = int(rng.integers(r, cap + 1))
        sources = g.ordinary_ball(v, r)
        targets = g.ordinary_ball(v, outer)
        fhat, _ = _least_multiple(g, uniform_config(g, sources, 1), targets, "topple")
        ratio = outer / r
        rows.append(SampleRow(family, n, i, v, r, outer, int(fhat)))
        key = round(ratio, 9)
        by_ratio[key] = max(by_ratio.get(key, 0), fhat)
        bound = (c_sigma / c_h) * (dmax * (dmax + 1) / delta_lo) * ratio**alpha
        if fhat > bound:
            violations += 1
    worst = max(rows, key=lambda row: row.value)
    table = tuple(sorted(by_ratio.items()))
    estimates = {
        "fhat_max": worst.value,
        "alpha_used": float(alpha),
        "c_sigma_used": float(c_sigma),
        "c_h_used": float(c_h),
        "delta_lo_used": float(delta_lo),
    }
    flags = {"formula_violations": violations}
    witness = {"n": worst.n, "v": worst.v, "r": worst.r, "R": worst.outer}
    return EstimateReport("op", family, list(sizes), samples, seed, estimates,
                          flags, witness, 0, rows, table)


def _inner_boundary(g, ball):
    """Ball vertices with a neighbor (sink included) outside the ball."""
    ball = np.asarray(ball, dtype=np.int64)
    outside = np.ones(g.n_ordinary, dtype=np.int64)
    outside[ball] = 0
    # multiplicity from each vertex to the ordinary vertices outside the ball
    leaving = g._inflow(outside)
    return ball[(leaving[ball] > 0) | (g.sink_mult[ball] > 0)].tolist()


def _check_args(sizes, samples, seed):
    if seed < 0:
        raise PreconditionError(f"seed must be nonnegative, got {seed}")
    if not sizes:
        raise PreconditionError("need at least one family size")
    if samples < 1:
        raise PreconditionError("need at least one sample per size")
    total = len(sizes) * samples
    if total > SAMPLE_BUDGET:
        raise ResourceLimitError(
            f"an estimate of {total} samples ({len(sizes)} size(s) x {samples}) "
            f"exceeds the sample budget {SAMPLE_BUDGET}"
        )
