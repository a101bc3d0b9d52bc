"""Flood propagation along paths whose sink distance varies linearly.

The engine can flood a ball around one vertex; this module moves that
flooded ball along a path.  A path is usable when it decomposes into few
segments on which the sink-boundary distance eta rises or falls linearly
(or stays flat for a logarithmically short stretch).  Each re-centering
half a radius ahead costs at most a constant multiplicative factor in
particles, so the total particle count to reach a far target is the
initialization cost times a product of per-step multipliers, and the
number of steps is logarithmic per segment.

The closed-form per-step factor and the resulting transience-class bound
are evaluated from a ``BoundParams`` bundle, normally filled with the
constants the estimator module measured on the same family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .engine import _least_multiple, flood_count, point_config, stabilize
from .errors import InternalError, PreconditionError, ResourceLimitError
from .graph_core import _bfs

__all__ = [
    "PathSegment",
    "CentralPath",
    "FloodStep",
    "FloodTrace",
    "BoundParams",
    "find_central_path_grid",
    "classify_path",
    "single_step",
    "propagate",
    "tcl_bound",
]

# slack on the one-unit residual cap that makes a segment fit linear
_LINEAR_TOL = 1e-6


@dataclass(frozen=True)
class PathSegment:
    """Maximal stretch of a path with one linear eta regime.

    ``start`` and ``end`` are inclusive indices into the path vertices;
    ``b`` is the fitted slope of eta per step, and ``a_l``/``a_u`` bound
    the fit residuals.  ``phase`` is expansion, contraction, or drift.
    """

    start: int
    end: int
    b: float
    a_l: float
    a_u: float
    phase: str

    def advance_rate(self) -> float:
        """Per-step radius factor g: above 1 when the phase makes progress."""
        if self.phase == "expansion":
            return 1.0 + self.b / 2.0
        if self.phase == "contraction":
            return 1.0 / (1.0 + self.b / 2.0)
        return 1.0


@dataclass(frozen=True)
class CentralPath:
    vertices: tuple
    eta: tuple
    segments: tuple
    drift_len: float

    @property
    def k(self) -> int:
        return len(self.segments)


@dataclass(frozen=True)
class FloodStep:
    center: int
    radius: int
    multiplier: int
    segment: int


@dataclass(frozen=True)
class FloodTrace:
    """Bookkeeping of one propagation run; ``total`` is exact."""

    k0: int
    steps: tuple
    total: int
    target_flooded: bool

    def to_json(self) -> dict:
        return {
            "k0": int(self.k0),
            "steps": [
                {
                    "center": int(s.center),
                    "radius": int(s.radius),
                    "multiplier": int(s.multiplier),
                    "segment": int(s.segment),
                }
                for s in self.steps
            ],
            "total": str(self.total),
            "target_flooded": bool(self.target_flooded),
        }


@dataclass(frozen=True)
class BoundParams:
    """Family constants feeding the closed-form propagation bounds.

    ``k_segments`` and ``drift_len`` describe the path decomposition the
    family guarantees; ``g_hat`` is the slowest per-step radius factor
    over the phases in use.
    """

    c_sigma: float
    c_h: float
    max_degree: int
    delta_lo: float
    alpha: float
    k_segments: int = 2
    drift_len: float = 0.0
    g_hat: float = 1.5

    def epicenter_constant(self) -> float:
        """Single-step multiplier cap: worst particle inflation per re-center."""
        d = self.max_degree
        return (self.c_sigma / self.c_h) * (d * (d + 1) / self.delta_lo) * 3.0**self.alpha

    @classmethod
    def grid_defaults(cls) -> "BoundParams":
        return cls(c_sigma=2.0, c_h=0.25, max_degree=4, delta_lo=1.0, alpha=2.0,
                   drift_len=0.5)

    @classmethod
    def from_estimates(cls, alpha_report, hlc_report, mv_report):
        """Grid defaults with the four measured constants swapped in."""
        return replace(
            cls.grid_defaults(),
            c_sigma=hlc_report.estimates["c_sigma"],
            c_h=mv_report.estimates["c_h"],
            delta_lo=alpha_report.estimates["delta_lo"],
            alpha=alpha_report.estimates["alpha"],
        )


# ---------------------------------------------------------------------------
# path construction


def _staircase(p, q):
    """Lattice staircase hugging the straight segment from p to q.

    Walks the dominant coordinate one unit at a time and aligns the other
    coordinate to the floor of the connecting line before each hop, which
    keeps every vertex on or just below the segment.
    """
    if p == q:
        return [p]
    dx, dy = q[0] - p[0], q[1] - p[1]
    if abs(dy) > abs(dx):
        flipped = _staircase((p[1], p[0]), (q[1], q[0]))
        return [(y, x) for x, y in flipped]
    path = [p]
    x, y = p
    step = 1 if dx > 0 else -1
    while x != q[0]:
        x_next = x + step
        y_next = p[1] + dy * (x_next - p[0]) // dx  # exact floor, dx != 0
        while y != y_next:
            y += 1 if y_next > y else -1
            path.append((x, y))
        x = x_next
        path.append((x, y))
    return path


def _grid_side(g):
    """Side length when g is a full square lattice block, else None."""
    if g.coords is None:
        return None
    m = g.n_ordinary
    side = math.isqrt(m)
    if side * side != m or side < 2:
        return None
    if set(g.coords.values()) != {(x, y) for x in range(side) for y in range(side)}:
        return None
    if not (g.degree == 4).all():
        return None
    return side


def find_central_path_grid(g, p, q) -> CentralPath:
    """Staircase path from p to q through the grid center, classified.

    Uses at most two legs (p to center, center to q), each a staircase
    under the straight segment.  Segments are classified with the grid
    defaults' ``drift_len``, the one ``tcl_bound`` reads.
    """
    side = _grid_side(g)
    if side is None:
        raise PreconditionError(
            "central-path construction defined for grid family only"
        )
    g.check_ordinary(p, "path start")
    g.check_ordinary(q, "path end")
    l = BoundParams.grid_defaults().drift_len
    if p == q:
        return CentralPath(vertices=(), eta=(), segments=(), drift_len=l)
    mid = (side - 1) // 2
    center = g.vertex_at(mid, mid)
    cp, cq, cc = g.coords[p], g.coords[q], g.coords[center]
    if p == center or q == center:
        coords = _staircase(cp, cq)
        breaks = None
    else:
        first = _staircase(cp, cc)
        second = _staircase(cc, cq)
        coords = first + second[1:]
        breaks = [len(first) - 1]
    vertices = [g.vertex_at(x, y) for x, y in coords]
    return classify_path(g, vertices, l=l, breaks=breaks)


def classify_path(g, path, l=0.0, breaks=None) -> CentralPath:
    """Fit eta along the path and label each linear segment with its phase.

    A segment that is not linear with a clear slope is split at an interior
    eta extreme and both parts refit.  One without such an extreme is a
    drift when it is linear and spans at most ``l * log(graph size)`` steps,
    and disqualifies the path otherwise.  Since splits come first, a larger
    ``l`` only turns refusals into drift segments.
    """
    vertices = [int(v) for v in path]
    for v in vertices:
        g.check_ordinary(v, "path vertex")
    for a, b in zip(vertices, vertices[1:]):
        if all(u != b for u, _ in g.ordinary_neighbors(a)):
            raise PreconditionError(f"path vertices {a} and {b} not adjacent")
    eta_all = g.eta()
    eta = [int(eta_all[v]) for v in vertices]
    if len(vertices) < 2:
        return CentralPath(tuple(vertices), tuple(eta), (), float(l))

    drift_cap = l * math.log(max(2, g.n_ordinary))
    segments = []

    def fit(s, e):
        xs = np.arange(e - s + 1, dtype=float)
        ys = np.array(eta[s : e + 1], dtype=float)
        b, a = np.polyfit(xs, ys, 1)
        res = ys - (b * xs + a)
        return float(b), float(res.min()), float(res.max())

    def classify(s, e, depth):
        if depth > 12:
            raise PreconditionError("path not (k,l)-central")
        b, a_l, a_u = fit(s, e)
        linear = max(abs(a_l), abs(a_u)) <= 1.0 + _LINEAR_TOL
        if linear and b >= 0.1:
            segments.append(PathSegment(s, e, b, a_l, a_u, "expansion"))
            return
        if linear and b <= -0.1:
            segments.append(PathSegment(s, e, b, a_l, a_u, "contraction"))
            return
        cut = _split_point(eta, s, e)
        if cut is None and linear and e - s <= drift_cap:
            segments.append(PathSegment(s, e, b, a_l, a_u, "drift"))
            return
        if cut is None:
            raise PreconditionError("path not (k,l)-central")
        classify(s, cut, depth + 1)
        classify(cut, e, depth + 1)

    spans = []
    prev = 0
    for cut in sorted(breaks or []):
        if prev < cut < len(vertices) - 1:
            spans.append((prev, cut))
            prev = cut
    spans.append((prev, len(vertices) - 1))
    for s, e in spans:
        if e > s:
            classify(s, e, 0)
    return CentralPath(tuple(vertices), tuple(eta), tuple(segments), float(l))


def _split_point(eta, s, e):
    """Interior split index: eta maximum, else minimum, else None."""
    interior = range(s + 1, e)
    if not interior:
        return None
    hi = max(interior, key=lambda i: eta[i])
    if eta[hi] > max(eta[s], eta[e]):
        return hi
    lo = min(interior, key=lambda i: eta[i])
    if eta[lo] < min(eta[s], eta[e]):
        return lo
    return None


# ---------------------------------------------------------------------------
# propagation


def single_step(g, v, u, c_base, params: BoundParams):
    """One re-centering experiment: from a flooded ball at v to one at u.

    ``u`` must sit half of eta(v) away; the empirical multiplier is the
    least k such that k times the base configuration floods the ball at u.
    Returns (K_emp, closed-form bound).
    """
    g.check_ordinary(v, "step source")
    g.check_ordinary(u, "step target")
    eta = g.eta()
    eta_v = int(eta[v])
    if eta_v < 2:
        raise PreconditionError("no interior ball")
    ball_v = g.ordinary_ball(v, eta_v)
    base = [int(c) for c in c_base]
    at_one = stabilize(g, base)
    if not at_one.flooded(ball_v):
        raise PreconditionError("base configuration does not flood the source ball")
    bound = params.epicenter_constant()
    if u == v:
        return 1, bound
    dist = int(g.ordinary_distances([v])[u])
    want = eta_v // 2
    if dist != want:
        raise PreconditionError(
            f"step target at distance {dist}, expected {want}"
        )
    eta_u = int(eta[u])
    if not (2 * eta_u >= eta_v and 2 * eta_u <= 3 * eta_v):
        raise InternalError("radius ratio left its guaranteed window")
    ball_u = g.ordinary_ball(u, eta_u)
    k, _ = _least_multiple(g, base, ball_u, "flood", at_one=at_one)
    return k, bound


def propagate(g, p, q, params: BoundParams, heuristic=False,
              max_steps=10_000) -> FloodTrace:
    """Flood q starting from p by walking a central path.

    Initialization floods the largest sink-free ball at p (or, starting
    at the boundary, a radius-3 ball around the fourth path vertex); each
    later step re-centers half a radius ahead at multiplicative cost.
    All particles stay at p: only the count grows.
    """
    g.check_ordinary(p, "source")
    g.check_ordinary(q, "target")
    if max_steps < 0:
        raise PreconditionError(f"max_steps must be nonnegative, got {max_steps}")
    if p == q:
        k0 = flood_count(g, p, [p])
        return FloodTrace(k0=k0, steps=(), total=k0, target_flooded=True)
    if _grid_side(g) is not None:
        path = find_central_path_grid(g, p, q)
    elif heuristic:
        path = classify_path(g, _bfs_path(g, p, q), l=params.drift_len)
    else:
        raise PreconditionError(
            "central-path construction defined for grid family only"
        )
    vertices, eta = path.vertices, path.eta

    if eta[0] >= 1:
        idx = 0
        ball = g.ordinary_ball(p, eta[0])
    else:
        # boundary start: eta is 1-Lipschitz so the radius-3 ball around
        # the fourth vertex covers its whole sink-free ball
        idx = min(3, len(vertices) - 1)
        ball = g.ordinary_ball(vertices[idx], 3)
    k0, res = _least_multiple(g, point_config(g, p, 1), ball, "flood")
    total = k0
    steps = []
    if res.flooded([q]):
        return FloodTrace(k0=k0, steps=(), total=total, target_flooded=True)

    for seg_idx, seg in enumerate(path.segments):
        if seg.end <= idx:
            continue
        eta_min = max(1, min(eta[seg.start : seg.end + 1]))
        while idx < seg.end:
            if len(steps) >= max_steps:
                err = ResourceLimitError(
                    f"target not flooded within {max_steps} steps"
                )
                err.trace = FloodTrace(k0, tuple(steps), total, False)
                raise err
            here = max(1, (eta_min if seg.phase == "drift" else eta[idx]) // 2)
            idx = min(idx + here, seg.end)
            u = vertices[idx]
            radius = eta[idx]
            targets = g.ordinary_ball(u, radius) if radius >= 1 else [u]
            # res is stabilize(total * e_p), this search's state at count 1
            k, res = _least_multiple(g, point_config(g, p, total), targets, "flood",
                                     at_one=res)
            total *= k
            steps.append(FloodStep(center=u, radius=radius, multiplier=k,
                                   segment=seg_idx))
            if res.flooded([q]):
                return FloodTrace(k0, tuple(steps), total, True)

    # res stabilizes the final total and was found dry above
    return FloodTrace(k0, tuple(steps), total, False)


def _bfs_path(g, p, q):
    """Shortest sink-deleted path, for families without a constructed path.

    It is the path a first-in first-out search from p records: each
    vertex's predecessor is its neighbor that the search took from the
    queue first, i.e. the neighbor it reached first.
    """
    order = _bfs(g.indptr, g.indices, [p])
    if q not in order:
        raise PreconditionError("target unreachable without the sink")
    rank = dict(zip(order, range(len(order))))
    path = [q]
    while path[-1] != p:
        path.append(min((u for u, _ in g.ordinary_neighbors(path[-1])), key=rank.get))
    return path[::-1]


def tcl_bound(params: BoundParams, n: int) -> float:
    """Closed-form transience-class ceiling for a family member of size n."""
    if n < 2:
        raise PreconditionError("bound needs n >= 2")
    if params.g_hat <= 1.0:
        raise PreconditionError("non-advancing phase")
    big_k = params.epicenter_constant()
    k, l = params.k_segments, params.drift_len
    if big_k <= 1.0:
        exponent = float(k)
    else:
        exponent = k + (2 * l + 1) * k * math.log(big_k, params.g_hat)
    return params.c_sigma * params.max_degree * float(n) ** exponent
