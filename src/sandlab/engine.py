"""Stabilization dynamics and particle-threshold experiments.

A configuration assigns a nonnegative particle count to every ordinary
vertex.  A vertex holding at least its degree is unstable and may topple,
sending one particle along each incident edge (multiplicities included);
particles sent to the sink vanish.  Stabilization topples until no vertex
is unstable.  The final configuration and the per-vertex toppling counts
(the score) do not depend on the order of topplings, which is why several
scheduling policies are offered: they are observability knobs, not
semantics knobs.

Every stabilization is closed out by an exact integer audit of

    final = initial - L^T * score      (L the sink-reduced Laplacian)

plus conservation of particles into the sink.  A failed audit raises
``InternalError`` and is counted in ``engine_stats``.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import InternalError, PreconditionError, ResourceLimitError
from .graph_core import SandpileGraph

__all__ = [
    "StabilizationResult",
    "UniformThreshold",
    "TclResult",
    "stabilize",
    "point_config",
    "uniform_config",
    "max_stable",
    "min_to_topple",
    "min_to_topple_uniform",
    "flood_count",
    "is_recurrent",
    "recurrent_count",
    "spanning_tree_count",
    "tcl_exact",
    "tcl_single_site",
    "engine_stats",
    "DEFAULT_STATE_LIMIT",
]

DEFAULT_STATE_LIMIT = 1 << 20

# counts below this total take the vectorized int64 path; larger ones use
# the exact fifo worklist (the line family grows thresholds exponentially)
_INT64_SAFE_TOTAL = 1 << 52

_STATS = {"stabilizations": 0, "identity_checks": 0, "identity_failures": 0}


def engine_stats() -> dict:
    """Counters for the always-on stabilization audit (copies, not views)."""
    return dict(_STATS)


@dataclass
class StabilizationResult:
    """Outcome of one stabilization.

    ``received`` counts every particle that ever arrived at a vertex,
    initial placement included; a vertex is flooded when it received at
    least one particle.
    """

    stable: list[int]
    score: list[int]
    sink_absorbed: int
    topplings_total: int
    received: list[int] = field(repr=False, default_factory=list)

    def flooded(self, vertices) -> bool:
        return all(self.received[v] > 0 for v in vertices)

    def to_json(self) -> dict:
        return {
            "stable": [int(x) for x in self.stable],
            "score": [int(x) for x in self.score],
            "topplings_total": int(self.topplings_total),
            "sink_absorbed": int(self.sink_absorbed),
        }


@dataclass(frozen=True)
class UniformThreshold:
    """Per-site uniform placement thresholds around a watched vertex.

    ``h_topple`` is the least per-site count that topples the watched
    vertex; ``h_no_topple`` = h_topple - 1 is the largest count that does
    not.  Both are always reported together.
    """

    h_topple: int
    h_no_topple: int


@dataclass(frozen=True)
class TclResult:
    """A transience measurement with its witness.

    For ``mode="exact"`` the witness is an addition sequence (vertex ids)
    realizing the value; for ``mode="single_site"`` it is the site used.
    """

    value: int
    mode: str
    witness: object


# ---------------------------------------------------------------------------
# configurations


def normalize_config(g: SandpileGraph, counts) -> list[int]:
    """Coerce a sequence or {vertex: count} mapping to a dense int list."""
    if isinstance(counts, dict):
        values = [0] * g.n_ordinary
        for v, c in counts.items():
            g.check_ordinary(int(v), "configuration site")
            values[int(v)] = int(c)
    else:
        values = [int(c) for c in counts]
        if len(values) != g.n_ordinary:
            raise PreconditionError(
                f"configuration has {len(values)} entries, expected {g.n_ordinary}"
            )
    for v, c in enumerate(values):
        if c < 0:
            raise PreconditionError(f"negative count at vertex {v}")
    return values


def point_config(g: SandpileGraph, v: int, count: int) -> list[int]:
    g.check_ordinary(v, "placement site")
    if count < 0:
        raise PreconditionError("count must be nonnegative")
    values = [0] * g.n_ordinary
    values[v] = int(count)
    return values


def uniform_config(g: SandpileGraph, sites, count: int) -> list[int]:
    if count < 0:
        raise PreconditionError("count must be nonnegative")
    values = [0] * g.n_ordinary
    for v in sites:
        g.check_ordinary(int(v), "placement site")
        values[int(v)] = int(count)
    return values


def max_stable(g: SandpileGraph) -> list[int]:
    """Maximal stable configuration: degree minus one everywhere."""
    return [int(d) - 1 for d in g.degree]


# ---------------------------------------------------------------------------
# stabilization


def stabilize(g: SandpileGraph, counts, policy: str = "batch", seed=None):
    """Stabilize ``counts`` on ``g`` and return a ``StabilizationResult``.

    ``policy`` picks the internal toppling order: "batch" (default) fires
    every unstable vertex its full quota per int64 sweep and hands runs that
    could outgrow int64 to "fifo"; "fifo"/"lifo" run an exact worklist, and
    "random" pops the worklist in seeded random order.  The result is
    policy independent; only performance differs.
    """
    c0 = normalize_config(g, counts)
    if policy == "batch":
        if sum(c0) < _INT64_SAFE_TOTAL:
            stable, score = _stabilize_batch_int64(g, c0)
        else:
            stable, score = _stabilize_worklist(g, c0, "fifo", None)
    elif policy in ("fifo", "lifo", "random"):
        stable, score = _stabilize_worklist(g, c0, policy, seed)
    else:
        raise PreconditionError(f"unknown policy {policy!r}")
    return _audit(g, c0, stable, score)


def _stabilize_batch_int64(g, c0):
    deg = g.degree
    adj = g.adjacency()
    c = np.array(c0, dtype=np.int64)
    z = np.zeros(g.n_ordinary, dtype=np.int64)
    rounds = 0
    while True:
        k = c // deg
        if not k.any():
            break
        z += k
        c += adj @ k - k * deg
        rounds += 1
        if rounds > 50_000_000:
            raise InternalError("batch stabilization failed to converge")
        if z.max() > _INT64_SAFE_TOTAL:
            # fall back to exact integers rather than risk 64-bit overflow
            return _stabilize_worklist(g, c0, "fifo", None)
    return c.tolist(), z.tolist()


def _stabilize_worklist(g, c0, policy, seed):
    deg = [int(d) for d in g.degree]
    nbrs = [g.ordinary_neighbors(v) for v in range(g.n_ordinary)]
    c = list(c0)
    z = [0] * g.n_ordinary
    queued = [False] * g.n_ordinary
    work = [v for v in range(g.n_ordinary) if c[v] >= deg[v]]
    for v in work:
        queued[v] = True
    rng = random.Random(seed if seed is not None else 0)
    if policy in ("fifo", "lifo"):
        work = deque(work)
    while work:
        if policy == "fifo":
            v = work.popleft()
        elif policy == "lifo":
            v = work.pop()
        else:
            i = rng.randrange(len(work))
            work[i], work[-1] = work[-1], work[i]
            v = work.pop()
        queued[v] = False
        if c[v] < deg[v]:
            continue
        k = c[v] // deg[v]
        z[v] += k
        c[v] -= k * deg[v]
        for u, mult in nbrs[v]:
            c[u] += k * mult
            if c[u] >= deg[u] and not queued[u]:
                queued[u] = True
                work.append(u)
    return c, z


def _audit(g, c0, stable, score):
    """Close out a stabilization with the exact balance check, or raise."""
    _STATS["stabilizations"] += 1
    _STATS["identity_checks"] += 1
    absorbed = sum(int(m) * s for m, s in zip(g.sink_mult, score))
    received = _balance_check(g, c0, stable, score, absorbed)
    if received is None:
        _STATS["identity_failures"] += 1
        raise InternalError("stabilization audit failed (Laplacian identity)")
    return StabilizationResult(
        stable=stable,
        score=score,
        sink_absorbed=absorbed,
        topplings_total=sum(score),
        received=received,
    )


def _balance_check(g, c0, stable, score, absorbed):
    """Exact integer check of final = initial - L^T score and conservation.

    Holds when ``stable`` is a stable, nonnegative outcome of ``c0`` under
    nonnegative toppling counts ``score`` and exactly ``absorbed``
    particles reach the sink.  Returns the per-vertex received counts
    (initial placement plus inflow) when it holds, else None.
    """
    deg = [int(d) for d in g.degree]
    inflow = [0] * g.n_ordinary
    for u, v, mult in g.edges:
        if v == g.sink:
            continue
        inflow[u] += mult * score[v]
        inflow[v] += mult * score[u]
    for v in range(g.n_ordinary):
        expect = c0[v] - deg[v] * score[v] + inflow[v]
        if stable[v] != expect or not (0 <= stable[v] < deg[v]) or score[v] < 0:
            return None
    if sum(c0) != sum(stable) + absorbed:
        return None
    return [c + f for c, f in zip(c0, inflow)]


# ---------------------------------------------------------------------------
# monotone threshold searches


def _least_multiple(g: SandpileGraph, base, done, start: int = 1):
    """Least x >= 1 whose stabilization of ``x * base`` satisfies ``done``.

    Returns ``(x, result)`` with the audited ``StabilizationResult`` of
    that stabilization.  Doubles an upper bracket from ``start`` and then
    bisects; the caller guarantees monotonicity (larger placements only
    add topplings).
    """

    def probe(x):
        res = stabilize(g, [x * c for c in base])
        return res if done(res) else None

    lo, hi = 0, max(1, int(start))
    best = probe(hi)
    while best is None:
        lo, hi = hi, hi * 2
        if hi > 1 << 200:
            raise InternalError("threshold search diverged")
        best = probe(hi)
    # invariant: best is the result at hi and passes done; every answer is above lo
    while hi - lo > 1:
        mid = (lo + hi) // 2
        res = probe(mid)
        if res is not None:
            hi, best = mid, res
        else:
            lo = mid
    return hi, best


def min_to_topple(g: SandpileGraph, v: int, w: int) -> int:
    """Least particle count placed at ``v`` that makes ``w`` topple."""
    g.check_ordinary(v, "source")
    if w == g.sink:
        raise PreconditionError("the sink never topples")
    g.check_ordinary(w, "target")
    x, _ = _least_multiple(
        g, point_config(g, v, 1), lambda res: res.score[w] >= 1, int(g.degree[w])
    )
    return x


def min_to_topple_uniform(g: SandpileGraph, sites, w: int) -> UniformThreshold:
    """Uniform per-site threshold on ``sites`` that topples ``w``.

    Reports both sides of the threshold; ``h_no_topple`` is the quantity
    bounded by the dual certificate of the potential solver.
    """
    sites = sorted(set(int(s) for s in sites))
    if not sites:
        raise PreconditionError("site set is empty")
    if w == g.sink:
        raise PreconditionError("the sink never topples")
    g.check_ordinary(w, "target")
    h, _ = _least_multiple(
        g,
        uniform_config(g, sites, 1),
        lambda res: res.score[w] >= 1,
        int(g.degree[w]) if len(sites) == 1 else 1,
    )
    return UniformThreshold(h_topple=h, h_no_topple=h - 1)


def flood_count(g: SandpileGraph, v: int, targets) -> int:
    """Least count placed at ``v`` so every target receives a particle.

    Placement counts as receiving, so ``flood_count(g, v, [v]) == 1``.
    """
    g.check_ordinary(v, "source")
    target_list = sorted(set(int(t) for t in targets))
    if not target_list:
        raise PreconditionError("target set is empty")
    for t in target_list:
        g.check_ordinary(t, "target")
    x, _ = _least_multiple(
        g, point_config(g, v, 1), lambda res: res.flooded(target_list)
    )
    return x


# ---------------------------------------------------------------------------
# recurrence


def is_recurrent(g: SandpileGraph, counts) -> bool:
    """Burning test: drop each vertex's sink multiplicity and stabilize.

    The configuration is recurrent exactly when every ordinary vertex
    topples once and the configuration returns to its starting point.
    """
    c = normalize_config(g, counts)
    for v, x in enumerate(c):
        if x >= g.degree[v]:
            raise PreconditionError(f"configuration not stable at vertex {v}")
    burn = [x + int(m) for x, m in zip(c, g.sink_mult)]
    res = stabilize(g, burn)
    return all(s == 1 for s in res.score) and res.stable == c


def _stable_state_count(g: SandpileGraph) -> int:
    total = 1
    for d in g.degree:
        total *= int(d)
    return total


def recurrent_count(g: SandpileGraph, state_limit: int = DEFAULT_STATE_LIMIT) -> int:
    """Number of recurrent stable states, by exhaustive burning tests."""
    total = _stable_state_count(g)
    if total > state_limit:
        raise ResourceLimitError(
            f"state space {total} exceeds limit {state_limit}"
        )
    count = 0
    ranges = [range(int(d)) for d in g.degree]
    for state in itertools.product(*ranges):
        if is_recurrent(g, list(state)):
            count += 1
    return count


def spanning_tree_count(g: SandpileGraph) -> int:
    """Determinant of the sink-reduced Laplacian, exactly (Bareiss).

    By the matrix-tree theorem this counts spanning trees of the full
    multigraph and must equal the number of recurrent stable states.
    """
    m = g.n_ordinary
    a = [[0] * m for _ in range(m)]
    for v in range(m):
        a[v][v] = int(g.degree[v])
    for u, v, mult in g.edges:
        if v == g.sink:
            continue
        a[u][v] -= mult
        a[v][u] -= mult
    sign = 1
    prev = 1
    for k in range(m - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, m) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, m):
            for j in range(k + 1, m):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[m - 1][m - 1]


# ---------------------------------------------------------------------------
# transience class


def tcl_exact(g: SandpileGraph, state_limit: int = DEFAULT_STATE_LIMIT) -> TclResult:
    """Longest transient addition chain from the empty configuration.

    Explores the stable-state transition graph (add one particle anywhere,
    stabilize).  Additions whose result is recurrent are not counted; the
    value is the largest number of additions that keeps every intermediate
    stable configuration transient.  A cycle among transient states would
    contradict finiteness and raises ``InternalError``.
    """
    total = _stable_state_count(g)
    if total > state_limit:
        raise ResourceLimitError(
            f"state space {total} exceeds limit {state_limit}"
        )
    m = g.n_ordinary
    empty = tuple([0] * m)

    recurrent_memo: dict[tuple, bool] = {}

    def recurrent(state):
        res = recurrent_memo.get(state)
        if res is None:
            res = is_recurrent(g, list(state))
            recurrent_memo[state] = res
        return res

    if recurrent(empty):
        return TclResult(value=0, mode="exact", witness=[])

    successors: dict[tuple, list[tuple]] = {}

    def step(state, site):
        c = list(state)
        c[site] += 1
        return tuple(stabilize(g, c).stable)

    # iterative depth-first longest path over transient states
    WHITE, GRAY, BLACK = 0, 1, 2
    color: dict[tuple, int] = {}
    best: dict[tuple, tuple[int, int]] = {}  # state -> (length, best site or -1)
    stack = [(empty, 0)]
    color[empty] = GRAY
    while stack:
        state, idx = stack[-1]
        if idx == 0 and state not in successors:
            successors[state] = [step(state, site) for site in range(m)]
        succ = successors[state]
        if idx < m:
            stack[-1] = (state, idx + 1)
            nxt = succ[idx]
            if recurrent(nxt):
                continue
            st = color.get(nxt, WHITE)
            if st == GRAY:
                raise InternalError("cycle among transient states")
            if st == WHITE:
                color[nxt] = GRAY
                stack.append((nxt, 0))
        else:
            stack.pop()
            color[state] = BLACK
            length, site_pick = 0, -1
            for site, nxt in enumerate(succ):
                if recurrent(nxt):
                    continue
                cand = 1 + best[nxt][0]
                if cand > length:
                    length, site_pick = cand, site
            best[state] = (length, site_pick)

    value = best[empty][0]
    witness = []
    state = empty
    while best[state][1] >= 0:
        site = best[state][1]
        witness.append(site)
        state = successors[state][site]
    return TclResult(value=value, mode="exact", witness=witness)


def tcl_single_site(g: SandpileGraph, v: int) -> TclResult:
    """Least count at ``v`` whose stabilization topples every vertex."""
    g.check_ordinary(v, "site")
    value, _ = _least_multiple(
        g, point_config(g, v, 1), lambda res: min(res.score) >= 1, int(g.degree[v])
    )
    return TclResult(value=value, mode="single_site", witness=int(v))
