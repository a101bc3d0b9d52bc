"""Stabilization dynamics and particle-threshold experiments.

A configuration assigns a nonnegative particle count to every ordinary
vertex.  A vertex holding at least its degree is unstable and may topple,
sending one particle along each incident edge (multiplicities included);
particles sent to the sink vanish.  Stabilization topples until no vertex
is unstable.  The final configuration and the per-vertex toppling counts
(the score) do not depend on the order of topplings, which is why several
scheduling policies are offered: they are observability knobs, not
semantics knobs.

Two kernels stabilize.  On a lattice block (a grid, line or strip, or any
graph whose arrays are exactly those ``graph_core`` builds for one, such as
a ``sandlab gen grid`` file loaded back) the default "batch" policy runs a
red-black shift stencil: the two colours of the bipartite block take turns,
and each half-step fires every unstable vertex of one colour its full
quota, over the rows that can hold unstable sites.  Its colour-split
layout is built on a block's first stencil run, dropped with the graph,
and each run loads the whole block into it once.  It runs in int32 or
int64, as the odometer bound of ``_stabilize_lattice`` allows, and only
when that bound proves that int64 holds the run.  Every other run takes an
exact worklist in Python ints: the named policy, or fifo for a batch run
off lattice blocks or past that bound.  ``engine_stats`` counts
stabilizations by the kernel that produced them.

Every engine outcome is closed out by one exact integer audit,
``_balance_check``, of

    final = initial - L^T * score      (L the sink-reduced Laplacian)

with stability, nonnegativity and conservation of particles into the sink.
It runs every check in int64 when a bound on the inputs rules out
overflow, else in Python ints, and it is the one place that builds a
``StabilizationResult``: the audited outcome, or None.  In ``stabilize`` a
None raises ``InternalError`` and is counted in ``engine_stats``;
``sandlab verify`` reruns the audit and compares its result whole with the
one ``stabilize`` returned.

Every threshold answer in the package (``min_to_topple``,
``min_to_topple_uniform``, ``flood_count``, ``tcl_single_site`` and the
searches of ``estimators`` and ``epicenter``) is the least multiple x of a
base placement such that, in the stabilization of x times it, every vertex
of a target set has toppled, or has received a particle.  One search,
``_least_multiple``, takes the target set and that goal, a key of the
``_GOALS`` table, which reads each goal from the targets' ``(stable,
score)``.  It refuses a target that no multiple can reach, and raises
``InternalError`` when a probe fails its goal although every vertex the
placement reaches has toppled, so that no defect doubles without end.
The search doubles from 1 and then bisects.  Each probe's ``(stable,
score)`` is built from stable states the search already holds: the state
at the last failing count ``lo`` plus the state at ``x - lo``, a power of
two that the doubling has found failing, or at the first probe the
placement itself.  Every legal toppling of either summand stays legal in
their sum, so by the abelian property stabilizing the sum completes the
stabilization of x times the base.  A sum that is already stable topples
nothing and is composed without a stabilization, so ``engine_stats``
counts only the probes that topple.  The table of those doubling states,
with the empty one, holds fewer than ``log2(x) + 2`` states.  The search
closes out with the audit of the state at the answer against x times the
base, which builds the result it returns.

``tcl_exact`` measures the transience class on small graphs: it collects
the transient stable states reachable from empty and takes the longest
addition chain over them in topological order.  By the same rule, a
particle added to a stable state is stabilized only where it brings its
site to the degree.

Counts pass between the kernels, the audit and the threshold searches as
``_counts`` arrays: int64 while every entry is below 2**62, Python ints in
an object array past that.  A ``StabilizationResult`` keeps those arrays
and exposes Python lists, each made the first time it is read; the engine
itself reads only the arrays.
"""

from __future__ import annotations

import functools
import graphlib
import itertools
import math
import random
import weakref
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

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

# int64 sums of two counts below this bound are exact
_INT64_HEADROOM = 1 << 62

_STATS = {
    "stabilizations": 0,
    "identity_checks": 0,
    "identity_failures": 0,
    "lattice_stencil": 0,
    "worklist": 0,
}


def engine_stats() -> dict:
    """Counters for the always-on stabilization audit (copies, not views).

    ``stabilizations``, ``identity_checks`` and ``identity_failures`` count
    ``stabilize`` calls and their audits.  ``lattice_stencil`` and
    ``worklist`` count stabilizations by the kernel that produced the
    result: the batch stencil on a lattice block whose odometer bound
    ``total * reach`` is below 2**62, and an exact worklist (the fifo, lifo
    and random policies, and every other batch run, which goes to fifo).
    """
    return dict(_STATS)


class _ListField:
    """A list field of ``StabilizationResult`` kept as a ``_counts`` array.

    Set to an array, the field keeps it as ``_<name>`` and reads as its
    list, made the first time it is read.  Set to a list, it reads as that
    list, and ``_<name>`` is the list as a ``_counts`` array.  The engine
    reads the arrays, so a result that no caller lists costs no list.
    """

    def __init__(self, name):
        self.name, self.array = name, "_" + name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        values = obj.__dict__[self.name]
        if values is None:
            values = obj.__dict__[self.name] = obj.__dict__[self.array].tolist()
        return values

    def __set__(self, obj, values):
        if isinstance(values, np.ndarray):
            obj.__dict__[self.name], obj.__dict__[self.array] = None, values
        else:
            obj.__dict__[self.name], obj.__dict__[self.array] = values, _counts(values)


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
        return bool((self._received[list(vertices)] > 0).all())

    def to_json(self) -> dict:
        return {
            "stable": [int(x) for x in self.stable],
            "score": [int(x) for x in self.score],
            "topplings_total": int(self.topplings_total),
            "sink_absorbed": int(self.sink_absorbed),
        }


# set after the decorator has read the fields, which would take a descriptor
# in the class body for the field's default value
StabilizationResult.stable = _ListField("stable")
StabilizationResult.score = _ListField("score")
StabilizationResult.received = _ListField("received")


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


def normalize_config(g: SandpileGraph, counts) -> np.ndarray:
    """Coerce a sequence, {vertex: count} mapping or array to a ``_counts``
    array, each entry as ``int()`` reads it.  A one-dimensional int64 array
    is taken as it is; one pass reads its maximum as unsigned, which is
    below 2**62 exactly when every entry is nonnegative and within the
    ``_counts`` bound."""
    if (
        isinstance(counts, np.ndarray)
        and counts.dtype == np.int64
        and counts.shape == (g.n_ordinary,)
        and counts.view(np.uint64).max(initial=0) < _INT64_HEADROOM
    ):
        return counts
    if isinstance(counts, dict):
        values = [0] * g.n_ordinary
        for v, c in counts.items():
            g.check_ordinary(int(v), "configuration site")
            values[int(v)] = int(c)
    elif isinstance(counts, np.ndarray) and not (counts.dtype == np.int64 and counts.ndim == 1):
        values = counts.tolist()
    else:  # an iterator, which has no length, is read into a list first
        values = counts if hasattr(counts, "__len__") else list(counts)
    if len(values) != g.n_ordinary:
        raise PreconditionError(
            f"configuration has {len(values)} entries, expected {g.n_ordinary}"
        )
    values = _counts(values)
    if values.min(initial=0) < 0:
        raise PreconditionError(f"negative count at vertex {np.flatnonzero(values < 0)[0]}")
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
    return (g.degree - 1).tolist()


# ---------------------------------------------------------------------------
# stabilization


def stabilize(g: SandpileGraph, counts, policy: str = "batch", seed=None):
    """Stabilize ``counts`` on ``g`` and return a ``StabilizationResult``.

    ``policy`` picks the internal toppling order: "batch" (default) fires
    every unstable vertex of one colour its full quota per red-black stencil
    half-step on a lattice block whose counts provably stay within int64,
    and runs "fifo" on every other graph and input; "fifo"/"lifo" run an
    exact worklist, and "random" pops the worklist in seeded random order.
    The result is policy independent; only performance differs.
    """
    c0 = normalize_config(g, counts)
    if policy not in ("batch", "fifo", "lifo", "random"):
        raise PreconditionError(f"unknown policy {policy!r}")
    total, block = _total(c0), g._block
    reach = None if block is None else (min(block) + 1) // 2
    if policy == "batch" and reach is not None and total * reach < _INT64_HEADROOM:
        path, out = "lattice_stencil", _stabilize_lattice(g, c0, total)
    else:
        path = "worklist"
        out = _stabilize_worklist(g, c0, "fifo" if policy == "batch" else policy, seed)
    _STATS[path] += 1
    _STATS["stabilizations"] += 1
    _STATS["identity_checks"] += 1
    res = _balance_check(g, c0, *out)
    if res is None:
        _STATS["identity_failures"] += 1
        raise InternalError("stabilization audit failed (Laplacian identity)")
    return res


class _Lattice(NamedTuple):
    """The colour-split layout of a rows x cols lattice block.

    Row x of the block sits at padded row x + 1 of stride ``width = cols +
    1 + cols % 2``, cell (x, y) at flat index ``f = (x + 1) * width + y``;
    the pad columns ``y >= cols`` and the pad rows 0 and rows + 1 stand for
    the sink.  The stride is odd, so a cell's colour in the bipartite
    lattice is ``f % 2``, and its four neighbours f -+ 1 and f -+ width
    have the other colour.  One buffer of ``2 * half`` cells holds colour 0
    at ``f // 2`` and colour 1 at ``half + f // 2``, and ``perm`` maps each
    vertex to its buffer position.  In the colour-p half, the cell at index
    i has its neighbours at i + p - 1, i + p, i + p - (width + 1) // 2 and
    i + p + (width - 1) // 2 of the other half, so a run of cells of one
    colour meets its neighbours in four contiguous runs.

    ``shift`` maps int32 and int64 to the right shift that gives each
    buffer cell's firing count in that dtype: 2 on the rows x cols real
    cells (every degree is 4), and on pad cells one less than the dtype's
    bits, so that they never fire.
    """

    width: int
    half: int
    perm: np.ndarray
    shift: dict

    @classmethod
    def of(cls, rows, cols):
        width = cols + 1 + cols % 2
        half = ((rows + 2) * width + 1) // 2
        flat = (np.arange(width, (rows + 1) * width, width)[:, None] + np.arange(cols)).ravel()
        perm = (flat & 1) * half + (flat >> 1)
        # the colour-split order is the padded row-major order, transposed
        # as ``half`` pairs of cells
        shift = np.full(2 * half, 63, dtype=np.int64)
        shift[:(rows + 2) * width].reshape(rows + 2, width)[1:-1, :cols] = 2
        shift = shift.reshape(half, 2).T.ravel()
        return cls(width, half, perm, {np.int32: (shift & 31).astype(np.int32), np.int64: shift})


_LATTICES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _lattice(g: SandpileGraph) -> _Lattice:
    """The layout of the lattice block ``g``, built on its first stencil
    run and dropped with the graph."""
    if g not in _LATTICES:
        _LATTICES[g] = _Lattice.of(*g._block)
    return _LATTICES[g]


def _stabilize_lattice(g, c0, total):
    """Red-black half-steps on a lattice block: each fires every unstable
    vertex of one colour its full quota ``c // degree``, and the colours
    take turns.  ``total`` is ``sum(c0)``.  Returns ``(stable, score)`` as
    int64 arrays.

    The order is legal: a half-step fires only vertices that hold at least
    their degree, and a block is bipartite, so the vertices of one colour
    send nothing to each other and may fire at once.  By the abelian
    property (Dhar 1990) every legal order that ends stable gives the same
    ``stable`` and ``score``.  A half-step leaves its colour stable, so the
    run ends at the first half-step that fires nothing, bar the very first,
    which may find only the other colour unstable.

    ``stabilize`` runs it only when ``total * reach < 2**62``, with
    ``reach = (min(rows, cols) + 1) // 2``, and then no value of the run
    can overflow int64; it runs in int32 when ``total * reach < 2**31``.
    The score is the odometer ``G (c0 - stable) <= G c0``, where ``G =
    L^-1`` is the Green's function of the sink-reduced Laplacian, which is
    nonnegative.  By the maximum principle ``G(v, w) <= G(w, w) = R_eff(w,
    sink)``, and by Rayleigh monotonicity ``R_eff(w, sink) <= eta(w) + 1 <=
    reach``, the length of a shortest path from w to the sink.  So every
    toppling count is at most ``total * reach``, at the end and, as toppling
    counts only grow, at every half-step.  No cell ever holds more than
    ``total``: a real cell holds particles still in play, and a pad cell
    holds at most what the sink has absorbed.

    The counts live in the colour-split buffer of ``_lattice(g)`` (see
    ``_Lattice``).  A half-step on colour p computes ``k = c >> shift`` over
    its half, adds k to the score, keeps ``c & 3`` and adds k to the runs
    of the other half that hold the neighbours: four, or on a one-row block
    only the west and east runs, as its north and south runs lie wholly in
    pad rows.  It touches only whole padded rows that can hold unstable
    cells.  The cells a half-step finds unstable lie within one row of
    those that fired in the half-step before, so the views are made once
    per block of 8 half-steps, over the rows that fired last widened by 8,
    and after each block the range shrinks back to the rows that fired.
    ``& 3`` takes a 0-d array of the buffer's dtype: a Python int costs a
    scalar conversion on every call, up to twice an add on a short run.

    ``c0`` enters the buffer in one scatter, and ``stable`` and ``score``
    leave it in one gather each.  Loading only the rows the half-steps
    reach saves nothing on the benchmark batches: in a paired per-call
    replay the whole block ran 0.97-1.01x the time of a row-by-row load.
    """
    over = np.flatnonzero(c0 >= 4)
    if not over.size:
        return c0.copy(), np.zeros(len(c0), dtype=np.int64)
    rows, cols = g._block
    width, half, perm, shifts = _lattice(g)
    dtype = np.int32 if total * ((min(rows, cols) + 1) // 2) < 1 << 31 else np.int64
    shift, three = shifts[dtype], np.array(3, dtype=dtype)
    c = np.zeros(2 * half, dtype=dtype)
    z = np.zeros(2 * half, dtype=dtype)
    k = np.empty(half, dtype=dtype)
    c[perm] = c0
    first, last = int(over[0]) // cols + 1, int(over[-1]) // cols + 1  # padded rows
    steps = 0
    while True:
        lo, hi = max(first - 8, 1) * width, min(last + 9, rows + 1) * width
        block = []
        for q in (0, 1):
            # colour q's cells of rows [lo, hi) lie at [a, b) of its half;
            # the runs of their west and north neighbours start at west and
            # north of the other half, east and south one cell and one row on
            a, b = (lo - q + 1) // 2, (hi - q + 1) // 2
            i, j = q * half + a, q * half + b
            west = (1 - q) * half + a + q - 1
            north = west + 1 - (width + 1) // 2
            size = b - a
            runs = (c[west:west + size], c[west + 1:west + 1 + size])
            if rows > 1:
                runs += (c[north:north + size], c[north + width:north + width + size])
            block.append((a, c[i:j], z[i:j], shift[i:j], k[:size], runs))
        for a, cv, zv, sv, kv, runs in block * 4:  # colours 0, 1, 0, ...
            np.right_shift(cv, sv, kv)
            steps += 1
            if np.count_nonzero(kv):
                zv += kv
                cv &= three
                for run in runs:
                    run += kv
            elif steps > 1:
                return c[perm].astype(np.int64, copy=False), z[perm].astype(np.int64, copy=False)
        if steps > 100_000_000:
            raise InternalError("batch stabilization failed to converge")
        fire = np.flatnonzero(kv)  # the last half-step fired, on colour 1
        first = (2 * (a + int(fire[0])) + 1) // width
        last = (2 * (a + int(fire[-1])) + 1) // width


def _stabilize_worklist(g, c0, policy, seed):
    deg = g.degree.tolist()
    ptr, nbr, mult = g.indptr.tolist(), g.indices.tolist(), g.mult.tolist()
    nbrs = [list(zip(nbr[a:b], mult[a:b])) for a, b in zip(ptr, ptr[1:])]
    c = np.asarray(c0).tolist()
    z = [0] * g.n_ordinary
    queued = [False] * g.n_ordinary
    work = [v for v in range(g.n_ordinary) if c[v] >= deg[v]]
    for v in work:
        queued[v] = True
    if policy == "random":
        rng = random.Random(seed if seed is not None else 0)
    else:
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
        # queued only while c[v] >= deg[v]; until popped, only other
        # vertices' firings change c[v], always upward
        queued[v] = False
        k = c[v] // deg[v]
        z[v] += k
        c[v] -= k * deg[v]
        for u, mult in nbrs[v]:
            c[u] += k * mult
            if c[u] >= deg[u] and not queued[u]:
                queued[u] = True
                work.append(u)
    return _counts(c), _counts(z)


def _balance_check(g, c0, stable, score):
    """Exact integer check of final = initial - L^T score and conservation.

    Holds when ``stable`` is a stable, nonnegative outcome of ``c0`` under
    nonnegative toppling counts ``score``, and the particles lost, ``sum(c0
    - stable)``, are those sent to the sink, ``sum(sink_mult * score)``.
    Returns the audited ``StabilizationResult`` of ``(c0, stable, score)``
    when it holds, else None; nothing else in the package builds one.  The three vectors
    may be sequences or arrays.  The result keeps ``stable`` and ``score``
    as ``_counts`` arrays (an array as it is given), with the received
    counts (initial placement plus inflow) and the particles the sink
    absorbed.  ``stabilize`` counts the check and raises on None, the
    threshold search raises naming its count, and ``sandlab verify``
    compares the result whole with the one it rechecks.

    Every check runs in one dtype.  It is int64 when the three vectors are
    int64 and, with m ordinary vertices and the entries of ``c0`` and
    ``score`` read as unsigned,

        max(score) * 2 * max(degree) + m * max(c0)  <  2**62

    Read as unsigned, a negative entry is at least 2**63, so the one pass
    that takes each maximum also checks ``score >= 0``: a negative score,
    or a negative initial count, takes the Python-int path, which rejects
    the one and reads the other exactly.  Under the bound every entry of
    ``received`` and of ``degree * score`` lies in [0, 2**62).  Inputs past
    it, such as the line family's counts, run each check on object arrays
    of Python ints.

    In int64 the checks take a few fused passes:

    - balance: ``degree * score - received + stable`` is zero.  Its first
      two terms differ by less than 2**62, so its true value lies within
      2**63 + 2**62 of 0 whatever ``stable`` holds, and int64 addition is
      exact modulo 2**64: the computed sum is zero exactly when the true
      one is, also where adding ``stable`` wraps.
    - range: ``stable`` read as unsigned is below ``degree``, which is
      ``0 <= stable < degree`` in one compare, as every degree is below
      2**63.
    - conservation: ``sum(c0) - sum(stable)`` equals ``np.dot(sink_mult,
      score)``.  Once the balance and the range hold, ``sum(stable) =
      sum(c0) - sum(sink_mult * score)`` lies in [0, sum(c0)], so the left
      side is exact, and the dot, which may wrap, is exact modulo 2**64: the
      two agree exactly when the true sums do, and ``absorbed`` is exact.
    """
    c, s, z = (x if isinstance(x, np.ndarray) else _counts(x) for x in (c0, stable, score))
    m = g.n_ordinary
    if not len(c) == len(s) == len(z) == m:
        return None
    deg, mult = g.degree, g.sink_mult
    if c.dtype == s.dtype == z.dtype == np.int64 and (
        int(z.view(np.uint64).max()) * 2 * g._max_degree + m * int(c.view(np.uint64).max())
        < _INT64_HEADROOM
    ):
        received = g._inflow(z)
        received += c
        residual = deg * z
        residual -= received
        residual += s
        absorbed = int(np.dot(mult, z))
        if (
            residual.any()
            or not (s.view(np.uint64) < deg.view(np.uint64)).all()
            or int(c.sum()) - int(s.sum()) != absorbed
        ):
            return None
    else:
        co, so, zo, deg, mult = (a.astype(object) for a in (c, s, z, deg, mult))
        received = co + g._inflow(zo)
        absorbed = int((mult * zo).sum())
        if (
            np.count_nonzero(so != received - deg * zo)
            or so.min() < 0
            or (deg - so).min() <= 0
            or zo.min() < 0
            or int((co - so).sum()) != absorbed
        ):
            return None
    return StabilizationResult(s, z, absorbed, _total(z), received)


# ---------------------------------------------------------------------------
# monotone threshold searches


# the goals of ``_least_multiple``, each read from the targets' ``(stable,
# score)``: a vertex has received a particle exactly when it holds one or has
# toppled, as ``received = stable + degree * score``
_GOALS = {
    "topple": lambda stable, score: score.min() > 0,
    "flood": lambda stable, score: (stable + score).min() > 0,
}


def _least_multiple(g: SandpileGraph, base, targets, goal: str, *, at_one=None):
    """Least x >= 1 such that, in the stabilization of ``x * base``, every
    vertex of ``targets`` has toppled (``goal="topple"``: score >= 1) or
    received a particle (``goal="flood"``: received >= 1).

    Returns ``(x, result)`` with the ``StabilizationResult`` of that
    stabilization.  Doubles an upper bracket from 1 and then bisects:
    larger placements only add topplings, so the goal is monotone.
    ``_GOALS[goal]`` reads the goal from the targets' ``(stable, score)``.

    As x grows, a vertex comes to topple exactly when it lies in a
    sink-deleted component that holds a site of ``supp(base)``: the
    reduced Laplacian is block diagonal over those components, and its
    inverse is positive on each block.  A target outside them raises
    ``PreconditionError`` before the first probe; on a lattice block, which
    is connected, the placement reaches every vertex.  Once every vertex
    the placement reaches has toppled, every target has toppled and
    received a particle, so a doubling probe there that fails its goal is a
    defect: it raises ``InternalError`` naming the goal and the count,
    where the doubling would otherwise run without end.

    Each probe is built from the states ``(stable, score)`` the search
    already holds: ``table`` maps the count 0 to the empty state, the
    count 1 to the raw placement ``(base, 0)`` (or ``at_one``), and every
    count the doubling found failing to its state, which replaces the raw
    placement once the probe at 1 fails.  A probe at x takes the state at
    the last failing count ``lo`` and adds the table's state at ``d = x -
    lo``: ``c = stable(lo) + stable(d)``, and the scores add.  This is
    legal: the topplings that stabilize ``lo * base`` stay legal once ``d *
    base`` is added, and those that stabilize ``d * base`` stay legal on
    ``stable(lo) + d * base``, as added particles never make a legal
    toppling illegal; the raw placement is a legal state with no
    topplings yet.  So by the abelian property (Dhar 1990) stabilizing
    ``c`` completes a legal stabilization of ``x * base``, and its
    ``stable`` and ``score`` are those of ``stabilize(x * base)``.  A ``c``
    that topples goes through ``stabilize``, with the full audit; a ``c``
    that is already stable, every entry below its degree, topples nothing
    and is composed without a stabilization, so ``engine_stats`` counts only
    the probes that topple.

    No ``stabilize`` audit sees the state at the answer whole, so the
    search closes out with ``_balance_check`` against ``x * base``, which
    builds the returned result; a state that fails it raises
    ``InternalError`` naming x.  ``engine_stats`` does not count it.

    The doubling fails at 1, 2, ..., ``2**(k - 1)`` and stores each of
    them, and bisection on ``[2**(k - 1), 2**k]`` keeps ``hi - lo`` a power
    of two, so every increment is a stored power of two.  As the answer
    exceeds ``2**(k - 1)``, those are fewer than ``log2(x) + 2`` states,
    with the empty one, each two int64 vectors of m entries while the
    counts fit.  ``at_one``, a caller's ``stabilize(g, base)``, seeds the
    state at count 1, so that the first probe is composed.  It seeds count
    1, not count 0: every table state must be some ``stab(d * base)`` to
    serve as an increment, and a seed at count 0 would put ``stab(seed + d
    * base)`` there.
    """
    base = _counts(base)
    targets = np.asarray(targets, dtype=np.int64)
    reach = slice(None)  # the vertices the placement reaches
    if g._block is None:
        reach = g.ordinary_distances(np.flatnonzero(base)) >= 0
        unreached = targets[~reach[targets]]
        if unreached.size:
            raise PreconditionError(
                f"target {unreached[0]} is unreachable from the placement without the sink"
            )
    degree = g.degree.view(np.uint64)
    zero = np.zeros(g.n_ordinary, dtype=np.int64)
    one = (base, zero) if at_one is None else (at_one._stable, at_one._score)
    table = {0: (zero, zero), 1: one}  # count -> (stable, score)

    def probe(x):
        inc = table[x - lo]
        c, score = at_lo[0] + inc[0], _counts(at_lo[1] + inc[1])
        # one unsigned compare reads 0 <= c < degree
        if c.dtype == np.int64 and (c.view(np.uint64) < degree).all():
            c = _counts(c)  # a degree past 2**62 lets a stable entry pass the bound
        else:
            step = stabilize(g, c)
            c, score = step._stable, _counts(score + step._score)
        return (c, score), _GOALS[goal](c[targets], score[targets])

    lo, hi, at_lo = 0, 1, table[0]
    best, done = probe(hi)
    while not done:
        if best[1][reach].min() > 0:
            raise InternalError(f"search goal {goal!r} fails at count {hi} "
                                "with every vertex the placement reaches toppled")
        table[hi] = best
        lo, hi, at_lo = hi, hi * 2, best
        best, done = probe(hi)
    # invariant: best is the state at hi and meets the goal; every answer is above lo
    while hi - lo > 1:
        mid = (lo + hi) // 2
        state, done = probe(mid)
        if done:
            hi, best = mid, state
        else:
            lo, at_lo = mid, state
    res = _balance_check(g, _times(base, hi), *best)
    if res is None:
        raise InternalError(f"threshold search audit failed at count {hi} (Laplacian identity)")
    return hi, res


def _counts(values):
    """Nonnegative counts as an exact array: int64 while every entry is
    below 2**62, so that adding two such arrays cannot wrap, else Python
    ints (object dtype).  A sequence is read as ``int()`` reads each entry;
    an array is taken as it is."""
    if not isinstance(values, np.ndarray):
        try:
            values = np.fromiter(values, np.int64, len(values))
        except OverflowError:
            return np.array([int(v) for v in values], dtype=object)
    if values.dtype != object and values.max(initial=0) >= _INT64_HEADROOM:
        return values.astype(object)
    return values


def _total(counts) -> int:
    """Exact sum of a ``_counts`` array."""
    if counts.dtype != object and len(counts) * int(counts.max(initial=0)) >= 1 << 63:
        counts = counts.astype(object)
    return int(counts.sum())


def _times(counts, k: int):
    """Exact ``k * counts`` for a ``_counts`` array and an int k >= 0."""
    if counts.dtype != object and k * int(counts.max(initial=0)) < _INT64_HEADROOM:
        return counts * k
    return _counts(counts.astype(object) * k)


def min_to_topple(g: SandpileGraph, v: int, w: int) -> int:
    """Least particle count placed at ``v`` that makes ``w`` topple."""
    g.check_ordinary(v, "source")
    if w == g.sink:
        raise PreconditionError("the sink never topples")
    g.check_ordinary(w, "target")
    x, _ = _least_multiple(g, point_config(g, v, 1), [w], "topple")
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
    h, _ = _least_multiple(g, uniform_config(g, sites, 1), [w], "topple")
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
    x, _ = _least_multiple(g, point_config(g, v, 1), target_list, "flood")
    return x


# ---------------------------------------------------------------------------
# recurrence


def is_recurrent(g: SandpileGraph, counts) -> bool:
    """Burning test: drop each vertex's sink multiplicity and stabilize.

    The configuration is recurrent exactly when every ordinary vertex
    topples once and the configuration returns to its starting point.
    """
    c = normalize_config(g, counts)
    unstable = np.flatnonzero(c >= g.degree)
    if unstable.size:
        raise PreconditionError(f"configuration not stable at vertex {unstable[0]}")
    res = stabilize(g, c + _counts(g.sink_mult))
    return bool((res._score == 1).all()) and np.array_equal(res._stable, c)


def _check_state_space(g: SandpileGraph, state_limit: int) -> None:
    """Refuse a graph with more stable states than ``state_limit``."""
    total = math.prod(g.degree.tolist())
    if total > state_limit:
        raise ResourceLimitError(f"state space {total} exceeds limit {state_limit}")


def recurrent_count(g: SandpileGraph, state_limit: int = DEFAULT_STATE_LIMIT) -> int:
    """Number of recurrent stable states, by exhaustive burning tests."""
    _check_state_space(g, state_limit)
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
    Each pivot is a leading principal minor of the reduced Laplacian, which
    is positive because every vertex reaches the sink, so no row swaps.
    """
    m = g.n_ordinary
    a = np.diag(g.degree)
    a[np.repeat(np.arange(m), np.diff(g.indptr)), g.indices] = -g.mult
    a = a.tolist()
    prev = 1
    for k in range(m - 1):
        for i in range(k + 1, m):
            for j in range(k + 1, m):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return a[m - 1][m - 1]


# ---------------------------------------------------------------------------
# transience class


def tcl_exact(g: SandpileGraph, state_limit: int = DEFAULT_STATE_LIMIT) -> TclResult:
    """Longest transient addition chain from the empty configuration.

    Explores the stable-state transition graph (add one particle anywhere,
    stabilize; only a site brought to its degree topples).  Additions whose result is recurrent are not counted; the
    value is the largest number of additions that keeps every intermediate
    stable configuration transient.  The transient states reachable from
    empty are taken in topological order, successors first, and each gets
    its longest chain; ties go to the lowest site.  A cycle among transient
    states would contradict finiteness and raises ``InternalError``.
    """
    _check_state_space(g, state_limit)
    m = g.n_ordinary
    empty = (0,) * m

    @functools.cache
    def recurrent(state):
        return is_recurrent(g, list(state))

    if recurrent(empty):
        return TclResult(value=0, mode="exact", witness=[])

    # transient state -> its stabilized successor per site, None where recurrent;
    # a particle added to a stable state topples only where it reaches the degree
    degree = g.degree.tolist()
    successors: dict[tuple, list] = {}
    todo = [empty]
    while todo:
        state = todo.pop()
        if state in successors:
            continue
        nxt = []
        for site in range(m):
            c = list(state)
            c[site] += 1
            after = tuple(stabilize(g, c).stable) if c[site] == degree[site] else tuple(c)
            nxt.append(None if recurrent(after) else after)
        successors[state] = nxt
        todo += [t for t in nxt if t is not None and t not in successors]

    sorter = graphlib.TopologicalSorter(
        {state: [t for t in nxt if t is not None] for state, nxt in successors.items()}
    )
    try:
        order = list(sorter.static_order())
    except graphlib.CycleError:
        raise InternalError("cycle among transient states") from None
    best: dict[tuple, tuple[int, int]] = {}  # state -> (length, first site or -1)
    for state in order:
        length, pick = 0, -1
        for site, t in enumerate(successors[state]):
            if t is not None and best[t][0] + 1 > length:
                length, pick = best[t][0] + 1, site
        best[state] = (length, pick)

    witness = []
    state = empty
    while best[state][1] >= 0:
        site = best[state][1]
        witness.append(site)
        state = successors[state][site]
    return TclResult(value=best[empty][0], mode="exact", witness=witness)


def tcl_single_site(g: SandpileGraph, v: int) -> TclResult:
    """Least count at ``v`` whose stabilization topples every vertex."""
    g.check_ordinary(v, "site")
    value, _ = _least_multiple(g, point_config(g, v, 1), np.arange(g.n_ordinary), "topple")
    return TclResult(value=value, mode="single_site", witness=int(v))
