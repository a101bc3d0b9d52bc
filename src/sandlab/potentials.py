"""Harmonic potentials, effective resistance, and threshold certificates.

The potential field of a pole ``w`` is the unique function that is 1 at
``w``, 0 at the sink, and harmonic elsewhere: each vertex holds the
multiplicity-weighted mean of its neighbors (sink included as 0).  Every
solve is checked against a harmonicity residual of at most 1e-10.

This module alone holds the Laplacian solver state: one record per graph,
in a ``WeakKeyDictionary`` so that it dies with the graph, with the float
Laplacian and degrees, the LU factor reused across poles, and the field
cache.  Graphs above ``DIRECT_SOLVE_LIMIT`` ordinary vertices solve each
pole by Jacobi-preconditioned conjugate gradient instead: factoring them
too cut the benchmark's ``fields`` wall time from 1.40 s to 0.19 s, but
raised its peak RSS from 85.6 MB to 98.7 MB (95.6 MB with MMD_AT_PLUS_A
ordering), so CG stays until a factorization uses less memory.

Potentials certify particle thresholds two ways: closed-form lower and
upper bounds on the single-site toppling threshold, and a feasible dual
certificate bounding the uniform no-topple threshold on a ball.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import InternalError, PreconditionError
from .graph_core import SandpileGraph

__all__ = [
    "PotentialField",
    "DualCertificate",
    "PotentialLawReport",
    "solve_potential",
    "effective_resistance",
    "potential_checks",
    "analytic_toppling_bounds",
    "dual_threshold_bound",
]

DIRECT_SOLVE_LIMIT = 5000
RESIDUAL_TOLERANCE = 1e-10


@dataclass(frozen=True)
class PotentialField:
    """Potential values over ordinary vertices for one pole.

    ``values[pole] == 1`` and the sink (not stored) is 0.  ``residual`` is
    the worst harmonicity defect over non-pole vertices, relative to the
    vertex degree.
    """

    pole: int
    values: np.ndarray
    residual: float

    @property
    def total(self) -> float:
        return float(self.values.sum())


@dataclass(frozen=True)
class DualCertificate:
    """Feasible dual point certifying a uniform no-topple threshold.

    ``y`` is the scaled potential field, ``y_prime`` the scaled current
    injected at the pole, and ``objective`` the certified upper bound on
    the largest uniform per-site count that cannot topple the pole.
    """

    pole: int
    ball: tuple[int, ...]
    y: np.ndarray
    y_prime: float
    objective: float
    max_violation: float


@dataclass(frozen=True)
class PotentialLawReport:
    """Worst-case slack seen over sampled reciprocity and ordering checks."""

    reciprocity_checked: int
    reciprocity_worst: float
    triangle_checked: int
    triangle_worst: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return (
            self.reciprocity_worst <= self.tolerance
            and self.triangle_worst <= self.tolerance
        )


def _unit_vector(m, i):
    rhs = np.zeros(m)
    rhs[i] = 1.0
    return rhs


class _Solver:
    """One graph's solver state: float Laplacian and degrees, LU, field cache."""

    def __init__(self, g: SandpileGraph):
        self.lap = g.laplacian().astype(float)
        self.degree = np.asarray(g.degree, dtype=float)
        self.lu = None
        if g.n_ordinary <= DIRECT_SOLVE_LIMIT:
            self.lu = spla.splu(sp.csc_matrix(self.lap))
        self.fields: dict[int, PotentialField] = {}


_SOLVERS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _solver(g: SandpileGraph) -> _Solver:
    """The graph's solver record, built on first use and dropped with it."""
    if g not in _SOLVERS:
        _SOLVERS[g] = _Solver(g)
    return _SOLVERS[g]


def _laplacian_solve(rec: _Solver, rhs: np.ndarray) -> np.ndarray:
    """Solve L x = rhs for the sink-reduced Laplacian."""
    if rec.lu is not None:
        return rec.lu.solve(rhs)
    m = len(rhs)
    precond = spla.LinearOperator((m, m), matvec=lambda x: x / rec.degree)
    x, info = spla.cg(rec.lap, rhs, rtol=1e-12, atol=1e-14, maxiter=20 * m, M=precond)
    if info != 0:
        raise InternalError(f"conjugate gradient failed to converge (info={info})")
    return x


def _harmonic_residual(rec: _Solver, values, skip):
    """Worst degree-relative harmonicity defect, ignoring vertices in skip."""
    rel = np.abs(rec.lap @ values) / rec.degree
    for v in skip:
        rel[v] = 0.0
    return float(rel.max()) if len(rel) else 0.0


def solve_potential(g: SandpileGraph, w: int) -> PotentialField:
    """Potential field with value 1 at ``w`` and 0 at the sink."""
    g.check_ordinary(w, "pole")
    rec = _solver(g)
    cached = rec.fields.get(w)
    if cached is not None:
        return cached
    x = _laplacian_solve(rec, _unit_vector(g.n_ordinary, w))
    scale = x[w]
    if not np.isfinite(scale) or scale <= 0:
        raise InternalError("potential solve produced a nonpositive pole value")
    values = x / scale
    residual = _harmonic_residual(rec, values, skip=[w])
    if residual > RESIDUAL_TOLERANCE:
        raise InternalError(f"harmonicity residual {residual:.3e} too large")
    fld = PotentialField(pole=int(w), values=values, residual=residual)
    rec.fields[w] = fld
    return fld


def effective_resistance(g: SandpileGraph, u: int, v: int) -> float:
    """Voltage needed to push unit current from ``u`` to ``v``.

    Either endpoint may be the sink.  Symmetric and strictly positive for
    distinct vertices.
    """
    if u == v:
        raise PreconditionError("effective resistance needs distinct endpoints")
    m = g.n_ordinary
    if u == g.sink or v == g.sink:
        other = v if u == g.sink else u
        g.check_ordinary(other)
        x = _laplacian_solve(_solver(g), _unit_vector(m, other))
        return float(x[other])
    g.check_ordinary(u)
    g.check_ordinary(v)
    rhs = np.zeros(m)
    rhs[u] = 1.0
    rhs[v] = -1.0
    x = _laplacian_solve(_solver(g), rhs)
    return float(x[u] - x[v])


def potential_checks(
    g: SandpileGraph, pairs, triples, tolerance: float = 1e-9
) -> PotentialLawReport:
    """Verify reciprocity and the multiplicative triangle ordering.

    ``pairs`` are (t, v) with distinct ordinary t, v: checks
    R(sink,t) * pi_t(v) == R(sink,v) * pi_v(t).  ``triples`` are ordinary
    (i, j, k): checks pi_i(j) * pi_j(k) <= pi_i(k) up to ``tolerance``.
    """
    worst_rec = 0.0
    n_rec = 0
    for t, v in pairs:
        if t == v:
            raise PreconditionError("reciprocity pair must be distinct")
        ft = solve_potential(g, t)
        fv = solve_potential(g, v)
        rt = effective_resistance(g, g.sink, t)
        rv = effective_resistance(g, g.sink, v)
        gap = abs(rt * ft.values[v] - rv * fv.values[t])
        worst_rec = max(worst_rec, float(gap))
        n_rec += 1
    worst_tri = 0.0
    n_tri = 0
    for i, j, k in triples:
        fi = solve_potential(g, i)
        fj = solve_potential(g, j)
        slack = float(fi.values[j] * fj.values[k] - fi.values[k])
        worst_tri = max(worst_tri, slack)
        n_tri += 1
    return PotentialLawReport(
        reciprocity_checked=n_rec,
        reciprocity_worst=worst_rec,
        triangle_checked=n_tri,
        triangle_worst=worst_tri,
        tolerance=tolerance,
    )


def analytic_toppling_bounds(g: SandpileGraph, v: int, w: int) -> tuple[float, float]:
    """Closed-form bracket for min_to_topple(v -> w) from one potential field.

    With S the sum of the pole-w field over ordinary vertices and D the
    maximum ordinary degree, the threshold lies in
    [S / ((D+1) * pi_w(v)), (D-1) * S / pi_w(v)].
    """
    g.check_ordinary(v, "source")
    g.check_ordinary(w, "pole")
    fld = solve_potential(g, w)
    pv = float(fld.values[v])
    if pv <= 1e-13:
        raise PreconditionError("pole unreachable at solver tolerance scale")
    total = fld.total
    dmax = int(g.degree.max())
    return total / ((dmax + 1) * pv), (dmax - 1) * total / pv


def dual_threshold_bound(
    g: SandpileGraph, v: int, r: int, w: int, tolerance: float = 1e-9
):
    """Certified bound on the uniform no-topple threshold of a ball.

    Scaling the pole-w potential field by the field mass inside the ball
    around ``v`` (sink-deleted radius ``r``) yields a feasible dual point;
    its objective bounds the largest uniform per-site placement on the
    ball that cannot topple ``w``.  Returns (certificate, bound).
    """
    g.check_ordinary(v, "ball center")
    g.check_ordinary(w, "pole")
    ball = g.ordinary_ball(v, r)
    fld = solve_potential(g, w)
    pi = fld.values
    if float(pi[ball].min()) <= 0.0:
        raise InternalError("potential vanishes on the ball")
    mass = float(pi[ball].sum())
    y = pi / mass
    deg = _solver(g).degree
    adj = g.adjacency().astype(float)
    injected = float(deg[w] - (adj @ pi)[w])
    y_prime = injected / mass
    # feasibility: (A y)(u) - deg(u) y(u) >= 0 off the pole, plus y_prime at it
    slack = adj @ y - deg * y
    slack[w] += y_prime
    violations = [
        float(-slack.min()) if len(slack) else 0.0,
        abs(float(y[ball].sum()) - 1.0),
        float(-y.min()),
        -y_prime,
    ]
    max_violation = max(violations)
    if max_violation > tolerance:
        raise InternalError(
            f"dual certificate infeasible (violation {max_violation:.3e})"
        )
    objective = float(((deg - 1.0) * y).sum())
    cert = DualCertificate(
        pole=int(w),
        ball=tuple(int(x) for x in ball),
        y=y,
        y_prime=y_prime,
        objective=objective,
        max_violation=max_violation,
    )
    return cert, objective
