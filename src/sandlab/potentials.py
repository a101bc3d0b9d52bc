"""Harmonic potentials, effective resistance, and threshold certificates.

The potential field of a pole ``w`` is the unique function that is 1 at
``w``, 0 at the sink, and harmonic elsewhere: each vertex holds the
multiplicity-weighted mean of its neighbors (sink included as 0).  Every
solve is checked against a harmonicity residual of at most 1e-10.

This module alone holds the Laplacian solver state: one record per graph,
in a ``WeakKeyDictionary`` so that it dies with the graph, with the float
degrees, what the solve path keeps across poles, and a field cache of at
most ``_FIELD_CACHE_BYTES`` (oldest pole evicted first).  The sink-reduced
Laplacian ``L x = b`` is solved one of two ways:

- lattice blocks (grids, lines and strips, as recognised by ``graph_core``)
  above ``DIRECT_SOLVE_LIMIT`` ordinary vertices: exactly, by the sine
  transform.  There ``L`` is the Dirichlet Laplacian
  ``T_rows (x) I + I (x) T_cols`` with ``T_k = tridiag(-1, 2, -1)``, which
  the orthonormal DST-I diagonalizes (the fast Poisson solver of Buzbee,
  Golub & Nielson 1970); the DST is one ``numpy.fft.rfft`` of the odd
  extension, so no factor is stored.  A solve is four passes of 1-D DSTs
  (rows, columns, rows, columns), but every right-hand side here is a
  pole or a dipole, so the first pass transforms only its one or two
  nonzero rows, and a resistance, which reads one or two entries, runs
  the last pass only on their columns.  A pole's field costs three full
  passes and one row, a resistance to the sink two full passes, one row
  and one column, and a resistance between two ordinary vertices (a
  dipole) two full passes, two rows and two columns.  The shortcuts are
  exact to the bit: ``numpy.fft.rfft`` transforms each row of a batch on
  its own, so a row gives the same bits alone as among others;
- every other graph: a sparse LU factor (COLAMD order), built once and
  reused for every pole.  Its fill is the memory cost of this path: on
  L-shaped lattice regions of 34 561 and 101 568 ordinary vertices the
  factor holds 2.6 M and 9.6 M nonzeros (about 30 and 109 MB), the first
  pole takes 0.4 and 1.0 s and each later pole 8 and 36 ms.  A pole's
  field, a resistance to the sink and a dipole's resistance cost one pair
  of triangular solves each.

On both paths a cached field keeps its pole's scale ``x[w]``, the
unnormalized solve's value at the pole, which is the pole's resistance to
the sink: ``effective_resistance`` returns it without a solve, and the
field and its scale leave the cache together.

scipy is imported only by the LU path, when its solver record is built,
not with this module: its import costs more than most engine answers, so
importing ``sandlab``, answering without a potential or solving on a
lattice block above the limit loads none of it.  The harmonicity
residual and the dual certificate multiply by the adjacency through
``SandpileGraph._inflow``.

Potentials certify particle thresholds two ways: closed-form lower and
upper bounds on the single-site toppling threshold, and a feasible dual
certificate bounding the uniform no-topple threshold on a ball.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

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
_DUAL_TOLERANCE = 1e-9
# each cached field holds 8 bytes per ordinary vertex
_FIELD_CACHE_BYTES = 64 << 20


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


def _dirichlet_eigenvalues(k):
    """Eigenvalues 2 - 2 cos(j pi / (k + 1)), j = 1..k, of tridiag(-1, 2, -1)."""
    return 2.0 - 2.0 * np.cos(np.arange(1, k + 1) * (np.pi / (k + 1)))


def _dst(a):
    """Orthonormal DST-I along the last axis; it is its own inverse.

    The real FFT of the odd extension [0, a, 0, -a reversed] has imaginary
    part -2 sum_j a_j sin(j k pi / (n + 1)) at k = 1..n.
    """
    n = a.shape[-1]
    ext = np.zeros(a.shape[:-1] + (2 * n + 2,))
    ext[..., 1 : n + 1] = a
    ext[..., n + 2 :] = -a[..., ::-1]
    return np.fft.rfft(ext)[..., 1 : n + 1].imag * (-1.0 / np.sqrt(2.0 * (n + 1)))


class _Solver:
    """One graph's solver state: float degrees, the lattice spectrum (with
    the DST of a zero row) or the LU factor, and the field cache, which maps
    each cached pole to its field and its scale."""

    def __init__(self, g: SandpileGraph):
        self.degree = np.asarray(g.degree, dtype=float)
        self.lu = self.spectrum = None
        if g._block is not None and g.n_ordinary > DIRECT_SOLVE_LIMIT:
            rows, cols = g._block
            self.spectrum = (
                _dirichlet_eigenvalues(rows)[:, None] + _dirichlet_eigenvalues(cols)
            )
            # -0.0 throughout, not +0.0: the bits a full pass gives a zero row
            self.zero_row = _dst(np.zeros(cols))
        else:
            import scipy.sparse as sp
            import scipy.sparse.linalg as spla

            self.lu = spla.splu(sp.csc_matrix(g.laplacian().astype(float)))
        self.fields: dict[int, tuple[PotentialField, float]] = {}


_SOLVERS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _solver(g: SandpileGraph) -> _Solver:
    """The graph's solver record, built on first use and dropped with it."""
    if g not in _SOLVERS:
        _SOLVERS[g] = _Solver(g)
    return _SOLVERS[g]


def _laplacian_solve(rec: _Solver, rhs: np.ndarray, read=None) -> np.ndarray:
    """Solve L x = rhs for the sink-reduced Laplacian: all of x, or only
    ``x[read]`` when the caller reads a few entries.

    The LU path solves in full either way.  The sine-transform path
    computes ``S (S B S / spectrum) S`` for the block ``B`` of ``rhs``, one
    pass of 1-D DSTs at a time.  Its first pass transforms only the rows
    of ``B`` that hold a nonzero bit and gives every other row the
    record's zero-row DST; with ``read`` its last pass transforms only the
    columns of the entries read.  Both shortcuts are exact to the bit,
    because ``numpy.fft.rfft`` transforms each row of a batch on its own:
    a row gives the same bits alone as among others.
    """
    if rec.spectrum is None:
        x = rec.lu.solve(rhs)
        return x if read is None else x[read]
    spectrum = rec.spectrum
    block = rhs.reshape(spectrum.shape)
    live = np.flatnonzero(block.view(np.int64).any(axis=1))
    first = np.empty(spectrum.shape)
    first[:] = rec.zero_row
    first[live] = _dst(block[live])
    last = _dst(_dst(first.T).T / spectrum)
    if read is None:
        return _dst(last.T).T.ravel()
    rows, cols = np.divmod(np.asarray(read), spectrum.shape[1])
    return _dst(last[:, cols].T)[np.arange(len(cols)), rows]


def _harmonic_residual(g: SandpileGraph, rec: _Solver, values, skip):
    """Worst degree-relative harmonicity defect, ignoring vertices in skip."""
    rel = np.abs(rec.degree * values - g._inflow(values)) / rec.degree
    for v in skip:
        rel[v] = 0.0
    return float(rel.max()) if len(rel) else 0.0


def solve_potential(g: SandpileGraph, w: int) -> PotentialField:
    """Potential field with value 1 at ``w`` and 0 at the sink."""
    g.check_ordinary(w, "pole")
    rec = _solver(g)
    cached = rec.fields.get(w)
    if cached is not None:
        return cached[0]
    x = _laplacian_solve(rec, _unit_vector(g.n_ordinary, w))
    scale = x[w]
    if not np.isfinite(scale) or scale <= 0:
        raise InternalError("potential solve produced a nonpositive pole value")
    values = x / scale
    residual = _harmonic_residual(g, rec, values, skip=[w])
    if residual > RESIDUAL_TOLERANCE:
        raise InternalError(f"harmonicity residual {residual:.3e} too large")
    fld = PotentialField(pole=int(w), values=values, residual=residual)
    rec.fields[w] = (fld, float(scale))
    while len(rec.fields) * values.nbytes > _FIELD_CACHE_BYTES:
        del rec.fields[next(iter(rec.fields))]
    return fld


def effective_resistance(g: SandpileGraph, u: int, v: int) -> float:
    """Voltage needed to push unit current from ``u`` to ``v``.

    Either endpoint may be the sink.  Symmetric and strictly positive for
    distinct vertices.  The resistance from the sink to a pole whose field
    is cached is that field's scale: the same solve of the same unit
    vector, so the same float, without a solve.
    """
    if u == v:
        raise PreconditionError("effective resistance needs distinct endpoints")
    m = g.n_ordinary
    if u == g.sink or v == g.sink:
        other = v if u == g.sink else u
        g.check_ordinary(other)
        rec = _solver(g)
        cached = rec.fields.get(other)
        if cached is not None:
            return cached[1]
        return float(_laplacian_solve(rec, _unit_vector(m, other), read=[other])[0])
    g.check_ordinary(u)
    g.check_ordinary(v)
    rhs = np.zeros(m)
    rhs[u] = 1.0
    rhs[v] = -1.0
    xu, xv = _laplacian_solve(_solver(g), rhs, read=[u, v])
    return float(xu - xv)


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


def dual_threshold_bound(g: SandpileGraph, v: int, r: int, w: int):
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
    injected = float(deg[w] - g._inflow(pi)[w])
    y_prime = injected / mass
    # feasibility: (A y)(u) - deg(u) y(u) >= 0 off the pole, plus y_prime at it
    slack = g._inflow(y) - deg * y
    slack[w] += y_prime
    violations = [
        float(-slack.min()) if len(slack) else 0.0,
        abs(float(y[ball].sum()) - 1.0),
        float(-y.min()),
        -y_prime,
    ]
    max_violation = max(violations)
    if max_violation > _DUAL_TOLERANCE:
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
