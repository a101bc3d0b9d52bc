"""Multigraphs, sandpile graphs, generator families, and metric queries.

A sandpile graph is a finite connected multigraph with one distinguished
sink vertex; all other vertices are called ordinary.  Ordinary vertices are
always labeled 0..m-1 and the sink is labeled m, so particle configurations
can be stored as dense integer vectors.

A ``SandpileGraph`` stores its graph once, as plain numpy arrays: the
ordinary-to-ordinary adjacency in CSR form (``indptr``, ``indices`` and
int64 ``mult``, rows sorted), plus the degree and the sink multiplicity of
each ordinary vertex.  The sorted edge tuple, neighbor lists, distances,
balls and each vertex's inflow are all read from these arrays, and the
lattice families build them by index arithmetic.  Only ``adjacency()`` and
``laplacian()`` build scipy matrices, on request, so that importing and
using this module loads no scipy.

Distances and balls are measured in the sink-deleted subgraph: the sink is
an absorbing boundary, not a thoroughfare.  ``metric_query`` additionally
insists that the requested ball stays strictly inside the ordinary part
(no vertex of the ball touches radius that would reach the sink), while
``ordinary_ball`` simply collects ordinary vertices within the radius.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import PreconditionError

__all__ = [
    "Multigraph",
    "SandpileGraph",
    "MetricQuery",
    "build_sandpile",
    "gen_family",
    "grid_sandpile",
    "line_sandpile",
    "strip_sandpile",
    "lattice_window",
    "metric_query",
    "graph_to_json",
    "graph_from_json",
    "save_graph",
    "load_graph",
]


# ---------------------------------------------------------------------------
# containers


class Multigraph:
    """Undirected multigraph with positive integer edge multiplicities.

    Edges are canonicalized on construction: parallel entries are merged by
    summing multiplicities, endpoints are stored as (min, max), and the edge
    list is sorted.  Self loops, endpoints out of range and multiplicities
    below 1 are rejected, naming the first such edge in input order.
    """

    def __init__(self, vertex_count, edges, coords=None):
        if vertex_count < 1:
            raise PreconditionError("multigraph needs at least one vertex")
        edges = list(edges)
        try:
            table = np.array(edges, dtype=np.int64).reshape(len(edges), 3)
        except OverflowError:  # an entry past int64: compare in Python ints
            table = np.array(edges, dtype=object).reshape(len(edges), 3)
        u, v, mult = table.T
        bad = (u == v) | (u < 0) | (v < 0) | (u >= vertex_count) | (v >= vertex_count)
        bad |= mult < 1
        if bad.any():
            u, v, mult = edges[int(bad.argmax())]
            if u == v:
                raise PreconditionError(f"self loop at vertex {u}")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise PreconditionError(f"edge ({u},{v}) out of range")
            raise PreconditionError(f"edge ({u},{v}) has multiplicity {mult}")
        lo = np.minimum(u, v).astype(np.int64)
        hi = np.maximum(u, v).astype(np.int64)
        order = np.lexsort((hi, lo))
        lo, hi = lo[order], hi[order]
        starts = np.flatnonzero(np.diff(lo, prepend=-1) | np.diff(hi, prepend=-1))
        # merged multiplicities are summed in Python ints, which cannot wrap
        merged = np.add.reduceat(mult[order].astype(object), starts)
        self.vertex_count = int(vertex_count)
        # the edges as int64 endpoint columns and exact multiplicities
        self._columns = (lo[starts], hi[starts], merged)
        self.edges = tuple(zip(*(a.tolist() for a in self._columns)))
        self.coords = dict(coords) if coords else None


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
    bits, so that they never fire.  ``reach = (min(rows, cols) + 1) // 2``
    bounds the effective resistance from any cell to the sink.
    """

    rows: int
    cols: int
    reach: int
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
        return cls(rows, cols, (min(rows, cols) + 1) // 2, width, half, perm,
                   {np.int32: (shift & 31).astype(np.int32), np.int64: shift})


class SandpileGraph:
    """A multigraph with a distinguished sink, relabeled sink-last.

    Ordinary vertices are 0..n_ordinary-1 in the order induced by the input
    labeling; ``sink`` equals ``n_ordinary``.  Degrees count multiplicities
    and include sink edges.  Every ordinary vertex must reach the sink.
    """

    def __init__(self, graph: Multigraph, sink: int):
        if not (0 <= sink < graph.vertex_count):
            raise PreconditionError(f"sink {sink} out of range")
        m = graph.vertex_count - 1
        if m < 1:
            raise PreconditionError("sandpile graph needs at least one ordinary vertex")
        degree = [0] * (m + 1)
        for u, v, mult in graph.edges:
            degree[u] += mult
            degree[v] += mult
        del degree[sink]
        for v, d in enumerate(degree):  # exact sums: int64 would wrap silently
            if not 1 <= d < 1 << 63:
                raise PreconditionError(f"vertex {v} has degree {d}")
        # each edge has an ordinary end, whose degree bounds its multiplicity;
        # labels above the sink move down one to make room for it at m
        u, v, mult = graph._columns
        mult = mult.astype(np.int64)
        at_sink = (u == sink) | (v == sink)
        ends = (u + v - sink)[at_sink]
        sink_mult = np.zeros(m, dtype=np.int64)
        sink_mult[ends - (ends > sink)] = mult[at_sink]
        u, v, mult = u[~at_sink], v[~at_sink], mult[~at_sink]
        adjacency = _csr(m, u - (u > sink), v - (v > sink), mult)
        degree = np.array(degree, dtype=np.int64)
        block = _block_shape(*adjacency[:2], degree, sink_mult)
        if block is None:  # a lattice block reaches the sink by construction
            reached = _bfs(*adjacency[:2], np.flatnonzero(sink_mult).tolist())
            if len(reached) < m:
                bad = min(set(range(m)).difference(reached))
                raise PreconditionError(f"vertex {bad} cannot reach the sink")
        coords = None
        if graph.coords:
            coords = {w - (w > sink): tuple(xy) for w, xy in graph.coords.items() if w != sink}
        self._store(adjacency, degree, sink_mult, coords, block)

    def _store(self, adjacency, degree, sink_mult, coords, block=None):
        """Keep the arrays (``adjacency`` is the ``(indptr, indices, mult)``
        of ``_csr``), index the coordinates and cache what every
        stabilization audit reads.

        ``block`` is ``(rows, cols)`` when the arrays are exactly those of
        ``_block_sandpile(rows, cols)``; ``_lattice`` then holds the
        colour-split layout on which the engine's red-black stencil runs
        (see ``_Lattice``), else None.
        """
        self.n_ordinary = self.sink = len(degree)
        self.indptr, self.indices, self.mult = adjacency
        self.degree = degree
        self.sink_mult = sink_mult
        self._boundary = np.flatnonzero(sink_mult)
        self._max_degree = int(degree.max())
        self._lattice = None if block is None else _Lattice.of(*block)
        self._eta = None
        self.coords = coords
        self.coord_index = None
        if coords:
            self.coord_index = {}
            for v, xy in coords.items():
                other = self.coord_index.setdefault(xy, v)
                if other != v:
                    raise PreconditionError(
                        f"coordinates {xy} given to both vertices {other} and {v}"
                    )

    # -- basic access ----------------------------------------------------

    @property
    def edges(self):
        """Sorted ``(u, v, mult)`` tuples with u < v, sink edges included.

        Derived from the arrays on each call; the sink edge of a vertex
        comes last in its row because the sink has the largest label.
        """
        rows = np.repeat(np.arange(self.n_ordinary), np.diff(self.indptr))
        upper = self.indices > rows
        boundary = self._boundary
        u = np.concatenate([rows[upper], boundary])
        v = np.concatenate([self.indices[upper], np.full(boundary.size, self.sink)])
        mult = np.concatenate([self.mult[upper], self.sink_mult[boundary]])
        order = np.lexsort((v, u))
        return tuple(zip(u[order].tolist(), v[order].tolist(), mult[order].tolist()))

    def ordinary_neighbors(self, v):
        """``[(neighbor, multiplicity), ...]`` of ``v`` without the sink, by label."""
        lo, hi = self.indptr[v], self.indptr[v + 1]
        return list(zip(self.indices[lo:hi].tolist(), self.mult[lo:hi].tolist()))

    def is_ordinary(self, v) -> bool:
        return 0 <= v < self.n_ordinary

    def check_ordinary(self, v, what="vertex"):
        if not self.is_ordinary(v):
            raise PreconditionError(f"{what} {v} is not an ordinary vertex")

    def adjacency(self):
        """Symmetric ordinary-to-ordinary adjacency with multiplicities, as
        a scipy CSR matrix built from the arrays on each call."""
        import scipy.sparse as sp

        m = self.n_ordinary
        return sp.csr_matrix((self.mult, self.indices, self.indptr), shape=(m, m))

    def laplacian(self):
        """Sink-reduced Laplacian: diag(degree) minus ordinary adjacency, as
        a scipy CSR matrix built on each call."""
        import scipy.sparse as sp

        return sp.diags(self.degree, format="csr", dtype=np.int64) - self.adjacency()

    def _inflow(self, z):
        """Each ordinary vertex's inflow ``sum(mult * z)`` over its ordinary
        neighbors, for an int64 or object (Python int) vector ``z``, in its
        dtype.

        A lattice block adds the four shifted slices of ``z`` as a
        zero-padded rows x cols array; any other graph sums each CSR row.
        """
        if self._lattice is not None:
            rows, cols = self._lattice[:2]
            pad = np.zeros((rows + 2, cols + 2), dtype=z.dtype)
            pad[1:-1, 1:-1] = z.reshape(rows, cols)
            return (pad[:-2, 1:-1] + pad[2:, 1:-1] + pad[1:-1, :-2] + pad[1:-1, 2:]).ravel()
        starts = self.indptr[:-1]
        # the appended 0 keeps every start, empty trailing rows included, in range
        inflow = np.add.reduceat(np.append(self.mult * z[self.indices], 0), starts)
        inflow[starts == self.indptr[1:]] = 0  # reduceat gives an empty row its start's term
        return inflow

    def vertex_at(self, x, y):
        """Ordinary vertex id at coordinates (x, y); requires coords."""
        if self.coord_index is None:
            raise PreconditionError("graph carries no coordinates")
        try:
            return self.coord_index[(x, y)]
        except KeyError:
            raise PreconditionError(f"no vertex at coordinates ({x},{y})") from None

    # -- metric ----------------------------------------------------------

    def ordinary_distances(self, sources, cutoff=None):
        """BFS distances in the sink-deleted subgraph; unreachable is -1."""
        sources = list(sources)
        for s in sources:
            self.check_ordinary(s, "source")
        reached = _bfs(self.indptr, self.indices, [int(s) for s in sources], cutoff)
        dist = np.full(self.n_ordinary, -1, dtype=np.int64)
        dist[list(reached)] = list(reached.values())
        return dist

    def eta(self):
        """Distance from each ordinary vertex to the nearest sink-adjacent one.

        This is the radius of the largest ball around the vertex that stays
        strictly inside the ordinary part; sink-adjacent vertices have 0.
        """
        if self._eta is None:
            self._eta = self.ordinary_distances(self._boundary.tolist())
        return self._eta

    def ordinary_ball(self, v, r):
        """Sorted ordinary vertices within sink-deleted distance r of v."""
        self.check_ordinary(v)
        if r < 0:
            raise PreconditionError("radius must be nonnegative")
        dist = self.ordinary_distances([v], cutoff=r)
        return np.flatnonzero((dist >= 0) & (dist <= r))

    def ball_volume(self, ball) -> int:
        """Total multiplicity of edges with both endpoints inside ``ball``."""
        inside = np.zeros(self.n_ordinary + 1, dtype=np.int64)
        inside[np.asarray(ball, dtype=np.int64)] = 1
        inside = inside[:-1]  # the sink is never inside
        # each entry is at most a degree, so the product cannot wrap
        return sum(self._inflow(inside)[inside > 0].tolist()) // 2


@dataclass(frozen=True)
class MetricQuery:
    """Ball statistics around a center, valid only when the sink is outside."""

    center: int
    radius: int
    ball: tuple[int, ...]
    vol: int
    vertex_boundary: tuple[int, ...]
    edge_boundary: tuple[tuple[int, int, int], ...]
    eta: int


def metric_query(g: SandpileGraph, v: int, r: int) -> MetricQuery:
    """Ball, volume, and boundaries around ``v`` at radius ``r``.

    Preconditions: ``v`` ordinary and ``r <= eta(v)``, i.e. the ball must not
    reach the sink.  The vertex boundary is the set of ball vertices with a
    neighbor outside; the edge boundary lists edges (inside, outside, mult)
    where the outside endpoint may be the sink.
    """
    g.check_ordinary(v, "center")
    if r < 0:
        raise PreconditionError("radius must be nonnegative")
    eta_v = int(g.eta()[v])
    if r > eta_v:
        raise PreconditionError(
            f"ball reaches sink: radius {r} exceeds eta({v}) = {eta_v}"
        )
    ball = g.ordinary_ball(v, r)
    inside = np.zeros(g.n_ordinary, dtype=bool)
    inside[ball] = True
    edge_boundary = []
    for a in ball.tolist():
        edge_boundary += [(a, b, mult) for b, mult in g.ordinary_neighbors(a) if not inside[b]]
        if g.sink_mult[a]:
            edge_boundary.append((a, g.sink, int(g.sink_mult[a])))
    return MetricQuery(
        center=int(v),
        radius=int(r),
        ball=tuple(int(x) for x in ball),
        vol=g.ball_volume(ball),
        vertex_boundary=tuple(sorted({a for a, _, _ in edge_boundary})),
        edge_boundary=tuple(sorted(edge_boundary)),
        eta=eta_v,
    )


# ---------------------------------------------------------------------------
# construction


def build_sandpile(ambient: Multigraph, subset) -> SandpileGraph:
    """Collapse everything outside ``subset`` into a single sink vertex.

    ``subset`` must be nonempty, induce a connected subgraph, and have at
    least one edge leaving it (those edges become sink edges; parallel
    collapsed edges sum their multiplicities).
    """
    chosen = sorted(set(int(v) for v in subset))
    if not chosen:
        raise PreconditionError("subset is empty")
    for v in chosen:
        if not (0 <= v < ambient.vertex_count):
            raise PreconditionError(f"subset vertex {v} out of range")
    m = len(chosen)
    # subset vertices become 0..m-1 in label order, every other vertex the sink m
    label = np.full(ambient.vertex_count, m, dtype=np.int64)
    label[chosen] = np.arange(m)
    u, v, mult = ambient._columns
    u, v = label[u], label[v]
    inner, kept = (u < m) & (v < m), (u < m) | (v < m)
    a, b = u[inner], v[inner]
    if len(_bfs(*_csr(m, a, b, np.ones_like(a))[:2], [0])) != m:
        raise PreconditionError("subset not connected")
    if np.array_equal(inner, kept):
        raise PreconditionError("subset has no boundary edges")

    coords = None
    if ambient.coords:
        coords = {i: ambient.coords[w] for i, w in enumerate(chosen) if w in ambient.coords}
    edges = zip(u[kept].tolist(), v[kept].tolist(), mult[kept].tolist())
    return SandpileGraph(Multigraph(m + 1, edges, coords), m)


def lattice_window(rows: int, cols: int) -> Multigraph:
    """Finite window of the square lattice with unit edges and coordinates.

    Vertex (x, y) has id x * cols + y for x in [0, rows), y in [0, cols).
    Windows stand in for the infinite lattice: pick a subset well inside and
    ``build_sandpile`` collapses the exterior to the sink, which matches the
    infinite picture as long as dynamics never reach the window frame.
    """
    if rows < 1 or cols < 1:
        raise PreconditionError("window must be at least 1x1")
    m = rows * cols
    indptr, indices, _ = _block_arrays(rows, cols)
    u = np.repeat(np.arange(m), np.diff(indptr))
    edges = np.column_stack([u, indices, np.ones_like(u)])[indices > u]
    x, y = np.divmod(np.arange(m), cols)
    return Multigraph(m, edges.tolist(), dict(enumerate(zip(x.tolist(), y.tolist()))))


def _block_arrays(rows: int, cols: int):
    """CSR ``indptr`` and ``indices`` of the unit-lattice adjacency of a
    rows x cols block, and each vertex's sink multiplicity, 4 minus its
    internal degree (what collapsing the surrounding infinite lattice
    produces).  Index arithmetic on v = x * cols + y."""
    m = rows * cols
    v = np.arange(m)
    x, y = np.divmod(v, cols)
    # candidate neighbors in increasing label order, so CSR rows come sorted
    nbrs = np.stack([v - cols, v - 1, v + 1, v + cols], axis=1)
    inside = np.stack([x > 0, y > 0, y < cols - 1, x < rows - 1], axis=1)
    internal = inside.sum(axis=1)
    indptr = np.concatenate([[0], np.cumsum(internal)])
    return indptr, nbrs[inside], 4 - internal


def _block_shape(indptr, indices, degree, sink_mult):
    """``(rows, cols)`` when the arrays are exactly those of
    ``_block_sandpile(rows, cols)``, else None.

    A block's vertex 0 neighbors 1 and ``cols``, so row 0 of the adjacency
    names the shape.  A line reads as 1 x m: its arrays are those of the
    m x 1 block too, and both shapes stabilize alike.
    """
    m = len(degree)
    if (degree != 4).any():
        return None
    first = indices[indptr[0]:indptr[1]]
    cols = int(first[-1]) if len(first) == 2 else m
    if m % cols:
        return None
    rows = m // cols
    block_indptr, block_indices, block_sink = _block_arrays(rows, cols)
    # with these and degree 4, every multiplicity is 1
    same = (
        np.array_equal(indptr, block_indptr)
        and np.array_equal(indices, block_indices)
        and np.array_equal(sink_mult, block_sink)
    )
    return (rows, cols) if same else None


def _block_sandpile(rows: int, cols: int) -> SandpileGraph:
    """Collapse the exterior of a rows x cols lattice block directly,
    from the arrays of ``_block_arrays``."""
    m = rows * cols
    indptr, indices, sink_mult = _block_arrays(rows, cols)
    adjacency = (indptr, indices, np.ones(indptr[-1], dtype=np.int64))
    x, y = np.divmod(np.arange(m), cols)
    coords = dict(enumerate(zip(x.tolist(), y.tolist())))
    # built from arrays, not a Multigraph, and connected to the sink by construction
    g = SandpileGraph.__new__(SandpileGraph)
    g._store(adjacency, np.full(m, 4, dtype=np.int64), sink_mult, coords, (rows, cols))
    return g


def grid_sandpile(n: int) -> SandpileGraph:
    """n x n grid with the boundary wired to the sink.

    Corners carry sink multiplicity 2 and other perimeter vertices 1, so
    every ordinary degree equals 4 and the sink degree equals 4n.
    """
    if n < 2:
        raise PreconditionError("grid family needs n >= 2")
    return _block_sandpile(n, n)


def line_sandpile(n: int) -> SandpileGraph:
    """Path of n vertices; interior vertices get 2 sink edges, ends get 3.

    Equivalent to a 1 x n lattice block with the exterior collapsed; a
    single vertex gets all 4 edges to the sink.
    """
    if n < 1:
        raise PreconditionError("line family needs n >= 1")
    return _block_sandpile(1, n)


def strip_sandpile(k: int, n: int) -> SandpileGraph:
    """k x n lattice block with the exterior collapsed (degenerate grid)."""
    if k < 1 or n < 1:
        raise PreconditionError("strip family needs k >= 1 and n >= 1")
    return _block_sandpile(k, n)


def gen_family(kind: str, *params: int) -> SandpileGraph:
    """Dispatch to a named generator family: grid(n), line(n), strip(k, n)."""
    if kind == "grid":
        (n,) = params
        return grid_sandpile(n)
    if kind == "line":
        (n,) = params
        return line_sandpile(n)
    if kind == "strip":
        k, n = params
        return strip_sandpile(k, n)
    raise PreconditionError(f"unknown family {kind!r}")


def _csr(m: int, u, v, mult):
    """CSR arrays ``(indptr, indices, mult)`` of the symmetric m x m
    adjacency of undirected int64 edge arrays: rows sorted by column,
    parallel entries summed."""
    rows, cols = np.concatenate([u, v]), np.concatenate([v, u])
    key = rows * m + cols
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    key = key[starts]
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(key // m, minlength=m), out=indptr[1:])
    return indptr, key % m, np.add.reduceat(np.concatenate([mult, mult])[order], starts)


def _bfs(indptr, indices, sources, cutoff=None) -> dict:
    """``{vertex: distance}`` of a breadth-first search over CSR arrays,
    in discovery order, stopping at distance ``cutoff`` when one is given.

    Walks the index arrays through memoryviews: on the small balls most
    callers ask for, this costs a fraction of one scipy csgraph call or of
    a frontier-at-a-time numpy search.
    """
    ptr, idx = memoryview(indptr), memoryview(indices)
    dist = dict.fromkeys(sources, 0)
    queue = deque(dist)
    while queue:
        v = queue.popleft()
        d = dist[v]
        if cutoff is not None and d >= cutoff:
            continue
        for u in idx[ptr[v]:ptr[v + 1]].tolist():
            if u not in dist:
                dist[u] = d + 1
                queue.append(u)
    return dist


# ---------------------------------------------------------------------------
# serialization


def graph_to_json(g: SandpileGraph) -> dict:
    out = {
        "n_vertices": g.n_ordinary + 1,
        "sink": g.sink,
        "edges": [list(e) for e in g.edges],
    }
    if g.coords:
        out["coords"] = {str(v): list(g.coords[v]) for v in sorted(g.coords)}
    return out


def graph_from_json(data: dict) -> SandpileGraph:
    try:
        n, sink, edges = data["n_vertices"], data["sink"], data["edges"]
        edges = [(u, v, m) for u, v, m in edges]
    except (KeyError, TypeError, ValueError) as exc:
        raise PreconditionError(f"malformed graph JSON: {exc}") from exc
    # JSON integers only: int() would truncate 1.5 and accept "2" or true
    for name, value in (("n_vertices", n), ("sink", sink)):
        if type(value) is not int:
            raise PreconditionError(
                f"malformed graph JSON: {name} must be an integer, got {value!r}"
            )
    if not set(map(type, chain.from_iterable(edges))) <= {int}:
        edge = next(e for e in edges if not set(map(type, e)) <= {int})
        raise PreconditionError(
            f"malformed graph JSON: edge {list(edge)!r} must be three integers"
        )
    if n > len(edges) + 1:  # checked before n sizes anything
        raise PreconditionError(
            f"malformed graph JSON: {len(edges)} edges cannot connect {n} vertices"
        )
    coords = data.get("coords")
    if coords is not None:
        coords = _coords_from_json(coords, n)
    graph = Multigraph(n, edges, coords)
    return SandpileGraph(graph, sink)


def _coords_from_json(raw, n: int) -> dict:
    """``{vertex id: (x, y)}`` from JSON, with integer ids in range."""
    if not isinstance(raw, dict):
        raise PreconditionError("malformed graph JSON: coords must be an object")
    coords = {}
    for key, xy in raw.items():
        try:
            v = int(key)
        except (TypeError, ValueError):
            v = -1
        if not 0 <= v < n:
            raise PreconditionError(
                f"malformed graph JSON: coords key {key!r} is not a vertex id"
            )
        pair = isinstance(xy, (list, tuple)) and len(xy) == 2
        if not (pair and type(xy[0]) is type(xy[1]) is int):
            raise PreconditionError(
                f"malformed graph JSON: coords of vertex {key} must be an "
                f"integer pair, got {xy!r}"
            )
        coords[v] = tuple(xy)
    return coords


def save_graph(g: SandpileGraph, path) -> None:
    with open(path, "w") as fh:
        json.dump(graph_to_json(g), fh, indent=2)
        fh.write("\n")


def load_graph(path) -> SandpileGraph:
    with open(path) as fh:
        return graph_from_json(json.load(fh))
