"""Multigraphs, sandpile graphs, generator families, and metric queries.

A sandpile graph is a finite connected multigraph with one distinguished
sink vertex; all other vertices are called ordinary.  Ordinary vertices are
always labeled 0..m-1 and the sink is labeled m, so particle configurations
can be stored as dense integer vectors.

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

import numpy as np
import scipy.sparse as sp

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
    list is sorted.  Self loops are rejected.
    """

    def __init__(self, vertex_count, edges, coords=None):
        if vertex_count < 1:
            raise PreconditionError("multigraph needs at least one vertex")
        merged: dict[tuple[int, int], int] = {}
        for u, v, mult in edges:
            if u == v:
                raise PreconditionError(f"self loop at vertex {u}")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise PreconditionError(f"edge ({u},{v}) out of range")
            if mult < 1:
                raise PreconditionError(f"edge ({u},{v}) has multiplicity {mult}")
            key = (u, v) if u < v else (v, u)
            merged[key] = merged.get(key, 0) + int(mult)
        self.vertex_count = int(vertex_count)
        self.edges = tuple(sorted((u, v, m) for (u, v), m in merged.items()))
        self.coords = dict(coords) if coords else None

    def adjacency_lists(self):
        """Neighbor lists as ``[(neighbor, multiplicity), ...]`` per vertex."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.vertex_count)]
        for u, v, m in self.edges:
            adj[u].append((v, m))
            adj[v].append((u, m))
        return adj


class SandpileGraph:
    """A multigraph with a distinguished sink, relabeled sink-last.

    Ordinary vertices are 0..n_ordinary-1 in the order induced by the input
    labeling; ``sink`` equals ``n_ordinary``.  Degrees count multiplicities
    and include sink edges.  Every ordinary vertex must reach the sink.
    """

    def __init__(self, graph: Multigraph, sink: int):
        if not (0 <= sink < graph.vertex_count):
            raise PreconditionError(f"sink {sink} out of range")
        n = graph.vertex_count
        old_ordinary = [v for v in range(n) if v != sink]
        relabel = {old: new for new, old in enumerate(old_ordinary)}
        relabel[sink] = n - 1
        self.n_ordinary = n - 1
        self.sink = n - 1
        self.edges = tuple(
            sorted(
                (min(relabel[u], relabel[v]), max(relabel[u], relabel[v]), m)
                for u, v, m in graph.edges
            )
        )
        if graph.coords:
            self.coords = {
                relabel[v]: tuple(xy) for v, xy in graph.coords.items() if v != sink
            }
        else:
            self.coords = None

        m = self.n_ordinary
        if m < 1:
            raise PreconditionError("sandpile graph needs at least one ordinary vertex")
        self._neighbors: list[list[tuple[int, int]]] = [[] for _ in range(m + 1)]
        sink_mult = [0] * m
        degree = [0] * m
        for u, v, mult in self.edges:
            self._neighbors[u].append((v, mult))
            self._neighbors[v].append((u, mult))
            for end, other in ((u, v), (v, u)):
                if end != self.sink:
                    degree[end] += mult
                    if other == self.sink:
                        sink_mult[end] += mult
        for v, d in enumerate(degree):  # exact sums: int64 would wrap silently
            if not 1 <= d < 1 << 63:
                raise PreconditionError(f"vertex {v} has degree {d}")
        self.degree = np.array(degree, dtype=np.int64)
        self.sink_mult = np.array(sink_mult, dtype=np.int64)
        self._check_connected_to_sink()

        self._adjacency = None
        self._eta = None
        self.coord_index = None
        if self.coords:
            self.coord_index = {}
            for v, xy in self.coords.items():
                other = self.coord_index.setdefault(xy, v)
                if other != v:
                    raise PreconditionError(
                        f"coordinates {xy} given to both vertices {other} and {v}"
                    )

    # -- validation ------------------------------------------------------

    def _check_connected_to_sink(self):
        seen = [False] * (self.n_ordinary + 1)
        seen[self.sink] = True
        queue = deque([self.sink])
        while queue:
            v = queue.popleft()
            for u, _ in self._neighbors[v]:
                if not seen[u]:
                    seen[u] = True
                    queue.append(u)
        if not all(seen):
            bad = seen.index(False)
            raise PreconditionError(f"vertex {bad} cannot reach the sink")

    # -- basic access ----------------------------------------------------

    def neighbors(self, v):
        """All neighbors of ``v`` with multiplicities; may include the sink."""
        return self._neighbors[v]

    def ordinary_neighbors(self, v):
        return [(u, m) for u, m in self._neighbors[v] if u != self.sink]

    def is_ordinary(self, v) -> bool:
        return 0 <= v < self.n_ordinary

    def check_ordinary(self, v, what="vertex"):
        if not self.is_ordinary(v):
            raise PreconditionError(f"{what} {v} is not an ordinary vertex")

    def adjacency(self) -> sp.csr_matrix:
        """Symmetric ordinary-to-ordinary adjacency with multiplicities."""
        if self._adjacency is None:
            rows, cols, vals = [], [], []
            for u, v, mult in self.edges:
                if v == self.sink:
                    continue
                rows += [u, v]
                cols += [v, u]
                vals += [mult, mult]
            self._adjacency = sp.csr_matrix(
                (np.array(vals, dtype=np.int64), (rows, cols)),
                shape=(self.n_ordinary, self.n_ordinary),
            )
        return self._adjacency

    def laplacian(self) -> sp.csr_matrix:
        """Sink-reduced Laplacian: diag(degree) minus ordinary adjacency."""
        return sp.diags(self.degree, format="csr", dtype=np.int64) - self.adjacency()

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
        dist = np.full(self.n_ordinary, -1, dtype=np.int64)
        queue = deque()
        for s in sources:
            self.check_ordinary(s, "source")
            if dist[s] < 0:
                dist[s] = 0
                queue.append(s)
        while queue:
            v = queue.popleft()
            d = dist[v]
            if cutoff is not None and d >= cutoff:
                continue
            for u, _ in self._neighbors[v]:
                if u != self.sink and dist[u] < 0:
                    dist[u] = d + 1
                    queue.append(u)
        return dist

    def eta(self):
        """Distance from each ordinary vertex to the nearest sink-adjacent one.

        This is the radius of the largest ball around the vertex that stays
        strictly inside the ordinary part; sink-adjacent vertices have 0.
        """
        if self._eta is None:
            boundary = [v for v in range(self.n_ordinary) if self.sink_mult[v] > 0]
            self._eta = self.ordinary_distances(boundary)
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
        inside = np.zeros(self.n_ordinary + 1, dtype=bool)
        inside[np.asarray(ball, dtype=np.int64)] = True
        vol = 0
        for u, v, mult in self.edges:
            if v != self.sink and inside[u] and inside[v]:
                vol += mult
        return vol

    def degree_signature(self):
        """Weak isomorphism fingerprint: sorted degrees and sink multiplicities."""
        return (
            tuple(sorted(self.degree.tolist())),
            tuple(sorted(self.sink_mult.tolist())),
        )


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
    inside = np.zeros(g.n_ordinary + 1, dtype=bool)
    inside[ball] = True
    vol = 0
    vertex_boundary = set()
    edge_boundary = []
    for a, b, mult in g.edges:
        # endpoints are ordered a < b and the sink sorts last, so a is ordinary
        in_a = inside[a]
        in_b = b != g.sink and inside[b]
        if in_a and in_b:
            vol += mult
        elif in_a and not in_b:
            vertex_boundary.add(a)
            edge_boundary.append((a, b, mult))
        elif in_b and not in_a:
            vertex_boundary.add(b)
            edge_boundary.append((b, a, mult))
    return MetricQuery(
        center=int(v),
        radius=int(r),
        ball=tuple(int(x) for x in ball),
        vol=int(vol),
        vertex_boundary=tuple(sorted(int(x) for x in vertex_boundary)),
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
    index = {v: i for i, v in enumerate(chosen)}
    m = len(chosen)
    sink = m

    adj = ambient.adjacency_lists()
    seen = {chosen[0]}
    queue = deque([chosen[0]])
    while queue:
        v = queue.popleft()
        for u, _ in adj[v]:
            if u in index and u not in seen:
                seen.add(u)
                queue.append(u)
    if len(seen) != m:
        raise PreconditionError("subset not connected")

    edges = []
    boundary = 0
    for u, v, mult in ambient.edges:
        iu, iv = index.get(u), index.get(v)
        if iu is not None and iv is not None:
            edges.append((iu, iv, mult))
        elif iu is not None:
            edges.append((iu, sink, mult))
            boundary += mult
        elif iv is not None:
            edges.append((iv, sink, mult))
            boundary += mult
    if boundary == 0:
        raise PreconditionError("subset has no boundary edges")

    coords = None
    if ambient.coords:
        coords = {index[v]: ambient.coords[v] for v in chosen if v in ambient.coords}
    graph = Multigraph(m + 1, edges, coords)
    return SandpileGraph(graph, sink)


def lattice_window(rows: int, cols: int) -> Multigraph:
    """Finite window of the square lattice with unit edges and coordinates.

    Vertex (x, y) has id x * cols + y for x in [0, rows), y in [0, cols).
    Windows stand in for the infinite lattice: pick a subset well inside and
    ``build_sandpile`` collapses the exterior to the sink, which matches the
    infinite picture as long as dynamics never reach the window frame.
    """
    if rows < 1 or cols < 1:
        raise PreconditionError("window must be at least 1x1")
    edges = []
    coords = {}
    for x in range(rows):
        for y in range(cols):
            v = x * cols + y
            coords[v] = (x, y)
            if x + 1 < rows:
                edges.append((v, (x + 1) * cols + y, 1))
            if y + 1 < cols:
                edges.append((v, x * cols + y + 1, 1))
    return Multigraph(rows * cols, edges, coords)


def _block_sandpile(rows: int, cols: int) -> SandpileGraph:
    """Collapse the exterior of a rows x cols lattice block directly.

    Interior adjacency is the unit lattice; each vertex gets 4 minus its
    internal degree as sink multiplicity, which is exactly what collapsing
    the surrounding infinite lattice produces.
    """
    m = rows * cols
    sink = m
    edges = []
    for x in range(rows):
        for y in range(cols):
            v = x * cols + y
            internal = 0
            if x + 1 < rows:
                edges.append((v, (x + 1) * cols + y, 1))
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                if 0 <= x + dx < rows and 0 <= y + dy < cols:
                    internal += 1
            if y + 1 < cols:
                edges.append((v, x * cols + y + 1, 1))
            if internal < 4:
                edges.append((v, sink, 4 - internal))
    coords = {x * cols + y: (x, y) for x in range(rows) for y in range(cols)}
    graph = Multigraph(m + 1, edges, coords)
    return SandpileGraph(graph, sink)


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


# ---------------------------------------------------------------------------
# serialization


def graph_to_json(g: SandpileGraph) -> dict:
    out = {
        "n_vertices": g.n_ordinary + 1,
        "sink": g.sink,
        "edges": [[int(u), int(v), int(m)] for u, v, m in g.edges],
    }
    if g.coords:
        out["coords"] = {str(v): list(g.coords[v]) for v in sorted(g.coords)}
    return out


def graph_from_json(data: dict) -> SandpileGraph:
    try:
        n = int(data["n_vertices"])
        sink = int(data["sink"])
        edges = [(int(u), int(v), int(m)) for u, v, m in data["edges"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise PreconditionError(f"malformed graph JSON: {exc}") from exc
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
        if not (pair and all(type(c) is int for c in xy)):
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
