"""Slow reference implementations the tests trust instead of the package.

Everything here favors obviousness over speed: one toppling at a time,
Fraction-exact linear algebra, direct lattice enumeration.  Expected
values frozen into the tests were produced by these.
"""

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np


def reference_multigraph_edges(vertex_count, edges):
    """``Multigraph(vertex_count, edges).edges`` by a dict merge, edge by
    edge in Python ints, or the message of the first edge it rejects."""
    merged = {}
    for u, v, mult in edges:
        if u == v:
            return f"self loop at vertex {u}"
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            return f"edge ({u},{v}) out of range"
        if mult < 1:
            return f"edge ({u},{v}) has multiplicity {mult}"
        key = (min(u, v), max(u, v))
        merged[key] = merged.get(key, 0) + mult
    return tuple(sorted((u, v, m) for (u, v), m in merged.items()))


def reference_inflow(g, z):
    """Each ordinary vertex's ``sum(mult * z)`` over its ordinary
    neighbors, from the dense adjacency, in Python ints."""
    return [sum(int(a) * int(x) for a, x in zip(row, z)) for row in g.adjacency().toarray()]


def reference_sandpile(multigraph, sink):
    """A sandpile graph built the list-based way from a ``Multigraph``.

    Relabels the sink last, sorts the relabeled edges, and sums degrees,
    sink multiplicities and neighbor lists edge by edge in Python ints.
    """
    n = multigraph.vertex_count
    relabel = {old: new for new, old in enumerate(v for v in range(n) if v != sink)}
    relabel[sink] = n - 1
    m = n - 1
    edges = tuple(sorted(
        (min(relabel[u], relabel[v]), max(relabel[u], relabel[v]), mult)
        for u, v, mult in multigraph.edges
    ))
    degree, sink_mult = [0] * m, [0] * m
    neighbors = [[] for _ in range(m)]
    for u, v, mult in edges:
        degree[u] += mult
        if v == m:
            sink_mult[u] += mult
        else:
            degree[v] += mult
            neighbors[u].append((v, mult))
            neighbors[v].append((u, mult))
    coords = None
    if multigraph.coords:
        coords = {relabel[v]: tuple(xy) for v, xy in multigraph.coords.items() if v != sink}
    doc = {"n_vertices": n, "sink": m, "edges": [list(e) for e in edges]}
    if coords:
        doc["coords"] = {str(v): list(coords[v]) for v in sorted(coords)}
    return SimpleNamespace(n_ordinary=m, sink=m, edges=edges, degree=degree,
                           sink_mult=sink_mult, neighbors=neighbors, coords=coords,
                           json=doc)


def neighbor_lists(g):
    """Ordinary-to-ordinary neighbor multiset per vertex, from the edge list."""
    out = [[] for _ in range(g.n_ordinary)]
    for u, v, mult in g.edges:
        if v == g.sink:
            continue
        out[u].extend([v] * mult)
        out[v].extend([u] * mult)
    return out


def naive_stabilize(g, counts):
    """Topple the lowest-index unstable vertex, one firing at a time."""
    c = [int(x) for x in counts]
    deg = [int(d) for d in g.degree]
    sink = [int(s) for s in g.sink_mult]
    nbrs = neighbor_lists(g)
    score = [0] * g.n_ordinary
    absorbed = 0
    while True:
        v = next((u for u in range(g.n_ordinary) if c[u] >= deg[u]), None)
        if v is None:
            return c, score, absorbed
        c[v] -= deg[v]
        score[v] += 1
        absorbed += sink[v]
        for u in nbrs[v]:
            c[u] += 1


def naive_is_recurrent(g, counts):
    c = [int(x) for x in counts]
    burn = [x + int(m) for x, m in zip(c, g.sink_mult)]
    stable, score, _ = naive_stabilize(g, burn)
    return all(s == 1 for s in score) and stable == c


def solve_fraction_system(rows, rhs):
    """Gauss-Jordan over Fractions; rows is a dense square matrix."""
    n = len(rhs)
    m = [[Fraction(rows[i][j]) for j in range(n)] + [Fraction(rhs[i])]
         for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        inv = m[col][col]
        m[col] = [x / inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [m[i][n] for i in range(n)]


def exact_potential(g, pole):
    """Fraction-exact harmonic field: 1 at the pole, 0 at the sink."""
    n = g.n_ordinary
    nbrs = neighbor_lists(g)
    rows = [[0] * n for _ in range(n)]
    rhs = [0] * n
    for v in range(n):
        if v == pole:
            rows[v][v] = 1
            rhs[v] = 1
        else:
            rows[v][v] = int(g.degree[v])
            for u in nbrs[v]:
                rows[v][u] -= 1
    return solve_fraction_system(rows, rhs)


def exact_resistance(g, u, v):
    """Fraction-exact effective resistance in the full network, sink included.

    Either endpoint may be g.sink.  Grounds v, injects unit current at u,
    and returns the voltage at u.
    """
    n = g.n_ordinary
    full = [list(row) for row in neighbor_lists(g)]
    for w in range(n):
        full[w].extend([n] * int(g.sink_mult[w]))
    full.append([w for w in range(n) for _ in range(int(g.sink_mult[w]))])
    order = [w for w in range(n + 1) if w != v]
    pos = {w: i for i, w in enumerate(order)}
    rows = [[0] * len(order) for _ in order]
    rhs = [0] * len(order)
    for w in order:
        i = pos[w]
        rows[i][i] = len(full[w])
        for x in full[w]:
            if x != v:
                rows[i][pos[x]] -= 1
        if w == u:
            rhs[i] = 1
    sol = solve_fraction_system(rows, rhs)
    return sol[pos[u]]


def reference_dst(a):
    """Orthonormal DST-I along the last axis: the imaginary part of the
    real FFT of the odd extension [0, a, 0, -a reversed], all rows at once."""
    n = a.shape[-1]
    ext = np.zeros(a.shape[:-1] + (2 * n + 2,))
    ext[..., 1 : n + 1] = a
    ext[..., n + 2 :] = -a[..., ::-1]
    return np.fft.rfft(ext)[..., 1 : n + 1].imag * (-1.0 / np.sqrt(2.0 * (n + 1)))


def reference_sine_solve(spectrum, rhs):
    """The lattice-block solve as four full 2-D sine transforms,
    ``S (S B S / spectrum) S`` for the rows x cols block ``B`` of ``rhs``;
    every pass transforms every row or column."""

    def dst2(a):
        return reference_dst(reference_dst(a).T).T

    return dst2(dst2(rhs.reshape(spectrum.shape)) / spectrum).ravel()


def exact_determinant(rows):
    """Fraction-exact determinant by elimination."""
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                f = m[r][col] / inv
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return det


def reduced_laplacian_rows(g):
    n = g.n_ordinary
    rows = [[0] * n for _ in range(n)]
    for v in range(n):
        rows[v][v] = int(g.degree[v])
    for u, v, mult in g.edges:
        if v == g.sink:
            continue
        rows[u][v] -= mult
        rows[v][u] -= mult
    return rows


def brute_min_to_topple(g, v, w, limit=5000):
    """Linear scan over placement sizes; no bisection to trust."""
    for m in range(limit + 1):
        counts = [0] * g.n_ordinary
        counts[v] = m
        _, score, _ = naive_stabilize(g, counts)
        if score[w] >= 1:
            return m
    raise AssertionError(f"no threshold up to {limit}")


def brute_flood_count(g, v, targets, limit=5000):
    nbrs = neighbor_lists(g)
    for m in range(1, limit + 1):
        counts = [0] * g.n_ordinary
        counts[v] = m
        _, score, _ = naive_stabilize(g, counts)
        received = list(counts)
        for a in range(g.n_ordinary):
            for b in nbrs[a]:
                received[b] += score[a]
        if all(received[t] > 0 for t in targets):
            return m
    raise AssertionError(f"no flooding count up to {limit}")


def lattice_ball_points(cx, cy, r, side):
    """Window lattice points within l1 distance r of (cx, cy)."""
    return {
        (x, y)
        for x in range(side)
        for y in range(side)
        if abs(x - cx) + abs(y - cy) <= r
    }


def lattice_ball_edges(points):
    """Unit-grid edges with both endpoints in the point set."""
    vol = 0
    for x, y in points:
        if (x + 1, y) in points:
            vol += 1
        if (x, y + 1) in points:
            vol += 1
    return vol


def diamond_site_count(r):
    return sum(1 for x in range(-r, r + 1)
               for y in range(-r, r + 1) if abs(x) + abs(y) <= r)


def square_site_count(r):
    return (2 * r + 1) ** 2


def naive_outcome(g, counts):
    """``stable``, ``score`` and ``received`` of a naive stabilization."""
    stable, score, _ = naive_stabilize(g, counts)
    received = list(counts)
    for a, nbrs in enumerate(neighbor_lists(g)):
        for b in nbrs:
            received[b] += score[a]
    return SimpleNamespace(stable=stable, score=score, received=received)


def brute_least_multiple(g, base, done, limit=5000):
    """Linear scan for the least x >= 1 whose stabilization of x * base
    satisfies ``done``, which sees ``stable``, ``score`` and ``received``."""
    for x in range(1, limit + 1):
        if done(naive_outcome(g, [x * c for c in base])):
            return x
    raise AssertionError(f"no multiple up to {limit}")


def bisect_probes(g, base, done):
    """Probes of a from-scratch bracket-and-bisect search for the least
    x >= 1 whose stabilization of x * base satisfies ``done``: doubling
    from 1, then bisection.  Returns (x, passed, stable) per probe in
    order, each stabilized naively from x * base."""
    probes = []

    def probe(x):
        out = naive_outcome(g, [x * c for c in base])
        probes.append((x, bool(done(out)), out.stable))
        return probes[-1][1]

    lo, hi = 0, 1
    while not probe(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if probe(mid):
            hi = mid
        else:
            lo = mid
    return probes


def coordinate_central_path(g, p, q):
    """The grid central path built from coordinates, the reference for
    ``find_central_path_grid``: a graph is a grid when its coordinates fill
    an n x n square (n >= 2) and every degree is 4, and the two legs run
    between the coordinates of p, of the vertex at ((n - 1) // 2,
    (n - 1) // 2) and of q, with one leg when p or q is that center."""
    from sandlab.epicenter import BoundParams, CentralPath, _staircase, classify_path
    from sandlab.errors import PreconditionError

    m = g.n_ordinary
    side = math.isqrt(m)
    if (
        g.coords is None
        or side * side != m
        or side < 2
        or set(g.coords.values()) != {(x, y) for x in range(side) for y in range(side)}
        or not (g.degree == 4).all()
    ):
        raise PreconditionError("central-path construction defined for grid family only")
    g.check_ordinary(p, "path start")
    g.check_ordinary(q, "path end")
    l = BoundParams.grid_defaults().drift_len
    if p == q:
        return CentralPath(vertices=(), eta=(), segments=(), drift_len=l)
    mid = (side - 1) // 2
    center = g.vertex_at(mid, mid)
    cp, cq, cc = g.coords[p], g.coords[q], g.coords[center]
    if center in (p, q):
        coords, breaks = _staircase(cp, cq), None
    else:
        first = _staircase(cp, cc)
        coords, breaks = first + _staircase(cc, cq)[1:], [len(first) - 1]
    return classify_path(g, [g.vertex_at(x, y) for x, y in coords], l=l, breaks=breaks)
