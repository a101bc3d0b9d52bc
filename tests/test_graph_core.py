import json
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sandlab import (
    Multigraph,
    PreconditionError,
    SandpileGraph,
    build_sandpile,
    gen_family,
    graph_from_json,
    graph_to_json,
    grid_sandpile,
    lattice_window,
    line_sandpile,
    load_graph,
    metric_query,
    save_graph,
    strip_sandpile,
)
from sandlab.engine import _Lattice
from sandlab.graph_core import _bfs, _csr

import oracles
from test_engine import _swapped_grid5, _window_interior


# -- multigraph basics ------------------------------------------------------


def test_multigraph_merges_parallel_edges():
    g = Multigraph(3, [(0, 1, 1), (1, 0, 2), (1, 2, 1)])
    assert g.edges == ((0, 1, 3), (1, 2, 1))


def test_multigraph_rejects_self_loop():
    with pytest.raises(PreconditionError, match="self loop"):
        Multigraph(2, [(1, 1, 1)])


def test_multigraph_rejects_bad_multiplicity():
    with pytest.raises(PreconditionError, match="multiplicity"):
        Multigraph(2, [(0, 1, 0)])


_ENDPOINTS = st.one_of(st.integers(0, 4), st.sampled_from([-1, 5, 2**63, -(2**64)]))
_MULTS = st.one_of(st.integers(1, 3), st.sampled_from([0, -1, 2**62, 2**63, 2**70]))


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 5), edges=st.lists(st.tuples(_ENDPOINTS, _ENDPOINTS, _MULTS), max_size=8))
@example(n=2, edges=[(0, 1, 2**62), (1, 0, 2**62)])
@example(n=3, edges=[(2, 0, 1), (1, 1, 0), (0, 3, 1)])
@example(n=3, edges=[(0, 2**63, 1), (1, 2, 0)])
def test_multigraph_matches_dict_merge(n, edges):
    want = oracles.reference_multigraph_edges(n, edges)
    if isinstance(want, str):
        with pytest.raises(PreconditionError) as err:
            Multigraph(n, edges)
        assert str(err.value) == want
    else:
        got = Multigraph(n, edges).edges
        assert got == want
        assert all(type(x) is int for edge in got for x in edge)


def test_sandpile_relabels_sink_last():
    # sink in the middle of the input labeling moves to the end
    g = Multigraph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    s = SandpileGraph(g, 1)
    assert s.sink == 2
    assert s.n_ordinary == 2
    assert list(s.degree) == [2, 2]
    assert list(s.sink_mult) == [1, 1]


def test_sandpile_requires_sink_reachability():
    g = Multigraph(4, [(0, 1, 1), (2, 3, 1)])
    with pytest.raises(PreconditionError, match="cannot reach the sink"):
        SandpileGraph(g, 0)


# -- families ---------------------------------------------------------------


@pytest.mark.parametrize("n", range(2, 17))
def test_grid_degree_profile(n):
    g = grid_sandpile(n)
    assert g.n_ordinary == n * n
    assert (g.degree == 4).all()
    assert int(g.sink_mult.sum()) == 4 * n


def test_grid_sink_multiplicities():
    g = grid_sandpile(3)
    corners = [g.vertex_at(x, y) for x in (0, 2) for y in (0, 2)]
    assert all(g.sink_mult[v] == 2 for v in corners)
    assert g.sink_mult[g.vertex_at(1, 1)] == 0
    assert g.sink_mult[g.vertex_at(0, 1)] == 1


def test_line_profile():
    g = line_sandpile(5)
    assert (g.degree == 4).all()
    assert list(g.sink_mult) == [3, 2, 2, 2, 3]
    single = line_sandpile(1)
    assert list(single.degree) == [4]
    assert list(single.sink_mult) == [4]


def test_strip_profile():
    g = strip_sandpile(2, 6)
    assert g.n_ordinary == 12
    assert (g.degree == 4).all()
    # every strip vertex touches the boundary
    assert (g.sink_mult >= 1).all()


def test_gen_family_dispatch():
    assert gen_family("grid", 4).n_ordinary == 16
    assert gen_family("line", 7).n_ordinary == 7
    assert gen_family("strip", 2, 3).n_ordinary == 6
    with pytest.raises(PreconditionError, match="unknown family"):
        gen_family("hex", 3)


@pytest.mark.parametrize("kind, sizes, message", [
    ("strip", (3,), "family 'strip' takes 2 sizes, got 1"),
    ("strip", (1, 2, 3), "family 'strip' takes 2 sizes, got 3"),
    ("line", (3, 4), "family 'line' takes 1 size, got 2"),
    ("grid", (), "family 'grid' takes 1 size, got 0"),
])
def test_gen_family_refuses_the_wrong_number_of_sizes(kind, sizes, message):
    with pytest.raises(PreconditionError) as caught:
        gen_family(kind, *sizes)
    assert str(caught.value) == message


def test_family_size_guards():
    with pytest.raises(PreconditionError):
        grid_sandpile(1)
    with pytest.raises(PreconditionError):
        line_sandpile(0)


def _assert_same_graph(g, want):
    """Every stored and derived field of ``g`` equals that of ``want``,
    a ``SandpileGraph`` or a ``reference_sandpile``."""
    assert (g.n_ordinary, g.sink) == (want.n_ordinary, want.sink)
    assert g.edges == want.edges
    assert g.degree.dtype == g.sink_mult.dtype == np.int64
    assert g.degree.tolist() == list(want.degree)
    assert g.sink_mult.tolist() == list(want.sink_mult)
    for v in range(g.n_ordinary):
        assert g.ordinary_neighbors(v) == (
            want.ordinary_neighbors(v) if isinstance(want, SandpileGraph)
            else want.neighbors[v]
        )
    lap = oracles.reduced_laplacian_rows(want)
    assert g.laplacian().toarray().tolist() == lap
    adj = g.adjacency()
    assert adj.dtype == np.int64 and adj.has_sorted_indices
    assert adj.toarray().tolist() == [
        [0 if u == v else -x for v, x in enumerate(row)] for u, row in enumerate(lap)
    ]


def test_build_sandpile_collapses_exterior():
    amb = lattice_window(5, 5)
    subset = [x * 5 + y for x in range(1, 4) for y in range(1, 4)]
    s = build_sandpile(amb, subset)
    assert s.n_ordinary == 9
    assert (s.degree == 4).all()
    # matches the direct block construction
    direct = grid_sandpile(3)
    assert sorted(s.edges) == sorted(direct.edges)
    # and so does every lattice builder, field by field
    for rows, cols, direct in [
        (1, 1, line_sandpile(1)), (1, 2, line_sandpile(2)), (1, 7, line_sandpile(7)),
        (2, 2, grid_sandpile(2)), (3, 3, grid_sandpile(3)), (6, 6, grid_sandpile(6)),
        (2, 6, strip_sandpile(2, 6)), (4, 3, strip_sandpile(4, 3)),
    ]:
        window = lattice_window(rows + 2, cols + 2)
        inside = [x * (cols + 2) + y for x in range(1, rows + 1) for y in range(1, cols + 1)]
        collapsed = build_sandpile(window, inside)
        _assert_same_graph(direct, collapsed)
        # the window's coordinates are the block's shifted by one
        assert collapsed.coords == {v: (x + 1, y + 1) for v, (x, y) in direct.coords.items()}
        assert direct.eta().tolist() == collapsed.eta().tolist()


@st.composite
def _connected_multigraphs(draw):
    """A connected multigraph with parallel edges given in both orientations
    and multiplicities up to 2**40, with a sink anywhere and coords or not."""
    n = draw(st.integers(2, 8))
    mult = st.integers(1, 1 << 40)
    edges = [(v, draw(st.integers(0, v - 1)), draw(mult)) for v in range(1, n)]
    for _ in range(draw(st.integers(0, 12))):
        u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if u != v:
            edges.append((u, v, draw(mult)))
            if draw(st.booleans()):
                edges.append((v, u, draw(mult)))
    coords = {v: (v, -v) for v in range(n)} if draw(st.booleans()) else None
    return Multigraph(n, draw(st.permutations(edges)), coords), draw(st.integers(0, n - 1))


@settings(max_examples=150, deadline=None)
@given(case=_connected_multigraphs())
def test_sandpile_graph_matches_list_based_construction(case):
    multigraph, sink = case
    g = SandpileGraph(multigraph, sink)
    want = oracles.reference_sandpile(multigraph, sink)
    _assert_same_graph(g, want)
    assert g.coords == want.coords
    assert json.dumps(graph_to_json(g), indent=2) == json.dumps(want.json, indent=2)


@st.composite
def _symmetric_entries(draw):
    """m and an undirected edge list on 0..m-1 with repeated pairs in both
    orientations; vertices no edge touches give empty rows."""
    m = draw(st.integers(1, 7))
    edges = []
    for _ in range(draw(st.integers(0, 10)) if m > 1 else 0):
        u = draw(st.integers(0, m - 1))
        v = draw(st.integers(0, m - 2))
        edges.append((u, v + (v >= u), draw(st.integers(1, 1 << 40))))
    return m, edges


@settings(max_examples=150, deadline=None)
@given(case=_symmetric_entries())
@example(case=(1, []))
@example(case=(4, [(1, 2, 2), (2, 1, 3), (1, 2, 1)]))
def test_csr_arrays_match_scipy(case):
    m, edges = case
    u, v, mult = np.array(edges, dtype=np.int64).reshape(-1, 3).T
    indptr, indices, summed = _csr(m, u, v, mult)
    want = sp.csr_matrix(
        (np.concatenate([mult, mult]), (np.concatenate([u, v]), np.concatenate([v, u]))),
        shape=(m, m),
    ).sorted_indices()
    assert indptr.tolist() == want.indptr.tolist()
    assert indices.tolist() == want.indices.tolist()
    assert summed.dtype == np.int64 and summed.tolist() == want.data.tolist()


def test_single_vertex_line_has_one_empty_row():
    g = line_sandpile(1)
    assert g.indptr.tolist() == [0, 0]
    assert g.indices.size == g.mult.size == 0
    assert g.mult.dtype == np.int64


def _divmod_layout(rows, cols):
    """The colour-split layout computed cell by cell: ``perm`` and the
    int32 and int64 shift arrays."""
    width = cols + 1 + cols % 2
    half = ((rows + 2) * width + 1) // 2
    x, y = np.divmod(np.arange(rows * cols), cols)
    flat = (x + 1) * width + y
    perm = (flat & 1) * half + (flat >> 1)
    shift = {}
    for dtype in (np.int32, np.int64):
        shift[dtype] = np.full(2 * half, np.iinfo(dtype).bits - 1, dtype=dtype)
        shift[dtype][perm] = 2
    return width, half, perm, shift


@pytest.mark.parametrize(
    "rows, cols", [(1, 1), (1, 6), (1, 7), (6, 1), (7, 1), (2, 6), (2, 7), (5, 8), (8, 5),
                   (101, 101)])
def test_lattice_layout_matches_a_cell_by_cell_construction(rows, cols):
    lattice = _Lattice.of(rows, cols)
    width, half, perm, shift = _divmod_layout(rows, cols)
    assert (lattice.width, lattice.half) == (width, half)
    assert lattice.perm.dtype == perm.dtype and np.array_equal(lattice.perm, perm)
    assert lattice.shift.keys() == shift.keys()
    for dtype, want in shift.items():
        assert lattice.shift[dtype].dtype == want.dtype
        assert np.array_equal(lattice.shift[dtype], want)


def _inflow_graphs():
    """Lattice blocks, collapsed windows, swapped-label grids and a graph
    whose first and last ordinary vertices reach only the sink."""
    full = [(x, y) for x in range(1, 6) for y in range(1, 8)]
    ell = [(x, y) for x in range(1, 5) for y in range(1, 5) if x > 2 or y < 3]
    edges = [(0, 4, 3), (1, 2, 2), (1, 4, 1), (2, 4, 1), (3, 4, 5)]
    return [
        grid_sandpile(5), line_sandpile(1), line_sandpile(7), strip_sandpile(3, 6),
        graph_from_json(graph_to_json(grid_sandpile(6))), _window_interior(7, 9, full),
        _window_interior(6, 6, ell), _swapped_grid5(0, 0), _swapped_grid5(2, 2),
        SandpileGraph(Multigraph(5, edges), 4),
    ]


def test_inflow_matches_adjacency_product():
    rng = np.random.default_rng(5)
    graphs = _inflow_graphs()
    assert {g._block is None for g in graphs} == {True, False}
    for g in graphs:
        z = rng.integers(0, 1 << 40, g.n_ordinary)
        got = g._inflow(z)
        assert got.dtype == np.int64
        assert got.tolist() == (g.adjacency() @ z).tolist()
        big = np.array([(1 << 63) + int(x) for x in z], dtype=object)
        got = g._inflow(big)
        assert got.dtype == object
        assert got.tolist() == oracles.reference_inflow(g, big)
    star = graphs[-1]
    assert star.indptr[:2].tolist() == [0, 0] and star.indptr[-2] == star.indptr[-1]


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(1, 9),
    cols=st.integers(1, 9),
    sources=st.lists(st.floats(0, 1, exclude_max=True), max_size=5),
    cutoff=st.one_of(st.none(), st.integers(0, 17)),
)
@example(rows=1, cols=1, sources=[0.0], cutoff=0)
@example(rows=4, cols=7, sources=[], cutoff=None)
@example(rows=9, cols=2, sources=[0.1, 0.1, 0.8], cutoff=3)
def test_block_distances_and_eta_match_bfs(rows, cols, sources, cutoff):
    g = strip_sandpile(rows, cols)
    m = g.n_ordinary
    sources = [int(f * m) for f in sources]
    reached = _bfs(g.indptr, g.indices, sources, cutoff)
    got = g.ordinary_distances(sources, cutoff)
    assert got.dtype == np.int64
    assert got.tolist() == [reached.get(v, -1) for v in range(m)]
    boundary = _bfs(g.indptr, g.indices, g._boundary.tolist())
    eta = g.eta()
    assert eta.dtype == np.int64
    assert eta.tolist() == [boundary[v] for v in range(m)]


def test_build_sandpile_rejects_disconnected_subset():
    amb = lattice_window(3, 3)
    with pytest.raises(PreconditionError, match="not connected"):
        build_sandpile(amb, [0, 8])


def test_build_sandpile_rejects_empty_subset():
    amb = lattice_window(2, 2)
    with pytest.raises(PreconditionError, match="empty"):
        build_sandpile(amb, [])


# -- metric -----------------------------------------------------------------


def test_vertex_at_roundtrip():
    g = grid_sandpile(4)
    for v in range(g.n_ordinary):
        x, y = g.coords[v]
        assert g.vertex_at(x, y) == v
    with pytest.raises(PreconditionError, match="no vertex at"):
        g.vertex_at(9, 9)


def test_eta_matches_sink_mult_support():
    g = grid_sandpile(5)
    eta = g.eta()
    for v in range(g.n_ordinary):
        assert (eta[v] == 0) == (g.sink_mult[v] > 0)


def test_eta_is_lipschitz_along_edges():
    g = grid_sandpile(7)
    eta = g.eta()
    for u, v, _ in g.edges:
        if v != g.sink:
            assert abs(int(eta[u]) - int(eta[v])) <= 1


def test_ordinary_ball_matches_enumeration():
    g = grid_sandpile(7)
    center = g.vertex_at(3, 3)
    for r in range(4):
        want = oracles.lattice_ball_points(3, 3, r, 7)
        got = {g.coords[int(v)] for v in g.ordinary_ball(center, r)}
        assert got == want


def test_ball_volume_matches_enumeration():
    g = grid_sandpile(9)
    center = g.vertex_at(4, 4)
    for r in range(1, 5):
        pts = oracles.lattice_ball_points(4, 4, r, 9)
        ball = g.ordinary_ball(center, r)
        assert g.ball_volume(ball) == oracles.lattice_ball_edges(pts)
        # interior lattice balls have volume exactly 4 r^2
        assert g.ball_volume(ball) == 4 * r * r


def test_ball_volume_small_cases(grid2):
    corner = grid2.vertex_at(0, 0)
    assert grid2.ball_volume(grid2.ordinary_ball(corner, 1)) == 2
    assert grid2.ball_volume(grid2.ordinary_ball(corner, 0)) == 0


@settings(max_examples=40, deadline=None)
@given(
    side=st.integers(5, 11),
    cx=st.integers(0, 10),
    cy=st.integers(0, 10),
    r=st.integers(0, 5),
)
def test_ball_and_volume_oracle_property(side, cx, cy, r):
    cx, cy = cx % side, cy % side
    g = grid_sandpile(side)
    ball = g.ordinary_ball(g.vertex_at(cx, cy), r)
    pts = oracles.lattice_ball_points(cx, cy, r, side)
    assert {g.coords[int(v)] for v in ball} == pts
    assert g.ball_volume(ball) == oracles.lattice_ball_edges(pts)


def test_metric_query_interior():
    g = grid_sandpile(9)
    center = g.vertex_at(4, 4)
    q = metric_query(g, center, 2)
    assert q.eta == 4
    assert q.vol == 16
    assert len(q.ball) == 13
    # boundary vertices are exactly the distance-2 shell
    dist = g.ordinary_distances([center])
    assert set(q.vertex_boundary) == {v for v in q.ball if dist[v] == 2}
    for inside, outside, mult in q.edge_boundary:
        assert inside in q.ball
        assert outside not in q.ball
        assert mult == 1


def test_metric_query_rejects_sink_contact():
    g = grid_sandpile(5)
    center = g.vertex_at(2, 2)
    with pytest.raises(PreconditionError, match="ball reaches sink"):
        metric_query(g, center, 3)


# -- serialization ----------------------------------------------------------


def test_json_roundtrip(tmp_path):
    g = grid_sandpile(4)
    data = graph_to_json(g)
    back = graph_from_json(data)
    assert back.edges == g.edges
    assert back.coords == g.coords
    assert list(back.degree) == list(g.degree)

    path = tmp_path / "g.json"
    save_graph(g, path)
    loaded = load_graph(path)
    assert loaded.edges == g.edges
    # same graph serializes to identical bytes
    twice = tmp_path / "g2.json"
    save_graph(loaded, twice)
    assert path.read_bytes() == twice.read_bytes()


def test_json_rejects_malformed():
    with pytest.raises(PreconditionError, match="malformed graph JSON"):
        graph_from_json({"n_vertices": 3})


def test_duplicate_coordinates_rejected():
    data = graph_to_json(grid_sandpile(2))
    data["coords"]["3"] = [0, 0]
    with pytest.raises(PreconditionError, match=r"\(0, 0\) .* vertices 0 and 3"):
        graph_from_json(data)
    ambient = Multigraph(3, [(0, 1, 1), (1, 2, 1)], {0: (0, 0), 1: (0, 0)})
    with pytest.raises(PreconditionError, match="given to both vertices"):
        build_sandpile(ambient, [0, 1])


_ODD_JSON_VALUES = st.one_of(
    st.integers(-3, 9),
    st.sampled_from([math.inf, -math.inf, math.nan, -1e400, 2.5, 2**62, 2**63,
                     10**12, 10**30, -(10**30), True, None, "3", "x", [], {},
                     [0, 1], {"0": 1}]),
)


@st.composite
def _graph_documents(draw):
    """A grid-2 graph document with one or two entries replaced or dropped."""
    data = graph_to_json(grid_sandpile(2))
    for _ in range(draw(st.integers(1, 2))):
        where = draw(st.sampled_from(
            ["n_vertices", "sink", "edges", "edge", "endpoint", "multiplicity",
             "coords", "coord", "drop", "document"]
        ))
        value = draw(_ODD_JSON_VALUES)
        edges, coords = data.get("edges"), data.get("coords")
        if where in ("edge", "endpoint", "multiplicity"):
            if not (isinstance(edges, list) and edges):
                continue
            i = draw(st.integers(0, len(edges) - 1))
            if where == "edge":
                edges[i] = value
            elif isinstance(edges[i], list) and len(edges[i]) == 3:
                edges[i][draw(st.integers(0, 1)) if where == "endpoint" else 2] = value
        elif where == "coord" and isinstance(coords, dict):
            coords[draw(st.sampled_from(["0", "3", "4", "-1", "a"]))] = value
        elif where == "drop":
            data.pop(draw(st.sampled_from(sorted(data))), None)
        elif where == "document":
            return value
        elif where != "coord":
            data[where] = value
    return data


@settings(max_examples=300, deadline=None)
@given(data=_graph_documents())
@example(data={"n_vertices": math.inf, "sink": 1, "edges": [[0, 1, 1]]})
@example(data={"n_vertices": 2, "sink": 1, "edges": [[0, 1, -math.inf]]})
@example(data={"n_vertices": 10**12, "sink": 1, "edges": [[0, 1, 1]]})
@example(data={"n_vertices": 3, "sink": 2, "edges": [[0, 1, 2**62], [0, 2, 2**62]]})
def test_graph_from_json_builds_or_raises_precondition(data):
    try:
        g = graph_from_json(data)
    except PreconditionError:
        return
    assert isinstance(g, SandpileGraph)
    assert g.n_ordinary >= 1 and (g.degree >= 1).all()


def test_json_edges_are_plain_ints():
    data = graph_to_json(grid_sandpile(2))
    assert json.dumps(data)  # serializable without numpy coercion
    assert all(isinstance(x, int) for e in data["edges"] for x in e)
