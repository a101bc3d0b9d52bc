import json

import numpy as np
import pytest
from hypothesis import given, settings
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

import oracles


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


def test_family_size_guards():
    with pytest.raises(PreconditionError):
        grid_sandpile(1)
    with pytest.raises(PreconditionError):
        line_sandpile(0)


def test_build_sandpile_collapses_exterior():
    amb = lattice_window(5, 5)
    subset = [x * 5 + y for x in range(1, 4) for y in range(1, 4)]
    s = build_sandpile(amb, subset)
    assert s.n_ordinary == 9
    assert (s.degree == 4).all()
    # matches the direct block construction
    direct = grid_sandpile(3)
    assert s.degree_signature() == direct.degree_signature()
    assert sorted(s.edges) == sorted(direct.edges)


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


def test_json_edges_are_plain_ints():
    data = graph_to_json(grid_sandpile(2))
    assert json.dumps(data)  # serializable without numpy coercion
    assert all(isinstance(x, int) for e in data["edges"] for x in e)
