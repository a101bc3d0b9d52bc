import dataclasses
import gc
import json
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sandlab import (
    InternalError,
    Multigraph,
    PreconditionError,
    ResourceLimitError,
    SandpileGraph,
    StabilizationResult,
    UniformThreshold,
    build_sandpile,
    engine_stats,
    flood_count,
    graph_from_json,
    graph_to_json,
    grid_sandpile,
    is_recurrent,
    lattice_window,
    line_sandpile,
    load_graph,
    max_stable,
    min_to_topple,
    min_to_topple_uniform,
    point_config,
    recurrent_count,
    save_graph,
    solve_potential,
    spanning_tree_count,
    stabilize,
    strip_sandpile,
    tcl_exact,
    tcl_single_site,
    uniform_config,
)
from sandlab import engine as engine_mod

import oracles


# -- configurations ---------------------------------------------------------


def test_point_config(grid2):
    assert point_config(grid2, 3, 5) == [0, 0, 0, 5]
    with pytest.raises(PreconditionError):
        point_config(grid2, 4, 1)
    with pytest.raises(PreconditionError, match="nonnegative"):
        point_config(grid2, 0, -1)


def test_uniform_config(grid2):
    assert uniform_config(grid2, [0, 2], 3) == [3, 0, 3, 0]


def test_normalize_accepts_mapping(grid2):
    res = stabilize(grid2, {3: 30})
    assert res.score == [1, 2, 2, 8]


def test_stabilize_takes_lists_mappings_and_arrays():
    g = grid_sandpile(4)
    c = [(7 * v) % 11 for v in range(g.n_ordinary)]
    want = stabilize(g, c)
    given = np.array(c, dtype=np.int64)
    for counts in ({v: x for v, x in enumerate(c)}, given, iter(c), (x for x in c)):
        assert stabilize(g, counts) == want
    assert given.tolist() == c  # an array is read, never written
    line = line_sandpile(6)
    big = [0, 2**70 + 3, 0, 5, 0, 2**64]
    want = stabilize(line, big)
    assert stabilize(line, np.array(big, dtype=object)) == want
    assert stabilize(line, {1: 2**70 + 3, 3: 5, 5: 2**64}) == want
    assert want.topplings_total > 1 << 63


@pytest.mark.parametrize("counts, said", [
    (np.array([0, -1, 0, 0], dtype=np.int64), "negative count at vertex 1"),
    (np.array([0, 0, 2**70, -(2**70)], dtype=object), "negative count at vertex 3"),
    (np.array([1, 2, 3], dtype=np.int64), "configuration has 3 entries, expected 4"),
    (np.array([1, 2, 3, 4, 5], dtype=object), "configuration has 5 entries, expected 4"),
])
def test_array_configs_are_checked(grid2, counts, said):
    with pytest.raises(PreconditionError, match=said):
        stabilize(grid2, counts)


@pytest.mark.parametrize("entry", [
    3, True, 2.7, 0.5, "5", " 7 ", np.int32(4), np.uint64(9), np.float64(3.9), 2**63, 1e30,
    None, float("nan"), float("inf"), 1j, "2.5",
])
def test_config_entries_read_as_int_reads_them(entry):
    g = line_sandpile(2)
    try:
        want = [int(entry), 1]
    except (TypeError, ValueError, OverflowError) as exc:
        with pytest.raises(type(exc)):
            engine_mod.normalize_config(g, [entry, 1])
        return
    got = engine_mod.normalize_config(g, [entry, 1])
    assert got.tolist() == want
    assert all(type(x) is int for x in got.tolist())


def test_config_length_checked(grid2):
    with pytest.raises(PreconditionError, match="expected 4"):
        stabilize(grid2, [1, 2, 3])


def test_negative_count_rejected(grid2):
    with pytest.raises(PreconditionError, match="negative count"):
        stabilize(grid2, [0, -1, 0, 0])


def test_max_stable_is_recurrent(grid2):
    top = max_stable(grid2)
    assert top == [3, 3, 3, 3]
    assert is_recurrent(grid2, top)


# -- the grid(2) battery ----------------------------------------------------


def test_grid2_point_drop(grid2):
    res = stabilize(grid2, point_config(grid2, 3, 30))
    assert res.score == [1, 2, 2, 8]
    assert res.stable == [0, 1, 1, 2]
    assert res.topplings_total == 13
    assert res.sink_absorbed == 26
    assert sum(res.stable) + res.sink_absorbed == 30


def test_grid2_min_to_topple(grid2):
    assert min_to_topple(grid2, 3, 0) == 30
    assert min_to_topple(grid2, 3, 0) == oracles.brute_min_to_topple(grid2, 3, 0)


def test_grid2_uniform_threshold(grid2):
    ball = grid2.ordinary_ball(3, 1)  # {(0,1), (1,0), (1,1)}
    got = min_to_topple_uniform(grid2, ball, 0)
    assert got == UniformThreshold(h_topple=6, h_no_topple=5)


def test_grid2_recurrent_count(grid2):
    n = recurrent_count(grid2)
    assert n == 192
    assert n == spanning_tree_count(grid2)
    det = oracles.exact_determinant(oracles.reduced_laplacian_rows(grid2))
    assert n == det


def test_grid2_tcl_single_site(grid2):
    res = tcl_single_site(grid2, 3)
    assert res.value == 30
    assert res.mode == "single_site"
    assert res.witness == 3


# -- policy independence and the oracle ------------------------------------


def test_policies_agree(grid8):
    rng = np.random.default_rng(11)
    for _ in range(20):
        c = rng.integers(0, 8, size=grid8.n_ordinary).tolist()
        base = stabilize(grid8, c)
        for policy in ("fifo", "lifo", "random"):
            res = stabilize(grid8, c, policy=policy, seed=5)
            assert res.stable == base.stable
            assert res.score == base.score


def test_random_policy_seed_irrelevant_to_result(grid4):
    c = [5] * grid4.n_ordinary
    a = stabilize(grid4, c, policy="random", seed=1)
    b = stabilize(grid4, c, policy="random", seed=99)
    assert a.stable == b.stable and a.score == b.score


def test_unknown_policy(grid2):
    with pytest.raises(PreconditionError, match="unknown policy"):
        stabilize(grid2, [0, 0, 0, 0], policy="spiral")


@settings(max_examples=60, deadline=None)
@given(c=st.lists(st.integers(0, 9), min_size=9, max_size=9))
def test_stabilize_matches_naive_oracle(c):
    g = grid_sandpile(3)
    stable, score, absorbed = oracles.naive_stabilize(g, c)
    res = stabilize(g, c)
    assert res.stable == stable
    assert res.score == score
    assert res.sink_absorbed == absorbed


@settings(max_examples=30, deadline=None)
@given(c=st.lists(st.integers(0, 30), min_size=5, max_size=5))
def test_line_matches_naive_oracle(c):
    g = line_sandpile(5)
    stable, score, _ = oracles.naive_stabilize(g, c)
    res = stabilize(g, c)
    assert res.stable == stable and res.score == score


def test_strip_matches_naive_oracle():
    g = strip_sandpile(2, 4)
    rng = np.random.default_rng(3)
    for _ in range(10):
        c = rng.integers(0, 12, size=g.n_ordinary).tolist()
        stable, score, absorbed = oracles.naive_stabilize(g, c)
        res = stabilize(g, c)
        assert (res.stable, res.score, res.sink_absorbed) == (stable, score, absorbed)


@st.composite
def _multigraph_configs(draw):
    """A connected multigraph on 2-7 vertices with parallel edges of
    multiplicity 1-3, a sink anywhere, and counts below twice each degree."""
    n = draw(st.integers(2, 7))
    mult = st.integers(1, 3)
    edges = [(v, draw(st.integers(0, v - 1)), draw(mult)) for v in range(1, n)]
    for _ in range(draw(st.integers(0, 10))):
        u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if u != v:
            edges.append((u, v, draw(mult)))
    g = SandpileGraph(Multigraph(n, edges), draw(st.integers(0, n - 1)))
    c = [draw(st.integers(0, 2 * int(d) - 1)) for d in g.degree]
    return g, c


@settings(max_examples=80, deadline=None)
@given(case=_multigraph_configs(), seed=st.integers(0, 2**32 - 1))
def test_multigraphs_match_naive_oracle_under_every_policy(case, seed):
    # off lattice blocks every batch run takes the worklist
    g, c = case
    want = oracles.naive_stabilize(g, c)
    for policy in ("batch", "fifo", "lifo", "random"):
        res = stabilize(g, c, policy=policy, seed=seed)
        assert (res.stable, res.score, res.sink_absorbed) == want, policy


# -- structural laws --------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    c=st.lists(st.integers(0, 6), min_size=9, max_size=9),
    bump=st.lists(st.integers(0, 3), min_size=9, max_size=9),
)
def test_monotonicity(c, bump):
    g = grid_sandpile(3)
    z_small = stabilize(g, c).score
    z_big = stabilize(g, [a + b for a, b in zip(c, bump)]).score
    assert all(s <= b for s, b in zip(z_small, z_big))


@pytest.mark.parametrize("k", [2, 3, 5])
def test_scaling_law(k, grid4):
    # z(k c) = k z(c) + z(k sigma(c)), and the final states agree
    rng = np.random.default_rng(17)
    for _ in range(8):
        c = rng.integers(0, 8, size=grid4.n_ordinary).tolist()
        base = stabilize(grid4, c)
        scaled = stabilize(grid4, [k * x for x in c])
        rescaled = stabilize(grid4, [k * x for x in base.stable])
        assert scaled.stable == rescaled.stable
        assert scaled.score == [k * z + w for z, w in zip(base.score, rescaled.score)]


def test_recurrence_upward_closed(line2):
    rng = np.random.default_rng(29)
    for _ in range(40):
        c = rng.integers(0, 4, size=2).tolist()
        if not is_recurrent(line2, c):
            continue
        bigger = [min(3, x + int(rng.integers(0, 2))) for x in c]
        assert is_recurrent(line2, bigger)


def test_is_recurrent_matches_burning_oracle(grid2):
    rng = np.random.default_rng(41)
    for _ in range(25):
        c = rng.integers(0, 4, size=4).tolist()
        assert is_recurrent(grid2, c) == oracles.naive_is_recurrent(grid2, c)


def test_is_recurrent_rejects_unstable(grid2):
    with pytest.raises(PreconditionError, match="not stable"):
        is_recurrent(grid2, [4, 0, 0, 0])


def test_empty_not_recurrent(grid2):
    assert not is_recurrent(grid2, [0, 0, 0, 0])


# -- thresholds and flooding ------------------------------------------------


def test_flood_count_self_is_one(grid4):
    assert flood_count(grid4, 5, [5]) == 1


def test_flood_count_matches_brute(grid2):
    for r in (0, 1, 2):
        ball = grid2.ordinary_ball(3, r)
        assert flood_count(grid2, 3, ball) == oracles.brute_flood_count(
            grid2, 3, [int(t) for t in ball]
        )


def test_flood_count_rejects_empty_targets(grid2):
    with pytest.raises(PreconditionError, match="target set is empty"):
        flood_count(grid2, 0, [])


def test_min_to_topple_brute_agreement():
    g = line_sandpile(4)
    for v in range(4):
        for w in range(4):
            assert min_to_topple(g, v, w) == oracles.brute_min_to_topple(g, v, w)


def _goal(targets, goal):
    """The predicate of a target set and a goal, for the reference searches."""
    key = {"topple": "score", "flood": "received"}[goal]
    return lambda res: all(getattr(res, key)[t] >= 1 for t in targets)


@pytest.mark.parametrize("family, n, placement, targets, goal, start", [
    ("grid", 2, {3: 1}, [0], "topple", 4),
    ("grid", 3, {4: 1}, range(9), "flood", 1),
    ("grid", 3, {0: 1, 1: 1, 3: 1}, range(9), "topple", 1),
    ("grid", 4, {5: 2, 10: 1}, [15], "topple", 4),
    ("grid", 4, {0: 3}, [5, 15], "flood", 1),
    ("line", 4, {0: 1}, range(4), "topple", 3),
    ("line", 5, {1: 1, 2: 1}, [4], "flood", 1),
    ("line", 5, {2: 2}, [0], "topple", 64),
])
def test_least_multiple_returns_its_stabilization(family, n, placement, targets, goal, start):
    # ``start`` starts the from-scratch reference search; the search doubles from 1
    g = grid_sandpile(n) if family == "grid" else line_sandpile(n)
    base = [placement.get(v, 0) for v in range(g.n_ordinary)]
    done = _goal(targets, goal)
    x, res = engine_mod._least_multiple(g, base, targets, goal)
    fresh = stabilize(g, [x * c for c in base])
    assert res.stable == fresh.stable
    assert res.score == fresh.score
    assert res.received == fresh.received
    assert res.sink_absorbed == fresh.sink_absorbed
    assert done(res)
    assert not done(stabilize(g, [(x - 1) * c for c in base]))
    assert x == oracles.brute_least_multiple(g, base, done)
    assert x == _scratch_least_multiple(g, base, done, start)[0]


def _scratch_least_multiple(g, base, done, start=1):
    """Bracket-and-bisect that stabilizes ``x * base`` from scratch per probe."""
    lo, hi = 0, start
    best = stabilize(g, [hi * c for c in base])
    while not done(best):
        lo, hi = hi, 2 * hi
        best = stabilize(g, [hi * c for c in base])
    while hi - lo > 1:
        mid = (lo + hi) // 2
        res = stabilize(g, [mid * c for c in base])
        if done(res):
            hi, best = mid, res
        else:
            lo = mid
    return hi, best


def _heavy_pair():
    # two vertices joined by one edge, each with 2**40 sink edges: making 1
    # topple takes about 2**40 topplings of 0, each spending 2**40 + 1
    heavy = 1 << 40
    return SandpileGraph(Multigraph(3, [(0, 1, 1), (0, 2, heavy), (1, 2, heavy)]), 2)


@pytest.mark.parametrize("make, placement, targets, goal", [
    (lambda: line_sandpile(40), {0: 1}, range(40), "topple"),
    (lambda: line_sandpile(60), {10: 1}, range(60), "topple"),
    (lambda: line_sandpile(50), {0: 1, 3: 2}, [49], "flood"),
    (_heavy_pair, {0: 1}, [1], "topple"),
], ids=["line40-end", "line60-interior", "line50-flood", "heavy-pair"])
def test_least_multiple_past_int64_matches_a_from_scratch_search(make, placement, targets,
                                                                  goal):
    g = make()
    base = [placement.get(v, 0) for v in range(g.n_ordinary)]
    x, res = engine_mod._least_multiple(g, base, targets, goal)
    want_x, want = _scratch_least_multiple(g, base, _goal(targets, goal))
    assert x == want_x
    assert res == want
    # the search ran through counts that int64 cannot hold
    assert max(res.received) >= 1 << 63
    assert max(res.score) * int(g.degree.max()) >= 1 << 63


def test_tcl_single_site_on_long_lines_matches_a_from_scratch_search():
    for n in (34, 40):
        g = line_sandpile(n)
        want, _ = _scratch_least_multiple(
            g, point_config(g, 0, 1), _goal(range(n), "topple"), 4
        )
        assert tcl_single_site(g, 0).value == want


def test_tcl_single_site_past_2_to_the_200_certifies():
    g = line_sandpile(120)
    x = tcl_single_site(g, 0).value
    assert x.bit_length() > 200
    assert min(stabilize(g, point_config(g, 0, x)).score) >= 1
    assert min(stabilize(g, point_config(g, 0, x - 1)).score) == 0


def test_threshold_searches_refuse_unreachable_targets():
    # two ordinary vertices, each joined only to the sink
    g = graph_from_json({"n_vertices": 3, "sink": 2, "edges": [[0, 2, 1], [1, 2, 1]]})
    for search in (lambda: min_to_topple(g, 0, 1), lambda: flood_count(g, 0, [1]),
                   lambda: tcl_single_site(g, 0)):
        with pytest.raises(PreconditionError, match="target 1 is unreachable"):
            search()


@pytest.mark.parametrize("search", ["point", "uniform", "flood", "tcl"])
def test_least_multiple_probes_reuse_the_last_failing_state(monkeypatch, search):
    g = grid_sandpile(9)
    v, w = g.vertex_at(2, 2), g.vertex_at(5, 4)
    if search == "point":
        base, done = point_config(g, v, 1), _goal([w], "topple")
        run = lambda: min_to_topple(g, v, w)  # noqa: E731
    elif search == "uniform":
        sites = g.ordinary_ball(v, 1)
        base, done = uniform_config(g, sites, 1), _goal([w], "topple")
        run = lambda: min_to_topple_uniform(g, sites, w).h_topple  # noqa: E731
    elif search == "flood":
        ball = g.ordinary_ball(v, 2)
        base, done = point_config(g, v, 1), _goal(ball, "flood")
        run = lambda: flood_count(g, v, ball)  # noqa: E731
    else:
        every = range(g.n_ordinary)
        base, done = point_config(g, v, 1), _goal(every, "topple")
        run = lambda: tcl_single_site(g, v).value  # noqa: E731
    calls = []
    real = engine_mod.stabilize

    def spy(g_, counts):
        calls.append((list(counts), real(g_, counts)))
        return calls[-1][1]

    monkeypatch.setattr(engine_mod, "stabilize", spy)
    answer = run()
    want = oracles.bisect_probes(g, base, done)
    assert answer == min(x for x, passed, _ in want if passed)
    # a probe at x places stable(lo) + table[x - lo]: the table holds the
    # empty state, the raw placement at count 1 until the probe at 1 fails,
    # and every failing doubling count
    lo, stable_lo = 0, [0] * g.n_ordinary
    table = {0: stable_lo, 1: list(base)}
    growing, reused = True, 0
    made = iter(calls)
    for x, passed, stable in want:
        counts = [s + t for s, t in zip(stable_lo, table[x - lo])]
        if all(c < deg for c, deg in zip(counts, g.degree.tolist())):
            # a stable input topples nothing: composed, not stabilized
            assert stable == counts
        else:
            made_counts, step = next(made)
            assert made_counts == counts
            assert step.stable == stable
            reused += lo > 0  # a stored stabilization, not the raw placement
        growing = growing and not passed
        if growing:
            table[x] = stable
        if not passed:
            lo, stable_lo = x, stable
    assert next(made, None) is None
    assert lo == answer - 1
    assert reused >= 1


def _odd_degree_path():
    """A path 0-1-2-3 with sink 4 and multiplicities that give the degrees 3,
    5, 6 and 7, none a power of two."""
    edges = [[0, 1, 1], [1, 2, 2], [2, 3, 1], [0, 4, 2], [1, 4, 2], [2, 4, 3], [3, 4, 6]]
    return graph_from_json({"n_vertices": 5, "sink": 4, "edges": edges})


def test_searches_from_one_match_brute_force_at_degrees_off_powers_of_two():
    # no degree is a power of two, so a search bracketed from a degree would
    # bisect here with increments the doubling never stored
    g = _odd_degree_path()
    assert g.degree.tolist() == [3, 5, 6, 7]
    every = _goal(range(4), "topple")
    for v in range(4):
        base = point_config(g, v, 1)
        for w in range(4):
            want = oracles.brute_least_multiple(g, base, _goal([w], "topple"))
            assert min_to_topple(g, v, w) == want
            assert min_to_topple_uniform(g, [v], w) == UniformThreshold(want, want - 1)
        assert tcl_single_site(g, v).value == oracles.brute_least_multiple(g, base, every)


def _probed_counts(monkeypatch, g, goal, base, run):
    """``(x, passed)`` per probe of the search that ``run`` makes over every
    vertex, x read back from the probe's state by conservation: x * sum(base)
    is what the ordinary vertices hold plus what the sink absorbed."""
    real, probes = engine_mod._GOALS[goal], []
    sink_mult, placed = g.sink_mult.astype(object), sum(base)

    def spy(stable, score):
        held = int(stable.astype(object).sum() + (sink_mult * score.astype(object)).sum())
        assert held % placed == 0
        probes.append((held // placed, bool(real(stable, score))))
        return probes[-1][1]

    monkeypatch.setitem(engine_mod._GOALS, goal, spy)
    return run(), probes


@pytest.mark.parametrize("graph, v", [
    ("odd", 0), ("odd", 1), ("odd", 2), ("odd", 3),
    ("grid5", 0), ("grid5", 12), ("line8", 3),
])
@pytest.mark.parametrize("goal", ["topple", "flood"])
def test_least_multiple_doubles_from_one_over_stored_powers_of_two(monkeypatch, graph, v,
                                                                    goal):
    # the probes are 1, 2, 4, ... up to the first passing count 2**k, then
    # bisection midpoints on [2**(k - 1), 2**k], each x - lo a failing
    # doubling count, so the table holds every increment
    g = {"odd": _odd_degree_path, "grid5": lambda: grid_sandpile(5),
         "line8": lambda: line_sandpile(8)}[graph]()
    base = point_config(g, v, 1)
    if goal == "topple":
        run = lambda: tcl_single_site(g, v).value  # noqa: E731
    else:
        run = lambda: flood_count(g, v, range(g.n_ordinary))  # noqa: E731
    answer, probes = _probed_counts(monkeypatch, g, goal, base, run)
    passed = dict(probes)
    assert len(passed) == len(probes)  # no count probed twice
    lo, hi, want, stored = 0, 1, [1], set()
    while not passed[hi]:
        stored.add(hi)
        lo, hi = hi, 2 * hi
        want.append(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        assert mid - lo in stored
        want.append(mid)
        lo, hi = (lo, mid) if passed[mid] else (mid, hi)
    assert [x for x, _ in probes] == want
    assert answer == hi


# an L-shaped region of a 7 x 7 window: not a lattice block, degrees 4
_ELL = [(x, y) for x in range(1, 6) for y in range(1, 6) if x > 3 or y < 3]


@settings(max_examples=60, deadline=None)
@given(
    shape=st.one_of(st.tuples(st.integers(1, 6), st.integers(1, 6)), st.none()),
    sites=st.lists(st.floats(0, 1, exclude_max=True), min_size=1, max_size=4),
    count=st.integers(1, 3),
    point=st.booleans(),
    targets=st.lists(st.floats(0, 1, exclude_max=True), min_size=1, max_size=4),
    goal=st.sampled_from(["topple", "flood"]),
    start=st.integers(1, 9),
)
@example(shape=(5, 6), sites=[0.5], count=1, point=False, targets=[0.0, 0.9],
         goal="flood", start=1)
@example(shape=None, sites=[0.3, 0.6], count=2, point=False, targets=[0.99],
         goal="topple", start=1)
@example(shape=(1, 6), sites=[0.5], count=1, point=True, targets=[0.0], goal="topple",
         start=2)
def test_least_multiple_composes_stable_probes_exactly(shape, sites, count, point, targets,
                                                       goal, start):
    # the search equals a from-scratch bracket-and-bisect over stabilize(x * base)
    # from ``start``, with or without the stabilization of 1 * base as its
    # seed, and it sends no stable configuration through stabilize
    g = strip_sandpile(*shape) if shape else _window_interior(7, 7, _ELL)
    m = g.n_ordinary
    picked = sorted({int(f * m) for f in sites})
    if point:
        base = point_config(g, picked[0], count)
    else:
        base = uniform_config(g, picked, count)
    targets = sorted({int(f * m) for f in targets})
    placed = []
    real = engine_mod.stabilize

    def spy(g_, counts):
        placed.append(counts)
        return real(g_, counts)

    one = stabilize(g, base)
    with mock.patch.object(engine_mod, "stabilize", spy):
        x, res = engine_mod._least_multiple(g, base, targets, goal)
        seeded_x, seeded = engine_mod._least_multiple(g, base, targets, goal, at_one=one)
    want_x, want = _scratch_least_multiple(g, base, _goal(targets, goal), start)
    assert x == seeded_x == want_x
    fields = ("stable", "score", "received", "sink_absorbed", "topplings_total")
    assert [getattr(res, f) for f in fields] == [getattr(want, f) for f in fields]
    assert [getattr(seeded, f) for f in fields] == [getattr(want, f) for f in fields]
    assert all((c >= g.degree).any() for c in placed)


@pytest.mark.parametrize("part", ["stable", "score"])
def test_least_multiple_audits_the_answer_whole(monkeypatch, part):
    # each probe that topples passes its own audit and is then forged: one
    # particle moves from the first vertex that holds one to the next with
    # room, so the state stays stable, or one toppling is added at the first
    # vertex other than w that toppled.  The state the search composes at
    # the answer fails the check against x * base
    g = grid_sandpile(9)
    v, w = g.vertex_at(2, 2), g.vertex_at(5, 4)
    x = min_to_topple(g, v, w)
    real, forged = engine_mod.stabilize, []

    def forge(g_, counts):
        res = real(g_, counts)
        stable, score = res.stable.copy(), res.score.copy()
        if part == "stable":
            a = next(i for i, s in enumerate(stable) if s > 0)
            b = next(i for i, s in enumerate(stable) if i != a and s < g_.degree[i] - 1)
            stable[a] -= 1
            stable[b] += 1
        else:
            score[next(i for i, z in enumerate(score) if z > 0 and i != w)] += 1
        forged.append(dataclasses.replace(res, stable=stable, score=score))
        return forged[-1]

    monkeypatch.setattr(engine_mod, "stabilize", forge)
    before = engine_stats()
    # a moved particle changes later probes, and so where the search ends;
    # a forged score off w changes no probe and no goal
    named = r"\d+" if part == "stable" else str(x)
    with pytest.raises(InternalError, match=rf"threshold search audit failed at count {named} "):
        min_to_topple(g, v, w)
    assert forged
    # the answer's check is no stabilization audit, and it counts none
    after = engine_stats()
    assert after["identity_checks"] - before["identity_checks"] == len(forged)
    assert after["identity_failures"] == before["identity_failures"]
    # an answer composed with no stabilization passes the check
    del forged[:]
    assert flood_count(g, v, [v]) == 1
    assert engine_mod._least_multiple(g, point_config(g, v, 1), [v], "flood") == (
        1, stabilize(g, point_config(g, v, 1)))
    assert not forged


def _two_sink_joined_paths():
    """Paths 0-1-2 and 3-4, each end joined to the sink 5: two sink-deleted
    components, so a placement on one never topples the other."""
    edges = [[0, 1, 1], [1, 2, 1], [3, 4, 1]] + [[v, 5, 1] for v in (0, 2, 3, 4)]
    return graph_from_json({"n_vertices": 6, "sink": 5, "edges": edges})


@pytest.mark.parametrize("case", ["stable_alone_grid9", "never_two_components"])
def test_least_multiple_fails_a_goal_that_cannot_hold(monkeypatch, case):
    # a goal that stays false however much is placed fails once every vertex
    # the placement reaches has toppled, instead of doubling without end: the
    # flood goal misread as ``stable > 0`` on grid 9, and a goal that never
    # holds where the placement reaches only its own component
    if case == "stable_alone_grid9":
        g = grid_sandpile(9)
        v = g.vertex_at(4, 4)
        targets, mutant = g.ordinary_ball(v, 2), lambda stable, score: stable.min() > 0
    else:
        g, v, targets, mutant = _two_sink_joined_paths(), 0, [1], lambda stable, score: False
    assert flood_count(g, v, targets) >= 1
    monkeypatch.setitem(engine_mod._GOALS, "flood", mutant)
    with pytest.raises(InternalError, match=r"search goal 'flood' fails at count \d+ ") as err:
        flood_count(g, v, targets)
    # within a few doublings: "search goal 'flood' fails at count x ..."
    assert int(str(err.value).split()[6]) <= 1 << 12


def test_results_list_their_arrays_on_first_read():
    cases = [
        (grid_sandpile(3), [5, 0, 1, 2, 7, 0, 3, 1, 4]),
        (line_sandpile(3), [0, 3 << 70, 0]),
    ]
    pinned = [
        '{"stable": [2, 3, 1, 2, 1, 3, 1, 1, 1], "score": [1, 0, 0, 1, 2, 0, 1, 1, 1], '
        '"topplings_total": 7, "sink_absorbed": 8}',
        '{"stable": [1, 2, 1], "score": [252983918725159565019, 1011935674900638260077, '
        '252983918725159565019], "topplings_total": 1517903512350957390115, '
        '"sink_absorbed": 3541774862152233910268}',
    ]
    for (g, c), text in zip(cases, pinned):
        res = stabilize(g, c)
        assert vars(res)["stable"] is None  # not listed until read
        lists = [a.tolist() for a in (res._stable, res._score, res._received)]
        eager = StabilizationResult(
            lists[0], lists[1], res.sink_absorbed, res.topplings_total, lists[2])
        assert res == eager
        assert repr(res) == repr(eager)
        assert [res.stable, res.score, res.received] == lists
        assert all(type(x) is int for x in res.stable + res.score + res.received)
        assert json.dumps(res.to_json()) == json.dumps(eager.to_json()) == text


def test_replace_overrides_a_result_list():
    g = grid_sandpile(3)
    res = stabilize(g, [5, 0, 1, 2, 7, 0, 3, 1, 4])
    forged = [0] * 9
    bad = dataclasses.replace(res, stable=forged)
    assert bad.stable is forged
    assert bad._stable.tolist() == forged
    assert (bad.score, bad.received) == (res.score, res.received)
    assert bad != res
    assert json.loads(json.dumps(bad.to_json()))["stable"] == forged
    assert dataclasses.replace(res, received=[0] * 9).flooded([0]) is False


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["grid", "ell", "line"]),
    seed=st.integers(0, 2**32 - 1),
    top=st.integers(1, 5),
    drop=st.integers(0, 300),
    site=st.floats(0, 1, exclude_max=True),
)
@example(kind="grid", seed=0, top=1, drop=5, site=0.5)
@example(kind="ell", seed=1, top=1, drop=9, site=0.0)
@example(kind="line", seed=2, top=1, drop=0, site=0.0)
def test_received_is_stable_plus_degree_times_score(kind, seed, top, drop, site):
    # the balance identity read per vertex: a vertex has received a particle
    # exactly when it holds one or has toppled, the flood goal of the searches
    if kind == "grid":
        g = grid_sandpile(6)
    elif kind == "ell":
        g = _window_interior(7, 7, _ELL)
    else:
        g = line_sandpile(6)
    c = np.random.default_rng(seed).integers(0, top, size=g.n_ordinary).tolist()
    # past 2**62 on the line: the object path
    c[int(site * g.n_ordinary)] += (drop + 1) << 62 if kind == "line" else drop
    res = stabilize(g, c)
    if kind == "line":
        assert res._received.dtype == object
    triples = list(zip(res.stable, g.degree.tolist(), res.score))
    assert res.received == [s + d * z for s, d, z in triples]
    assert [r > 0 for r in res.received] == [s + z > 0 for s, _, z in triples]


def test_received_counts_placement(grid2):
    res = stabilize(grid2, point_config(grid2, 0, 1))
    assert res.received[0] == 1
    assert res.flooded([0])
    assert not res.flooded([3])


# -- audit ------------------------------------------------------------------


def _both_checks(g, c0, stable, score, absorbed):
    """The audit of the vectors as given and as object arrays, which force
    the Python-int path: both results must agree whole, and the received
    counts come back when they accept and report ``absorbed``, else None."""
    fast = engine_mod._balance_check(g, c0, stable, score)
    exact = engine_mod._balance_check(
        g, *(np.array([int(x) for x in a], dtype=object) for a in (c0, stable, score))
    )
    assert fast == exact
    return None if fast is None or fast.sink_absorbed != absorbed else fast.received


@pytest.mark.parametrize("g", [grid_sandpile(3), grid_sandpile(6), line_sandpile(5),
                               line_sandpile(12)], ids=["grid3", "grid6", "line5", "line12"])
def test_int64_audit_agrees_with_exact_audit(g):
    rng = np.random.default_rng(5)
    deg = [int(d) for d in g.degree]
    runs = []
    for _ in range(6):
        c = rng.integers(0, 3 * max(deg), size=g.n_ordinary).tolist()
        runs.append((c, stabilize(g, c)))
    v = g.n_ordinary // 2
    runs.append((point_config(g, v, 500), stabilize(g, point_config(g, v, 500))))

    for c, res in runs:
        checked = engine_mod._balance_check(g, c, res.stable, res.score)
        received, absorbed = checked._received, checked.sink_absorbed
        # small inputs take the int64 path
        assert received.dtype == np.int64
        assert received.tolist() == res.received
        assert absorbed == res.sink_absorbed
        assert _both_checks(g, c, res.stable, res.score, absorbed) == res.received

    c, res = runs[-1]
    stable, score, absorbed = res.stable, res.score, res.sink_absorbed
    bumped = lambda xs, i, d: [x + d * (j == i) for j, x in enumerate(xs)]  # noqa: E731
    assert _both_checks(g, c, bumped(stable, v, 1), score, absorbed) is None
    assert _both_checks(g, c, stable, [z + 1 for z in score], absorbed) is None
    assert _both_checks(g, c, stable, bumped(score, v, 1), absorbed) is None
    assert _both_checks(g, c, stable, score, absorbed + 1) is None
    # a negative score that balances exactly: un-topple v once from a stable state
    s0 = [d - 1 for d in deg]
    c_neg = bumped(s0, v, -deg[v])
    for u, mult in g.ordinary_neighbors(v):
        c_neg[u] += mult
    neg = bumped([0] * g.n_ordinary, v, -1)
    assert _both_checks(g, c_neg, s0, neg, -int(g.sink_mult[v])) is None
    assert _both_checks(g, c_neg, s0, [0] * g.n_ordinary, 0) is None
    # an unstable entry that balances exactly: nothing toppled
    unstable = bumped(s0, v, 1)
    assert _both_checks(g, unstable, unstable, [0] * g.n_ordinary, 0) is None
    assert _both_checks(g, s0, s0, [0] * g.n_ordinary, 0) == s0


def test_fused_int64_audit_rejects_forgeries_like_the_exact_audit():
    g = grid_sandpile(5)
    v = 12
    # a negative stable entry that balances exactly: v topples once from 3
    c, score = (np.array(point_config(g, v, k), dtype=np.int64) for k in (3, 1))
    stable = c.copy()
    stable[v] -= 4
    for u, mult in g.ordinary_neighbors(v):
        stable[u] += mult
    assert stable[v] == -1 and (score >= 0).all()
    assert _both_checks(g, c, stable, score, 0) is None

    # a stable entry near 2**63, either way round: adding it to the residual
    # may wrap, but never onto zero
    c = np.full(25, 2, dtype=np.int64)
    c[v] += 40
    res = stabilize(g, c)
    real = int(res.stable[v])
    assert _both_checks(g, c, res._stable, res._score, res.sink_absorbed) == res.received
    for forged in (2**63 - 1, 2**63 - 1 - real, -(2**63), -(2**63) + real):
        stable = res._stable.copy()
        stable[v] = forged
        assert _both_checks(g, c, stable, res._score, res.sink_absorbed) is None


def test_fused_int64_audit_checks_the_degree_of_each_vertex():
    # off lattice blocks with mixed degrees: stable == degree at one vertex
    g = SandpileGraph(
        Multigraph(5, [(0, 1, 2), (1, 2, 1), (2, 4, 5), (0, 4, 1), (1, 3, 1), (3, 4, 2)]), 4)
    assert g._block is None and g.degree.tolist() == [3, 4, 6, 3]
    zero = np.zeros(4, dtype=np.int64)
    below = np.array([2, 3, 5, 2], dtype=np.int64)
    assert _both_checks(g, below, below, zero, 0) == below.tolist()
    for v in range(4):
        at = below.copy()
        at[v] += 1
        assert _both_checks(g, at, at, zero, 0) is None


def test_fused_int64_audit_does_not_trust_a_wrapped_sink_sum():
    # a score raised on the boundary so that sum(sink_mult * score) grows by
    # exactly 2**64, inside the int64 bound: the wrapped sum still matches
    # the particles lost, but the balance does not
    g = grid_sandpile(9)
    c = np.array(point_config(g, 40, 5), dtype=np.int64)
    res = stabilize(g, c)
    corner = g.sink_mult == 2
    edge = g.sink_mult == 1
    assert corner.sum() == 4 and edge.sum() == 28
    forged = res._score.copy()
    forged[corner] += 2**58 + 700
    forged[edge] += 2**59 - 200
    assert int(forged.max()) * 2 * 4 + g.n_ordinary * int(c.max()) < 2**62
    assert sum(int(m) * int(z) for m, z in zip(g.sink_mult, forged)) == res.sink_absorbed + 2**64
    assert int(np.dot(g.sink_mult, forged)) == res.sink_absorbed
    assert _both_checks(g, c, res._stable, res._score, res.sink_absorbed) == res.received
    assert _both_checks(g, c, res._stable, forged, res.sink_absorbed) is None


def test_int64_audit_bound_edge_takes_exact_path():
    g = line_sandpile(2)

    def bound(n):
        res = stabilize(g, [n, 0])
        return max(res.score) * 2 * int(g.degree.max()) + g.n_ordinary * n

    # least drop whose audit bound reaches 2**62
    lo, hi = 1, 1 << 62
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if bound(mid) >= 1 << 62 else (mid, hi)
    assert bound(hi) >= 1 << 62 > bound(lo)
    assert hi > 1 << 58

    # the bound is what selects the dtype: each audit of the drop past it
    # (one inside stabilize, one here) ran in Python ints, none below it
    for n, dtype in ((lo, np.int64), (hi, object)):
        c = [n, 0]
        res = stabilize(g, c)
        assert sum(res.stable) + res.sink_absorbed == n
        assert res._received.dtype == dtype
        checked = engine_mod._balance_check(g, c, res.stable, res.score)
        received, absorbed = checked._received, checked.sink_absorbed
        assert received.dtype == dtype
        assert absorbed == res.sink_absorbed
        again = _both_checks(g, c, res.stable, res.score, absorbed)
        assert received.tolist() == res.received == again


# -- transience -------------------------------------------------------------


def test_tcl_single_vertex():
    g = line_sandpile(1)
    assert tcl_exact(g).value == 0
    assert tcl_single_site(g, 0).value == 4


def test_tcl_line2(line2):
    res = tcl_exact(line2)
    assert res.value == 0
    assert res.witness == []
    # exactly one transient stable state, matching the tree count
    states = [(a, b) for a in range(4) for b in range(4)]
    rec = sum(1 for s in states if is_recurrent(line2, list(s)))
    assert rec == 15
    assert spanning_tree_count(line2) == 15
    assert len(states) - rec == 1


def test_tcl_exact_witness_is_a_longest_chain(grid2):
    res = tcl_exact(grid2)
    assert res.value == len(res.witness) >= 1
    state = [0, 0, 0, 0]
    for site in res.witness:
        state[site] += 1
        state = stabilize(grid2, state).stable
        assert not is_recurrent(grid2, state)
    # maximality: every further addition lands in a recurrent state
    for site in range(4):
        bumped = list(state)
        bumped[site] += 1
        assert is_recurrent(grid2, stabilize(grid2, bumped).stable)


def test_tcl_exact_pins_its_witnesses(grid2):
    # the longest chain from each state takes the lowest site among ties
    res = tcl_exact(grid2)
    assert (res.value, res.witness) == (8, [0, 0, 0, 0, 1, 1, 1, 1])
    res = tcl_exact(line_sandpile(4))
    assert (res.value, res.witness) == (19, [0] * 19)
    res = tcl_exact(line_sandpile(6))
    assert (res.value, res.witness) == (284, [0] * 284)
    res = tcl_exact(strip_sandpile(2, 3))
    assert (res.value, res.witness) == (30, [0] * 15 + [3] * 15)


@pytest.mark.parametrize("make", [lambda: grid_sandpile(2), lambda: line_sandpile(4)],
                         ids=["grid2", "line4"])
def test_tcl_exact_stabilizes_only_transitions_that_topple(monkeypatch, make):
    # a particle added to a stable state topples only at a site it brings to
    # its degree; every other successor is the state plus that particle.  The
    # burning tests run in the oracle, so the spy sees the transitions alone
    g = make()
    want = tcl_exact(g)
    placed, real = [], engine_mod.stabilize

    def spy(g_, counts):
        placed.append(list(counts))
        return real(g_, counts)

    monkeypatch.setattr(engine_mod, "is_recurrent", oracles.naive_is_recurrent)
    monkeypatch.setattr(engine_mod, "stabilize", spy)
    res = tcl_exact(g)
    assert (res.value, res.witness) == (want.value, want.witness)
    assert placed
    degree = g.degree.tolist()
    assert all(any(c >= d for c, d in zip(counts, degree)) for counts in placed)


def test_tcl_state_limit(grid2):
    with pytest.raises(ResourceLimitError, match="state space"):
        tcl_exact(grid2, state_limit=10)
    with pytest.raises(ResourceLimitError):
        recurrent_count(grid2, state_limit=10)


def test_line_growth_doubles():
    v5 = tcl_single_site(line_sandpile(5), 0).value
    v6 = tcl_single_site(line_sandpile(6), 0).value
    assert v6 > 2 * v5


# -- large counts -----------------------------------------------------------


def test_stencil_matches_fifo_in_both_dtypes():
    # the stencil runs in int32 while total * reach < 2**31, else in int64;
    # reach is 2 on grid 3, so 10**6 at the centre runs in int32, 2**40 in int64
    g = grid_sandpile(3)
    assert 10**6 * 2 < 2**31 <= 2**40 * 2
    for drop in (10**6, 2**40):
        stencil, fifo = _kernel_outcomes(g, np.array(point_config(g, 4, drop)))
        assert stencil == fifo


def test_batch_runs_off_lattice_blocks_take_fifo(monkeypatch):
    # a path hanging off the sink: the far end topples ~10x its particles.
    # Off lattice blocks, a batch run goes to the fifo worklist.
    g = SandpileGraph(Multigraph(11, [(i, i + 1, 1) for i in range(10)]), 10)
    c = [1000] + [0] * 9
    want = engine_mod._stabilize_worklist(g, c, "fifo", None)
    assert max(want[1]) > 2000
    calls = []
    worklist = engine_mod._stabilize_worklist

    def spy(*args):
        calls.append(args[2:])
        return worklist(*args)

    monkeypatch.setattr(engine_mod, "_stabilize_worklist", spy)
    res = stabilize(g, c)
    assert calls == [("fifo", None)]
    assert (res.stable, res.score) == tuple(a.tolist() for a in want)


def test_huge_placement_is_exact(line2):
    n = 2**53
    res = stabilize(line2, [n, 0])
    assert sum(res.stable) + res.sink_absorbed == n
    assert all(0 <= x < 4 for x in res.stable)


def test_stats_move_with_stabilizations(grid2):
    before = engine_stats()
    stabilize(grid2, [0, 0, 0, 0])
    after = engine_stats()
    assert after["stabilizations"] == before["stabilizations"] + 1
    assert after["identity_checks"] == before["identity_checks"] + 1
    assert after["identity_failures"] == before["identity_failures"]


# -- lattice stencil --------------------------------------------------------


def _kernel_outcomes(g, c):
    """(stable, score) as lists from the stencil and the fifo worklist, in
    that order, for an int64 array ``c``."""
    runs = (
        engine_mod._stabilize_lattice(g, c, int(c.sum())),
        engine_mod._stabilize_worklist(g, c, "fifo", None),
    )
    assert all(a.dtype == np.int64 for run in runs for a in run)
    return [tuple(a.tolist() for a in run) for run in runs]


@settings(max_examples=80, deadline=None)
@given(
    rows=st.integers(1, 12),
    cols=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    top=st.integers(1, 12),
    site=st.floats(0, 1, exclude_max=True),
    drop=st.integers(0, 3000),
)
@example(rows=1, cols=1, seed=0, top=1, site=0.0, drop=2000)
@example(rows=1, cols=12, seed=1, top=4, site=0.5, drop=2000)
@example(rows=12, cols=1, seed=2, top=4, site=0.0, drop=2000)
@example(rows=12, cols=12, seed=3, top=12, site=0.5, drop=3000)
# odd and even cols: one pad column, or two
@example(rows=7, cols=5, seed=4, top=6, site=0.5, drop=3000)
@example(rows=6, cols=8, seed=5, top=6, site=0.3, drop=3000)
@example(rows=2, cols=3, seed=6, top=4, site=0.9, drop=500)
@example(rows=3, cols=2, seed=7, top=4, site=0.1, drop=500)
def test_lattice_stencil_matches_fifo(rows, cols, seed, top, site, drop):
    g = strip_sandpile(rows, cols)
    assert g._block is not None
    c = np.random.default_rng(seed).integers(0, top, size=g.n_ordinary)
    c[int(site * g.n_ordinary)] += drop
    stencil, fifo = _kernel_outcomes(g, c)
    assert stencil == fifo
    # a drop above what the block can hold stable reaches the sink
    if drop >= 4 * g.n_ordinary:
        assert sum(stencil[0]) < int(c.sum())


@settings(max_examples=60, deadline=None)
@given(
    shape=st.sampled_from(
        [(1, 9), (1, 10), (9, 1), (2, 9), (2, 10), (11, 11), (12, 12), (29, 3), (30, 4)]
    ),
    seed=st.integers(0, 2**32 - 1),
    full=st.booleans(),
    cells=st.tuples(st.floats(0, 1, exclude_max=True), st.floats(0, 1, exclude_max=True)),
    drops=st.tuples(st.integers(0, 400), st.integers(0, 400)),
)
# a few particles in the first or last row of a full tall strip: the
# avalanche crosses a row every half-step, so it outgrows the rows of each
# block of half-steps, 8 past the rows that fired, until it reaches the far row
@example(shape=(30, 4), seed=0, full=True, cells=(0.5, 0.0), drops=(4, 0))
@example(shape=(30, 4), seed=0, full=True, cells=(0.0, 0.5), drops=(0, 4))
@example(shape=(29, 3), seed=1, full=False, cells=(0.0, 0.9), drops=(400, 400))
@example(shape=(1, 10), seed=2, full=True, cells=(0.0, 0.9), drops=(4, 0))
def test_stencil_matches_fifo_from_the_first_and_last_rows(shape, seed, full, cells, drops):
    rows, cols = shape
    g = strip_sandpile(rows, cols)
    if full:
        c = np.full(g.n_ordinary, 3)
    else:
        c = np.random.default_rng(seed).integers(0, 4, size=g.n_ordinary)
    c[int(cells[0] * cols)] += drops[0]
    c[(rows - 1) * cols + int(cells[1] * cols)] += drops[1]
    stencil, fifo = _kernel_outcomes(g, c)
    assert stencil == fifo
    # a grain on the maximal stable configuration topples every vertex
    if full and max(drops) > 0:
        assert min(stencil[1]) >= 1


def _path_counts(g, c):
    keys = ("lattice_stencil", "worklist")
    before = engine_stats()
    res = stabilize(g, c)
    after = engine_stats()
    assert after["identity_checks"] - before["identity_checks"] == 1
    assert sum(after[k] - before[k] for k in keys) == 1
    stable, score = engine_mod._stabilize_worklist(g, c, "fifo", None)
    assert (res.stable, res.score) == (stable.tolist(), score.tolist())
    return {k: after[k] - before[k] for k in keys}


def _window_interior(rows, cols, cells):
    window = lattice_window(rows, cols)
    return build_sandpile(window, [x * cols + y for x, y in cells])


def test_lattice_blocks_take_the_stencil():
    full = [(x, y) for x in range(1, 6) for y in range(1, 8)]
    graphs = [
        grid_sandpile(5),
        line_sandpile(7),
        strip_sandpile(3, 6),
        strip_sandpile(6, 1),
        graph_from_json(graph_to_json(grid_sandpile(6))),
        _window_interior(7, 9, full),
    ]
    for g in graphs:
        c = [9] * g.n_ordinary
        assert _path_counts(g, c) == {"lattice_stencil": 1, "worklist": 0}
        assert _path_counts(g, [1] * g.n_ordinary)["lattice_stencil"] == 1


def test_the_engine_keeps_a_layout_only_for_graphs_that_ran_the_stencil(tmp_path):
    # a block loaded from JSON gets no layout from loading or from a solve;
    # its first stencil run builds one, and the layout goes with the graph
    save_graph(grid_sandpile(6), tmp_path / "grid6.json")
    g = load_graph(tmp_path / "grid6.json")
    solve_potential(g, 0)
    layouts = engine_mod._LATTICES
    assert g._block == (6, 6) and g not in layouts
    gc.collect()
    before = len(layouts)
    stabilize(g, [9] * 36)
    assert g in layouts and len(layouts) == before + 1
    alive = weakref.ref(g)
    del g
    gc.collect()
    assert alive() is None and len(layouts) == before


def _swapped_grid5(x, y):
    """Grid 5 with the lattice edges (x,y)-(x,y+1) and (x+1,y)-(x+1,y+1)
    swapped for the diagonals (x,y)-(x+1,y+1) and (x,y+1)-(x+1,y): every
    degree stays 4."""
    v = 5 * x + y
    doc = graph_to_json(grid_sandpile(5))
    doc["edges"] = [e for e in doc["edges"] if e[:2] not in ([v, v + 1], [v + 5, v + 6])]
    doc["edges"] += [[v, v + 6, 1], [v + 1, v + 5, 1]]
    return graph_from_json(doc)


def test_near_lattices_take_the_worklist():
    # an L-shaped window: every degree is 4, but it is no block
    ell = [(x, y) for x in range(1, 5) for y in range(1, 5) if x > 2 or y < 3]
    for g in (_window_interior(6, 6, ell), _swapped_grid5(0, 0), _swapped_grid5(2, 2)):
        assert g._block is None
        assert (g.degree == 4).all()
        c = [9] * g.n_ordinary
        assert _path_counts(g, c) == {"lattice_stencil": 0, "worklist": 1}


def test_worklist_policies_and_large_totals_count_as_worklist(line2):
    g = grid_sandpile(4)
    assert _path_counts(g, [0] * 16)["lattice_stencil"] == 1
    before = engine_stats()["worklist"]
    for policy in ("fifo", "lifo", "random"):
        stabilize(g, [9] * 16, policy=policy, seed=1)
    assert engine_stats()["worklist"] == before + 3
    assert _path_counts(line2, [2**62, 0])["worklist"] == 1


@pytest.mark.parametrize(
    "g, reach", [(grid_sandpile(3), 2), (line_sandpile(2), 1)], ids=["grid3", "line2"]
)
def test_batch_takes_the_stencil_exactly_below_the_odometer_bound(g, reach):
    # the stencil serves a lattice block while total * reach < 2**62, with
    # reach = (min(rows, cols) + 1) // 2; the fifo worklist past that
    site = g.n_ordinary // 2
    below = 2**62 // reach - 1
    stencil = {"lattice_stencil": 1, "worklist": 0}
    assert _path_counts(g, point_config(g, site, below)) == stencil
    assert _path_counts(g, point_config(g, site, below + 1)) == {
        "lattice_stencil": 0, "worklist": 1}


@pytest.mark.parametrize("rows, cols", [(40, 1), (30, 2), (17, 17)])
def test_stencil_keeps_up_with_a_wave_of_one_row_a_half_step(rows, cols):
    # one particle on the maximal stable configuration sets off a wave that
    # crosses a row every half-step, the fastest that firings can spread
    g = strip_sandpile(rows, cols)
    for site in (0, g.n_ordinary // 2, g.n_ordinary - 1):
        c = np.full(g.n_ordinary, 3)
        c[site] += 1
        stencil, fifo = _kernel_outcomes(g, c)
        assert stencil == fifo
        assert min(stencil[1]) >= 1


@pytest.mark.parametrize("total", [2**31 - 1, 2**31], ids=["int32", "int64"])
def test_stencil_at_the_int32_bound_matches_fifo(total):
    # reach is 1 on a 1 x 5 strip, so total * reach = total: the stencil
    # runs in int32 below 2**31 and in int64 from there; both return int64
    g = strip_sandpile(1, 5)
    c = np.array([0, 1, total - 3, 2, 0])
    stencil, fifo = _kernel_outcomes(g, c)
    assert stencil == fifo
    assert sum(stencil[0]) < total


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 10),
    cols=st.integers(1, 10),
    seed=st.integers(0, 2**32 - 1),
    site=st.floats(0, 1, exclude_max=True),
    bits=st.integers(0, 62),
)
@example(rows=9, cols=9, seed=0, site=0.5, bits=60)
@example(rows=1, cols=10, seed=1, site=0.0, bits=62)
@example(rows=3, cols=7, seed=2, site=0.5, bits=61)
def test_stencil_scores_stay_within_the_odometer_bound(rows, cols, seed, site, bits):
    g = strip_sandpile(rows, cols)
    reach = (min(rows, cols) + 1) // 2
    rng = np.random.default_rng(seed)
    c = rng.integers(0, 8, size=g.n_ordinary)
    room = (2**62 - 1) // reach - int(c.sum())
    c[int(site * g.n_ordinary)] += min(room, int(rng.integers(2**bits)))
    total = int(c.sum())
    assert total * reach < 2**62
    stencil, fifo = _kernel_outcomes(g, c)
    assert stencil == fifo
    assert max(stencil[1]) <= total * reach
