import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sandlab import (
    Multigraph,
    PreconditionError,
    ResourceLimitError,
    SandpileGraph,
    UniformThreshold,
    engine_stats,
    flood_count,
    grid_sandpile,
    is_recurrent,
    line_sandpile,
    max_stable,
    min_to_topple,
    min_to_topple_uniform,
    point_config,
    recurrent_count,
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


def _topples(w):
    return lambda res: res.score[w] >= 1


def _floods(targets):
    return lambda res: all(res.received[t] > 0 for t in targets)


def _all_topple(res):
    return min(res.score) >= 1


@pytest.mark.parametrize("family, n, placement, done, start", [
    ("grid", 2, {3: 1}, _topples(0), 4),
    ("grid", 3, {4: 1}, _floods(range(9)), 1),
    ("grid", 3, {0: 1, 1: 1, 3: 1}, _all_topple, 1),
    ("grid", 4, {5: 2, 10: 1}, _topples(15), 4),
    ("grid", 4, {0: 3}, _floods([5, 15]), 1),
    ("line", 4, {0: 1}, _all_topple, 3),
    ("line", 5, {1: 1, 2: 1}, _floods([4]), 1),
    ("line", 5, {2: 2}, _topples(0), 64),
])
def test_least_multiple_returns_its_stabilization(family, n, placement, done, start):
    g = grid_sandpile(n) if family == "grid" else line_sandpile(n)
    base = [placement.get(v, 0) for v in range(g.n_ordinary)]
    x, res = engine_mod._least_multiple(g, base, done, start)
    fresh = stabilize(g, [x * c for c in base])
    assert res.stable == fresh.stable
    assert res.score == fresh.score
    assert res.received == fresh.received
    assert res.sink_absorbed == fresh.sink_absorbed
    assert done(res)
    assert not done(stabilize(g, [(x - 1) * c for c in base]))
    assert x == oracles.brute_least_multiple(g, base, done)


def test_received_counts_placement(grid2):
    res = stabilize(grid2, point_config(grid2, 0, 1))
    assert res.received[0] == 1
    assert res.flooded([0])
    assert not res.flooded([3])


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


def test_bigint_path_matches_int64():
    # the exact-integer path for large totals is the fifo worklist
    g = grid_sandpile(3)
    c = [10**6 if v == 4 else 0 for v in range(9)]
    fast = engine_mod._stabilize_batch_int64(g, c)
    slow = engine_mod._stabilize_worklist(g, c, "fifo", None)
    assert fast == slow


def test_int64_overflow_fallback_uses_fifo_worklist(monkeypatch):
    # a path hanging off the sink: the far end topples ~10x its particles
    g = SandpileGraph(Multigraph(11, [(i, i + 1, 1) for i in range(10)]), 10)
    c = [1000] + [0] * 9
    want = engine_mod._stabilize_batch_int64(g, c)
    assert max(want[1]) > 2000
    calls = []
    worklist = engine_mod._stabilize_worklist

    def spy(*args):
        calls.append(args[2:])
        return worklist(*args)

    monkeypatch.setattr(engine_mod, "_INT64_SAFE_TOTAL", 2000)
    monkeypatch.setattr(engine_mod, "_stabilize_worklist", spy)
    res = stabilize(g, c)
    assert calls == [("fifo", None)]
    assert (res.stable, res.score) == want


def test_huge_placement_is_exact(line2):
    n = 2**53  # beyond the int64-safe envelope, forces exact integers
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
