import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cycle, directed_path, double_cycle, out_star, random_digraph
from maxleaf import (
    ContractError,
    Digraph,
    PathCover,
    PathDecomposition,
    min_frontier_ordering,
    ordering_to_path_decomposition,
    underlying_undirected,
    vertex_separation,
)
from maxleaf.digraph import UndirectedGraph
from oracles import (
    decomposition_check_reference,
    ordering_to_path_decomposition_reference,
    pathwidth_bruteforce,
    vs_exhaustive,
)


def test_path_cover_construction_and_validation():
    d = directed_path(4)
    cover = PathCover([[0, 1], [2, 3]])
    assert cover.where[2] == (1, 0)
    cover.validate(d)
    with pytest.raises(ContractError):
        PathCover([[0, 1], [1, 2]])  # overlap
    with pytest.raises(ContractError):
        PathCover([[0], []])
    with pytest.raises(ContractError):
        PathCover([[0, 2], [1, 3]]).validate(d)  # (0,2) is no arc
    with pytest.raises(ContractError):
        PathCover([[0, 1]]).validate(d)  # 2, 3 uncovered


def test_decomposition_width_and_check():
    g = UndirectedGraph(4, [(0, 1), (1, 2), (2, 3)])
    pd = PathDecomposition([[0, 1], [1, 2], [2, 3]])
    assert pd.width == 1
    pd.check(g)
    with pytest.raises(ContractError):
        PathDecomposition([[0, 1], [2, 3]]).check(g)  # edge (1,2) uncovered
    with pytest.raises(ContractError):
        PathDecomposition([[0, 1], [1, 2], [0, 2, 3]]).check(g)  # 0 not consecutive
    with pytest.raises(ContractError):
        PathDecomposition([[0, 1], [1, 2]]).check(g)  # 3 in no bag
    assert PathDecomposition([]).width == -1


def test_bags_are_deduplicated_and_sorted():
    pd = PathDecomposition([[2, 0, 2], [1]])
    assert pd.bags == ((0, 2), (1,))


def test_cycle_orderings():
    g = underlying_undirected(cycle(4))
    assert vertex_separation(g, [0, 1, 2, 3]) == 2
    pd = ordering_to_path_decomposition(g, [0, 1, 2, 3])
    assert pd.width == 2
    pd.check(g)
    # path graph: natural order has separation 1
    gp = underlying_undirected(directed_path(5))
    assert vertex_separation(gp, list(range(5))) == 1
    ordering_to_path_decomposition(gp, list(range(5))).check(gp)


def test_ordering_must_be_a_permutation():
    g = underlying_undirected(cycle(3))
    with pytest.raises(ContractError):
        vertex_separation(g, [0, 1])
    with pytest.raises(ContractError):
        vertex_separation(g, [0, 1, 1])


def test_width_equals_separation_on_fuzzed_graphs():
    for seed in range(60):
        d = random_digraph(seed, 8, 0.3)
        g = underlying_undirected(d)
        order = list(range(8))
        if seed % 2:
            order.reverse()
        pd = ordering_to_path_decomposition(g, order)
        pd.check(g)
        assert pd.width == vertex_separation(g, order)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_width_equals_separation_property(data):
    n = data.draw(st.integers(1, 7))
    edges = data.draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda t: t[0] != t[1]
            ),
            max_size=12,
        )
    )
    order = data.draw(st.permutations(range(n)))
    g = UndirectedGraph(n, edges)
    pd = ordering_to_path_decomposition(g, order)
    pd.check(g)
    assert pd.width == vertex_separation(g, order)


def test_any_ordering_bounds_pathwidth_from_above():
    for seed in range(25):
        g = underlying_undirected(random_digraph(seed, 6, 0.35))
        pw = pathwidth_bruteforce(g)
        best = min(
            vertex_separation(g, list(perm))
            for perm in itertools.permutations(range(6))
        )
        assert best == pw
        assert best == vs_exhaustive(g)


def _random_graph(rng: random.Random, n: int, p: float) -> UndirectedGraph:
    return UndirectedGraph(
        n, [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
    )


def _greedy_width(g: UndirectedGraph) -> int:
    """Width of the greedy decomposition, after checking the ordering and its bags."""
    order = min_frontier_ordering(g)
    assert sorted(order) == list(range(g.n))
    pd = ordering_to_path_decomposition(g, order)
    pd.check(g)
    assert pd.width == vertex_separation(g, order)
    return pd.width


def _relabeled(d: Digraph, seed: int) -> Digraph:
    p = list(range(d.n))
    random.Random(seed).shuffle(p)
    return Digraph(d.n, [(p[a], p[b]) for a, b in d.arcs])


def test_greedy_ordering_is_a_valid_ordering_never_below_pathwidth():
    rng = random.Random(5)
    for i in range(200):
        g = _random_graph(rng, rng.randint(1, 10), (0.15, 0.3, 0.5, 0.8)[i % 4])
        assert _greedy_width(g) >= pathwidth_bruteforce(g)
    assert min_frontier_ordering(UndirectedGraph(0, [])) == []


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_greedy_ordering_property(data):
    n = data.draw(st.integers(1, 9))
    edges = data.draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda t: t[0] != t[1]
            ),
            max_size=20,
        )
    )
    g = UndirectedGraph(n, edges)
    assert _greedy_width(g) >= pathwidth_bruteforce(g)


def test_greedy_ordering_is_optimal_on_cycles_paths_and_stars():
    for n in range(3, 201):
        assert _greedy_width(underlying_undirected(_relabeled(cycle(n), n))) == 2
        assert _greedy_width(underlying_undirected(_relabeled(double_cycle(n), n))) == 2
        assert _greedy_width(underlying_undirected(_relabeled(directed_path(n), n))) <= 2
        assert _greedy_width(underlying_undirected(_relabeled(out_star(n), n))) == 1


def test_greedy_ordering_scales_to_a_long_cycle():
    n = 10**5
    p = list(range(n))
    random.Random(1).shuffle(p)
    g = UndirectedGraph(n, [(p[i], p[(i + 1) % n]) for i in range(n)])
    assert vertex_separation(g, min_frontier_ordering(g)) == 2


def test_ordering_bags_match_reference_on_seeded_graphs():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 25)
        g = _random_graph(rng, n, rng.choice((0.05, 0.15, 0.4)))
        order = list(range(n))
        rng.shuffle(order)
        got = ordering_to_path_decomposition(g, order)
        assert got.bags == ordering_to_path_decomposition_reference(g, order).bags


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ordering_bags_match_reference_property(data):
    n = data.draw(st.integers(1, 9))
    edges = data.draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda t: t[0] != t[1]
            ),
            max_size=20,
        )
    )
    order = data.draw(st.permutations(range(n)))
    g = UndirectedGraph(n, edges)
    got = ordering_to_path_decomposition(g, order)
    assert got.bags == ordering_to_path_decomposition_reference(g, order).bags


def _check_message(check, pd: PathDecomposition, g: UndirectedGraph) -> str | None:
    try:
        check(pd, g)
    except ContractError as exc:
        return str(exc)
    return None


def _corrupt(rng: random.Random, bags: list[list[int]], n: int) -> list[list[int]]:
    """Apply one to three random defects: a vertex dropped from bags, an
    unknown vertex added, a vertex copied into a far bag, a bag removed."""
    bags = [list(b) for b in bags]
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(4)
        j = rng.randrange(len(bags))
        if kind == 0 and bags[j]:
            v = rng.choice(bags[j])
            for bag in bags[j : j + rng.randint(1, 3)]:
                if v in bag:
                    bag.remove(v)
        elif kind == 1:
            bags[j].append(rng.choice((-1, n, n + 3)))
        elif kind == 2:
            bags[j].append(rng.randrange(n))
        elif kind == 3 and len(bags) > 1:
            del bags[j]
    return bags


def test_check_messages_match_reference_on_corrupted_bags():
    rng = random.Random(5)
    failures = 0
    seen = set()
    kinds = ("unknown vertex", "not consecutive", "in no bag", "no common bag")
    for _ in range(300):
        n = rng.randint(2, 16)
        g = _random_graph(rng, n, rng.choice((0.1, 0.3, 0.6)))
        order = list(range(n))
        rng.shuffle(order)
        bags = [list(b) for b in ordering_to_path_decomposition(g, order).bags]
        pd = PathDecomposition(_corrupt(rng, bags, n))
        got = _check_message(PathDecomposition.check, pd, g)
        assert got == _check_message(decomposition_check_reference, pd, g)
        failures += got is not None
        seen.update(kind for kind in kinds if kind in (got or ""))
    assert failures > 200
    assert seen == set(kinds)
    pd = PathDecomposition([[0, 1], [2, 9], [0, 3]])
    msg = _check_message(PathDecomposition.check, pd, UndirectedGraph(5, [(0, 2), (1, 3)]))
    assert msg == _check_message(
        decomposition_check_reference, pd, UndirectedGraph(5, [(0, 2), (1, 3)])
    )
    assert msg == (
        "bag 1 contains unknown vertex 9; bags containing 0 are not consecutive: [0, 2]; "
        "vertex 4 is in no bag; edge (0,2) has no common bag; edge (1,3) has no common bag"
    )
