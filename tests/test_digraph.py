import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cycle, directed_path, double_cycle, random_digraph
from maxleaf import (
    Digraph,
    GenSpec,
    ParseError,
    UndirectedGraph,
    generate,
    has_out_branching,
    in_L_exact,
    in_L_sufficient,
    parse_digraph,
    strongly_connected_components,
    underlying_undirected,
    write_digraph,
)
from maxleaf.digraph import (
    Condensation,
    _source_root,
    _tarjan,
    induced_subdigraph,
    is_oriented,
    min_in_degree,
    reachable_set,
    source_strong_components,
)
from oracles import all_digraphs, scc_partition_by_closure, spanning_leaf_maximum


def test_basic_construction():
    d = Digraph(3, [(0, 1), (1, 2), (0, 1)])
    assert d.n == 3
    assert d.m == 2  # duplicate dropped
    assert d.out_neighbors(0) == (1,)
    assert d.in_neighbors(2) == (1,)
    assert d.out_degree(0) == 1
    assert d.in_degree(1) == 1


def test_construction_rejects_bad_arcs():
    with pytest.raises(ValueError):
        Digraph(2, [(0, 0)])
    with pytest.raises(ValueError):
        Digraph(2, [(0, 2)])
    with pytest.raises(ValueError):
        Digraph(-1, [])
    assert Digraph(0, []).n == 0


def test_parse_round_trip():
    text = "p dig 4 3\na 1 2\na 2 3\na 3 4\n"
    d = parse_digraph(text)
    assert d.n == 4
    assert d.arcs == {(0, 1), (1, 2), (2, 3)}
    assert parse_digraph(write_digraph(d)) == d


def test_parse_accepts_comments_rejects_blank_lines():
    d = parse_digraph("c hello\np dig 2 1\nc mid\na 1 2\n")
    assert d.arcs == {(0, 1)}
    with pytest.raises(ParseError) as exc:
        parse_digraph("p dig 2 1\n\na 1 2\n")
    assert "blank" in str(exc.value)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse_digraph("p dig 2 1\na 1 3\n")
    assert "line 2" in str(exc.value)
    with pytest.raises(ParseError):
        parse_digraph("a 1 2\n")  # arc before header
    with pytest.raises(ParseError):
        parse_digraph("p dig 2 2\na 1 2\n")  # arc count mismatch
    with pytest.raises(ParseError):
        parse_digraph("p dig 2 1\na 1 1\n")  # self-loop
    with pytest.raises(ParseError):
        parse_digraph("p dig -1 0\n")


def test_parse_warns_on_duplicate_arc():
    with pytest.warns(UserWarning):
        d = parse_digraph("p dig 2 2\na 1 2\na 1 2\n")
    assert d.m == 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_scc_matches_closure_oracle(n):
    for d in all_digraphs(n):
        comps = strongly_connected_components(d)
        got = {frozenset(c) for c in comps.components}
        assert got == scc_partition_by_closure(d)


def test_scc_on_fuzzed_digraphs():
    for seed in range(50):
        d = random_digraph(seed, 8, 0.25)
        comps = strongly_connected_components(d)
        assert {frozenset(c) for c in comps.components} == scc_partition_by_closure(d)
        # condensation arcs never point within a component
        for a, b in comps.dag_arcs:
            assert a != b


def test_source_components_have_no_incoming_dag_arc():
    for seed in range(30):
        d = random_digraph(seed, 7, 0.3)
        comps = strongly_connected_components(d)
        sources = source_strong_components(comps)
        heads = {b for _, b in comps.dag_arcs}
        assert set(sources) == set(range(len(comps.components))) - heads


def _canonical_condensation(d):
    """The Condensation built from the closure partition: components
    sorted inside and ordered by smallest member."""
    comps = sorted((tuple(sorted(c)) for c in scc_partition_by_closure(d)), key=lambda c: c[0])
    comp_of = [0] * d.n
    for i, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = i
    dag = frozenset((comp_of[u], comp_of[v]) for u, v in d.arcs if comp_of[u] != comp_of[v])
    return Condensation(tuple(comps), dag, tuple(comp_of))


def _relabeled(d, seed):
    perm = list(range(d.n))
    random.Random(seed).shuffle(perm)
    return Digraph(d.n, [(perm[u], perm[v]) for u, v in d.arcs])


def test_condensation_matches_the_closure_oracle_in_full():
    # the strong shortcut and Tarjan's algorithm must both give the
    # canonical value, not only the same partition
    pool = list(all_digraphs(4))
    for seed, n in enumerate((2, 3, 7, 30)):
        for d in (cycle(n), double_cycle(n)):
            pool += [d, _relabeled(d, seed)]
    for n in (4, 10, 25):
        pool += [generate(GenSpec("strong-random", n=n, extra=5, seed=s)) for s in (0, 1)]
    for d in pool:
        assert strongly_connected_components(d) == _canonical_condensation(d), d.arcs
        assert _tarjan(d) == _canonical_condensation(d), d.arcs


def _tarjan_root(d):
    """Smallest vertex of Tarjan's unique source component, or None."""
    comps = _tarjan(d)
    sources = source_strong_components(comps)
    return comps.components[sources[0]][0] if len(sources) == 1 else None


def test_source_root_matches_tarjan():
    pool = list(all_digraphs(4))
    assert len(pool) == 4096
    pool += [Digraph(1, []), Digraph(2, [])]
    pool += [_relabeled(directed_path(n), seed) for seed, n in enumerate((2, 5, 12, 40))]
    for n in range(2, 13):
        pool += [random_digraph(seed, n, p) for seed in range(40) for p in (0.1, 0.2, 0.35)]
    several_sources = 0
    for d in pool:
        assert _source_root(d) == _tarjan_root(d), d.arcs
        several_sources += len(source_strong_components(_tarjan(d))) >= 2
    assert several_sources >= 100
    assert _source_root(Digraph(1, [])) == 0
    assert _source_root(Digraph(0, [])) is None
    p = list(range(12))
    random.Random(5).shuffle(p)
    assert _source_root(Digraph(12, [(p[i], p[i + 1]) for i in range(11)])) == p[0]


def test_has_out_branching_matches_oracle_n3():
    for d in all_digraphs(3):
        assert has_out_branching(d) == (spanning_leaf_maximum(d) > 0)


def test_reachable_and_induced():
    d = Digraph(5, [(0, 1), (1, 2), (3, 4)])
    assert reachable_set(d, 0) == {0, 1, 2}
    sub, order = induced_subdigraph(d, {0, 1, 2})
    assert sub.n == 3 and order == (0, 1, 2)
    sub2, order2 = induced_subdigraph(d, {4, 3})
    assert order2 == (3, 4)
    assert sub2.arcs == {(0, 1)}


def test_underlying_undirected_ignores_orientation():
    d = Digraph(3, [(0, 1), (1, 0), (1, 2)])
    g = underlying_undirected(d)
    assert g.edges == {(0, 1), (1, 2)}
    reversed_d = Digraph(d.n, [(v, u) for u, v in d.arcs])
    assert underlying_undirected(reversed_d).edges == g.edges


def test_degree_and_orientation_helpers():
    assert min_in_degree(cycle(4)) == 1
    assert is_oriented(cycle(4))
    assert not is_oriented(double_cycle(4))
    assert min_in_degree(double_cycle(4)) == 2


def test_in_L_sufficient_examples():
    # strong digraphs qualify through the trivial condensation
    assert in_L_sufficient(cycle(5))
    assert in_L_sufficient(double_cycle(4))
    # two strong parts joined by a single arc: 1 covers only one vertex of
    # the second cycle, so the in-neighbor condition fails
    arcs = [(0, 1), (1, 0), (2, 3), (3, 2), (1, 2)]
    assert not in_L_sufficient(Digraph(4, arcs))
    # same shape but every second-part vertex has an in-arc from the first
    arcs += [(0, 3)]
    assert in_L_sufficient(Digraph(4, arcs))


def test_in_L_sufficient_implies_exact():
    count = 0
    for d in all_digraphs(3):
        if has_out_branching(d) and in_L_sufficient(d):
            count += 1
            assert in_L_exact(d)
    assert count > 0


def test_in_L_exact_strict_superset():
    # a 2-cycle fed by one arc: the sufficient condition fails (vertex 2
    # gets nothing from component {0}) but every out-tree is a path, so
    # both leaf maxima are 1 and the instance is in the family anyway
    p = Digraph(3, [(0, 1), (1, 2), (2, 1)])
    assert not in_L_sufficient(p)
    assert in_L_exact(p)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_scc_invariant_under_relabeling(data):
    n = data.draw(st.integers(2, 6))
    arcs = data.draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda t: t[0] != t[1]
            ),
            max_size=14,
        )
    )
    perm = data.draw(st.permutations(range(n)))
    d = Digraph(n, arcs)
    relabeled = Digraph(n, [(perm[a], perm[b]) for a, b in arcs])
    orig = {frozenset(perm[v] for v in c) for c in strongly_connected_components(d).components}
    new = {frozenset(c) for c in strongly_connected_components(relabeled).components}
    assert orig == new
    assert has_out_branching(d) == has_out_branching(relabeled)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_neighbor_tuples_are_sorted_and_match_the_arcs(data):
    n = data.draw(st.integers(1, 8))
    pairs = data.draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda t: t[0] != t[1]
            ),
            max_size=30,
        )
    )
    d = Digraph(n, pairs)
    g = UndirectedGraph(n, pairs)
    for v in range(n):
        for vs in (d.out_neighbors(v), d.in_neighbors(v), g.neighbors(v)):
            assert list(vs) == sorted(vs)
    assert {(u, v) for u in range(n) for v in d.out_neighbors(u)} == d.arcs
    assert {(u, v) for v in range(n) for u in d.in_neighbors(v)} == d.arcs
    assert {(a, b) for a in range(n) for b in g.neighbors(a) if a < b} == g.edges
    assert all(a in g.neighbors(b) for a, b in g.edges)
