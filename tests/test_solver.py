import random
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maxleaf.solver
from conftest import cycle, double_cycle, directed_path, out_star, random_digraph
from maxleaf import (
    ContractError,
    Digraph,
    DpConfig,
    GenSpec,
    InvariantError,
    OutTree,
    OverBudgetError,
    SolveResult,
    branch_and_bound,
    brute_force_out_branching,
    brute_force_out_tree,
    decompose,
    dp_pathwidth,
    generate,
    ordering_to_path_decomposition,
    solve_dmlob,
    solve_dmlot,
    strongly_connected_components,
    underlying_undirected,
    validate_out_tree,
)
from maxleaf.digraph import induced_subdigraph, reachable_set, source_strong_components
from oracles import (
    all_digraphs,
    branch_and_bound_reference,
    branch_and_bound_regions_reference,
    dp_pathwidth_reference,
    dp_pathwidth_regions_reference,
    spanning_leaf_maximum,
    subtree_leaf_maximum,
)


def _identity_pd(d):
    return ordering_to_path_decomposition(underlying_undirected(d), list(range(d.n)))


# ------------------------------------------------------- SolveResult


def test_solve_result_contract():
    t = OutTree(0, {1: 0, 2: 0}, 3)
    ok = SolveResult("dmlob", 2, True, 2, True, "dp", t)
    assert ok.witness is t
    with pytest.raises(InvariantError):
        SolveResult("dmlob", 2, True, 2, True, "dp")  # yes without witness
    with pytest.raises(InvariantError):
        SolveResult("dmlob", 3, True, 3, True, "dp", t)  # witness too small
    with pytest.raises(InvariantError):
        SolveResult("dmlob", 2, True, 1, True, "dp", t)  # value mismatch
    with pytest.raises(InvariantError):
        SolveResult("dmlob", 2, False, 2, False, "dp")  # no with value >= k


def test_dp_config_validation():
    with pytest.raises(ContractError):
        DpConfig(mode="both", leaf_cap=2)
    with pytest.raises(ContractError):
        DpConfig(mode="spanning", leaf_cap=0)
    with pytest.raises(ContractError):
        DpConfig(mode="spanning", leaf_cap=2, table_budget=0)


# -------------------------------------------------- branch and bound


def test_bnb_matches_oracle_exhaustively_n3():
    for d in all_digraphs(3):
        ls = spanning_leaf_maximum(d)
        l = subtree_leaf_maximum(d)
        for k in (1, 2, 3):
            rs = branch_and_bound(d, k, "spanning")
            assert rs.answer == (ls >= k), (d.arcs, k)
            if rs.answer:
                assert validate_out_tree(d, rs.witness).ok
                assert rs.witness.is_spanning()
            else:
                assert rs.value == ls
            rt = branch_and_bound(d, k, "subtree")
            assert rt.answer == (l >= k)
            if rt.answer:
                assert validate_out_tree(d, rt.witness).ok


def test_bnb_matches_oracle_sampled_n4():
    digraphs = list(all_digraphs(4))
    for i in range(0, len(digraphs), 331):
        d = digraphs[i]
        ls = spanning_leaf_maximum(d)
        l = subtree_leaf_maximum(d)
        for k in (1, 2, 3, 4):
            assert branch_and_bound(d, k, "spanning").answer == (ls >= k)
            assert branch_and_bound(d, k, "subtree").answer == (l >= k)


def test_bnb_examples():
    r = branch_and_bound(out_star(20), 19, "spanning")
    assert r.answer is True and r.witness.leaf_count == 19
    r2 = branch_and_bound(cycle(20), 2, "spanning")
    assert r2.answer is False and r2.value == 1
    r3 = branch_and_bound(Digraph(4, [(0, 1), (2, 3)]), 1, "spanning")
    assert r3.answer is False and r3.value == 0
    r4 = branch_and_bound(Digraph(4, [(0, 1), (2, 3)]), 1, "subtree")
    assert r4.answer is True


def test_bnb_budget_and_unknown():
    d = double_cycle(8)
    with pytest.raises(OverBudgetError):
        branch_and_bound(d, 3, "spanning", node_budget=20)
    # a generous budget changes nothing
    r2 = branch_and_bound(d, 3, "spanning", node_budget=10**6)
    assert r2.answer is False and r2.value == 2


def test_bnb_subtree_budget_applies_to_each_region():
    # two disjoint double cycles: two regions, each the same digraph
    half = double_cycle(6)
    d = Digraph(12, list(half.arcs) + [(u + 6, v + 6) for u, v in half.arcs])

    def finishes(b):
        try:
            branch_and_bound(half, 3, "spanning", node_budget=b)
        except OverBudgetError:
            return False
        return True

    nodes = next(b for b in range(1, 10_000) if finishes(b))
    r = branch_and_bound(d, 3, "subtree", node_budget=nodes)
    assert (r.answer, r.value) == (False, 2)
    with pytest.raises(OverBudgetError):
        branch_and_bound(d, 3, "subtree", node_budget=nodes - 1)


def test_bnb_leaves_the_recursion_limit_alone():
    # the search depth is n on a cycle; oracles.branch_and_bound_reference
    # raises the limit, so the test pins it first
    saved = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(1000)
        r = branch_and_bound(cycle(1200), 2, "spanning")
        assert (r.answer, r.value) == (False, 1)
        assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(saved)


def test_bnb_rejects_bad_arguments():
    with pytest.raises(ContractError):
        branch_and_bound(cycle(3), 2, "weird")
    with pytest.raises(ContractError):
        branch_and_bound(cycle(3), 0, "spanning")


# ------------------------- branch and bound against its loose-bound form


def _assert_bnb_matches_reference(d, k, mode):
    ref, nodes = branch_and_bound_reference(d, k, mode)
    r = branch_and_bound(d, k, mode)
    assert (r.answer, r.value) == (ref.answer, ref.value), (d.arcs, k, mode)
    if mode == "subtree":
        # one spanning search per region: pin the witness and the node
        # budget to the spanning reference run on each region
        ref, nodes = branch_and_bound_regions_reference(d, k)
        assert (r.answer, r.value) == (ref.answer, ref.value), (d.arcs, k, mode)
    if ref.witness is None:
        assert r.witness is None
    else:
        assert (r.witness.root, r.witness.parent) == (ref.witness.root, ref.witness.parent)
    # the packing bound visits no more nodes than the loose one, per search
    assert branch_and_bound(d, k, mode, node_budget=nodes).value == r.value


def test_bnb_matches_reference_on_all_four_vertex_digraphs():
    for d in all_digraphs(4):
        for k in (1, 2, 3, 4):
            for mode in ("spanning", "subtree"):
                _assert_bnb_matches_reference(d, k, mode)


def test_bnb_matches_reference_on_seeded_digraphs():
    rng = random.Random(7)
    for n in range(5, 11):
        for _ in range(12):
            p = rng.uniform(0.15, 0.6)
            d = Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p])
            for k in range(1, n + 1):
                for mode in ("spanning", "subtree"):
                    _assert_bnb_matches_reference(d, k, mode)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=7),
    arc_bits=st.integers(min_value=0, max_value=(1 << 42) - 1),
    k=st.integers(min_value=1, max_value=7),
    mode=st.sampled_from(["spanning", "subtree"]),
)
def test_bnb_matches_reference_property(n, arc_bits, k, mode):
    slots = [(u, v) for u in range(n) for v in range(n) if u != v]
    d = Digraph(n, [a for i, a in enumerate(slots) if arc_bits >> i & 1])
    _assert_bnb_matches_reference(d, k, mode)


def test_bnb_node_count_matches_the_packing_reference():
    # the search skips the packing where it cannot prune, so it must
    # visit exactly the nodes of the reference that always builds it
    rng = random.Random(9)
    pool = [generate(GenSpec("tournament-random", n=12, seed=1)), cycle(30)]
    for n in range(2, 10):
        for _ in range(15):
            p = rng.uniform(0.15, 0.6)
            pool.append(Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p]))
    for d in pool:
        for k in range(2, d.n + 1):
            ref, nodes = branch_and_bound_reference(d, k, "spanning", packing=True)
            r = branch_and_bound(d, k, "spanning", node_budget=nodes)
            assert (r.answer, r.value) == (ref.answer, ref.value), (d.arcs, k)
            if ref.witness is not None:
                assert (r.witness.root, r.witness.parent) == (ref.witness.root, ref.witness.parent)
            if nodes:
                with pytest.raises(OverBudgetError):
                    branch_and_bound(d, k, "spanning", node_budget=nodes - 1)


@pytest.mark.parametrize(
    "spec, optimum",
    [
        (GenSpec("tournament-random", n=12, seed=1), 10),
        (GenSpec("multipartite-tournament", parts=(3, 3, 3, 2), seed=1), 8),
        (GenSpec("min-in-degree-random", n=12, d=2, seed=51), 7),
    ],
)
def test_bnb_proves_dense_optimum_in_few_nodes(spec, optimum):
    # the loose bound needs 18 721, 34 875 and 6 202 nodes here
    d = generate(spec)
    r = branch_and_bound(d, d.n, "spanning", node_budget=1_000)
    assert r.answer is False and r.value == optimum


# ------------------------------------------------------------ the DP


def test_dp_on_directed_path():
    p = directed_path(6)
    r = dp_pathwidth(p, _identity_pd(p), DpConfig(mode="spanning", leaf_cap=3))
    assert r.answer is False and r.value == 1
    r2 = dp_pathwidth(p, _identity_pd(p), DpConfig(mode="spanning", leaf_cap=1))
    assert r2.answer is True and validate_out_tree(p, r2.witness).ok


def test_dp_on_double_cycle_via_pipeline():
    d = double_cycle(5)
    out = decompose(d, 3)
    assert not out.is_witness
    r = dp_pathwidth(d, out.decomposition, DpConfig(mode="spanning", leaf_cap=3))
    assert r.answer is False and r.value == 2


def test_dp_value_saturates_at_cap():
    s = out_star(7)
    r = dp_pathwidth(s, _identity_pd(s), DpConfig(mode="spanning", leaf_cap=2))
    assert r.answer is True and r.value == 2
    assert r.witness.leaf_count >= 2


def test_dp_agrees_with_engines_fuzzed():
    for seed in range(25):
        d = random_digraph(seed, 6, 0.35)
        pd = _identity_pd(d)
        ls, _ = brute_force_out_branching(d)
        l, _ = brute_force_out_tree(d)
        for k in (1, 2, 3, 4):
            rs = dp_pathwidth(d, pd, DpConfig(mode="spanning", leaf_cap=k))
            assert rs.answer == (ls >= k), (seed, k)
            if rs.answer:
                rep = validate_out_tree(d, rs.witness)
                assert rep.ok and rep.spanning
            else:
                assert rs.value == min(ls, k)
            rt = dp_pathwidth(d, pd, DpConfig(mode="subtree", leaf_cap=k))
            assert rt.answer == (l >= k), (seed, k)
            if rt.answer:
                assert validate_out_tree(d, rt.witness).ok
            else:
                assert rt.value == min(l, k)


def test_dp_value_independent_of_ordering():
    d = double_cycle(6)
    g = underlying_undirected(d)
    orders = [list(range(6)), [5, 4, 3, 2, 1, 0], [0, 2, 4, 1, 3, 5]]
    values = set()
    for order in orders:
        pd = ordering_to_path_decomposition(g, order)
        r = dp_pathwidth(d, pd, DpConfig(mode="spanning", leaf_cap=4))
        values.add((r.answer, r.value))
    assert len(values) == 1


def test_dp_width_budget():
    d = double_cycle(6)
    with pytest.raises(OverBudgetError):
        dp_pathwidth(d, _identity_pd(d), DpConfig(mode="spanning", leaf_cap=2, width_budget=1))


def test_dp_table_budget():
    d = double_cycle(6)
    with pytest.raises(OverBudgetError):
        dp_pathwidth(
            d, _identity_pd(d), DpConfig(mode="spanning", leaf_cap=2, table_budget=10)
        )


def test_dp_rejects_broken_decomposition():
    from maxleaf import PathDecomposition

    d = cycle(4)
    with pytest.raises(ContractError):
        dp_pathwidth(d, PathDecomposition([[0, 1]]), DpConfig(mode="spanning", leaf_cap=2))


# ------------------------------------------------------------ drivers


def test_solve_dmlob_cycle():
    assert solve_dmlob(cycle(5), 1).answer is True
    r = solve_dmlob(cycle(5), 2)
    assert r.answer is False and r.value == 1


def test_solve_dmlob_double_cycle():
    assert solve_dmlob(double_cycle(6), 2).answer is True
    r = solve_dmlob(double_cycle(6), 3)
    assert r.answer is False and r.value == 2


def test_solve_dmlob_star_and_sources():
    r = solve_dmlob(out_star(20), 19)
    assert r.answer is True and r.method == "decompose-witness"
    r2 = solve_dmlob(Digraph(4, [(0, 1), (2, 3)]), 2)
    assert r2.answer is False and r2.value == 0 and r2.method == "trivial"


def test_solve_dmlob_outside_family_decides_without_warning():
    d = Digraph(3, [(0, 1), (1, 2), (2, 1)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = solve_dmlob(d, 2)
    assert r.answer is False and r.value == 1


def test_solve_dmlob_outside_family_witness_grows_to_spanning():
    d = Digraph(4, [(0, 1), (1, 2), (2, 1), (0, 3), (1, 3)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = solve_dmlob(d, 2)
    assert r.answer is True
    assert r.method == "decompose-witness"
    assert r.witness.is_spanning()


@pytest.mark.parametrize(
    "d",
    [
        # the witness rooted at 0 has two leaves; every out-branching is a path
        Digraph(4, [(0, 1), (0, 2), (1, 0), (2, 1), (3, 2)]),
        # the same witness, but branch and bound finds a spanning one from 4
        Digraph(5, [(0, 1), (0, 2), (1, 0), (2, 1), (3, 4), (4, 2), (4, 3)]),
    ],
)
def test_solve_dmlob_witness_rooted_outside_source_goes_through_search(d):
    comps = strongly_connected_components(d)
    (source,) = source_strong_components(comps)
    out = decompose(d, 2)
    assert out.is_witness and comps.component_of[out.witness.root] != source
    opt, _ = brute_force_out_branching(d)
    r = solve_dmlob(d, 2)
    assert r.method == "branch-and-bound"
    assert (r.answer, r.value) == (opt >= 2, min(opt, 2))
    if r.answer:
        assert validate_out_tree(d, r.witness).spanning


def test_solve_dmlob_matches_oracle_on_all_four_vertex_digraphs():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for d in all_digraphs(4):
            opt = spanning_leaf_maximum(d)
            for k in (1, 2, 3, 4):
                r = solve_dmlob(d, k)
                assert (r.answer, r.value) == (opt >= k, min(opt, k)), (d.arcs, k)
                if r.answer:
                    rep = validate_out_tree(d, r.witness)
                    assert rep.ok and rep.spanning and rep.leaf_count >= k, (d.arcs, k)


def test_solve_dmlob_matches_oracle_on_seeded_instances():
    for seed in range(12):
        d = generate(GenSpec(family="strong-random", n=9, extra=seed, seed=seed))
        ls, _ = brute_force_out_branching(d)
        for k in (1, 2, 3, 4, 5):
            r = solve_dmlob(d, k)
            assert r.answer == (ls >= k), (seed, k, r.method)
            if r.answer:
                rep = validate_out_tree(d, r.witness)
                assert rep.ok and rep.spanning


def test_solve_dmlot_trivial_and_disjoint():
    d = Digraph(8, [(0, 1), (0, 2), (0, 3), (4, 5), (5, 6)])
    assert solve_dmlot(d, 1).answer is True
    r = solve_dmlot(d, 3)
    assert r.answer is True
    assert validate_out_tree(d, r.witness).ok
    # nothing spans, so the spanning variant refuses at any k
    assert solve_dmlob(d, 1).answer is False


def test_solve_dmlot_matches_oracle_exhaustively_n3():
    for d in all_digraphs(3):
        l = subtree_leaf_maximum(d)
        for k in (1, 2, 3):
            r = solve_dmlot(d, k)
            assert r.answer == (l >= k), (d.arcs, k)


def test_solve_dmlot_value_reports_best_found():
    r = solve_dmlot(cycle(6), 3)
    assert r.answer is False and r.value == 1
    r2 = solve_dmlot(double_cycle(6), 4)
    assert r2.answer is False and r2.value == 2


def test_solve_dmlot_no_answer_names_the_deciding_engine():
    # the packing bound of a double cycle is about n / 2 + 1, far above
    # its optimum of 2, so it settles none of these
    r = solve_dmlot(double_cycle(10), 3)
    assert r.answer is False and r.value == 2
    assert r.method == "branch-and-bound"  # the first try settles it
    # n^2 above the try's work budget: the try is skipped and the DP decides
    assert 150 * 150 > maxleaf.solver._TRY_WORK
    r1 = solve_dmlot(double_cycle(150), 3)
    assert r1.answer is False and r1.value == 2
    assert r1.method == "dp"
    r2 = solve_dmlot(double_cycle(10), 3, width_budget=0)
    assert r2.answer is False and r2.value == 2
    assert r2.method == "branch-and-bound"
    assert solve_dmlot(cycle(10), 1).method == "trivial"
    # on a cycle the bound meets the breadth-first tree
    assert solve_dmlot(cycle(10), 3).method == "bound"


def test_answers_monotone_in_k():
    for seed in range(8):
        d = generate(GenSpec(family="strong-random", n=8, extra=5, seed=seed))
        sp = [solve_dmlob(d, k).answer for k in range(1, 6)]
        st = [solve_dmlot(d, k).answer for k in range(1, 6)]
        for a, b in zip(sp, sp[1:]):
            assert not (b and not a)
        for a, b in zip(st, st[1:]):
            assert not (b and not a)
        # an out-branching is an out-tree
        for a, b in zip(sp, st):
            assert not (a and not b)


def test_drivers_reject_bad_arguments():
    with pytest.raises(ContractError):
        solve_dmlob(cycle(3), 0)
    with pytest.raises(ContractError):
        solve_dmlot(cycle(3), -1)


def test_driver_budget_falls_back_to_search():
    d = double_cycle(7)
    r = solve_dmlob(d, 3, dp_budget=5)
    assert r.method == "branch-and-bound"
    r2 = solve_dmlob(d, 3, width_budget=0)
    assert r2.method == "branch-and-bound"
    full = solve_dmlob(d, 3)
    assert (r.answer, r.value) == (full.answer, full.value)
    assert (r2.answer, r2.value) == (full.answer, full.value)


# ------------------------------------------------------- the exact chain


def _recording(monkeypatch, name):
    """Wrap maxleaf.solver.<name>; each call appends (args, outcome)."""
    fn = getattr(maxleaf.solver, name)
    calls = []

    def wrapper(*args, **kwargs):
        try:
            out = fn(*args, **kwargs)
        except OverBudgetError as exc:
            calls.append((args, exc))
            raise
        calls.append((args, out))
        return out

    monkeypatch.setattr(maxleaf.solver, name, wrapper)
    return calls


def _nearly_transitive(n):
    """The transitive tournament on n vertices with the arcs (0, 4) and
    (1, 3) reversed.  Its source strong component is {0, ..., 4}, so its
    root 0 has an in-neighbour, and its packing bound is one above its
    optimum of n - 2.  (On the transitive tournament itself vertex 0 has
    in-degree 0, and the bound settles every k.)"""
    d = generate(GenSpec("tournament-transitive", n=n))
    flipped = {(0, 4), (1, 3)}
    return Digraph(n, [(b, a) if (a, b) in flipped else (a, b) for a, b in d.arcs])


def test_chain_settles_transitive_tournament_by_search():
    d = _nearly_transitive(9)
    assert brute_force_out_branching(d)[0] == brute_force_out_tree(d)[0] == 7
    for solve in (solve_dmlob, solve_dmlot):
        r = solve(d, 8)
        assert (r.answer, r.value) == (False, 7)
        assert r.method == "branch-and-bound"


def test_chain_decides_large_sparse_instance_by_dp():
    # the pipeline's width is 10, over the default budget of 8; the
    # greedy decomposition has width 4
    d = generate(GenSpec("strong-random", n=1000, extra=6, seed=0))
    r = solve_dmlob(d, 8)
    assert (r.answer, r.value) == (False, 6)
    assert r.method == "dp"


def test_chain_runs_dp_on_the_narrower_greedy_decomposition(monkeypatch):
    d = double_cycle(12)
    out = decompose(d, 3)
    assert not out.is_witness and out.decomposition.width == 5
    calls = _recording(monkeypatch, "dp_pathwidth")
    # a search budget below n skips the try
    r = solve_dmlob(d, 3, width_budget=2, bnb_budget=11)
    assert (r.answer, r.value, r.method) == (False, 2, "dp")
    ((args, _),) = calls
    assert args[1].width == 2
    args[1].check(underlying_undirected(d))


def test_chain_keeps_the_pipeline_decomposition_on_a_tie(monkeypatch):
    # a directed path whose first arc is doubled: its packing bound is 2,
    # the optimum (rooted at 1), but the breadth-first tree from 0 is the
    # path itself, with one leaf
    n = 150
    d = Digraph(n, [(1, 0)] + [(i, i + 1) for i in range(n - 1)])
    out = decompose(d, 3)
    assert not out.is_witness and out.decomposition.width == 1
    calls = _recording(monkeypatch, "dp_pathwidth")
    r = solve_dmlob(d, 3)
    assert r.method != "bound"
    assert (r.answer, r.value, r.method) == (False, 2, "dp")
    ((args, _),) = calls
    assert args[1] == out.decomposition


def test_chain_try_that_overflows_falls_through_to_dp(monkeypatch):
    # the spanning search on double_cycle(60) at k=3 needs more than
    # _TRY_WORK // n nodes, yet n^2 is within _TRY_WORK, so the try runs
    # and overflows
    n = 60
    assert n <= maxleaf.solver._TRY_WORK // n
    calls = _recording(monkeypatch, "branch_and_bound")
    r = solve_dmlob(double_cycle(n), 3)
    assert r.method != "bound"
    assert (r.answer, r.value, r.method) == (False, 2, "dp")
    ((_, outcome),) = calls
    assert isinstance(outcome, OverBudgetError)


def test_chain_does_not_repeat_a_try_capped_by_the_budget(monkeypatch):
    # the try runs under bnb_budget = 150, below _TRY_WORK // 60, and
    # overflows; with width_budget=0 the DP cannot decide either, and a
    # second search under the same budget would overflow the same way
    assert 60 <= 150 < maxleaf.solver._TRY_WORK // 60
    calls = _recording(monkeypatch, "branch_and_bound")
    for solve in (solve_dmlob, solve_dmlot):
        calls.clear()
        with pytest.raises(OverBudgetError):
            solve(double_cycle(60), 3, width_budget=0, bnb_budget=150)
        ((_, outcome),) = calls
        assert isinstance(outcome, OverBudgetError)


def test_drivers_reach_both_engines_through_the_solver_module(monkeypatch):
    # perfbench/spans.py times the engines by replacing these two
    # module attributes, so the drivers must look them up there
    bnb = _recording(monkeypatch, "branch_and_bound")
    dp = _recording(monkeypatch, "dp_pathwidth")
    for solve in (solve_dmlob, solve_dmlot):
        bnb.clear()
        dp.clear()
        r = solve(double_cycle(60), 3)  # the try overflows, then the DP decides
        assert r.method != "bound"
        assert (r.answer, r.value, r.method) == (False, 2, "dp")
        assert (len(bnb), len(dp)) == (1, 1)


def test_chain_decides_a_witness_rooted_outside_the_source_component(monkeypatch):
    d = Digraph(4, [(0, 1), (0, 2), (1, 0), (2, 1), (3, 2)])
    calls = _recording(monkeypatch, "branch_and_bound")
    r = solve_dmlob(d, 2, bnb_budget=3)  # too small for the try
    assert (r.answer, r.value, r.method) == (False, 1, "dp")
    assert calls == []


def _source_root(d):
    """The smallest vertex of the first source strong component of d."""
    comps = strongly_connected_components(d)
    return comps.components[source_strong_components(comps)[0]][0]


def test_packing_bound_is_an_upper_bound_and_bound_answers_are_exact(monkeypatch):
    # criterion 1 already checks every answer on the 4-vertex digraphs
    pipeline = _recording(monkeypatch, "decompose")
    for d in all_digraphs(4):
        bound = maxleaf.solver._packing_bound(d, _source_root(d))
        assert bound >= brute_force_out_branching(d)[0], d.arcs
    rng = random.Random(15)
    settled = 0
    for _ in range(200):
        n = rng.randint(2, 9)
        p = rng.uniform(0.1, 0.5)  # sparse enough that many are not strong
        d = Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p])
        span, _ = brute_force_out_branching(d)
        assert maxleaf.solver._packing_bound(d, _source_root(d)) >= span, d.arcs
        tree, _ = brute_force_out_tree(d)
        for k in range(2, n + 1):
            for solve, opt in ((solve_dmlob, span), (solve_dmlot, tree)):
                pipeline.clear()
                r = solve(d, k)
                if r.method != "bound":
                    continue
                settled += 1
                assert (r.answer, r.value) == (opt >= k, min(opt, k)), (d.arcs, k)
                # settled before decompose; a dmlot answer's other
                # regions may still reach it
                assert pipeline == [] or solve is solve_dmlot, (d.arcs, k)
    assert settled > 0


def test_bound_settles_a_cycle_without_either_engine(monkeypatch):
    bnb = _recording(monkeypatch, "branch_and_bound")
    dp = _recording(monkeypatch, "dp_pathwidth")
    pipeline = _recording(monkeypatch, "decompose")
    for solve in (solve_dmlob, solve_dmlot):
        r = solve(cycle(150), 2)
        assert (r.answer, r.value, r.method) == (False, 1, "bound")
    r = solve_dmlob(cycle(10**5), 2)
    assert (r.answer, r.value, r.method) == (False, 1, "bound")
    assert bnb == [] and dp == [] and pipeline == []


def test_root_with_no_in_neighbour_tightens_the_bound(monkeypatch):
    # the root of a directed path is the only possible root, so every
    # other vertex needs its own internal parent: the bound is 1
    pipeline = _recording(monkeypatch, "decompose")
    assert maxleaf.solver._packing_bound(directed_path(6), 0) == 1
    assert maxleaf.solver._packing_bound(cycle(6), 0) == 1
    r = solve_dmlob(directed_path(20000), 2)
    assert (r.answer, r.value, r.method) == (False, 1, "bound")
    r = solve_dmlot(directed_path(300), 2)
    assert (r.answer, r.value, r.method) == (False, 1, "bound")
    assert pipeline == []


# ----------------------------------------- dmlot from the spanning problem


def _component_regions(d):
    """d[R_C] for every strong component C, from its smallest vertex."""
    for comp in strongly_connected_components(d).components:
        yield induced_subdigraph(d, reachable_set(d, comp[0]))[0]


def _region_pool():
    """Every labeled 4-vertex digraph, then seeded random digraphs, n <= 8."""
    yield from all_digraphs(4)
    rng = random.Random(11)
    for _ in range(120):
        n = rng.randint(1, 8)
        p = rng.uniform(0.1, 0.5)
        yield Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p])


def test_dmlot_is_best_spanning_value_over_component_regions():
    for d in _region_pool():
        best, _ = brute_force_out_tree(d)
        regions = max(brute_force_out_branching(sub)[0] for sub in _component_regions(d))
        assert best == regions, d.arcs
        for k in (max(2, best), best + 1):
            r = solve_dmlot(d, k)
            assert (r.answer, r.value) == (best >= k, min(best, k)), (d.arcs, k)
            if r.answer:
                assert validate_out_tree(d, r.witness).ok


def test_dmlot_needs_every_component_region_not_only_sources():
    d = Digraph(4, [(0, 1), (0, 2), (1, 0), (3, 1)])
    comps = strongly_connected_components(d)
    (source,) = source_strong_components(comps)
    sub, _ = induced_subdigraph(d, reachable_set(d, comps.components[source][0]))
    assert brute_force_out_branching(sub)[0] == 1
    assert brute_force_out_tree(d)[0] == 2
    r = solve_dmlot(d, 2)
    assert r.answer is True and validate_out_tree(d, r.witness).ok


def test_dmlot_searches_each_strong_component_once(monkeypatch):
    calls = []

    def counting(d, v):
        calls.append(v)
        return reachable_set(d, v)

    monkeypatch.setattr(maxleaf.solver, "reachable_set", counting)
    n = 3000
    p = list(range(n))
    random.Random(3).shuffle(p)
    relabeled_cycle = Digraph(n, [(p[i], p[(i + 1) % n]) for i in range(n)])
    r = solve_dmlot(relabeled_cycle, 2)
    assert r.answer is False and r.value == 1
    assert len(calls) == 1  # one search per vertex would be about n^2 / 2 steps
    calls.clear()
    r = solve_dmlot(generate(GenSpec("tournament-transitive", n=8)), 8)
    assert r.answer is False and r.value == 7
    assert len(calls) == 8


def test_dmlot_skips_regions_that_cannot_beat_the_best(monkeypatch):
    # every region that is decided goes through _settle_by_bound first
    calls = _recording(monkeypatch, "_settle_by_bound")
    # the first region spans all 12 vertices and gives 10 leaves; every
    # other region has at most 7 vertices, so at most 6 leaves
    d = _nearly_transitive(12)
    regions = sorted(len(reachable_set(d, c[0])) for c in strongly_connected_components(d).components)
    assert regions[-2:] == [7, 12]
    r = solve_dmlot(d, 11)
    assert r.answer is False and r.value == 10
    assert [args[0].n for args, _ in calls] == [12]


# --------------------------------------- the DP against its tuple-keyed form


def _random_ordering_pd(d, seed):
    order = list(range(d.n))
    random.Random(seed).shuffle(order)
    return ordering_to_path_decomposition(underlying_undirected(d), order)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=8),
    arc_bits=st.integers(min_value=0, max_value=(1 << 56) - 1),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_restricted_decomposition_fits_every_region_property(n, arc_bits, seed):
    slots = [(u, v) for u in range(n) for v in range(n) if u != v]
    d = Digraph(n, [a for i, a in enumerate(slots) if arc_bits >> i & 1])
    pd = _random_ordering_pd(d, seed)
    for comp in strongly_connected_components(d).components:
        sub, order = induced_subdigraph(d, reachable_set(d, comp[0]))
        restricted = maxleaf.solver._restricted(pd, order)
        restricted.check(underlying_undirected(sub))
        assert restricted.width <= pd.width


def _assert_dp_matches_reference(d, pd, k, mode):
    cfg = DpConfig(mode, k)
    old, old_created = dp_pathwidth_reference(d, pd, cfg)
    r = dp_pathwidth(d, pd, cfg)
    assert (r.answer, r.value) == (old.answer, old.value), (d.arcs, pd.bags, k, mode)
    if r.answer:
        report = validate_out_tree(d, r.witness)
        assert report.ok and (report.spanning or mode == "subtree")
    # pin the witness and the budget to the reference cut down to an
    # out-branching's state; in subtree mode that is one spanning run per
    # region, each with its own table, so the budget is the largest table
    if mode == "spanning":
        ref, created = dp_pathwidth_reference(d, pd, cfg, minimal_state=True)
    else:
        ref, created = dp_pathwidth_regions_reference(d, pd, cfg, minimal_state=True)
        old_created = dp_pathwidth_regions_reference(d, pd, cfg)[1]
    assert (r.answer, r.value) == (ref.answer, ref.value), (d.arcs, pd.bags, k, mode)
    assert r.witness == ref.witness, (d.arcs, pd.bags, k, mode)
    assert created <= old_created, (d.arcs, pd.bags, k, mode)
    # the same states: the run fits a table of exactly `created` states
    assert dp_pathwidth(d, pd, DpConfig(mode, k, table_budget=created)).value == r.value
    if created > 1:
        with pytest.raises(OverBudgetError):
            dp_pathwidth(d, pd, DpConfig(mode, k, table_budget=created - 1))


def test_dp_matches_reference_on_pipeline_decompositions():
    pool = [double_cycle(8), cycle(12)] + [
        generate(GenSpec("strong-random", n=10, extra=5, seed=s)) for s in (0, 2, 3)
    ] + [generate(GenSpec("min-in-degree-random", n=8, d=2, seed=3))]
    checked = 0
    for d in pool:
        for k in (3, 4):
            out = decompose(d, k)
            if out.is_witness or out.decomposition.width > 5:
                continue
            for mode in ("spanning", "subtree"):
                _assert_dp_matches_reference(d, out.decomposition, k, mode)
                checked += 1
    assert checked >= 8


def test_dp_matches_reference_on_all_three_vertex_digraphs():
    # includes every way of having no out-branching at n = 3
    for d in all_digraphs(3):
        for seed in (0, 1):
            pd = _random_ordering_pd(d, seed)
            for k in (1, 2, 3):
                for mode in ("spanning", "subtree"):
                    _assert_dp_matches_reference(d, pd, k, mode)


def test_dp_matches_reference_on_random_orderings():
    for seed in range(40):
        d = random_digraph(seed, 3 + seed % 4, 0.3)
        pd = _random_ordering_pd(d, seed)
        for k in (2, 3):
            for mode in ("spanning", "subtree"):
                _assert_dp_matches_reference(d, pd, k, mode)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=6),
    arc_bits=st.integers(min_value=0, max_value=(1 << 30) - 1),
    seed=st.integers(min_value=0, max_value=10**6),
    k=st.integers(min_value=1, max_value=6),
    mode=st.sampled_from(["spanning", "subtree"]),
)
def test_dp_matches_reference_property(n, arc_bits, seed, k, mode):
    slots = [(u, v) for u in range(n) for v in range(n) if u != v]
    d = Digraph(n, [a for i, a in enumerate(slots) if arc_bits >> i & 1])
    _assert_dp_matches_reference(d, _random_ordering_pd(d, seed), k, mode)

