import pytest

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
    underlying_undirected,
    validate_out_tree,
)
from oracles import all_digraphs, spanning_leaf_maximum, subtree_leaf_maximum


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
    r = branch_and_bound(d, 3, "spanning", node_budget=20, allow_unknown=True)
    assert r.answer is None and r.value is None and r.at_least_k is None
    # a generous budget changes nothing
    r2 = branch_and_bound(d, 3, "spanning", node_budget=10**6)
    assert r2.answer is False and r2.value == 2


def test_bnb_rejects_bad_arguments():
    with pytest.raises(ContractError):
        branch_and_bound(cycle(3), 2, "weird")
    with pytest.raises(ContractError):
        branch_and_bound(cycle(3), 0, "spanning")


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


def test_solve_dmlob_outside_family_warns_and_decides():
    d = Digraph(3, [(0, 1), (1, 2), (2, 1)])
    with pytest.warns(UserWarning):
        r = solve_dmlob(d, 2)
    assert r.answer is False and r.value == 1


def test_solve_dmlob_outside_family_witness_goes_through_search():
    d = Digraph(4, [(0, 1), (1, 2), (2, 1), (0, 3), (1, 3)])
    with pytest.warns(UserWarning):
        r = solve_dmlob(d, 2)
    assert r.answer is True
    assert r.method == "branch-and-bound"
    assert r.witness.is_spanning()


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
    r = solve_dmlot(cycle(10), 3)
    assert r.answer is False and r.value == 1
    assert r.method == "dp"
    r2 = solve_dmlot(cycle(10), 3, width_budget=0)
    assert r2.answer is False and r2.value == 1
    assert r2.method == "branch-and-bound"
    assert solve_dmlot(cycle(10), 1).method == "trivial"


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
