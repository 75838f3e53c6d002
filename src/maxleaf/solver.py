"""Exact engines and drivers for the two maximum-leaf decision problems.

Three engines, equivalent on their common domain:

* branch_and_bound grows partial out-trees vertex by vertex with an
  optimistic leaf bound; exact on any digraph, used as the fallback.
* dp_pathwidth runs over a path decomposition of the underlying
  undirected graph; exact, fast when the width is small.
* the brute-force subset oracles live in oracle.py and are only for
  cross-checking at small n.

solve_dmlob / solve_dmlot combine decompose() with these engines: a
witness from the pipeline settles "yes" instantly (for spanning only
inside the family where the out-tree value transfers), otherwise the
pipeline's decomposition feeds the DP, with branch and bound behind it.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass
from itertools import combinations

from .decompose import decompose, find_out_branching
from .digraph import (
    Digraph,
    arc_masks,
    in_L_sufficient,
    induced_subdigraph,
    iter_bits,
    reachable_set,
    source_strong_components,
    strongly_connected_components,
    underlying_undirected,
)
from .errors import ContractError, InvariantError, OverBudgetError
from .pathdecomp import PathDecomposition
from .witness import OutTree, validate_out_tree

DEFAULT_WIDTH_BUDGET = 8
DEFAULT_DP_BUDGET = 10_000_000
DEFAULT_BNB_BUDGET = 100_000_000

_MODES = ("spanning", "subtree")


@dataclass(frozen=True)
class SolveResult:
    """Answer to one decision instance.

    value is min(exact optimum, k); at_least_k records whether the
    optimum reached k.  answer None appears only from branch_and_bound
    with allow_unknown=True after a node-budget abort.
    """

    problem: str
    k: int
    answer: bool | None
    value: int | None
    at_least_k: bool | None
    method: str
    witness: OutTree | None = None

    def __post_init__(self) -> None:
        if self.answer is True:
            if self.witness is None:
                raise InvariantError("positive answer without a witness")
            if self.witness.leaf_count < self.k:
                raise InvariantError(
                    f"witness has {self.witness.leaf_count} leaves, needs {self.k}"
                )
            if self.value != self.k or self.at_least_k is not True:
                raise InvariantError("positive answer with inconsistent value")
        if self.answer is False and (self.value is None or self.value >= self.k):
            raise InvariantError("negative answer with inconsistent value")


@dataclass(frozen=True)
class DpConfig:
    mode: str
    leaf_cap: int
    width_budget: int = DEFAULT_WIDTH_BUDGET
    table_budget: int = DEFAULT_DP_BUDGET

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ContractError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.leaf_cap < 1:
            raise ContractError("leaf_cap must be at least 1")
        if self.width_budget < 0 or self.table_budget < 1:
            raise ContractError("budgets must be positive")


class _BudgetHit(Exception):
    pass


def branch_and_bound(
    d: Digraph,
    k: int,
    mode: str,
    node_budget: int | None = None,
    allow_unknown: bool = False,
) -> SolveResult:
    """Exact decision by depth-first search over partial out-trees.

    Branches on the smallest vertex that currently has an eligible
    parent in the tree: attach it under each such parent in turn, then
    defer it (banning the parents it just declined).  The bound is the
    current leaf count plus everything still reachable from the tree.

    With a node_budget, exceeding it raises OverBudgetError, unless
    allow_unknown is set, in which case the result has answer None.
    """
    if mode not in _MODES:
        raise ContractError(f"mode must be one of {_MODES}, got {mode!r}")
    if k < 1:
        raise ContractError("k must be at least 1")
    if d.n < 1:
        raise ContractError("empty digraph")
    problem = "dmlob" if mode == "spanning" else "dmlot"
    n = d.n
    full = (1 << n) - 1
    out_mask, in_mask = arc_masks(d)
    comps = strongly_connected_components(d)
    strong = len(comps.components) == 1
    if mode == "spanning":
        sources = source_strong_components(comps)
        if len(sources) != 1:
            return SolveResult(problem, k, False, 0, False, "branch-and-bound")
        roots = list(comps.components[sources[0]])
    else:
        roots = list(range(n))

    best = 0
    best_tree: tuple[int, dict[int, int]] | None = None
    nodes = 0
    parent: dict[int, int] = {}
    child_cnt = [0] * n
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 4 * (n + d.m) + 100))

    def search(root: int) -> None:
        nonlocal best, best_tree, nodes
        tree = 1 << root
        internal = 0
        forbidden = [0] * n

        def rec() -> None:
            nonlocal best, best_tree, nodes, tree, internal
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                raise _BudgetHit
            size = tree.bit_count()
            leaves = size - internal
            complete = size == n
            if mode == "subtree" or complete:
                if leaves > best:
                    best = leaves
                    best_tree = (root, dict(parent))
                if best >= k:
                    return
            if complete:
                return
            if strong:
                attachable = full & ~tree
            else:
                reach = tree
                frontier = tree
                while frontier:
                    grow = 0
                    for b in iter_bits(frontier):
                        grow |= out_mask[b]
                    frontier = grow & ~reach
                    reach |= frontier
                if mode == "spanning" and reach != full:
                    return
                attachable = reach & ~tree
            if leaves + attachable.bit_count() <= best:
                return
            pick = -1
            avail = 0
            for v in iter_bits(full & ~tree):
                avail = in_mask[v] & tree & ~forbidden[v]
                if avail:
                    pick = v
                    break
            if pick < 0:
                return
            bit = 1 << pick
            for u in iter_bits(avail):
                parent[pick] = u
                tree |= bit
                child_cnt[u] += 1
                if child_cnt[u] == 1:
                    internal += 1
                rec()
                child_cnt[u] -= 1
                if child_cnt[u] == 0:
                    internal -= 1
                tree &= ~bit
                del parent[pick]
                if best >= k:
                    return
            saved = forbidden[pick]
            forbidden[pick] = saved | (in_mask[pick] & tree)
            if mode == "subtree" or in_mask[pick] & ~forbidden[pick]:
                rec()
            forbidden[pick] = saved

        rec()

    unknown = False
    try:
        for r in roots:
            if best >= k:
                break
            search(r)
    except _BudgetHit:
        if not allow_unknown:
            raise OverBudgetError(
                f"branch and bound exceeded {node_budget} nodes"
            ) from None
        unknown = best < k

    if unknown:
        return SolveResult(problem, k, None, None, None, "branch-and-bound")
    if best >= k:
        root, pmap = best_tree
        witness = OutTree(root, pmap, n)
        return SolveResult(problem, k, True, k, True, "branch-and-bound", witness)
    return SolveResult(problem, k, False, best, False, "branch-and-bound")


def _nice_steps(pd: PathDecomposition) -> list[tuple[str, int]]:
    steps: list[tuple[str, int]] = []
    prev: set[int] = set()
    for bag in pd.bags:
        cur = set(bag)
        for v in sorted(prev - cur):
            steps.append(("-", v))
        for v in sorted(cur - prev):
            steps.append(("+", v))
        prev = cur
    for v in sorted(prev):
        steps.append(("-", v))
    return steps


# status codes for a bag vertex inside a DP state
_UNUSED = 0
_OPEN = 1  # in the tree, no parent assigned yet, childless
_OPEN_CH = 2  # same, already has a child
_ROOT = 3  # the designated root, childless
_ROOT_CH = 4
_DONE = 5  # parent assigned, childless
_DONE_CH = 6


def dp_pathwidth(d: Digraph, pd: PathDecomposition, cfg: DpConfig) -> SolveResult:
    """Exact decision by dynamic programming along a path decomposition.

    A state records, per bag vertex, whether it is in the tree and how
    (open = waiting for a parent, designated root, or parented), the
    partition of in-tree bag vertices into connected pieces of the
    partial forest, whether a root was ever designated, and whether the
    final tree has already been closed off.  Values count leaves among
    forgotten vertices, saturated at leaf_cap.  A vertex forgotten while
    still open kills the state; closing a piece is only allowed when it
    is the last in-tree matter around, and only once.
    """
    pd.check(underlying_undirected(d))
    if pd.width > cfg.width_budget:
        raise OverBudgetError(
            f"decomposition width {pd.width} exceeds budget {cfg.width_budget}"
        )
    problem = "dmlob" if cfg.mode == "spanning" else "dmlot"
    k = cfg.leaf_cap
    arcs = d.arcs
    spanning = cfg.mode == "spanning"
    steps = _nice_steps(pd)

    bag: list[int] = []
    # key: (statuses aligned with sorted bag, partition of in-tree bag
    # vertices, root designated?, tree closed?) -> (value, move chain)
    states: dict[tuple, tuple[int, tuple | None]] = {((), (), False, False): (0, None)}
    created = 1

    for op, v in steps:
        new_states: dict[tuple, tuple[int, tuple | None]] = {}

        def put(key: tuple, value: int, chain: tuple | None) -> None:
            nonlocal created
            cur = new_states.get(key)
            if cur is None:
                created += 1
                new_states[key] = (value, chain)
            elif value > cur[0]:
                new_states[key] = (value, chain)

        if op == "+":
            vi = 0
            while vi < len(bag) and bag[vi] < v:
                vi += 1
            for (statuses, parts, root_used, completed), (value, chain) in states.items():
                if not spanning:
                    put(
                        (statuses[:vi] + (_UNUSED,) + statuses[vi:], parts, root_used, completed),
                        value,
                        chain,
                    )
                if completed:
                    continue
                comp_of = {}
                for part in parts:
                    for x in part:
                        comp_of[x] = part
                open_ws = [
                    w
                    for idx, w in enumerate(bag)
                    if statuses[idx] in (_OPEN, _OPEN_CH) and (v, w) in arcs
                ]
                parent_opts: list[int] = [-1]
                if not root_used:
                    parent_opts.append(-2)
                parent_opts.extend(
                    u
                    for idx, u in enumerate(bag)
                    if statuses[idx] != _UNUSED and (u, v) in arcs
                )
                for parent in parent_opts:
                    for r in range(len(open_ws) + 1):
                        for adopted in combinations(open_ws, r):
                            if parent >= 0 and any(
                                comp_of[parent] is comp_of[w] for w in adopted
                            ):
                                continue  # v's parent would descend from an adoptee
                            mods = list(statuses)
                            for w in adopted:
                                wi = bag.index(w)
                                mods[wi] = _DONE if mods[wi] == _OPEN else _DONE_CH
                            if parent >= 0:
                                pi = bag.index(parent)
                                if mods[pi] in (_OPEN, _ROOT, _DONE):
                                    mods[pi] += 1
                            if parent == -2:
                                code = _ROOT_CH if adopted else _ROOT
                            elif parent == -1:
                                code = _OPEN_CH if adopted else _OPEN
                            else:
                                code = _DONE_CH if adopted else _DONE
                            merged = {v}
                            absorbed = []
                            for w in adopted:
                                absorbed.append(comp_of[w])
                            if parent >= 0:
                                absorbed.append(comp_of[parent])
                            for part in absorbed:
                                merged.update(part)
                            kept = [p for p in parts if all(p is not a for a in absorbed)]
                            kept.append(tuple(sorted(merged)))
                            kept.sort()
                            put(
                                (
                                    tuple(mods[:vi] + [code] + mods[vi:]),
                                    tuple(kept),
                                    root_used or parent == -2,
                                    completed,
                                ),
                                value,
                                ((v, parent, adopted), chain),
                            )
        else:
            vi = bag.index(v)
            for (statuses, parts, root_used, completed), (value, chain) in states.items():
                st = statuses[vi]
                rest = statuses[:vi] + statuses[vi + 1 :]
                if st == _UNUSED:
                    put((rest, parts, root_used, completed), value, chain)
                    continue
                if st in (_OPEN, _OPEN_CH):
                    continue  # an open vertex can never get a parent once forgotten
                value2 = value
                if st in (_ROOT, _DONE):
                    value2 = min(value + 1, k)
                comp = next(p for p in parts if v in p)
                if len(comp) == 1:
                    if completed:
                        continue  # a second finished tree
                    if any(s != _UNUSED for s in rest):
                        continue  # the rest could never reconnect to this piece
                    parts2 = tuple(p for p in parts if p is not comp)
                    put((rest, parts2, root_used, True), value2, chain)
                else:
                    parts2 = tuple(
                        sorted(
                            tuple(x for x in p if x != v) if p is comp else p
                            for p in parts
                        )
                    )
                    put((rest, parts2, root_used, completed), value2, chain)

        if created > cfg.table_budget:
            raise OverBudgetError(f"dp table exceeded {cfg.table_budget} states")
        if op == "+":
            bag.insert(vi, v)
        else:
            bag.pop(vi)
        states = new_states

    accepted = [
        (value, chain)
        for (statuses, parts, root_used, completed), (value, chain) in states.items()
        if completed
    ]
    if not accepted:
        return SolveResult(problem, k, False, 0, False, "dp")
    (value, chain) = max(accepted, key=lambda t: t[0])
    if value < k:
        return SolveResult(problem, k, False, value, False, "dp")
    parent_map: dict[int, int] = {}
    root = None
    node = chain
    while node is not None:
        (mv, node) = node
        mv_v, mv_parent, mv_adopted = mv
        if mv_parent == -2:
            root = mv_v
        elif mv_parent >= 0:
            parent_map[mv_v] = mv_parent
        for w in mv_adopted:
            parent_map[w] = mv_v
    if root is None:
        raise InvariantError("accepted dp state has no designated root")
    witness = OutTree(root, parent_map, d.n)
    report = validate_out_tree(d, witness)
    if not report.ok or witness.leaf_count < k:
        raise InvariantError("dp reconstruction produced a bad witness: " + "; ".join(report.errors))
    return SolveResult(problem, k, True, k, True, "dp", witness)


def _decide_with_engines(
    d: Digraph,
    k: int,
    mode: str,
    pd: PathDecomposition,
    width_budget: int,
    dp_budget: int,
    bnb_budget: int | None,
) -> SolveResult:
    if pd.width <= width_budget:
        try:
            return dp_pathwidth(
                d, pd, DpConfig(mode, k, width_budget, dp_budget)
            )
        except OverBudgetError:
            pass
    return branch_and_bound(d, k, mode, node_budget=bnb_budget)


def solve_dmlob(
    d: Digraph,
    k: int,
    width_budget: int = DEFAULT_WIDTH_BUDGET,
    dp_budget: int = DEFAULT_DP_BUDGET,
    bnb_budget: int | None = DEFAULT_BNB_BUDGET,
) -> SolveResult:
    """Decide whether some spanning out-tree of d has at least k leaves.

    Exact for every digraph.  The decomposition pipeline's witness
    settles "yes" directly only when the in-neighbor condition
    in_L_sufficient holds (it transfers the out-tree's leaf count to a
    spanning one); otherwise the DP or branch and bound decides.
    """
    if k < 1:
        raise ContractError("k must be at least 1")
    if d.n < 1:
        raise ContractError("empty digraph")
    comps = strongly_connected_components(d)
    if len(source_strong_components(comps)) != 1:
        return SolveResult("dmlob", k, False, 0, False, "trivial")
    if k == 1:
        t = find_out_branching(d)
        return SolveResult("dmlob", k, True, 1, True, "trivial", t)
    guaranteed = in_L_sufficient(d)
    if not guaranteed:
        warnings.warn(
            "in_L_sufficient(d) is false: witness shortcuts are disabled and "
            "the exact engines decide",
            stacklevel=2,
        )
    out = decompose(d, k)
    if out.is_witness:
        if not guaranteed:
            return branch_and_bound(d, k, "spanning", node_budget=bnb_budget)
        witness = out.witness
        if not witness.is_spanning():
            # best effort: swap in a spanning witness when cheap to find
            upgraded = branch_and_bound(
                d, k, "spanning", node_budget=50_000, allow_unknown=True
            )
            if upgraded.answer is False:
                raise InvariantError(
                    "family guarantee violated: out-tree witness with no spanning counterpart"
                )
            if upgraded.answer:
                witness = upgraded.witness
        return SolveResult("dmlob", k, True, k, True, "decompose-witness", witness)
    return _decide_with_engines(
        d, k, "spanning", out.decomposition, width_budget, dp_budget, bnb_budget
    )


def solve_dmlot(
    d: Digraph,
    k: int,
    width_budget: int = DEFAULT_WIDTH_BUDGET,
    dp_budget: int = DEFAULT_DP_BUDGET,
    bnb_budget: int | None = DEFAULT_BNB_BUDGET,
) -> SolveResult:
    """Decide whether d has any out-tree with at least k leaves.

    Tries every distinct reachable set d[R_v]; a pipeline witness there
    is already an out-tree of d, so it settles "yes" unconditionally.
    A "no" answer names the engine that found the returned value; every
    region holds a one-leaf tree, so that value is at least 1.
    """
    if k < 1:
        raise ContractError("k must be at least 1")
    if d.n < 1:
        raise ContractError("empty digraph")
    if k == 1:
        return SolveResult("dmlot", k, True, 1, True, "trivial", OutTree(0, {}, d.n))
    best = 0
    best_method = "trivial"
    seen: set[frozenset[int]] = set()
    for v in range(d.n):
        region = frozenset(reachable_set(d, v))
        if region in seen:
            continue
        seen.add(region)
        sub, order = induced_subdigraph(d, region)
        out = decompose(sub, k, root=order.index(v))
        if out.is_witness:
            witness = out.witness.relabel(order, d.n)
            return SolveResult("dmlot", k, True, k, True, "decompose-witness", witness)
        res = _decide_with_engines(
            sub, k, "subtree", out.decomposition, width_budget, dp_budget, bnb_budget
        )
        if res.answer:
            witness = res.witness.relabel(order, d.n)
            return SolveResult("dmlot", k, True, k, True, res.method, witness)
        if res.value > best:
            best = res.value
            best_method = res.method
    return SolveResult("dmlot", k, False, best, False, best_method)
