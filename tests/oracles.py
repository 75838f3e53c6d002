"""Independent brute-force oracles used only by the test suite.

These deliberately take the dumbest correct route (literal enumeration,
transitive closure, subset DP) so they share no code or ideas with the
package implementations they check.
"""

from __future__ import annotations

import sys
from heapq import heappop, heappush
from itertools import combinations, permutations, product

from maxleaf.digraph import (
    Digraph,
    UndirectedGraph,
    arc_masks,
    iter_bits,
    source_strong_components,
    strongly_connected_components,
    underlying_undirected,
)
from maxleaf.errors import ContractError, InvariantError, OverBudgetError
from maxleaf.pathdecomp import PathDecomposition
from maxleaf.solver import DpConfig, SolveResult
from maxleaf.witness import OutTree, validate_out_tree


def all_digraphs(n: int):
    """Every labeled simple digraph on n vertices (no self-loops)."""
    slots = [(u, v) for u in range(n) for v in range(n) if u != v]
    for bits in range(1 << len(slots)):
        arcs = [slots[i] for i in range(len(slots)) if bits >> i & 1]
        yield Digraph(n, arcs)


def _tree_leaf_count(n_root: int, parent: dict[int, int]) -> int:
    parents = set(parent.values())
    verts = {n_root, *parent.keys()}
    return sum(1 for v in verts if v not in parents)


def _is_out_branching(d: Digraph, root: int, parent: dict[int, int]) -> bool:
    """Literal check: every non-root vertex walks up to the root without
    repeating a vertex."""
    for v in range(d.n):
        if v == root:
            continue
        seen = set()
        while v != root:
            if v in seen or v not in parent:
                return False
            seen.add(v)
            v = parent[v]
    return True


def spanning_leaf_maximum(d: Digraph) -> int:
    """Max leaves over spanning out-trees by enumerating every root and
    every parent assignment.  0 when no spanning out-tree exists.
    Exponential; keep n <= 5."""
    if d.n == 1:
        return 1
    best = 0
    for root in range(d.n):
        others = [v for v in range(d.n) if v != root]
        choice_lists = [d.in_neighbors(v) for v in others]
        if any(not c for c in choice_lists):
            continue
        for combo in product(*choice_lists):
            parent = dict(zip(others, combo))
            if _is_out_branching(d, root, parent):
                best = max(best, _tree_leaf_count(root, parent))
    return best


def subtree_leaf_maximum(d: Digraph) -> int:
    """Max leaves over all out-trees: every vertex subset, every root,
    every parent assignment inside the subset.  Keep n <= 4."""
    best = 1 if d.n >= 1 else 0
    for size in range(2, d.n + 1):
        for subset in combinations(range(d.n), size):
            sset = set(subset)
            for root in subset:
                others = [v for v in subset if v != root]
                choice_lists = [
                    [u for u in d.in_neighbors(v) if u in sset] for v in others
                ]
                if any(not c for c in choice_lists):
                    continue
                for combo in product(*choice_lists):
                    parent = dict(zip(others, combo))
                    ok = True
                    for v in others:
                        seen = set()
                        w = v
                        while w != root:
                            if w in seen or w not in parent:
                                ok = False
                                break
                            seen.add(w)
                            w = parent[w]
                        if not ok:
                            break
                    if ok:
                        best = max(best, _tree_leaf_count(root, parent))
    return best


def scc_partition_by_closure(d: Digraph) -> set[frozenset[int]]:
    """Strong components via pairwise mutual reachability."""
    reach = []
    for v in range(d.n):
        seen = {v}
        todo = [v]
        while todo:
            u = todo.pop()
            for w in d.out_neighbors(u):
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        reach.append(seen)
    comps = set()
    for v in range(d.n):
        comps.add(frozenset(u for u in reach[v] if v in reach[u]))
    return comps


def _boundary(g: UndirectedGraph, prefix: frozenset[int]) -> int:
    return sum(
        1
        for v in prefix
        if any(w not in prefix for w in g.neighbors(v))
    )


def pathwidth_bruteforce(g: UndirectedGraph) -> int:
    """Exact vertex separation number via DP over vertex subsets.

    f(S) = min over orderings placing S first of the max boundary among
    prefixes of S.  Keep n <= 12.
    """
    n = g.n
    if n == 0:
        return 0
    nbr_mask = [0] * n
    for a, b in g.edges:
        nbr_mask[a] |= 1 << b
        nbr_mask[b] |= 1 << a
    full = (1 << n) - 1

    def boundary(mask: int) -> int:
        outside = full & ~mask
        count = 0
        m = mask
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            if nbr_mask[v] & outside:
                count += 1
        return count

    INF = n + 1
    f = [INF] * (1 << n)
    f[0] = 0
    for mask in range(1, 1 << n):
        b = boundary(mask)
        best = INF
        m = mask
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            prev = f[mask & ~(1 << v)]
            if prev < best:
                best = prev
        f[mask] = max(b, best)
    return f[full]


def vs_exhaustive(g: UndirectedGraph) -> int:
    """Min over every ordering of the max prefix boundary.  Keep n <= 7."""
    best = g.n + 1
    for sigma in permutations(range(g.n)):
        prefix: set[int] = set()
        worst = 0
        for v in sigma:
            prefix.add(v)
            fro = frozenset(prefix)
            b = _boundary(g, fro)
            if b > worst:
                worst = b
        best = min(best, worst)
    return 0 if g.n == 0 else best


# Literal references for the one-sweep rewrites in decompose.py and
# pathdecomp.py: the straightforward quadratic scans those functions
# replaced, kept verbatim so random inputs can pin identical output.


def backward_component_check_reference(
    c: Digraph, p: list[int], k: int
) -> OutTree | list[int]:
    """Rebuilds the suffix set and rescans the prefix for every j."""
    if sorted(p) != list(range(c.n)):
        raise ContractError("path does not cover the component")
    pos = {v: i for i, v in enumerate(p)}
    for a, b in sorted(c.arcs):
        if pos[b] == pos[a] + 1:
            continue
        if pos[b] > pos[a]:
            raise ContractError(
                f"arc ({a},{b}) is a forward chord, not allowed here"
            )
    q = len(p)
    for j in range(1, q):
        suffix = set(p[j:])
        targets = []
        for v in p[:j]:
            inside = [u for u in c.in_neighbors(v) if u in suffix]
            if inside:
                targets.append((pos[v], v, min(inside, key=pos.__getitem__)))
        if len(targets) >= k:
            targets.sort()
            parent = {p[t + 1]: p[t] for t in range(j, q - 1)}
            for _, v, u in targets[:k]:
                parent[v] = u
            return OutTree(p[j], parent, c.n)
    return list(p)


def ordering_to_path_decomposition_reference(
    g: UndirectedGraph, order: list[int]
) -> PathDecomposition:
    """Rescans the whole prefix of the ordering for every bag."""
    order = list(order)
    if sorted(order) != list(range(g.n)):
        raise ContractError("ordering is not a permutation of the vertex set")
    pos = {v: i for i, v in enumerate(order)}
    last = [max((pos[w] for w in g.neighbors(v)), default=-1) for v in range(g.n)]
    bags = []
    for j, v in enumerate(order):
        bags.append([v] + [u for u in order[:j] if last[u] >= j])
    return PathDecomposition(bags)


def decomposition_check_reference(pd: PathDecomposition, g: UndirectedGraph) -> None:
    """PathDecomposition.check with every edge tested against every bag."""
    problems: list[str] = []
    positions: dict[int, list[int]] = {}
    for j, bag in enumerate(pd.bags):
        for v in bag:
            if not 0 <= v < g.n:
                problems.append(f"bag {j} contains unknown vertex {v}")
            positions.setdefault(v, []).append(j)
    for v in range(g.n):
        idx = positions.get(v)
        if not idx:
            problems.append(f"vertex {v} is in no bag")
        elif idx[-1] - idx[0] + 1 != len(idx):
            problems.append(f"bags containing {v} are not consecutive: {idx}")
    for a, b in sorted(g.edges):
        if not any(a in bag and b in bag for bag in pd.bags):
            problems.append(f"edge ({a},{b}) has no common bag")
    if problems:
        raise ContractError("; ".join(problems))


# Literal reference for the slot-label rewrite of dp_pathwidth in
# solver.py: the DP keyed by statuses and a sorted tuple of sorted vertex
# tuples, kept verbatim (it also returns how many states it created) so
# the rewrite can be pinned to the same answer, value and state count.
# The keyword minimal_state applies the two edits that cut the byte-keyed
# DP down to an out-branching's state; the default keeps the old design.


def _nice_steps_reference(pd: PathDecomposition) -> list[tuple[str, int]]:
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


def dp_pathwidth_reference(
    d: Digraph, pd: PathDecomposition, cfg: DpConfig, minimal_state: bool = False
) -> tuple[SolveResult, int]:
    """The tuple-of-tuples DP that dp_pathwidth replaced, returning
    (result, states created).

    Exact decision by dynamic programming along a path decomposition.

    A state records, per bag vertex, whether it is in the tree and how
    (open = waiting for a parent, designated root, or parented), the
    partition of in-tree bag vertices into connected pieces of the
    partial forest, whether a root was ever designated, and whether the
    final tree has already been closed off.  Values count leaves among
    forgotten vertices, saturated at leaf_cap.  A vertex forgotten while
    still open kills the state; closing a piece is only allowed when it
    is the last in-tree matter around, and only once.

    minimal_state (spanning mode only) makes a new root a settled slot
    (_DONE or _DONE_CH) instead of _ROOT or _ROOT_CH, and allows closing
    a piece only at the final step.
    """
    if minimal_state and cfg.mode != "spanning":
        raise ContractError("minimal_state needs spanning mode")
    pd.check(underlying_undirected(d))
    if pd.width > cfg.width_budget:
        raise OverBudgetError(
            f"decomposition width {pd.width} exceeds budget {cfg.width_budget}"
        )
    problem = "dmlob" if cfg.mode == "spanning" else "dmlot"
    k = cfg.leaf_cap
    arcs = d.arcs
    spanning = cfg.mode == "spanning"
    steps = _nice_steps_reference(pd)
    final = len(steps) - 1

    bag: list[int] = []
    # key: (statuses aligned with sorted bag, partition of in-tree bag
    # vertices, root designated?, tree closed?) -> (value, move chain)
    states: dict[tuple, tuple[int, tuple | None]] = {((), (), False, False): (0, None)}
    created = 1

    for step, (op, v) in enumerate(steps):
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
                            if parent == -2 and minimal_state:
                                code = _DONE_CH if adopted else _DONE
                            elif parent == -2:
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
                    if minimal_state and step < final:
                        continue  # closing waits for the final step
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
        return (SolveResult(problem, k, False, 0, False, "dp"), created)
    (value, chain) = max(accepted, key=lambda t: t[0])
    if value < k:
        return (SolveResult(problem, k, False, value, False, "dp"), created)
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
    return (SolveResult(problem, k, True, k, True, "dp", witness), created)


# Literal reference for the packing bound of branch_and_bound in
# solver.py: the search with only the "leaves plus attachable" bound,
# kept verbatim (it also returns how many nodes it visited) so the
# tighter search can be pinned to the same answer and witness.
# The keyword packing (spanning mode only) adds the forced-parent
# packing to the bound, built in full at every node, so the search's
# node count can be pinned exactly.  The keyword seed (spanning mode
# only) starts the best value at min(g, k - 1), g the leaf count of the
# greedy out-branching from the first root, as the search does;
# _greedy_leaves builds that tree as a copy of solver._greedy_parents.

_BNB_MODES = ("spanning", "subtree")


def _greedy_leaves(d: Digraph, root: int) -> int:
    """Leaf count of the tree solver._greedy_parents(d, root) builds."""
    out_neighbors = d.out_neighbors
    in_neighbors = d.in_neighbors
    outside = [d.out_degree(v) for v in range(d.n)]
    joined = [False] * d.n
    joined[root] = True
    for x in in_neighbors(root):
        outside[x] -= 1
    parent: dict[int, int] = {}
    heap = [(-outside[root], root)]
    while heap:
        count, u = heappop(heap)
        if outside[u] != -count:
            if outside[u]:
                heappush(heap, (-outside[u], u))
            continue
        children = [w for w in out_neighbors(u) if not joined[w]]
        for w in children:
            joined[w] = True
            parent[w] = u
            for x in in_neighbors(w):
                outside[x] -= 1
        for w in children:
            if outside[w]:
                heappush(heap, (-outside[w], w))
    return d.n - len(set(parent.values()))


class _BnbBudgetHit(Exception):
    pass


def branch_and_bound_reference(
    d: Digraph,
    k: int,
    mode: str,
    node_budget: int | None = None,
    allow_unknown: bool = False,
    packing: bool = False,
    seed: bool = False,
) -> tuple[SolveResult, int]:
    """The branch and bound that the packing bound tightened, returning
    (result, nodes visited).

    Exact decision by depth-first search over partial out-trees.

    Branches on the smallest vertex that currently has an eligible
    parent in the tree: attach it under each such parent in turn, then
    defer it (banning the parents it just declined).  The bound is the
    current leaf count plus everything still reachable from the tree.

    With a node_budget, exceeding it raises OverBudgetError, unless
    allow_unknown is set, in which case the result has answer None.
    """
    if mode not in _BNB_MODES:
        raise ContractError(f"mode must be one of {_BNB_MODES}, got {mode!r}")
    if k < 1:
        raise ContractError("k must be at least 1")
    if d.n < 1:
        raise ContractError("empty digraph")
    if (packing or seed) and mode != "spanning":
        raise ContractError("packing and seed need spanning mode")
    problem = "dmlob" if mode == "spanning" else "dmlot"
    n = d.n
    full = (1 << n) - 1
    out_mask, in_mask = arc_masks(d)
    comps = strongly_connected_components(d)
    strong = len(comps.components) == 1
    if mode == "spanning":
        sources = source_strong_components(comps)
        if len(sources) != 1:
            return (SolveResult(problem, k, False, 0, False, "branch-and-bound"), 0)
        roots = list(comps.components[sources[0]])
    else:
        roots = list(range(n))

    best = min(_greedy_leaves(d, roots[0]), k - 1) if seed else 0
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
                raise _BnbBudgetHit
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
            if packing:
                inner = sum(1 << u for u in range(n) if child_cnt[u])
                forced = []
                for x in iter_bits(attachable):
                    e = in_mask[x] & ~forbidden[x]
                    if not e:
                        return
                    if not e & inner:
                        forced.append(e)
                forced.sort(key=int.bit_count)
                taken = 0
                packed = 0
                for e in forced:
                    if not e & taken:
                        taken |= e
                        packed += 1
                if leaves + attachable.bit_count() - packed <= best:
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
    except _BnbBudgetHit:
        if not allow_unknown:
            raise OverBudgetError(
                f"branch and bound exceeded {node_budget} nodes"
            ) from None
        unknown = best < k

    if unknown:
        return (SolveResult(problem, k, None, None, None, "branch-and-bound"), nodes)
    if best >= k:
        root, pmap = best_tree
        witness = OutTree(root, pmap, n)
        return (SolveResult(problem, k, True, k, True, "branch-and-bound", witness), nodes)
    return (SolveResult(problem, k, False, best, False, "branch-and-bound"), nodes)


# Region-composed references for the subtree modes.  Both engines answer
# mode "subtree" with one spanning search per region d[R_C]: one per
# strong component C, in the order strongly_connected_components lists
# them, from C's smallest vertex, skipping a one-vertex component with a
# single out-neighbour and a region too small to beat the best value so
# far.  The loop is written out again here, on the spanning references
# above, so the engines are pinned to it without sharing its code.  Each
# returns (result, largest per-region count).


def _regions_reference(d: Digraph):
    """(d[R_C], order) per strong component C; vertex i of d[R_C] is order[i].

    A component that is one vertex with a single out-neighbour is left
    out: its region is no better than that neighbour's."""
    for comp in strongly_connected_components(d).components:
        if len(comp) == 1 and len(d.out_neighbors(comp[0])) == 1:
            continue
        seen = {comp[0]}
        todo = [comp[0]]
        while todo:
            u = todo.pop()
            for w in d.out_neighbors(u):
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        order = tuple(sorted(seen))
        local = {v: i for i, v in enumerate(order)}
        arcs = [(local[u], local[v]) for u, v in d.arcs if u in local and v in local]
        yield Digraph(len(order), arcs), order


def _best_region_reference(d: Digraph, k: int, decide) -> tuple[SolveResult, int]:
    best = 0
    method = "trivial"
    most = 0
    for sub, order in _regions_reference(d):
        if max(1, sub.n - 1) <= best:
            continue
        res, count = decide(sub, order)
        most = max(most, count)
        if res.answer:
            witness = res.witness.relabel(order, d.n)
            return (SolveResult("dmlot", k, True, k, True, res.method, witness), most)
        if res.value > best:
            best = res.value
            method = res.method
    return (SolveResult("dmlot", k, False, best, False, method), most)


def branch_and_bound_regions_reference(d: Digraph, k: int) -> tuple[SolveResult, int]:
    """branch_and_bound_reference in spanning mode on every region,
    returning (result, most nodes one region visited)."""
    return _best_region_reference(
        d, k, lambda sub, order: branch_and_bound_reference(sub, k, "spanning")
    )


def dp_pathwidth_regions_reference(
    d: Digraph, pd: PathDecomposition, cfg: DpConfig, minimal_state: bool = False
) -> tuple[SolveResult, int]:
    """dp_pathwidth_reference in spanning mode on every region, each on
    pd's bags cut down to the region, returning (result, most states one
    region created)."""

    def decide(sub: Digraph, order: tuple[int, ...]) -> tuple[SolveResult, int]:
        local = {v: i for i, v in enumerate(order)}
        bags = [[local[v] for v in bag if v in local] for bag in pd.bags]
        spanning = DpConfig("spanning", cfg.leaf_cap, cfg.width_budget, cfg.table_budget)
        return dp_pathwidth_reference(sub, PathDecomposition(bags), spanning, minimal_state)

    return _best_region_reference(d, cfg.leaf_cap, decide)
