"""Exact engines and drivers for the two maximum-leaf decision problems.

Three engines, equivalent on their common domain:

* branch_and_bound grows partial out-branchings vertex by vertex with
  an optimistic leaf bound; exact on any digraph, used as the fallback.
  The bound drops one leaf per set in a packing of disjoint
  forced-parent sets, and the search starts from the leaf count of the
  greedy out-branching below (see the function's docstring).
* dp_pathwidth runs over a path decomposition of the underlying
  undirected graph; exact, fast when the width is small.
* the brute-force subset oracles live in oracle.py and are only for
  cross-checking at small n.

Both searching engines look for out-branchings only.  Their "subtree"
mode, and solve_dmlot, answer the out-tree question by the region
reduction at the end of this docstring (_best_region): one spanning
search per region, each under the caller's budgets.

solve_dmlob / solve_dmlot first build one greedy out-branching from the
root (_greedy_parents).  The root is the smallest vertex of the source
strong component; graph searches find it (digraph._source_root), and
Tarjan's algorithm runs only when solve_dmlot needs the components of
a digraph that is not strong.  The tree starts from the root alone and
keeps expanding the tree vertex with the most out-neighbours outside
the tree, which takes all of them as children.  That is the greedy
expansion rule for leafy spanning trees (Lu and Ravi, J. Algorithms
1998; Drescher and Vetta, ACM TALG 2010, for digraphs).  The tree spans, since the root
reaches every vertex, and it settles what it can (_settle_by_tree): with
k or more leaves it answers "yes".  Otherwise two upper bounds are
checked.  Vertices whose in-neighbourhoods are pairwise disjoint each
force a distinct internal parent, so a greedy packing P of them caps
every out-branching at n - |P| + 1 leaves (_packing_bound); on a cycle
the tree and the cap are both 1.  The arcs of an out-branching form a
spanning tree of the underlying simple graph U, and its leaves are
leaves of that tree, so it has at most 2 + sum max(0, deg_U(v) - 2)
leaves (_degree_bound); on a double cycle the tree and the cap are both
2.  A tree that meets either cap is optimal and answers "no" in
O((n + m) log n) time.  Every other case goes through one exact chain of
three steps.  First comes a branch-and-bound try under a small work
budget, which settles most small inputs in well under a millisecond.  A
search node costs about n steps, so the try gets _TRY_WORK // n nodes.
A spanning search needs at least n nodes to reach its first complete
tree, so when n^2 > _TRY_WORK the try cannot return and is skipped.
Second, the DP runs on a greedy min-frontier decomposition.  Last,
branch and bound runs under the caller's budget, unless the try already
ran under that budget and overflowed.  The drivers never call
decompose(), the paper's win/win: the greedy tree finds most of its
witnesses, and its decomposition keeps the off-path vertices U1 in every
bag, so the greedy min-frontier one is almost always narrower.

solve_dmlot rests on one fact.  An out-tree rooted at u lies in d[R_u],
the subdigraph induced by the vertices u reaches, and growing it by
breadth-first search into an out-branching of d[R_u] never loses a
leaf: hanging a new vertex under a leaf keeps the count, hanging it
under an internal vertex raises it.  So the out-tree optimum of d is the
largest spanning optimum over the regions d[R_C], one per strong
component C, since all vertices of C reach the same set.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from heapq import heappop, heappush
from itertools import combinations
from typing import Callable, Iterator

from .decompose import (
    decompose,  # not called here: perfbench/spans.py wraps this name
    find_out_branching,
)
from .digraph import (
    Digraph,
    _search,
    _source_root,
    arc_masks,
    in_L_sufficient,  # not called here: perfbench/spans.py wraps this name
    induced_subdigraph,
    reachable_set,
    strongly_connected_components,
    underlying_undirected,
)
from .errors import ContractError, InvariantError, OverBudgetError
from .pathdecomp import (
    PathDecomposition,
    min_frontier_ordering,
    ordering_to_path_decomposition,
)
from .witness import OutTree, validate_out_tree

DEFAULT_WIDTH_BUDGET = 8
DEFAULT_DP_BUDGET = 10_000_000
DEFAULT_BNB_BUDGET = 100_000_000
# search nodes times vertices allowed to the first branch-and-bound try
_TRY_WORK = 20_000

_MODES = ("spanning", "subtree")


@dataclass(frozen=True)
class SolveResult:
    """Answer to one decision instance.

    value is min(exact optimum, k); at_least_k records whether the
    optimum reached k.
    """

    problem: str
    k: int
    answer: bool
    value: int
    at_least_k: bool
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
    """Settings of one dp_pathwidth run.

    mode "spanning" decides dmlob; mode "subtree" decides dmlot by one
    spanning run per region (see the module docstring).  table_budget
    caps the states created by each of those runs.
    """

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


def _best_region(
    d: Digraph,
    k: int,
    decide: Callable[[Digraph, tuple[int, ...], int], SolveResult],
) -> SolveResult:
    """Decide dmlot on d by deciding dmlob on each region d[R_C].

    There is one region per strong component C, in the order
    strongly_connected_components lists them, rooted at C's smallest
    vertex v (see the module docstring).  decide(sub, order, root) gets
    sub = d[R_C], whose vertex i is order[i] in d and whose vertex root
    is v; when C reaches every vertex, sub is d itself and order the
    identity, and when d is strong no search is made for the region.
    It answers whether sub has an out-branching with at least k leaves;
    a "yes" may carry any out-tree of sub with k leaves.

    A region with r vertices holds at most max(1, r - 1) leaves, so a
    region that cannot beat the best value so far is skipped.  So is a
    component that is one vertex v with a single out-neighbour w, before
    its region is built.  Nothing in R_w reaches v, or v would share w's
    strong component, so v is the root of every out-branching of d[R_v]
    and its only child is w.  Cutting v off leaves an out-branching of
    d[R_w] with as many leaves, so w's region is at least as good.  A
    chain of such skips follows the acyclic condensation and ends at a
    component that is not skipped this way, so the best value is
    unchanged.  The first
    "yes" wins, with its witness relabelled into d.  A "no" names the
    engine that found the returned value; every region holds a one-leaf
    tree, so that value is at least 1.
    """
    best = 0
    best_method = "trivial"
    components = strongly_connected_components(d).components
    for comp in components:
        v = comp[0]
        if len(comp) == 1 and d.out_degree(v) == 1:
            continue  # no better than the region of v's out-neighbour
        # a strong digraph is its one component's region
        region = range(d.n) if len(components) == 1 else reachable_set(d, v)
        if max(1, len(region) - 1) <= best:
            continue  # too small to beat the best region so far
        if len(region) == d.n:
            sub, order = d, tuple(range(d.n))
        else:
            sub, order = induced_subdigraph(d, region)
        res = decide(sub, order, order.index(v))
        if res.answer:
            witness = res.witness.relabel(order, d.n)
            return SolveResult("dmlot", k, True, k, True, res.method, witness)
        if res.value > best:
            best = res.value
            best_method = res.method
    return SolveResult("dmlot", k, False, best, False, best_method)


def branch_and_bound(
    d: Digraph,
    k: int,
    mode: str,
    node_budget: int | None = None,
) -> SolveResult:
    """Exact decision by depth-first search over partial out-branchings.

    Mode "spanning" decides dmlob on d.  Mode "subtree" decides dmlot by
    one spanning search per region (see the module docstring), and the
    node_budget applies to each of those searches.

    The search starts from each vertex of the source strong component,
    in label order: _source_root finds its smallest vertex and one
    search against the arcs the rest.  It branches on the smallest
    vertex that currently has an eligible parent in the tree: attach it
    under each such parent in turn, then defer it (banning the parents
    it just declined).  The bound is the current leaf count plus every
    vertex outside the tree, all of which the tree reaches, since each
    root is in the source strong component.

    A packing of forced parents tightens that bound.
    Every vertex x outside the tree must still get a parent, and inside
    this subtree it can only take one from e(x), its in-neighbors not
    banned for it.  If e(x) is empty the subtree holds no out-branching.
    If e(x) misses every tree vertex that already has a child, x's
    parent is a current leaf or a vertex outside the tree, and either
    way a vertex the bound counts as a leaf stops being one.  Vertices
    whose sets e(x) are pairwise disjoint take distinct parents, so a
    greedy packing of c such sets, smallest first, lowers the bound by
    c; when the bound less the number of such sets still beats the
    best, the packing cannot prune and is not built.  The bound only
    prunes subtrees that hold no tree beating the best found so far, so
    the search meets the same improvements in the same order and
    returns the same witness.

    The best value starts at min(g, k - 1), where g is the leaf count of
    the greedy out-branching from the first root (_greedy_parents), so at
    most the optimum.  Every cut compares a bound with the best value,
    so a higher best only cuts more, and what it cuts holds no tree with
    more leaves than the best.  By induction over the nodes, the seeded
    search visits a subset of the nodes of the search that starts at 0,
    in the same order, and at each of them its best value is the larger
    of the seed and that search's best.  Both meet the first tree with
    k or more leaves, more than the seed, at the same node, so a "yes"
    returns the same witness; a "no" returns the optimum, which is at
    least the seed.

    With a node_budget, exceeding it raises OverBudgetError.
    """
    if mode not in _MODES:
        raise ContractError(f"mode must be one of {_MODES}, got {mode!r}")
    if k < 1:
        raise ContractError("k must be at least 1")
    if d.n < 1:
        raise ContractError("empty digraph")
    if mode == "subtree":
        return _best_region(
            d, k, lambda sub, order, root: branch_and_bound(sub, k, "spanning", node_budget)
        )
    n = d.n
    root = _source_root(d)
    if root is None:
        return SolveResult("dmlob", k, False, 0, False, "branch-and-bound")
    roots = sorted(_search(d._in, root, [False] * n))  # the source component
    full = (1 << n) - 1
    _, in_mask = arc_masks(d)

    parents = _greedy_parents(d, root)
    best = min(n - len(set(parents.values())), k - 1)
    best_tree: tuple[int, dict[int, int]] | None = None
    nodes = 0
    parent: dict[int, int] = {}
    child_cnt = [0] * n

    def search(root: int) -> None:
        nonlocal best, best_tree, nodes
        tree = 1 << root
        inner = 0  # tree vertices that have a child
        forbidden = [0] * n

        # rec is a generator: each bare yield asks for a recursive call,
        # which the loop below runs from an explicit stack
        def rec() -> Iterator[None]:
            nonlocal best, best_tree, nodes, tree, inner
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                raise OverBudgetError(f"branch and bound exceeded {node_budget} nodes")
            size = tree.bit_count()
            leaves = size - inner.bit_count()
            if size == n:
                if leaves > best:
                    best = leaves
                    best_tree = (root, dict(parent))
                return
            attachable = full & ~tree
            bound = leaves + attachable.bit_count()
            if bound <= best:
                return
            forced = []
            rest = attachable
            while rest:
                low = rest & -rest
                x = low.bit_length() - 1
                rest ^= low
                e = in_mask[x] & ~forbidden[x]
                if not e:
                    return
                if not e & inner:
                    forced.append(e)
            # the packing lowers the bound by at most len(forced)
            if bound - len(forced) <= best:
                forced.sort(key=int.bit_count)
                taken = 0
                for e in forced:
                    if not e & taken:
                        taken |= e
                        bound -= 1
                if bound <= best:
                    return
            pick = -1
            avail = 0
            rest = attachable
            while rest:
                low = rest & -rest
                v = low.bit_length() - 1
                rest ^= low
                avail = in_mask[v] & tree & ~forbidden[v]
                if avail:
                    pick = v
                    break
            if pick < 0:
                return
            bit = 1 << pick
            rest = avail
            while rest:
                low = rest & -rest
                u = low.bit_length() - 1
                rest ^= low
                parent[pick] = u
                tree |= bit
                child_cnt[u] += 1
                inner |= 1 << u
                yield
                child_cnt[u] -= 1
                if child_cnt[u] == 0:
                    inner &= ~(1 << u)
                tree &= ~bit
                del parent[pick]
                if best >= k:
                    return
            saved = forbidden[pick]
            forbidden[pick] = saved | (in_mask[pick] & tree)
            if in_mask[pick] & ~forbidden[pick]:
                yield
            forbidden[pick] = saved

        stack = [rec()]
        while stack:
            if next(stack[-1], True):
                stack.pop()
            else:
                stack.append(rec())

    for r in roots:
        if best >= k:
            break
        search(r)

    if best >= k:
        root, pmap = best_tree
        witness = OutTree(root, pmap, n)
        return SolveResult("dmlob", k, True, k, True, "branch-and-bound", witness)
    return SolveResult("dmlob", k, False, best, False, "branch-and-bound")


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


# status codes, the low three bits of a DP slot byte (see _dp_spanning)
_OPEN = 1  # in the tree, no parent assigned yet, childless
_OPEN_CH = 2  # same, already has a child
_DONE = 3  # settled: parent assigned, or made the root; childless
_DONE_CH = 4
_ROOT_USED = 1  # flags byte: a root was designated
_MAX_SLOTS = 31  # labels take the five high bits of a slot byte


@lru_cache(maxsize=1024)
def _label_map(merged: int, rank: int) -> bytes:
    """Slot-byte translation table that makes the labels in the bitmask
    merged one piece numbered rank + 1.  The other labels keep their
    order and take the remaining numbers.  Flags bytes map to themselves."""
    table = bytearray(range(256))
    for label in range(1, 32):
        if merged >> label & 1:
            new = rank + 1
        else:
            new = label - (merged & ((1 << label) - 1)).bit_count()
            new += new > rank
        if new >= 32:
            continue  # no key holds 31 pieces and a new one
        for status in range(8):
            table[status | label << 3] = status | new << 3
    return bytes(table)


def dp_pathwidth(d: Digraph, pd: PathDecomposition, cfg: DpConfig) -> SolveResult:
    """Exact decision by dynamic programming along a path decomposition.

    pd must be a path decomposition of d's underlying undirected graph
    no wider than cfg.width_budget.  Mode "spanning" decides dmlob on d.
    Mode "subtree" decides dmlot by one spanning run per region (see the
    module docstring), each on pd restricted to the region: a path
    decomposition of the region's underlying graph, no wider than pd.
    cfg.table_budget applies to each run.

    The width is checked before pd is checked against d, so a pd that
    is too wide raises OverBudgetError without the O(n + m) check, even
    when it is not a path decomposition of d either.
    """
    if pd.width > cfg.width_budget:
        raise OverBudgetError(
            f"decomposition width {pd.width} exceeds budget {cfg.width_budget}"
        )
    if pd.width >= _MAX_SLOTS:
        raise OverBudgetError(f"dp states hold at most {_MAX_SLOTS} bag slots")
    pd.check(d)
    k = cfg.leaf_cap
    if cfg.mode == "subtree":
        return _best_region(
            d,
            k,
            lambda sub, order, root: _dp_spanning(
                sub, _restricted(pd, order), k, cfg.table_budget
            ),
        )
    return _dp_spanning(d, pd, k, cfg.table_budget)


def _restricted(pd: PathDecomposition, order: tuple[int, ...]) -> PathDecomposition:
    """pd restricted to the vertices in order, relabelled as
    induced_subdigraph numbers them: order[i] becomes i."""
    local = {v: i for i, v in enumerate(order)}
    return PathDecomposition([local[v] for v in bag if v in local] for bag in pd.bags)


def _dp_spanning(
    d: Digraph, pd: PathDecomposition, k: int, table_budget: int
) -> SolveResult:
    """The DP behind dp_pathwidth: does d have an out-branching with at
    least k leaves?  pd is already checked against d.

    A state records, per bag vertex, whether it is open (waiting for a
    parent) or settled (parented, or made the root), and whether it has
    a child; the partition of the bag into connected pieces of the
    partial forest; and whether a root was ever designated.  Every bag
    vertex is in the tree, since the tree spans.  Values count leaves
    among forgotten vertices, saturated at k.  A vertex forgotten while
    still open kills the state.  Forgetting the last bag member of a
    piece closes the piece, which can never reconnect; that is only
    allowed at the final step, where it closes the whole tree, so every
    state that survives the final step is a complete out-branching.

    A state is a bytes key: one byte per bag slot, in sorted bag order,
    then a flags byte.  A slot byte is status | label << 3, where the
    label names the vertex's piece.  The pieces are labelled 1, 2, ...
    in the order of their first slot, so each partition has exactly one
    labelling.  Merging pieces on introduce, and dropping a piece's
    first member on forget, renumber the labels with one
    bytes.translate.
    """
    steps = _nice_steps(pd)
    final = len(steps) - 1

    bag: list[int] = []
    # key -> (value, move chain); a move is (v, parent or -1/-2, adopted)
    states: dict[bytes, tuple[int, tuple | None]] = {bytes([0]): (0, None)}
    created = 1

    for step, (op, v) in enumerate(steps):
        new_states: dict[bytes, tuple[int, tuple | None]] = {}

        def put(key: bytes, value: int, chain: tuple | None) -> None:
            nonlocal created
            cur = new_states.get(key)
            if cur is None:
                created += 1
                new_states[key] = (value, chain)
            elif value > cur[0]:
                new_states[key] = (value, chain)

        if op == "+":
            vi = bisect_left(bag, v)
            out_slots = [i for i, w in enumerate(bag) if d.has_arc(v, w)]
            in_slots = [i for i, u in enumerate(bag) if d.has_arc(u, v)]
            # open slots -> their adoptable subsets, in combinations order
            adoptions: dict[tuple[int, ...], list[tuple[tuple[int, ...], tuple[int, ...]]]] = {}
            for key, (value, chain) in states.items():
                open_ws = tuple(i for i in out_slots if key[i] & 7 <= _OPEN_CH)
                subsets = adoptions.get(open_ws)
                if subsets is None:
                    subsets = adoptions[open_ws] = [
                        (adopted, tuple(bag[i] for i in adopted))
                        for r in range(len(open_ws) + 1)
                        for adopted in combinations(open_ws, r)
                    ]
                parent_opts = [-1]
                if not key[-1] & _ROOT_USED:
                    parent_opts.append(-2)
                parent_opts.extend(in_slots)
                before = max(key[:vi], default=0) >> 3  # pieces that start left of v
                for parent in parent_opts:
                    pmask = 1 << (key[parent] >> 3) if parent >= 0 else 0
                    pv = bag[parent] if parent >= 0 else parent
                    code = _OPEN if parent == -1 else _DONE
                    for adopted, adopted_vs in subsets:
                        amask = 0
                        for i in adopted:
                            amask |= 1 << (key[i] >> 3)
                        if amask & pmask:
                            continue  # v's parent would descend from an adoptee
                        merged = amask | pmask
                        low = (merged & -merged).bit_length() - 1
                        rank = low - 1 if 0 < low <= before else before
                        b = bytearray(key.translate(_label_map(merged, rank)))
                        for i in adopted:
                            b[i] += _DONE - _OPEN
                        if parent >= 0 and b[parent] & 1:
                            b[parent] += 1
                        b.insert(vi, (code + 1 if adopted else code) | (rank + 1) << 3)
                        if parent == -2:
                            b[-1] |= _ROOT_USED
                        put(bytes(b), value, ((v, pv, adopted_vs), chain))
        else:
            vi = bag.index(v)
            last = len(bag) - 1
            for key, (value, chain) in states.items():
                slot = key[vi]
                st = slot & 7
                if st <= _OPEN_CH:
                    continue  # an open vertex can never get a parent once forgotten
                rest = key[:vi] + key[vi + 1 :]
                value2 = min(value + 1, k) if st == _DONE else value
                label = slot >> 3
                if max(key[:vi], default=0) >> 3 < label:
                    # v is the first slot of its piece
                    nxt = next((j for j in range(vi, last) if rest[j] >> 3 == label), -1)
                    if nxt < 0:
                        # the piece closes; before the final step the rest
                        # could never reconnect to it
                        if step < final:
                            continue
                    else:
                        # the piece now starts at nxt, after the pieces that
                        # start between the two
                        top = max(rest[vi:nxt], default=0) >> 3
                        if top > label:
                            rest = rest.translate(_label_map(1 << label, top - 1))
                put(rest, value2, chain)

        if created > table_budget:
            raise OverBudgetError(f"dp table exceeded {table_budget} states")
        if op == "+":
            bag.insert(vi, v)
        else:
            bag.pop(vi)
        states = new_states

    if not states:
        return SolveResult("dmlob", k, False, 0, False, "dp")
    ((value, chain),) = states.values()  # the closed tree's flags byte is the only key
    if value < k:
        return SolveResult("dmlob", k, False, value, False, "dp")
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
        raise InvariantError("final dp state has no designated root")
    witness = OutTree(root, parent_map, d.n)
    report = validate_out_tree(d, witness)
    if not report.ok or witness.leaf_count < k:
        raise InvariantError("dp reconstruction produced a bad witness: " + "; ".join(report.errors))
    return SolveResult("dmlob", k, True, k, True, "dp", witness)


def _packing_bound(d: Digraph, root: int) -> int:
    """Upper bound on the leaves of any out-branching of d: n - |P| + 1,
    or n - |P| when the vertex root has in-degree 0.

    P is built greedily: the vertices in order of in-degree, ties by
    label, each taken when its in-neighbourhood is non-empty and misses
    every in-neighbourhood taken so far.  In an out-branching, each
    member of P other than the root takes its parent from its own
    in-neighbourhood.  Those sets are pairwise disjoint, so the parents
    are distinct, and each has a child, so each is internal.  At least
    |P| - 1 vertices are therefore internal, and at most n - |P| + 1
    are leaves.

    When root has in-degree 0 no vertex can be its parent, so it is the
    root of every out-branching of d; and it never enters P, whose
    members have non-empty in-neighbourhoods.  Then every member of P
    takes a distinct internal parent, and at most n - |P| vertices are
    leaves.
    """
    in_lists = d._in
    taken: set[int] = set()
    packed = 0
    for x in sorted(range(d.n), key=[len(ins) for ins in in_lists].__getitem__):
        ins = in_lists[x]
        if ins and taken.isdisjoint(ins):
            taken.update(ins)
            packed += 1
    if not in_lists[root]:
        return d.n - packed
    return d.n - packed + 1


def _degree_bound(d: Digraph, cap: int) -> int:
    """Upper bound on the leaves of any out-branching of d: 2 plus the
    sum over v of max(0, deg_U(v) - 2), where U is the underlying simple
    graph (a 2-cycle is one edge), when that is at most cap.  Summing
    stops once the total passes cap, so a larger bound returns some
    value above cap.

    The arcs of an out-branching form a spanning tree T of U.  A tree
    on n >= 2 vertices has exactly 2 + sum max(0, deg_T(v) - 2) leaves,
    and deg_T(v) <= deg_U(v).  Every leaf of the out-branching has
    degree 1 in T, so it is a leaf of T.  On one vertex the bound is 2.
    """
    total = 2
    for v in range(d.n):
        total += max(0, len({*d.out_neighbors(v), *d.in_neighbors(v)}) - 2)
        if total > cap:
            break
    return total


def _greedy_parents(d: Digraph, root: int) -> dict[int, int]:
    """Parent map of a leafy out-branching of d from root, a vertex that
    reaches all of d.

    Starting from root alone, the tree vertex with the most out-neighbours
    outside the tree (ties to the smaller label) takes all of them as
    children, until no tree vertex has one; the tree then spans.  Each
    vertex keeps its count of out-neighbours outside the tree, lowered for
    every in-neighbour of a vertex that joins.  Counts only fall, so a heap
    entry whose count is out of date is pushed again with the current one:
    O((n + m) log n) in all.
    """
    out_neighbors = d._out
    in_neighbors = d._in
    outside = [len(ws) for ws in out_neighbors]
    joined = [False] * d.n
    joined[root] = True
    for x in in_neighbors[root]:
        outside[x] -= 1
    parent: dict[int, int] = {}
    heap = [(-outside[root], root)]
    while heap:
        count, u = heappop(heap)
        if outside[u] != -count:
            if outside[u]:
                heappush(heap, (-outside[u], u))
            continue
        children = [w for w in out_neighbors[u] if not joined[w]]
        for w in children:
            joined[w] = True
            parent[w] = u
            for x in in_neighbors[w]:
                outside[x] -= 1
        for w in children:
            if outside[w]:
                heappush(heap, (-outside[w], w))
    return parent


def _settle_by_tree(d: Digraph, k: int, root: int) -> SolveResult | None:
    """Decide dmlob on d by the greedy out-branching from root, a vertex
    that reaches all of d, when that tree settles it; else return None.

    A tree with k or more leaves answers "yes", with method
    "greedy-tree" and the tree as its witness.  A tree that meets an
    upper bound is optimal, so it answers "no", with method "bound" and
    its leaf count as the value.  The bounds are _packing_bound(d, root),
    which settles cycles and directed paths (both are 1), and then
    _degree_bound, which settles double cycles (both are 2); the second
    is computed only when the first does not settle.  The tree spans,
    so its leaves are the vertices that are no one's parent, and an
    OutTree is built only for a "yes".
    """
    parent = _greedy_parents(d, root)
    leaves = d.n - len(set(parent.values()))
    if leaves >= k:
        tree = OutTree(root, parent, d.n)
        return SolveResult("dmlob", k, True, k, True, "greedy-tree", tree)
    if leaves >= _packing_bound(d, root) or leaves >= _degree_bound(d, leaves):
        return SolveResult("dmlob", k, False, leaves, False, "bound")
    return None


def _decide_with_engines(
    d: Digraph,
    k: int,
    width_budget: int,
    dp_budget: int,
    bnb_budget: int | None,
) -> SolveResult:
    """The exact chain of the module docstring, deciding dmlob on d.

    Both callers run _settle_by_tree first, so the chain starts at the
    branch-and-bound try.  The try's node budget is _TRY_WORK // n,
    capped by bnb_budget, and a try that could not reach n nodes is
    skipped.  The DP runs on the greedy min-frontier
    decomposition of d; one wider than width_budget, or a table over
    dp_budget, raises OverBudgetError inside dp_pathwidth and passes on
    to branch and bound.  A try that already ran under bnb_budget and
    overflowed is not repeated: if the DP does not decide either, its
    OverBudgetError is raised.
    """
    n = d.n
    tries = _TRY_WORK // n
    if bnb_budget is not None:
        tries = min(tries, bnb_budget)
    overflow = None
    if tries >= n:
        try:
            return branch_and_bound(d, k, "spanning", node_budget=tries)
        except OverBudgetError as exc:
            if tries == bnb_budget:
                overflow = exc
    g = underlying_undirected(d)
    pd = ordering_to_path_decomposition(g, min_frontier_ordering(g))
    try:
        return dp_pathwidth(d, pd, DpConfig("spanning", k, width_budget, dp_budget))
    except OverBudgetError:
        pass
    if overflow is not None:
        raise overflow
    return branch_and_bound(d, k, "spanning", node_budget=bnb_budget)


def _check_budgets(width_budget: int, dp_budget: int, bnb_budget: int | None) -> None:
    if width_budget < 0:
        raise ContractError("width_budget must be at least 0")
    if dp_budget < 1:
        raise ContractError("dp_budget must be at least 1")
    if bnb_budget is not None and bnb_budget < 0:
        raise ContractError("bnb_budget must be None or at least 0")


def solve_dmlob(
    d: Digraph,
    k: int,
    width_budget: int = DEFAULT_WIDTH_BUDGET,
    dp_budget: int = DEFAULT_DP_BUDGET,
    bnb_budget: int | None = DEFAULT_BNB_BUDGET,
) -> SolveResult:
    """Decide whether some spanning out-tree of d has at least k leaves.

    Exact for every digraph.  The root is the smallest vertex of the
    source strong component, found by graph search without computing the
    strong components (_source_root); the chain's branch and bound finds
    it again the same way.  The greedy
    out-branching from that root comes first (_settle_by_tree): it
    answers "yes" when it has k leaves and "no" when it meets the
    packing bound or the degree bound.  Every other case goes to the
    exact chain.  The budgets are checked on entry, whichever step
    decides.
    """
    if k < 1:
        raise ContractError("k must be at least 1")
    if d.n < 1:
        raise ContractError("empty digraph")
    _check_budgets(width_budget, dp_budget, bnb_budget)
    root = _source_root(d)
    if root is None:
        return SolveResult("dmlob", k, False, 0, False, "trivial")
    if k == 1:
        t = find_out_branching(d, root)
        return SolveResult("dmlob", k, True, 1, True, "trivial", t)
    settled = _settle_by_tree(d, k, root)
    if settled is not None:
        return settled
    return _decide_with_engines(d, k, width_budget, dp_budget, bnb_budget)


def solve_dmlot(
    d: Digraph,
    k: int,
    width_budget: int = DEFAULT_WIDTH_BUDGET,
    dp_budget: int = DEFAULT_DP_BUDGET,
    bnb_budget: int | None = DEFAULT_BNB_BUDGET,
) -> SolveResult:
    """Decide whether d has any out-tree with at least k leaves.

    The answer is the best spanning answer over the regions d[R_C] (see
    _best_region).  Each region is first settled, when it can be, by its
    greedy out-branching from the region's root (_settle_by_tree); a
    tree with k leaves is already an out-tree of d.  Otherwise the exact
    chain decides the region in spanning mode, under the caller's
    budgets, which are checked on entry.
    """
    if k < 1:
        raise ContractError("k must be at least 1")
    if d.n < 1:
        raise ContractError("empty digraph")
    _check_budgets(width_budget, dp_budget, bnb_budget)
    if k == 1:
        return SolveResult("dmlot", k, True, 1, True, "trivial", OutTree(0, {}, d.n))

    def decide(sub: Digraph, order: tuple[int, ...], root: int) -> SolveResult:
        settled = _settle_by_tree(sub, k, root)
        if settled is not None:
            return settled
        return _decide_with_engines(sub, k, width_budget, dp_budget, bnb_budget)

    return _best_region(d, k, decide)
