"""Independent brute-force oracles used only by the test suite.

These deliberately take the dumbest correct route (literal enumeration,
transitive closure, subset DP) so they share no code or ideas with the
package implementations they check.
"""

from __future__ import annotations

from itertools import combinations, permutations, product

from maxleaf.digraph import Digraph, UndirectedGraph
from maxleaf.errors import ContractError
from maxleaf.pathdecomp import PathDecomposition
from maxleaf.witness import OutTree


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
