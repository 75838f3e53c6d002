"""Win/win engine: either a many-leaf out-tree or a narrow path decomposition.

decompose(d, k) runs six stages on the breadth-first out-branching of d,
named in its trace: out-branching, path-cover, off-path, trim,
backward-arcs and decomposition.  Each stage either extracts an out-tree
with >= k leaves (the tree itself, off-path out-neighbors, backward arcs
into a prefix) or certifies the structure is small and trims it away;
the leftovers assemble into a path decomposition of the underlying
undirected graph of width at most k**3.

The trim builds no graph: each cover path's piece is read from d's
out-lists with the trimmed arcs left out, as lists of in-neighbor
positions along the path, and the bags are swept from the path order
in d's labels, each sorted once.  The final check reads d's arcs, not
its underlying undirected graph.  trim_around, induced_subdigraph,
underlying_undirected and ordering_to_path_decomposition compute the
same pieces, bags and check the long way; decompose does not call them.

The paper's pipeline, built for any spanning out-tree, also handles
forward arcs: arcs two or more positions ahead along a cover path.  A
breadth-first tree has none, since depth grows by one per step along a
cover path and an arc raises depth by at most one.  The forward-arc
helpers serve other trees; decompose does not call them.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

from .digraph import (
    Digraph,
    _source_root,
    induced_subdigraph,
    source_strong_components,
    strongly_connected_components,
    underlying_undirected,
)
from .errors import ContractError, InvariantError, NoOutBranchingError
from .pathdecomp import PathCover, PathDecomposition, ordering_to_path_decomposition
from .witness import OutTree, validate_out_tree


@dataclass(frozen=True)
class ForwardArc:
    """An arc jumping at least two positions ahead along a host path
    (never along decompose's breadth-first tree)."""

    i: int
    j: int
    tail: int
    head: int

    def __post_init__(self) -> None:
        if self.i > self.j - 2:
            raise ContractError(f"arc at positions ({self.i},{self.j}) is not forward")


class DecomposeOutcome:
    """Result of the pipeline: exactly one of witness or decomposition.

    trace lists the stages traversed, the producing stage last.
    """

    __slots__ = ("k", "witness", "decomposition", "trace")

    def __init__(
        self,
        k: int,
        witness: OutTree | None = None,
        decomposition: PathDecomposition | None = None,
        trace: Sequence[str] = (),
    ) -> None:
        if (witness is None) == (decomposition is None):
            raise ContractError("outcome needs exactly one of witness and decomposition")
        if witness is not None and witness.leaf_count < k:
            raise InvariantError(
                f"witness has {witness.leaf_count} leaves, needs {k}"
            )
        if decomposition is not None and decomposition.width > k**3:
            raise InvariantError(
                f"decomposition width {decomposition.width} exceeds {k**3}"
            )
        self.k = k
        self.witness = witness
        self.decomposition = decomposition
        self.trace = tuple(trace)

    @property
    def is_witness(self) -> bool:
        return self.witness is not None

    def __repr__(self) -> str:
        if self.is_witness:
            return f"DecomposeOutcome(k={self.k}, witness with {self.witness.leaf_count} leaves)"
        return f"DecomposeOutcome(k={self.k}, decomposition of width {self.decomposition.width})"


def find_out_branching(d: Digraph, root: int | None = None) -> OutTree:
    """Spanning out-tree by breadth-first search.

    Without a root, starts from the smallest vertex of the unique source
    strong component, found by graph search (_source_root); when there
    are two or more, the strong components are computed only to name
    the sources in the NoOutBranchingError.
    """
    if root is None:
        root = _source_root(d)
        if root is None:
            comps = strongly_connected_components(d)
            raise NoOutBranchingError(
                [list(comps.components[i]) for i in source_strong_components(comps)]
            )
    elif not 0 <= root < d.n:
        raise ContractError(f"root {root} out of range")
    parent: dict[int, int] = {}
    seen = [False] * d.n
    seen[root] = True
    queue = [root]  # the loop reads the vertices appended while it runs
    for u in queue:
        for v in d._out[u]:
            if not seen[v]:
                seen[v] = True
                parent[v] = u
                queue.append(v)
    if len(queue) < d.n:
        missing = [v for v in range(d.n) if not seen[v]]
        raise ContractError(f"vertices {missing} unreachable from root {root}")
    return OutTree(root, parent, d.n)


def _check_tree_shape(t: OutTree) -> None:
    if not t.is_spanning():
        raise ContractError("tree does not span its host")
    state: dict[int, int] = {t.root: 2}  # 2 = reaches root
    for v in t.vertices:
        chain = []
        x = v
        while state.get(x, 0) == 0:
            state[x] = 1
            chain.append(x)
            if x not in t.parent:
                raise ContractError(f"vertex {x} has no parent and is not the root")
            x = t.parent[x]
        if state[x] == 1:
            raise ContractError(f"parent chain from {v} cycles")
        for y in chain:
            state[y] = 2


def path_cover_from_out_branching(t: OutTree) -> PathCover:
    """Split a spanning out-tree into vertex-disjoint directed paths.

    While the remaining tree branches anywhere, walk from the root to
    the smallest remaining leaf, cut off everything strictly after the
    last vertex of out-degree >= 2 on that walk, and emit the cut piece;
    the final emitted path is what is left.  Produces exactly one path
    per leaf of the input tree.
    """
    _check_tree_shape(t)
    children = {v: list(c) for v, c in t._children.items()}
    parent = dict(t.parent)
    leaves = set(t.leaves)
    branching = sum(len(c) >= 2 for c in children.values())
    paths: list[list[int]] = []
    while branching:
        leaf = min(leaves)
        walk = [leaf]
        while walk[-1] != t.root:
            walk.append(parent[walk[-1]])
        walk.reverse()
        cut = max(i for i, v in enumerate(walk) if len(children.get(v, ())) >= 2)
        segment = walk[cut + 1 :]
        paths.append(segment)
        kids = children[walk[cut]]
        kids.remove(segment[0])
        branching -= len(kids) == 1
        for v in segment:
            children.pop(v, None)
            parent.pop(v, None)
        leaves.discard(leaf)
    chain = [t.root]
    while children.get(chain[-1]):
        chain.append(children[chain[-1]][0])
    paths.append(chain)
    if len(paths) != t.leaf_count:
        raise InvariantError(
            f"cover has {len(paths)} paths for a tree with {t.leaf_count} leaves"
        )
    return PathCover(paths)


def off_path_out_neighbors(d: Digraph, p: Sequence[int]) -> set[int]:
    """Heads of arcs leaving the path, excluding the path's own vertices."""
    on_path = set(p)
    return {w for v in p for w in d.out_neighbors(v) if w not in on_path}


def witness_from_off_path(
    p: Sequence[int],
    w: set[int],
    choice: dict[int, int],
    host_size: int,
) -> OutTree:
    """The path plus one chosen in-arc per off-path vertex; all of w leafs."""
    parent = {b: a for a, b in zip(p, p[1:])}
    for v in sorted(w):
        parent[v] = choice[v]
    return OutTree(p[0], parent, host_size)


def trim_around(d: Digraph, u: set[int], cover: PathCover) -> Digraph:
    """Remove every arc incident to a vertex of u except that vertex's
    own cover-path arcs."""
    for v in u:
        if v not in cover.where:
            raise ContractError(f"vertex {v} is on no cover path")
    path_arcs = {
        (a, b) for path in cover.paths for a, b in zip(path, path[1:])
    }
    kept = [
        (a, b)
        for a, b in d.arcs
        if (a not in u and b not in u) or (a, b) in path_arcs
    ]
    return Digraph(d.n, kept)


def forward_arcs_on_path(d: Digraph, p: Sequence[int]) -> list[ForwardArc]:
    """Arcs between path vertices that jump >= 2 positions forward,
    sorted by position pair; none on a breadth-first tree's cover."""
    pos = {v: i for i, v in enumerate(p)}
    out = []
    for a, b in d.arcs:
        if a in pos and b in pos and pos[a] <= pos[b] - 2:
            out.append(ForwardArc(pos[a], pos[b], a, b))
    out.sort(key=lambda fa: (fa.i, fa.j))
    return out


def forward_arc_heads(fas: Sequence[ForwardArc]) -> set[int]:
    """The heads: the set U2 of a tree that is not breadth-first."""
    return {fa.head for fa in fas}


def reduce_forward_arcs(fas: Sequence[ForwardArc]) -> list[ForwardArc]:
    """Keep one forward arc per head: the shortest, ties by earlier tail."""
    best: dict[int, ForwardArc] = {}
    for fa in fas:
        cur = best.get(fa.head)
        if cur is None or (fa.j - fa.i, fa.i) < (cur.j - cur.i, cur.i):
            best[fa.head] = fa
    out = list(best.values())
    out.sort(key=lambda fa: (fa.i, fa.j))
    return out


def witness_from_forward_arcs(
    p: Sequence[int],
    fas: Sequence[ForwardArc],
    k: int,
    host_size: int,
) -> OutTree | None:
    """Out-tree with >= k leaves from forward arcs, or None.

    Each arc (i,j) spans the interval [i, j-1].  Two shapes are tried:
    a chain of k-1 pairwise disjoint intervals (greedy by right end)
    gives k leaves, and a position covered by k intervals gives a prefix
    path with k attached heads.  With the input reduced to one arc per
    head, one of the two must succeed whenever there are more than
    (k-2)*(k-1) heads.  decompose does not call it (its tree is
    breadth-first).
    """
    if not fas:
        return None
    by_right = sorted(fas, key=lambda fa: (fa.j, fa.i))
    selected: list[ForwardArc] = []
    last_j = -1
    for fa in by_right:
        if fa.i >= last_j:
            selected.append(fa)
            last_j = fa.j
    if len(selected) >= k - 1:
        chosen = selected[: k - 1]
        parent: dict[int, int] = {}
        for fa in chosen:
            parent[p[fa.j]] = p[fa.i]
            parent[p[fa.i + 1]] = p[fa.i]
        for prev, nxt in zip(chosen, chosen[1:]):
            for t in range(prev.j, nxt.i):
                parent[p[t + 1]] = p[t]
        return OutTree(p[chosen[0].i], parent, host_size)
    best_h = None
    for h in range(len(p)):
        if sum(1 for fa in fas if fa.i <= h <= fa.j - 1) >= k:
            best_h = h
            break
    if best_h is not None:
        covering = sorted(
            (fa for fa in fas if fa.i <= best_h <= fa.j - 1),
            key=lambda fa: (fa.j, fa.i),
        )[:k]
        parent = {p[t + 1]: p[t] for t in range(best_h)}
        for fa in covering:
            parent[p[fa.j]] = p[fa.i]
        return OutTree(p[0], parent, host_size)
    if len(fas) > (k - 2) * (k - 1):
        raise InvariantError(
            f"{len(fas)} forward-arc heads admit neither chain nor covered position for k={k}"
        )
    return None


def backward_component_check(
    c: Digraph, p: Sequence[int], k: int
) -> OutTree | list[int]:
    """Either an out-tree with >= k leaves built from backward arcs, or
    the path order as a vertex-separation ordering.

    Looks for the first prefix p[:j] holding k vertices with
    in-neighbors in the matching suffix p[j:]; the suffix path plus one
    such backward arc for each of the first k of them is the witness.
    Otherwise every prefix boundary is small and the path order has
    vertex separation <= k.  Lists each vertex's in-neighbor positions
    and runs _backward_arcs on them.
    """
    if sorted(p) != list(range(c.n)):
        raise ContractError("path does not cover the component")
    pos = {v: i for i, v in enumerate(p)}
    chords = [(a, b) for a, b in c.arcs if pos[b] > pos[a] + 1]
    if chords:
        a, b = min(chords)
        raise ContractError(f"arc ({a},{b}) is a forward chord, not allowed here")
    res = _backward_arcs([sorted(pos[u] for u in c.in_neighbors(v)) for v in p], k)
    if isinstance(res, OutTree):
        return res.relabel(p, c.n)
    return list(p)


def _backward_arcs(ins: list[list[int]], k: int) -> OutTree | list[int]:
    """backward_component_check on a path labelled by position: ins[i]
    lists the in-neighbors of position i in ascending order.  Returns
    the witness on positions 0..q-1, or reach: reach[i] is the last
    position of an in-neighbor of i, -1 for none.

    One sweep: position i is a target of prefix j exactly when
    i < j <= reach[i], so a difference array over j counts the targets
    of every prefix.  A target's parent is its first in-neighbor at j or
    later, found by bisection: O(q + m) in all.
    """
    q = len(ins)
    reach = [inn[-1] if inn else -1 for inn in ins]
    diff = [0] * (q + 1)
    for i, r in enumerate(reach):
        if r > i:
            diff[i + 1] += 1
            diff[r + 1] -= 1
    count = 0
    for j in range(1, q):
        count += diff[j]
        if count >= k:
            parent = {t + 1: t for t in range(j, q - 1)}
            targets = [i for i in range(j) if reach[i] >= j]
            for i in targets[:k]:
                parent[i] = ins[i][bisect_left(ins[i], j)]
            return OutTree(j, parent, q)
    return reach


def decompose(d: Digraph, k: int, root: int | None = None) -> DecomposeOutcome:
    """Either an out-tree of d with >= k leaves, or a path decomposition
    of the underlying undirected graph of width <= k**3, by the six
    stages of the module docstring from root; every bag holds the
    off-path vertices U1, at most (k-1)^2 of them.

    Trim: an arc touching U1 stays only as a cover-path arc (head right
    after tail on its path); every other arc that joins two cover paths
    has an end in U1.  Each path's piece is one pass over its vertices'
    out-lists: for every position, the ascending positions of its
    in-neighbors in the piece and its last out-neighbor position.  An
    arc two or more positions ahead raises InvariantError, since a
    breadth-first tree's cover has none.  Decomposition: along the path
    a vertex is active from just after its own position to the last
    position of a neighbour in the piece, and a position's bag is its
    vertex, the active set and U1 -- the bags of
    ordering_to_path_decomposition on the piece's underlying graph,
    relabelled and joined with U1.  The active set is the ordering's
    vertex separation, at most k.  The result is checked against d
    itself (PathDecomposition.check reads its arcs).  The trace is
    unchanged.

    Needs k >= 2 (for k <= 1 the answer is just whether an out-branching
    exists) and a digraph with an out-branching.  Witnesses are checked
    against the original digraph before being returned; internal bound
    violations raise InvariantError and always indicate a bug.
    """
    if k < 2:
        raise ContractError("decompose needs k >= 2; k <= 1 reduces to out-branching existence")
    trace: list[str] = []

    def witness(t: OutTree) -> DecomposeOutcome:
        report = validate_out_tree(d, t)
        if not report.ok:
            raise InvariantError("bad witness: " + "; ".join(report.errors))
        return DecomposeOutcome(k, witness=t, trace=trace)

    trace.append("out-branching")
    t = find_out_branching(d, root)
    if t.leaf_count >= k:
        return witness(t)

    trace.append("path-cover")
    cover = path_cover_from_out_branching(t)
    try:
        cover.validate(d)
    except ContractError as exc:
        raise InvariantError(f"broken path cover: {exc}") from exc

    trace.append("off-path")
    u1: set[int] = set()
    for path in cover.paths:
        w = off_path_out_neighbors(d, path)
        if len(w) >= k:
            pos = {v: i for i, v in enumerate(path)}
            on_path = set(path)
            choice = {
                v: min(
                    (u for u in d.in_neighbors(v) if u in on_path),
                    key=pos.__getitem__,
                )
                for v in w
            }
            return witness(witness_from_off_path(path, w, choice, d.n))
        u1 |= w

    trace.append("trim")
    if len(u1) > (k - 1) ** 2:
        raise InvariantError(f"|U1| = {len(u1)} exceeds (k-1)^2 = {(k - 1) ** 2}")
    path_of = [0] * d.n
    position = [0] * d.n
    for pi, path in enumerate(cover.paths):
        for i, v in enumerate(path):
            path_of[v] = pi
            position[v] = i

    trace.append("backward-arcs")
    for a, b in d.arcs:
        if path_of[a] != path_of[b] and a not in u1 and b not in u1:
            raise InvariantError(f"arc ({a},{b}) still joins two cover paths")
    pieces = []  # (path, last position of a neighbour in the piece, per position)
    for path in sorted(cover.paths, key=min):
        pi = path_of[path[0]]
        q = len(path)
        ins: list[list[int]] = [[] for _ in range(q)]
        last_out = [-1] * q
        for i, u in enumerate(path):
            trimmed = u in u1
            for v in d._out[u]:
                if path_of[v] != pi:
                    continue
                j = position[v]
                if j == i + 1 or not (trimmed or v in u1):
                    if j > i + 1:
                        raise InvariantError(
                            f"arc ({u},{v}) jumps ahead along its cover path"
                        )
                    ins[j].append(i)
                    if j > last_out[i]:
                        last_out[i] = j
        res = _backward_arcs(ins, k)
        if isinstance(res, OutTree):
            return witness(res.relabel(path, d.n))
        pieces.append((path, list(map(max, last_out, res))))

    trace.append("decomposition")
    bags: list[tuple[int, ...]] = []
    base = sorted(u1)
    for path, last in pieces:
        active = 0  # the size of the active set
        outside: set[int] = set()  # its vertices not in U1
        expire: list[list[int]] = [[] for _ in range(len(path) + 1)]
        separation = 0
        for j, v in enumerate(path):
            for u in expire[j]:
                outside.discard(u)
            active -= len(expire[j])
            if active > separation:
                separation = active
            v_outside = v not in u1
            bag = [*base, *outside, v] if v_outside else [*base, *outside]
            bag.sort()
            bags.append(tuple(bag))
            if last[j] > j:
                active += 1
                if v_outside:
                    outside.add(v)
                expire[last[j] + 1].append(v)
        if separation > k:
            raise InvariantError(
                f"component ordering has separation {separation}, expected <= {k}"
            )
    pd = PathDecomposition._from_sorted(bags)
    try:
        pd.check(d)
    except ContractError as exc:
        raise InvariantError(f"broken decomposition: {exc}") from exc
    return DecomposeOutcome(k, decomposition=pd, trace=trace)

