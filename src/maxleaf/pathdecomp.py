"""Path covers, path decompositions, and vertex separation orderings."""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Iterable, Sequence

from .digraph import Digraph, UndirectedGraph
from .errors import ContractError


class PathCover:
    """Vertex-disjoint directed paths that together cover a digraph.

    Disjointness is enforced at construction; coverage and the arc
    condition are checked against a host via validate().
    """

    __slots__ = ("paths", "where")

    def __init__(self, paths: Iterable[Sequence[int]]) -> None:
        self.paths: tuple[tuple[int, ...], ...] = tuple(tuple(p) for p in paths)
        where: dict[int, tuple[int, int]] = {}
        for pi, path in enumerate(self.paths):
            if not path:
                raise ContractError("empty path in cover")
            for pos, v in enumerate(path):
                if v in where:
                    raise ContractError(f"vertex {v} appears on two cover paths")
                where[v] = (pi, pos)
        # where[v] = (path index, position along that path)
        self.where = where

    def validate(self, d: Digraph) -> None:
        """Raise ContractError unless this is a path cover of d."""
        problems: list[str] = []
        covered = set(self.where)
        missing = sorted(set(range(d.n)) - covered)
        alien = sorted(covered - set(range(d.n)))
        if missing:
            problems.append(f"uncovered vertices {missing}")
        if alien:
            problems.append(f"vertices {alien} not in the host")
        for path in self.paths:
            for a, b in zip(path, path[1:]):
                if not d.has_arc(a, b):
                    problems.append(f"({a},{b}) is not an arc of the host")
        if problems:
            raise ContractError("; ".join(problems))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PathCover):
            return NotImplemented
        return self.paths == other.paths

    def __repr__(self) -> str:
        return f"PathCover({list(map(list, self.paths))})"


class PathDecomposition:
    """Ordered bags over an undirected graph.

    Valid when every vertex is in some bag, every edge has both ends in
    a common bag, and the bags containing any one vertex are consecutive.
    """

    __slots__ = ("bags",)

    def __init__(self, bags: Iterable[Iterable[int]]) -> None:
        self.bags: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(set(b))) for b in bags
        )

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1

    def check(self, g: UndirectedGraph) -> None:
        """Raise ContractError unless this is a path decomposition of g.

        Each vertex's bags are collected once.  Two consecutive runs of
        bags share one exactly when they overlap, so an edge costs O(1);
        only an end whose run is already reported as not consecutive
        falls back to intersecting bag lists.  O(total bag size + m)
        when the decomposition is valid.
        """
        problems: list[str] = []
        positions: dict[int, list[int]] = {}
        for j, bag in enumerate(self.bags):
            for v in bag:
                if not 0 <= v < g.n:
                    problems.append(f"bag {j} contains unknown vertex {v}")
                positions.setdefault(v, []).append(j)
        runs: dict[int, tuple[int, int]] = {}  # first and last bag of a consecutive run
        for v in range(g.n):
            idx = positions.get(v)
            if not idx:
                problems.append(f"vertex {v} is in no bag")
            elif idx[-1] - idx[0] + 1 != len(idx):
                problems.append(f"bags containing {v} are not consecutive: {idx}")
            else:
                runs[v] = (idx[0], idx[-1])
        uncovered = []
        for a, b in g.edges:
            ra = runs.get(a)
            rb = runs.get(b)
            if ra is not None and rb is not None:
                shared = max(ra[0], rb[0]) <= min(ra[1], rb[1])
            else:
                shared = not set(positions.get(a, ())).isdisjoint(positions.get(b, ()))
            if not shared:
                uncovered.append((a, b))
        for a, b in sorted(uncovered):
            problems.append(f"edge ({a},{b}) has no common bag")
        if problems:
            raise ContractError("; ".join(problems))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PathDecomposition):
            return NotImplemented
        return self.bags == other.bags

    def __repr__(self) -> str:
        return f"PathDecomposition(width={self.width}, bags={list(map(list, self.bags))})"


def _positions(g: UndirectedGraph, order: Sequence[int]) -> tuple[dict[int, int], list[int]]:
    order = list(order)
    if sorted(order) != list(range(g.n)):
        raise ContractError("ordering is not a permutation of the vertex set")
    pos = {v: i for i, v in enumerate(order)}
    last = [max((pos[w] for w in g.neighbors(v)), default=-1) for v in range(g.n)]
    return pos, last


def vertex_separation(g: UndirectedGraph, order: Sequence[int]) -> int:
    """max over prefixes of the ordering of the number of prefix vertices
    with a neighbor outside the prefix."""
    pos, last = _positions(g, order)
    # vertex v is on the boundary of the first j exactly when pos[v] < j <= last[v]
    diff = [0] * (g.n + 2)
    for v in range(g.n):
        if last[v] > pos[v]:
            diff[pos[v] + 1] += 1
            diff[last[v] + 1] -= 1
    best = 0
    cur = 0
    for j in range(1, g.n + 1):
        cur += diff[j]
        if cur > best:
            best = cur
    return best


def min_frontier_ordering(g: UndirectedGraph) -> list[int]:
    """A vertex ordering of small vertex separation, chosen greedily.

    Call the placed vertices that still have an unplaced neighbor the
    frontier.  Each step places the unplaced vertex that leaves the
    smallest frontier, breaking ties by the most placed neighbors, then
    by the smallest label.  Without the middle tie-break a relabeled
    cycle can come out at separation 3 or more instead of 2.

    Placing v changes the frontier by open(v) - closes(v): open(v) is 1
    when v has an unplaced neighbor, and closes(v) counts the placed
    vertices whose only unplaced neighbor is v.  Every vertex keeps the
    count and the label sum of its unplaced neighbors, so a placed
    vertex down to one names it without a scan.  Keys change only along
    edges and sit in a lazy heap: O((n + m) log n).
    """
    n = g.n
    adj = [g.neighbors(v) for v in range(n)]
    left = [len(a) for a in adj]  # unplaced neighbors
    left_sum = [sum(a) for a in adj]  # their label sum
    placed_nbrs = [0] * n
    closes = [0] * n
    placed = [False] * n

    def key(v: int) -> tuple[int, int, int]:
        return ((left[v] > 0) - closes[v], -placed_nbrs[v], v)

    heap = [key(v) for v in range(n)]
    heapify(heap)
    order: list[int] = []
    while heap:
        entry = heappop(heap)
        v = entry[2]
        if placed[v] or entry != key(v):
            continue  # stale
        placed[v] = True
        order.append(v)
        touched = []
        if left[v] == 1:
            closes[left_sum[v]] += 1
            touched.append(left_sum[v])
        for w in adj[v]:
            left[w] -= 1
            left_sum[w] -= v
            if not placed[w]:
                placed_nbrs[w] += 1
                touched.append(w)
            elif left[w] == 1:
                closes[left_sum[w]] += 1
                touched.append(left_sum[w])
        for w in touched:
            heappush(heap, key(w))
    return order


def ordering_to_path_decomposition(g: UndirectedGraph, order: Sequence[int]) -> PathDecomposition:
    """One bag per position: the vertex there plus every earlier vertex
    that still has a neighbor at this position or later.

    The resulting width equals vertex_separation(g, order).

    One sweep: an insertion-ordered active set gains each vertex after
    its own position and drops it at position last[u] + 1, so the cost
    is O(n + m) plus the total size of the bags.
    """
    _, last = _positions(g, order)
    active: dict[int, None] = {}
    expire: list[list[int]] = [[] for _ in range(g.n + 1)]
    bags = []
    for j, v in enumerate(order):
        for u in expire[j]:
            del active[u]
        bags.append([v, *active])
        if last[v] > j:
            active[v] = None
            expire[last[v] + 1].append(v)
    return PathDecomposition(bags)
