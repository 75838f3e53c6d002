"""Digraph data model, text format I/O and structural queries.

Vertices are dense integer ids 0..n-1.  Arcs are ordered pairs (tail, head)
with no self-loops and no parallel arcs; the opposite pair may coexist (a
directed 2-cycle).  A digraph without 2-cycles is called oriented.  The text
format (parse_digraph / write_digraph) is 1-indexed; everything in the API
is 0-indexed.

All values here are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable

from .errors import OverBudgetError, ParseError

Arc = tuple[int, int]


class Digraph:
    """Immutable simple digraph on vertices 0..n-1."""

    __slots__ = ("n", "arcs", "_out", "_in")

    def __init__(self, n: int, arcs: Iterable[Arc]) -> None:
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        arc_set: set[Arc] = set()
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            arc_set.add((u, v))
        self._fill(n, arc_set)

    @classmethod
    def _from_checked(cls, n: int, arc_set: set[Arc]) -> Digraph:
        """Digraph on n vertices whose arcs are already known to be in
        range and free of self-loops: the checks of __init__ are skipped."""
        d = cls.__new__(cls)
        d._fill(n, arc_set)
        return d

    def _fill(self, n: int, arc_set: set[Arc]) -> None:
        self.n = n
        self.arcs = frozenset(arc_set)
        out: list[list[int]] = [[] for _ in range(n)]
        inn: list[list[int]] = [[] for _ in range(n)]
        for u, v in sorted(arc_set):
            out[u].append(v)
            inn[v].append(u)
        self._out = tuple(tuple(vs) for vs in out)
        self._in = tuple(tuple(us) for us in inn)

    @property
    def m(self) -> int:
        return len(self.arcs)

    def out_neighbors(self, v: int) -> tuple[int, ...]:
        return self._out[v]

    def in_neighbors(self, v: int) -> tuple[int, ...]:
        return self._in[v]

    def out_degree(self, v: int) -> int:
        return len(self._out[v])

    def in_degree(self, v: int) -> int:
        return len(self._in[v])

    def has_arc(self, u: int, v: int) -> bool:
        return (u, v) in self.arcs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.n == other.n and self.arcs == other.arcs

    def __hash__(self) -> int:
        return hash((self.n, self.arcs))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, m={self.m})"


class UndirectedGraph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "edges", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]) -> None:
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        edge_set: set[tuple[int, int]] = set()
        for a, b in edges:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a},{b}) out of range for n={n}")
            if a == b:
                raise ValueError(f"self-loop at vertex {a}")
            edge_set.add((a, b) if a < b else (b, a))
        self.n = n
        self.edges = frozenset(edge_set)
        adj: list[list[int]] = [[] for _ in range(n)]
        for a, b in sorted(edge_set):
            adj[a].append(b)
            adj[b].append(a)
        self._adj = tuple(tuple(vs) for vs in adj)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UndirectedGraph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"UndirectedGraph(n={self.n}, m={len(self.edges)})"


@dataclass(frozen=True)
class Condensation:
    """Strong components plus the acyclic component-level digraph.

    components are sorted internally and ordered by smallest member, so the
    result is canonical for a given digraph.  component_of maps each vertex
    to its component index.
    """

    components: tuple[tuple[int, ...], ...]
    dag_arcs: frozenset[tuple[int, int]]
    component_of: tuple[int, ...]


def parse_digraph(text: str | bytes) -> Digraph:
    """Parse the 1-indexed text format.

    Lines: ``c <comment>``, ``p dig <n> <m>`` (exactly once, first
    non-comment line), ``a <u> <v>`` with 1 <= u,v <= n and u != v; exactly
    m arc lines.  Duplicate arc lines collapse to one arc with a warning;
    self-loops and malformed lines raise ParseError naming the line.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    n = -1
    declared_m = 0
    arc_lines = 0
    arcs: set[Arc] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens:
            raise ParseError("blank line", lineno)
        kind = tokens[0]
        if kind == "c":
            continue
        if kind == "p":
            if n >= 0:
                raise ParseError("duplicate problem line", lineno)
            if len(tokens) != 4 or tokens[1] != "dig":
                raise ParseError("malformed problem line, expected 'p dig <n> <m>'", lineno)
            try:
                n = int(tokens[2])
                declared_m = int(tokens[3])
            except ValueError:
                raise ParseError("non-integer counts in problem line", lineno) from None
            if n < 0 or declared_m < 0:
                raise ParseError("negative counts in problem line", lineno)
            continue
        if kind == "a":
            if n < 0:
                raise ParseError("arc line before problem line", lineno)
            if len(tokens) != 3:
                raise ParseError("malformed arc line, expected 'a <u> <v>'", lineno)
            try:
                u = int(tokens[1])
                v = int(tokens[2])
            except ValueError:
                raise ParseError("non-integer vertex id", lineno) from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"vertex id out of range 1..{n}", lineno)
            if u == v:
                raise ParseError(f"self-loop at vertex {u}", lineno)
            arc_lines += 1
            if arc_lines > declared_m:
                raise ParseError(f"more than the declared {declared_m} arc lines", lineno)
            arc = (u - 1, v - 1)
            if arc in arcs:
                warnings.warn(f"line {lineno}: duplicate arc {u}->{v} collapsed", stacklevel=2)
            arcs.add(arc)
            continue
        raise ParseError(f"unknown line type {kind!r}", lineno)
    if n < 0:
        raise ParseError("missing problem line")
    if arc_lines != declared_m:
        raise ParseError(f"expected {declared_m} arc lines, found {arc_lines}")
    return Digraph._from_checked(n, arcs)


def write_digraph(d: Digraph) -> str:
    """Serialize to the text format; arcs sorted by (tail, head)."""
    lines = [f"p dig {d.n} {d.m}"]
    for u, v in sorted(d.arcs):
        lines.append(f"a {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


def _search(adj: tuple[tuple[int, ...], ...], start: int, seen: list[bool]) -> list[int]:
    """Vertices reachable from start along the lists adj (d._out, or
    d._in to search against the arcs) that seen does not mark yet;
    marks them in seen."""
    seen[start] = True
    found = [start]
    todo = [start]
    while todo:
        for w in adj[todo.pop()]:
            if not seen[w]:
                seen[w] = True
                found.append(w)
                todo.append(w)
    return found


def _source_root(d: Digraph) -> int | None:
    """Smallest vertex of the unique source strong component of d; None
    when there is none, that is, when d has no out-branching.

    A search starts from each vertex not yet seen, in label order, and
    marks what it reaches.  Suppose d has a unique source component S,
    so every vertex of S reaches all of d.  No vertex outside S reaches
    S, so the first search that marks a vertex of S starts in S.  It
    marks every vertex still unseen, so it is the last search.  Hence,
    when the last start does not reach every vertex, d has no unique
    source component.  When it does, every vertex that reaches it lies
    in its strong component, which is then the unique source component,
    and a search against the arcs finds its smallest vertex.  When
    vertex 0 reaches all of d, the first search is the only one.
    """
    n = d.n
    seen = [False] * n
    last = -1
    for v in range(n):
        if not seen[v]:
            last = v
            _search(d._out, v, seen)
    if last <= 0:
        return None if last < 0 else 0
    if len(_search(d._out, last, [False] * n)) < n:
        return None
    return min(_search(d._in, last, [False] * n))


def strongly_connected_components(d: Digraph) -> Condensation:
    """Strong components and their condensation, in canonical order.

    When two searches from vertex 0, one along the arcs and one against
    them, both reach every vertex, d is strong: one component, no
    condensation arcs.  Otherwise Tarjan's algorithm runs (_tarjan).
    """
    n = d.n
    reaches_all = n > 0 and len(_search(d._out, 0, [False] * n)) == n
    if reaches_all and len(_search(d._in, 0, [False] * n)) == n:
        return Condensation((tuple(range(n)),), frozenset(), (0,) * n)
    return _tarjan(d)


def _tarjan(d: Digraph) -> Condensation:
    """Tarjan's algorithm, iterative; canonical component order."""
    n = d.n
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comp_of = [-1] * n
    raw_components: list[list[int]] = []
    counter = 0
    for start in range(n):
        if index[start] != -1:
            continue
        # frame: (vertex, iterator position over out-neighbors)
        work: list[list[int]] = [[start, 0]]
        while work:
            frame = work[-1]
            v, pos = frame
            if pos == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            out = d.out_neighbors(v)
            while frame[1] < len(out):
                w = out[frame[1]]
                frame[1] += 1
                if index[w] == -1:
                    work.append([w, 0])
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            if low[v] == index[v]:
                comp: list[int] = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                raw_components.append(comp)
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    ordered = sorted((sorted(c) for c in raw_components), key=lambda c: c[0])
    for ci, comp in enumerate(ordered):
        for v in comp:
            comp_of[v] = ci
    dag = frozenset(
        (comp_of[u], comp_of[v]) for u, v in d.arcs if comp_of[u] != comp_of[v]
    )
    return Condensation(tuple(tuple(c) for c in ordered), dag, tuple(comp_of))


def source_strong_components(c: Condensation) -> list[int]:
    """Indices of components with no incoming condensation arc."""
    has_in = {b for _, b in c.dag_arcs}
    return [i for i in range(len(c.components)) if i not in has_in]


def has_out_branching(d: Digraph) -> bool:
    """True iff the condensation has exactly one source strong component,
    decided by graph search (_source_root)."""
    if d.n < 1:
        raise ValueError("empty digraph")
    return _source_root(d) is not None


def reachable_set(d: Digraph, v: int) -> set[int]:
    """Vertices reachable from v, including v."""
    if not (0 <= v < d.n):
        raise ValueError(f"vertex {v} out of range")
    seen = {v}
    todo = [v]
    while todo:
        u = todo.pop()
        for w in d.out_neighbors(u):
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def induced_subdigraph(d: Digraph, s: Iterable[int]) -> tuple[Digraph, tuple[int, ...]]:
    """Induced subdigraph on s, relabeled 0..|s|-1.

    Returns (subdigraph, order) where order[i] is the original id of the
    new vertex i; the new ids follow ascending original ids.
    """
    order = tuple(sorted(set(s)))
    for v in order:
        if not (0 <= v < d.n):
            raise ValueError(f"vertex {v} out of range")
    local = {v: i for i, v in enumerate(order)}
    arcs = {
        (i, local[v])
        for i, u in enumerate(order)
        for v in d._out[u]
        if v in local
    }
    return Digraph._from_checked(len(order), arcs), order


def iter_bits(mask: int):
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask &= mask - 1


def arc_masks(d: Digraph) -> tuple[list[int], list[int]]:
    """Per vertex, the bitmask of its out-neighbors and of its in-neighbors."""
    out_mask = [0] * d.n
    in_mask = [0] * d.n
    for u, v in d.arcs:
        out_mask[u] |= 1 << v
        in_mask[v] |= 1 << u
    return out_mask, in_mask


def underlying_undirected(d: Digraph) -> UndirectedGraph:
    """Forget orientation; opposite arc pairs collapse to one edge."""
    return UndirectedGraph(d.n, ((u, v) for u, v in d.arcs))


def in_L_sufficient(d: Digraph) -> bool:
    """Sufficient condition for membership in the solvable family.

    True iff for every pair of distinct strong components R, Q with an arc
    from R to Q, every vertex of Q has an in-neighbor in R.  Holds for all
    strong and all acyclic digraphs; sufficient but not necessary.
    """
    cond = strongly_connected_components(d)
    comp_sets = [set(c) for c in cond.components]
    for a, b in cond.dag_arcs:
        ra = comp_sets[a]
        for v in cond.components[b]:
            if not any(u in ra for u in d.in_neighbors(v)):
                return False
    return True


def in_L_exact(d: Digraph, budget: int = 12) -> bool:
    """Exact family membership: no out-branching at all, or the spanning
    and unrestricted maximum leaf counts coincide.  Brute force; refuses
    digraphs larger than the budget."""
    if d.n > budget:
        raise OverBudgetError(f"in_L_exact: n={d.n} exceeds budget {budget}")
    from .oracle import brute_force_out_branching, brute_force_out_tree

    ls_value, _ = brute_force_out_branching(d)
    if ls_value == 0:
        return True
    l_value, _ = brute_force_out_tree(d)
    return ls_value == l_value


def min_in_degree(d: Digraph) -> int:
    if d.n < 1:
        raise ValueError("empty digraph")
    return min(d.in_degree(v) for v in range(d.n))


def is_oriented(d: Digraph) -> bool:
    """True iff no directed 2-cycle exists."""
    return all((v, u) not in d.arcs for u, v in d.arcs)
