"""Rooted out-tree witnesses and their validation.

An OutTree stores a root and a parent map over a subset of the host
digraph's vertices.  Leaves are tree vertices with no child; a single
vertex tree has one leaf, its root.  Construction is permissive on
purpose: validate_out_tree produces the full report, so corrupted
witnesses can be represented and then rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .digraph import Digraph


class OutTree:
    """Immutable rooted tree witness inside a host digraph."""

    __slots__ = ("root", "parent", "host_size", "_children", "_vertices", "_leaves")

    def __init__(self, root: int, parent: Mapping[int, int], host_size: int) -> None:
        self.root = root
        self.parent = dict(parent)
        self.host_size = host_size
        children: dict[int, list[int]] = {}
        for v, p in self.parent.items():
            children.setdefault(p, []).append(v)
        self._children = {p: tuple(sorted(vs)) for p, vs in children.items()}
        self._vertices = frozenset({root, *self.parent.keys(), *self.parent.values()})
        self._leaves = self._vertices.difference(self._children)

    @property
    def vertices(self) -> frozenset[int]:
        return self._vertices

    @property
    def leaves(self) -> frozenset[int]:
        return self._leaves

    @property
    def leaf_count(self) -> int:
        return len(self._leaves)

    def children(self, v: int) -> tuple[int, ...]:
        return self._children.get(v, ())

    def arcs(self) -> list[tuple[int, int]]:
        """Tree arcs as (parent, child) pairs, sorted."""
        return sorted((p, v) for v, p in self.parent.items())

    def is_spanning(self) -> bool:
        return len(self.vertices) == self.host_size

    def relabel(self, order: Sequence[int], host_size: int) -> "OutTree":
        """Map local vertex i to order[i]; used to lift witnesses out of
        induced subdigraphs and cover-path positions."""
        return OutTree(
            order[self.root],
            {order[v]: order[p] for v, p in self.parent.items()},
            host_size,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OutTree):
            return NotImplemented
        return (
            self.root == other.root
            and self.parent == other.parent
            and self.host_size == other.host_size
        )

    def __repr__(self) -> str:
        return (
            f"OutTree(root={self.root}, size={len(self.vertices)}, "
            f"leaves={self.leaf_count})"
        )


@dataclass(frozen=True)
class OutTreeValidation:
    """Result of validating an OutTree against a digraph."""

    ok: bool
    errors: tuple[str, ...]
    leaf_count: int
    spanning: bool


def validate_out_tree(d: Digraph, t: OutTree) -> OutTreeValidation:
    """Check an out-tree against its host digraph.

    Verifies id ranges, that the root has no parent, that every parent
    link is an arc of d, and that following parent links from every tree
    vertex reaches the root without a cycle.  Each violation is reported
    individually.
    """
    errors: list[str] = []
    if t.host_size != d.n:
        errors.append(f"host size {t.host_size} does not match digraph n={d.n}")
    ids = {t.root, *t.parent.keys(), *t.parent.values()}
    for v in sorted(ids):
        if not (0 <= v < d.n):
            errors.append(f"vertex id {v} out of range 0..{d.n - 1}")
    if t.root in t.parent:
        errors.append(f"root {t.root} has a parent")
    for v, p in sorted(t.parent.items()):
        if v == p:
            errors.append(f"self-parent at vertex {v}")
        elif (p, v) not in d.arcs:
            errors.append(f"parent link {p}->{v} is not an arc of the digraph")
    # status: 0 unvisited, 1 in progress, 2 reaches root, 3 fails
    status: dict[int, int] = {}
    for start in sorted(ids):
        if status.get(start, 0) != 0:
            continue
        chain = []
        v = start
        while True:
            st = status.get(v, 0)
            if st == 1:
                errors.append(f"cycle through vertex {v}")
                outcome = 3
                break
            if st:
                outcome = st
                break
            if v == t.root:
                outcome = 2
                break
            if v not in t.parent:
                errors.append(f"vertex {v} does not reach the root")
                outcome = 3
                break
            status[v] = 1
            chain.append(v)
            v = t.parent[v]
        for w in chain:
            status[w] = outcome
    ok = not errors
    return OutTreeValidation(
        ok=ok,
        errors=tuple(errors),
        leaf_count=t.leaf_count,
        spanning=len(ids) == d.n,
    )
