"""Exact maximum-leaf oracles by subset enumeration.

Both routines enumerate candidate internal-vertex sets I as bitmasks.  A
set I works as the internal part of a tree when the induced subdigraph
d[I] itself has a spanning out-tree; attaching every dominated outside
vertex to a parent in I then yields the extreme trees:

* spanning: the best out-branching has n - |I| leaves for the smallest I
  that dominates everything outside it, so the value is n - min |I|.
* unrestricted: for a fixed I, every out-neighbor of I outside I can be
  attached as a leaf, so the value is max |N+(I) \\ I| (at least 1, a
  single vertex being a tree with one leaf).

Guarded at n <= 12 (4096 subsets).
"""

from __future__ import annotations

from .digraph import (
    Digraph,
    arc_masks,
    has_out_branching,
    induced_subdigraph,
    iter_bits,
)
from .errors import InvariantError, OverBudgetError
from .witness import OutTree

ORACLE_MAX_N = 12


def _induces_rooted_tree(out_mask: list[int], members: int) -> bool:
    """True iff some vertex of the mask reaches every other inside it."""
    for r in iter_bits(members):
        reach = 1 << r
        while True:
            grow = reach
            for v in iter_bits(reach):
                grow |= out_mask[v] & members
            if grow == reach:
                break
            reach = grow
        if reach == members:
            return True
    return False


def _tree_from_internal_set(d: Digraph, internal: list[int]) -> OutTree:
    """Out-branching of d[internal] plus every dominated outside vertex
    attached to its smallest in-neighbor inside."""
    from .decompose import find_out_branching

    sub, order = induced_subdigraph(d, internal)
    core = find_out_branching(sub).relabel(order, d.n)
    iset = set(internal)
    parent = dict(core.parent)
    for v in range(d.n):
        if v in iset:
            continue
        inside = [u for u in d.in_neighbors(v) if u in iset]
        if inside:
            parent[v] = inside[0]
    return OutTree(core.root, parent, d.n)


def brute_force_out_branching(
    d: Digraph, max_n: int = ORACLE_MAX_N
) -> tuple[int, OutTree | None]:
    """Exact spanning maximum leaf count with a maximizing witness.

    Returns (0, None) when no out-branching exists.
    """
    if d.n < 1:
        raise ValueError("empty digraph")
    if d.n > max_n:
        raise OverBudgetError(f"brute force limited to n <= {max_n}, got {d.n}")
    if d.n == 1:
        return 1, OutTree(0, {}, 1)
    if not has_out_branching(d):
        return 0, None
    out_mask, in_mask = arc_masks(d)
    full = (1 << d.n) - 1
    by_size: list[list[int]] = [[] for _ in range(d.n + 1)]
    for mask in range(1, full + 1):
        by_size[mask.bit_count()].append(mask)
    for size in range(1, d.n + 1):
        for mask in by_size[size]:
            if any(not in_mask[v] & mask for v in iter_bits(full & ~mask)):
                continue
            if not _induces_rooted_tree(out_mask, mask):
                continue
            tree = _tree_from_internal_set(d, [v for v in iter_bits(mask)])
            value = d.n - size
            if tree.leaf_count != value:
                raise InvariantError(
                    f"oracle witness has {tree.leaf_count} leaves, expected {value}"
                )
            return value, tree
    raise InvariantError("no internal set found despite an out-branching existing")


def brute_force_out_tree(
    d: Digraph, max_n: int = ORACLE_MAX_N
) -> tuple[int, OutTree | None]:
    """Exact maximum leaf count over all out-trees, with a witness."""
    if d.n < 1:
        raise ValueError("empty digraph")
    if d.n > max_n:
        raise OverBudgetError(f"brute force limited to n <= {max_n}, got {d.n}")
    out_mask, _ = arc_masks(d)
    best = 0
    best_mask = 0
    for mask in range(1, 1 << d.n):
        fringe = 0
        for v in iter_bits(mask):
            fringe |= out_mask[v]
        value = (fringe & ~mask).bit_count()
        if value > best and _induces_rooted_tree(out_mask, mask):
            best = value
            best_mask = mask
    if best == 0:
        return 1, OutTree(0, {}, d.n)
    tree = _tree_from_internal_set(d, [v for v in iter_bits(best_mask)])
    if tree.leaf_count != best:
        raise InvariantError(
            f"oracle witness has {tree.leaf_count} leaves, expected {best}"
        )
    return best, tree
