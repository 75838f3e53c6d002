import random

import pytest

from conftest import cycle, directed_path, out_star, random_digraph
from maxleaf import Digraph, OutTree, validate_out_tree
from maxleaf.decompose import find_out_branching


def test_single_vertex_tree_has_one_leaf():
    t = OutTree(0, {}, 3)
    assert t.vertices == {0}
    assert t.leaves == {0}
    assert t.leaf_count == 1
    assert not t.is_spanning()


def test_leaf_and_child_bookkeeping():
    t = OutTree(0, {1: 0, 2: 0, 3: 1}, 4)
    assert t.children(0) == (1, 2)
    assert t.children(3) == ()
    assert t.leaves == {2, 3}
    assert t.arcs() == [(0, 1), (0, 2), (1, 3)]
    assert t.is_spanning()


def test_vertices_and_leaves_match_the_parent_map():
    rng = random.Random(4)
    trees = [OutTree(5, {}, 9)]
    for _ in range(200):
        n = rng.randint(1, 30)
        perm = list(range(n))
        rng.shuffle(perm)
        # each vertex after the first hangs below an earlier one
        parent = {perm[i]: perm[rng.randrange(i)] for i in range(1, n)}
        trees.append(OutTree(perm[0], parent, n + rng.randint(0, 2)))
    for t in trees:
        vertices = {t.root} | set(t.parent) | set(t.parent.values())
        assert t.vertices == vertices
        assert t.leaves == vertices - set(t.parent.values())
        assert t.leaf_count == len(t.leaves)
        assert t.is_spanning() == (len(vertices) == t.host_size)
    assert trees[0].vertices == trees[0].leaves == {5}


def test_validate_accepts_bfs_tree():
    d = out_star(5)
    t = find_out_branching(d)
    report = validate_out_tree(d, t)
    assert report.ok
    assert report.spanning
    assert report.leaf_count == 4


def test_validate_flags_non_arc_link():
    d = directed_path(3)
    t = OutTree(0, {1: 0, 2: 0}, 3)  # 0->2 is not an arc
    report = validate_out_tree(d, t)
    assert not report.ok
    assert any("not an arc" in e for e in report.errors)


def test_validate_flags_cycle_and_unrooted():
    d = cycle(4)
    t = OutTree(0, {1: 2, 2: 1}, 4)
    report = validate_out_tree(d, t)
    assert not report.ok
    assert any("cycle" in e for e in report.errors)
    t2 = OutTree(0, {3: 2}, 4)
    report2 = validate_out_tree(d, t2)
    assert any("does not reach the root" in e for e in report2.errors)


def test_validate_flags_rooted_parent_and_ranges():
    d = directed_path(3)
    bad_root = OutTree(1, {1: 0, 2: 1}, 3)
    report = validate_out_tree(d, bad_root)
    assert any("root" in e and "parent" in e for e in report.errors)
    off_range = OutTree(0, {5: 0}, 3)
    report2 = validate_out_tree(d, off_range)
    assert any("out of range" in e for e in report2.errors)
    wrong_host = OutTree(0, {1: 0}, 2)
    report3 = validate_out_tree(d, wrong_host)
    assert any("host size" in e for e in report3.errors)


def test_relabel_preserves_shape():
    t = OutTree(0, {1: 0, 2: 1}, 3)
    order = (5, 3, 7)
    lifted = t.relabel(order, 9)
    assert lifted.root == 5
    assert lifted.parent == {3: 5, 7: 3}
    assert lifted.leaf_count == t.leaf_count
    assert lifted.host_size == 9


def test_fuzzed_bfs_trees_validate():
    checked = 0
    for seed in range(80):
        d = random_digraph(seed, 9, 0.3)
        try:
            t = find_out_branching(d)
        except Exception:
            continue
        checked += 1
        report = validate_out_tree(d, t)
        assert report.ok and report.spanning
        # every non-root vertex appears exactly once as a child
        assert set(t.parent) == set(range(9)) - {t.root}
    assert checked > 10


def test_corrupting_a_valid_tree_is_detected():
    d = cycle(6)
    t = find_out_branching(d)
    # redirect one parent pointer to a non-arc
    v = next(iter(t.parent))
    bad = dict(t.parent)
    bad[v] = (bad[v] + 3) % 6 if (bad[v] + 3) % 6 != v else (bad[v] + 2) % 6
    report = validate_out_tree(d, OutTree(t.root, bad, 6))
    assert not report.ok
