"""Independent checkers for the JSON artifacts the benchmark receives.

They read the 1-indexed JSON that maxleaf emits and test it against the
arc set the benchmark generated itself.  Nothing here calls maxleaf:
validate_out_tree and PathDecomposition.check are timed program code, so
re-using them would let a fault in them pass unnoticed.

Every checker returns a list of error strings; an empty list means the
artifact is valid.
"""

from __future__ import annotations

import copy


def check_witness(obj, n: int, arcs: set, k: int, spanning: bool) -> list:
    """Out-tree JSON against the 1-indexed arc set of an n-vertex digraph.

    Checks that every parent link is an arc, that every tree vertex
    reaches the root without a cycle, that the tree has at least k
    leaves (and as many as it declares), and, with spanning, that it
    holds all n vertices.
    """
    if not isinstance(obj, dict) or obj.get("type") != "out-tree":
        return ["not an out-tree object"]
    errors = []
    root = obj.get("root")
    raw = obj.get("parent")
    if not isinstance(root, int) or not isinstance(raw, dict):
        return ["malformed root or parent map"]
    parent = {}
    for key, p in raw.items():
        v = int(key)
        if not isinstance(p, int) or not (1 <= v <= n and 1 <= p <= n):
            errors.append(f"vertex id out of range in {key}->{p}")
            continue
        parent[v] = p
    if not 1 <= root <= n:
        errors.append(f"root {root} out of range")
    if root in parent:
        errors.append(f"root {root} has a parent")
    for v, p in parent.items():
        if (p, v) not in arcs:
            errors.append(f"parent link {p}->{v} is not an arc")
    # 1 = on the current walk, 2 = known to reach the root
    state = {root: 2}
    for start in parent:
        walk = []
        v = start
        while state.get(v, 0) == 0:
            state[v] = 1
            walk.append(v)
            if v not in parent:
                errors.append(f"vertex {v} does not reach the root")
                break
            v = parent[v]
        else:
            if state[v] == 1:
                errors.append(f"cycle through vertex {v}")
        for w in walk:
            state[w] = 2
    internal = set(parent.values())
    vertices = {root, *parent, *internal}
    leaves = len(vertices - internal)
    if leaves < k:
        errors.append(f"{leaves} leaves, needs {k}")
    if obj.get("leaves") != leaves:
        errors.append(f"declares {obj.get('leaves')} leaves, has {leaves}")
    if spanning and len(vertices) != n:
        errors.append(f"spans {len(vertices)} of {n} vertices")
    return errors


def check_decomposition(obj, n: int, arcs: set, max_width: int) -> list:
    """Path-decomposition JSON against the 1-indexed arc set, in linear time.

    Each vertex must lie in a run of consecutive bags.  Given that, two
    vertices share a bag exactly when their runs overlap, so one
    interval test per arc checks every edge.
    """
    if not isinstance(obj, dict) or obj.get("type") != "path-decomposition":
        return ["not a path-decomposition object"]
    bags = obj.get("bags")
    if not isinstance(bags, list):
        return ["bags is not a list"]
    errors = []
    first = {}
    last = {}
    count = {}
    size = 0
    for j, bag in enumerate(bags):
        size = max(size, len(bag))
        if len(set(bag)) != len(bag):
            errors.append(f"bag {j} repeats a vertex")
        for v in bag:
            if not isinstance(v, int) or not 1 <= v <= n:
                errors.append(f"bag {j} holds unknown vertex {v!r}")
                continue
            first.setdefault(v, j)
            last[v] = j
            count[v] = count.get(v, 0) + 1
    for v in range(1, n + 1):
        if v not in first:
            errors.append(f"vertex {v} is in no bag")
        elif last[v] - first[v] + 1 != count[v]:
            errors.append(f"bags holding {v} are not consecutive")
    for a, b in arcs:
        if a in first and b in first:
            if max(first[a], first[b]) > min(last[a], last[b]):
                errors.append(f"edge {a}-{b} has no common bag")
    width = size - 1
    if obj.get("width") != width:
        errors.append(f"declares width {obj.get('width')}, has {width}")
    if width > max_width:
        errors.append(f"width {width} exceeds {max_width}")
    return errors


def _non_arc_parent(obj, n, arcs):
    """Re-point one parent link to a vertex that has no arc to the child."""
    bad = copy.deepcopy(obj)
    for key in sorted(bad["parent"], key=int):
        v = int(key)
        for u in range(1, n + 1):
            if u != v and (u, v) not in arcs:
                bad["parent"][key] = u
                return bad, "is not an arc"
    return None, None


def _cycle(obj):
    """Make a vertex the parent of its own parent (below the root)."""
    bad = copy.deepcopy(obj)
    parent = bad["parent"]
    for key in sorted(parent, key=int):
        p = parent[key]
        if str(p) in parent:
            parent[str(p)] = int(key)
            return bad, "cycle"
    return None, None


def _drop_from_bag(obj, arcs):
    """Drop one endpoint of an arc from the only bag the two share."""
    bad = copy.deepcopy(obj)
    bags = bad["bags"]
    for a, b in sorted(arcs):
        shared = [j for j, bag in enumerate(bags) if a in bag and b in bag]
        if len(shared) == 1:
            bags[shared[0]].remove(b)
            return bad, ("common bag", "no bag", "not consecutive")
    return None, None


def _split_run(obj, n):
    """Add a vertex to a bag two or more places past the end of its run."""
    bad = copy.deepcopy(obj)
    bags = bad["bags"]
    for v in range(1, n + 1):
        held = [j for j, bag in enumerate(bags) if v in bag]
        if held and held[-1] + 2 < len(bags):
            bags[held[-1] + 2].append(v)
            return bad, "not consecutive"
        if held and held[0] >= 2:
            bags[held[0] - 2].append(v)
            return bad, "not consecutive"
    return None, None


def self_test(witnesses, decompositions) -> list:
    """Corrupt real artifacts and require each checker to reject them.

    witnesses holds (obj, n, arcs, k, spanning) and decompositions holds
    (obj, n, arcs, max_width), all of which pass their checker.  Returns
    the failures: a corruption that was accepted, or one rejected for
    another reason than the one it plants.  A fixed 6-cycle with a
    chord is always added, so the test never runs empty.
    """
    arcs6 = {(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1), (1, 4)}
    w6 = {"type": "out-tree", "root": 1, "parent": {"2": 1, "3": 2, "4": 1, "5": 4, "6": 5}, "leaves": 2}
    d6 = {"type": "path-decomposition", "bags": [[1, 2], [1, 2, 3], [1, 3, 4], [1, 4, 5], [1, 5, 6]], "width": 2}
    witnesses = [(w6, 6, arcs6, 2, True), *witnesses]
    decompositions = [(d6, 6, arcs6, 2), *decompositions]
    failures = []
    planted = 0

    def expect(label, bad, reason, errors):
        nonlocal planted
        planted += 1
        reasons = (reason,) if isinstance(reason, str) else reason
        if not errors:
            failures.append(f"{label}: corruption accepted")
        elif not any(r in e for r in reasons for e in errors):
            failures.append(f"{label}: rejected for {errors[:2]}, not {reasons}")

    for obj, n, arcs, k, spanning in witnesses:
        if check_witness(obj, n, arcs, k, spanning):
            failures.append("self-test witness is not valid to begin with")
            continue
        for label, (bad, reason) in (
            ("non-arc parent", _non_arc_parent(obj, n, arcs)),
            ("parent cycle", _cycle(obj)),
        ):
            if bad is not None:
                expect(label, bad, reason, check_witness(bad, n, arcs, k, spanning))
    for obj, n, arcs, max_width in decompositions:
        if check_decomposition(obj, n, arcs, max_width):
            failures.append("self-test decomposition is not valid to begin with")
            continue
        for label, (bad, reason) in (
            ("dropped bag vertex", _drop_from_bag(obj, arcs)),
            ("split bag run", _split_run(obj, n)),
        ):
            if bad is not None:
                # a planted vertex may widen a bag past the limit; judge structure only
                expect(label, bad, reason, check_decomposition(bad, n, arcs, max_width + 1))
    if planted < 4:
        failures.append(f"only {planted} corruptions planted")
    return failures
