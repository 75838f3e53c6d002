"""The three workload pools: which digraphs, at which k, with which reference.

Instances come from maxleaf's generators.  The workload seed relabels
every closed-form instance (cycle, path, double-cycle) by a seeded
permutation.  Relabeling keeps the optimum but
changes every label-driven choice the program makes (BFS root, branching
order, cover paths), so each seed is a fresh input with a known answer,
and the cost of these families barely moves with the labels.

Random-family instances keep the labels their generator seed gives them.
Their cost does move with the labels: relabeling a strong-random digraph
moves the BFS root, which can turn a decomposition into a witness, and
the DP and branch and bound costs follow the width and branching order.
One pass over the pool then varies by 20% or more from seed to seed,
which would hide the changes the benchmark is meant to show.

Reference optima are (spanning, out-tree) pairs: closed forms, or
maxleaf's brute-force subset oracle for n <= 12.  Large strong-random
instances have none; their artifacts are checked for validity only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

CLOSED_FORM = {
    "cycle": lambda n: (1, 1),
    "path": lambda n: (1, 1),
    "double-cycle": lambda n: (2, 2),
}

# (family, generator fields, ks, op kinds).  ks=None means every k in 2..n.
# Costs come in size classes (n = 200, 400, 800, and witnesses); the class
# sizes put the median and the 90th percentile inside a class, not on the
# gap between two, where they would jump with noise.
DECOMPOSE_SPARSE = [
    *[(family, {"n": n}, (3, 6), ("decompose",))
      for family in ("cycle", "path", "double-cycle") for n in (200, 400, 800)],
    *[("strong-random", {"n": 800, "extra": 5, "seed": s}, (3, 6), ("decompose",)) for s in (0, 1, 2)],
]

SOLVERS = ("dmlob", "dmlot")

# The many cheap cycles put the 90th percentile among the strong-random
# dmlot ops, whose cost is fixed, rather than on the relabeled double-cycles.
SOLVE_NARROW = [
    *[("double-cycle", {"n": n}, (3, 4), SOLVERS) for n in (8, 12)],
    *[("cycle", {"n": n}, (2, 3), SOLVERS) for n in (30, 45, 60, 90, 120, 150, 180)],
    ("min-in-degree-random", {"n": 8, "d": 2, "seed": 3}, "oracle", SOLVERS),
    *[("strong-random", {"n": 10, "extra": 5, "seed": s}, "oracle", SOLVERS) for s in (0, 2, 3)],
]

SOLVE_DENSE = [
    ("tournament-random", {"n": 11, "seed": 0}, None, SOLVERS),
    ("tournament-random", {"n": 12, "seed": 1}, None, SOLVERS),
    ("multipartite-tournament", {"parts": (4, 4, 3), "seed": 0}, None, SOLVERS),
    ("multipartite-tournament", {"parts": (3, 3, 3, 2), "seed": 1}, None, SOLVERS),
    ("min-in-degree-random", {"n": 11, "d": 2, "seed": 0}, None, SOLVERS),
    ("min-in-degree-random", {"n": 12, "d": 3, "seed": 0}, None, SOLVERS),
    ("strong-random", {"n": 12, "extra": 20, "seed": 0}, None, SOLVERS),
    ("strong-random", {"n": 11, "extra": 20, "seed": 1}, None, SOLVERS),
    # out-branching present but in_L_sufficient false: warn, then branch and bound
    *[
        ("min-in-degree-random", {"n": n, "d": 2, "seed": s}, None, SOLVERS)
        for n, s in ((10, 23), (11, 21), (11, 30), (11, 36), (12, 51))
    ],
]

POOLS = {
    "decompose-sparse": DECOMPOSE_SPARSE,
    "solve-narrow": SOLVE_NARROW,
    "solve-dense": SOLVE_DENSE,
}


@dataclass
class Instance:
    label: str
    family: str
    n: int
    text: str
    arcs: set  # 1-indexed (tail, head) pairs, kept apart from the program's parse
    ks: object
    kinds: tuple


def build(maxleaf, workload: str, seed: int) -> list:
    """Generate, relabel and serialize every instance of a pool."""
    out = []
    for idx, (family, fields, ks, kinds) in enumerate(POOLS[workload]):
        spec = maxleaf.GenSpec(family, **fields)
        d = maxleaf.generate(spec)
        perm = list(range(d.n))
        if family in CLOSED_FORM:
            random.Random(f"{workload}/{seed}/{idx}").shuffle(perm)
        arcs = [(perm[u], perm[v]) for u, v in d.arcs]
        text = maxleaf.write_digraph(maxleaf.Digraph(d.n, arcs))
        out.append(Instance(
            label=maxleaf.instance_id(spec),
            family=family,
            n=d.n,
            text=text,
            arcs={(u + 1, v + 1) for u, v in arcs},
            ks=ks,
            kinds=kinds,
        ))
    return out


def reference(maxleaf, inst: Instance):
    """(spanning optimum, out-tree optimum), or None when unknown."""
    if inst.family in CLOSED_FORM:
        return CLOSED_FORM[inst.family](inst.n)
    if inst.n <= maxleaf.ORACLE_MAX_N:
        d = maxleaf.parse_digraph(inst.text)
        return (maxleaf.brute_force_out_branching(d)[0], maxleaf.brute_force_out_tree(d)[0])
    return None


def operations(instances: list, refs: list) -> list:
    """(instance index, kind, k) for every op of one pass, in a fixed order.

    ks="oracle" takes k at and just above each reference optimum, so every
    instance contributes both a "yes" and a "no".
    """
    ops = []
    for i, inst in enumerate(instances):
        if inst.ks is None:
            ks = range(2, inst.n + 1)
        elif inst.ks == "oracle":
            ks = sorted({max(2, v + dv) for v in refs[i] for dv in (0, 1)})
        else:
            ks = inst.ks
        for k in ks:
            for kind in inst.kinds:
                ops.append((i, kind, k))
    return ops
