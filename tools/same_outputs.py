"""Check that two checkouts give byte-identical outputs on the benchmark pools.

Run from anywhere, naming the other checkout (for example a clone of the
parent commit):

    python3 tools/same_outputs.py ../other-checkout

Every operation of every workload in perfbench/pools.py runs once at
seeds 0, 1 and 2 in each tree, through that tree's own perfbench/run.py
(its pools, its call table, its maxleaf).  Each tree runs in its own
interpreter, so the two packages never meet.  One line is printed per
(workload, seed); the exit status is 1 when any output differs, or when
the two trees list different operations.
"""

from __future__ import annotations

import argparse
import importlib
import json
import subprocess
import sys
import warnings
from pathlib import Path

HERE_ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 1, 2)


def emit(tree: Path) -> dict:
    """Outputs of every op of every pool at every seed, run in tree.

    An op that raises yields the exception's type and message instead.
    """
    sys.path.insert(0, str(tree / "perfbench"))
    run = importlib.import_module("run")  # puts tree/src first on sys.path
    result = {}
    for workload in run.WORKLOADS:
        for seed in SEEDS:
            maxleaf = run.fresh_import()
            instances = run.pools.build(maxleaf, workload, seed)
            refs = [run.pools.reference(maxleaf, inst) for inst in instances]
            ops = run.pools.operations(instances, refs)
            op = run.make_op(run.call_table(maxleaf))
            outputs = []
            for i, kind, k in ops:
                where = f"{instances[i].label} {kind} k={k}"
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        text = op(instances[i].text, kind, k)
                except Exception as exc:
                    text = f"raised {type(exc).__name__}: {exc}"
                outputs.append((where, text))
            result[f"{workload} seed {seed}"] = outputs
    return result


def collect(tree: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, __file__, "--emit", str(tree)],
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        sys.exit(f"{tree}: emitting outputs failed\n{proc.stderr}")
    return json.loads(proc.stdout)


def compare(here: dict, other: dict) -> bool:
    """Print one line per (workload, seed); True when all are identical."""
    same = True
    for key in sorted(here.keys() | other.keys()):
        mine = here.get(key, [])
        theirs = other.get(key, [])
        if [w for w, _ in mine] != [w for w, _ in theirs]:
            print(f"{key}: the operations differ ({len(mine)} here, {len(theirs)} there)")
            same = False
            continue
        diff = [w for (w, a), (_, b) in zip(mine, theirs) if a != b]
        if diff:
            print(f"{key}: {len(diff)} of {len(mine)} outputs differ, first {diff[0]}")
            same = False
        else:
            print(f"{key}: {len(mine)} outputs identical")
    return same


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", type=Path, help="the checkout to compare with")
    parser.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    tree = args.other.resolve()
    if args.emit:
        json.dump(emit(tree), sys.stdout)
        return 0
    return 0 if compare(collect(HERE_ROOT), collect(tree)) else 1


if __name__ == "__main__":
    sys.exit(main())
