"""Benchmark for maxleaf's win/win pipeline, pathwidth DP and branch and bound.

Run from the repository root:

    python3 perfbench/run.py --workload solve-dense --seed 0 --seconds 30 --trace 0

One operation does what ``maxleaf solve`` or ``maxleaf decompose`` does for
one input, through library calls: digraph text -> parse_digraph ->
decompose / solve_dmlob / solve_dmlot with default budgets -> *_to_json ->
json.dumps.  The workload's pool of operations runs in whole passes, one
operation at a time in this single process, until --seconds have passed
(and at least MIN_OPS operations have run).  Outputs are checked after the
timer stops.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics (per traced pass of the
pool) plus the tracing overhead.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import statistics
import sys
import warnings
from pathlib import Path
from time import perf_counter

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import pools  # noqa: E402
import spans  # noqa: E402

WORKLOADS = tuple(pools.POOLS)
SETUP_REPEATS = 9
MIN_OPS = 100
MEMORY_CAP = 3 << 30  # address-space cap, so a runaway DP table fails one op instead of the machine
IN_L_WARNING = "in_L_sufficient"


def fresh_import():
    """Import maxleaf and its JSON module from scratch (numpy stays loaded)."""
    for name in [m for m in sys.modules if m == "maxleaf" or m.startswith("maxleaf.")]:
        del sys.modules[name]
    importlib.import_module("maxleaf.jsonio")
    maxleaf = sys.modules["maxleaf"]
    if Path(maxleaf.__file__).resolve().parent.parent != ROOT / "src":
        raise ImportError(f"maxleaf was found at {maxleaf.__file__}, not in this checkout")
    return maxleaf


def setup(workload: str, seed: int):
    """Import maxleaf and build the pool SETUP_REPEATS times; median time."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        maxleaf = fresh_import()
        instances = pools.build(maxleaf, workload, seed)
        times.append(perf_counter() - t0)
    return maxleaf, instances, statistics.median(times)


def call_table(maxleaf) -> dict:
    jsonio = sys.modules["maxleaf.jsonio"]
    return {
        "parse": maxleaf.parse_digraph,
        "decompose": maxleaf.decompose,
        "solve_dmlob": maxleaf.solve_dmlob,
        "solve_dmlot": maxleaf.solve_dmlot,
        "outcome_json": lambda out: json.dumps(jsonio.outcome_to_json(out)),
        "result_json": lambda res: json.dumps(jsonio.solve_result_to_json(res)),
    }


def make_op(calls: dict):
    parse = calls["parse"]
    decompose = calls["decompose"]
    outcome_json = calls["outcome_json"]
    result_json = calls["result_json"]
    solvers = {"dmlob": calls["solve_dmlob"], "dmlot": calls["solve_dmlot"]}

    def op(text: str, kind: str, k: int) -> str:
        d = parse(text)
        if kind == "decompose":
            return outcome_json(decompose(d, k))
        return result_json(solvers[kind](d, k))

    return op


class Loop:
    """Closed-loop runner: whole passes over the ops, one op at a time."""

    def __init__(self, instances: list, ops: list) -> None:
        self.instances = instances
        self.ops = ops
        self.durations: list = []
        self.outputs: list = [None] * len(ops)
        self.failures: dict = {}  # op index -> first exception, counted in failed
        self.mismatches: set = set()  # op indices whose output changed between passes
        self.attempted = 0
        self.failed = 0
        self.in_l_warnings = 0
        self.passes = 0
        self.elapsed = 0.0

    def run_pass(self, op, tracer=None) -> None:
        texts = [self.instances[i].text for i, _, _ in self.ops]
        for j, (_, kind, k) in enumerate(self.ops):
            if tracer is not None:
                tracer.op = self.attempted
            self.attempted += 1
            t0 = perf_counter()
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    text = op(texts[j], kind, k)
            except Exception as exc:  # one failed op must not end the run
                self.failed += 1
                self.failures.setdefault(j, f"{type(exc).__name__}: {exc}")
                continue
            self.durations.append(perf_counter() - t0)
            self.in_l_warnings += sum(IN_L_WARNING in str(w.message) for w in caught)
            if self.outputs[j] is None:
                self.outputs[j] = text
            elif self.outputs[j] != text:
                self.mismatches.add(j)
        self.passes += 1

    def run(self, op, seconds: float) -> None:
        min_passes = math.ceil(MIN_OPS / len(self.ops))
        start = perf_counter()
        while self.passes < min_passes or perf_counter() - start < seconds:
            self.run_pass(op)
        self.elapsed = perf_counter() - start


def run_traced(loop: Loop, calls: dict, tracer, seconds: float) -> tuple:
    """Alternate untraced and traced passes; return their mean pass times.

    Alternating puts both kinds of pass under the same host speed, so their
    ratio measures the tracing overhead.  Only traced passes count in loop.
    """
    plain = Loop(loop.instances, loop.ops)
    plain_op = make_op(calls)
    traced_op = tracer.wrap("op", make_op(tracer.wrap_calls(calls)))
    min_passes = math.ceil(MIN_OPS / len(loop.ops))
    plain_s = traced_s = 0.0
    start = perf_counter()
    while loop.passes < min_passes or perf_counter() - start < seconds:
        # which kind goes first alternates, so neither always meets a cold start
        for traced in (False, True) if loop.passes % 2 == 0 else (True, False):
            t0 = perf_counter()
            if traced:
                tracer.install()
                try:
                    loop.run_pass(traced_op, tracer)
                finally:
                    tracer.uninstall()
                traced_s += perf_counter() - t0
            else:
                plain.run_pass(plain_op)
                plain_s += perf_counter() - t0
    loop.elapsed = perf_counter() - start
    return plain_s / plain.passes, traced_s / loop.passes


def check_outputs(loop: Loop, refs: list) -> list:
    """Problems found in the outputs and by the checkers' self-test."""
    problems = []
    witnesses = []
    decompositions = []
    for j, (i, kind, k) in enumerate(loop.ops):
        if loop.outputs[j] is None:
            continue
        inst = loop.instances[i]
        where = f"{inst.label} {kind} k={k}"
        obj = json.loads(loop.outputs[j])
        if obj["k"] != k:
            problems.append(f"{where}: output is for k={obj['k']}")
        if kind == "decompose":
            body = obj["outcome"]
            if body.get("type") == "out-tree":
                errs = checks.check_witness(body, inst.n, inst.arcs, k, spanning=False)
                if refs[i] is not None and refs[i][1] < k:
                    errs.append(f"witness for k above the optimum {refs[i][1]}")
                if not errs:
                    witnesses.append((body, inst.n, inst.arcs, k, False))
            else:
                errs = checks.check_decomposition(body, inst.n, inst.arcs, k**3)
                if not errs:
                    decompositions.append((body, inst.n, inst.arcs, k**3))
        else:
            opt = refs[i][0 if kind == "dmlob" else 1]
            errs = []
            if obj["answer"] != (opt >= k) or obj["atLeastK"] != obj["answer"]:
                errs.append(f"answer {obj['answer']} but optimum {opt}")
            if obj["value"] != min(opt, k):
                errs.append(f"value {obj['value']} but optimum {opt}")
            if obj["answer"]:
                spanning = kind == "dmlob"
                errs += checks.check_witness(obj["witness"], inst.n, inst.arcs, k, spanning)
                if not errs:
                    witnesses.append((obj["witness"], inst.n, inst.arcs, k, spanning))
        problems += [f"{where}: {e}" for e in errs[:3]]
    problems += checks.self_test(_spread_out(witnesses), _spread_out(decompositions))
    return problems


def _spread_out(items: list, count: int = 4) -> list:
    """Up to count items taken evenly across the list."""
    return items[:: max(1, len(items) // count)][:count]


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(loop: Loop, setup_s: float) -> dict:
    return {
        "ops_per_s": (len(loop.durations) / loop.elapsed, "op/s"),
        "op_p50_ms": (statistics.median(loop.durations) * 1e3, "ms"),
        "op_p90_ms": (percentile(loop.durations, 0.9) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


# per-layer metric -> span names whose inclusive time it sums
LAYER_TIMES = {
    "digraph.parse_s": ("digraph.parse_digraph",),
    "digraph.subgraph_s": ("digraph.induced_subdigraph", "digraph.underlying_undirected"),
    "decompose.s": ("decompose.decompose",),
    "decompose.out_branching_s": ("decompose.find_out_branching",),
    "decompose.path_cover_s": ("decompose.path_cover",),
    "decompose.off_path_s": ("decompose.off_path",),
    "decompose.trim_s": ("decompose.trim",),
    "decompose.forward_arcs_s": ("decompose.forward_arcs",),
    "decompose.backward_arcs_s": ("decompose.backward_arcs",),
    "decompose.assemble_s": ("decompose.assemble",),
    "pathdecomp.check_s": ("pathdecomp.check",),
    "jsonio.serialize_s": ("jsonio.serialize",),
    "solver.dp_s": ("solver.dp_pathwidth",),
    "solver.bnb_s": ("solver.branch_and_bound",),
    "digraph.in_L_s": ("digraph.in_L_sufficient",),
    "digraph.scc_s": ("digraph.scc",),
    "witness.validate_s": ("witness.validate_out_tree",),
}
LAYER_CALLS = {
    "decompose.calls": "decompose.decompose",
    "pathdecomp.check_calls": "pathdecomp.check",
    "solver.dp_calls": "solver.dp_pathwidth",
    "solver.bnb_calls": "solver.branch_and_bound",
    "digraph.scc_calls": "digraph.scc",
    "witness.validate_calls": "witness.validate_out_tree",
}
DECIDED = ("decompose-witness", "dp", "branch-and-bound", "trivial")


def per_layer(loop: Loop, tracer, pass_s: tuple) -> dict:
    records = tracer.spans
    own = spans.self_times(records)
    present = tracer.present()
    passes = loop.passes
    total: dict = {}
    calls: dict = {}
    self_s: dict = {}
    sums: dict = {}

    def add(key, value):
        sums[key] = sums.get(key, 0) + value

    for rec, mine in zip(records, own):
        name, start, end, _, _, note = rec
        dur = end - start
        total[name] = total.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + mine
        if name == "decompose.decompose":
            if note == "witness":
                add("witness", 1)
            elif isinstance(note, int):
                add("decomposition", 1)
                add("width", note)
        elif name == "solver.dp_pathwidth":
            if note == "raised OverBudgetError":
                add("dp_over", 1)
                add("dp_wasted", dur)
            else:
                add(f"dp_{note}", dur)
        elif name == "solver.branch_and_bound" and isinstance(note, tuple):
            mode, upgrade, found = note
            add(f"bnb_{mode}", dur)
            if upgrade:
                add("upgrade_calls", 1)
                add("upgrade_s", dur)
                add("upgrade_useful", int(found))

    m: dict = {}

    def put(name, value, unit, needs):
        """Per-pass value; absent when no wrapped function feeds it."""
        if not needs or any(n in present for n in needs):
            m[name] = (value / passes, unit)

    for name, spans_of in LAYER_TIMES.items():
        put(name, sum(total.get(s, 0.0) for s in spans_of), "s", spans_of)
    for name, span in LAYER_CALLS.items():
        put(name, calls.get(span, 0), "count", (span,))
    put("decompose.self_s", self_s.get("decompose.decompose", 0.0), "s", ("decompose.decompose",))
    dec = ("decompose.decompose",)
    put("decompose.witness_outcomes", sums.get("witness", 0), "count", dec)
    put("decompose.decomposition_outcomes", sums.get("decomposition", 0), "count", dec)
    put("decompose.width_sum", sums.get("width", 0), "count", dec)
    dp = ("solver.dp_pathwidth",)
    put("solver.dp_spanning_s", sums.get("dp_spanning", 0.0), "s", dp)
    put("solver.dp_subtree_s", sums.get("dp_subtree", 0.0), "s", dp)
    put("solver.dp_over_budget", sums.get("dp_over", 0), "count", dp)
    put("solver.dp_wasted_s", sums.get("dp_wasted", 0.0), "s", dp)
    bnb = ("solver.branch_and_bound",)
    put("solver.bnb_spanning_s", sums.get("bnb_spanning", 0.0), "s", bnb)
    put("solver.bnb_subtree_s", sums.get("bnb_subtree", 0.0), "s", bnb)
    put("solver.bnb_upgrade_calls", sums.get("upgrade_calls", 0), "count", bnb)
    put("solver.bnb_upgrade_useful", sums.get("upgrade_useful", 0), "count", bnb)
    put("solver.bnb_upgrade_s", sums.get("upgrade_s", 0.0), "s", bnb)
    put("solver.in_L_warnings", loop.in_l_warnings, "count", ())
    drivers = ("solver.solve_dmlob", "solver.solve_dmlot")
    put("solver.driver_self_s", sum(self_s.get(s, 0.0) for s in drivers), "s", ())
    decided = [
        json.loads(text)["method"]
        for text, (_, kind, _) in zip(loop.outputs, loop.ops)
        if text is not None and kind != "decompose"
    ]
    for method in DECIDED:
        m[f"solver.decided.{method}"] = (decided.count(method), "count")
    untraced, traced = pass_s
    m["trace.op_s"] = (traced, "s")
    m["trace.untraced_op_s"] = (untraced, "s")
    m["trace.overhead_ratio"] = (traced / untraced - 1.0, "ratio")
    m["trace.accounted_share"] = (1.0 - self_s.get("op", 0.0) / total.get("op", 0.0), "ratio")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0, help="relabels every instance of the pool")
    ap.add_argument("--seconds", type=float, default=30.0, help="how long to run whole passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard == resource.RLIM_INFINITY or hard > MEMORY_CAP:
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, hard))

    try:
        maxleaf, instances, setup_s = setup(args.workload, args.seed)
    except ImportError as exc:
        print(f"perfbench: cannot import maxleaf from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    refs = [pools.reference(maxleaf, inst) for inst in instances]
    ops = pools.operations(instances, refs)
    calls = call_table(maxleaf)
    loop = Loop(instances, ops)

    if args.trace:
        tracer = spans.Tracer()
        pass_s = run_traced(loop, calls, tracer, args.seconds)
    else:
        loop.run(make_op(calls), args.seconds)

    for j, err in sorted(loop.failures.items()):
        print(f"perfbench: op {loop.ops[j]} failed: {err}", file=sys.stderr)
    problems = [f"op {loop.ops[j]}: output differs between passes" for j in sorted(loop.mismatches)]
    problems += check_outputs(loop, refs)
    for p in problems[:20]:
        print(f"perfbench: {p}", file=sys.stderr)

    if args.trace:
        metrics = per_layer(loop, tracer, pass_s)
        for name in tracer.absent:
            print(f"perfbench: {name} not found; its metrics are absent", file=sys.stderr)
        out_dir = ROOT / ".bench_build" / "perfbench"
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = end_to_end(loop, setup_s)
    print(json.dumps({
        "correct": not problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
