"""Command line front end.

Subcommands: solve, decompose, oracle, gen, check-bounds, validate.
JSON (or digraph text / CSV) goes to stdout, errors go to stderr as one
JSON line, progress notes appear only under --verbose.  Exit codes:
0 computed (even when the answer is "no"), 1 usage, 2 bad input,
3 internal failure.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from pathlib import Path

from .bounds import check_bounds, write_bound_csv
from .decompose import decompose
from .digraph import parse_digraph, write_digraph
from .errors import (
    ContractError,
    GenerationError,
    InvariantError,
    MaxleafError,
    OverBudgetError,
    ParseError,
)
from .generators import FAMILIES, GenSpec, generate
from .jsonio import (
    out_tree_to_dot,
    out_tree_to_json,
    outcome_to_json,
    solve_result_to_json,
    validation_report,
)
from .oracle import ORACLE_MAX_N, brute_force_out_branching, brute_force_out_tree
from .solver import (
    DEFAULT_BNB_BUDGET,
    DEFAULT_DP_BUDGET,
    solve_dmlob,
    solve_dmlot,
)

USAGE_EXIT = 1
INPUT_EXIT = 2
INTERNAL_EXIT = 3


def _emit_error(kind: str, message: str) -> None:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        _emit_error("usage", message)
        raise SystemExit(USAGE_EXIT)


def _parts_arg(text: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad partition list {text!r}") from None
    return parts


def _seeds_arg(text: str) -> tuple[int, int]:
    try:
        if ":" in text:
            a, b = text.split(":", 1)
            lo, hi = int(a), int(b)
        else:
            lo = hi = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad seed range {text!r}") from None
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return lo, hi


def build_parser() -> _Parser:
    parser = _Parser(prog="maxleaf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_io(p: _Parser, with_inputs: bool = True) -> None:
        if with_inputs:
            p.add_argument("inputs", nargs="*", help="digraph files ('-' or none for stdin)")
        p.add_argument("--out", help="write output here instead of stdout")
        p.add_argument("--verbose", action="store_true", help="progress notes on stderr")

    def add_spec(p: _Parser) -> None:
        """The GenSpec fields other than the seed."""
        p.add_argument("--family", choices=FAMILIES, required=True)
        p.add_argument("--n", type=int, default=0)
        p.add_argument("--d", type=int, default=0)
        p.add_argument("--parts", type=_parts_arg, default=())
        p.add_argument("--extra", type=int, default=0)
        p.add_argument("--oriented", action="store_true")

    p_solve = sub.add_parser("solve", help="decide a maximum-leaf problem")
    p_solve.add_argument("--problem", choices=("dmlob", "dmlot"), required=True)
    p_solve.add_argument("--k", type=int, required=True)
    p_solve.add_argument("--budget-dp", type=int, default=DEFAULT_DP_BUDGET)
    p_solve.add_argument("--budget-bnb", type=int, default=DEFAULT_BNB_BUDGET)
    add_io(p_solve)

    p_dec = sub.add_parser("decompose", help="witness or path decomposition")
    p_dec.add_argument("--k", type=int, required=True)
    p_dec.add_argument("--root", type=int, help="optional 1-indexed start vertex")
    p_dec.add_argument("--dot", help="write witness DOT here (single input only)")
    add_io(p_dec)

    p_or = sub.add_parser("oracle", help="exact small-instance leaf maxima")
    p_or.add_argument("--max-n", type=int, default=ORACLE_MAX_N, help="size guard")
    add_io(p_or)

    p_gen = sub.add_parser("gen", help="generate a benchmark digraph")
    add_spec(p_gen)
    p_gen.add_argument("--seed", type=int, default=0)
    add_io(p_gen, with_inputs=False)

    p_cb = sub.add_parser("check-bounds", help="verify leaf bounds over seeds, emit CSV")
    add_spec(p_cb)
    p_cb.add_argument("--seeds", type=_seeds_arg, default=(0, 0), help="seed or lo:hi range")
    p_cb.add_argument("--budget", type=int, default=ORACLE_MAX_N, help="oracle size limit")
    add_io(p_cb, with_inputs=False)

    p_val = sub.add_parser("validate", help="check an emitted artifact against a digraph")
    p_val.add_argument("--against", required=True, help="digraph file the artifact refers to")
    add_io(p_val)

    return parser


def _over_inputs(args, worker) -> None:
    """Read every input ('-' or none for stdin), run worker(name, text)
    on each in order, and write one result line per input."""
    inputs = [
        ("<stdin>", sys.stdin.read()) if p == "-" else (p, Path(p).read_text())
        for p in args.inputs or ["-"]
    ]
    lines = [worker(name, text) for name, text in inputs]
    _write_output(args, "".join(line + "\n" for line in lines))


def _note(args, message: str) -> None:
    if args.verbose:
        print(f"maxleaf: {message}", file=sys.stderr)


def _write_output(args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_solve(args) -> int:
    if args.k < 1:
        _emit_error("usage", "--k must be at least 1")
        return USAGE_EXIT
    if args.budget_dp < 1 or args.budget_bnb < 0:
        _emit_error("usage", "--budget-dp must be at least 1 and --budget-bnb at least 0")
        return USAGE_EXIT
    solver = solve_dmlob if args.problem == "dmlob" else solve_dmlot

    def worker(name: str, text: str) -> str:
        _note(args, f"solving {args.problem} k={args.k} on {name}")
        d = parse_digraph(text)
        res = solver(d, args.k, dp_budget=args.budget_dp, bnb_budget=args.budget_bnb)
        return json.dumps(solve_result_to_json(res))

    _over_inputs(args, worker)
    return 0


def _cmd_decompose(args) -> int:
    if args.k < 2:
        _emit_error("usage", "--k must be at least 2 (k=1 is out-branching existence)")
        return USAGE_EXIT
    if args.dot and len(args.inputs) > 1:
        _emit_error("usage", "--dot needs a single input")
        return USAGE_EXIT

    def worker(name: str, text: str) -> str:
        _note(args, f"decomposing {name} at k={args.k}")
        d = parse_digraph(text)
        root = None
        if args.root is not None:
            if not 1 <= args.root <= d.n:
                raise ContractError(f"--root {args.root} out of range 1..{d.n}")
            root = args.root - 1
        out = decompose(d, args.k, root=root)
        if args.dot:
            if out.is_witness:
                Path(args.dot).write_text(out_tree_to_dot(out.witness))
            else:
                _note(args, "no witness, DOT file not written")
        return json.dumps(outcome_to_json(out))

    _over_inputs(args, worker)
    return 0


def _cmd_oracle(args) -> int:
    def worker(name: str, text: str) -> str:
        _note(args, f"exact oracle on {name}")
        d = parse_digraph(text)
        if d.n > args.max_n:
            raise ParseError(f"oracle limited to n <= {args.max_n}, got {d.n}")
        sp_value, sp_tree = brute_force_out_branching(d, args.max_n)
        st_value, st_tree = brute_force_out_tree(d, args.max_n)
        return json.dumps(
            {
                "n": d.n,
                "spanning": {
                    "value": sp_value,
                    "witness": None if sp_tree is None else out_tree_to_json(sp_tree),
                },
                "subtree": {
                    "value": st_value,
                    "witness": None if st_tree is None else out_tree_to_json(st_tree),
                },
            }
        )

    _over_inputs(args, worker)
    return 0


def _spec(args, seed: int) -> GenSpec:
    return GenSpec(
        family=args.family,
        n=args.n,
        d=args.d,
        parts=args.parts,
        extra=args.extra,
        seed=seed,
        oriented=args.oriented,
    )


def _cmd_gen(args) -> int:
    spec = _spec(args, args.seed)
    _note(args, f"generating {spec}")
    _write_output(args, write_digraph(generate(spec)))
    return 0


def _cmd_check_bounds(args) -> int:
    lo, hi = args.seeds
    specs = [_spec(args, seed) for seed in range(lo, hi + 1)]
    _note(args, f"checking bounds on {len(specs)} instances")
    reports = check_bounds(specs, budget=args.budget)
    buf = io.StringIO()
    write_bound_csv(reports, buf)
    _write_output(args, buf.getvalue())
    broken = [r for r in reports if r.holds is False]
    if broken:
        _emit_error(
            "bound-violation",
            f"{len(broken)} instances violate {broken[0].bound_name}: "
            + ", ".join(r.instance_id for r in broken[:5]),
        )
        return INTERNAL_EXIT
    return 0


def _cmd_validate(args) -> int:
    against = parse_digraph(Path(args.against).read_text())

    def worker(name: str, text: str) -> str:
        _note(args, f"validating {name} against {args.against}")
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON: {exc}") from None
        return json.dumps(validation_report(against, obj))

    _over_inputs(args, worker)
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "decompose": _cmd_decompose,
    "oracle": _cmd_oracle,
    "gen": _cmd_gen,
    "check-bounds": _cmd_check_bounds,
    "validate": _cmd_validate,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    try:
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        _emit_error("input", str(exc))
        return INPUT_EXIT
    except GenerationError as exc:
        _emit_error("usage", str(exc))
        return USAGE_EXIT
    except InvariantError as exc:
        _emit_error("internal", str(exc))
        return INTERNAL_EXIT
    except OverBudgetError as exc:
        _emit_error("over-budget", str(exc))
        return INTERNAL_EXIT
    except ContractError as exc:
        _emit_error("input", str(exc))
        return INPUT_EXIT
    except OSError as exc:
        _emit_error("input", str(exc))
        return INPUT_EXIT
    except MaxleafError as exc:
        _emit_error("internal", str(exc))
        return INTERNAL_EXIT


if __name__ == "__main__":
    sys.exit(main())
