"""Spans around maxleaf's functions, recorded from outside the program.

A Tracer swaps module attributes for thin wrappers while it is
installed.  maxleaf's modules call each other through module globals,
so replacing ``maxleaf.solver.dp_pathwidth`` catches every call the
drivers make to the DP, and replacing a stage function in the
``maxleaf.decompose`` module catches every call decompose() makes to
it.  Nothing in maxleaf is edited.

Each span records its name, start, end, parent span and op id.  Spans
stay in memory until the run ends.  A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# (module, attribute, span name).  Stage functions are wrapped in the
# decompose module because decompose() looks them up there; the engines
# and helpers the drivers use are wrapped in the solver module.
TARGETS = (
    ("maxleaf.solver", "decompose", "decompose.decompose"),
    ("maxleaf.solver", "find_out_branching", "decompose.find_out_branching"),
    ("maxleaf.solver", "in_L_sufficient", "digraph.in_L_sufficient"),
    ("maxleaf.solver", "induced_subdigraph", "digraph.induced_subdigraph"),
    ("maxleaf.solver", "underlying_undirected", "digraph.underlying_undirected"),
    ("maxleaf.solver", "strongly_connected_components", "digraph.scc"),
    ("maxleaf.solver", "validate_out_tree", "witness.validate_out_tree"),
    ("maxleaf.solver", "branch_and_bound", "solver.branch_and_bound"),
    ("maxleaf.solver", "dp_pathwidth", "solver.dp_pathwidth"),
    ("maxleaf.decompose", "find_out_branching", "decompose.find_out_branching"),
    ("maxleaf.decompose", "strongly_connected_components", "digraph.scc"),
    ("maxleaf.decompose", "path_cover_from_out_branching", "decompose.path_cover"),
    ("maxleaf.decompose", "off_path_out_neighbors", "decompose.off_path"),
    ("maxleaf.decompose", "witness_from_off_path", "decompose.off_path"),
    ("maxleaf.decompose", "trim_around", "decompose.trim"),
    ("maxleaf.decompose", "forward_arcs_on_path", "decompose.forward_arcs"),
    ("maxleaf.decompose", "reduce_forward_arcs", "decompose.forward_arcs"),
    ("maxleaf.decompose", "witness_from_forward_arcs", "decompose.forward_arcs"),
    ("maxleaf.decompose", "forward_arc_heads", "decompose.forward_arcs"),
    ("maxleaf.decompose", "backward_component_check", "decompose.backward_arcs"),
    ("maxleaf.decompose", "induced_subdigraph", "digraph.induced_subdigraph"),
    ("maxleaf.decompose", "underlying_undirected", "digraph.underlying_undirected"),
    ("maxleaf.decompose", "ordering_to_path_decomposition", "decompose.assemble"),
    ("maxleaf.decompose", "validate_out_tree", "witness.validate_out_tree"),
    ("maxleaf.pathdecomp", "PathCover.validate", "decompose.path_cover"),
    ("maxleaf.pathdecomp", "PathDecomposition.check", "pathdecomp.check"),
)

# Call-site entries of the benchmark's own op table (see run.py).
CALL_SITES = {
    "parse": "digraph.parse_digraph",
    "decompose": "decompose.decompose",
    "solve_dmlob": "solver.solve_dmlob",
    "solve_dmlot": "solver.solve_dmlot",
    "outcome_json": "jsonio.serialize",
    "result_json": "jsonio.serialize",
}


def _note_decompose(args, kwargs, result):
    if result.is_witness:
        return "witness"
    return result.decomposition.width


def _note_dp(args, kwargs, result):
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    return cfg.mode


def _note_bnb(args, kwargs, result):
    mode = args[2] if len(args) > 2 else kwargs["mode"]
    upgrade = kwargs.get("allow_unknown", False)
    return (mode, upgrade, result.answer is True)


NOTES = {
    "decompose.decompose": _note_decompose,
    "solver.dp_pathwidth": _note_dp,
    "solver.branch_and_bound": _note_bnb,
}


class Tracer:
    """Span recorder.  A span is [name, start, end, parent, op, note]."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []
        self.op = -1
        self.absent: list = []
        self.installed: set = set()
        self._undo: list = []

    def wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        note = NOTES.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, tracer.op, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = "raised " + type(exc).__name__
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if note is not None:
                rec[5] = note(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        self.absent = []
        for module_name, attr, name in TARGETS:
            owner = sys.modules.get(module_name)
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            fn = getattr(owner, path[-1], None) if owner is not None else None
            if not callable(fn):
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(owner, path[-1], self.wrap(name, fn))
            self.installed.add(name)
            self._undo.append((owner, path[-1], fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def wrap_calls(self, calls: dict) -> dict:
        """Wrap the benchmark's own call-site table."""
        return {key: self.wrap(CALL_SITES[key], fn) for key, fn in calls.items()}

    def present(self) -> set:
        """Span names that at least one wrapper produces."""
        return self.installed | set(CALL_SITES.values()) | {"op"}

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op, note) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op, "note": note,
                }) + "\n")


def self_times(spans: list) -> list:
    """Duration of each span minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
