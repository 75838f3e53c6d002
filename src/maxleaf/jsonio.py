"""JSON and DOT serialization for witnesses, decompositions and results.

Vertices are 1-indexed in every external format (JSON, DOT, digraph
text); the library is 0-indexed internally.  All emitters produce a
fixed key order so identical inputs serialize byte-identically.
"""

from __future__ import annotations

from typing import Any

from .decompose import DecomposeOutcome
from .digraph import Digraph, underlying_undirected
from .errors import ContractError, ParseError
from .pathdecomp import PathDecomposition
from .solver import SolveResult
from .witness import OutTree, validate_out_tree


def out_tree_to_json(t: OutTree) -> dict[str, Any]:
    return {
        "type": "out-tree",
        "root": t.root + 1,
        "parent": {str(v + 1): t.parent[v] + 1 for v in sorted(t.parent)},
        "leaves": t.leaf_count,
    }


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise ParseError(message)


def out_tree_from_json(obj: Any, host_size: int) -> OutTree:
    _expect(isinstance(obj, dict), "witness must be a JSON object")
    _expect(obj.get("type") == "out-tree", "witness type must be 'out-tree'")
    root = obj.get("root")
    _expect(isinstance(root, int) and root >= 1, "witness root must be a 1-indexed vertex")
    raw = obj.get("parent")
    _expect(isinstance(raw, dict), "witness parent must be an object")
    parent: dict[int, int] = {}
    for key, val in raw.items():
        try:
            v = int(key)
        except ValueError:
            raise ParseError(f"parent key {key!r} is not a vertex id") from None
        _expect(isinstance(val, int) and val >= 1, f"parent of {key} must be a 1-indexed vertex")
        _expect(v >= 1, f"parent key {key} must be a 1-indexed vertex")
        parent[v - 1] = val - 1
    return OutTree(root - 1, parent, host_size)


def decomposition_to_json(pd: PathDecomposition) -> dict[str, Any]:
    return {
        "type": "path-decomposition",
        "bags": [[v + 1 for v in bag] for bag in pd.bags],
        "width": pd.width,
    }


def decomposition_from_json(obj: Any) -> PathDecomposition:
    _expect(isinstance(obj, dict), "decomposition must be a JSON object")
    _expect(
        obj.get("type") == "path-decomposition",
        "decomposition type must be 'path-decomposition'",
    )
    bags = obj.get("bags")
    _expect(isinstance(bags, list), "bags must be an array")
    converted = []
    for i, bag in enumerate(bags):
        _expect(isinstance(bag, list), f"bag {i} must be an array")
        for v in bag:
            _expect(isinstance(v, int) and v >= 1, f"bag {i} holds a bad vertex id {v!r}")
        converted.append([v - 1 for v in bag])
    pd = PathDecomposition(converted)
    declared = obj.get("width")
    if declared is not None and declared != pd.width:
        raise ParseError(f"declared width {declared} but bags give {pd.width}")
    return pd


def outcome_to_json(out: DecomposeOutcome) -> dict[str, Any]:
    body = (
        out_tree_to_json(out.witness)
        if out.is_witness
        else decomposition_to_json(out.decomposition)
    )
    return {"k": out.k, "outcome": body, "trace": list(out.trace)}


def solve_result_to_json(res: SolveResult) -> dict[str, Any]:
    return {
        "problem": res.problem,
        "k": res.k,
        "answer": res.answer,
        "value": res.value,
        "atLeastK": res.at_least_k,
        "method": res.method,
        "witness": None if res.witness is None else out_tree_to_json(res.witness),
    }


def validation_report(d: Digraph, obj: Any) -> dict[str, Any]:
    """Check a witness or decomposition JSON object against a digraph.

    The object may be bare or wrapped (a solve result or a decompose
    envelope); wrapped forms are unwrapped first.
    """
    if isinstance(obj, dict) and "outcome" in obj:
        obj = obj["outcome"]
    if isinstance(obj, dict) and "witness" in obj and "problem" in obj:
        if obj["witness"] is None:
            raise ParseError("result carries no witness to validate")
        obj = obj["witness"]
    kind = obj.get("type") if isinstance(obj, dict) else None
    if kind == "out-tree":
        t = out_tree_from_json(obj, d.n)
        report = validate_out_tree(d, t)
        return {
            "kind": "out-tree",
            "valid": report.ok,
            "errors": list(report.errors),
            "leaves": report.leaf_count,
            "spanning": report.spanning,
        }
    if kind == "path-decomposition":
        pd = decomposition_from_json(obj)
        errors: list[str] = []
        try:
            pd.check(underlying_undirected(d))
        except ContractError as exc:
            errors = str(exc).split("; ")
        return {
            "kind": "path-decomposition",
            "valid": not errors,
            "errors": errors,
            "width": pd.width,
        }
    raise ParseError("object is neither an out-tree nor a path-decomposition")


def out_tree_to_dot(t: OutTree) -> str:
    """DOT text: solid tree arcs, leaves double-circled, 1-indexed."""
    lines = ["digraph out_tree {"]
    for v in sorted(t.leaves):
        lines.append(f"  {v + 1} [shape=doublecircle];")
    for u, v in t.arcs():
        lines.append(f"  {u + 1} -> {v + 1};")
    lines.append("}")
    return "\n".join(lines) + "\n"
