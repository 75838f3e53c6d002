"""Every name a maxleaf module imports is used in that module.

Each module in src/maxleaf except __init__.py (which re-exports) is
parsed with ast.  An imported name counts as used when it appears as a
bare name anywhere in the module, annotations included.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "maxleaf"

# (module file, name): why the import stays although the module never uses it
EXEMPT = {
    ("solver.py", "in_L_sufficient"): "perfbench/spans.py wraps maxleaf.solver.in_L_sufficient",
    ("solver.py", "decompose"): "perfbench/spans.py wraps maxleaf.solver.decompose",
    ("decompose.py", "induced_subdigraph"): "perfbench/spans.py wraps maxleaf.decompose.induced_subdigraph",
    ("decompose.py", "underlying_undirected"): "perfbench/spans.py wraps maxleaf.decompose.underlying_undirected",
    ("decompose.py", "ordering_to_path_decomposition"): (
        "perfbench/spans.py wraps maxleaf.decompose.ordering_to_path_decomposition"
    ),
}


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "annotations":
                    continue  # from __future__ import annotations
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"{path.name}:{line} imports {name}"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in used and (path.name, name) not in EXEMPT
    ]


def test_every_imported_name_is_used():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 10
    unused = [line for path in modules for line in _unused_imports(path)]
    assert unused == []

