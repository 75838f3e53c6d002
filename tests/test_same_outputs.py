"""tools/same_outputs.py reports every (workload, seed) and fails on any difference."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "same_outputs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_prints_one_line_per_key_and_fails_on_a_difference(capsys):
    compare = _tool().compare
    here = {"w seed 0": [("a k=2", "x"), ("b k=3", "y")], "w seed 1": [("a k=2", "z")]}
    assert compare(here, {key: list(ops) for key, ops in here.items()})
    assert capsys.readouterr().out.splitlines() == [
        "w seed 0: 2 outputs identical",
        "w seed 1: 1 outputs identical",
    ]
    changed = {"w seed 0": [("a k=2", "x"), ("b k=3", "Y")], "w seed 1": [("c k=2", "z")]}
    assert not compare(here, changed)
    assert capsys.readouterr().out.splitlines() == [
        "w seed 0: 1 of 2 outputs differ, first b k=3",
        "w seed 1: the operations differ (1 here, 1 there)",
    ]
