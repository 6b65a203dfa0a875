"""A ``PolicyStack`` is the only Happy Eyeballs input.

``HEParams`` is the flat record a stack renders into store keys, and
``PolicyStack.params()`` in ``core/policy.py`` is the one place that
builds it.  A static check with the standard library's ``ast`` keeps a
second input path from coming back: any other ``HEParams(...)`` call
in the package, the examples or the tests fails here.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCANNED = ("src", "examples", "tests")
ALLOWED = ROOT / "src" / "repro" / "core" / "policy.py"


def heparams_calls(source: str) -> "list[int]":
    """Line numbers of every ``HEParams(...)`` / ``x.HEParams(...)``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = (func.id if isinstance(func, ast.Name) else
                    func.attr if isinstance(func, ast.Attribute) else None)
            if name == "HEParams":
                lines.append(node.lineno)
    return lines


def test_heparams_is_built_only_by_the_stack():
    offenders = [
        f"{path.relative_to(ROOT)}:{line}"
        for top in SCANNED for path in sorted((ROOT / top).rglob("*.py"))
        if path != ALLOWED
        for line in heparams_calls(path.read_text(encoding="utf-8"))]
    assert not offenders, (
        "HEParams built outside PolicyStack.params(); declare a "
        "PolicyStack instead:\n" + "\n".join(offenders))


def test_the_stack_builds_it_once():
    assert len(heparams_calls(ALLOWED.read_text(encoding="utf-8"))) == 1


def test_the_check_sees_both_spellings():
    source = ("from repro.core import params\n"
              "a = HEParams(connection_attempt_delay=0.15)\n"
              "b = params.HEParams()\n"
              "c = HEParams\n")
    assert heparams_calls(source) == [2, 3]
