"""The Laurent kernel is the one place that checks an assignment.

``laurent.rational_values`` turns an assignment into nonzero rationals for
``LaurentPoly.evaluate`` and for the numeric cell matrices of ``bruhat``.
These tests parse every module of the package and fail if
MissingAssignment or ZeroAssignment is raised anywhere else, so a second
copy of that check cannot return unnoticed.
"""

from __future__ import annotations

import ast
from pathlib import Path

import crystalminor

ASSIGNMENT_ERRORS = {"MissingAssignment", "ZeroAssignment"}


def raised_names(source: str) -> set[str]:
    """Names of the exceptions raised in source, whether raised as a class,
    as an instance or through a module attribute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                found.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                found.add(exc.attr)
    return found


def test_only_the_laurent_kernel_raises_assignment_errors():
    package = Path(crystalminor.__file__).parent
    raisers = {
        path.name: sorted(raised_names(path.read_text(encoding="utf-8")) & ASSIGNMENT_ERRORS)
        for path in sorted(package.glob("*.py"))
    }
    assert raisers.pop("laurent.py") == sorted(ASSIGNMENT_ERRORS)
    assert {name: found for name, found in raisers.items() if found} == {}


def test_raised_names_sees_every_raise_form():
    source = "\n".join([
        "raise MissingAssignment(v)",
        "raise errors.ZeroAssignment(v)",
        "raise ValueError",
        "def f():\n    try:\n        pass\n    except KeyError:\n        raise",
    ])
    assert raised_names(source) == {"MissingAssignment", "ZeroAssignment", "ValueError"}
