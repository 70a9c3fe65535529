"""The four routes share only the Laurent kernel.

The minor (``bruhat``), the crystal sum (``crystal``) and the path and
closed-form sums (``paths``) check one another, so no route may borrow
another's computation.  These tests parse the imports of the three route
modules and fail if one takes from another anything beyond the rendering
helpers listed in ALLOWED.
"""

from __future__ import annotations

import ast
from pathlib import Path

import crystalminor

ROUTES = ("crystal", "bruhat", "paths")
ALLOWED = {
    "crystal": set(),
    "bruhat": set(),
    "paths": {("crystal", "CrystalConfig"), ("crystal", "tau_render")},
}


def route_imports(source: str) -> set[tuple[str, str]]:
    """(route, name) for every name imported from a route module; a whole
    module import is recorded with the name '*'."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "crystalminor" and len(parts) > 1 and parts[1] in ROUTES:
                    found.add((parts[1], "*"))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module != "crystalminor" and not module.startswith("crystalminor."):
                    continue
                module = module.removeprefix("crystalminor").lstrip(".")
            if module in ROUTES:
                found.update((module, alias.name) for alias in node.names)
            elif not module:
                found.update((alias.name, "*") for alias in node.names if alias.name in ROUTES)
    return found


def test_routes_import_only_the_allowed_helpers():
    package = Path(crystalminor.__file__).parent
    for route in ROUTES:
        found = route_imports((package / f"{route}.py").read_text(encoding="utf-8"))
        assert found <= ALLOWED[route], (route, sorted(found - ALLOWED[route]))


def test_route_imports_sees_every_import_form():
    source = "\n".join([
        "from .crystal import ell, component",
        "from . import paths",
        "from .laurent import Monomial",
        "from crystalminor.bruhat import det",
        "from crystalminor import crystal",
        "import crystalminor.paths",
        "import json",
        "def f():\n    from .bruhat import delta_L",
    ])
    assert route_imports(source) == {
        ("crystal", "ell"), ("crystal", "component"), ("paths", "*"),
        ("bruhat", "det"), ("crystal", "*"), ("bruhat", "delta_L"),
    }


def test_verify_takes_only_public_crystal_names():
    """The axiom checker must not couple to the crystal search's private
    helpers: it imports public names only, never the whole module, and
    reads no private attribute (such as ``CrystalGraph._index``)."""
    source = (Path(crystalminor.__file__).parent / "verify.py").read_text(encoding="utf-8")
    names = {name for route, name in route_imports(source) if route == "crystal"}
    assert names and all(name != "*" and not name.startswith("_") for name in names), sorted(names)
    private = sorted({
        node.attr for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") and not node.attr.endswith("__")
    })
    assert private == []
