"""The four routes share only the Laurent kernel.

The minor (``bruhat``), the crystal sum (``crystal``) and the path and
closed-form sums (``paths``) check one another, so no route may borrow
another's computation.  These tests parse the imports of the three route
modules and fail if one takes from another anything beyond the rendering
helpers listed in ALLOWED.

The command line builds its parser without loading any route, ``cluster``
or ``verify``, and each command loads only the modules it uses; the last
tests check that in fresh interpreters.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


# Runs argv[1] in a fresh interpreter, then prints the crystalminor modules
# it loaded.  Output is discarded: only the loaded modules matter here.
LOADED_AFTER = """
import contextlib, io, sys
with contextlib.redirect_stdout(io.StringIO()):
    exec(sys.argv[1])
print(" ".join(sorted(m for m in sys.modules if m.startswith("crystalminor."))))
"""


def loaded_after(statement: str) -> set[str]:
    src = str(Path(crystalminor.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", LOADED_AFTER, statement], env=env, check=True,
                          capture_output=True, text=True, timeout=60)
    return {name.removeprefix("crystalminor.") for name in done.stdout.split()}


def test_building_the_parser_loads_no_route_module():
    loaded = loaded_after("import crystalminor.cli; crystalminor.cli.build_parser()")
    assert "cli" in loaded
    assert not loaded & {"crystal", "paths", "cluster", "verify"}, sorted(loaded)


@pytest.mark.parametrize("argv,unloaded", [
    (["minor", "--r", "2", "--word", "1,2,1", "--k", "2", "--format", "json"],
     {"crystal", "paths", "cluster", "verify"}),
    (["crystal", "component", "--r", "2", "--seed", "Y[-1,1]"], {"paths", "cluster", "verify"}),
    (["paths", "sum", "--d", "1", "--m", "2", "--mprime", "1", "--r", "2"], {"cluster", "verify"}),
    (["seed", "bmatrix", "--r", "2", "--word", "1,2,1"], {"paths", "verify"}),
])
def test_each_command_loads_only_its_own_modules(argv, unloaded):
    loaded = loaded_after(f"from crystalminor import cli; assert cli.main({argv!r}) == 0")
    assert not loaded & unloaded, sorted(loaded & unloaded)
