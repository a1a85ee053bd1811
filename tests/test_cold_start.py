"""A command-line process loads NumPy only when it evaluates a profile.

The closed forms are Python float arithmetic and the argument checks read
plain JSON and integers, so the modules they need (errors, geometry, shapes,
cli and the package itself) import neither NumPy nor a module that does, nor
dataclasses, whose inspect import costs a cold process more than they do.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

import taximeasure

SRC = pathlib.Path(taximeasure.__file__).resolve().parent
SCALAR_MODULES = ("errors.py", "geometry.py", "shapes.py", "cli.py", "__init__.py")
ARRAY_MODULES = {"numpy", "profiles", "quadrature", "measures", "oracles", "svgplot"}

# Runs the CLI in a fresh interpreter and reports on its last stderr line
# whether NumPy or inspect was loaded.
_PROBE = """
import sys
from taximeasure.cli import main
try:
    code = main(sys.argv[1:])
finally:
    print("numpy" in sys.modules, "inspect" in sys.modules, file=sys.stderr)
sys.exit(code)
"""


def _fresh(*args):
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=60)


def test_importing_the_cli_leaves_numpy_unloaded():
    proc = _fresh("-c", "import sys, taximeasure.cli, taximeasure; "
                        "taximeasure.sphere_volume; "
                        "print([m for m in ('numpy', 'inspect', 'dataclasses') "
                        "if m in sys.modules])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


SPHERE = '{"shape": "sphere", "params": {"r": 1}}'
CIRCLE = '{"shape": "circle", "params": {"r": 1}}'
DIAMOND = '{"catalog": "taxicab_circle_upper", "params": {"r": 1}}'


@pytest.mark.parametrize("argv, code, out", [
    (["measure", "--quantity", "volume", "--shape", SPHERE, "--json"], 0,
     json.dumps({"quantity": "volume", "analytic": 4.0 / 3.0,
                 "params": json.loads(SPHERE)}) + "\n"),
    (["measure", "--quantity", "area_scale", "--alpha", "45", "--beta", "45", "--degrees",
      "--json"], 0,
     '{"quantity": "area_scale", "analytic": 1.9999999999999996, '
     '"params": {"alpha": 45.0, "beta": 45.0, "degrees": true}}\n'),
    (["measure", "--quantity", "area", "--shape", CIRCLE, "--json", "--oracle", "64"], 2, ""),
    (["measure", "--quantity", "volume", "--shape", '{"shape": "sphere", '], 2, ""),
    (["measure", "--quantity", "volume",
      "--shape", '{"shape": "sphere", "params": {"r": 1e200}}'], 3, ""),
    (["measure", "--quantity", "arclength",
      "--profile", '{"catalog": "spiral", "params": {}}'], 2, ""),
    (["measure", "--quantity", "volume",
      "--profile", '{"catalog": "taxicab_parabola", "params": {"a": 1}}'], 2, ""),
    (["measure", "--quantity", "area", "--profile", DIAMOND], 2, ""),
    (["measure", "--quantity", "volume", "--oracle", "0", "--profile", DIAMOND], 3, ""),
    (["measure", "--quantity", "volume", "--oracle", "0", "--shape", SPHERE], 3, ""),
    (["table", "--profile", DIAMOND, "--quantity", "volume", "--ns", "64,16"], 3, ""),
    (["table", "--profile", DIAMOND, "--quantity", "volume", "--ns", "4,banana"], 2, ""),
    (["verify", "--tol", "-1"], 2, ""),
    (["plot", "--shape", SPHERE, "--profile", DIAMOND, "--out", "unused.svg"], 2, ""),
])
def test_closed_forms_and_spec_errors_leave_numpy_unloaded(argv, code, out):
    proc = _fresh("-c", _PROBE, *argv)
    assert proc.returncode == code, proc.stderr
    assert proc.stdout == out
    *messages, loaded = proc.stderr.splitlines()
    assert loaded == "False False"
    assert len(messages) == (0 if code == 0 else 1)


def test_a_profile_loads_numpy():
    # The probe itself: it does see NumPy when a path needs it.
    proc = _fresh("-c", _PROBE, "measure", "--quantity", "arclength", "--profile", DIAMOND)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == ["True True"]


def _module_level_imports(body):
    """Top-level module names imported by the statements of body and of the
    `if` blocks in it, except `if TYPE_CHECKING:`; function and class bodies
    run later."""
    for node in body:
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                yield node.module.split(".")[0]
            else:  # from . import x
                yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.If):
            if not (isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING"):
                yield from _module_level_imports(node.body)
            yield from _module_level_imports(node.orelse)


@pytest.mark.parametrize("name", SCALAR_MODULES)
def test_scalar_modules_import_no_array_module(name):
    tree = ast.parse((SRC / name).read_text())
    assert ARRAY_MODULES.isdisjoint(_module_level_imports(tree.body))


def test_the_import_scan_sees_an_array_module():
    found = set(_module_level_imports(ast.parse((SRC / "oracles.py").read_text()).body))
    assert {"numpy", "measures", "profiles"} <= found
