"""The exported surface of the package."""

import ast
import json
import os
import subprocess
import sys

import wqalg

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))


def test_every_exported_name_resolves():
    missing = [name for name in wqalg.__all__ if not hasattr(wqalg, name)]
    assert not missing
    assert len(set(wqalg.__all__)) == len(wqalg.__all__)


def test_cli_import_loads_no_test_code():
    # a fresh interpreter, so that nothing the test session imported is counted
    src = os.path.dirname(os.path.dirname(os.path.abspath(wqalg.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import json, sys\nimport wqalg.cli\n"
             "print(json.dumps({name: getattr(mod, '__file__', None)"
             " for name, mod in list(sys.modules.items())}))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env, cwd=src,
                          capture_output=True, text=True, check=True)
    modules = json.loads(proc.stdout)
    assert "wqalg.cli" in modules
    test_only = [name for name in modules
                 if name.split(".")[0] in ("sympy", "hypothesis", "pytest", "_pytest")]
    assert not test_only
    from_tests = [name for name, path in modules.items()
                  if path and os.path.abspath(path).startswith(TESTS_DIR + os.sep)]
    assert not from_tests


def test_package_source_has_no_floating_point():
    # the engine is exact: no float literal and no float() call anywhere in it
    src = os.path.dirname(os.path.abspath(wqalg.__file__))
    found = []
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name)) as fh:
            tree = ast.parse(fh.read(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
                found.append("%s:%d float literal" % (name, node.lineno))
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "float"):
                found.append("%s:%d float() call" % (name, node.lineno))
    assert not found
