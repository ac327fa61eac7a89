"""The exported surface of the package."""

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
