"""The exported surface of the package."""

import ast
import contextlib
import functools
import importlib
import inspect
import io
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
    # a fresh interpreter, so that nothing the test session imported is
    # counted; it prints the modules a bare interpreter loads under this
    # environment and those loaded once wqalg.cli is imported, each with its file
    src = os.path.dirname(os.path.dirname(os.path.abspath(wqalg.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import sys\nbare = sorted(sys.modules)\nimport wqalg.cli\n"
             "print(repr((bare, {name: getattr(mod, '__file__', None)"
             " for name, mod in list(sys.modules.items())})))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env, cwd=src,
                          capture_output=True, text=True, check=True)
    bare, modules = ast.literal_eval(proc.stdout)
    assert "wqalg.cli" in modules
    # no command needs these to start: json loads for --format json only,
    # and no package code imports logging
    added = set(modules) - set(bare)
    assert not added & {"dataclasses", "inspect", "logging", "json"}
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


def _package_functions():
    """(qualified name, code object) of every function defined in src/wqalg.

    Module-level functions, methods (class and static ones too), property
    getters and cached_property bodies; not nested functions or lambdas,
    and not __eq__ or __hash__.
    """
    src = os.path.dirname(os.path.abspath(wqalg.__file__))
    found = {}

    def add(name, fn):
        code = getattr(fn, "__code__", None)
        if code is not None and os.path.dirname(os.path.abspath(code.co_filename)) == src:
            found[code] = name

    for modname in sorted(m for m in sys.modules if m.startswith("wqalg.")):
        module = sys.modules[modname]
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == modname:
                add("%s.%s" % (modname, name), obj)
            elif inspect.isclass(obj) and obj.__module__ == modname:
                for attr, member in vars(obj).items():
                    qual = "%s.%s.%s" % (modname, name, attr)
                    if isinstance(member, (classmethod, staticmethod)):
                        member = member.__func__
                    elif isinstance(member, property):
                        member = member.fget
                    elif isinstance(member, functools.cached_property):
                        member = member.func
                    if attr not in ("__eq__", "__hash__"):
                        add(qual, member)
    return found


def test_every_package_function_is_reached_by_the_cli(tmp_path):
    # every command in every format on g2, e6 and d4, in this process; a
    # function none of them reaches is API that only tests call
    import wqalg.cli
    functions = _package_functions()
    assert functions
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    sink = io.StringIO()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for command in wqalg.cli._COMMANDS:
                for algebra in (["g2"], ["e6"], ["dn", "--n", "4"]):
                    for fmt in ("text", "json", "latex"):
                        argv = [command, "--algebra", *algebra, "--format", fmt]
                        if command == "bracket":
                            argv += ["--i", "1", "--j", "2"]
                        if fmt == "latex":
                            argv += ["--out", str(tmp_path / "out.tex")]
                        wqalg.cli.main(argv)
    finally:
        sys.setprofile(None)
    unreached = sorted(name for code, name in functions.items() if code not in reached)
    assert not unreached, "reached by no command: " + ", ".join(unreached)


def test_benchmark_tracer_installs_and_uninstalls_cleanly(monkeypatch):
    # the benchmark's per-layer metrics come from wrappers that perfbench/tracer.py
    # installs by attribute path; a renamed or moved target would read 0 unseen
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(TESTS_DIR), "perfbench"))
    import tracer
    for modname in tracer.MODULES:
        importlib.import_module(modname)
    before = tracer.snapshot()
    tr = tracer.Tracer()
    try:
        tr.install()
        unresolved, wrapped = set(), []
        for name, modname, path in tracer.TARGETS:
            owner, obj = None, sys.modules[modname]
            for part in path.split("."):
                owner, obj = obj, vars(obj).get(part) if obj is not None else None
            if obj is None:
                unresolved.add(name)
            else:
                wrapped.append(hasattr(obj, "__wrapped__"))
        # FieldMatrix lost its inverse and products when the checks moved to
        # the Laurent tables; every other target must be found and wrapped
        assert unresolved == {"rflinalg.inverse", "rflinalg.matmul"}
        assert wrapped and all(wrapped)
    finally:
        tr.uninstall()
    assert tracer.snapshot() == before
