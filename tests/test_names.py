"""Every global name the package's code loads is defined somewhere.

A stdlib stand-in for a linter's undefined-name check: each ``propest``
module is compiled from source and its code objects are walked with
``dis``.  A ``LOAD_GLOBAL`` or ``LOAD_NAME`` whose target is neither bound
in the imported module, bound earlier in the same code object (class
bodies), nor a builtin would raise ``NameError`` only when that line runs.
An ``__all__`` entry the module does not define breaks ``import *`` the
same way.
"""

import ast
import builtins
import dis
import importlib
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import propest
from propest.distributions import FAMILIES

MODULES = sorted(
    f"propest.{info.name}"
    for info in pkgutil.iter_modules(propest.__path__)
    if info.name != "__main__"
)


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def undefined_globals(module):
    with open(module.__file__, encoding="utf-8") as fh:
        code = compile(fh.read(), module.__file__, "exec")
    known = set(vars(module)) | set(vars(builtins))
    missing = set()
    for obj in _code_objects(code):
        local = set(obj.co_varnames)
        for ins in dis.get_instructions(obj):
            if ins.opname == "STORE_NAME":
                local.add(ins.argval)
            elif ins.opname == "SETUP_ANNOTATIONS":
                local.add("__annotations__")
            elif ins.opname in ("LOAD_GLOBAL", "LOAD_NAME"):
                if ins.argval not in known and ins.argval not in local:
                    missing.add(f"{getattr(obj, 'co_qualname', obj.co_name)} -> {ins.argval}")  # co_qualname: 3.11+
    return sorted(missing)


@pytest.mark.parametrize("name", MODULES)
def test_no_undefined_globals(name):
    assert undefined_globals(importlib.import_module(name)) == []


@pytest.mark.parametrize("name", MODULES)
def test_exports_are_defined(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


# Run in a fresh interpreter with the working directory holding the count
# files; prints the exit codes and the scipy modules loaded after the
# command-line calls.
_CLI_PATH_SCRIPT = """
import sys
import propest, propest.cli
from propest.cli import main
from propest.distributions import FAMILIES
calls = [
    *(["simulate", "--property", "entropy", "--dist", family, "--k", "200", "--n-grid", "400,1000",
       "--trials", "2", "--estimators", "amplified,empirical,empirical_plus", "--out", "sim.csv",
       "--dump-dist", "dist.txt"] for family in FAMILIES),
    ["estimate", "--property", "entropy", "--counts", "c1.csv", "--counts2", "c2.csv", "--rate", "300"],
    ["estimate", "--property", "support_size", "--k", "50", "--counts", "c1.csv", "--rate", "300"],
    ["estimate", "--property", "kl", "--q", "uniform", "--k", "50", "--counts", "c1.csv", "--rate", "300",
     "--alpha", "0.5", "--s0-mult", "1"],
    ["coeffs", "--property", "entropy", "--rate", "1000", "--out", "coeffs.csv"],
]
codes = [main(argv) for argv in calls]
print(codes, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""

# One simulate per family, three estimates and coeffs.
_ALL_EXIT_0 = str([0] * (len(FAMILIES) + 4))


def _run_cli_paths(env, tmp_path, script):
    for name, seed in (("c1.csv", 1), ("c2.csv", 2)):
        counts = np.random.default_rng(seed).poisson(6.0, 50)
        (tmp_path / name).write_text("".join(f"{i},{c}\n" for i, c in enumerate(counts)), encoding="utf-8")
    return subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True, env=env, cwd=tmp_path,
    )


def test_import_and_cli_paths_leave_scipy_unloaded(subprocess_env, tmp_path):
    # scipy.special alone is most of a cold import: the package imports no
    # scipy module until the self-check reads one.
    proc = _run_cli_paths(subprocess_env, tmp_path, _CLI_PATH_SCRIPT)
    assert proc.stdout.strip().splitlines()[-1] == f"{_ALL_EXIT_0} []"


def test_cli_paths_run_without_scipy(subprocess_env, tmp_path):
    # A None entry makes every scipy import fail, as on an install without
    # scipy: every command runs, the deep self-check too.
    script = f"import sys\nsys.modules['scipy'] = None\n{_CLI_PATH_SCRIPT}print(main(['selfcheck', '--deep']))\n"
    proc = _run_cli_paths(subprocess_env, tmp_path, script)
    lines = proc.stdout.strip().splitlines()
    assert lines[-5] == f"{_ALL_EXIT_0} ['scipy']"
    assert [line.split(":")[0] for line in lines[-4:-1]] == [
        "[PASS] weights_exact", "[PASS] coefficient_bound", "[PASS] routes_series"]
    assert lines[-1] == "0"
    assert "error" not in proc.stderr


@pytest.mark.parametrize("path", sorted(Path(propest.__file__).parent.glob("*.py")), ids=lambda path: path.name)
def test_no_module_imports_scipy(path):
    # numpy is the one runtime dependency; scipy serves the tests only.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    imported += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module]
    assert [m for m in imported if m == "scipy" or m.startswith("scipy.")] == []


def test_detects_undefined_global(tmp_path, monkeypatch):
    (tmp_path / "broken_mod.py").write_text(
        "import math\n\n"
        "def f(x):\n"
        "    return math.sqrt(x) + missing_helper(x)\n",
        encoding="utf-8",
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    module = importlib.import_module("broken_mod")
    assert undefined_globals(module) == ["f -> missing_helper"]
