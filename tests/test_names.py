"""Every global name the package's code loads is defined somewhere.

A stdlib stand-in for a linter's undefined-name check: each ``propest``
module is compiled from source and its code objects are walked with
``dis``.  A ``LOAD_GLOBAL`` or ``LOAD_NAME`` whose target is neither bound
in the imported module, bound earlier in the same code object (class
bodies), nor a builtin would raise ``NameError`` only when that line runs.
An ``__all__`` entry the module does not define breaks ``import *`` the
same way.
"""

import builtins
import dis
import importlib
import pkgutil
import subprocess
import sys
import types

import pytest

import propest

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


def test_import_leaves_scipy_stats_unloaded(subprocess_env):
    # scipy.stats costs most of a cold import and the package needs none of
    # it; scipy.integrate is needed only by the quadrature self-checks
    code = (
        "import sys, propest, propest.cli; "
        "print([m for m in ('scipy.stats', 'scipy.integrate') if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=subprocess_env,
    )
    assert proc.stdout.strip() == "[]"


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
