"""The package's layering: ``import mzsv`` and ``import mzsv.cli`` load only
the layers below ``series``; ``series``, ``hypergeom``, ``identities`` and
``bench`` load on first use.

The static guard reads the sources with ``ast``, so that a module-level
import of a lazy layer fails here before it costs every cold start. The
run-time checks use a fresh interpreter, because this test session has
already imported every layer.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mzsv"
LAZY = ("series", "hypergeom", "identities", "bench")
CORE = ("context", "errors", "indices", "kernels", "tailcalc", "numerics",
        "chains", "finite_sums")
# these import the core at module level and a lazy layer only where it runs
ENTRY = ("__init__", "__main__", "cli")


def _imported_layers(node):
    """The mzsv modules a single import statement names."""
    if isinstance(node, ast.Import):
        return {a.name.split(".")[1] for a in node.names
                if a.name.startswith("mzsv.")}
    if isinstance(node, ast.ImportFrom):
        base = node.module or ""
        if node.level == 0:
            if base == "mzsv":
                return {a.name for a in node.names}
            return {base.split(".")[1]} if base.startswith("mzsv.") else set()
        if node.level == 1:
            return {base.split(".")[0]} if base else {a.name for a in node.names}
    return set()


def _imports(tree, module_level):
    """(line, layer) of every import in tree; with module_level, those
    outside function bodies only (class bodies run at import)."""
    found = []
    stack = [tree]
    while stack:
        node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if module_level and isinstance(child, (ast.FunctionDef,
                                                   ast.AsyncFunctionDef,
                                                   ast.Lambda)):
                continue
            found += [(child.lineno, layer) for layer in _imported_layers(child)]
            stack.append(child)
    return found


def lazy_imports(path, module_level):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return sorted((line, layer) for line, layer in _imports(tree, module_level)
                  if layer in LAZY)


def test_every_module_has_a_layer():
    names = {p.stem for p in SRC.glob("*.py")}
    assert names == set(LAZY) | set(CORE) | set(ENTRY)


def test_core_never_imports_a_lazy_layer():
    # anywhere, function bodies included: a core call that imported series
    # would load it in the middle of a finite-sum pass
    bad = {name: lazy_imports(SRC / f"{name}.py", module_level=False)
           for name in CORE}
    assert not any(bad.values()), bad


def test_entry_modules_import_lazy_layers_only_in_functions():
    bad = {name: lazy_imports(SRC / f"{name}.py", module_level=True)
           for name in ENTRY}
    assert not any(bad.values()), bad
    # the commands still reach their layers, from inside their functions
    assert {layer for _, layer in lazy_imports(SRC / "cli.py", False)} == set(LAZY)


def test_guard_sees_every_import_form(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("from . import finite_sums, identities\n"
                    "from .series import zeta\n"
                    "import mzsv.hypergeom\n"
                    "from mzsv import bench\n"
                    "class C:\n    from .series import mzv\n"
                    "def f():\n    from . import hypergeom\n")
    assert lazy_imports(path, module_level=True) == [
        (1, "identities"), (2, "series"), (3, "hypergeom"), (4, "bench"),
        (6, "series")]
    assert (8, "hypergeom") in lazy_imports(path, module_level=False)


# -- run time, in a fresh interpreter -------------------------------------------

def _run(*argv):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _run_script(script):
    return json.loads(_run("-c", script).strip().splitlines()[-1])


def test_import_loads_only_the_core_and_finite_sums_load_nothing():
    out = _run_script("""
import json, sys
import mzsv, mzsv.cli
loaded = sorted(m for m in sys.modules if m.startswith("mzsv."))
before = set(sys.modules)
ctx = mzsv.PrecisionContext(digits=30)
mzsv.star_sum(mzsv.Index((2, 1, 3)), 700, ctx)      # tail route
mzsv.finite_sums.strict_sum(mzsv.Index((1, 2)), 40, ctx)
mzsv.star_sum(mzsv.Index((1, 1, 1, 1)), 25, ctx)     # one kernel call
print(json.dumps({"loaded": loaded, "new": sorted(set(sys.modules) - before)}))
""")
    assert out["loaded"] == sorted(f"mzsv.{m}" for m in CORE + ("cli",))
    assert out["new"] == []


def test_public_names_resolve_to_their_defining_objects():
    out = _run_script("""
import importlib, json, sys
import mzsv
listed = set(mzsv.__all__) <= set(dir(mzsv))
wrong = []
for name in mzsv.__all__:
    obj = getattr(mzsv, name)
    home = getattr(obj, "__module__", None)
    if home is not None and home.startswith("mzsv.") and \\
            getattr(importlib.import_module(home), name) is not obj:
        wrong.append(name)
namespace = {}
exec("from mzsv import *", namespace)
print(json.dumps({
    "listed": listed, "wrong": wrong,
    "star": sorted(set(mzsv.__all__) - set(namespace)),
    "mzsv_is_series_fn": mzsv.mzsv is mzsv.series.mzsv and callable(mzsv.mzsv),
    "modules": [m for m in %r
                if getattr(mzsv, m) is not sys.modules.get("mzsv." + m)],
    "no_such_name": not hasattr(mzsv, "no_such_name"),
}))
""" % (LAZY,))
    assert out == {"listed": True, "wrong": [], "star": [],
                   "mzsv_is_series_fn": True, "modules": [],
                   "no_such_name": True}


def test_cli_commands_load_their_layers():
    assert "eq1" in _run("-m", "mzsv", "list")
    assert "summary: 1/1 passed" in _run("-m", "mzsv", "verify", "eq1", "--s", "2")
    assert _run("-m", "mzsv", "eval", "mzsv", "1,2").startswith("2.404113806319")


def test_tracer_installs_on_a_fresh_import():
    # the benchmark's tracer wraps names of every layer through the package's
    # attributes, after its worker has imported only mzsv and mzsv.cli
    out = _run_script("""
import importlib.util, json, sys
sys.dont_write_bytecode = True
import mzsv, mzsv.cli
spec = importlib.util.spec_from_file_location("perfbench_tracing", %r)
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
def current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
tracer = tracing.Tracer()
tracing.install(tracer, mzsv)
patched = list(tracer._patched)
wrapped = all(current(o, a) is not orig for o, a, orig in patched)
tracer.uninstall()
print(json.dumps({"patched": len(patched), "wrapped": wrapped,
                  "restored": all(current(o, a) is orig for o, a, orig in patched)}))
""" % (str(ROOT / "perfbench" / "tracing.py"),))
    assert out["patched"] > 0 and out["wrapped"] and out["restored"]


# -- dead imports ---------------------------------------------------------------

def unused_imports(path):
    """(line, name) of every name an import binds in the module at path and
    the module never reads; in ``__init__`` a name listed in ``__all__`` is
    read. An import statement with ``# noqa: F401`` on one of its lines is
    exempt: the benchmark's tracer finds a few names bound where they are
    not read."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text, filename=str(path))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    if path.stem == "__init__":
        read |= {elt.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                 for elt in node.value.elts if isinstance(elt, ast.Constant)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                found.append((node.lineno, name))
    return sorted(found)


def test_every_imported_name_is_read():
    bad = {p.name: unused_imports(p) for p in sorted(SRC.glob("*.py"))}
    assert not any(bad.values()), {k: v for k, v in bad.items() if v}


def test_dead_import_guard_sees_each_form(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("from __future__ import annotations\n"
                    "import os, sys as system\n"
                    "from math import floor, log10\n"
                    "from .numerics import _iterated_means  # noqa: F401\n"
                    "from .tailcalc import (GUARD_BITS,\n"
                    "                       _binary_ratio)\n"
                    "def f(x: Fraction) -> int:\n"
                    "    from fractions import Fraction\n"
                    "    return log10(x) + GUARD_BITS\n")
    assert unused_imports(path) == [(2, "os"), (2, "system"), (3, "floor"),
                                    (5, "_binary_ratio")]
    init = tmp_path / "__init__.py"
    init.write_text("from .context import HPReal, PrecisionContext\n"
                    "__all__ = ['HPReal', *(n for n in ())]\n")
    assert unused_imports(init) == [(1, "PrecisionContext")]
