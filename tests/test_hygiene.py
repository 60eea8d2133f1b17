"""Source hygiene: every name a package module imports is used there,
every module-level constant is read, every name the benchmark's tracer
hooks exists, and the CLI starts without the modules only some commands
need."""

import ast
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sampled_ocp"
# __init__ imports to re-export; `annotations` is a __future__ switch
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name != "annotations":
                    yield alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(set(_imported_names(tree)) - used)
    assert not unused, f"{path.name} imports {unused} without using them"


def test_no_unread_constants():
    """A module-level UPPER_CASE constant is read somewhere in the
    package, by name or as a module attribute; a knob left behind by a
    deleted code path fails here."""
    defined, read = set(), set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else \
                [node.target] if isinstance(node, ast.AnnAssign) else []
            defined.update((path.name, t.id) for t in targets
                           if isinstance(t, ast.Name)
                           and re.fullmatch(r"[A-Z][A-Z0-9_]*", t.id))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert defined, "no module-level constants found"
    unread = sorted(f"{module}:{name}" for module, name in defined
                    if name not in read)
    assert not unread, f"constants never read: {unread}"


# `perfbench/tracing.py` still hooks these removed names, which the next
# benchmark change drops (ROADMAP item 1): the march that
# `pmp_check.integrate_variation` wrapped is
# `integrate.Linearization.variation`; `convergence_harness.project`
# left with the harness's closed-form control recovery, its only caller.
KNOWN_ABSENT_HOOKS = {"pmp_check.integrate_variation",
                      "convergence_harness.project"}


def test_traced_names_resolve():
    """A renamed or dropped import of a hooked name fails here, not only
    as an `absent:` line in a traced benchmark run."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    absent = set()
    for mod_name, attr, *_ in tracing.SPAN_HOOKS + tracing.COUNT_HOOKS:
        module = importlib.import_module(f"sampled_ocp.{mod_name}")
        try:
            owner, leaf = tracing._resolve(module, attr)
        except AttributeError:
            absent.add(f"{mod_name}.{attr}")
            continue
        # the tracer patches a method only where its class defines it
        names = vars(owner) if isinstance(owner, type) else dir(owner)
        if leaf not in names:
            absent.add(f"{mod_name}.{attr}")
    assert absent <= KNOWN_ABSENT_HOOKS, sorted(absent - KNOWN_ABSENT_HOOKS)


def test_cli_import_leaves_out_scipy_optimize():
    """`scipy.optimize` costs about 0.2 s to import; only the exact
    oracle's all-clamped vertex needs it, so it is imported there."""
    code = ("import sys, sampled_ocp.cli; "
            "sys.exit('scipy.optimize' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code],
                            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr or "scipy.optimize imported"
