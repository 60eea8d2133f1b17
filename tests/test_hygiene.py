"""Source hygiene: every name a package module imports is used there,
no module imports another inside a function, every module-level
constant is read, the count and membership rules each have one copy,
every name the benchmark's tracer hooks exists, and the CLI starts
without the modules only some commands need."""

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


def test_no_function_local_package_imports():
    """Package modules import one another at module level only: an import
    inside a function hides a dependency (or a cycle) from the module
    header.  Lazy imports of other libraries stay allowed."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.ImportFrom):
                    names = [node.module or ""] if node.level == 0 else None
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                if names is None or any(n.split(".")[0] == "sampled_ocp"
                                        for n in names):
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, f"function-local package imports: {sorted(set(found))}"


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


def _scoped_nodes(tree, scope=None):
    """(name of the innermost enclosing function, node) for every node."""
    for node in ast.iter_child_nodes(tree):
        inner = node.name if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        yield inner, node
        yield from _scoped_nodes(node, inner)


def _names(node):
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _is_bool_test(node):
    return isinstance(node, ast.Call) and \
        getattr(node.func, "id", None) == "isinstance" and \
        len(node.args) == 2 and "bool" in _names(node.args[1])


def _is_tol_set_comparison(node):
    return isinstance(node, ast.Compare) and "TOL_SET" in _names(node)


@pytest.mark.parametrize("matches, helper", [
    (_is_bool_test, "_count"),
    (_is_tol_set_comparison, "require_in_set")], ids=["count", "membership"])
def test_one_rule_per_argument_kind(matches, helper):
    """The bool exclusion of a count test and the comparison with TOL_SET
    of a membership test each appear once, in their helper, so a copy of
    either rule fails here instead of growing back."""
    found = [(scope, f"{path.name}:{node.lineno}") for path in MODULES
             for scope, node in _scoped_nodes(
                 ast.parse(path.read_text(encoding="utf-8")))
             if matches(node)]
    assert [scope for scope, _ in found] == [helper], \
        f"expected one test, in {helper}; found {found}"


# `perfbench/tracing.py` still hooks this removed name, which the next
# benchmark change drops (ROADMAP item 1): the march that
# `pmp_check.integrate_variation` wrapped is
# `integrate.Linearization.variation`.
KNOWN_ABSENT_HOOKS = {"pmp_check.integrate_variation"}


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


def test_march_callbacks_take_k_y_stage():
    """Every callback handed to `integrate._rk4_march` is defined as
    `rhs(k, y, stage)` and reads its stage tables at [k, stage]: a time
    argument or a per-call control closure cannot grow back."""
    wanted = ast.dump(ast.parse("def rhs(k, y, stage): pass").body[0].args)
    found = {}
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defs = [node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef)]
        for call in ast.walk(tree):
            if not (isinstance(call, ast.Call)
                    and "_rk4_march" in _names(call.func)):
                continue
            arg = call.args[0] if call.args else None
            if isinstance(arg, ast.Name):
                # the nearest definition above the call
                arg = max((d for d in defs if d.name == arg.id
                           and d.lineno < call.lineno),
                          key=lambda d: d.lineno, default=None)
            found[f"{path.name}:{call.lineno}"] = (
                ast.dump(arg.args) if isinstance(
                    arg, (ast.FunctionDef, ast.Lambda)) else None)
    assert len(found) >= 4, f"too few marches found: {sorted(found)}"
    other = sorted(site for site, args in found.items() if args != wanted)
    assert not other, f"callbacks not taking (k, y, stage): {other}"
