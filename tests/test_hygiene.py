"""Source hygiene: every module-level import in the package is used,
only modules.py touches the cache behind Presentation.cached, each cache
key is computed at one call site, one module states the parameter
ideal contract, only the engine reads its packed internals, only
groebner.py and hilbert.py build an engine, and only fields.py divides
with `/`."""

import ast
from collections import defaultdict
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "homdeg"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _module_level_imports(tree):
    """(bound name, line) for each import at module level, including the
    branches of a top-level try (optional dependencies)."""
    stmts = list(tree.body)
    for node in tree.body:
        if isinstance(node, ast.Try):
            stmts += node.body + node.orelse + node.finalbody
            for handler in node.handlers:
                stmts += handler.body
    out = []
    for node in stmts:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                out.append((name, node.lineno))
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [
        f"{name} (line {line})"
        for name, line in _module_level_imports(tree)
        if name not in used
    ]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "modules.py"], ids=lambda p: p.name
)
def test_only_modules_touches_the_cache(path):
    """Derived quantities go through Presentation.cached: no other module
    reads or writes an attribute named _cache."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "_cache"
    ]
    assert not lines, f"{path.name} touches _cache at lines {lines}"


def test_each_cache_key_has_one_call_site():
    """Every string literal passed as the key of Presentation.cached
    appears at exactly one call site in the package, so each derived
    quantity is computed and cached in one place."""
    sites = defaultdict(list)
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "cached"
            ):
                key = node.args[0] if node.args else None
                assert isinstance(key, ast.Constant) and isinstance(key.value, str), (
                    f"{path.name}:{node.lineno} passes a non-literal cache key"
                )
                sites[key.value].append(f"{path.name}:{node.lineno}")
    assert len(sites) >= 5
    shared = {key: where for key, where in sites.items() if len(where) > 1}
    assert not shared, f"cache keys with more than one call site: {shared}"


def test_one_module_states_the_parameter_ideal_contract():
    """The rule "Q is a parameter ideal of M" is written once: its
    diagnostic occurs in exactly one module of the package."""
    holders = [
        p.name for p in sorted(SRC.glob("*.py")) if "not a parameter ideal" in p.read_text()
    ]
    assert holders == ["modules.py"]


@pytest.mark.parametrize(
    "path",
    [p for p in MODULES if p.name not in ("groebner.py", "kernel.py")],
    ids=lambda p: p.name,
)
def test_one_engine_boundary(path):
    """Outside the engine, normal forms go through GroebnerEngine.normal_form
    in (comp, mono) terms: no other module reads the kernel's by_comp view
    or calls a reduce on a term order."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and (
            node.attr == "by_comp"
            or node.attr == "reduce"
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "order"
        )
    ]
    assert not lines, f"{path.name} reaches into the engine at lines {lines}"


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "fields.py"], ids=lambda p: p.name
)
def test_coefficient_division_lives_in_fields(path):
    """The true division `/` occurs only in fields.py: a QQ element is an
    int when it is integral, and `/` of two ints is a float, so every
    coefficient division goes through field.div."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
    ]
    assert not lines, f"{path.name} divides with / at lines {lines}"


def test_engines_are_built_in_groebner_and_hilbert_only():
    """GroebnerEngine( is constructed only in groebner.py and hilbert.py:
    every minimal presentation is one minimal_lift, so no minimality rule
    runs an engine of its own."""
    builders = [
        p.name
        for p in MODULES
        for node in ast.walk(ast.parse(p.read_text(), filename=str(p)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "GroebnerEngine"
    ]
    assert sorted(set(builders)) == ["groebner.py", "hilbert.py"], builders
