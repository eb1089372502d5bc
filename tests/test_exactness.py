"""Static audit: the library must never touch floating point.

Every arithmetic path is integer or Fraction work, so the source tree is
parsed and searched for float literals, float-producing calls, true
division outside the Fraction-based real-root module, and imports of
float-returning math helpers.  The same parse also keeps out module-level
mutable state: `global` statements and writes into imported modules.  A
fresh interpreter checks what importing the CLI pulls in.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import torushecke

SRC = Path(torushecke.__file__).parent

EXACT_MATH_NAMES = {"isqrt", "gcd", "lcm", "comb", "factorial", "prod"}
FLOAT_RNG_METHODS = {
    "random",
    "uniform",
    "gauss",
    "normalvariate",
    "expovariate",
    "betavariate",
    "triangular",
    "lognormvariate",
    "paretovariate",
    "vonmisesvariate",
    "weibullvariate",
}
DIVISION_ALLOWED = {"sturm.py"}  # Fraction arithmetic only


def _module_sources():
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 10
    return [(f.name, ast.parse(f.read_text())) for f in files]


def test_no_float_or_complex_literals():
    for name, tree in _module_sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant):
                assert not isinstance(node.value, (float, complex)), (
                    name,
                    node.lineno,
                    node.value,
                )


def test_no_float_conversions_or_float_rng():
    for name, tree in _module_sources():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                assert func.id not in ("float", "complex"), (name, node.lineno)
            if isinstance(func, ast.Attribute):
                assert func.attr not in FLOAT_RNG_METHODS, (name, node.lineno)


def test_true_division_only_on_fractions():
    for name, tree in _module_sources():
        if name in DIVISION_ALLOWED:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.BinOp):
                assert not isinstance(node.op, ast.Div), (name, node.lineno)
            if isinstance(node, ast.AugAssign):
                assert not isinstance(node.op, ast.Div), (name, node.lineno)


def test_math_imports_are_integer_exact():
    for name, tree in _module_sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "math":
                for alias in node.names:
                    assert alias.name in EXACT_MATH_NAMES, (name, alias.name)
            if isinstance(node, ast.Import):
                for alias in node.names:
                    assert alias.name not in ("math", "cmath", "statistics"), name


def test_fraction_module_really_avoids_floats():
    # the one division-bearing module must route everything through Fraction
    tree = ast.parse((SRC / "sturm.py").read_text())
    froms = [
        n
        for n in ast.walk(tree)
        if isinstance(n, ast.ImportFrom) and n.module == "fractions"
    ]
    assert froms and froms[0].names[0].name == "Fraction"


def _imported_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.asname or a.name for a in node.names)
    return names


def _written_attribute_of(target, names):
    """The imported name whose attribute the target writes into, if any."""
    node = target
    while isinstance(node, ast.Subscript):
        node = node.value
    if not isinstance(node, ast.Attribute):
        return None
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name) and node.id in names:
        return node.id
    return None


def test_no_module_level_mutable_state():
    # a setting stored in a module outlives the call that set it, so every
    # setting travels as an argument instead
    for name, tree in _module_sources():
        imported = _imported_names(tree)
        for node in ast.walk(tree):
            assert not isinstance(node, ast.Global), (name, node.lineno)
            if isinstance(node, (ast.Assign, ast.Delete)):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("setattr", "delattr")
            ):
                first = node.args[0] if node.args else None
                assert not (
                    isinstance(first, ast.Name) and first.id in imported
                ), (name, node.lineno)
                continue
            else:
                continue
            for target in targets:
                written = _written_attribute_of(target, imported)
                assert written is None, (name, node.lineno, written)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # records are NamedTuples: as dataclasses, their definitions and the
    # imports of dataclasses and inspect took over half the library's import
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import torushecke.cli\n"
        "print(torushecke.__file__)\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert out == [str(SRC / "__init__.py"), "[]"]


def test_package_exports_resolve_sorted_and_complete():
    # __all__ is the public surface: every name in it resolves, it is sorted
    # without repeats, and every public name __init__ imports is in it
    names = torushecke.__all__
    assert [name for name in names if not hasattr(torushecke, name)] == []
    assert list(names) == sorted(set(names))
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert {name for name in imported if not name.startswith("_")} - set(names) == set()
