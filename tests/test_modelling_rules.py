"""The datapath's modelling rules, checked on its source.

The ladder builds multiples by shifting and adding, never by
multiplying, and the CSA and the RCA ripple use only boolean
operations. The value tests pass either way, so these read the syntax
tree of datapath.py: no arithmetic operator beyond + and - anywhere in
the module, and not even those in _csa and _ripple. The trace checker
compares a document with the records that engine._native_records
yields natively, and the tests check every record of simulate against
them, so that generator, the independent record reference, may read
only the decoder's control table of the datapath; neither it nor the
checker runs simulate, its cycle loop (_run) or the central adder
(_central_step, its one implementation).
_run runs every cycle through _central_step, and simulate and
baseline.compare both run _run. The reference routes compare checks it
against, shift_add_multiply and oracle_multiply, run none of these.
Invariants raise typed errors, so no library module may hold an
assert, which python -O strips.
"""

import ast
from pathlib import Path

import pytest

import radixmul
from radixmul import baseline, datapath, engine

LIBRARY_SOURCES = sorted(Path(radixmul.__file__).parent.glob("*.py"))
TREE = ast.parse(Path(datapath.__file__).read_text(encoding="utf-8"))
ENGINE_TREE = ast.parse(Path(engine.__file__).read_text(encoding="utf-8"))
BASELINE_TREE = ast.parse(Path(baseline.__file__).read_text(encoding="utf-8"))
# the simulator's entry point, its cycle loop and its central adder
KERNEL = {"simulate", "_run", "_central_step"}
# every function and class the datapath module defines
DATAPATH_NAMES = {name for name, value in vars(datapath).items()
                  if getattr(value, "__module__", None) == datapath.__name__}

MULTIPLICATIVE = (ast.Mult, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow, ast.MatMult)
ADDITIVE = (ast.Add, ast.Sub, ast.UAdd, ast.USub)


def operators(tree: ast.AST, kinds: tuple) -> list[str]:
    # every binary, augmented or unary operator of the given kinds, with its line
    return [
        f"line {node.lineno}: {type(node.op).__name__}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign, ast.UnaryOp))
        and isinstance(node.op, kinds)
    ]


def function(name: str, tree: ast.AST = TREE) -> ast.FunctionDef:
    return next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name)


def test_datapath_never_multiplies_or_divides():
    assert operators(TREE, MULTIPLICATIVE) == []


@pytest.mark.parametrize("name", ["_csa", "_ripple"])
def test_csa_and_ripple_use_only_boolean_operations(name):
    assert operators(function(name), ADDITIVE) == []


def test_the_check_sees_augmented_and_nested_operators():
    tree = ast.parse("def f(x):\n    x *= 2\n    return g(x @ y, -x + 1)\n")
    assert operators(tree, MULTIPLICATIVE) == ["line 2: Mult", "line 3: MatMult"]
    assert sorted(operators(tree, ADDITIVE)) == ["line 3: Add", "line 3: USub"]


def names(tree: ast.AST) -> set[str]:
    # every bare name and attribute name the tree mentions
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def called(tree: ast.AST) -> set[str]:
    # the name of every function the tree calls, bare or as an attribute
    funcs = [node.func for node in ast.walk(tree) if isinstance(node, ast.Call)]
    return ({func.id for func in funcs if isinstance(func, ast.Name)}
            | {func.attr for func in funcs if isinstance(func, ast.Attribute)})


def test_the_native_run_reads_only_the_control_table_of_the_datapath():
    records = function("_native_records", ENGINE_TREE)
    assert names(records) & DATAPATH_NAMES == {"_controls"}
    for name in ("_native_records", "verify_trace_dict"):
        assert called(function(name, ENGINE_TREE)) & KERNEL == set()


def test_the_independence_check_sees_what_simulate_uses():
    tree = function("_run", ENGINE_TREE)
    assert {"_controls", "_ladder", "_central_step"} <= names(tree) & DATAPATH_NAMES
    assert "_central_step" in called(tree)
    assert "_run" in called(function("simulate", ENGINE_TREE))
    assert "_run" in called(function("compare", BASELINE_TREE))
    nested = ast.parse("def f(x):\n    return g(datapath.csa(x))\n")
    assert called(nested) == {"g", "csa"}


@pytest.mark.parametrize("name", ["shift_add_multiply", "oracle_multiply"])
def test_the_reference_routes_run_no_simulator(name):
    assert called(function(name, BASELINE_TREE)) & KERNEL == set()


def asserts(tree: ast.AST) -> list[int]:
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", LIBRARY_SOURCES, ids=lambda path: path.name)
def test_library_holds_no_assert(path):
    assert asserts(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_assert_check_sees_nested_asserts():
    tree = ast.parse("def f(x):\n    if x:\n        assert x > 0, x\n")
    assert asserts(tree) == [3]
