"""The two lazy name tables, the package's public names and cli's
per-subcommand names, each resolved on first use (PEP 562); the rule that
decides which names are public; and checks that every import in ``src/``
is used and that none is of ``dataclasses``."""
import ast
import functools
import importlib
import inspect
import re
from pathlib import Path

import pytest

import polyeval
import polyeval.cli

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "polyeval"

# exported although nothing outside its module uses it: whether eval
# accumulates runs with it, or it is deleted, is still open
UNUSED_EXPORTS = {"accumulate_runs"}

# imported but not used in the importing module: cli.read_jsonl stays
# importable for bench/test_bench.py, which checks its identity
UNUSED_IMPORTS = {("cli", "read_jsonl")}


def referenced_names(tree: ast.AST) -> set[str]:
    """The identifiers a module's code names: variables, attributes, names
    it imports, and string constants that are a whole identifier (cli
    lists its names as strings)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                names.add(node.value)
    return names


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@functools.cache
def users_outside(module: str) -> set[str]:
    """Every name the code outside ``module`` refers to: the other modules
    of ``src/`` (the export table aside), the demos, the benchmark's Python
    files and the README."""
    names = set()
    paths = [p for p in SRC.glob("*.py") if p.stem not in (module, "__init__")]
    paths += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    for path in paths:
        names |= referenced_names(parse(path))
    names |= set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    return names


def exports_without_a_user() -> set[str]:
    annotations = {}
    for name in polyeval._EXPORTS:
        # a function's parameters and return, or a class's fields; a
        # constant has none
        value = getattr(polyeval, name)
        found = inspect.get_annotations(value).values() if callable(value) else ()
        annotations[name] = " ".join(map(str, found))
    unused = set()
    for name, module in polyeval._EXPORTS.items():
        in_an_annotation = any(re.search(rf"\b{name}\b", text)
                               for other, text in annotations.items() if other != name)
        if not in_an_annotation and name not in users_outside(module):
            unused.add(name)
    return unused


def test_a_name_is_public_when_something_outside_its_module_uses_it():
    assert exports_without_a_user() == UNUSED_EXPORTS
    assert len(polyeval._EXPORTS) == 59


def test_the_package_table_keeps_every_public_name():
    assert sorted(polyeval.__all__) == sorted(polyeval._EXPORTS)
    assert set(polyeval._EXPORTS) <= set(dir(polyeval))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = parse(path)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.partition(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name for name in imported - used if (path.stem, name) not in UNUSED_IMPORTS}
    assert not unused, f"{path.name} imports {sorted(unused)} and never uses them"


def test_no_module_imports_dataclasses():
    # records are NamedTuples: dataclasses would bring inspect, ast and dis
    # into every command's start-up
    importers = {
        path.name for path in SRC.glob("*.py") for node in ast.walk(parse(path))
        if isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
        or isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
    }
    assert not importers


@pytest.mark.parametrize("name", sorted(polyeval._EXPORTS))
def test_a_public_name_is_the_object_its_module_defines(name):
    module = importlib.import_module(f"polyeval.{polyeval._EXPORTS[name]}")
    value = getattr(polyeval, name)
    assert value is getattr(module, name)
    # a function or class is defined there, not imported from another layer
    assert getattr(value, "__module__", module.__name__) == module.__name__


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        polyeval.nonesuch
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        polyeval.cli.nonesuch


@pytest.mark.parametrize("command", sorted(polyeval.cli.IMPORTS))
def test_a_cli_name_is_the_object_of_its_layer(command):
    # the benchmark's tracer finds a layer crossing by this identity, and
    # replaces the name in cli's namespace, where run keeps it
    for name in polyeval.cli.IMPORTS[command]:
        module = importlib.import_module(f"polyeval.{polyeval._EXPORTS[name]}")
        assert getattr(polyeval.cli, name) is getattr(module, name)
