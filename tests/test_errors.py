"""The toolkit's exception classes, read from the source.

``errors.py`` defines ``PolyevalError`` and its subclass ``ValidationError``,
and no other module defines an exception class: a failure is told apart by
its message and by whether it is a ValidationError, and a decision that is
not a failure (an excluded type label, a sequence with no list marker) is a
return value.
"""
import ast
import importlib
from pathlib import Path

import polyeval

SRC = Path(polyeval.__file__).parent


def _classes(path: Path) -> dict[str, list[str]]:
    """Every class the module defines, at any depth, with its bases as written."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.name: [ast.unparse(base) for base in node.bases]
            for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}


def test_errors_defines_exactly_the_two_classes():
    assert _classes(SRC / "errors.py") == {
        "PolyevalError": ["Exception"],
        "ValidationError": ["PolyevalError"],
    }


def test_no_other_module_defines_an_exception_class():
    checked = 0
    for path in sorted(SRC.glob("*.py")):
        if path.name == "errors.py":
            continue
        module = importlib.import_module(f"polyeval.{path.stem}")
        for name in _classes(path):
            cls = getattr(module, name)  # fails for a class nested in a function
            assert not issubclass(cls, BaseException), f"{path.name}: {name}"
            checked += 1
    assert checked > 0
