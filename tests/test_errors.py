"""The error hierarchy: three successors under one base, each telling a
caller what to do (stop, skip the day, drop the net), and no other
package exception class raised or caught anywhere in the package."""

import ast
import builtins
from itertools import combinations
from pathlib import Path

import pvlevels as pv
from pvlevels import errors

PACKAGE = Path(pv.__file__).resolve().parent
PUBLIC = {"PvlevelsError", "InputError", "Unforecastable", "TrainingFailed", "AllExcluded"}
REMOVED = {
    "ParseError", "GapError", "DuplicateRow", "MisalignedRange", "LengthMismatch",
    "LevelTagMismatch", "InsufficientHistory", "AllNight", "ConstantActual",
    "EmptyDay", "NoNightHours", "DivergedLoss", "DimensionMismatch", "TooShort",
    "EmptyBatch", "SeedLengthMismatch", "EmptyList", "OutOfRangeDay",
}
BUILTIN_EXCEPTIONS = {
    name
    for name, value in vars(builtins).items()
    if isinstance(value, type) and issubclass(value, BaseException)
}


def raised_and_caught(tree: ast.Module) -> set[str]:
    """The class names in the module's ``raise`` and ``except`` clauses."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc
            found.append(exc.func if isinstance(exc, ast.Call) else exc)
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            kind = node.type
            found.extend(kind.elts if isinstance(kind, ast.Tuple) else [kind])
    return {n.attr if isinstance(n, ast.Attribute) else n.id for n in found}


def test_error_hierarchy():
    classes = {
        name
        for name, value in vars(errors).items()
        if isinstance(value, type) and not name.startswith("_")
    }
    assert classes == PUBLIC
    successors = [pv.InputError, pv.Unforecastable, pv.TrainingFailed]
    for a, b in combinations(successors, 2):
        assert not issubclass(a, b) and not issubclass(b, a)
    # model_from_text and build_run_config re-wrap ValueError, so a
    # successor under it would be renamed on the way out
    for cls in successors + [pv.AllExcluded]:
        assert issubclass(cls, pv.PvlevelsError)
        assert not issubclass(cls, ValueError)
    assert issubclass(pv.AllExcluded, pv.Unforecastable)
    assert sorted(REMOVED & set(dir(pv))) == []

    names = set()
    for path in sorted(PACKAGE.glob("*.py")):
        names |= raised_and_caught(ast.parse(path.read_text(encoding="utf-8")))
    assert names - BUILTIN_EXCEPTIONS == PUBLIC | {"ConfigError"}
    assert raised_and_caught(
        ast.parse("try:\n    raise pv.AllNight('x')\nexcept (GapError, OSError):\n    raise")
    ) == {"AllNight", "GapError", "OSError"}
