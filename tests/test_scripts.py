"""The scripts: each runs to exit 0 at a tiny size and takes no
underscore name from pvlevels, which keeps them on the public API; and
every name the package exports has a caller in the program."""

import ast
import importlib.util
import inspect
import os
import re
import subprocess
import symtable
import sys
from pathlib import Path

import pytest

import pvlevels

ROOT = Path(__file__).resolve().parent.parent

TINY = ["--days", "40", "--ncust", "4", "--nfeeders", "2", "--epochs", "5",
        "--patience", "5", "--committee", "1", "--block", "0"]


@pytest.mark.parametrize(
    "script,args",
    [
        ("margin_survey.py", [*TINY, "--retries", "1", "--max-days", "2"]),
        ("demo.py", ["--days", "40", "--eval-days", "3"]),
        ("rss_by_path.py", ["--tiny", "--lengths", "2", "--against", str(ROOT)]),
    ],
)
def test_script_runs(script, args):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    if "--against" in args:
        for side in "AB":
            for name in ("peak_rss_mb", "setup_s", "run_s"):
                assert re.search(
                    rf"^{side} {name}: median \S+, quartiles \S+-\S+, ", proc.stdout, re.M
                ), proc.stdout
        for name in ("peak_rss_mb", "setup_s", "run_s"):
            assert re.search(
                rf"^B lower than A on {name}: [0-2] of 2 lengths$", proc.stdout, re.M
            ), proc.stdout


def test_rss_by_path_copies_are_byte_compiled(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "rss_by_path", ROOT / "scripts" / "rss_by_path.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.copy_checkout(ROOT, tmp_path / "x")
    for package in ("src/pvlevels", "bench"):
        sources = {p.stem for p in (tmp_path / "x" / package).glob("*.py")}
        compiled = {
            p.name.split(".")[0]
            for p in (tmp_path / "x" / package / "__pycache__").glob("*.pyc")
        }
        assert sources and sources <= compiled, package


def underscore_names(tree: ast.Module) -> list[str]:
    """Every underscore name the module takes from pvlevels: in an import
    of pvlevels, or as an attribute reached from a name such an import
    binds (``pv._x``, ``pv.cli._y``)."""
    bound = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "pvlevels":
                    found += [p for p in alias.name.split(".") if p.startswith("_")]
                    bound.add(alias.asname or "pvlevels")
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if (node.module or "").split(".")[0] == "pvlevels":
                found += [p for p in node.module.split(".") if p.startswith("_")]
                for alias in node.names:
                    if alias.name.startswith("_"):
                        found.append(alias.name)
                    bound.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in bound:
                found.append(ast.unparse(node))
    return found


@pytest.mark.parametrize(
    "script", sorted(p.name for p in (ROOT / "scripts").glob("*.py"))
)
def test_script_takes_no_underscore_name_from_pvlevels(script):
    tree = ast.parse((ROOT / "scripts" / script).read_text(encoding="utf-8"))
    assert underscore_names(tree) == []


@pytest.mark.parametrize(
    "source,names",
    [
        ("from pvlevels.cli import load_csv, _emit", ["_emit"]),
        ("from pvlevels import _x as y", ["_x"]),
        ("import pvlevels._private as p", ["_private"]),
        ("import pvlevels as pv\npv.cli._hour_stamps(pv.HOUR)", ["pv.cli._hour_stamps"]),
        ("import pvlevels.cli\npvlevels.cli._emit", ["pvlevels.cli._emit"]),
        ("from pvlevels import cli as c\nc._emit.__doc__", ["c._emit.__doc__", "c._emit"]),
        ("import pvlevels as pv\nimport numpy as np\npv.cli.load_csv\nnp._x", []),
    ],
)
def test_underscore_names_finds_each_way_in(source, names):
    assert underscore_names(ast.parse(source)) == names


# Exported names kept as named references with no caller: the per-hour
# chain that clearsky_profile must equal bit for bit, the model file
# round trip that criterion 8 checks, the one-vector net formula that
# predict_closed_loop's steps and batch predictions are tested against,
# and the gradient that criterion 2 checks.
UNCALLED_EXPORTS = {
    "clearsky_power", "solar_position", "save_model", "load_model",
    "forward", "loss_and_gradient",
}


def names_read(source: str, in_package: bool = False) -> set[str]:
    """Every name the module reads that may be one of pvlevels': a name
    global in the scope that reads it (so not a local or closure name of
    the same spelling), or imported there from pvlevels, by its exported
    name; and an attribute reached from a name bound to a pvlevels module
    (``pv.narnet.train``). ``in_package`` reads relative imports as
    imports from pvlevels."""
    tree = ast.parse(source)
    exported = {}  # local name -> the name imported from pvlevels
    modules = set()  # local names bound to a pvlevels module
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "pvlevels":
                    modules.add(alias.asname or "pvlevels")
        elif isinstance(node, ast.ImportFrom):
            if node.level and in_package:
                base = ".".join(filter(None, ["pvlevels", node.module]))
            elif node.level == 0 and (node.module or "").split(".")[0] == "pvlevels":
                base = node.module
            else:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                exported[local] = alias.name
                if inspect.ismodule(getattr(importlib.import_module(base), alias.name, None)):
                    modules.add(local)
    found = set()
    tables = [symtable.symtable(source, "<module>", "exec")]
    while tables:
        table = tables.pop()
        tables += table.get_children()
        for sym in table.get_symbols():
            name = sym.get_name()
            if sym.is_referenced() and (
                sym.is_global() or (sym.is_imported() and name in exported)
            ):
                found.add(exported.get(name, name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                found.add(node.attr)
    return found


@pytest.mark.parametrize(
    "source,in_package,names",
    [
        ("from pvlevels.narnet import forward\nforward(x)", False, {"forward", "x"}),
        ("from pvlevels import forward as f\nf()", False, {"forward"}),
        ("def g():\n    from pvlevels import forward\n    forward()", False, {"forward"}),
        ("def g():\n    return forward()", False, {"forward"}),
        ("def g():\n    def forward(): pass\n    forward()", False, set()),
        ("def g(forward):\n    return lambda: forward()", False, set()),
        ("def g():\n    from numpy import forward\n    forward()", False, set()),
        ("class K:\n    def g(self):\n        self.forward()", False, set()),
        ("import pvlevels as pv\npv.narnet.forward", False, {"pv", "narnet", "forward"}),
        ("from pvlevels import narnet\nnarnet.forward", False, {"narnet", "forward"}),
        ("def g(pv):\n    pv.narnet.forward", False, set()),
        ("from . import narnet\nnarnet.forward", True, {"narnet", "forward"}),
        ("from .narnet import forward as f\nf()", True, {"forward"}),
        ("from . import narnet\nnarnet.forward", False, {"narnet"}),
    ],
)
def test_names_read_resolves_by_scope(source, in_package, names):
    assert names_read(source, in_package) == names


def loaded_names() -> set[str]:
    """`names_read` over the package's modules (not its __init__),
    bench/*.py and scripts/*.py."""
    package = [p for p in (ROOT / "src" / "pvlevels").glob("*.py") if p.name != "__init__.py"]
    found = set()
    for path in package:
        found |= names_read(path.read_text(encoding="utf-8"), in_package=True)
    for path in [*(ROOT / "bench").glob("*.py"), *(ROOT / "scripts").glob("*.py")]:
        found |= names_read(path.read_text(encoding="utf-8"))
    return found


def test_every_export_has_a_caller():
    exports = {
        name for name in pvlevels.__all__ if not inspect.ismodule(getattr(pvlevels, name))
    }
    assert UNCALLED_EXPORTS <= exports
    loaded = loaded_names()
    assert sorted(exports - UNCALLED_EXPORTS - loaded) == []
    assert sorted(UNCALLED_EXPORTS & loaded) == []
