"""The nslab modules reach each other only through public names and only
from the top of a module, and the package imports nothing but the standard
library, numpy and itself."""

import ast
import sys
from pathlib import Path

import nslab

SRC = Path(nslab.__file__).parent


def test_no_private_names_imported_across_modules():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "nslab":
                continue
            found += [f"{path.name}: {alias.name}" for alias in node.names
                      if alias.name.startswith("_")]
    assert found == []


def test_only_stdlib_numpy_and_nslab_imported():
    allowed = set(sys.stdlib_module_names) | {"numpy", "nslab"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}: {name}" for name in names
                      if name.split(".")[0] not in allowed]
    assert found == []


def test_connections_import_nothing_from_engine():
    # a connection is evaluated only inside engine.PointCalculus, its one caller
    found = []
    for node in ast.walk(ast.parse((SRC / "connections.py").read_text())):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found += [node.module] if node.module else [alias.name for alias in node.names]
    assert [name for name in found if name.split(".")[-1] == "engine"] == []


def test_no_function_imports_an_nslab_module():
    # the import graph between the modules is the one their headers show
    found = []
    for path in sorted(SRC.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = ["." * node.level + (node.module or "")]
                else:
                    continue
                found += [f"{path.name}: {func.name}: {name}" for name in names
                          if name.startswith(".") or name.split(".")[0] == "nslab"]
    assert found == []
