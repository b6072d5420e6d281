import ast
import functools
import importlib
import os
import subprocess
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# prints the top-level names of the modules that importing every lefgroup
# module loads from outside the standard library and lefgroup itself
IMPORT_ALL = """
import pkgutil, sys
before = set(sys.modules)
import lefgroup
for module in pkgutil.iter_modules(lefgroup.__path__):
    __import__(f"lefgroup.{module.name}")
assert "lefgroup.surface" in sys.modules
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(sorted(loaded - set(sys.stdlib_module_names) - {"lefgroup"}))
"""


def test_package_imports_only_the_standard_library():
    result = subprocess.run([sys.executable, "-c", IMPORT_ALL],
                            env={**os.environ, "PYTHONPATH": str(SRC)},
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_declared_scripts_resolve():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        entry = functools.reduce(getattr, attr.split("."), importlib.import_module(module))
        assert callable(entry), name


def _names(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _unused_imports(tree: ast.Module) -> set[str]:
    imported = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
    used = _names(tree)
    # a quoted annotation names its types inside a string
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _names(ast.parse(node.value, mode="eval"))
    return imported - used


def test_package_has_no_unused_imports():
    unused = {
        f"{path.stem}.{name}"
        for path in sorted((SRC / "lefgroup").glob("*.py"))
        for name in _unused_imports(ast.parse(path.read_text()))
    }
    assert not unused, sorted(unused)
