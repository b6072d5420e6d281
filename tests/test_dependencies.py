import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

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
