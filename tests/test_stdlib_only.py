import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "latticebox"


def test_runtime_imports_are_standard_library():
    # the package runs on the standard library alone; relative imports are
    # the package's own modules
    outside = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.split(".")[0] not in sys.stdlib_module_names:
                    outside.append(f"{path.name}: {name}")
    assert list(SRC.glob("*.py"))
    assert outside == []


def test_modules_parse_at_the_python_floor():
    # requires-python is >=3.10: no module may use later syntax
    for path in sorted(SRC.glob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
