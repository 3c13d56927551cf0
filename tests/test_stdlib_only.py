import ast
import re
import sys
from pathlib import Path

import latticebox

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "latticebox"


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


def _used_names(tree):
    """Every name a module reads, including names in string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        for note in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                used |= _used_names(ast.parse(note.value, mode="eval"))
    return used


def _package_trees():
    return {
        path.name: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(SRC.glob("*.py"))
    }


def test_package_has_no_unused_imports_or_private_names():
    # a name imported and never read, or a private function or class that
    # nothing names, is a leftover; __init__.py imports to re-export
    trees = _package_trees()
    used = {name: _used_names(tree) for name, tree in trees.items()}
    unused, unnamed = [], []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if name == "__init__.py" or getattr(node, "module", "") == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used[name]:
                    unused.append(f"{name}: {bound}")
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not any(
                    node.name in names for names in used.values()
                ):
                    unnamed.append(f"{name}: {node.name}")
    assert len(trees) > 1
    assert (unused, unnamed) == ([], [])


def test_package_has_no_unreached_public_names():
    # a public top-level function or class that latticebox does not export,
    # that no package module reads, and that no test, demo, benchmark or
    # entry point in pyproject.toml mentions is code that nothing needs
    trees = _package_trees()
    read = set().union(*map(_used_names, trees.values()))
    mentioned = set(re.findall(r"\w+", (ROOT / "pyproject.toml").read_text()))
    for folder in ("tests", "demos", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                mentioned |= set(re.findall(r"\w+", path.read_text(errors="replace")))
    unreached = [
        f"{name}: {node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in {*latticebox.__all__, *read, *mentioned}
    ]
    assert len(read) > 100 and "run_main" in mentioned
    assert unreached == []


def test_every_inconsistency_refusal_is_tested():
    # exit code 3 means a broken invariant: each refusal left in the package
    # must be one that some input reaches, so some test names its message
    tested = {
        node.value
        for path in sorted((ROOT / "tests").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and len(node.value) >= 12
    }
    messages = [
        (name, node.exc.args[0].value)
        for name, tree in _package_trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and getattr(node.exc.func, "id", None) == "InconsistencyError"
        and isinstance(node.exc.args[0], ast.Constant)
    ]
    untested = [(name, m) for name, m in messages if not any(t in m for t in tested)]
    assert len(messages) > 5
    assert untested == []
