import ast
import re
from pathlib import Path

from latticebox import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _section(title):
    start = README.index(f"## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:] if end < 0 else README[start:end]


def test_readme_quick_tour_gives_its_commented_values():
    # each bare expression of the tour is followed by its value as a comment
    code = re.search(r"```python\n(.*?)```", _section("Library quick tour"), re.S)[1]
    lines = code.splitlines()
    namespace: dict = {}
    shown = []
    for stmt in ast.parse(code).body:
        if isinstance(stmt, ast.Expr):
            value = repr(eval(ast.unparse(stmt), namespace))
            comment = lines[stmt.lineno - 1].partition("#")[2].strip()
            assert comment.startswith(value), (value, comment)
            shown.append(value)
        else:
            exec(ast.unparse(stmt), namespace)
    assert shown == ["True", "(0, 8)", "(Fraction(1, 2), Fraction(0, 1))"]


def test_readme_command_table_names_every_command():
    table = re.findall(r"^\| `(\w+)` ", _section("Command line"), re.M)
    assert table == list(cli._COMMANDS)
