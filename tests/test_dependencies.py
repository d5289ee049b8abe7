"""The declared dependencies of pyproject.toml match what the package and its tests import."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def declared(key: str) -> set[str]:
    """The names in one list of pyproject.toml, `dependencies` or an extra such as `test`,
    without version specifiers.  Read by pattern: Python 3.10 has no tomllib."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    body = re.search(rf"^{key} = \[(.*?)\]", text, re.MULTILINE | re.DOTALL).group(1)
    return {re.match(r"[\w.-]+", item).group(0).lower() for item in re.findall(r'"([^"]+)"', body)}


def imported(directory: Path) -> set[str]:
    """Top-level names of the absolute imports of every .py file under directory, the
    standard library left out."""
    names = set()
    for path in directory.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names)


def test_the_package_imports_itself_and_its_dependencies():
    assert imported(ROOT / "src" / "tunnellab") - {"tunnellab"} == declared("dependencies")


def test_the_tests_import_the_package_its_dependencies_and_the_test_extras():
    expected = declared("dependencies") | declared("test") | {"tunnellab", "oracles"}
    assert imported(ROOT / "tests") == expected
