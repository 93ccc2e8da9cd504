"""`[project] dependencies` in pyproject.toml names exactly the third-party
packages that the package's modules import: a stray import fails here, and
so does a declaration nothing uses."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dmrate"


def declared_dependencies() -> set[str]:
    # The array of strings is also a Python literal; tomllib would need 3.11.
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", (ROOT / "pyproject.toml").read_text(), re.M | re.S).group(1)
    array = re.search(r"^dependencies\s*=\s*(\[.*?\])\s*$", project, re.M | re.S).group(1)
    return {re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower().replace("-", "_") for req in ast.literal_eval(array)}


def imported_third_party() -> set[str]:
    names = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {PACKAGE.name}


def test_declared_dependencies_match_imports():
    assert imported_third_party() == {"numpy"}
    assert declared_dependencies() == imported_third_party()
