"""The runtime is standard-library only: every absolute import in the
package names a standard-library module (or the package itself)."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "topomonoid"


def absolute_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_standard_library(path):
    allowed = sys.stdlib_module_names | {"topomonoid"}
    outside = sorted(set(absolute_imports(path)) - allowed)
    assert not outside, f"{path.name} imports non-stdlib modules {outside}"
