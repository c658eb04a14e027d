"""The runtime is standard-library only: every absolute import in the
package names a standard-library module (or the package itself).  The
package's imports of its own modules form no cycle, and the rewrite side
does not depend on the set algebra.  Every module is parsed with the
grammar of Python 3.10, the oldest version pyproject.toml admits, so
newer syntax (except*, PEP 695 generics) fails here too."""

import ast
import graphlib
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "topomonoid"
OLDEST_PYTHON = (3, 10)


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=OLDEST_PYTHON)


def absolute_imports(path: Path):
    for node in ast.walk(parse(path)):
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


def package_imports(path: Path):
    """The package modules `path` imports anywhere, function bodies included;
    "__init__" stands for a name taken from the package itself."""
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module
            if node.level:  # the package is flat, so "." is topomonoid itself
                base = "topomonoid" + (f".{base}" if base else "")
            targets = [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for target in targets:
            parts = target.split(".")
            if parts[0] == "topomonoid":
                yield parts[1] if len(parts) > 1 and parts[1] in modules else "__init__"


def test_package_import_graph_has_no_cycle():
    graph = {p.stem: set(package_imports(p)) for p in PACKAGE.glob("*.py")}
    assert {"rewrite", "words"} <= graph["monoid"] and "realsets" in graph["vitali"]
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")


def test_rewrite_side_does_not_reach_the_set_algebra():
    """The upper bound on each count (words, rules, rewrite, monoid) and the
    proved order (poset) are derived apart from the exact evaluator that
    gives the lower bound and the witness evidence."""
    graph = {p.stem: set(package_imports(p)) for p in PACKAGE.glob("*.py")}
    for module in ("words", "rules", "rewrite", "monoid", "poset"):
        reached, todo = set(), [module]
        while todo:
            for dep in graph[todo.pop()] - reached:
                reached.add(dep)
                todo.append(dep)
        assert not reached & {"realsets", "vitali", "corpus", "__init__"}, (module, reached)
