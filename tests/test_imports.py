"""Every module-level import in the package is used by its own module."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "semshare"

# perfbench/bench_layers.py traces the binding pipeline.grid_from_homography,
# which pipeline itself no longer calls
ALLOWED = {("pipeline", "grid_from_homography")}


def unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    # a dotted use such as np.pad is an ast.Name for its leftmost part
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_imports_are_used(path):
    unused = [name for name in unused_imports(path) if (path.stem, name) not in ALLOWED]
    assert not unused, f"{path.name} imports names it never uses: {unused}"
