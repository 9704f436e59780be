"""Every module-level import in the package is used by its own module,
every module-level private name is used somewhere in the package, and
only raster (its row-parts helper, _run_parts) holds thread code."""

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


def private_definitions(tree):
    """Module-level names of one underscore that a module defines."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def test_private_names_are_used():
    trees = {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    # reads of a name or an attribute (an import alone is no use)
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = sorted(
        f"{path.stem}.{name}"
        for path, tree in trees.items()
        for name in private_definitions(tree) - used
    )
    assert not unused, f"private names nothing in the package uses: {unused}"


THREAD_MODULES = {"threading", "contextvars", "_thread", "concurrent"}


def imported_modules(tree):
    """The top-level names of the modules a module imports, anywhere in it."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_only_raster_imports_thread_modules():
    """Every pass on threads goes through raster._run_parts; no other module
    keeps a copy of its start, join and failure code."""
    importers = sorted(
        path.stem
        for path in SRC.glob("*.py")
        if imported_modules(ast.parse(path.read_text())) & THREAD_MODULES
    )
    assert importers == ["raster"]
