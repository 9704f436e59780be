"""Every module-level import in the package is used by its own module,
every module-level private name is used somewhere in the package, every
public name has a caller, the package root re-exports nothing, and only
raster (its thread helper, _run_parts) holds thread code and picks a
pass's threads."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "semshare"

# perfbench/bench_layers.py traces the bindings pipeline.grid_from_homography
# and flow.grid_from_flow, which pipeline and flow themselves no longer call
ALLOWED = {("pipeline", "grid_from_homography"), ("flow", "grid_from_flow")}


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


def read_names(tree):
    """The names a module reads: loads of a name, and attribute names (an
    import alone is no read)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_private_names_are_used():
    trees = {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = set().union(*map(read_names, trees.values()))
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


def test_only_raster_reads_the_thread_helpers():
    """Other modules run a banded pass through raster._run_box, which
    alone picks the threads and runs the queue."""
    readers = sorted(
        path.stem
        for path in SRC.glob("*.py")
        if read_names(ast.parse(path.read_text())) & {"_run_parts", "_thread_count"}
    )
    assert readers == ["raster"], f"modules that read raster's thread helpers: {readers}"


def test_package_root_defines_only_the_version():
    """Each public name is reached one way, from its own module."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    assert ast.get_docstring(tree) is not None
    rest = [ast.unparse(node).split(" = ")[0] for node in tree.body[1:]]
    assert rest == ["__version__"], f"the package root holds more than __version__: {rest}"


# the package, the benchmark and the acceptance gate; tests of a name are no caller
CALLER_FILES = [
    *sorted(SRC.glob("*.py")),
    *sorted((SRC.parents[1] / "perfbench").glob("*.py")),
    SRC.parents[1] / "tests" / "test_acceptance.py",
]
# criterion 8 checks fuse_backward's hand-derived gradients through
# tests/test_fusion.run_fd_check; the package itself trains in float32
CALLED_ONLY_BY_TESTS = {"fusion.fuse_backward"}


def public_definitions(tree):
    """Public top-level functions and classes, and public methods of the
    public classes, as (qualified name, bare name) pairs."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def test_public_names_have_callers():
    """A caller is a name read, an attribute or an import of the name in
    one of CALLER_FILES.  The check is by bare name: a name that two
    definitions share counts as a caller of both, so a finding can be
    missed; and a name reached only through a string, as in perfbench's
    Target entries, would be reported."""
    called = set()
    for path in CALLER_FILES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                called.add(node.id)
            elif isinstance(node, ast.Attribute):
                called.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                called.update(alias.name for alias in node.names)
    uncalled = sorted(
        f"{path.stem}.{qualified}"
        for path in MODULES
        for qualified, name in public_definitions(ast.parse(path.read_text()))
        if name not in called
    )
    # a listed exception that gains a caller leaves the list
    assert set(uncalled) == CALLED_ONLY_BY_TESTS, f"public names without a caller: {uncalled}"
