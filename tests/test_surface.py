"""The package's public surface: every public name is read inside the package.

The scan is by spelling. It collects the public functions, classes, methods
and module constants of ``src/coniveau/*.py`` and every bare name the
package loads: names, attributes, import aliases and string constants
(``FAMILIES`` names its builders by string). So it cannot see an unread name
that shares its spelling with another use: ``GradedPresentation.gens`` is
unread by the package, but ``gens`` is a local name in several functions.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "coniveau"

# The t-ring reference path of SplitRing, which only tests read. perfbench
# patches two of these methods by name, so they stay until ROADMAP item 4b
# moves them into the tests and empties this set.
UNREAD = {"SplitRing.expand_w", "SplitRing.q_on_t", "SplitRing.symmetrize_to_w"}


def _public(name):
    return not name.startswith("_")


def _defined(tree):
    """(qualified name, bare name) of each public top-level definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name):
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and _public(item.name):
                        yield f"{node.name}.{item.name}", item.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name) and _public(target.id):
                    yield target.id, target.id


def _loaded(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_public_name_is_read_in_the_package():
    trees = [ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))]
    loaded = {name for tree in trees for name in _loaded(tree)}
    unread = {qual for tree in trees for qual, bare in _defined(tree) if bare not in loaded}
    assert unread == UNREAD


def _kernel_imports(tree):
    """The names a module imports from ``_kernels``; ``_kernels`` itself for
    an import of the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("coniveau").lstrip(".")
            if module == "_kernels":
                yield from (alias.name for alias in node.names)
            elif module == "":
                yield from (alias.name for alias in node.names if alias.name == "_kernels")
        elif isinstance(node, ast.Import):
            yield from ("_kernels" for alias in node.names if alias.name == "coniveau._kernels")


def test_only_fp_builds_kernel_rows():
    # fp keys every eliminator row by its own columns; the package root only
    # re-exports backend_name, which the benchmark reads (ROADMAP item 4b)
    importers = {}
    for path in sorted(PACKAGE.glob("*.py")):
        names = sorted(_kernel_imports(ast.parse(path.read_text(), str(path))))
        if names:
            importers[path.stem] = names
    assert importers == {"__init__": ["backend_name"], "fp": ["_kernels"]}


def _imports(node, at_import=True):
    """(top-level module, whether importing the package module runs it) for
    each absolute import under ``node``: one in a function body runs only
    when the function is called."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            yield from ((alias.name.partition(".")[0], at_import) for alias in child.names)
        elif isinstance(child, ast.ImportFrom) and not child.level:
            yield child.module.partition(".")[0], at_import
        else:
            body_runs_later = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            yield from _imports(child, at_import and not body_runs_later)


def test_numpy_and_hashlib_load_only_when_called():
    # numpy packs fp's S-pair matrices and nothing else, so a command that
    # eliminates none never loads it; hashlib maps OpenSSL for one digest
    # that CPython's built-in sha256 gives as well
    at_import = set()
    numpy_importers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for module, eager in _imports(ast.parse(path.read_text(), str(path))):
            if eager and module in ("numpy", "hashlib"):
                at_import.add((path.stem, module))
            if module == "numpy":
                numpy_importers.add(path.stem)
    assert at_import == set()
    assert numpy_importers == {"_kernels", "fp"}
