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

# The t-ring reference path and fp.in_span, which nothing in the package
# reads. perfbench patches three of them by name, so they stay until ROADMAP
# item 4b, which moves or deletes them and empties this set.
UNREAD = {"SplitRing.expand_w", "SplitRing.q_on_t", "SplitRing.symmetrize_to_w", "in_span"}


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
