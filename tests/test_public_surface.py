"""Every public function, class and method in `src/commgraph` has a caller there.

A public name that only tests call is a second way to do something the
program already does; such a helper belongs in `tests/` instead. References
are matched by name anywhere in the package outside the definition itself: a
read of `name` or of `<anything>.name` for a function or class, and of
`<anything>.name` for a method. The check is coarse, but it never misses a
real caller.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "commgraph"

# public names kept without a caller in the package, each for a reason
ALLOWED = {
    "main": "the `commgraph` console script in pyproject.toml calls it",
    "modularity": "Q of any partition, the function the brute-force oracle tests check",
    "normalized_mutual_information": "partition NMI, kept for the attribute report that ROADMAP.md plans",
}


def _definitions(tree):
    """Yield (node, is_method) for the public top-level functions and classes and their public methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield item, True


def _reads(node, enclosing=()):
    """Yield (name, is_attribute, the definitions enclosing the read) for every name read under `node`."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        yield node.id, False, enclosing
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        yield node.attr, True, enclosing
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        enclosing = (*enclosing, node)
    for child in ast.iter_child_nodes(node):
        yield from _reads(child, enclosing)


def test_every_public_name_has_a_caller_in_the_package():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    reads: dict[str, list[tuple]] = {}
    for tree in trees.values():
        for name, is_attribute, enclosing in _reads(tree):
            reads.setdefault(name, []).append((is_attribute, enclosing))
    unused = [
        f"{module}: {node.name}"
        for module, tree in trees.items()
        for node, is_method in _definitions(tree)
        if node.name not in ALLOWED
        and not any(
            (is_attribute or not is_method) and node not in enclosing
            for is_attribute, enclosing in reads.get(node.name, [])
        )
    ]
    assert not unused, "public names with no caller in src/commgraph: " + ", ".join(unused)


def test_allowed_names_are_still_defined():
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")]
    defined = {node.name for tree in trees for node, _ in _definitions(tree)}
    assert set(ALLOWED) <= defined
