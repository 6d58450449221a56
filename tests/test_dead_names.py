"""Every top-level function and class in ``src/bofsent`` is used by the program or the benchmark.

A name that only its own definition and the tests mention is dead code kept
alive by its tests. A public name may be used by the benchmark; a private
one (leading underscore) must be used by the program itself.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _defines(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node


def _names(node: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Every name ``node`` reads, imports or reaches as an attribute, outside the ``skip`` subtree."""
    found = set()
    stack = [node]
    while stack:
        current = stack.pop()
        if current is skip:
            continue
        if isinstance(current, ast.Name):
            found.add(current.id)
        elif isinstance(current, ast.Attribute):
            found.add(current.attr)
        elif isinstance(current, ast.alias):
            found.add(current.name.rsplit(".", 1)[-1])
        stack.extend(ast.iter_child_nodes(current))
    return found


def _unused(private: bool, patterns: tuple[str, ...]) -> list[str]:
    """``module.name`` of each public or private definition in ``src/bofsent`` that no file of ``patterns`` uses.

    The definition's own module counts outside the definition's subtree.
    """
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for pattern in patterns
        for path in sorted(ROOT.glob(pattern))
    }
    everywhere = {path: _names(tree) for path, tree in trees.items()}
    unused = []
    for path, tree in trees.items():
        if path.parent.name != "bofsent":
            continue
        elsewhere = set().union(*(names for other, names in everywhere.items() if other != path))
        for node in _defines(tree):
            if node.name.startswith("_") != private:
                continue
            if node.name not in elsewhere | _names(tree, skip=node):
                unused.append(f"{path.stem}.{node.name}")
    return unused


def test_public_names_are_used_outside_their_definition():
    unused = _unused(False, ("src/bofsent/*.py", "bench/*.py"))
    assert unused == [], f"public names only their own definition mentions: {unused}"


def test_private_names_are_used_by_the_program():
    unused = _unused(True, ("src/bofsent/*.py",))
    assert unused == [], f"private names only their own definition and the tests mention: {unused}"
