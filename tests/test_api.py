import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def public_names(tree):
    """The public module-level functions and classes a module defines."""
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def referenced_names(tree):
    """The names a module reads, imports or reads as attributes."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unused_public_names(root):
    """``module: name`` of every public function or class in
    ``root/src/lipimm`` that no ``src/`` code and no ``perfbench`` script
    names: the package's exports and the names its modules import or call
    count, and in perfbench a name written anywhere, as its tracer names
    what it wraps in strings."""
    trees = {path: ast.parse(path.read_text())
             for path in sorted((root / "src" / "lipimm").glob("*.py"))}
    used = set().union(*map(referenced_names, trees.values()))
    scripts = "\n".join(path.read_text()
                        for path in sorted((root / "perfbench").glob("*.py")))
    return [f"{path.name}: {name}" for path, tree in trees.items()
            for name in public_names(tree) if name not in used
            and not re.search(rf"\b{re.escape(name)}\b", scripts)]


def test_every_public_name_has_a_caller_outside_the_tests():
    # a function or class that only the tests call belongs in the tests
    assert unused_public_names(ROOT) == []
