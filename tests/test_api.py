import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def public_names(tree):
    """The public module-level functions and classes a module defines, and
    the public methods of its classes as ``Class.method``."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and not node.name.startswith("_"):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [f"{node.name}.{item.name}" for item in node.body
                      if isinstance(item, ast.FunctionDef)
                      and not item.name.startswith("_")]
    return names


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
    """``module: name`` of every public function, class or method in
    ``root/src/lipimm`` that no ``src/`` code and no ``perfbench`` script
    names: the package's exports and the names its modules import or call
    count, and in perfbench a name written anywhere, as its tracer names
    what it wraps in strings.  A method counts as named where its own name
    is, whatever the object it is read from."""
    trees = {path: ast.parse(path.read_text())
             for path in sorted((root / "src" / "lipimm").glob("*.py"))}
    used = set().union(*map(referenced_names, trees.values()))
    scripts = "\n".join(path.read_text()
                        for path in sorted((root / "perfbench").glob("*.py")))
    return [f"{path.name}: {name}" for path, tree in trees.items()
            for name in public_names(tree)
            if (own := name.split(".")[-1]) not in used
            and not re.search(rf"\b{re.escape(own)}\b", scripts)]


def test_every_public_name_has_a_caller_outside_the_tests():
    # a function, class or method that only the tests call belongs in the
    # tests
    assert unused_public_names(ROOT) == []


def test_a_method_only_the_tests_call_is_found(tmp_path):
    # a copy of the sources with one public method nothing in src/ calls
    (tmp_path / "src" / "lipimm").mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "src" / "lipimm").glob("*.py"):
        (tmp_path / "src" / "lipimm" / path.name).write_text(path.read_text())
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    shapes = tmp_path / "src" / "lipimm" / "shapes.py"
    shapes.write_text(shapes.read_text().replace(
        "    def tangent_frame(self, t):",
        "    def unread_method(self):\n        return self.n\n\n"
        "    def tangent_frame(self, t):", 1))
    assert unused_public_names(tmp_path) == ["shapes.py: Evaluator.unread_method"]
