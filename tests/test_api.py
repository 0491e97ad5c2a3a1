import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# the public names that no src/ module and no perfbench script uses, each
# with the reason it stays: the acceptance criteria state the paper's claims
# with them, or the tests pin a batched routine to them
KEPT = {
    "grassmann.py: orthonormalize":
        "acceptance 01 and 10 build their Grassmann oracles with it",
    "grassmann.py: log_map": "acceptance 01 states the exp/log round trip",
    "grassmann.py: exp_map":
        "acceptance 01-03 build their tangent steps and atoms with it",
    "grassmann.py: sphere_angle_matrix":
        "the sphere metric worst_image_hausdorff equals bit for bit",
    "grassmann.py: hausdorff_of":
        "the Hausdorff distance worst_image_hausdorff equals bit for bit",
    "immersion.py: SampledImmersion.tangent_plane":
        "acceptance 10 reads nu(q) from it",
    "karcher.py: energy":
        "acceptance 02 checks the gradient against its differences",
    "karcher.py: energy_gradient": "acceptance 02 states the gradient claim",
    "karcher.py: verify_stability":
        "acceptance 03 states the stability claim",
    "normals.py: NormalMeasureField.measure":
        "acceptance 10 reads the mixture whose mean is N(q) from it",
}


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


def source_trees(root):
    return {path: ast.parse(path.read_text())
            for path in sorted((root / "src" / "lipimm").glob("*.py"))}


def unused_public_names(root):
    """``module: name`` of every public function, class or method in
    ``root/src/lipimm`` that no ``src/`` module but ``__init__.py`` and no
    ``perfbench`` script names: a name the package only exports is unused.
    In perfbench a name written anywhere counts, as its tracer names what it
    wraps in strings.  A method counts as named where its own name is,
    whatever the object it is read from."""
    trees = source_trees(root)
    used = set().union(*(referenced_names(tree) for path, tree in trees.items()
                         if path.name != "__init__.py"))
    scripts = "\n".join(path.read_text()
                        for path in sorted((root / "perfbench").glob("*.py")))
    return [f"{path.name}: {name}" for path, tree in trees.items()
            for name in public_names(tree)
            if (own := name.split(".")[-1]) not in used
            and not re.search(rf"\b{re.escape(own)}\b", scripts)]


def unread_imports(root):
    """``module: name`` of every name a ``src/`` module other than
    ``__init__.py`` imports and never reads."""
    found = []
    for path, tree in source_trees(root).items():
        if path.name == "__init__.py":
            continue
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) \
                    and getattr(node, "module", None) != "__future__":
                found += [f"{path.name}: {name}" for name in
                          ((alias.asname or alias.name).split(".")[0]
                           for alias in node.names) if name not in read]
    return found


def test_every_public_name_has_a_caller_outside_the_tests():
    # a function, class or method that only the tests call, or that the
    # package only exports, is dead API
    assert [name for name in unused_public_names(ROOT)
            if name not in KEPT] == []


def test_every_kept_name_still_exists_and_still_needs_its_reason():
    # a kept name that is gone, or that src/ or perfbench now uses, leaves
    # the list
    unused = unused_public_names(ROOT)
    assert [name for name in KEPT if name not in unused] == []


def test_no_module_imports_a_name_it_never_reads():
    assert unread_imports(ROOT) == []


def source_copy(tmp_path):
    """A copy of the sources and perfbench scripts under ``tmp_path``."""
    (tmp_path / "src" / "lipimm").mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "src" / "lipimm").glob("*.py"):
        (tmp_path / "src" / "lipimm" / path.name).write_text(path.read_text())
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    return tmp_path / "src" / "lipimm"


def test_a_method_only_the_tests_call_is_found(tmp_path):
    # a copy of the sources with one public method nothing in src/ calls
    shapes = source_copy(tmp_path) / "shapes.py"
    shapes.write_text(shapes.read_text().replace(
        "    def tangent_frame(self, t):",
        "    def unread_method(self):\n        return self.n\n\n"
        "    def tangent_frame(self, t):", 1))
    assert [name for name in unused_public_names(tmp_path)
            if name not in KEPT] == ["shapes.py: Evaluator.unread_method"]


def test_a_function_only_the_package_exports_is_found(tmp_path):
    src = source_copy(tmp_path)
    shapes = src / "shapes.py"
    shapes.write_text(shapes.read_text()
                      + "\n\ndef unread_function():\n    return 0\n")
    init = src / "__init__.py"
    init.write_text(init.read_text().replace(
        "from .shapes import immersion_from_points,",
        "from .shapes import unread_function, immersion_from_points,", 1))
    assert "unread_function" in init.read_text()
    assert [name for name in unused_public_names(tmp_path)
            if name not in KEPT] == ["shapes.py: unread_function"]


def test_an_import_a_module_never_reads_is_found(tmp_path):
    tubular = source_copy(tmp_path) / "tubular.py"
    tubular.write_text(tubular.read_text().replace(
        "from .errors import (\n",
        "from .errors import (\n    NonTransversalError,\n", 1))
    assert unread_imports(tmp_path) == ["tubular.py: NonTransversalError"]
