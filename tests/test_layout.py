"""The package holds what its studies run: every public name has a caller in src/,
and every private top-level name a use there.

Public names are the top-level functions and classes and the public methods
and properties of the classes.  Private names are the top-level functions,
classes and constants whose names start with one underscore.

A function that only the tests call is a test oracle and lives in
tests/oracles.py; one that nothing calls is deleted.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "airylab"

# The classical Tracy-Widom determinant has no study yet: the benchmark's
# fredholm-grid workload and acceptance criterion 8 run it, and the large-T
# cross-check of the ROADMAP is to be its first study.
EXEMPT = {"fredholm.fredholm_det_airy"}


def _index():
    """The parsed modules of src/, and their Name and Attribute nodes by identifier."""
    trees = {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}
    names, attrs = {}, {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                attrs.setdefault(node.attr, []).append(node)
    return trees, names, attrs


def _unused(defn, uses):
    inside = {id(node) for node in ast.walk(defn)}
    return all(id(node) in inside for node in uses)


def _uncalled():
    """module.name of each public top-level function or class that no Name or
    Attribute in src/ refers to, and module.Class.name of each public method or
    property that no Attribute in src/ refers to, outside the definition itself.

    A method is reached only through an attribute, so a local variable of the
    same name does not count as a use of it.
    """
    trees, names, attrs = _index()
    uncalled = []
    for module, tree in trees.items():
        for defn in tree.body:
            if not isinstance(defn, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not defn.name.startswith("_") and _unused(
                    defn, names.get(defn.name, []) + attrs.get(defn.name, [])):
                uncalled.append(f"{module}.{defn.name}")
            if isinstance(defn, ast.ClassDef):
                uncalled += [f"{module}.{defn.name}.{meth.name}" for meth in defn.body
                             if isinstance(meth, ast.FunctionDef)
                             and not meth.name.startswith("_")
                             and _unused(meth, attrs.get(meth.name, []))]
    return uncalled


def _unused_private():
    """module.name of each private top-level function, class or constant that no
    Name or Attribute in src/ refers to, outside the definition itself."""
    trees, names, attrs = _index()
    unused = []
    for module, tree in trees.items():
        for defn in tree.body:
            if isinstance(defn, (ast.FunctionDef, ast.ClassDef)):
                defined = [defn.name]
            elif isinstance(defn, (ast.Assign, ast.AnnAssign)):
                targets = defn.targets if isinstance(defn, ast.Assign) else [defn.target]
                defined = [node.id for target in targets for node in ast.walk(target)
                           if isinstance(node, ast.Name)]
            else:
                continue
            unused += [f"{module}.{name}" for name in defined
                       if name.startswith("_") and not name.startswith("__")
                       and _unused(defn, names.get(name, []) + attrs.get(name, []))]
    return unused


def test_every_public_name_has_a_caller_in_src():
    uncalled = set(_uncalled())
    assert not uncalled - EXEMPT, f"no caller in src/: {sorted(uncalled - EXEMPT)}"
    # once an exempt name gains a caller, its exemption goes
    assert EXEMPT <= uncalled, f"exempt, but called in src/: {sorted(EXEMPT - uncalled)}"


def test_every_private_name_has_a_use_in_src():
    unused = _unused_private()
    assert not unused, f"no use in src/: {sorted(unused)}"
