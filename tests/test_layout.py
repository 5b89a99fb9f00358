"""The package holds what its studies run: every public name has a caller in src/.

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


def _uncalled():
    """module.name of each public top-level function or class that no Name or
    Attribute in src/ refers to, outside the definition itself."""
    trees = {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}
    uses = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, []).append(node)
    uncalled = []
    for module, tree in trees.items():
        for defn in tree.body:
            if not isinstance(defn, (ast.FunctionDef, ast.ClassDef)) or defn.name.startswith("_"):
                continue
            inside = {id(node) for node in ast.walk(defn)}
            if all(id(node) in inside for node in uses.get(defn.name, [])):
                uncalled.append(f"{module}.{defn.name}")
    return uncalled


def test_every_public_name_has_a_caller_in_src():
    uncalled = set(_uncalled())
    assert not uncalled - EXEMPT, f"no caller in src/: {sorted(uncalled - EXEMPT)}"
    # once an exempt name gains a caller, its exemption goes
    assert EXEMPT <= uncalled, f"exempt, but called in src/: {sorted(EXEMPT - uncalled)}"
