"""Every public function and class of the package has a caller in it.

A definition counts as called when a name or attribute of its name
appears in module-level code, or in the body of a definition that is
itself called; the walk starts from the console entry point, the
package re-exports and the keep-list below. Library code that only
tests call belongs in ``tests/oracles.py``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "manikernels"

#: Public definitions kept without a caller in the package, with the reason.
KEEP = {
    # the paper's spatio-temporal SPD descriptor, listed in the README
    ("features", "structure_tensor_field"),
    # the console entry point
    ("cli", "main"),
}


def _names(nodes) -> set:
    """Every identifier read as a name or an attribute in ``nodes``."""
    found = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                found.add(sub.attr)
    return found


def _package():
    """(references, roots): references maps (module, name) of each
    module-level def and class to the names its code reads, recursion
    left out; roots holds the names that module-level code outside
    definitions and imports reads, and the package re-exports."""
    references, roots = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                references[path.stem, node.name] = _names([node]) - {node.name}
            elif isinstance(node, ast.ImportFrom) and path.stem == "__init__":
                roots |= {alias.name for alias in node.names}
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= _names([node])
    return references, roots


def uncalled_definitions() -> list:
    references, roots = _package()
    live = {key for key in references if key in KEEP or key[1] in roots}
    while True:
        reached = set().union(*(references[key] for key in live))
        grown = live | {key for key in references if key[1] in reached}
        if grown == live:
            break
        live = grown
    return sorted(f"{module}.{name}" for module, name in references
                  if (module, name) not in live and not name.startswith("_"))


def test_every_public_definition_has_a_caller():
    assert uncalled_definitions() == []


def test_keep_list_names_existing_definitions():
    references, _ = _package()
    assert KEEP <= set(references)
