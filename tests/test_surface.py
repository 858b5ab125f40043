"""Every public function, class and module constant of the package has a
caller in it.

A definition counts as called when a name or attribute of its name
appears in module-level code, or in the body of a definition that is
itself called; a module constant (an assignment to one name) is a
definition whose body is its value. The walk starts from the console
entry point, the package re-exports and the keep-list below. Library
code or tables that only tests read belong in ``tests/oracles.py``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "manikernels"

#: Public definitions kept without a caller in the package, with the reason.
KEEP = {
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


def _package(package=PACKAGE):
    """(references, roots): references maps (module, name) of each
    module-level def, class and one-name assignment to the names its
    code or value reads, recursion left out; roots holds the names that
    other module-level code outside imports reads, and the package
    re-exports."""
    references, roots = {}, set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                references[path.stem, node.name] = _names([node]) - {node.name}
            elif (isinstance(node, ast.Assign) and len(node.targets) == 1
                  and isinstance(node.targets[0], ast.Name)):
                name = node.targets[0].id
                references[path.stem, name] = _names([node.value]) - {name}
            elif isinstance(node, ast.ImportFrom) and path.stem == "__init__":
                roots |= {alias.name for alias in node.names}
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= _names([node])
    return references, roots


def uncalled_definitions(package=PACKAGE) -> list:
    references, roots = _package(package)
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


def test_a_constant_without_a_reader_is_reported(tmp_path):
    (tmp_path / "__init__.py").write_text("from .mod import run\n")
    (tmp_path / "mod.py").write_text(
        "READ = {1}\n"
        "BASE = {2}\n"
        "UNREAD = BASE | READ\n"
        "def run():\n"
        "    return READ\n"
    )
    # BASE is read only by a constant that nothing reads
    assert uncalled_definitions(tmp_path) == ["mod.BASE", "mod.UNREAD"]
