"""Every public function or class of the package has a caller in the program.

A public top-level function or class of ``src/diffpath`` that nothing in
``src/`` or ``bench/`` names exists only for tests, as a second copy of
engine arithmetic that no run reaches.  Such references live in
``tests/references.py``.  The scan is by name: a definition counts as used
when its name appears anywhere in those files as a name, an attribute or an
imported name (docstrings and comments do not count).  So no public
function may share its name with a method of a package class: a call of the
method would count as a call of the function.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: documented entry points that the package itself never calls
ENTRY_POINTS = {
    "edits.prompt_switch": "the one-switch-point form of prompt_switches, for library callers",
    "config.register_cam_hook": "how a library caller adds an attention hook to the registry",
}


def _scan() -> tuple[dict[str, str], set[str]]:
    """The package's public top-level definitions ("module.name" -> name), and every name used."""
    defined, used = {}, set()
    package = sorted((ROOT / "src" / "diffpath").glob("*.py"))
    for path in package + sorted((ROOT / "bench").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        if path.parent.name == "diffpath":
            defined.update((f"{path.stem}.{node.name}", node.name) for node in tree.body
                           if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                           and not node.name.startswith("_"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rpartition(".")[2])
    return defined, used


def test_every_public_definition_has_a_caller():
    defined, used = _scan()
    uncalled = {key for key, name in defined.items() if name not in used}
    extra = sorted(uncalled - ENTRY_POINTS.keys())
    assert not extra, f"public, but nothing in src/ or bench/ names them: {extra}"
    stale = sorted(ENTRY_POINTS.keys() - uncalled)
    assert not stale, f"listed as uncalled entry points, but gone or called now: {stale}"


def test_no_public_function_is_named_like_a_method():
    functions, methods = {}, set()
    for path in sorted((ROOT / "src" / "diffpath").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                functions[f"{path.stem}.{node.name}"] = node.name
            elif isinstance(node, ast.ClassDef):
                methods.update(item.name for item in node.body
                               if isinstance(item, ast.FunctionDef))
    shared = sorted(key for key, name in functions.items() if name in methods)
    assert not shared, f"public functions named like a method of a package class: {shared}"
