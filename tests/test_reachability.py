"""Every public function and class of the library has a consumer.

A public top-level name counts as reached when some other part of
src/obslab refers to it (as a name, an attribute or an import), or when
perfbench/layertrace.py names it.  Library code that no experiment reaches
either gets a consumer or gets deleted; the allowlist holds the exceptions.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# name -> why it stays without a consumer in the library
ALLOWED = {
    "apply_h": "matrix-free H f, the oracle that tests dense_matrix against",
    "field_from_function": "samples a callable on a grid; the tests' state builder",
}


def _names(tree):
    """Every identifier a syntax tree refers to, and its string constants."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def test_every_public_definition_is_reached():
    modules = {p: ast.parse(p.read_text(encoding="utf-8"))
               for p in sorted((ROOT / "src" / "obslab").glob("*.py"))}
    layertrace = _names(ast.parse(
        (ROOT / "perfbench" / "layertrace.py").read_text(encoding="utf-8")))
    # references made by each top-level statement, so a definition's own
    # body does not count for it
    statements = [(stmt, _names(stmt)) for tree in modules.values()
                  for stmt in tree.body]
    unreached = []
    for path, tree in modules.items():
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = stmt.name
            if name.startswith("_"):
                continue
            used = name in layertrace or any(
                name in refs for other, refs in statements if other is not stmt)
            if not used:
                unreached.append(name)
    # an allowlisted name that gains a consumer, or goes, leaves the list
    assert sorted(unreached) == sorted(ALLOWED)
