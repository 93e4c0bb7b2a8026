"""Every public function, class, method and property of the library has a
consumer, and every import a use.

A public top-level name counts as reached when some other part of
src/obslab refers to it (as a name, an attribute or an import), or when
perfbench/layertrace.py names it.  Methods and properties of public classes
are matched by attribute name too, but only on an object, not on an
imported module (np.linalg.norm does not reach a norm method), and a plain
method only where it is called, not where a field of that name is read.
Library code that no experiment reaches either gets a consumer or gets
deleted; the allowlist holds the exceptions.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# name -> why it stays without a consumer in the library
ALLOWED = {
    "apply_h": "matrix-free H f, the oracle that tests dense_matrix against",
    "field_from_function": "samples a callable on a grid; the tests' state builder",
    "residual": "EigenDecomposition.residual, the tests' oracle for an eigenbasis",
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


def _module_aliases(tree):
    """Names that `import x` and `import x as y` bind."""
    return {(a.asname or a.name).split(".")[0] for node in ast.walk(tree)
            if isinstance(node, ast.Import) for a in node.names}


def _member_refs(tree, modules):
    """(read, called): attribute names read on an object rather than on an
    imported module, and those of them that are called."""
    def on_object(attr):
        root = attr.value
        while isinstance(root, ast.Attribute):
            root = root.value
        return not (isinstance(root, ast.Name) and root.id in modules)

    read, called = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and on_object(node):
            read.add(node.attr)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and on_object(node.func)):
            called.add(node.func.attr)
    return read, called


def _is_property(member):
    return any(isinstance(d, ast.Name) and d.id == "property"
               for d in member.decorator_list)


def test_every_public_definition_is_reached():
    modules = {p: ast.parse(p.read_text(encoding="utf-8"))
               for p in sorted((ROOT / "src" / "obslab").glob("*.py"))}
    layertrace = _names(ast.parse(
        (ROOT / "perfbench" / "layertrace.py").read_text(encoding="utf-8")))
    # references made by each top-level statement and by each member of a
    # class, so a definition's own body does not count for it
    statements = [(stmt, _names(stmt)) for tree in modules.values()
                  for stmt in tree.body]
    members = [(member, _member_refs(member, _module_aliases(tree)))
               for tree in modules.values() for stmt in tree.body
               for member in (stmt.body if isinstance(stmt, ast.ClassDef)
                              else [stmt])]
    unreached = []
    for tree in modules.values():
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
            if not isinstance(stmt, ast.ClassDef):
                continue
            for member in stmt.body:
                if (not isinstance(member, ast.FunctionDef)
                        or member.name.startswith("_")):
                    continue
                # a property is used where it is read, a method where called
                which = 0 if _is_property(member) else 1
                if not any(member.name in refs[which]
                           for other, refs in members if other is not member):
                    unreached.append(member.name)
    # an allowlisted name that gains a consumer, or goes, leaves the list
    assert sorted(unreached) == sorted(ALLOWED)


def _imports(tree):
    """(scope, name, line) for every name an import binds, __future__ aside;
    the scope is the innermost function around the import, or the module."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, (ast.Import, ast.ImportFrom))
                    and getattr(child, "module", None) != "__future__"):
                found.extend((scope, (a.asname or a.name).split(".")[0],
                              child.lineno) for a in child.names)
            visit(child, child if isinstance(child, ast.FunctionDef) else scope)

    visit(tree, tree)
    return found


def test_every_import_is_used():
    unused = []
    for path in sorted((ROOT / "src" / "obslab").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for scope, name, line in _imports(tree):
            if not any(isinstance(n, ast.Name) and n.id == name
                       for n in ast.walk(scope)):
                unused.append(f"{path.name}:{line} {name}")
    assert unused == []
