"""Source hygiene, read from the syntax trees of src/qbos/: no module imports a
name it never reads, and no private module-level name goes unread in the
package."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "qbos"
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
         for path in sorted(SOURCE.glob("*.py"))}


def read_names(tree) -> set[str]:
    """The names a module reads bare, as an attribute, or from another module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def imported_names(tree) -> list[str]:
    """The names a module's imports bind, __future__ features aside."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


def private_definitions(tree) -> list[str]:
    """The _names, dunders aside, that a module binds at its top level."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for target in targets for t in ast.walk(target)
                      if isinstance(t, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def test_source_trees_were_found():
    assert {"__init__.py", "device.py", "gcm.py", "cli.py"} <= TREES.keys()


def test_no_module_imports_a_name_it_never_reads():
    # __init__ imports to re-export: the package's public names
    unused = [f"{module}: {name}" for module, tree in TREES.items() if module != "__init__.py"
              for name in imported_names(tree)
              if name not in {node.id for node in ast.walk(tree)
                              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}]
    assert unused == []


def test_every_private_module_level_name_is_read_in_the_package():
    read = set().union(*map(read_names, TREES.values()))
    unread = [f"{module}: {name}" for module, tree in TREES.items()
              for name in private_definitions(tree) if name not in read]
    assert unread == []
