"""The package's imports: ``__all__`` and the names ``__init__.py`` imports agree, and no other module imports a name it never reads."""

import ast
from pathlib import Path

import trackstitch


def test_star_import_resolves_every_listed_name():
    namespace = {}
    exec("from trackstitch import *", namespace)
    assert len(set(trackstitch.__all__)) == len(trackstitch.__all__)
    for name in trackstitch.__all__:
        assert namespace[name] is getattr(trackstitch, name), name


def test_every_public_name_imported_by_the_package_is_listed():
    tree = ast.parse(Path(trackstitch.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    assert public == set(trackstitch.__all__)


def test_no_module_imports_a_name_it_never_reads():
    # __init__.py imports names to export them; every other module imports only what it uses
    for path in sorted(Path(trackstitch.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        assert imported <= read, f"{path.name} never reads {sorted(imported - read)}"
