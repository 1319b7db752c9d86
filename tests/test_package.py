"""The package's exports: ``__all__`` and the names ``__init__.py`` imports agree."""

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
