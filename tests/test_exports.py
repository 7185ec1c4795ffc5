"""``stable_msu.__all__`` matches what the package's ``__init__`` imports,
so a name deleted from a module cannot linger in ``__all__`` and break
``from stable_msu import *``."""

import ast
from pathlib import Path

import stable_msu


def _imported_names() -> list[str]:
    """The names bound by the ``from .module import ...`` lines of
    stable_msu/__init__.py."""
    tree = ast.parse(Path(stable_msu.__file__).read_text())
    return [alias.asname or alias.name
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def test_every_export_resolves():
    missing = [name for name in stable_msu.__all__
               if not hasattr(stable_msu, name)]
    assert not missing, f"__all__ names that the package lacks: {missing}"
    namespace = {}
    exec("from stable_msu import *", namespace)
    assert set(stable_msu.__all__) <= set(namespace)


def test_no_duplicate_exports():
    assert len(stable_msu.__all__) == len(set(stable_msu.__all__))


def test_exports_equal_imports():
    imported = _imported_names()
    assert imported
    assert set(stable_msu.__all__) == set(imported)
