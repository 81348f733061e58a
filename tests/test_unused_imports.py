"""Every name a module of the package imports is used in that module.

A cut that removes the last use of a name leaves its import behind; this finds
it with ``ast`` alone. ``__init__`` imports only to re-export, and discovery
keeps ``draw_round_sample`` in its namespace, where perfbench wraps it.
"""

import ast
import pathlib

import pytest

import covert_setcover

PACKAGE = pathlib.Path(covert_setcover.__file__).parent
KEPT_FOR_WRAPPING = {"discovery.py": {"draw_round_sample"}}


def _unused_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_finds_an_unused_import():
    source = "import json\nfrom math import ceil, inf\nprint(inf)\n"
    assert _unused_imports(source) == {"json", "ceil"}


@pytest.mark.parametrize(
    "module", sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
)
def test_every_import_is_used(module):
    unused = _unused_imports((PACKAGE / module).read_text())
    assert unused == KEPT_FOR_WRAPPING.get(module, set())
