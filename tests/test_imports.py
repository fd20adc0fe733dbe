"""Every name a module of src/morphmix imports is used in that module.

No linter runs on this code, so a deletion can leave a dead import behind.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "morphmix"


def unused_imports(source):
    """The names that source binds by import and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_finds_a_dead_import():
    assert unused_imports("import io\nimport os.path\nfrom a import b as c\nos.sep\n") == ["c", "io"]


MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("name", MODULES)
def test_module_uses_every_import(name):
    assert unused_imports((SRC / name).read_text(encoding="utf-8")) == []
