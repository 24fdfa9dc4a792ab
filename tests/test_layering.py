"""The trisect modules' import layering, read from their source."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "trisect"
# each module may import only the modules before it
LAYERS = ("geom", "bodies", "trisection", "search", "render", "cli")


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                        if p.stem != "__init__"),
                         ids=lambda p: p.stem)
def test_module_imports_at_top_level_from_lower_layers(path):
    assert path.stem in LAYERS
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = [n for n in ast.walk(node)
                     if isinstance(n, (ast.Import, ast.ImportFrom))]
            assert not inner, f"{path.stem}.{node.name} imports inside it"
        if isinstance(node, ast.ImportFrom) and node.level:
            names = ([node.module] if node.module
                     else [alias.name for alias in node.names])
            for name in names:
                assert name in LAYERS[:LAYERS.index(path.stem)], \
                    f"{path.stem} imports {name}"


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                        if p.stem != "__init__"),
                         ids=lambda p: p.stem)
def test_every_top_level_import_is_used(path):
    tree = ast.parse(path.read_text())
    imported = [alias.asname or alias.name.split(".")[0]
                for node in tree.body
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = [name for name in imported if name not in used]
    assert not unused, f"{path.stem} imports {unused} and uses none of them"
