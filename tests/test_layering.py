"""The package's modules form one stack: each imports only the layers below it."""

import ast
from pathlib import Path

import snwitness

LAYERS = ["hilbert", "embedding", "witness", "families", "checks", "cli"]


def imported_modules(tree):
    """Package modules named by every import in a module, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "snwitness" and len(parts) > 1:
                    yield parts[1]
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "snwitness":
                continue
            inside = parts[1:] if node.level == 0 else [p for p in parts if p]
            if inside:
                yield inside[0]
            else:  # from . import module
                yield from (alias.name for alias in node.names)


def test_no_module_imports_a_later_layer():
    source = Path(snwitness.__file__).parent
    for rank, name in enumerate(LAYERS):
        tree = ast.parse((source / f"{name}.py").read_text())
        later = {m for m in imported_modules(tree) if m in LAYERS[rank + 1:]}
        assert not later, f"{name} imports {sorted(later)}"
