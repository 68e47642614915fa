"""Every layer below ``pipeline`` depends on ``numerics`` alone.

``pipeline`` composes the layers and passes plain values between them, so
``objective``, ``representation`` and ``knowledge`` must not import one
another. The imports are read from the source, not from a run.
"""
import ast
from pathlib import Path

import pytest

import crossalign

PACKAGE = Path(crossalign.__file__).parent


def _crossalign_imports(module: str) -> set[str]:
    """The ``crossalign`` modules that ``crossalign/<module>.py`` imports."""
    names = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            parts = [alias.name.split(".") for alias in node.names]
            names.update(p[1] for p in parts if p[0] == "crossalign" and len(p) > 1)
        elif isinstance(node, ast.ImportFrom):
            path = node.module.split(".") if node.module else []
            if node.level == 0:
                if path[0] != "crossalign":
                    continue
                path = path[1:]
            # "from . import x" and "from crossalign import x" import the modules they name
            names.update(path[:1] or [alias.name for alias in node.names])
    return names


@pytest.mark.parametrize("module", ["objective", "representation", "knowledge"])
def test_a_layer_below_pipeline_imports_only_numerics(module):
    assert _crossalign_imports(module) == {"numerics"}

