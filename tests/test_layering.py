"""Every layer below ``pipeline`` depends on ``numerics`` alone, and every public op has a caller.

``pipeline`` composes the layers and passes plain values between them, so
``objective``, ``representation`` and ``knowledge`` must not import one
another. An op of ``numerics`` that only tests call belongs beside the
tests' reference graphs in ``tests/autodiff_ref.py``. Imports and uses
are read from the source, not from a run.
"""
import ast
from pathlib import Path

import pytest

import crossalign

PACKAGE = Path(crossalign.__file__).parent
BENCH = Path(__file__).resolve().parent.parent / "bench"


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



def _uses(path: Path) -> list[tuple[str, str | None]]:
    """Each name and attribute read in ``path``, with the top-level definition it sits in."""
    uses = []
    for top in ast.parse(path.read_text()).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                uses.append((node.id, owner))
            elif isinstance(node, ast.Attribute):
                uses.append((node.attr, owner))
    return uses


def test_every_public_numerics_function_is_used_in_the_package_or_the_bench():
    numerics = PACKAGE / "numerics.py"
    public = [top.name for top in ast.parse(numerics.read_text()).body
              if isinstance(top, ast.FunctionDef) and not top.name.startswith("_")]
    used = {name for path in [*PACKAGE.glob("*.py"), *BENCH.glob("*.py")]
            for name, owner in _uses(path) if path != numerics or owner != name}
    assert public and [name for name in public if name not in used] == []
