"""The benchmark's tracer must find every function it wraps.

``bench/tracing.py`` names the package functions it times; renaming or
deleting one of them without changing the tracer would silently drop a
per-layer metric, so this check runs with the package's own tests.
"""
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_bench_tracer_finds_every_target():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    restore, missing = tracing.install(tracing.Tracer())
    try:
        assert missing == []
    finally:
        restore()
