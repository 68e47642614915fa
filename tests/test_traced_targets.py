"""The benchmark's tracer must find every function it wraps and count what it reads.

``bench/tracing.py`` names the package functions it times; renaming or
deleting one of them without changing the tracer would silently drop a
per-layer metric, and changing the arguments a counter reads would skew
it, so these checks run with the package's own tests.
"""
import importlib.util
from pathlib import Path

import numpy as np

from crossalign.representation import FeatureAggregator

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_bench_tracer_finds_every_target():
    tracing = _tracing()
    restore, missing = tracing.install(tracing.Tracer())
    try:
        assert missing == []
    finally:
        restore()


def test_bench_tracer_counts_the_sequences_of_one_encoder_call():
    tracing = _tracing()
    tracer = tracing.Tracer()
    original = FeatureAggregator.aggregate_batch
    restore, _ = tracing.install(tracer)
    try:
        FeatureAggregator(4, 3, d_p=4, hidden=2).aggregate_batch(
            [np.ones((2, 4)), np.ones((1, 4)), np.ones((3, 4))])
    finally:
        restore()
    assert FeatureAggregator.aggregate_batch is original
    assert tracer.counts["representation.aggregate_batch.seqs"] == 3
    assert tracer.counts["representation.aggregate_batch.calls"] == 1
