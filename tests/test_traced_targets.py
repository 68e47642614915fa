"""The benchmark's tracer must find every function it wraps and count what it reads.

``bench/tracing.py`` names the package functions it times; renaming or
deleting one of them without changing the tracer would silently drop a
per-layer metric, and changing the arguments a counter reads would skew
it, so these checks run with the package's own tests.
"""
import contextlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from crossalign import objective as obj
from crossalign import pipeline as pl
from crossalign.representation import FeatureAggregator

from stacking import stack

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


@contextlib.contextmanager
def _traced():
    """A tracer installed on every target for the duration of the block."""
    tracing = _tracing()
    tracer = tracing.Tracer()
    restore, _ = tracing.install(tracer)
    try:
        yield tracer
    finally:
        restore()


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
        agg = FeatureAggregator(4, 3, d_p=4, hidden=2)
        agg.aggregate_batch(*stack([np.ones((2, 4)), np.ones((1, 4)), np.ones((3, 4))]))
    finally:
        restore()
    assert FeatureAggregator.aggregate_batch is original
    assert tracer.counts["representation.aggregate_batch.seqs"] == 3
    assert tracer.counts["representation.aggregate_batch.calls"] == 1


@pytest.mark.parametrize("stacked", [False, True], ids=["dense", "stacked"])
def test_bench_tracer_counts_the_cells_of_one_ranking(stacked):
    n_img, n_cap = 4, 7
    rng = np.random.default_rng(0)
    left, right = rng.standard_normal((n_img, 3)), rng.standard_normal((n_cap, 3))
    scores = pl.StackedScores(left, right) if stacked else left @ right.T
    with _traced() as tracer:
        pl.recalls_from_similarity(scores, np.arange(n_cap) % n_img)
    assert tracer.counts["pipeline.recalls_from_similarity.cells"] == n_img * n_cap
    assert tracer.counts["pipeline.recalls_from_similarity.calls"] == 1


def test_bench_tracer_counts_the_records_of_one_load(tmp_path):
    path = tmp_path / "data.jsonl"
    pl.save_dataset(pl.generate_synthetic(5, 2, 4, seed=1), path)
    with _traced() as tracer:
        data = pl.load_dataset(path)
    assert len(data) == 10
    assert tracer.counts["pipeline.load_dataset.records"] == len(data)


def test_bench_tracer_counts_the_lloyd_iterations_of_the_winning_run():
    points = np.random.default_rng(0).standard_normal((30, 2))
    with _traced() as tracer:
        result = obj.kmeans_cluster(points, 3, seed=0, n_init=2)
    assert len(result.inertia_path) > 0
    assert tracer.counts["objective.kmeans_cluster.lloyd_iters"] == len(result.inertia_path)


def test_bench_selftest_passes():
    # the selftest calls package functions by their signatures, which the traced targets alone miss
    root = TRACING.parent.parent
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "bench/selftest.py"], cwd=root, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr


@pytest.mark.parametrize("workload, trace", [("train_desk", 0), ("train_desk", 1), ("eval_2k", 0)])
def test_bench_runs_a_workload_end_to_end(workload, trace):
    # the selftest never generates, saves, loads, trains on and embeds a dataset as run.py does;
    # only eval_2k loads a 2000 x 5 file and checks its recalls against the oracle
    root = TRACING.parent.parent
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
                           "--seconds", "0.1", "--trace", str(trace)],
                          cwd=root, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    out = json.loads(done.stdout.splitlines()[-1])
    assert out["correct"] is True and out["failed"] == 0, done.stderr
    spec = json.loads((root / "BENCHMARK.json").read_text())
    assert list(out["metrics"]) == [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
