"""Tests of the benchmark's own machinery; run with ``python3 -m pytest bench/selftest.py``.

Kept out of the package's test suite on purpose: the file name does not
match pytest's default pattern, so only an explicit path collects it.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from crossalign import numerics, objective, pipeline  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def tick(seconds):
        clock.now += seconds

    def leaf():
        tick(2.0)

    def middle():
        tick(1.0)
        tracer.call("leaf", leaf)
        tick(0.5)

    def outer():
        tick(3.0)
        tracer.call("middle", middle)
        tracer.call("leaf", leaf)
        tick(1.0)

    tracer.call("outer", outer)
    own = tracing.self_times(tracer.spans)
    assert own == {"outer": 4.0, "middle": 1.5, "leaf": 4.0}
    assert sum(own.values()) == clock.now
    assert [s[1] for s in tracer.spans] == [-1, 0, 1, 0]


def test_counting_time_is_its_own_span():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def work(n):
        clock.now += 1.0
        return n

    def count(args, kwargs, result):
        clock.now += 10.0
        return {"items": result}

    traced = tracer.wrap("work", work, count)
    tracer.call("outer", lambda: [traced(3), traced(4)])
    own = tracing.self_times(tracer.spans)
    assert own["work"] == 2.0 and own["outer"] == 0.0 and own[tracing.COUNT_SPAN] == 20.0
    assert tracer.counts == {"work.calls": 2, "work.items": 7}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_oracle_matches_recalls_from_similarity_on_ties(seed):
    rng = np.random.default_rng(seed)
    n_img, n_cap = 13, 40
    scores = rng.integers(0, 3, size=(n_img, n_cap)).astype(np.float64)
    caption_image = rng.integers(0, n_img - 2, size=n_cap)  # the last two images have no caption
    want = pipeline.recalls_from_similarity(scores, caption_image).as_row()
    got = checks.oracle_recalls(scores, caption_image, chunk=7)
    assert all(got[k] == want[k] for k in checks.RECALL_KEYS)
    assert checks.agreement_problems(got, want, n_img, n_cap) == []


def test_oracle_on_constant_scores_ranks_by_index():
    caption_image = np.array([2, 0, 1, 1])
    got = checks.oracle_recalls(np.zeros((3, 4)), caption_image)
    # caption j's image sits at rank caption_image[j]; image i's best
    # caption is its first, at rank min{j : caption_image[j] == i}
    assert got["r1_i"] == 100.0 * 1 / 4 and got["r5_i"] == 100.0
    assert got["r1_t"] == 100.0 * 1 / 3 and got["r5_t"] == 100.0


def test_blended_scores_are_bit_identical_to_the_expression():
    rng = np.random.default_rng(3)
    v, w, vc, wc = (rng.standard_normal((n, 6)) for n in (5, 9, 5, 9))
    assert np.array_equal(checks.blended_scores(v, w, vc, wc, 0.9),
                          0.9 * (v @ w.T) + (1.0 - 0.9) * (vc @ wc.T))


def test_output_checks_flag_bad_values():
    rows = [{"epoch": 0, "l_dcl_i": 1.0, "l_mdcl": float("nan"), "l_dcl_c": 1.0,
             "l_pgc": 1.0, "total": 3.0}]
    assert checks.loss_problems(rows) == ["epoch 0: l_mdcl=nan"]
    recalls = dict.fromkeys(checks.RECALL_KEYS, 50.0) | {"r10_i": 100.5}
    assert checks.recall_problems(recalls) == ["r10_i=100.5"]


@pytest.fixture
def traced():
    tracer = tracing.Tracer()
    restore, missing = tracing.install(tracer)
    try:
        yield tracer, missing
    finally:
        restore()


def test_wrappers_catch_by_name_imports_and_estimate(traced):
    tracer, missing = traced
    assert missing == []
    leaf = numerics.Matrix(np.arange(6.0).reshape(2, 3))
    loss = numerics.sum_all(numerics.exp(leaf * 0.1))
    pipeline.backward(loss)
    pipeline.adam_step(numerics.AdamState(2, 3, 0.1), leaf, leaf.grad)

    sim = objective.cosine_matrix(numerics.Matrix(np.eye(4) + 0.1), numerics.Matrix(np.eye(4)))
    objective._estimate(sim, "std", 0.1)
    objective._estimate(sim, "entropy", 0.1)

    counts = tracer.counts
    assert counts["numerics.backward.calls"] == 1
    # leaf, the constant 0.1, mul, exp, sum_all
    assert counts["numerics.backward.graph_nodes"] == tracing.graph_nodes(loss) == 5
    assert counts["numerics.adam_step.calls"] == 1
    assert counts["objective.diversity.calls"] == 2
    assert counts["objective.diversity.anchors"] == 8


def test_restore_puts_the_originals_back():
    before = (pipeline.backward, numerics.backward, pipeline.FeatureAggregator.aggregate_batch)
    restore, _ = tracing.install(tracing.Tracer())
    assert pipeline.backward is not before[0]
    restore()
    assert (pipeline.backward, numerics.backward,
            pipeline.FeatureAggregator.aggregate_batch) == before


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(run.WORKLOADS) == [w["name"] for w in spec["workloads"]]
    assert run.END_TO_END == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert [(name, unit) for name, unit, *_ in run.PER_LAYER] == \
        [(m["name"], m["unit"]) for m in spec["per_layer"]]
    spans = {span for _, _, span, _ in run.PER_LAYER if span is not None}
    assert spans <= {name for _, _, name, _ in tracing.targets()}
