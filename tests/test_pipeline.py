import base64
import dataclasses
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossalign import objective as obj
from crossalign import pipeline as pl
from crossalign.numerics import (
    AdamState,
    Matrix,
    NonFiniteError,
    adam_step,
    backward,
    rng_from_seed,
)
from crossalign.representation import FeatureAggregator


def reference_recalls(scores, caption_image) -> pl.EvalResult:
    """Recall@{1,5,10} by one stable argsort per row and per column.

    This is the sort-based ranking the evaluator used before it counted
    ranks; the counting version must match it exactly.
    """
    scores = np.asarray(scores, dtype=np.float64)
    caption_image = np.asarray(caption_image, dtype=np.int64)
    n_img, n_cap = scores.shape

    text_hits = np.zeros(3)
    for i in range(n_img):
        order = np.argsort(-scores[i], kind="stable")
        best = np.flatnonzero(caption_image[order] == i)
        if best.size == 0:
            continue
        rank = best[0]
        for idx, k in enumerate((1, 5, 10)):
            text_hits[idx] += rank < k

    image_hits = np.zeros(3)
    for j in range(n_cap):
        order = np.argsort(-scores[:, j], kind="stable")
        rank = int(np.flatnonzero(order == caption_image[j])[0])
        for idx, k in enumerate((1, 5, 10)):
            image_hits[idx] += rank < k

    text = 100.0 * text_hits / n_img
    image = 100.0 * image_hits / n_cap
    return pl.EvalResult(text[0], text[1], text[2], image[0], image[1], image[2])


def _tied_scores(rng, n_img, n_cap, levels=4):
    """Small integer scores, so most rows and columns hold ties."""
    return rng.integers(0, levels, size=(n_img, n_cap)).astype(np.float64)


# ---------------------------------------------------------------------------
# ranking
# ---------------------------------------------------------------------------

RANKING_CASES = {
    # name: (n_img, n_cap, how caption_image is drawn)
    "five_per_image": (12, 60, "repeat"),
    "shuffled": (12, 60, "shuffle"),
    "images_without_captions": (20, 30, "subset"),
    "fewer_than_ten_captions": (6, 7, "random"),
    "single_image": (1, 9, "random"),
    "single_caption_many_images": (4, 1, "random"),
}


def _caption_image(rng, n_img, n_cap, how):
    if how == "repeat":
        return np.repeat(np.arange(n_img), n_cap // n_img)
    if how == "shuffle":
        return rng.permutation(np.repeat(np.arange(n_img), n_cap // n_img))
    if how == "subset":
        return rng.choice(rng.choice(n_img, size=n_img // 2, replace=False), size=n_cap)
    return rng.integers(0, n_img, size=n_cap)


@pytest.mark.parametrize("block", [3, pl.RANK_BLOCK])
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("case", sorted(RANKING_CASES))
def test_recalls_match_argsort_reference(case, seed, block, monkeypatch):
    monkeypatch.setattr(pl, "RANK_BLOCK", block)
    n_img, n_cap, how = RANKING_CASES[case]
    rng = rng_from_seed(seed, 31)
    caption_image = _caption_image(rng, n_img, n_cap, how)
    for levels in (2, 4, 1000):
        scores = _tied_scores(rng, n_img, n_cap, levels)
        got = pl.recalls_from_similarity(scores, caption_image)
        assert got == reference_recalls(scores, caption_image)


def test_recalls_nan_candidate_ranks_last_like_the_sort():
    rng = rng_from_seed(5)
    caption_image = np.repeat(np.arange(6), 3)
    scores = _tied_scores(rng, 6, 18)
    off_target = np.ones_like(scores, dtype=bool)
    off_target[caption_image, np.arange(18)] = False
    scores[off_target & (rng.random(scores.shape) < 0.3)] = np.nan
    assert pl.recalls_from_similarity(scores, caption_image) == reference_recalls(scores, caption_image)


def _integer_factors(rng, n, d=2):
    """Small integer factors: exact products, so ties are exact in any summation order."""
    return rng.integers(-1, 2, size=(n, d)).astype(np.float64)


@pytest.mark.parametrize("block", [3, pl.RANK_BLOCK])
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("case", sorted(RANKING_CASES))
def test_stacked_scores_match_argsort_reference(case, seed, block, monkeypatch):
    monkeypatch.setattr(pl, "RANK_BLOCK", block)
    n_img, n_cap, how = RANKING_CASES[case]
    rng = rng_from_seed(seed, 37)
    caption_image = _caption_image(rng, n_img, n_cap, how)
    v, vc = _integer_factors(rng, n_img), _integer_factors(rng, n_img)
    w, wc = _integer_factors(rng, n_cap), _integer_factors(rng, n_cap)
    blend = 0.5 * (v @ w.T) + 0.5 * (vc @ wc.T)
    scores = pl.StackedScores(np.hstack([0.5 * v, 0.5 * vc]), np.hstack([w, wc]))
    assert scores.shape == blend.shape and scores.size == blend.size and scores.ndim == 2
    assert np.array_equal(scores[:, 0:n_cap], blend)
    assert pl.recalls_from_similarity(scores, caption_image) == reference_recalls(blend, caption_image)


def _plant_lowest_targets(scores, caption_image):
    """The lowest finite score as caption 0's target and as every target of the last caption's image.

    The step below it is -inf, so it sits where a column's and a row's
    thresholds step down from the target and from an image's best caption.
    """
    lowest = np.finfo(np.float64).min
    scores[caption_image[0], 0] = lowest
    last = caption_image[-1]
    scores[last, caption_image == last] = lowest


@pytest.mark.parametrize("block", [3, pl.RANK_BLOCK])
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("case", sorted(RANKING_CASES))
def test_recalls_with_infinite_scores_match_argsort_reference(case, seed, block, monkeypatch):
    # every target is finite; its candidates may be -inf, +inf or NaN
    monkeypatch.setattr(pl, "RANK_BLOCK", block)
    n_img, n_cap, how = RANKING_CASES[case]
    rng = rng_from_seed(seed, 41)
    caption_image = _caption_image(rng, n_img, n_cap, how)
    scores = _tied_scores(rng, n_img, n_cap, levels=3)
    off_target = np.ones_like(scores, dtype=bool)
    off_target[caption_image, np.arange(n_cap)] = False
    draw = rng.random(scores.shape)
    scores[off_target & (draw < 0.3)] = -np.inf
    scores[off_target & (draw > 0.8)] = np.inf
    scores[off_target & (rng.random(scores.shape) < 0.1)] = np.nan
    _plant_lowest_targets(scores, caption_image)
    got = pl.recalls_from_similarity(scores, caption_image)
    assert got == reference_recalls(scores, caption_image)


@pytest.mark.parametrize("block", [3, pl.RANK_BLOCK])
@pytest.mark.parametrize("stacked", [False, True], ids=["dense", "stacked"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
def test_recalls_name_the_lowest_global_column_of_a_non_finite_ground_truth(value, stacked, block,
                                                                           monkeypatch):
    monkeypatch.setattr(pl, "RANK_BLOCK", block)
    # at block 3, column 5's target lies a row tile above column 3's, in one column block
    caption_image = np.array([0, 1, 2, 6, 4, 0, 1, 2])
    bad = [5, 3, 7]
    if stacked:
        left, right = np.ones((7, 2)), np.ones((8, 2))
        right[bad, 0] = value
        scores = pl.StackedScores(left, right)
    else:
        scores = np.zeros((7, 8))
        scores[caption_image[bad], bad] = value
    with pytest.raises(ValueError, match=f"caption column 3 has a non-finite ground-truth score {value}$"):
        pl.recalls_from_similarity(scores, caption_image)


@pytest.mark.parametrize("scores, caption_image, match", [
    (np.zeros(4), np.zeros(4, dtype=int), "2-D"),
    (np.zeros((2, 2, 2)), np.zeros(2, dtype=int), "2-D"),
    (np.zeros((3, 4)), np.zeros(3, dtype=int), "one ground-truth image"),
    (np.zeros((3, 4)), np.array([0, 1, -1, 2]), "caption column 2 names image -1"),
    (np.zeros((3, 4)), np.array([0, 3, 5, 2]), r"caption column 1 names image 3, outside \[0, 3\)"),
    (np.array([[0.0, np.nan], [1.0, 1.0]]), np.array([0, 0]), "caption column 1 has a non-finite"),
    (np.zeros((3, 0)), np.zeros(0, dtype=int), r"at least one image and one caption, got shape \(3, 0\)"),
    (np.zeros((0, 2)), np.zeros(2, dtype=int), r"at least one image and one caption, got shape \(0, 2\)"),
    (pl.StackedScores(np.zeros((0, 2)), np.zeros((4, 2))), np.zeros(4, dtype=int), r"got shape \(0, 4\)"),
    (np.zeros((2, 2)), np.array([0.5, 1.7]), "caption_image must hold integers, got dtype float64"),
    (np.zeros((2, 2)), np.array([True, False]), "caption_image must hold integers, got dtype bool"),
])
def test_recalls_reject_bad_input(scores, caption_image, match):
    with pytest.raises(ValueError, match=match):
        pl.recalls_from_similarity(scores, caption_image)


@pytest.mark.parametrize("left, right", [
    (np.zeros((3, 2)), np.zeros((4, 3))),
    (np.zeros(3), np.zeros((4, 1))),
    (np.zeros((3, 2)), np.zeros((4, 2, 1))),
])
def test_stacked_scores_reject_factors_that_do_not_multiply(left, right):
    with pytest.raises(ValueError, match=r"StackedScores needs two 2-D factors of equal width"):
        pl.StackedScores(left, right)


TIE_CASES = ("duplicate_captions", "duplicate_images", "best_at_block_edges",
             "images_without_captions", "twins_across_row_tiles")


def _planted_ties(case, block, seed):
    """Scores with exact ties planted on both sides of block boundaries.

    Three blocks and one column: [0, block), [block, 2 block),
    [2 block, 3 block), [3 block]. Image rows are nonzero integers, so a
    caption row of 20x an image's row tops that image's row; image rows
    of norm 10 sqrt(2) also top the column of such a caption. The nine
    images span row tiles [0, 3), [3, 6), [6, 9) at block 3, where
    ``twins_across_row_tiles`` ties across a row-tile edge. Returns the
    ``StackedScores`` of integer factors and their dense product.
    """
    rng = rng_from_seed(seed, 43)
    n_img, n_cap = 9, 3 * block + 1
    # row `block` starts the second row tile; at blocks past the nine rows the last row stands in
    edge = min(block, n_img - 1)
    left = (rng.integers(1, 10, size=(n_img, 2)) * rng.choice([-1, 1], size=(n_img, 2))).astype(np.float64)
    right = rng.integers(-9, 10, size=(n_cap, 2)).astype(np.float64)
    caption_image = rng.integers(0, n_img, size=n_cap)

    if case == "duplicate_captions":
        # a lower-index twin of another image scores level with its best caption
        for a, b in ((0, 1), (block - 1, block), (block + 1, n_cap - 1)):
            right[a] = right[b] = 20 * left[caption_image[b]]
    elif case == "duplicate_images":
        # twin images and twin captions: ties down the column and along the row
        for i1, i2, c1, c2 in ((0, 1, 0, 1), (2, 3, block - 1, block)):
            left[i1] = left[i2] = 10 * rng.choice([-1, 1], size=2)
            caption_image[[c1, c2]] = i1, i2
            right[c1] = right[c2] = 20 * left[i1]
    elif case == "best_at_block_edges":
        # each image's one caption, tied by the columns either side of it
        for i, c in ((0, block), (1, 3 * block - 1)):
            caption_image[caption_image == i] = n_img - 1
            caption_image[c] = i
            right[c - 1] = right[c] = right[c + 1] = 20 * left[i]
    elif case == "images_without_captions":
        # images 0-3 have none; image 0 twins image 4 above it in 4's column
        caption_image = rng.integers(4, n_img, size=n_cap)
        left[0] = left[4] = 10 * rng.choice([-1, 1], size=2)
        caption_image[block] = 4
        right[block] = 20 * left[4]
    elif case == "twins_across_row_tiles":
        # twin images either side of the tile edge; the higher twin's caption ranks the lower first
        left[edge - 1] = left[edge] = 10 * rng.choice([-1, 1], size=2)
        caption_image[[block - 1, block]] = edge, edge - 1
        right[block - 1] = right[block] = 20 * left[edge]
    return pl.StackedScores(left, right), left @ right.T, caption_image


@pytest.mark.parametrize("block", [3, pl.RANK_BLOCK])
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("case", TIE_CASES)
def test_planted_ties_match_argsort_reference(case, seed, block, monkeypatch):
    monkeypatch.setattr(pl, "RANK_BLOCK", block)
    scores, dense, caption_image = _planted_ties(case, block, seed)
    assert np.array_equal(scores[:, 0:dense.shape[1]], dense)
    assert pl.recalls_from_similarity(scores, caption_image) == reference_recalls(dense, caption_image)


def test_ranking_reads_each_tile_once_after_a_pre_pass_over_the_target_tiles(monkeypatch):
    block, n_img = 3, 7
    monkeypatch.setattr(pl, "RANK_BLOCK", block)
    caption_image = np.repeat(np.arange(n_img), 5)
    n_cap = caption_image.size
    rng = rng_from_seed(0, 47)
    left, right = _integer_factors(rng, n_img), _integer_factors(rng, n_cap)
    reads = []
    getitem = pl.StackedScores.__getitem__

    def record(scores, key):
        assert all(isinstance(k, slice) and k.step is None for k in key)
        reads.append(tuple((k.start, k.stop) for k in key))
        return getitem(scores, key)

    monkeypatch.setattr(pl.StackedScores, "__getitem__", record)
    got = pl.recalls_from_similarity(pl.StackedScores(left, right), caption_image)
    assert got == reference_recalls(left @ right.T, caption_image)

    def tile(r, c):
        return (r * block, min(r * block + block, n_img)), (c * block, min(c * block + block, n_cap))

    every_tile = sorted(tile(r, c) for r in range(-(-n_img // block)) for c in range(-(-n_cap // block)))
    target_tiles = sorted({tile(i // block, j // block) for j, i in enumerate(caption_image)})
    assert len(target_tiles) < len(every_tile)
    # the pre-pass forms each tile that holds a ground-truth cell once, and only those
    assert sorted(reads[:len(target_tiles)]) == target_tiles
    # the main pass forms every tile once, with the same bounds
    assert sorted(reads[len(target_tiles):]) == every_tile


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_recalls_match_argsort_reference_at_any_tiling(seed):
    rng = rng_from_seed(seed, 53)
    n_img, n_cap, block = int(rng.integers(1, 14)), int(rng.integers(1, 41)), int(rng.integers(1, 8))
    how = ("sorted", "shuffled", "subset")[int(rng.integers(3))]
    caption_image = rng.integers(0, n_img, size=n_cap)
    if how == "sorted":
        caption_image = np.sort(caption_image)
    elif how == "subset":
        caption_image = rng.choice(rng.choice(n_img, size=max(n_img // 2, 1), replace=False), size=n_cap)
    scores = _tied_scores(rng, n_img, n_cap, levels=int(rng.integers(1, 5)))
    off_target = np.ones_like(scores, dtype=bool)
    off_target[caption_image, np.arange(n_cap)] = False
    draw = rng.random(scores.shape)
    scores[off_target & (draw < 0.15)] = -np.inf
    scores[off_target & (draw > 0.9)] = np.inf
    scores[off_target & (rng.random(scores.shape) < 0.1)] = np.nan
    _plant_lowest_targets(scores, caption_image)
    left, right = _integer_factors(rng, n_img), _integer_factors(rng, n_cap)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pl, "RANK_BLOCK", block)
        assert pl.recalls_from_similarity(scores, caption_image) == reference_recalls(scores, caption_image)
        stacked = pl.recalls_from_similarity(pl.StackedScores(left, right), caption_image)
    assert stacked == reference_recalls(left @ right.T, caption_image)


# ---------------------------------------------------------------------------
# embedding
# ---------------------------------------------------------------------------

def test_aggregate_batch_is_one_node_over_its_parameters_for_any_batch():
    agg = FeatureAggregator(6, 8, d_p=8, hidden=4, rng=rng_from_seed(0))
    rng = rng_from_seed(1)
    seqs = [rng.standard_normal((int(rng.integers(1, 6)), 6)) for _ in range(50)]
    params = tuple(agg.p[k] for k in ("proj", "dec_w1", "dec_b1", "dec_w2", "dec_b2"))
    for batch in (seqs[:1], seqs):
        out = agg.aggregate_batch(*agg.stack(batch))
        assert out._parents == params and _graph_nodes(out) == 6


def test_embed_for_retrieval_reuses_image_chunks_exactly():
    world = pl.build_world(4, 0)
    train = pl.generate_synthetic(40, 2, 4, seed=1, world=world)
    val = pl.generate_synthetic(150, 2, 4, seed=2, split="val", world=world)
    state = pl.build_state(pl.TrainConfig(seed=0, epochs=1), train)
    model = state.model

    _, caption_image, v, _, vc, _ = pl.embed_for_retrieval(state, val)

    _, img_seqs, want_caption_image = pl._unique_images(val)
    basis = model.concept_basis()
    chunks = [img_seqs[i:i + 128] for i in range(0, len(img_seqs), 128)]
    assert len(chunks) == 2
    agg = model.vis_agg
    want_v = np.vstack([agg.aggregate_batch(*agg.stack(c)).value for c in chunks])
    want_vc = np.vstack([
        model.concept_embed(agg.aggregate_batch(*agg.stack(c)), basis, "w_visual").value
        for c in chunks])
    assert np.array_equal(caption_image, want_caption_image)
    assert np.array_equal(v, want_v)
    assert np.array_equal(vc, want_vc)


def test_embed_for_retrieval_stacks_each_row_budget_chunk_once(monkeypatch):
    budget = 30
    monkeypatch.setattr(pl, "EMBED_ROWS", budget)
    world = pl.build_world(4, 0)
    state = pl.build_state(pl.TrainConfig(seed=0, epochs=1),
                           pl.generate_synthetic(20, 2, 4, seed=1, world=world))
    model = state.model
    val = pl.generate_synthetic(12, 3, 4, seed=2, split="val", world=world)
    long_caption = rng_from_seed(3).standard_normal((budget + 15, 48))
    val[7].caption_features = long_caption
    stacked = []
    stack = FeatureAggregator.stack
    monkeypatch.setattr(FeatureAggregator, "stack",
                        lambda agg, seqs: stacked.append((agg, seqs)) or stack(agg, seqs))

    _, caption_image, v, w, vc, wc = pl.embed_for_retrieval(state, val)

    img_chunks = [seqs for agg, seqs in stacked if agg is model.vis_agg]
    cap_chunks = [seqs for agg, seqs in stacked if agg is model.txt_agg]
    # one stack per chunk: the concept encoder reads the caption encoder's
    assert len(img_chunks) + len(cap_chunks) == len(stacked)
    _, img_seqs, _ = pl._unique_images(val)
    for chunks, seqs in ((img_chunks, img_seqs), (cap_chunks, [r.caption_features for r in val])):
        flat = [seq for chunk in chunks for seq in chunk]
        assert len(flat) == len(seqs) and all(a is b for a, b in zip(flat, seqs))
        rows = [sum(len(seq) for seq in chunk) for chunk in chunks]
        assert all(n <= budget or len(chunk) == 1 for n, chunk in zip(rows, chunks))
        # a chunk ends only where its next sequence would take it past the budget
        assert all(n + len(after[0]) > budget for n, after in zip(rows, chunks[1:]))
        assert len(chunks) >= 2 and rows[-1] < budget
    assert any(len(chunk) == 1 and chunk[0] is long_caption for chunk in cap_chunks)

    basis = model.concept_basis()

    def per_chunk(agg, chunks, weight=None):
        parts = [agg.aggregate_batch(*agg.stack(chunk)) for chunk in chunks]
        if weight is not None:
            parts = [model.concept_embed(part, basis, weight) for part in parts]
        return np.vstack([part.value for part in parts])

    assert np.array_equal(v, per_chunk(model.vis_agg, img_chunks))
    assert np.array_equal(w, per_chunk(model.txt_agg, cap_chunks))
    assert np.array_equal(vc, per_chunk(model.vis_agg, img_chunks, "w_visual"))
    assert np.array_equal(wc, per_chunk(model.txt_concept_agg, cap_chunks, "w_textual"))
    assert np.array_equal(pl._instance_sums(state, val), v[caption_image] + w)


def test_embed_for_retrieval_names_an_empty_split():
    with pytest.raises(ValueError, match="^evaluation split is empty$"):
        pl.embed_for_retrieval(_tiny_state(), [])


def test_instance_sums_equal_stacking_the_runs(monkeypatch):
    monkeypatch.setattr(pl, "EMBED_ROWS", 30)
    state = _tiny_state()
    model = state.model
    val = pl.generate_synthetic(12, 3, 4, seed=2, split="val")
    val[1], val[5] = val[5], val[1]  # one image's records need not be consecutive
    _, img_seqs, caption_image = pl._unique_images(val)
    v = np.vstack([model.vis_agg.forward(*run) for run in pl._stacks(model.vis_agg, img_seqs)])
    caption_runs = list(pl._stacks(model.txt_agg, [r.caption_features for r in val]))
    w = np.vstack([model.txt_agg.forward(*run) for run in caption_runs])
    assert len(caption_runs) >= 3
    assert _bits(pl._instance_sums(state, val)) == _bits(v[caption_image] + w)


def test_instance_sums_hold_one_result(monkeypatch):
    # small runs, so that their temporaries do not hide the result's copies
    monkeypatch.setattr(pl, "EMBED_ROWS", 256)
    state = _tiny_state()
    val = _eval_split(2000, 5)
    tracemalloc.start()
    try:
        pl._instance_sums(state, val)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    result_bytes = len(val) * state.config.embed_dim * 8
    # the result, the image side (a fifth of it) and the runs' temporaries; a second
    # [n_captions, f] array, as stacking the runs or v[caption_image] + w makes, passes 2x
    assert peak < 1.6 * result_bytes


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _eval_split(n_images=60, per_image=5):
    return pl.generate_synthetic(n_images, per_image, 4, seed=3, split="val")


@pytest.mark.parametrize("beta", [0.0, 0.5, 0.9, 1.0])
def test_evaluate_equals_ranking_the_dense_blend(beta):
    state = _tiny_state()
    val = _eval_split()  # 300 captions: two RANK_BLOCK blocks
    _, caption_image, v, w, vc, wc = pl.embed_for_retrieval(state, val)
    dense = beta * (v @ w.T) + (1.0 - beta) * (vc @ wc.T)
    assert pl.evaluate(state, val, beta) == pl.recalls_from_similarity(dense, caption_image)


@pytest.mark.parametrize("records, beta, match", [
    (0, 0.9, "evaluation split is empty"),
    (10, -0.1, r"beta must lie in \[0, 1\]"),
    (10, 1.5, r"beta must lie in \[0, 1\]"),
    (10, float("nan"), r"beta must lie in \[0, 1\]"),
])
def test_evaluate_rejects_an_empty_split_and_beta_outside_unit_interval(records, beta, match):
    val = _eval_split(5, 2)[:records]
    with pytest.raises(ValueError, match=match):
        pl.evaluate(_tiny_state(), val, beta)


def _evaluate_peak(state, val) -> int:
    tracemalloc.start()
    try:
        pl.evaluate(state, val)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_evaluate_peak_memory_stays_below_one_dense_score_matrix():
    state = _tiny_state()
    val = _eval_split(400, 5)
    peak = _evaluate_peak(state, val)
    assert peak < 400 * len(val) * np.dtype(np.float64).itemsize  # one dense [400, 2000] matrix


def test_evaluate_holds_each_score_factor_once():
    state = _tiny_state()
    peaks, factor_bytes = [], []
    for n_images in (400, 2000):
        val = _eval_split(n_images, 5)
        peaks.append(_evaluate_peak(state, val))
        # [v | vc] and [w | wc]: a row of two embed_dim halves per image and per caption
        factor_bytes.append((n_images + len(val)) * 2 * state.config.embed_dim * 8)
    # a second copy of a factor, as stacking per-run parts or [w | wc] would make, grows ~1.9x
    assert peaks[1] - peaks[0] <= 1.25 * (factor_bytes[1] - factor_bytes[0])
    _, _, v, w, vc, wc = pl.embed_for_retrieval(state, val)
    assert v.base is vc.base and w.base is wc.base
    assert np.array_equal(w.base, np.hstack([w, wc])) and np.array_equal(v.base, np.hstack([v, vc]))


# ---------------------------------------------------------------------------
# synthetic data, dataset files and checkpoints
# ---------------------------------------------------------------------------

def _bits(arr) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def _blob(arr) -> dict:
    """The blob form of ``arr``, non-finite values and all, for writing files by hand."""
    return {"shape": list(np.shape(arr)), "data": base64.b64encode(_bits(arr)).decode("ascii")}


def test_synthetic_caption_features_project_their_token_latents_in_order():
    world = pl.build_world(4, 0)
    latent = {world.attr_token(c, s): world.attr_latents[c, s]
              for c in range(world.latent_classes) for s in range(world.attrs_per_class)}
    latent.update(zip(pl.DISTRACTOR_TOKENS, world.distractor_latents))
    data = pl.generate_synthetic(30, 3, 4, seed=2, world=world)
    for r in data:
        want = np.stack([latent[t] for t in r.caption_tokens]) @ world.proj_txt
        assert _bits(r.caption_features) == _bits(want)
    # the tokens are shuffled: some caption does not end in its distractors
    assert any(r.caption_tokens[-1].startswith("cls") for r in data)


@pytest.mark.parametrize("noise", [float("nan"), float("inf"), -0.1])
def test_synthetic_rejects_a_noise_that_is_not_finite_and_non_negative(noise):
    with pytest.raises(ValueError, match=f"^noise must be finite and non-negative, got {noise}$"):
        pl.generate_synthetic(10, 1, noise=noise)


@pytest.mark.parametrize("attrs", [0, -1, 9])
def test_synthetic_rejects_an_attribute_count_outside_the_class_pool(attrs):
    # build_world's default pool holds 8 attributes per class
    with pytest.raises(ValueError, match=rf"^attrs_per_image must lie in \[1, 8\], got {attrs}$"):
        pl.generate_synthetic(10, 1, attrs_per_image=attrs)


@pytest.mark.parametrize("alignment", [-0.1, 1.5, float("nan")])
def test_build_world_rejects_a_modality_alignment_outside_the_unit_interval(alignment):
    with pytest.raises(ValueError, match=r"^modality_alignment must lie in \[0, 1\]$"):
        pl.build_world(4, 0, modality_alignment=alignment)


@pytest.mark.parametrize("name, given, held", [("latent_classes", 4, 8), ("d_img", 16, 48),
                                               ("d_txt", 24, 48)])
def test_synthetic_rejects_an_argument_that_contradicts_the_world(name, given, held):
    world = pl.build_world(8, 0)
    with pytest.raises(ValueError, match=f"^{name}={given} contradicts the world's {name}={held}$"):
        pl.generate_synthetic(10, 1, seed=0, world=world, **{name: given})


def test_dataset_round_trip_is_bit_exact(tmp_path):
    data = pl.generate_synthetic(6, 3, 4, seed=2, split="train")
    extremes = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, -5e-324]
    data[0].image_features[0, :5] = extremes  # shared by the image's three records
    data[4].caption_features[-1, :5] = extremes
    path = tmp_path / "train.jsonl"
    pl.save_dataset(data, path)
    loaded = pl.load_dataset(path)
    assert len(loaded) == 18
    for got, want in zip(loaded, data):
        assert (got.pair_id, got.image_id, got.caption_tokens) == \
            (want.pair_id, want.image_id, want.caption_tokens)
        for name in ("image_features", "caption_features"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == np.float64 and a.shape == b.shape and _bits(a) == _bits(b)
    assert np.signbit(loaded[1].image_features[0, 0])


def test_records_of_one_image_share_its_array(tmp_path):
    path = tmp_path / "val.jsonl"
    pl.save_dataset(pl.generate_synthetic(5, 4, 4, seed=3, split="val"), path)
    loaded = pl.load_dataset(path)
    by_image: dict[str, set[int]] = {}
    for r in loaded:
        by_image.setdefault(r.image_id, set()).add(id(r.image_features))
    assert len(by_image) == 5 and all(len(ids) == 1 for ids in by_image.values())
    assert len({id(r.caption_features) for r in loaded}) == 20


def _interleaved():
    """Two images' records alternating, then a third image, then the first image again."""
    data = pl.generate_synthetic(3, 3, 4, seed=5, split="val")
    a, b, c = data[:3], data[3:6], data[6:]
    records = [a[0], b[0], a[1], b[1], c[0], a[2], c[1]]
    # an equal copy, not the same array, of image a's features
    records[2] = dataclasses.replace(a[1], image_features=a[1].image_features.copy())
    return records


def test_interleaved_records_round_trip_in_order_and_share_each_image(tmp_path):
    data = _interleaved()
    path = tmp_path / "val.jsonl"
    pl.save_dataset(data, path)
    loaded = pl.load_dataset(path)
    assert [(r.pair_id, r.image_id, r.caption_tokens) for r in loaded] == \
        [(r.pair_id, r.image_id, r.caption_tokens) for r in data]
    for got, want in zip(loaded, data):
        assert _bits(got.image_features) == _bits(want.image_features)
        assert _bits(got.caption_features) == _bits(want.caption_features)
        assert got.image_features is next(r for r in loaded if r.image_id == got.image_id).image_features
    assert len({id(r.image_features) for r in loaded}) == 3
    assert not loaded[0].image_features.flags.writeable


def test_saved_file_holds_one_image_blob_per_image(tmp_path):
    data = _interleaved()
    path = tmp_path / "val.jsonl"
    pl.save_dataset(data, path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    firsts = {}
    for i, raw in enumerate(lines):
        assert ("image_features" in raw) == (firsts.setdefault(raw["image_id"], i) == i)
    assert [i for i, raw in enumerate(lines) if "image_features" in raw] == [0, 1, 4]


def test_load_dataset_decodes_each_record_and_each_image_once(monkeypatch, tmp_path):
    path = tmp_path / "val.jsonl"
    pl.save_dataset(pl.generate_synthetic(6, 4, 4, seed=3, split="val"), path)
    decoded = []
    decode = pl._decode
    monkeypatch.setattr(pl, "_decode", lambda blob, where: decoded.append(where) or decode(blob, where))
    loaded = pl.load_dataset(path)
    assert len(loaded) == 24
    assert len(decoded) == 24 + 6
    assert sum(where.endswith("image_features") for where in decoded) == 6


def test_save_dataset_rejects_images_that_differ_within_an_image_id(tmp_path):
    image = np.ones((2, 3))
    image[1, 2] = 0.0
    # b holds an equal copy of a's features; c's differ from them in the sign of a zero
    differs = image.copy()
    differs[1, 2] = -0.0
    data = [pl.PairedRecord(pair_id, "img", features, ["red"], np.ones((1, 4)))
            for pair_id, features in (("a", image), ("b", image.copy()), ("c", differs))]
    path = tmp_path / "dev.jsonl"
    pl.save_dataset(data[:2], path)
    assert [r.pair_id for r in pl.load_dataset(path)] == ["a", "b"]
    with pytest.raises(ValueError, match=r"^record 'c': image_features differ from those of record "
                                         r"'a', which has the same image_id 'img'$"):
        pl.save_dataset(data, path)
    assert not path.exists()


def test_save_dataset_rejects_a_duplicate_pair_id(tmp_path):
    data = pl.generate_synthetic(3, 2, 4, seed=1)
    data[4].pair_id = data[1].pair_id
    path = tmp_path / "train.jsonl"
    with pytest.raises(ValueError, match=rf"^record '{data[1].pair_id}': duplicate pair_id$"):
        pl.save_dataset(data, path)
    assert not path.exists()


def test_loaded_records_share_their_strings(tmp_path):
    path = tmp_path / "val.jsonl"
    pl.save_dataset(pl.generate_synthetic(6, 4, 4, seed=3, split="val"), path)
    loaded = pl.load_dataset(path)
    token_ids: dict[str, set[int]] = {}
    image_ids: dict[str, set[int]] = {}
    for r in loaded:
        for t in r.caption_tokens:
            token_ids.setdefault(t, set()).add(id(t))
        image_ids.setdefault(r.image_id, set()).add(id(r.image_id))
    assert sum(len(r.caption_tokens) for r in loaded) > len(token_ids)
    assert all(len(ids) == 1 for ids in token_ids.values())
    assert len(image_ids) == 6 and all(len(ids) == 1 for ids in image_ids.values())
    assert not any(hasattr(r, "__dict__") for r in loaded)


def test_load_dataset_reads_utf8_tokens(tmp_path):
    tokens = ("naïve", "café", "日本")
    path = _write(tmp_path / "dev.jsonl", json.dumps(_raw(tokens=tokens), ensure_ascii=False))
    assert not path.read_bytes().isascii()
    assert pl.load_dataset(path)[0].caption_tokens == list(tokens)


@pytest.mark.parametrize("field, value", [("image_features", np.inf),
                                          ("caption_features", np.nan)])
def test_save_dataset_rejects_a_non_finite_feature(field, value, tmp_path):
    data = pl.generate_synthetic(3, 1, 4, seed=1)
    getattr(data[1], field)[-1, 2] = value
    path = tmp_path / "train.jsonl"
    with pytest.raises(ValueError, match=rf"^record '{data[1].pair_id}': {field} contains "
                                         r"non-finite values$"):
        pl.save_dataset(data, path)
    # record 0's line was written before the error; no part of the file is left to load
    assert not path.exists()


@pytest.mark.parametrize("max_seq_len", [0, -1, 2.5, True])
def test_load_dataset_rejects_a_max_seq_len_that_is_no_positive_int(max_seq_len, tmp_path):
    path = _write(tmp_path / "dev.jsonl", _raw("a"))
    with pytest.raises(ValueError, match=rf"^max_seq_len must be a positive int, got {max_seq_len}$"):
        pl.load_dataset(path, max_seq_len=max_seq_len)


def _raw(pair_id="p", image=None, caption=None, tokens=("red", "car"), image_id="img",
         first=True) -> dict:
    """A valid record of ``image_id``; ``first=False`` omits its image_features, as the
    file holds them only on the image's first record."""
    image = np.ones((2, 3)) if image is None else image
    caption = np.ones((1, 4)) if caption is None else caption
    raw = {"pair_id": pair_id, "image_id": image_id, "image_features": _blob(image),
           "caption_tokens": list(tokens), "caption_features": _blob(caption)}
    if not first:
        del raw["image_features"]
    return raw


def _write(path, *lines):
    # a lone surrogate in a line is written as the byte it escapes
    path.write_text("".join((line if isinstance(line, str) else json.dumps(line)) + "\n"
                            for line in lines), encoding="utf-8", errors="surrogateescape")
    return path


def _with(field, value, **kwargs):
    raw = _raw(**kwargs)
    raw[field] = value
    return raw


def _without(field, **kwargs):
    raw = _raw(**kwargs)
    del raw[field]
    return raw


# a second record whose token "red" holds the byte 0xff, which is not UTF-8
_NOT_UTF8 = json.dumps(_raw("b", first=False)).replace('"red"', '"r\udcffd"')

BAD_DATASETS = {
    # name: (lines of the file, expected message)
    "not_utf8": ([_raw("a"), _NOT_UTF8],
                 rf"^line 2: byte 0xff at column {_NOT_UTF8.index(chr(0xDCFF)) + 1} is not UTF-8$"),
    "parse_error": ([_raw("a"), '{"pair_id": "b",'], r"parse error at line 2: "),
    "no_pair_id": ([_raw("a"), _without("pair_id", first=False)], r"line 2: record has no pair_id"),
    "not_an_object": (["[1, 2]"], r"line 1: record has no pair_id"),
    "missing_field": ([_without("caption_tokens")], r"record 'p': missing field 'caption_tokens'"),
    "nested_list": ([_with("image_features", [[1.0, 2.0, 3.0]])],
                    r"record 'p': image_features must be \{\"shape\": \[\.\.\.\], \"data\": "
                    r"<base64 of little-endian float64>\}, got a list"),
    "extra_blob_key": ([_with("caption_features", {"shape": [1, 1], "data": "", "dtype": "f8"})],
                       r"record 'p': caption_features must be .*got keys \['data', 'dtype', 'shape'\]"),
    "float_shape": ([_with("image_features", {"shape": [1.0, 1], "data": "AAAAAAAA8D8="})],
                    r"record 'p': image_features: shape must be a list of non-negative ints"),
    "data_not_a_string": ([_with("image_features", {"shape": [1, 1], "data": 1.0})],
                          r"record 'p': image_features: data must be a base64 string, got float"),
    "bad_base64": ([_with("image_features", {"shape": [1, 1], "data": "AAAA AAA8D8="})],
                   r"record 'p': image_features: data is not strict base64"),
    "byte_count": ([_with("caption_features", {"shape": [2, 3], "data": "AAAAAAAA8D8="})],
                   r"record 'p': caption_features: data holds 8 bytes but shape \[2, 3\] needs 48"),
    "one_d": ([_raw(image=np.ones(3))], r"record 'p': image_features must be a nonempty 2-D array"),
    "empty": ([_raw(caption=np.ones((0, 4)))],
              r"record 'p': caption_features must be a nonempty 2-D array, got shape \[0, 4\]"),
    "too_long": ([_raw(image=np.ones((65, 3)))], r"record 'p': image_features longer than max_seq_len=64"),
    "non_finite": ([_raw(caption=np.array([[1.0, np.nan, 0.0, 0.0]]))],
                   r"record 'p': caption_features contains non-finite values"),
    "non_string_token": ([_raw(tokens=("red", 3))],
                         r"record 'p': caption_tokens must be a list of strings"),
    "duplicate": ([_raw("a"), _raw("b", first=False), _raw("a", first=False)],
                  r"record 'a': duplicate pair_id"),
    "no_records": (["", "  "], r"has no records"),
    "image_width": ([_raw("a"), _raw("b", image=np.ones((2, 5)), image_id="other")],
                    r"record 'b': image_features has width 5 but the first record's has 3"),
    "caption_width": ([_raw("a"), _raw("b", caption=np.ones((3, 2)), first=False)],
                      r"record 'b': caption_features has width 2 but the first record's has 4"),
    "null_image_id": ([_with("image_id", None)],
                      r"record 'p': image_id must be a non-empty string, got None"),
    "empty_image_id": ([_with("image_id", "")],
                       r"record 'p': image_id must be a non-empty string, got ''"),
    "int_image_id": ([_with("image_id", 7)], r"record 'p': image_id must be a non-empty string, got 7"),
    "image_missing": ([_raw("a"), _raw("b", first=False), _raw("c", image_id="other", first=False)],
                      r"^record 'c': missing field 'image_features', which the first record of "
                      r"image_id 'other' must hold$"),
    "image_repeated": ([_raw("a"), _raw("b", first=False), _raw("c")],
                       r"^record 'c': image_features repeated; only record 'a', the first of "
                       r"image_id 'img', may hold them$"),
}


@pytest.mark.parametrize("case", sorted(BAD_DATASETS))
def test_load_dataset_rejects_bad_records(case, tmp_path):
    lines, match = BAD_DATASETS[case]
    path = _write(tmp_path / "bad.jsonl", *lines)
    with pytest.raises(ValueError, match=match):
        pl.load_dataset(path)


def test_load_dataset_skips_blank_lines_and_takes_max_seq_len(tmp_path):
    path = _write(tmp_path / "dev.jsonl", _raw("a"), "", _raw("b", first=False),
                  _raw("c", image_id="other"))
    loaded = pl.load_dataset(path, max_seq_len=2)
    assert [(r.pair_id, r.image_id) for r in loaded] == [("a", "img"), ("b", "img"), ("c", "other")]
    with pytest.raises(ValueError, match=r"record 'a': image_features longer than max_seq_len=1"):
        pl.load_dataset(path, max_seq_len=1)


def _tiny_state():
    return pl.build_state(pl.TrainConfig(seed=0, epochs=1), pl.generate_synthetic(8, 2, 4, seed=1))


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    state = _tiny_state()
    path = tmp_path / "ckpt.json"
    pl.save_checkpoint(path, state, which="final")
    loaded = pl.load_checkpoint(path)
    want = dict(state.model.param_items())
    got = dict(loaded.model.param_items())
    assert got.keys() == want.keys()
    assert all(_bits(got[k].value) == _bits(want[k].value) for k in want)
    momentum = state.model.encoder_pair.momentum
    assert all(_bits(loaded.model.encoder_pair.momentum[k]) == _bits(momentum[k]) for k in momentum)
    assert _bits(loaded.model.concept_inputs) == _bits(state.model.concept_inputs)
    assert not loaded.model.concept_inputs.flags.writeable


@pytest.mark.parametrize("d_img, d_txt", [(48, 48), (40, 24)])
def test_loaded_checkpoint_evaluates_exactly_like_the_saved_state(d_img, d_txt, tmp_path):
    # unequal widths skip the symmetric start, so each aggregator keeps its own draw
    cfg = pl.TrainConfig(seed=0, epochs=1, batch_size=16)
    state, rows = pl.train(cfg, pl.generate_synthetic(33, 1, 4, seed=5, d_img=d_img, d_txt=d_txt))
    assert all(math.isfinite(rows[0][k]) for k in ("l_dcl_i", "l_mdcl", "l_dcl_c", "l_pgc", "total"))
    path = tmp_path / "ckpt.json"
    pl.save_checkpoint(path, state, which="final")
    loaded = pl.load_checkpoint(path)
    assert (loaded.model.vis_agg.d_in, loaded.model.txt_agg.d_in) == (d_img, d_txt)
    val = pl.generate_synthetic(60, 5, 4, seed=3, split="val", d_img=d_img, d_txt=d_txt)
    assert pl.evaluate(loaded, val) == pl.evaluate(state, val)


@pytest.mark.parametrize("corrupt, match", [
    (lambda blob: [blob], "checkpoint: the top level must be an object, got list"),
    (lambda blob: dict(blob, version=1), "unsupported checkpoint version 1"),
    (lambda blob: dict(blob, version=2), "unsupported checkpoint version 2"),
    (lambda blob: dict(blob, version=3), "unsupported checkpoint version 3"),
    (lambda blob: dict(blob, version=4.0), "unsupported checkpoint version 4.0"),
    (lambda blob: dict(blob, params=[]), "checkpoint section 'params' must be of type dict, got list"),
    (lambda blob: dict(blob, epoch="1"), "checkpoint section 'epoch' must be of type int, got str"),
    (lambda blob: dict(blob, epoch=-1), "checkpoint section 'epoch' must be non-negative, got -1"),
    (lambda blob: dict(blob, epoch=-5), "checkpoint section 'epoch' must be non-negative, got -5"),
], ids=["list", "version_1", "version_2", "version_3", "version_float", "params_list",
        "epoch_string", "epoch_minus_one", "epoch_minus_five"])
def test_load_checkpoint_names_a_bad_top_level(corrupt, match, tmp_path):
    path = tmp_path / "ckpt.json"
    pl.save_checkpoint(path, _tiny_state(), which="final")
    path.write_text(json.dumps(corrupt(json.loads(path.read_text()))))
    with pytest.raises(ValueError, match=match):
        pl.load_checkpoint(path)


@pytest.mark.parametrize("name, value, kind", [
    ("embed_dim", "x", "int"),
    ("use_memory_loss", "no", "bool"),
    ("epochs", 2.5, "int"),
    ("seed", True, "int"),
    ("mu", "0.1", "float"),
    ("mu", False, "float"),
    ("lr_drop_epoch", 1.0, "int | None"),
    ("diversity_estimator", 1, "str"),
    ("batch_size", 32.0, "int"),
    ("epochs", True, "int"),
    ("lr_drop_epoch", 2.5, "int | None"),
])
@pytest.mark.parametrize("via", ["validate", "from_dict", "load_checkpoint"])
def test_config_names_a_mistyped_field(via, name, value, kind, tmp_path):
    match = rf"invalid config: {name} must be {re.escape(kind)}, got {type(value).__name__}"
    if via == "validate":
        with pytest.raises(ValueError, match=match):
            pl.TrainConfig(**{name: value}).validate()
        return
    if via == "from_dict":
        with pytest.raises(ValueError, match=match):
            pl.TrainConfig.from_dict({name: value})
        return
    path = tmp_path / "ckpt.json"
    pl.save_checkpoint(path, _tiny_state(), which="final")
    blob = json.loads(path.read_text())
    blob["config"][name] = value
    path.write_text(json.dumps(blob))
    with pytest.raises(ValueError, match=match):
        pl.load_checkpoint(path)


FLOAT_FIELDS = [f.name for f in dataclasses.fields(pl.TrainConfig) if f.type == "float"]


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, -10 ** 400],
                         ids=["inf", "-inf", "nan", "huge_int"])
@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_config_names_a_non_finite_float_field(name, value):
    with pytest.raises(ValueError, match=rf"invalid config: {name} must be finite, got {value!r}"):
        pl.TrainConfig(**{name: value}).validate()


def test_load_checkpoint_rejects_a_json_infinity_in_the_config(tmp_path):
    path = tmp_path / "ckpt.json"
    pl.save_checkpoint(path, _tiny_state(), which="final")
    blob = json.loads(path.read_text())
    blob["config"]["lr"] = math.inf
    path.write_text(json.dumps(blob))
    assert '"lr": Infinity' in path.read_text()
    with pytest.raises(ValueError, match="invalid config: lr must be finite, got inf"):
        pl.load_checkpoint(path)


def test_config_takes_an_int_for_a_float_field():
    cfg = pl.TrainConfig.from_dict({"mu": 1, "lr": 1, "lr_drop_epoch": None})
    assert (cfg.mu, cfg.lr, cfg.lr_drop_epoch) == (1.0, 1.0, None)


# one out-of-range value per check of TrainConfig.validate, with its message
RANGE_CASES = [
    ("embed_dim", 1, "embed_dim must be at least 2"),
    ("d_p", 3, "d_p must be a positive even number"),
    ("decoder_hidden", 0, "decoder_hidden must be positive"),
    ("mu", 0.0, "mu must be positive"),
    ("gamma", -0.1, "gamma must be non-negative"),
    ("lambda_weight", -1.0, "lambda_weight must be non-negative"),
    ("beta", 1.5, "beta must lie in [0, 1]"),
    ("bank_capacity", 0, "bank_capacity must be positive"),
    ("momentum", -0.1, "momentum must lie in [0, 1]"),
    ("eps_div", 0.0, "eps_div must be positive"),
    ("concept_smoothness", -1.0, "concept_smoothness must be positive"),
    ("k_clusters", 0, "k_clusters must be positive"),
    ("concepts", 0, "concepts must be positive"),
    ("eps_t", 1.0, "eps_t must lie in (0, 1)"),
    ("batch_size", 1, "batch_size must be at least 2"),
    ("epochs", -1, "epochs must be non-negative"),
    ("lr", 0.0, "lr must be positive"),
    ("lr_drop_epoch", -1, "lr_drop_epoch must be non-negative"),
    ("lr_drop_factor", 0.0, "lr_drop_factor must be positive"),
    ("seed", -1, "seed must be non-negative"),
    ("diversity_estimator", "median", "diversity_estimator must be 'std' or 'entropy'"),
    ("instance_loss", "hinge", "instance_loss must be 'dcl', 'dcl_i', or 'triplet'"),
    ("triplet_margin", -0.2, "triplet_margin must be non-negative"),
]


@pytest.mark.parametrize("name, value, message", RANGE_CASES, ids=[c[0] for c in RANGE_CASES])
def test_config_names_an_out_of_range_field(name, value, message):
    with pytest.raises(ValueError, match=f"^invalid config: {re.escape(message)}$"):
        pl.TrainConfig(**{name: value}).validate()


@pytest.mark.parametrize("call, message", [
    (lambda tmp: pl.TrainConfig.from_dict({"mu": 0.2, "zeta": 1, "alpha": 2}),
     "unknown config fields: alpha, zeta"),
    (lambda tmp: pl.build_state(pl.TrainConfig(), []), "training dataset is empty"),
    (lambda tmp: pl.save_checkpoint(tmp / "ckpt.json", _tiny_state(), which="x"),
     "which must be 'best' or 'final'"),
], ids=["unknown_config_field", "empty_training_set", "unknown_checkpoint_kind"])
def test_pipeline_names_a_bad_argument(call, message, tmp_path):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(tmp_path)


@pytest.mark.parametrize("section", ["epoch", "config", "dims", "params", "momentum",
                                     "concept_inputs"])
def test_load_checkpoint_names_a_missing_section(section, tmp_path):
    path = tmp_path / "ckpt.json"
    pl.save_checkpoint(path, _tiny_state(), which="final")
    blob = json.loads(path.read_text())
    del blob[section]
    path.write_text(json.dumps(blob))
    with pytest.raises(ValueError, match=f"checkpoint: missing section '{section}'"):
        pl.load_checkpoint(path)


@pytest.mark.parametrize("section, name, corrupt, match", [
    ("params", "extra.classifier",
     lambda sec, n: sec[n].update(data=sec[n]["data"][:-12]), r"needs \d+"),
    ("momentum", "txt.dec_b1",
     lambda sec, n: sec[n].update(data=sec[n]["data"][:-1]), "not strict base64"),
    ("params", "extra.classifier", lambda sec, n: sec.update({n: sec[n]["shape"]}), "must be"),
    ("params", "extra.classifier", lambda sec, n: sec.pop(n), "missing from the file"),
    ("momentum", "vis.proj", lambda sec, n: sec.pop(n), "missing from the file"),
    ("params", "vis.bogus", lambda sec, n: sec.update({n: sec["vis.proj"]}),
     "not a parameter of this model"),
    ("params", "bogus.w", lambda sec, n: sec.update({n: sec["vis.proj"]}),
     "not a parameter of this model"),
    ("params", "txt.proj", lambda sec, n: sec.update({n: _blob(np.zeros((3, 3)))}),
     r"shape \[3, 3\] but the model's is \[48, 32\]"),
    ("dims", "d_img", lambda sec, n: sec.pop(n), "missing from the file"),
    ("dims", "d_img", lambda sec, n: sec.update({n: "48"}), "must be of type int, got str"),
    ("dims", "d_txt", lambda sec, n: sec.update({n: 0}), "must be positive, got 0"),
], ids=["truncated", "bad_padding", "not_a_blob", "missing", "missing_momentum",
        "unknown_name", "unknown_group", "wrong_shape", "missing_d_img", "string_d_img",
        "zero_d_txt"])
def test_load_checkpoint_names_a_corrupt_blob(section, name, corrupt, match, tmp_path):
    path = tmp_path / "ckpt.json"
    pl.save_checkpoint(path, _tiny_state(), which="final")
    blob = json.loads(path.read_text())
    corrupt(blob[section], name)
    path.write_text(json.dumps(blob))
    with pytest.raises(ValueError, match=rf"checkpoint {section} '{re.escape(name)}'.*{match}"):
        pl.load_checkpoint(path)


@pytest.mark.parametrize("corrupt, match", [
    (lambda b: b.update(concept_inputs=_blob(np.zeros((b["concept_inputs"]["shape"][0], 31)))),
     r"must have 1 to 24 rows of width 32, got shape \[\d+, 31\]"),
    (lambda b: b.update(concept_inputs=_blob(np.zeros((0, 32)))),
     r"must have 1 to 24 rows of width 32, got shape \[0, 32\]"),
    (lambda b: b.update(concept_inputs=_blob(np.zeros((25, 32)))),
     r"must have 1 to 24 rows of width 32, got shape \[25, 32\]"),
    (lambda b: b.update(concept_inputs=_blob(np.zeros(32))),
     r"must have 1 to 24 rows of width 32, got shape \[32\]"),
    (lambda b: b.update(concept_inputs=_blob(np.full((2, 32), np.inf))),
     "contains non-finite values"),
    (lambda b: b["concept_inputs"].update(data=b["concept_inputs"]["data"][:-12]), r"needs \d+"),
    (lambda b: b.update(concept_inputs=[[0.0] * 32]), "must be of type dict, got list"),
], ids=["wrong_width", "zero_rows", "more_rows_than_concepts", "one_dimensional", "non_finite",
        "truncated", "not_a_blob"])
def test_load_checkpoint_names_bad_concept_inputs(corrupt, match, tmp_path):
    path = tmp_path / "ckpt.json"
    pl.save_checkpoint(path, _tiny_state(), which="final")
    blob = json.loads(path.read_text())
    corrupt(blob)
    path.write_text(json.dumps(blob))
    with pytest.raises(ValueError, match=rf"checkpoint section 'concept_inputs'.*{match}"):
        pl.load_checkpoint(path)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("instance_loss, estimator", [
    ("dcl", "std"), ("dcl_i", "std"), ("triplet", "std"), ("dcl", "entropy"),
], ids=["dcl", "dcl_i", "triplet", "dcl_entropy"])
def test_train_runs_every_branch_deterministically(instance_loss, estimator, tmp_path, monkeypatch):
    # 33 pairs in batches of 16 leave a one-pair final batch, and 40
    # clusters exceed the 33 records
    cfg = pl.TrainConfig(seed=0, epochs=2, batch_size=16, k_clusters=40,
                         instance_loss=instance_loss, diversity_estimator=estimator)
    data = pl.generate_synthetic(33, 1, 4, seed=5)
    val = pl.generate_synthetic(6, 2, 4, seed=5, split="val")
    # the momentum mirror at the end of each epoch, when train evaluates it
    mirrors, evaluate = [], pl.evaluate

    def spy_evaluate(state, data, beta=None):
        mirrors.append({k: v.copy() for k, v in state.model.encoder_pair.momentum.items()})
        return evaluate(state, data, beta)

    monkeypatch.setattr(pl, "evaluate", spy_evaluate)
    state, rows = pl.train(cfg, data, val)
    monkeypatch.undo()
    assert [row["epoch"] for row in rows] == [0, 1] and state.epochs_run == 2
    assert state.prototypes.centroids.shape[0] == 33
    for row in rows:
        assert all(math.isfinite(row[k]) for k in ("l_dcl_i", "l_mdcl", "l_dcl_c", "l_pgc", "total"))
    assert rows[-1]["l_mdcl"] != 0.0
    assert pl.train(cfg, data, val)[1] == rows
    # the best epoch is the first to reach the top held-out rsum, and a
    # default save keeps its parameters, its momentum mirror and the
    # number of epochs run then
    best = max(row["rsum"] for row in rows)
    best_epochs_run = next(row["epoch"] for row in rows if row["rsum"] == best) + 1
    assert state.best["rsum"] == best
    assert state.best["epochs_run"] == best_epochs_run
    path = tmp_path / "best.json"
    pl.save_checkpoint(path, state)
    loaded = pl.load_checkpoint(path)
    assert loaded.epochs_run == best_epochs_run
    params = {name: m.value for name, m in loaded.model.param_items()}
    assert all(np.array_equal(params[k], v) for k, v in state.best["params"].items())
    momentum = loaded.model.encoder_pair.momentum
    assert momentum.keys() == mirrors[best_epochs_run - 1].keys()
    assert all(np.array_equal(momentum[k], v) for k, v in mirrors[best_epochs_run - 1].items())
    assert pl.evaluate(loaded, val).rsum == best


@pytest.mark.parametrize("epochs, drop_epoch, factor, dropped", [
    (1, None, 0.1, [False]),
    (3, None, 0.1, [False, True, True]),
    (4, None, 0.1, [False, False, True, True]),
    (3, 0, 0.1, [True, True, True]),
    (3, 1, 0.1, [False, True, True]),
    (4, None, 0.25, [False, False, True, True]),
], ids=["default_1", "default_3", "default_4", "at_0", "at_1", "factor"])
def test_train_drops_the_learning_rate_from_lr_drop_epoch_on(epochs, drop_epoch, factor, dropped,
                                                             monkeypatch):
    # the default drop epoch is max(epochs // 2, 1)
    lrs, adam_step = [], pl.adam_step

    def spy_adam_step(state, params, grads):
        lrs.append(state.lr)
        return adam_step(state, params, grads)

    monkeypatch.setattr(pl, "adam_step", spy_adam_step)
    cfg = pl.TrainConfig(seed=0, epochs=epochs, batch_size=4, lr_drop_epoch=drop_epoch,
                         lr_drop_factor=factor, use_concept_losses=False)
    state, _ = pl.train(cfg, pl.generate_synthetic(8, 1, 4, seed=5))
    # two batches per epoch
    assert lrs == [cfg.lr * factor if d else cfg.lr for d in dropped for _ in range(2)]
    assert state.adam.lr == lrs[-1]


def test_train_seeds_prototypes_once_then_refines_them(monkeypatch):
    seedings, runs = [], []
    plusplus, kmeans = obj._plusplus_init, obj.kmeans_cluster

    def spy_plusplus(*args, **kwargs):
        seedings.append(len(runs) - 1)  # the k-means call it seeds
        return plusplus(*args, **kwargs)

    def spy_kmeans(points, k, **kwargs):
        start = kwargs.get("start_centroids")
        runs.append({"start": None if start is None else start.copy()})
        runs[-1]["result"] = result = kmeans(points, k, **kwargs)
        runs[-1]["centroids"] = result.centroids.copy()
        return result

    monkeypatch.setattr(obj, "_plusplus_init", spy_plusplus)
    monkeypatch.setattr(obj, "kmeans_cluster", spy_kmeans)
    cfg = pl.TrainConfig(seed=0, epochs=3, batch_size=16, k_clusters=6)
    state, _ = pl.train(cfg, pl.generate_synthetic(33, 1, 4, seed=5))
    # k-means++ seeds each of epoch 0's restarts and never runs again
    assert len(runs) == 3 and seedings == [0, 0, 0, 0]
    assert runs[0]["start"] is None
    for prev, run in zip(runs, runs[1:]):
        assert run["start"].tobytes() == prev["centroids"].tobytes()
        # the previous state's centroids were refined in a copy, not in place
        assert prev["result"].centroids.tobytes() == prev["centroids"].tobytes()
    assert state.prototypes is runs[-1]["result"]


def test_train_names_an_overflowing_contrastive_direction():
    # at mu 1e-4 any score above 709e-4 overflows exp in the first step
    data = pl.generate_synthetic(33, 1, 4, seed=5)
    cfg = pl.TrainConfig(seed=0, epochs=1, batch_size=16, mu=1e-4, gamma=0.0)
    with pytest.raises(RuntimeError,
                       match="epoch 0, batch 0: _contrastive_direction: exp overflows"):
        pl.train(cfg, data)


def test_train_names_an_overflowing_encoder_projection(monkeypatch):
    build_state = pl.build_state

    def overflowing_state(cfg, data):
        state = build_state(cfg, data)
        state.model.set_param("vis.proj", Matrix(np.full(state.model.vis_agg.p["proj"].shape, 1e308)))
        return state

    monkeypatch.setattr(pl, "build_state", overflowing_state)
    data = pl.generate_synthetic(33, 1, 4, seed=5)
    cfg = pl.TrainConfig(seed=0, epochs=1, batch_size=16, use_concept_losses=False)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            RuntimeError, match="epoch 0, batch 0: aggregate_batch: projection has non-finite"):
        pl.train(cfg, data)


def test_flat_adam_step_equals_per_parameter_steps():
    state = _tiny_state()
    params = dict(state.model.param_items())
    assert len({m.shape for m in params.values()}) > 1
    per_param = {name: AdamState(m.rows, m.cols, state.adam.lr) for name, m in params.items()}
    rng = rng_from_seed(3)
    for _ in range(3):
        # a parameter with no grad steps on zeros
        grads = {name: None if name == "extra.classifier" else rng.standard_normal(m.shape)
                 for name, m in state.model.param_items()}
        for name, m in state.model.param_items():
            m.grad = grads[name]
        pl._adam_update(state)
        for name, m in params.items():
            g = np.zeros(m.shape) if grads[name] is None else grads[name]
            params[name] = adam_step(per_param[name], m, g)
    assert state.adam.step == 3
    for name, m in state.model.param_items():
        assert _bits(m.value) == _bits(params[name].value)
    # every parameter is a read-only view of the one checked Adam result
    values = [m.value for _, m in state.model.param_items()]
    owner = values[0].base
    assert owner is not None and all(not v.flags.writeable and v.base is owner for v in values)


def test_flat_adam_step_rejects_a_nan_grad_before_any_parameter_changes():
    state = _tiny_state()
    before = dict(state.model.param_items())
    for m in before.values():
        m.grad = np.ones(m.shape)
    # the last parameter, so a per-parameter loop would already have moved the others
    last = list(before.values())[-1]
    last.grad = np.full(last.shape, np.nan)
    with pytest.raises(NonFiniteError, match="^adam_step: update contains non-finite entries"):
        pl._adam_update(state)
    assert all(m is before[name] for name, m in state.model.param_items())
    assert state.adam.step == 0 and not state.adam.m.any() and not state.adam.v.any()


def _graph(root) -> list:
    """The distinct nodes reachable from ``root`` through their parents, ``root`` among them."""
    seen, nodes = {id(root)}, [root]
    for node in nodes:
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                nodes.append(parent)
    return nodes


def _graph_nodes(root) -> int:
    return len(_graph(root))


# A step with every loss on builds 79 nodes on this fixture (95 with the
# triplet baseline): among them six contrastive directions and three
# aggregator calls, one node each. An aggregator call composed of
# elementary ops costs 10 nodes and a direction about 20, so a single
# such one exceeds the budget.
GRAPH_NODE_BUDGET = 79
TRIPLET_GRAPH_NODE_BUDGET = 95


def _budget_step(instance_loss="dcl"):
    """The model and the loss node of one step with every loss on, memory banks full."""
    data = pl.generate_synthetic(8, 2, 4, seed=1)
    state = pl.build_state(pl.TrainConfig(seed=0, epochs=1, batch_size=8,
                                          instance_loss=instance_loss), data)
    rng = rng_from_seed(4)
    for bank in (state.bank_v, state.bank_w):
        rows = rng.standard_normal((8, state.config.embed_dim))
        bank.enqueue(rows / np.linalg.norm(rows, axis=1, keepdims=True))
    total, parts, _, _ = pl.batch_losses(state, data[:8], np.arange(8) % 4)
    # the memory and label losses are in the graph
    assert parts["l_mdcl"] != 0.0 and parts["l_pgc"] != 0.0
    return state.model, total


def test_one_training_step_stays_within_its_graph_node_budget():
    _, total = _budget_step()
    assert _graph_nodes(total) <= GRAPH_NODE_BUDGET


def test_one_triplet_training_step_stays_within_its_graph_node_budget():
    _, total = _budget_step("triplet")
    assert _graph_nodes(total) <= TRIPLET_GRAPH_NODE_BUDGET


def test_every_constant_leaf_of_a_training_step_is_a_scalar():
    model, total = _budget_step()
    backward(total)
    params = {id(m) for _, m in model.param_items()}
    constants = [node for node in _graph(total) if not node._parents and id(node) not in params]
    # the memory banks, momentum positives, masks and concept inputs live inside their nodes
    assert constants and all(leaf.shape == (1, 1) for leaf in constants)
    assert all(m.grad is not None for _, m in model.param_items())


def test_one_training_step_stacks_each_modality_once(monkeypatch):
    data = pl.generate_synthetic(32, 1, 4, seed=1)
    state = pl.build_state(pl.TrainConfig(seed=0, epochs=1, batch_size=32), data)
    rng = rng_from_seed(4)
    for bank in (state.bank_v, state.bank_w):
        rows = rng.standard_normal((32, state.config.embed_dim))
        bank.enqueue(rows / np.linalg.norm(rows, axis=1, keepdims=True))
    stacked = []
    stack = FeatureAggregator.stack
    monkeypatch.setattr(FeatureAggregator, "stack",
                        lambda agg, seqs: stacked.append((agg, len(seqs))) or stack(agg, seqs))
    _, parts, _, _ = pl.batch_losses(state, data, np.arange(32) % 4)
    assert all(value != 0.0 for value in parts.values())
    assert stacked == [(state.model.vis_agg, 32), (state.model.txt_agg, 32)]


@pytest.mark.parametrize("off", [(), ("l_mdcl",), ("l_pgc",), ("l_dcl_c", "l_pgc")],
                         ids=["all_on", "memory_off", "labels_off", "concepts_off"])
def test_batch_losses_total_is_the_weighted_sum_of_its_parts(off):
    data = pl.generate_synthetic(8, 2, 4, seed=1)
    cfg = pl.TrainConfig(seed=0, epochs=1, batch_size=8, lambda_weight=2.5,
                         use_memory_loss="l_mdcl" not in off,
                         use_concept_losses="l_dcl_c" not in off)
    state = pl.build_state(cfg, data)
    rng = rng_from_seed(4)
    for bank in (state.bank_v, state.bank_w):
        rows = rng.standard_normal((8, cfg.embed_dim))
        bank.enqueue(rows / np.linalg.norm(rows, axis=1, keepdims=True))
    labels = None if "l_pgc" in off else np.arange(8) % 4
    total, parts, v_mom, w_mom = pl.batch_losses(state, data[:8], labels)
    assert list(parts) == ["l_dcl_i", "l_mdcl", "l_dcl_c", "l_pgc"]
    assert all((parts[name] == 0.0) == (name in off) for name in parts)
    assert total.item() == (2.5 * parts["l_dcl_i"] + parts["l_mdcl"] + parts["l_dcl_c"]
                            + parts["l_pgc"])
    assert isinstance(v_mom, np.ndarray) and v_mom.shape == w_mom.shape == (8, cfg.embed_dim)


@pytest.mark.parametrize("use_concept_losses, where", [(True, "epoch 0, clustering"),
                                                       (False, "epoch 0, batch 0")])
def test_train_names_where_a_row_norm_overflows(use_concept_losses, where):
    data = pl.generate_synthetic(33, 1, 4, seed=5)
    for r in data:
        r.image_features = r.image_features * 1e200
    cfg = pl.TrainConfig(seed=0, epochs=1, batch_size=16, use_concept_losses=use_concept_losses)
    with pytest.raises(RuntimeError, match=f"{where}: l2_normalize_rows: a row norm overflows"):
        pl.train(cfg, data)


# ---------------------------------------------------------------------------
# the paper's qualitative claims on seeded synthetic data
# ---------------------------------------------------------------------------

# Set-up of the gate: 8 latent classes, 300x2 training and 150x2 held-out
# pairs, 8 epochs. Two deviations from the paper are not gated: DCL-I
# beats DCL on every seed, and so does the VSE++ triplet baseline.
GATE_CONFIG = dict(seed=0, bank_capacity=128, lr=2e-4, epochs=8)


@pytest.mark.parametrize("data_seed", [1, 2, 3])
def test_training_shows_the_papers_qualitative_claims(data_seed):
    world = pl.build_world(8, 0)
    train = pl.generate_synthetic(300, 2, 8, seed=data_seed, world=world)
    val = pl.generate_synthetic(150, 2, 8, seed=data_seed, split="val", world=world)
    untrained = pl.evaluate(pl.build_state(pl.TrainConfig(**GATE_CONFIG), train), val).rsum
    alone = {}
    for loss in ("dcl", "dcl_i", "triplet"):
        cfg = pl.TrainConfig(**GATE_CONFIG, instance_loss=loss, use_memory_loss=False,
                             use_concept_losses=False)
        alone[loss] = pl.evaluate(pl.train(cfg, train)[0], val).rsum
    full, _ = pl.train(pl.TrainConfig(**GATE_CONFIG), train)
    full_rsum = pl.evaluate(full, val).rsum
    # every instance loss improves on the untrained model
    assert min(alone.values()) > untrained, (untrained, alone)
    # the memory and concept branches do not hurt DCL
    assert full_rsum >= alone["dcl"], (full_rsum, alone["dcl"])
    # blending in the concept branch does not hurt retrieval
    assert full_rsum >= pl.evaluate(full, val, 1.0).rsum
