import dataclasses
import hashlib
import inspect
import io
import json
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossalign import knowledge as kn
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
from crossalign.representation import EncoderPair, FeatureAggregator, MemoryBank

from stacking import stack


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
    # the exact rational sum of the six recalls, rounded once
    rsum = float(Fraction(100 * int(text_hits.sum()), n_img)
                 + Fraction(100 * int(image_hits.sum()), n_cap))
    return pl.EvalResult(text[0], text[1], text[2], image[0], image[1], image[2], rsum)


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


def test_equal_hit_totals_give_the_same_rsum_bits():
    # with every score tied, caption j's image ranks at caption_image[j]; both layouts hit
    # 30 2/3 in total, but their six rounded recalls add up to floats one ulp apart
    results = [pl.recalls_from_similarity(np.zeros((150, 300)), (np.arange(300) * a + b) % 150)
               for a, b in ((10, 0), (15, 49))]
    six = [sum(dataclasses.astuple(r)[:6]) for r in results]
    assert six[0] != six[1]
    assert results[0].rsum == results[1].rsum == float(Fraction(92, 3))


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
        out = agg.aggregate_batch(*stack(batch))
        assert out._parents == params and _graph_nodes(out) == 6


def _sequences(lengths, rows) -> list[np.ndarray]:
    """Each sequence of ``lengths`` as its own view of ``rows``."""
    return np.split(rows, np.cumsum(lengths)[:-1])


def _reorder(data, order) -> pl.Dataset:
    """The records of ``data`` in ``order`` (which must keep its images in order of first appearance)."""
    captions = _sequences(data.caption_lengths, data.caption_rows)
    tokens = np.split(data.token_codes, np.cumsum(data.token_counts)[:-1])
    return dataclasses.replace(
        data, pair_ids=data.pair_ids[order], caption_image=data.caption_image[order],
        caption_lengths=data.caption_lengths[order],
        caption_rows=np.concatenate([captions[i] for i in order]),
        token_counts=data.token_counts[order], token_codes=np.concatenate([tokens[i] for i in order]))


def _batch(data, index):
    """The ``(lengths, rows)`` of the images and the captions of records ``index``, as ``train`` gathers them."""
    return (pl._gather(data.image_lengths, data.image_rows, data.caption_image[index]),
            pl._gather(data.caption_lengths, data.caption_rows, index))


def test_embed_for_retrieval_reuses_image_chunks_exactly():
    world = pl.build_world(4, 0)
    train = pl.generate_synthetic(40, 2, 4, seed=1, world=world)
    val = pl.generate_synthetic(150, 2, 4, seed=2, split="val", world=world)
    state = pl.build_state(pl.TrainConfig(seed=0, epochs=1), train)
    model = state.model

    _, caption_image, v, _, vc, _ = pl.embed_for_retrieval(state, val)

    img_seqs = _sequences(val.image_lengths, val.image_rows)
    basis = model.concept_basis()
    chunks = [img_seqs[i:i + 128] for i in range(0, len(img_seqs), 128)]
    assert len(chunks) == 2
    agg = model.vis_agg
    want_v = np.vstack([agg.aggregate_batch(*stack(c)).value for c in chunks])
    want_vc = np.vstack([
        model.concept_embed(agg.aggregate_batch(*stack(c)), basis, "w_visual").value
        for c in chunks])
    assert caption_image is val.caption_image
    assert np.array_equal(v, want_v)
    assert np.array_equal(vc, want_vc)


def test_embed_for_retrieval_hands_each_run_to_the_encoders_as_slices(monkeypatch):
    budget = 30
    monkeypatch.setattr(pl, "EMBED_ROWS", budget)
    world = pl.build_world(4, 0)
    state = pl.build_state(pl.TrainConfig(seed=0, epochs=1),
                           pl.generate_synthetic(20, 2, 4, seed=1, world=world))
    model = state.model
    val = pl.generate_synthetic(12, 3, 4, seed=2, split="val", world=world)
    lengths = val.caption_lengths.copy()
    lengths[7] = budget + 15
    captions = _sequences(val.caption_lengths, val.caption_rows)
    captions[7] = long_caption = rng_from_seed(3).standard_normal((budget + 15, 48))
    val = dataclasses.replace(val, caption_lengths=lengths, caption_rows=np.concatenate(captions))
    runs = []
    forward = FeatureAggregator.forward
    monkeypatch.setattr(FeatureAggregator, "forward", lambda agg, lengths, rows, params=None:
                        runs.append((agg, lengths, rows)) or forward(agg, lengths, rows, params))

    _, caption_image, v, w, vc, wc = pl.embed_for_retrieval(state, val)

    img_runs = [run for agg, *run in runs if agg is model.vis_agg]
    cap_runs = [run for agg, *run in runs if agg is model.txt_agg]
    concept_runs = [run for agg, *run in runs if agg is model.txt_concept_agg]
    assert len(img_runs) + len(cap_runs) + len(concept_runs) == len(runs)
    # the concept encoder reads the caption encoder's very slices
    assert all(a is c for run, concept in zip(cap_runs, concept_runs) for a, c in zip(run, concept))
    assert len(concept_runs) == len(cap_runs)
    for field, modality_runs in (("image", img_runs), ("caption", cap_runs)):
        all_lengths, all_rows = getattr(val, f"{field}_lengths"), getattr(val, f"{field}_rows")
        # each run is a pair of views of the dataset's arrays, tiling them in order
        assert all(lens.base is all_lengths.base and rows.base is all_rows.base
                   for lens, rows in modality_runs)
        assert np.array_equal(np.concatenate([lens for lens, _ in modality_runs]), all_lengths)
        assert _bits(np.concatenate([rows for _, rows in modality_runs])) == _bits(all_rows)
        sizes = [len(rows) for _, rows in modality_runs]
        assert all(n <= budget or len(lens) == 1 for n, (lens, _) in zip(sizes, modality_runs))
        # a run ends only where its next sequence would take it past the budget
        assert all(n + after[0][0] > budget for n, after in zip(sizes, modality_runs[1:]))
        assert len(modality_runs) >= 2 and sizes[-1] < budget
    assert any(len(lens) == 1 and _bits(rows) == _bits(long_caption) for lens, rows in cap_runs)

    basis = model.concept_basis()

    def per_run(agg, modality_runs, weight=None):
        parts = [agg.aggregate_batch(lens, np.array(rows)) for lens, rows in modality_runs]
        if weight is not None:
            parts = [model.concept_embed(part, basis, weight) for part in parts]
        return np.vstack([part.value for part in parts])

    assert np.array_equal(v, per_run(model.vis_agg, img_runs))
    assert np.array_equal(w, per_run(model.txt_agg, cap_runs))
    assert np.array_equal(vc, per_run(model.vis_agg, img_runs, "w_visual"))
    assert np.array_equal(wc, per_run(model.txt_concept_agg, cap_runs, "w_textual"))
    monkeypatch.setattr(FeatureAggregator, "forward", forward)
    assert np.array_equal(pl._instance_sums(state, val), v[caption_image] + w)


def test_instance_sums_equal_stacking_the_runs(monkeypatch):
    monkeypatch.setattr(pl, "EMBED_ROWS", 30)
    state = _tiny_state()
    model = state.model
    # one image's records need not be consecutive
    val = _reorder(pl.generate_synthetic(12, 3, 4, seed=2, split="val"), [0, 5, 2, 3, 4, 1, *range(6, 36)])
    assert val.caption_image[:6].tolist() == [0, 1, 0, 1, 1, 0]
    sides = []
    for agg, field in ((model.vis_agg, "image"), (model.txt_agg, "caption")):
        runs = list(pl._runs(getattr(val, f"{field}_lengths"), getattr(val, f"{field}_rows")))
        seqs = _sequences(getattr(val, f"{field}_lengths"), getattr(val, f"{field}_rows"))
        sides.append(np.vstack([agg.forward(*stack(seqs[lo:hi])) for lo, hi, _ in runs]))
        # the runs' bounds tile the sequences in order
        bounds = [(lo, hi) for lo, hi, _ in runs]
        assert [lo for lo, _ in bounds] == [0, *(hi for _, hi in bounds[:-1])] and bounds[-1][1] == len(seqs)
    assert len(runs) >= 3
    v, w = sides
    assert _bits(pl._instance_sums(state, val)) == _bits(v[val.caption_image] + w)


def _instance_sums_peak(state, val) -> int:
    tracemalloc.start()
    try:
        pl._instance_sums(state, val)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("budget, bound", [(256, 1.6), (pl.EMBED_ROWS, 2.5)],
                         ids=["small_runs", "default_runs"])
def test_instance_sums_hold_one_result(budget, bound, monkeypatch):
    monkeypatch.setattr(pl, "EMBED_ROWS", budget)
    state = _tiny_state()
    val = _eval_split(2000, 5)
    result_bytes = len(val) * pl.EMBED_DIM * 8
    # small runs: the result, the image side (a fifth of it) and the runs' temporaries; a
    # second [n_captions, f] array, as stacking the runs or v[caption_image] + w makes, passes 2x.
    # Default runs: a stacked copy of each run's rows, on top of its temporaries, passes 2.5x
    assert _instance_sums_peak(state, val) < bound * result_bytes


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


@pytest.mark.parametrize("beta", [-0.1, 1.5, float("nan")])
def test_evaluate_rejects_a_beta_outside_unit_interval(beta):
    with pytest.raises(ValueError, match=r"^beta must lie in \[0, 1\]$"):
        pl.evaluate(_tiny_state(), _eval_split(5, 2), beta)


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
        # [v | vc] and [w | wc]: a row of two EMBED_DIM halves per image and per caption
        factor_bytes.append((n_images + len(val)) * 2 * pl.EMBED_DIM * 8)
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


def _stream(*arrays) -> bytes:
    """The bytes of an array stream holding ``arrays`` in order; an object array is pickled."""
    out = io.BytesIO()
    for arr in arrays:
        np.save(out, arr, allow_pickle=arr.dtype == object)
    return out.getvalue()


def _read_stream(path) -> list[np.ndarray]:
    """Every array of the stream at ``path``, in order."""
    arrays = []
    with open(path, "rb") as fh:
        while fh.peek(1):
            arrays.append(np.load(fh, allow_pickle=False))
    return arrays


def test_synthetic_caption_features_project_their_token_latents_in_order():
    world = pl.build_world(4, 0)
    latent = {world.attr_token(c, s): world.attr_latents[c, s]
              for c in range(world.latent_classes) for s in range(world.attrs_per_class)}
    latent.update(zip(pl.DISTRACTOR_TOKENS, world.distractor_latents))
    data = pl.generate_synthetic(30, 3, 4, seed=2, world=world)
    captions = _sequences(data.caption_lengths, data.caption_rows)
    tokens = np.split(data.vocabulary[data.token_codes], np.cumsum(data.token_counts)[:-1])
    assert len(captions) == len(tokens) == 90
    for caption, words in zip(captions, tokens):
        assert _bits(caption) == _bits(np.stack([latent[t] for t in words]) @ world.proj_txt)
    # the tokens are shuffled: some caption does not end in its distractors
    assert any(words[-1].startswith("cls") for words in tokens)


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


FIELDS = [f.name for f in dataclasses.fields(pl.Dataset)]


def _assert_equal_datasets(got: pl.Dataset, want: pl.Dataset) -> None:
    for name in FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


def test_dataset_round_trip_is_bit_exact(tmp_path):
    data = pl.generate_synthetic(6, 3, 4, seed=2, split="train")
    extremes = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, -5e-324]
    image_rows, caption_rows = data.image_rows.copy(), data.caption_rows.copy()
    image_rows[0, :5] = extremes  # the first image's, which all three of its records show
    caption_rows[-1, :5] = extremes
    data = dataclasses.replace(data, image_rows=image_rows, caption_rows=caption_rows)
    path = tmp_path / "train.jsonl"
    pl.save_dataset(data, path)
    loaded = pl.load_dataset(path)
    assert len(loaded) == 18
    _assert_equal_datasets(loaded, data)
    assert np.signbit(loaded.image_rows[0, 0])
    assert not any(getattr(loaded, name).flags.writeable for name in FIELDS)


# the file generate_synthetic(40, 2, 8, seed=s, split="val", world=build_world(8, 0)) saves as
SYNTHETIC_FILE_SHA256 = {
    1: "84dd9cf85c669ba70d3f3731700fac4a433b53313b0c5949d33701d8a3e4f265",
    2: "bad685d08f8c5fb1448360289ff6986ea7f068155cac36f7bf00158b13013b33",
}


@pytest.mark.parametrize("seed", sorted(SYNTHETIC_FILE_SHA256))
def test_saved_synthetic_file_keeps_its_bytes(seed, tmp_path):
    # pins both the generator's draws and the stream's layout
    path = tmp_path / "val.jsonl"
    pl.save_dataset(pl.generate_synthetic(40, 2, 8, seed=seed, split="val", world=pl.build_world(8, 0)),
                    path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SYNTHETIC_FILE_SHA256[seed]


def _interleaved() -> pl.Dataset:
    """Two images' records alternating, then a third image, then the first image again."""
    data = pl.generate_synthetic(3, 3, 4, seed=5, split="val")
    return _reorder(data, [0, 3, 1, 4, 6, 2, 7])


def test_interleaved_records_round_trip_in_order(tmp_path):
    data = _interleaved()
    assert data.caption_image.tolist() == [0, 1, 0, 1, 2, 0, 2]
    path = tmp_path / "val.jsonl"
    pl.save_dataset(data, path)
    _assert_equal_datasets(pl.load_dataset(path), data)


def test_saved_file_holds_the_ten_arrays_in_field_order(tmp_path):
    data = _interleaved()
    path = tmp_path / "val.jsonl"
    pl.save_dataset(data, path)
    arrays = dict(zip(FIELDS, _read_stream(path), strict=True))
    assert FIELDS == ["pair_ids", "image_ids", "caption_image", "image_lengths", "image_rows",
                      "caption_lengths", "caption_rows", "vocabulary", "token_counts", "token_codes"]
    for name in FIELDS:
        assert arrays[name].dtype == getattr(data, name).dtype
        assert arrays[name].tobytes() == getattr(data, name).tobytes()


def _non_ascii() -> pl.Dataset:
    image = np.arange(6.0).reshape(2, 3) / 7
    return pl.Dataset(["ñ-1", "ñ-2", "ü-3"], ["画像", "写真"], np.array([0, 0, 1]), np.array([2, 1]),
                      np.vstack([image, np.ones((1, 3))]), np.array([1, 2, 1]),
                      np.vstack([np.full((1, 4), -0.5), np.linspace(0, 1, 8).reshape(2, 4),
                                 np.ones((1, 4))]),
                      ["naïve", "café", "日本", "straße"], np.array([3, 3, 2]),
                      np.array([0, 1, 2, 2, 1, 0, 2, 3]))


def test_dataset_round_trip_keeps_non_ascii_ids_and_tokens(tmp_path):
    data = _non_ascii()
    path = tmp_path / "dev.jsonl"
    pl.save_dataset(data, path)
    loaded = pl.load_dataset(path)
    _assert_equal_datasets(loaded, data)
    tokens = loaded.vocabulary[loaded.token_codes].tolist()
    assert (loaded.pair_ids.tolist(), loaded.image_ids.tolist(), tokens[:3], tokens[6:]) == \
        (["ñ-1", "ñ-2", "ü-3"], ["画像", "写真"], ["naïve", "café", "日本"], ["日本", "straße"])
    # pinned: a change to the stream's layout or the str arrays' encoding shows here
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "8796b38d5b2fac87e77281283c2c98153f790e0084b7d0f4265368ad46f75b6e"


@pytest.mark.parametrize("save", [lambda path: pl.save_dataset(_non_ascii(), path),
                                  lambda path: pl.save_checkpoint(path, _tiny_state(), which="final")],
                         ids=["dataset", "checkpoint"])
def test_a_failed_save_removes_its_file(save, tmp_path, monkeypatch):
    path = tmp_path / "saved.npy"
    saved, np_save = [], np.save

    def failing_save(fh, arr, **kwargs):
        # the third array: a checkpoint's first parameter, a dataset's caption_image
        if len(saved) == 2:
            raise OSError("No space left on device")
        saved.append(arr)
        np_save(fh, arr, **kwargs)

    monkeypatch.setattr(np, "save", failing_save)
    with pytest.raises(OSError, match="^No space left on device$"):
        save(path)
    assert len(saved) == 2 and not path.exists()


def _arrays(**changes) -> dict:
    """The arguments of ``_non_ascii()``'s dataset by field, with ``changes``."""
    data = _non_ascii()
    return {name: getattr(data, name) for name in FIELDS} | changes


def test_dataset_rejects_a_duplicate_pair_id():
    with pytest.raises(ValueError, match="^record 'ñ-1': duplicate pair_id$"):
        pl.Dataset(**_arrays(pair_ids=["ñ-1", "ñ-2", "ñ-1"]))


@pytest.mark.parametrize("field, value", [("pair_ids", ["a\0", "b", "c"]),
                                          ("vocabulary", ["red", 3, "car", "sky"]),
                                          ("pair_ids", [7, "b", "c"])],
                         ids=["trailing_nul", "int_token", "int_pair_id"])
def test_dataset_rejects_a_string_a_str_array_would_change(field, value):
    with pytest.raises(ValueError, match="^every id and token must be a str that does not end in NUL$"):
        pl.Dataset(**_arrays(**{field: value}))


@pytest.mark.parametrize("field, value, match", [
    ("pair_ids", ["p", "", "q"], r"^dataset array 'pair_ids': entry 1 is empty$"),
    ("image_ids", ["", "img"], r"^dataset array 'image_ids': entry 0 is empty$"),
], ids=["empty_pair_id", "empty_image_id"])
def test_dataset_rejects_an_empty_id(field, value, match):
    with pytest.raises(ValueError, match=match):
        pl.Dataset(**_arrays(**{field: value}))


@pytest.mark.parametrize("changes, match", [
    (dict(image_rows=np.ones(6)), r"^dataset array 'image_rows' must be a C-ordered <f8 array of 3 "
                                  r"rows, as 'image_lengths' sum to, and d >= 1 columns, got float64 "
                                  r"of shape \(6,\)$"),
    (dict(caption_rows=np.ones((5, 4))), r"^dataset array 'caption_rows' must be .* of 4 rows, .* got "
                                         r"float64 of shape \(5, 4\)$"),
    (dict(caption_rows=np.ones((4, 0))), r"^dataset array 'caption_rows' must be .* got float64 of "
                                         r"shape \(4, 0\)$"),
    (dict(image_rows=np.asfortranarray(np.ones((3, 3)))), r"^dataset array 'image_rows' must be a "
                                                          r"C-ordered"),
    (dict(image_lengths=np.array([3, 0])), r"^image '写真': image_features has no rows$"),
    (dict(caption_lengths=np.array([0, 2, 2])), r"^record 'ñ-1': caption_features has no rows$"),
    (dict(caption_image=np.array([0.0, 0.0, 1.0])), r"^dataset array 'caption_image' must be 1-D of "
                                                    r"dtype kind 'iu' and length 3, got float64"),
    (dict(token_codes=np.array([0, 1, 2, 2, 1, 0, 2, 4])), r"^record 'ü-3': token code 4 outside "
                                                           r"\[0, 3\]$"),
], ids=["one_d", "other_row_count", "zero_width", "fortran_rows", "no_image_rows", "no_caption_rows",
        "float_caption_image", "token_code_high"])
def test_dataset_rejects_arrays_of_another_shape_or_range(changes, match):
    with pytest.raises(ValueError, match=match):
        pl.Dataset(**_arrays(**changes))


def test_dataset_rejects_an_empty_dataset():
    empty = dict(pair_ids=[], image_ids=[], caption_image=np.zeros(0, int),
                 image_lengths=np.zeros(0, int), image_rows=np.zeros((0, 3)),
                 caption_lengths=np.zeros(0, int), caption_rows=np.zeros((0, 4)), vocabulary=[],
                 token_counts=np.zeros(0, int), token_codes=np.zeros(0, int))
    with pytest.raises(ValueError, match="^dataset has no records$"):
        pl.Dataset(**empty)


@pytest.mark.parametrize("field, value", [("image", np.inf), ("caption", np.nan)])
def test_dataset_rejects_a_non_finite_feature(field, value):
    data = pl.generate_synthetic(3, 1, 4, seed=1)
    rows = getattr(data, f"{field}_rows").copy()
    # the last row of the second sequence
    rows[getattr(data, f"{field}_lengths")[:2].sum() - 1, 2] = value
    # an image is named by its image_id, a caption by its record's pair_id
    owner = f"image '{data.image_ids[1]}'" if field == "image" else f"record '{data.pair_ids[1]}'"
    with pytest.raises(ValueError, match=rf"^{owner}: {field}_features contains non-finite values$"):
        dataclasses.replace(data, **{f"{field}_rows": rows})


@pytest.mark.parametrize("budget", [7, 30, 4096])
def test_dataset_names_a_non_finite_sequence_in_any_run(budget, monkeypatch):
    # finiteness is checked one EMBED_ROWS run at a time
    monkeypatch.setattr(pl, "EMBED_ROWS", budget)
    data = pl.generate_synthetic(20, 3, 4, seed=2)
    ends = np.cumsum(data.caption_lengths)
    for i in (0, 17, 41, 59):
        rows = data.caption_rows.copy()
        rows[ends[i] - 1, -1] = np.nan
        with pytest.raises(ValueError, match=rf"^record '{data.pair_ids[i]}': caption_features "
                                             rf"contains non-finite values$"):
            dataclasses.replace(data, caption_rows=rows)


def test_dataset_holds_its_ints_as_int64():
    data = pl.generate_synthetic(20, 2, 4, seed=1)
    narrow = dataclasses.replace(data, image_lengths=data.image_lengths.astype(np.uint32),
                                 caption_lengths=data.caption_lengths.astype(np.uint64),
                                 caption_image=data.caption_image.astype(np.int32))
    assert all(getattr(narrow, name).dtype == np.int64 for name in FIELDS
               if getattr(data, name).dtype.kind == "i")
    # the encoders offset rows by the lengths, which unsigned ints would turn into floats
    state = _tiny_state()
    assert pl.evaluate(state, narrow) == pl.evaluate(state, data)


def test_dataset_arrays_are_read_only_views_of_the_arrays_given():
    rows = np.ones((3, 3))
    data = pl.Dataset(**_arrays(image_rows=rows))
    assert data.image_rows.base is rows and rows.flags.writeable
    assert not any(getattr(data, name).flags.writeable for name in FIELDS)
    with pytest.raises(dataclasses.FrozenInstanceError):
        data.image_rows = rows


@pytest.mark.parametrize("max_seq_len", [0, -1, 2.5, True])
def test_load_dataset_rejects_a_max_seq_len_that_is_no_positive_int(max_seq_len, tmp_path):
    path = tmp_path / "dev.jsonl"
    path.write_bytes(_file())
    with pytest.raises(ValueError, match=rf"^max_seq_len must be a positive int, got {max_seq_len}$"):
        pl.load_dataset(path, max_seq_len=max_seq_len)


def _dataset(**changes) -> dict[str, np.ndarray]:
    """The arrays of a valid file, in file order, with ``changes``; a None change drops an array.

    Records a, b and c; a and b show image "img", c shows "other".
    """
    arrays = {"pair_ids": np.array(["a", "b", "c"]), "image_ids": np.array(["img", "other"]),
              "caption_image": np.array([0, 0, 1]), "image_lengths": np.array([2, 1]),
              "image_rows": np.ones((3, 3)), "caption_lengths": np.array([1, 2, 1]),
              "caption_rows": np.ones((4, 4)), "vocabulary": np.array(["red", "car"]),
              "token_counts": np.array([2, 1, 0]), "token_codes": np.array([0, 1, 1])}
    arrays.update(changes)
    return {name: arr for name, arr in arrays.items() if arr is not None}


def _file(**changes) -> bytes:
    return _stream(*_dataset(**changes).values())


def _header_only(descr: str, shape: tuple) -> bytes:
    """The .npy header of a ``descr`` array of ``shape``, and none of its bytes."""
    out = io.BytesIO()
    np.lib.format.write_array_header_1_0(out, {"descr": descr, "fortran_order": False,
                                               "shape": shape})
    return out.getvalue()


def _npy_version_2(arr: np.ndarray) -> bytes:
    out = io.BytesIO()
    np.lib.format.write_array(out, arr, version=(2, 0))
    return out.getvalue()


def _rows(shape, bad_row=None, value=np.nan):
    rows = np.ones(shape)
    if bad_row is not None:
        rows[bad_row, -1] = value
    return rows


def _npz(**arrays) -> bytes:
    out = io.BytesIO()
    np.savez(out, **arrays)
    return out.getvalue()


# with its last three arrays dropped, the file ends in caption_rows
_TO_CAPTION_ROWS = dict(vocabulary=None, token_counts=None, token_codes=None)

# name: (the changes to _dataset()'s arrays, expected message); the Dataset of those arrays refuses
# them, but for too_long, whose length only load_dataset's max_seq_len bounds
BAD_ARRAYS = {
    "float_pair_ids": (dict(pair_ids=np.arange(3.0)),
                       r"^dataset array 'pair_ids' must be 1-D of dtype kind 'U' and length any, "
                       r"got float64 of shape \(3,\)$"),
    "bytes_vocabulary": (dict(vocabulary=np.array([b"red", b"car"])),
                         r"^dataset array 'vocabulary' must be 1-D of dtype kind 'U' .* got \|S3"),
    "float_caption_image": (dict(caption_image=np.array([0.0, 0.0, 1.0])),
                            r"^dataset array 'caption_image' must be 1-D of dtype kind 'iu' and "
                            r"length 3, got float64"),
    "two_d_lengths": (dict(image_lengths=np.array([[2, 1]])),
                      r"^dataset array 'image_lengths' must be 1-D .* of shape \(1, 2\)$"),
    "float32_rows": (dict(caption_rows=np.ones((4, 4), dtype=np.float32)),
                     r"^dataset array 'caption_rows' must be a C-ordered <f8 array of 4 rows, as "
                     r"'caption_lengths' sum to, and d >= 1 columns, got float32 of shape \(4, 4\)$"),
    "big_endian_rows": (dict(image_rows=np.ones((3, 3), dtype=">f8")),
                        r"^dataset array 'image_rows' must be .* got >f8 of shape \(3, 3\)$"),
    "fortran_rows": (dict(image_rows=np.asfortranarray(np.ones((3, 3)))),
                     r"^dataset array 'image_rows' must be a C-ordered"),
    "one_d_rows": (dict(image_rows=np.ones(3)),
                   r"^dataset array 'image_rows' must be .* got float64 of shape \(3,\)$"),
    "zero_width_rows": (dict(caption_rows=np.ones((4, 0))),
                        r"^dataset array 'caption_rows' must be .* of shape \(4, 0\)$"),
    "zero_length": (dict(caption_lengths=np.array([1, 0, 3])),
                    r"^record 'b': caption_features has no rows$"),
    "negative_length": (dict(image_lengths=np.array([4, -1])),
                        r"^image 'other': image_features has no rows$"),
    "too_long": (dict(image_lengths=np.array([65, 1]), image_rows=np.ones((66, 3))),
                 r"^image 'img': image_features length 65 outside \[1, 64\]$"),
    "lengths_short": (dict(caption_lengths=np.array([1, 1, 1])),
                      r"^dataset array 'caption_rows' must be a C-ordered <f8 array of 3 rows, .* "
                      r"got float64 of shape \(4, 4\)$"),
    "lengths_long": (dict(image_lengths=np.array([2, 2])),
                     r"^dataset array 'image_rows' must be a C-ordered <f8 array of 4 rows, .* "
                     r"got float64 of shape \(3, 3\)$"),
    "lengths_size": (dict(caption_lengths=np.array([2, 2])),
                     r"^dataset array 'caption_lengths' must be 1-D of dtype kind 'iu' and length 3, "
                     r"got int64 of shape \(2,\)$"),
    "non_finite_caption": (dict(caption_rows=_rows((4, 4), 2)),
                           r"^record 'b': caption_features contains non-finite values$"),
    "infinite_caption": (dict(caption_rows=_rows((4, 4), 3, -np.inf)),
                         r"^record 'c': caption_features contains non-finite values$"),
    "non_finite_image": (dict(image_rows=_rows((3, 3), 2, np.inf)),
                         r"^image 'other': image_features contains non-finite values$"),
    "caption_image_high": (dict(caption_image=np.array([0, 0, 2])),
                           r"^record 'c': caption_image 2 outside \[0, 1\]$"),
    "caption_image_negative": (dict(caption_image=np.array([0, -1, 1])),
                               r"^record 'b': caption_image -1 outside \[0, 1\]$"),
    "image_named_by_no_record": (dict(caption_image=np.array([0, 0, 0])),
                                 r"^image 'other': no record names it$"),
    "images_out_of_order": (dict(caption_image=np.array([1, 1, 0])),
                            r"^image 'img': no record names it before record 'a', which names a "
                            r"later image$"),
    "caption_image_size": (dict(caption_image=np.array([0, 1])),
                           r"^dataset array 'caption_image' must be .* length 3, got int64 of shape "
                           r"\(2,\)$"),
    "token_code_high": (dict(token_codes=np.array([0, 1, 2])),
                        r"^record 'b': token code 2 outside \[0, 1\]$"),
    "token_code_negative": (dict(token_codes=np.array([-1, 1, 1])),
                            r"^record 'a': token code -1 outside \[0, 1\]$"),
    "token_counts_sum": (dict(token_counts=np.array([2, 1, 1])),
                         r"^dataset array 'token_counts' must be non-negative and sum to the 3 "
                         r"entries of 'token_codes'$"),
    "token_count_negative": (dict(token_counts=np.array([3, 1, -1])),
                             r"^dataset array 'token_counts' must be non-negative"),
    # these counts sum to 2**64 + 3, which wraps to the 3 codes
    "token_count_wraps": (dict(token_counts=np.array([2**62, 2**62, 2**63 + 3], dtype=np.uint64)),
                          r"^dataset array 'token_counts' must be non-negative"),
    "duplicate_pair_id": (dict(pair_ids=np.array(["a", "b", "a"])),
                          r"^record 'a': duplicate pair_id$"),
    "empty_pair_id": (dict(pair_ids=np.array(["a", "", "c"])),
                      r"^dataset array 'pair_ids': entry 1 is empty$"),
    "duplicate_image_id": (dict(image_ids=np.array(["img", "img"])),
                           r"^image 'img': duplicate image_id$"),
    "empty_image_id": (dict(image_ids=np.array(["", "other"])),
                       r"^dataset array 'image_ids': entry 0 is empty$"),
    "no_records": (dict(pair_ids=np.array([], dtype=str)), r"^dataset has no records$"),
}

# name: (the file's bytes, expected message); the reader refuses these before any Dataset is built
BAD_STREAMS = {
    "empty_file": (lambda: b"", r"^dataset array 'pair_ids': EOF: reading magic string, expected 8 "
                                r"bytes got 0$"),
    "jsonl_file": (lambda: b'{"pair_id": "a"}\n', r"^dataset array 'pair_ids': the magic string is "
                                                    r"not correct"),
    "npz_file": (lambda: _npz(**_dataset()), r"^dataset array 'pair_ids': the magic string is not "
                                             r"correct; expected b'\\x93NUMPY', got b'PK"),
    "truncated": (lambda: _file()[:-8], r"^dataset array 'token_codes': the file ends inside it$"),
    # a header alone that claims 10**12 ids (18.2 TiB) is refused before anything is allocated
    "huge_header": (lambda: _header_only("<U5", (10**12,)),
                    r"^dataset array 'pair_ids': the file ends inside it$"),
    # a length of -1 would read the rest of the file as ids
    "negative_shape": (lambda: _header_only("<U5", (-1,)) + _file(),
                       r"^dataset array 'pair_ids': shape \(-1,\) has a negative dimension$"),
    # 4 rows as the lengths sum to, of 10**12 columns each (29.1 TiB)
    "huge_rows_header": (lambda: _file(caption_rows=None, **_TO_CAPTION_ROWS)
                         + _header_only("<f8", (4, 10**12)),
                         r"^dataset array 'caption_rows': the file ends inside it$"),
    "npy_version_2": (lambda: _npy_version_2(np.array(["a", "b", "c"])),
                      r"^dataset array 'pair_ids': only \.npy format version 1\.0 is read$"),
    "truncated_rows": (lambda: _file(**_TO_CAPTION_ROWS)[:-8],
                       r"^dataset array 'caption_rows': the file ends inside it$"),
    "missing_array": (lambda: _file(token_codes=None),
                      r"^dataset array 'token_codes': EOF: reading magic string"),
    "trailing_bytes": (lambda: _file() + b"\0", r"^dataset .*: bytes follow the last array$"),
    "object_pair_ids": (lambda: _file(pair_ids=np.array(["a", "b", "c"], dtype=object)),
                        r"^dataset array 'pair_ids': Object arrays cannot be loaded when "
                        r"allow_pickle=False$"),
    "object_rows": (lambda: _file(caption_rows=np.ones((4, 4)).astype(object)),
                    r"^dataset array 'caption_rows': Object arrays cannot be loaded when "
                    r"allow_pickle=False$"),
}

BAD_DATASETS = {name: (lambda c=changes: _file(**c), match)
                for name, (changes, match) in BAD_ARRAYS.items()} | BAD_STREAMS


@pytest.mark.parametrize("case", sorted(BAD_DATASETS))
def test_load_dataset_rejects_bad_arrays(case, tmp_path):
    make, match = BAD_DATASETS[case]
    path = tmp_path / "bad.jsonl"
    path.write_bytes(make())
    with pytest.raises(ValueError, match=match):
        pl.load_dataset(path)


@pytest.mark.parametrize("case", sorted(BAD_ARRAYS.keys() - {"too_long"}))
def test_dataset_refuses_a_bad_array_as_load_dataset_does(case, tmp_path):
    changes, _ = BAD_ARRAYS[case]
    path = tmp_path / "bad.npy"
    path.write_bytes(_file(**changes))
    with pytest.raises(ValueError) as loaded:
        pl.load_dataset(path)
    with pytest.raises(ValueError) as built:
        pl.Dataset(**_dataset(**changes))
    assert str(built.value) == str(loaded.value)


def test_load_dataset_reads_the_hand_written_file_and_takes_max_seq_len(tmp_path):
    path = tmp_path / "dev.jsonl"
    path.write_bytes(_file())
    loaded = pl.load_dataset(path, max_seq_len=2)
    want = _dataset()
    assert all(np.array_equal(getattr(loaded, name), want[name]) for name in FIELDS)
    with pytest.raises(ValueError, match=r"^image 'img': image_features length 2 outside \[1, 1\]$"):
        pl.load_dataset(path, max_seq_len=1)


def test_dataset_file_sits_at_the_given_path(tmp_path):
    data = pl.generate_synthetic(3, 2, 4, seed=1)
    for name in ("train.jsonl", "train", "train.npy"):
        pl.save_dataset(data, tmp_path / name)
        assert np.array_equal(pl.load_dataset(tmp_path / name).pair_ids, data.pair_ids)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["train", "train.jsonl", "train.npy"]


def _traced_peak(call) -> tuple[int, int, object]:
    """The traced memory still held after ``call()``, its traced peak, and its result."""
    tracemalloc.start()
    try:
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return held, peak, result


def test_dataset_io_streams_the_row_arrays(tmp_path):
    data = pl.generate_synthetic(200, 5, 4, seed=1)
    path = tmp_path / "val.jsonl"
    _, save_peak, _ = _traced_peak(lambda: pl.save_dataset(data, path))
    # a copy of the caption rows alone would reach their bytes
    assert save_peak < data.caption_rows.nbytes / 2
    held, load_peak, loaded = _traced_peak(lambda: pl.load_dataset(path))
    assert len(loaded) == 1000
    # the arrays themselves, and the finiteness check's temporaries of one run
    assert load_peak < held + pl.EMBED_ROWS * 48 * 8


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


def _edit_checkpoint(path, edit):
    """Rewrite the checkpoint at ``path`` as ``edit(header, arrays)`` leaves its JSON header and
    the arrays that follow it (``concept_inputs``, then params and momentum by name)."""
    head, *rest = _read_stream(path)
    header = json.loads(head.item())
    names = ["concept_inputs", *(f"params {n}" for n in header["params"]),
             *(f"momentum {n}" for n in header["momentum"])]
    arrays = dict(zip(names, rest, strict=True))
    edit(header, arrays)
    path.write_bytes(_stream(np.array(json.dumps(header)), *arrays.values()))


def _name_twice(kind):
    """An edit that lists the first array of section ``kind`` again and stores its array again."""
    def edit(header, arrays):
        name = header[kind][0]
        header[kind].append(name)
        # the sections follow one another, momentum last
        after = [key for key in arrays if kind == "params" and key.startswith("momentum ")]
        arrays[f"{kind} {name} again"] = arrays[f"{kind} {name}"]
        arrays.update({key: arrays.pop(key) for key in after})
    return edit


@pytest.mark.parametrize("edit, match", [
    (lambda h, a: h.pop("version"), "checkpoint section 'version': missing from the file"),
    (lambda h, a: h.update(version=1), "unsupported checkpoint version 1"),
    (lambda h, a: h.update(version=4), "unsupported checkpoint version 4"),
    (lambda h, a: h.update(version=5.0), "checkpoint section 'version' must be of type int, got float"),
    (lambda h, a: h.update(version=6), "unsupported checkpoint version 6"),
    (lambda h, a: h.update(params={}), "checkpoint section 'params' must be of type list, got dict"),
    (lambda h, a: h.update(momentum=["vis.proj", [1]]),
     re.escape("checkpoint section 'momentum' must list array names, got ['vis.proj', [1]]")),
    (lambda h, a: h.update(epoch="1"), "checkpoint section 'epoch' must be of type int, got str"),
    (lambda h, a: h.update(epoch=-1), "checkpoint section 'epoch' must be at least 0, got -1"),
    (lambda h, a: h.update(epoch=-5), "checkpoint section 'epoch' must be at least 0, got -5"),
    (lambda h, a: h["config"].pop("mu"), "checkpoint config 'mu': missing from the file"),
    (lambda h, a: h["config"].update(zeta=1, alpha=2), "checkpoint config 'alpha': not a config field"),
    (lambda h, a: h["config"].update(zeta=1) or h["config"].pop("mu"),
     "checkpoint config 'mu': missing from the file"),
    # the config of a version-5 file written while TrainConfig had 25 fields
    (lambda h, a: h["config"].update(
        embed_dim=32, d_p=32, decoder_hidden=16, momentum=0.995, eps_div=0.1, concept_smoothness=10.0,
        eps_t=0.3, lr_drop_epoch=None, lr_drop_factor=0.1, triplet_margin=0.2),
     "checkpoint config 'concept_smoothness': not a config field"),
    (_name_twice("params"), "checkpoint params 'vis.proj': listed twice"),
    (_name_twice("momentum"), "checkpoint momentum 'vis.proj': listed twice"),
], ids=["no_version", "version_1", "version_4", "version_float", "version_6", "params_dict",
        "momentum_not_names", "epoch_string", "epoch_minus_one", "epoch_minus_five",
        "config_field_missing", "config_field_unknown", "config_fields_odd",
        "config_of_25_fields", "params_name_twice", "momentum_name_twice"])
def test_load_checkpoint_names_a_bad_header(edit, match, tmp_path):
    path = tmp_path / "ckpt.json"
    pl.save_checkpoint(path, _tiny_state(), which="final")
    _edit_checkpoint(path, edit)
    with pytest.raises(ValueError, match=f"^{match}$"):
        pl.load_checkpoint(path)


@pytest.mark.parametrize("head, match", [
    (lambda: np.array(json.dumps([1])),
     r"checkpoint header must be a 0-d str array of a JSON object, got list from <U3 of shape \(\)"),
    (lambda: np.array("{"), "checkpoint header: Expecting property name enclosed in double quotes"),
    # deeper than the JSON decoder recurses
    (lambda: np.array("[" * 100_000), "checkpoint header: maximum recursion depth exceeded"),
    (lambda: np.array([json.dumps({"version": 5})]),
     r"checkpoint header must be .* got NoneType from <U\d+ of shape \(1,\)"),
    (lambda: np.array(5), r"checkpoint header must be .* got NoneType from int64 of shape \(\)"),
    (lambda: np.array(json.dumps({"version": 5}), dtype=object),
     "checkpoint header: Object arrays cannot be loaded when allow_pickle=False"),
    # a header alone that claims 10**12 floats (7.28 TiB) is refused before anything is allocated
    (lambda: _header_only("<f8", (10**12,)), "checkpoint header: the file ends inside it$"),
    (lambda: _header_only("<f8", (-1,)) + bytes(64),
     r"checkpoint header: shape \(-1,\) has a negative dimension$"),
    (lambda: _header_only("<f8", (-2, -3)) + bytes(48),
     r"checkpoint header: shape \(-2, -3\) has a negative dimension$"),
    (lambda: _npy_version_2(np.array(json.dumps({"version": 5}))),
     r"checkpoint header: only \.npy format version 1\.0 is read$"),
], ids=["list", "not_json", "nested_too_deep", "one_d", "int", "object", "huge", "negative_length", "negative_dims",
        "npy_version_2"])
def test_load_checkpoint_names_a_bad_header_array(head, match, tmp_path):
    path = tmp_path / "ckpt.json"
    head = head()
    path.write_bytes(head if isinstance(head, bytes) else _stream(head))
    with pytest.raises(ValueError, match=f"^{match}"):
        pl.load_checkpoint(path)


@pytest.mark.parametrize("text", [
    '{"version": 4, "epoch": 0, "config": {}, "dims": {}, "params": {}, "momentum": {}}', "", "[]",
], ids=["version_4_json", "empty", "json_list"])
def test_load_checkpoint_rejects_a_file_that_is_no_array_stream(text, tmp_path):
    path = tmp_path / "ckpt.json"
    path.write_text(text)
    with pytest.raises(ValueError, match="^unsupported checkpoint version: the file is no stream of "
                                         r"\.npy arrays$"):
        pl.load_checkpoint(path)


@pytest.mark.parametrize("name, value, kind", [
    ("use_concept_losses", "no", "bool"),
    ("epochs", 2.5, "int"),
    ("seed", True, "int"),
    ("mu", "0.1", "float"),
    ("mu", False, "float"),
    ("diversity_estimator", 1, "str"),
    ("batch_size", 32.0, "int"),
    ("epochs", True, "int"),
    ("lambda_weight", "3", "float"),
    ("k_clusters", 16.0, "int"),
    ("bank_capacity", "512", "int"),
    ("use_concept_losses", 1, "bool"),
    ("instance_loss", None, "str"),
])
@pytest.mark.parametrize("via", ["construct", "load_checkpoint"])
def test_config_names_a_mistyped_field(via, name, value, kind, tmp_path):
    match = rf"invalid config: {name} must be {re.escape(kind)}, got {type(value).__name__}"
    if via == "construct":
        with pytest.raises(ValueError, match=match):
            pl.TrainConfig(**{name: value})
        return
    path = tmp_path / "ckpt.json"
    pl.save_checkpoint(path, _tiny_state(), which="final")
    _edit_checkpoint(path, lambda header, arrays: header["config"].update({name: value}))
    with pytest.raises(ValueError, match=match):
        pl.load_checkpoint(path)


FLOAT_FIELDS = [f.name for f in dataclasses.fields(pl.TrainConfig) if f.type == "float"]


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, -10 ** 400],
                         ids=["inf", "-inf", "nan", "huge_int"])
@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_config_names_a_non_finite_float_field(name, value):
    with pytest.raises(ValueError, match=rf"invalid config: {name} must be finite, got {value!r}"):
        pl.TrainConfig(**{name: value})


def test_load_checkpoint_rejects_a_json_infinity_in_the_config(tmp_path):
    path = tmp_path / "ckpt.json"
    pl.save_checkpoint(path, _tiny_state(), which="final")
    _edit_checkpoint(path, lambda header, arrays: header["config"].update(lr=math.inf))
    assert '"lr": Infinity' in _read_stream(path)[0].item()
    with pytest.raises(ValueError, match="invalid config: lr must be finite, got inf"):
        pl.load_checkpoint(path)


def test_config_holds_the_knobs_that_runs_and_ablations_turn():
    assert [f.name for f in dataclasses.fields(pl.TrainConfig)] == [
        "mu", "gamma", "lambda_weight", "beta", "bank_capacity", "k_clusters", "concepts",
        "batch_size", "epochs", "lr", "seed", "diversity_estimator", "instance_loss",
        "use_concept_losses"]


# the fields the 25-field config had that are now fixed values, each with the value it held
FIXED_VALUES = {
    "embed_dim": (lambda: pl.EMBED_DIM, 32),
    "d_p": (lambda: _default(FeatureAggregator, "d_p"), 32),
    "decoder_hidden": (lambda: _default(FeatureAggregator, "hidden"), 16),
    "momentum": (lambda: _default(EncoderPair.momentum_update, "m"), 0.995),
    "eps_div": (lambda: obj.DIVERSITY_EPS, 0.1),
    "concept_smoothness": (lambda: _default(kn.concept_query, "smoothness"), 10.0),
    "eps_t": (lambda: _default(kn.binarize, "eps_t"), 0.3),
    "triplet_margin": (lambda: _default(obj.triplet_baseline_loss, "margin"), 0.2),
}


def _default(fn, name):
    return inspect.signature(fn).parameters[name].default


@pytest.mark.parametrize("name", FIXED_VALUES)
def test_a_removed_config_field_keeps_its_value_where_it_is_read(name):
    read, value = FIXED_VALUES[name]
    assert read() == value


@pytest.mark.parametrize("fn", [obj.diversity_std, obj.diversity_entropy, obj._estimate,
                                obj.m_dcl_loss], ids=lambda fn: fn.__name__)
def test_every_diversity_estimate_defaults_to_the_one_eps(fn):
    assert _default(fn, "eps") == obj.DIVERSITY_EPS


# the ten fields the config held before it kept only the knobs that something turns, and
# use_memory_loss, whose off setting is now bank_capacity=0
REMOVED_FIELDS = [*FIXED_VALUES, "lr_drop_epoch", "lr_drop_factor", "use_memory_loss"]


@pytest.mark.parametrize("name", REMOVED_FIELDS)
@pytest.mark.parametrize("via", ["construct", "load_checkpoint"])
def test_config_refuses_a_removed_field(via, name, tmp_path):
    if via == "construct":
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
            pl.TrainConfig(**{name: 1})
        return
    # a checkpoint written while the field existed is refused by its name
    path = tmp_path / "ckpt.json"
    pl.save_checkpoint(path, _tiny_state(), which="final")
    _edit_checkpoint(path, lambda header, arrays: header["config"].update({name: 1}))
    with pytest.raises(ValueError, match=f"^checkpoint config '{name}': not a config field$"):
        pl.load_checkpoint(path)


def test_config_takes_an_int_for_a_float_field():
    cfg = pl.TrainConfig(mu=1, lr=1)
    assert (cfg.mu, cfg.lr) == (1.0, 1.0)


# one out-of-range value per check of TrainConfig construction, with its message
RANGE_CASES = [
    ("mu", 0.0, "mu must be positive"),
    ("gamma", -0.1, "gamma must be non-negative"),
    ("lambda_weight", -1.0, "lambda_weight must be non-negative"),
    ("beta", 1.5, "beta must lie in [0, 1]"),
    ("bank_capacity", -1, "bank_capacity must be non-negative"),
    ("k_clusters", 0, "k_clusters must be positive"),
    ("concepts", 0, "concepts must be positive"),
    ("batch_size", 1, "batch_size must be at least 2"),
    ("epochs", -1, "epochs must be non-negative"),
    ("lr", 0.0, "lr must be positive"),
    ("seed", -1, "seed must be non-negative"),
    ("diversity_estimator", "median", "diversity_estimator must be 'std' or 'entropy'"),
    ("instance_loss", "hinge", "instance_loss must be 'dcl', 'dcl_i', or 'triplet'"),
]


@pytest.mark.parametrize("name, value, message", RANGE_CASES, ids=[c[0] for c in RANGE_CASES])
def test_config_names_an_out_of_range_field(name, value, message):
    with pytest.raises(ValueError, match=f"^invalid config: {re.escape(message)}$"):
        pl.TrainConfig(**{name: value})


@pytest.mark.parametrize("name, value, message", RANGE_CASES, ids=[c[0] for c in RANGE_CASES])
def test_load_checkpoint_names_an_out_of_range_config_field(name, value, message, tmp_path):
    path = tmp_path / "ckpt.json"
    pl.save_checkpoint(path, _tiny_state(), which="final")
    _edit_checkpoint(path, lambda header, arrays: header["config"].update({name: value}))
    with pytest.raises(ValueError, match=f"^invalid config: {re.escape(message)}$"):
        pl.load_checkpoint(path)


@pytest.mark.parametrize("call, message", [
    (lambda tmp: pl.save_checkpoint(tmp / "ckpt.json", _tiny_state(), which="x"),
     "which must be 'best' or 'final'"),
], ids=["unknown_checkpoint_kind"])
def test_pipeline_names_a_bad_argument(call, message, tmp_path):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(tmp_path)


@pytest.mark.parametrize("section", ["epoch", "config", "dims", "params", "momentum"])
def test_load_checkpoint_names_a_missing_section(section, tmp_path):
    path = tmp_path / "ckpt.json"
    pl.save_checkpoint(path, _tiny_state(), which="final")
    _edit_checkpoint(path, lambda header, arrays: header.pop(section))
    with pytest.raises(ValueError, match=f"^checkpoint section '{section}': missing from the file$"):
        pl.load_checkpoint(path)


@pytest.mark.parametrize("section, name, edit, match", [
    ("momentum", "txt.dec_b2", lambda h, a: a.popitem(), "EOF: reading magic string"),
    ("params", "extra.classifier", lambda h, a: a.update({"params extra.classifier": np.zeros(
        (16, 32), dtype=np.float32)}), "must be a <f8 array, got float32"),
    ("params", "extra.classifier", lambda h, a: a.update({"params extra.classifier": np.zeros(
        (16, 32), dtype=object)}), "Object arrays cannot be loaded when allow_pickle=False"),
    ("params", "vis.proj", lambda h, a: a["params vis.proj"].__setitem__((0, 0), np.nan),
     "contains non-finite values"),
    ("params", "extra.classifier", lambda h, a: h["params"].remove("extra.classifier"),
     "missing from the file"),
    ("momentum", "vis.proj", lambda h, a: h["momentum"].remove("vis.proj"), "missing from the file"),
    ("params", "vis.bogus", lambda h, a: h["params"].insert(0, "vis.bogus"),
     "not a parameter of this model"),
    ("params", "bogus.w", lambda h, a: h["params"].append("bogus.w"), "not a parameter of this model"),
    ("params", "txt.proj", lambda h, a: a.update({"params txt.proj": np.zeros((3, 3))}),
     r"shape \[3, 3\] but the model's is \[48, 32\]"),
    ("dims", "d_img", lambda h, a: h["dims"].pop("d_img"), "missing from the file"),
    ("dims", "d_img", lambda h, a: h["dims"].update(d_img="48"), "must be of type int, got str"),
    ("dims", "d_txt", lambda h, a: h["dims"].update(d_txt=0), "must be at least 1, got 0"),
    # a size that would draw a parameter larger than the rest of the file
    ("dims", "d_img", lambda h, a: h["dims"].update(d_img=10**9),
     r": 1000000000 rows of 32 floats exceed the \d+ bytes left in the file$"),
    ("dims", "d_txt", lambda h, a: h["dims"].update(d_txt=10**9),
     r": 1000000000 rows of 32 floats exceed the \d+ bytes left in the file$"),
    ("config", "k_clusters", lambda h, a: h["config"].update(k_clusters=10**9),
     r": 1000000000 rows of 32 floats exceed the \d+ bytes left in the file$"),
], ids=["missing_array", "float32", "object", "non_finite", "missing",
        "missing_momentum", "unknown_name", "unknown_group", "wrong_shape", "missing_d_img",
        "string_d_img", "zero_d_txt", "huge_d_img", "huge_d_txt", "huge_k_clusters"])
def test_load_checkpoint_names_a_corrupt_entry(section, name, edit, match, tmp_path):
    path = tmp_path / "ckpt.json"
    pl.save_checkpoint(path, _tiny_state(), which="final")
    _edit_checkpoint(path, edit)
    with pytest.raises(ValueError, match=rf"^checkpoint {section} '{re.escape(name)}'.*{match}"):
        pl.load_checkpoint(path)


@pytest.mark.parametrize("rows_over", [1, 0], ids=["one_row_over", "at_the_bound"])
@pytest.mark.parametrize("section, name", [("dims", "d_img"), ("dims", "d_txt"),
                                           ("config", "k_clusters")])
def test_load_checkpoint_bounds_a_size_by_the_bytes_left_in_the_file(section, name, rows_over,
                                                                     tmp_path):
    path = tmp_path / "ckpt.json"
    pl.save_checkpoint(path, _tiny_state(), which="final")
    data = path.read_bytes()

    def load_with(rows):
        path.write_bytes(data)
        _edit_checkpoint(path, lambda header, arrays: header[section].update({name: rows}))
        pl.load_checkpoint(path)

    # 999 rows of 32 floats pass the ~115 KB file; a three-digit size keeps the header's length
    with pytest.raises(ValueError, match=r"exceed the (\d+) bytes left in the file$") as refused:
        load_with(999)
    rows = int(re.search(r"the (\d+) bytes", str(refused.value))[1]) // (pl.EMBED_DIM * 8) + rows_over
    bound = rf"^checkpoint {section} '{name}': {rows} rows of 32 floats exceed"
    with pytest.raises(ValueError) as refused:
        load_with(rows)
    if rows_over:
        assert re.match(bound, str(refused.value))
    else:
        # the size fits, so the model is drawn and a parameter's shape is refused instead
        assert re.match(rf"^checkpoint params '[^']+': shape \[\d+, 32\] but the model's is "
                        rf"\[{rows}, 32\]$", str(refused.value))


def test_load_checkpoint_names_a_truncated_last_array(tmp_path):
    path = tmp_path / "ckpt.json"
    pl.save_checkpoint(path, _tiny_state(), which="final")
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match="^checkpoint momentum 'txt.dec_b2': the file ends inside it$"):
        pl.load_checkpoint(path)


def test_load_checkpoint_refuses_a_huge_array_after_the_header(tmp_path):
    path = tmp_path / "ckpt.json"
    pl.save_checkpoint(path, _tiny_state(), which="final")
    # the header is valid; concept_inputs then claims 10**12 floats (7.28 TiB)
    path.write_bytes(_stream(_read_stream(path)[0]) + _header_only("<f8", (10**6, 10**6)))
    with pytest.raises(ValueError, match="^checkpoint section 'concept_inputs': the file ends inside it$"):
        pl.load_checkpoint(path)


def test_load_checkpoint_reads_a_fortran_ordered_array(tmp_path):
    state = _tiny_state()
    path = tmp_path / "ckpt.json"
    pl.save_checkpoint(path, state, which="final")
    _edit_checkpoint(path, lambda h, a: a.update({"params vis.proj": np.asfortranarray(
        a["params vis.proj"])}))
    assert path.read_bytes().count(b"'fortran_order': True") == 1
    loaded = dict(pl.load_checkpoint(path).model.param_items())["vis.proj"].value
    assert _bits(loaded) == _bits(dict(state.model.param_items())["vis.proj"].value)


def test_load_checkpoint_rejects_bytes_after_the_last_array(tmp_path):
    path = tmp_path / "ckpt.json"
    pl.save_checkpoint(path, _tiny_state(), which="final")
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(ValueError, match="^checkpoint: bytes follow the last array$"):
        pl.load_checkpoint(path)


def _set_inputs(value):
    return lambda header, arrays: arrays.update(concept_inputs=value)


@pytest.mark.parametrize("edit, match", [
    (_set_inputs(np.zeros((3, 31))), r"must have 1 to 24 rows of width 32, got shape \[3, 31\]"),
    (_set_inputs(np.zeros((0, 32))), r"must have 1 to 24 rows of width 32, got shape \[0, 32\]"),
    (_set_inputs(np.zeros((25, 32))), r"must have 1 to 24 rows of width 32, got shape \[25, 32\]"),
    (_set_inputs(np.zeros(32)), r"must have 1 to 24 rows of width 32, got shape \[32\]"),
    (_set_inputs(np.full((2, 32), np.inf)), "contains non-finite values"),
    (_set_inputs(np.zeros((2, 32), dtype=np.int64)), "must be a <f8 array, got int64"),
    (_set_inputs(np.zeros((2, 32), dtype=object)), "Object arrays cannot be loaded"),
], ids=["wrong_width", "zero_rows", "more_rows_than_concepts", "one_dimensional", "non_finite",
        "int", "object"])
def test_load_checkpoint_names_bad_concept_inputs(edit, match, tmp_path):
    path = tmp_path / "ckpt.json"
    pl.save_checkpoint(path, _tiny_state(), which="final")
    _edit_checkpoint(path, edit)
    with pytest.raises(ValueError, match=rf"^checkpoint section 'concept_inputs'.*{match}"):
        pl.load_checkpoint(path)


def test_checkpoint_sits_at_the_given_path_and_lists_its_arrays(tmp_path):
    state = _tiny_state()
    pl.save_checkpoint(tmp_path / "ckpt.json", state, which="final")
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]
    head, inputs, *rest = _read_stream(tmp_path / "ckpt.json")
    header = json.loads(head.item())
    assert header["version"] == pl.CHECKPOINT_VERSION == 5
    params = dict(state.model.param_items())
    momentum = state.model.encoder_pair.momentum
    assert header["params"] == list(params) and header["momentum"] == list(momentum)
    assert _bits(inputs) == _bits(state.model.concept_inputs)
    want = [m.value for m in params.values()] + list(momentum.values())
    assert len(rest) == len(want) and all(_bits(a) == _bits(b) for a, b in zip(rest, want))


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


@pytest.mark.parametrize("epochs, dropped", [
    (1, [False]),
    (3, [False, True, True]),
    (4, [False, False, True, True]),
], ids=["default_1", "default_3", "default_4"])
def test_train_drops_the_learning_rate_tenfold_from_half_the_run_on(epochs, dropped, monkeypatch):
    # the drop epoch is max(epochs // 2, 1)
    lrs, adam_step = [], pl.adam_step

    def spy_adam_step(state, params, grads):
        lrs.append(state.lr)
        return adam_step(state, params, grads)

    monkeypatch.setattr(pl, "adam_step", spy_adam_step)
    cfg = pl.TrainConfig(seed=0, epochs=epochs, batch_size=4, use_concept_losses=False)
    state, _ = pl.train(cfg, pl.generate_synthetic(8, 1, 4, seed=5))
    # two batches per epoch
    assert lrs == [cfg.lr * 0.1 if d else cfg.lr for d in dropped for _ in range(2)]
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


# A step with every loss on builds 56 nodes on this fixture (72 with the
# triplet baseline): among them six contrastive directions, three
# aggregator calls, two concept queries and two PGC cross-entropies, one
# node each. Composed of elementary ops, a concept query costs 8 nodes, a
# cross-entropy 5, an aggregator call 10 and a direction about 20, so a
# single such one exceeds the budget.
GRAPH_NODE_BUDGET = 56
TRIPLET_GRAPH_NODE_BUDGET = 72


def _fill_queue(state, n: int) -> None:
    """Queue ``n`` seeded ``[v | w]`` pairs whose halves are unit rows."""
    rows = rng_from_seed(4).standard_normal((n, 2 * pl.EMBED_DIM))
    state.bank.enqueue(np.hstack([half / np.linalg.norm(half, axis=1, keepdims=True)
                                  for half in np.hsplit(rows, 2)]))


def _budget_step(instance_loss="dcl"):
    """The state and the loss node of one step with every loss on, the memory queue full."""
    data = pl.generate_synthetic(8, 2, 4, seed=1)
    state = pl.build_state(pl.TrainConfig(seed=0, epochs=1, batch_size=8,
                                          instance_loss=instance_loss), data)
    _fill_queue(state, 8)
    total, parts, _ = pl.batch_losses(state, *_batch(data, np.arange(8)), np.arange(8) % 4)
    # the memory and label losses are in the graph
    assert parts["l_mdcl"] != 0.0 and parts["l_pgc"] != 0.0
    return state, total


def test_one_training_step_stays_within_its_graph_node_budget():
    _, total = _budget_step()
    assert _graph_nodes(total) <= GRAPH_NODE_BUDGET


def test_one_triplet_training_step_stays_within_its_graph_node_budget():
    _, total = _budget_step("triplet")
    assert _graph_nodes(total) <= TRIPLET_GRAPH_NODE_BUDGET


def test_every_constant_leaf_of_a_training_step_is_a_scalar():
    state, total = _budget_step()
    model = state.model
    backward(total)
    params = {id(m) for _, m in model.param_items()}
    constants = [node for node in _graph(total) if not node._parents and id(node) not in params]
    # the memory banks, momentum positives, masks, one-hot targets, concept inputs and scalars
    # live inside their nodes; only the instance loss's weight lambda is a leaf
    assert [leaf.value.tolist() for leaf in constants] == [[[state.config.lambda_weight]]]
    assert all(m.grad is not None for _, m in model.param_items())


def test_each_training_step_gathers_each_modality_once(monkeypatch):
    gathered, gather = [], pl._gather
    monkeypatch.setattr(pl, "_gather", lambda lengths, rows, index:
                        gathered.append((rows, index.copy())) or gather(lengths, rows, index))
    data = pl.generate_synthetic(20, 2, 4, seed=5)
    order = rng_from_seed(0, 12).permutation(len(data))
    # 40 records in batches of 16, 16 and 8, one epoch
    pl.train(pl.TrainConfig(seed=0, epochs=1, batch_size=16, k_clusters=4), data)
    assert len(gathered) == 2 * 3
    for (image_rows, images), (caption_rows, captions), lo in zip(gathered[::2], gathered[1::2],
                                                                  (0, 16, 32)):
        # the batch's captions, then each one's image, both read from the dataset's row arrays
        assert image_rows is data.image_rows and caption_rows is data.caption_rows
        assert captions.tolist() == order[lo:lo + 16].tolist()
        assert images.tolist() == data.caption_image[captions].tolist()


def test_gather_stacks_the_sequences_an_index_names():
    data = _interleaved()
    captions = _sequences(data.caption_lengths, data.caption_rows)
    for index in (np.array([3]), np.array([6, 0, 4, 0, 2]), np.arange(7)[::-1]):
        lengths, rows = pl._gather(data.caption_lengths, data.caption_rows, index)
        want = stack([captions[i] for i in index])
        assert lengths.tolist() == want[0].tolist() and _bits(rows) == _bits(want[1])
        assert rows.flags.c_contiguous


def test_the_memory_loss_turns_on_once_a_bank_smaller_than_a_batch_is_full():
    cfg = pl.TrainConfig(seed=0, epochs=2, batch_size=32, bank_capacity=16)
    state, rows = pl.train(cfg, pl.generate_synthetic(64, 1, 4, seed=5))
    assert len(state.bank) == 16 and state.bank.dim == 2 * pl.EMBED_DIM
    # the first batch finds the queue empty; every later one scores against all 16 pairs
    assert all(row["l_mdcl"] != 0.0 for row in rows)


@pytest.mark.parametrize("off", [(), ("l_mdcl",), ("l_pgc",), ("l_dcl_c", "l_pgc")],
                         ids=["all_on", "memory_off", "labels_off", "concepts_off"])
def test_batch_losses_total_is_the_weighted_sum_of_its_parts(off):
    data = pl.generate_synthetic(8, 2, 4, seed=1)
    cfg = pl.TrainConfig(seed=0, epochs=1, batch_size=8, lambda_weight=2.5,
                         bank_capacity=0 if "l_mdcl" in off else 512,
                         use_concept_losses="l_dcl_c" not in off)
    state = pl.build_state(cfg, data)
    _fill_queue(state, 8)
    labels = None if "l_pgc" in off else np.arange(8) % 4
    total, parts, pairs = pl.batch_losses(state, *_batch(data, np.arange(8)), labels)
    assert list(parts) == ["l_dcl_i", "l_mdcl", "l_dcl_c", "l_pgc"]
    assert all((parts[name] == 0.0) == (name in off) for name in parts)
    assert total.item() == (2.5 * parts["l_dcl_i"] + parts["l_mdcl"] + parts["l_dcl_c"]
                            + parts["l_pgc"])
    # a run with no queue runs no momentum encoder, so it has no pair to queue
    assert isinstance(pairs, np.ndarray)
    assert pairs.shape == (0 if "l_mdcl" in off else 8, 2 * pl.EMBED_DIM)


def test_each_training_step_queues_the_pairs_batch_losses_returned_once(monkeypatch):
    returned, queued = [], []
    batch_losses, enqueue = pl.batch_losses, MemoryBank.enqueue

    def spy(*args):
        out = batch_losses(*args)
        returned.append(out[2])
        return out

    monkeypatch.setattr(pl, "batch_losses", spy)
    monkeypatch.setattr(MemoryBank, "enqueue",
                        lambda bank, rows: queued.append(rows) or enqueue(bank, rows))
    cfg = pl.TrainConfig(seed=0, epochs=2, batch_size=16, bank_capacity=24, k_clusters=4)
    # 40 records: batches of 16, 16 and 8 per epoch
    state, rows = pl.train(cfg, pl.generate_synthetic(20, 2, 4, seed=5))
    assert len(queued) == len(returned) == 6
    assert all(q is r for q, r in zip(queued, returned))
    assert [len(q) for q in queued] == [16, 16, 8] * 2
    for pairs in queued:
        assert pairs.shape[1] == state.bank.dim == 2 * pl.EMBED_DIM
        for half in np.hsplit(pairs, 2):
            assert np.abs(np.linalg.norm(half, axis=1) - 1.0).max() <= 1e-12
    # the queue holds the newest pairs, and the memory loss read it from the second step on
    assert state.bank.view().tobytes() == np.vstack(queued)[-24:].tobytes()
    assert all(row["l_mdcl"] != 0.0 for row in rows)


@pytest.mark.parametrize("bank_capacity", [0, 24])
def test_a_run_with_no_queue_runs_no_momentum_encoder(bank_capacity, monkeypatch):
    mirrored, queued = [], []
    forward, enqueue = FeatureAggregator.forward, MemoryBank.enqueue

    def spy_forward(agg, lengths, rows, params=None):
        mirrored.append(params is not None)
        return forward(agg, lengths, rows, params)

    monkeypatch.setattr(FeatureAggregator, "forward", spy_forward)
    monkeypatch.setattr(MemoryBank, "enqueue",
                        lambda bank, rows: queued.append(len(rows)) or enqueue(bank, rows))
    cfg = pl.TrainConfig(seed=0, epochs=2, batch_size=16, bank_capacity=bank_capacity, k_clusters=4)
    # 40 records: 3 steps per epoch
    _, rows = pl.train(cfg, pl.generate_synthetic(20, 2, 4, seed=5))
    if bank_capacity:  # the control: the spy sees both momentum encoders at every step
        assert mirrored.count(True) == 2 * 6
    else:
        assert mirrored and not any(mirrored) and queued == [0] * 6
        assert [row["l_mdcl"] for row in rows] == [0.0, 0.0]


@pytest.mark.parametrize("use_concept_losses, where", [(True, "epoch 0, clustering"),
                                                       (False, "epoch 0, batch 0")])
def test_train_names_where_a_row_norm_overflows(use_concept_losses, where):
    data = pl.generate_synthetic(33, 1, 4, seed=5)
    data = dataclasses.replace(data, image_rows=data.image_rows * 1e200)
    cfg = pl.TrainConfig(seed=0, epochs=1, batch_size=16, use_concept_losses=use_concept_losses)
    with pytest.raises(RuntimeError, match=f"{where}: unit_rows: a row norm overflows"):
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
        cfg = pl.TrainConfig(**GATE_CONFIG | {"bank_capacity": 0}, instance_loss=loss,
                             use_concept_losses=False)
        # a concept branch that never trained would add 10% noise at the default beta
        alone[loss] = pl.evaluate(pl.train(cfg, train)[0], val, beta=1.0).rsum
    full, _ = pl.train(pl.TrainConfig(**GATE_CONFIG), train)
    full_rsum = pl.evaluate(full, val).rsum
    # every instance loss improves on the untrained model
    assert min(alone.values()) > untrained, (untrained, alone)
    # the memory and concept branches do not hurt DCL
    assert full_rsum >= alone["dcl"], (full_rsum, alone["dcl"])
    # blending in the concept branch does not hurt retrieval
    assert full_rsum >= pl.evaluate(full, val, 1.0).rsum
