import numpy as np
import pytest

from crossalign import pipeline as pl
from crossalign.numerics import rng_from_seed
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


@pytest.mark.parametrize("scores, caption_image, match", [
    (np.zeros(4), np.zeros(4, dtype=int), "2-D"),
    (np.zeros((2, 2, 2)), np.zeros(2, dtype=int), "2-D"),
    (np.zeros((3, 4)), np.zeros(3, dtype=int), "one ground-truth image"),
    (np.zeros((3, 4)), np.array([0, 1, -1, 2]), "caption column 2 names image -1"),
    (np.zeros((3, 4)), np.array([0, 3, 5, 2]), r"caption column 1 names image 3, outside \[0, 3\)"),
    (np.array([[0.0, np.nan], [1.0, 1.0]]), np.array([0, 0]), "caption column 1 has a NaN"),
])
def test_recalls_reject_bad_input(scores, caption_image, match):
    with pytest.raises(ValueError, match=match):
        pl.recalls_from_similarity(scores, caption_image)


# ---------------------------------------------------------------------------
# embedding
# ---------------------------------------------------------------------------

def _graph_nodes(root) -> int:
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def test_aggregate_batch_graph_size_does_not_grow_with_batch():
    agg = FeatureAggregator(6, 8, d_p=8, hidden=4, rng=rng_from_seed(0))
    rng = rng_from_seed(1)
    seqs = [rng.standard_normal((int(rng.integers(1, 6)), 6)) for _ in range(50)]
    assert _graph_nodes(agg.aggregate_batch(seqs[:1])) == _graph_nodes(agg.aggregate_batch(seqs))


def test_embed_for_retrieval_reuses_image_chunks_exactly():
    world = pl.build_world(4, 0)
    train = pl.generate_synthetic(40, 2, 4, seed=1, world=world)
    val = pl.generate_synthetic(150, 2, 4, seed=2, split="val", world=world)
    state = pl.build_state(pl.TrainConfig(seed=0, epochs=1), train)
    model = state.model

    _, caption_image, v, _, vc, _ = pl.embed_for_retrieval(state, val)

    _, img_seqs, want_caption_image = pl._unique_images(val.records)
    basis = model.concept_basis()
    chunks = [img_seqs[i:i + 128] for i in range(0, len(img_seqs), 128)]
    assert len(chunks) == 2
    want_v = np.vstack([model.embed_images(c).value for c in chunks])
    want_vc = np.vstack([model.concept_embed(model.embed_images(c), basis, "visual")[0].value
                         for c in chunks])
    assert np.array_equal(caption_image, want_caption_image)
    assert np.array_equal(v, want_v)
    assert np.array_equal(vc, want_vc)
