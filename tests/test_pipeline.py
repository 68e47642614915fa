import json
import math
import re
import tracemalloc

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


@pytest.mark.parametrize("block", [3, pl.RANK_BLOCK])
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("case", sorted(RANKING_CASES))
def test_recalls_with_infinite_scores_match_argsort_reference(case, seed, block, monkeypatch):
    # nextafter(-inf, -inf) is -inf, so a -inf ground truth's lower-index
    # ties are counted apart from the threshold comparison
    monkeypatch.setattr(pl, "RANK_BLOCK", block)
    n_img, n_cap, how = RANKING_CASES[case]
    rng = rng_from_seed(seed, 41)
    caption_image = _caption_image(rng, n_img, n_cap, how)
    scores = _tied_scores(rng, n_img, n_cap, levels=3)
    draw = rng.random(scores.shape)
    scores[draw < 0.3] = -np.inf
    scores[draw > 0.8] = np.inf
    scores[caption_image[0], caption_image == caption_image[0]] = -np.inf  # a -inf best caption
    off_target = np.ones_like(scores, dtype=bool)
    off_target[caption_image, np.arange(n_cap)] = False
    scores[off_target & (rng.random(scores.shape) < 0.1)] = np.nan
    assert np.isneginf(scores[caption_image, np.arange(n_cap)]).any()
    got = pl.recalls_from_similarity(scores, caption_image)
    assert got == reference_recalls(scores, caption_image)


def test_recalls_name_the_global_column_of_a_nan_ground_truth(monkeypatch):
    monkeypatch.setattr(pl, "RANK_BLOCK", 3)
    caption_image = np.array([0, 1, 2, 0, 1, 2, 0, 1])
    scores = np.zeros((3, 8))
    scores[caption_image[6], 6] = np.nan
    with pytest.raises(ValueError, match="caption column 6 has a NaN ground-truth score"):
        pl.recalls_from_similarity(scores, caption_image)
    left, right = np.ones((3, 2)), np.ones((8, 2))
    right[7, 0] = np.nan
    with pytest.raises(ValueError, match="caption column 7 has a NaN ground-truth score"):
        pl.recalls_from_similarity(pl.StackedScores(left, right), caption_image)


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
    val = _eval_split(5, 2)
    val.records = val.records[:records]
    with pytest.raises(ValueError, match=match):
        pl.evaluate(_tiny_state(), val, beta)


def test_evaluate_peak_memory_stays_below_one_dense_score_matrix():
    state = _tiny_state()
    val = _eval_split(400, 5)
    tracemalloc.start()
    try:
        pl.evaluate(state, val)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 400 * len(val) * np.dtype(np.float64).itemsize  # one dense [400, 2000] matrix


# ---------------------------------------------------------------------------
# dataset files and checkpoints
# ---------------------------------------------------------------------------

def _bits(arr) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def test_dataset_round_trip_is_bit_exact(tmp_path):
    data = pl.generate_synthetic(6, 3, 4, seed=2, split="train")
    extremes = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, -5e-324]
    data.records[0].image_features[0, :5] = extremes  # shared by the image's three records
    data.records[4].caption_features[-1, :5] = extremes
    path = tmp_path / "train.jsonl"
    pl.save_dataset(data, path)
    loaded = pl.load_dataset(path)
    assert (loaded.split, loaded.captions_per_image, len(loaded)) == ("train", 3, 18)
    for got, want in zip(loaded.records, data.records):
        assert (got.pair_id, got.image_id, got.caption_tokens) == \
            (want.pair_id, want.image_id, want.caption_tokens)
        for name in ("image_features", "caption_features"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == np.float64 and a.shape == b.shape and _bits(a) == _bits(b)
    assert np.signbit(loaded.records[1].image_features[0, 0])


def test_records_of_one_image_share_its_array(tmp_path):
    path = tmp_path / "val.jsonl"
    pl.save_dataset(pl.generate_synthetic(5, 4, 4, seed=3, split="val"), path)
    loaded = pl.load_dataset(path)
    by_image: dict[str, set[int]] = {}
    for r in loaded.records:
        by_image.setdefault(r.image_id, set()).add(id(r.image_features))
    assert len(by_image) == 5 and all(len(ids) == 1 for ids in by_image.values())
    assert len({id(r.caption_features) for r in loaded.records}) == 20


def _raw(pair_id="p", image=None, caption=None, tokens=("red", "car")) -> dict:
    image = np.ones((2, 3)) if image is None else image
    caption = np.ones((1, 4)) if caption is None else caption
    return {"pair_id": pair_id, "image_id": "img", "image_features": pl._encode(image),
            "caption_tokens": list(tokens), "caption_features": pl._encode(caption)}


def _write(path, *lines):
    path.write_text("".join((line if isinstance(line, str) else json.dumps(line)) + "\n"
                            for line in lines))
    return path


def _with(field, value, **kwargs):
    raw = _raw(**kwargs)
    raw[field] = value
    return raw


def _without(field):
    raw = _raw()
    del raw[field]
    return raw


BAD_DATASETS = {
    # name: (lines of the file, expected message)
    "parse_error": ([_raw("a"), '{"pair_id": "b",'], r"parse error at line 2: "),
    "no_pair_id": ([_raw("a"), _without("pair_id")], r"line 2: record has no pair_id"),
    "not_an_object": (["[1, 2]"], r"line 1: record has no pair_id"),
    "missing_field": ([_without("caption_tokens")], r"record 'p': missing field 'caption_tokens'"),
    "nested_list": ([_with("image_features", [[1.0, 2.0, 3.0]])],
                    r"record 'p': image_features must be \{\"shape\": \[\.\.\.\], \"data\": "
                    r"<base64 of little-endian float64>\}, got a list"),
    "extra_blob_key": ([_with("caption_features", {"shape": [1, 1], "data": "", "dtype": "f8"})],
                       r"record 'p': caption_features must be .*got keys \['data', 'dtype', 'shape'\]"),
    "float_shape": ([_with("image_features", {"shape": [1.0, 1], "data": "AAAAAAAA8D8="})],
                    r"record 'p': image_features: shape must be a list of non-negative ints"),
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
    "duplicate": ([_raw("a"), _raw("b"), _raw("a")], r"record 'a': duplicate pair_id"),
    "no_records": (["", "  "], r"has no records"),
    "image_width": ([_raw("a"), _raw("b", image=np.ones((2, 5)))],
                    r"record 'b': image_features has width 5 but the first record's has 3"),
    "caption_width": ([_raw("a"), _raw("b", caption=np.ones((3, 2)))],
                      r"record 'b': caption_features has width 2 but the first record's has 4"),
}


@pytest.mark.parametrize("case", sorted(BAD_DATASETS))
def test_load_dataset_rejects_bad_records(case, tmp_path):
    lines, match = BAD_DATASETS[case]
    path = _write(tmp_path / "bad.jsonl", *lines)
    with pytest.raises(ValueError, match=match):
        pl.load_dataset(path)


def test_load_dataset_counts_captions_and_names_the_split(tmp_path):
    path = _write(tmp_path / "dev.v2.jsonl", _raw("a"), "", _raw("b"),
                  dict(_raw("c"), image_id="other"))
    loaded = pl.load_dataset(path)
    assert (loaded.split, loaded.captions_per_image, len(loaded)) == ("dev", 2, 3)
    assert pl.load_dataset(path, split="val", max_seq_len=2).split == "val"


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


def test_loaded_checkpoint_evaluates_exactly_like_the_saved_state(tmp_path):
    cfg = pl.TrainConfig(seed=0, epochs=1, batch_size=16)
    state, _ = pl.train(cfg, pl.generate_synthetic(33, 1, 4, seed=5))
    path = tmp_path / "ckpt.json"
    pl.save_checkpoint(path, state, which="final")
    val = _eval_split()
    assert pl.evaluate(pl.load_checkpoint(path), val) == pl.evaluate(state, val)


@pytest.mark.parametrize("section", ["epoch", "config", "dims", "params", "momentum", "concepts"])
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
    ("params", "txt.proj", lambda sec, n: sec.update({n: pl._encode(np.zeros((3, 3)))}),
     r"shape \[3, 3\] but the model's is \[48, 32\]"),
], ids=["truncated", "bad_padding", "not_a_blob", "missing", "missing_momentum",
        "unknown_name", "unknown_group", "wrong_shape"])
def test_load_checkpoint_names_a_corrupt_blob(section, name, corrupt, match, tmp_path):
    path = tmp_path / "ckpt.json"
    pl.save_checkpoint(path, _tiny_state(), which="final")
    blob = json.loads(path.read_text())
    corrupt(blob[section], name)
    path.write_text(json.dumps(blob))
    with pytest.raises(ValueError, match=rf"checkpoint {section} '{re.escape(name)}'.*{match}"):
        pl.load_checkpoint(path)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("instance_loss", ["dcl", "dcl_i", "triplet"])
def test_train_runs_every_branch_deterministically(instance_loss):
    # 33 pairs in batches of 16 leave a one-pair final batch, and 40
    # clusters exceed the 33 records
    cfg = pl.TrainConfig(seed=0, epochs=2, batch_size=16, k_clusters=40,
                         instance_loss=instance_loss)
    data = pl.generate_synthetic(33, 1, 4, seed=5)
    val = pl.generate_synthetic(6, 2, 4, seed=5, split="val")
    state, rows = pl.train(cfg, data, val)
    assert [row["epoch"] for row in rows] == [0, 1] and state.epochs_run == 2
    assert state.prototypes.k == 33
    for row in rows:
        assert all(math.isfinite(row[k]) for k in ("l_dcl_i", "l_mdcl", "l_dcl_c", "l_pgc", "total"))
    assert rows[-1]["l_mdcl"] != 0.0
    assert pl.train(cfg, data, val)[1] == rows
