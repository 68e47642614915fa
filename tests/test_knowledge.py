import dataclasses
import hashlib
import inspect
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossalign import knowledge
from crossalign import numerics as nm
from crossalign import pipeline as pl
from crossalign.knowledge import (
    DEFAULT_STOPLIST,
    binarize,
    build_cooccurrence,
    build_vocabulary,
    concept_inputs,
    concept_query,
    gcn_forward,
    normalized_adjacency,
)
from crossalign.numerics import Matrix, rng_from_seed

from autodiff_ref import l2_normalize_rows, softmax_rows
from gradcheck import grad_check


# ---------------------------------------------------------------------------
# concept vocabulary and co-occurrence, counted from token codes
# ---------------------------------------------------------------------------

def _coded(corpus, vocabulary=None):
    """``(vocabulary, token_counts, token_codes)`` of ``corpus``, lists of tokens, as a dataset holds them.

    ``vocabulary`` defaults to the tokens in order of first appearance; a
    given one may hold tokens that no caption uses.
    """
    if vocabulary is None:
        vocabulary = list(dict.fromkeys(tok for caption in corpus for tok in caption))
    code = {tok: i for i, tok in enumerate(vocabulary)}
    return (np.array(vocabulary, dtype=str), np.array([len(c) for c in corpus], dtype=np.int64),
            np.array([code[tok] for caption in corpus for tok in caption], dtype=np.int64))


def _concept_tokens(corpus, g):
    vocabulary, _, codes = _coded(corpus)
    return vocabulary[build_vocabulary(vocabulary, codes, g)].tolist()


def _conditional(corpus, concepts):
    """``build_cooccurrence`` of ``corpus`` for the concept tokens ``concepts``."""
    vocabulary, counts, codes = _coded(corpus)
    return build_cooccurrence(counts, codes, [vocabulary.tolist().index(t) for t in concepts])


def _corpus_vocabulary(corpus, g):
    """The concept tokens as a Counter of the token lists ranks them, ``build_vocabulary``'s reference."""
    freq = Counter(tok for caption in corpus for tok in caption if tok not in DEFAULT_STOPLIST)
    if not freq:
        raise ValueError("no non-stop tokens available for the concept vocabulary")
    return [tok for tok, _ in sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))[:g]]


def _corpus_cooccurrence(corpus, concepts):
    """The conditional co-occurrence, filled one caption at a time: ``build_cooccurrence``'s reference."""
    index = {tok: i for i, tok in enumerate(concepts)}
    presence = np.zeros((len(corpus), len(concepts)))
    for row, caption in enumerate(corpus):
        presence[row, [index[t] for t in caption if t in index]] = 1.0
    counts = presence.T @ presence
    appearances = np.diag(counts).copy()
    np.fill_diagonal(counts, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(appearances[:, None] > 0, counts / appearances[:, None], 0.0)


def _pair_loop_conditional(corpus, concepts):
    """Conditional co-occurrence by counting each caption's concept pairs one by one."""
    index = {tok: i for i, tok in enumerate(concepts)}
    counts = np.zeros((len(concepts), len(concepts)), dtype=np.int64)
    appearances = np.zeros(len(concepts), dtype=np.int64)
    for caption in corpus:
        present = sorted({index[t] for t in caption if t in index})
        for i in present:
            appearances[i] += 1
        for a in range(len(present)):
            for b in range(a + 1, len(present)):
                counts[present[a], present[b]] += 1
                counts[present[b], present[a]] += 1
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(appearances[:, None] > 0, counts / appearances[:, None], 0.0)


def test_vocabulary_unique_maximum():
    assert _concept_tokens([["a", "dog", "runs"], ["a", "dog", "sleeps"]], 1) == ["dog"]


def test_vocabulary_exhaustive_is_frequency_sorted():
    assert _concept_tokens([["dog", "cat"], ["dog", "bird"], ["dog"]], 3) == ["dog", "bird", "cat"]


def test_vocabulary_tie_breaks_lexicographically():
    assert _concept_tokens([["dog"], ["cat"]], 1) == ["cat"]


def test_vocabulary_ties_break_by_code_point():
    # "Z" < "e" < "é" < "日" by code point, whatever the order of the vocabulary
    assert _concept_tokens([["日", "é"], ["e", "Z"]], 4) == ["Z", "e", "é", "日"]


def test_vocabulary_returns_every_token_when_fewer_than_requested():
    assert _concept_tokens([["dog", "a"], ["dog"]], 5) == ["dog"]


def test_vocabulary_skips_a_token_that_no_caption_uses():
    vocabulary, _, codes = _coded([["dog"], ["cat", "dog"]], ["bird", "cat", "dog"])
    assert build_vocabulary(vocabulary, codes, 3).tolist() == [2, 1]


@pytest.mark.parametrize("corpus", [[["a", "the"], ["of"]], [[], []]], ids=["stop_words", "no_tokens"])
def test_vocabulary_rejects_a_corpus_of_stop_words(corpus):
    with pytest.raises(ValueError, match="^no non-stop tokens available for the concept vocabulary$"):
        _concept_tokens(corpus, 3)


def test_vocabulary_rejects_no_concepts():
    with pytest.raises(ValueError, match="^need at least one concept$"):
        _concept_tokens([["dog"]], 0)


# tokens with ties between ASCII and non-ASCII ones; "a", "of" and "the" are stop words
TOKENS = ["dog", "Dog", "é", "e", "日本", "straße", "zz", "a", "of", "the"]


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_concepts_equal_the_corpus_reference_on_random_corpora(seed):
    rng = rng_from_seed(seed, 31)
    # captions may be empty or repeat a token, and some tokens of the vocabulary no caption uses
    corpus = [rng.choice(TOKENS, size=int(rng.integers(0, 6))).tolist()
              for _ in range(int(rng.integers(1, 12)))]
    vocabulary, counts, codes = _coded(corpus, rng.permutation(TOKENS).tolist())
    g = int(rng.integers(1, len(TOKENS) + 1))
    try:
        want = _corpus_vocabulary(corpus, g)
    except ValueError as e:
        with pytest.raises(ValueError, match=f"^{e}$"):
            build_vocabulary(vocabulary, codes, g)
        return
    concepts = build_vocabulary(vocabulary, codes, g)
    assert vocabulary[concepts].tolist() == want
    # a concept may also be a code that no caption uses
    unused = np.setdiff1d(np.arange(len(TOKENS)), codes)
    if unused.size:
        concepts, want = np.append(concepts, unused[0]), [*want, str(vocabulary[unused[0]])]
    conditional = build_cooccurrence(counts, codes, concepts)
    assert conditional.tobytes() == _corpus_cooccurrence(corpus, want).tobytes()
    assert np.array_equal(conditional, _pair_loop_conditional(corpus, want))


TOY_CORPUS = [["c1"], ["c1"], ["c1", "c2"], ["c1", "c2"]]
TOY_CONCEPTS = ["c1", "c2"]


def test_cooccurrence_toy_conditionals():
    # c1 in 4 captions, c2 in 2, both in 2: asymmetric conditionals from symmetric counts
    conditional = _conditional(TOY_CORPUS, TOY_CONCEPTS)
    assert np.array_equal(conditional, np.array([[0.0, 0.5], [1.0, 0.0]]))


def test_cooccurrence_isolated_concept_has_zero_row():
    corpus = [["solo"], ["c1", "c2"], ["c1", "c2"]]
    concepts = _concept_tokens(corpus, 3)
    conditional = _conditional(corpus, concepts)
    assert np.all(conditional[concepts.index("solo")] == 0.0)


def test_cooccurrence_rejects_repeated_concepts():
    with pytest.raises(ValueError, match="unique"):
        _conditional(TOY_CORPUS, ["c1", "c1"])


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_cooccurrence_invariants_on_random_corpora(seed):
    rng = rng_from_seed(seed, 31)
    tokens = [f"t{i}" for i in range(6)]
    # repeated tokens within a caption count once
    corpus = [
        list(rng.choice(tokens, size=int(rng.integers(1, 6)), replace=True))
        for _ in range(int(rng.integers(1, 12)))
    ]
    # some concepts may never appear, and some tokens are not concepts
    concepts = list(rng.permutation(tokens)[:int(rng.integers(1, 7))])
    vocabulary, counts, codes = _coded(corpus, tokens)
    conditional = build_cooccurrence(counts, codes, [tokens.index(t) for t in concepts])
    assert np.array_equal(conditional, _pair_loop_conditional(corpus, concepts))
    assert np.all(np.diag(conditional) == 0.0)
    assert np.all(conditional >= 0.0) and np.all(conditional <= 1.0)


def test_training_concept_inputs_keep_their_bytes():
    data = pl.generate_synthetic(300, 2, 8, seed=1, world=pl.build_world(8, 0))
    inputs = pl.build_state(pl.TrainConfig(), data).model.concept_inputs
    assert hashlib.sha256(inputs.tobytes()).hexdigest() == (
        "cebda262a8aabf7d5714d61e693013b5a8932ec9862e63600200671f1f676200")


def test_a_token_the_vocabulary_lists_twice_is_one_concept():
    data = pl.generate_synthetic(30, 2, 4, seed=1)
    v = len(data.vocabulary)
    # every token listed twice, and every other occurrence coded as the second copy
    twice = dataclasses.replace(data, vocabulary=np.concatenate([data.vocabulary, data.vocabulary]),
                                token_codes=data.token_codes + v * (np.arange(len(data.token_codes)) % 2))
    cfg = pl.TrainConfig()
    assert (pl.build_state(cfg, twice).model.concept_inputs.tobytes()
            == pl.build_state(cfg, data).model.concept_inputs.tobytes())


def test_binarize_continues_toy_example():
    edges = binarize(_conditional(TOY_CORPUS, TOY_CONCEPTS), 0.6)
    assert edges[0, 1] == 0
    assert edges[1, 0] == 1  # boundary: probability 1.0 >= any threshold


def test_binarize_all_zero_above_max():
    conditional = _conditional([["c1", "c2"], ["c1"], ["c2"]], ["c1", "c2"])
    assert conditional.max() == 0.5
    assert np.all(binarize(conditional, 0.51) == 0)


def test_binarize_rejects_bad_threshold():
    with pytest.raises(ValueError):
        binarize(np.zeros((2, 2)), 0.0)
    with pytest.raises(ValueError):
        binarize(np.zeros((2, 2)), 1.0)


@given(
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=0.01, max_value=0.98),
    st.floats(min_value=0.001, max_value=0.5),
)
@settings(max_examples=40, deadline=None)
def test_binarize_is_monotone_in_threshold(seed, low, bump):
    p = rng_from_seed(seed, 32).uniform(0.0, 1.0, size=(5, 5))
    high = min(low + bump, 0.99)
    assert np.all(binarize(p, high) <= binarize(p, low))


# ---------------------------------------------------------------------------
# graph convolution
# ---------------------------------------------------------------------------

def _seeded_unit_rows(count, dim, seed):
    rows = rng_from_seed(seed, 101).standard_normal((count, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def test_concept_inputs_of_an_empty_graph_are_the_seeded_unit_rows():
    assert np.array_equal(concept_inputs(np.zeros((4, 4)), 16, 5), _seeded_unit_rows(4, 16, 5))


def test_concept_inputs_propagate_the_unit_rows_over_the_graph():
    h = (rng_from_seed(2).uniform(size=(5, 5)) > 0.5).astype(np.int64)
    h[2, :] = 0  # a zero-degree row
    got = concept_inputs(h, 6, 3)
    assert np.array_equal(got, normalized_adjacency(h) @ _seeded_unit_rows(5, 6, 3))
    assert np.all(np.isfinite(got))


def test_gcn_identity_weight_keeps_nonnegative_input():
    x = np.abs(rng_from_seed(1).standard_normal((4, 4)))
    out = gcn_forward(x, Matrix(np.eye(4)))
    assert np.max(np.abs(out.value - x)) <= 1e-12


@pytest.mark.parametrize("seed", range(3))
def test_gcn_equals_the_composed_graph_on_a_constant_leaf(seed):
    rng = rng_from_seed(seed, 12)
    inputs = concept_inputs((rng.uniform(size=(5, 5)) > 0.5).astype(np.int64), 6, seed)
    probe = rng.standard_normal((5, 4))
    w = rng.standard_normal((6, 4))
    fused_w, ref_w = Matrix(w), Matrix(w)
    fused = gcn_forward(inputs, fused_w)
    ref = nm.relu(Matrix(inputs) @ ref_w)
    assert fused.value.tobytes() == ref.value.tobytes()
    # the array is no parent: only the weight gets a grad
    assert fused._parents[0]._parents == (fused_w,)
    nm.backward(nm.sum_all(fused * Matrix(probe)))
    nm.backward(nm.sum_all(ref * Matrix(probe)))
    assert fused_w.grad.tobytes() == ref_w.grad.tobytes()


def test_gcn_dense_two_node_normalization():
    a_norm = normalized_adjacency(np.ones((2, 2)))
    assert a_norm == pytest.approx(np.array([[1.5, 0.5], [0.5, 1.5]]), abs=1e-15)


def test_normalized_adjacency_matches_per_entry_oracle():
    rng = rng_from_seed(2)
    h = (rng.uniform(size=(4, 4)) > 0.5).astype(float)
    h[2, :] = 0.0  # force a zero-degree row
    h[:, 3] = 0.0  # and a zero-degree column
    a_norm = normalized_adjacency(h)
    d_row, d_col = h.sum(axis=1), h.sum(axis=0)
    for i in range(4):
        for j in range(4):
            if h[i, j] and d_row[i] > 0 and d_col[j] > 0:
                expected = h[i, j] / np.sqrt(d_row[i] * d_col[j])
            else:
                expected = 0.0
            expected += 1.0 if i == j else 0.0
            assert abs(a_norm[i, j] - expected) <= 1e-12
    assert np.all(np.isfinite(a_norm))


def test_gcn_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="weight rows 3 != feature dim 4"):
        gcn_forward(np.ones((2, 4)), Matrix(np.ones((3, 3))))


def test_gcn_clamps_negative_outputs_to_zero():
    out = gcn_forward(np.array([[-1.0, 2.0]]), Matrix(np.eye(2)))
    assert np.array_equal(out.value, np.array([[0.0, 2.0]]))


# ---------------------------------------------------------------------------
# concept query
# ---------------------------------------------------------------------------

def test_concept_query_single_concept():
    basis = Matrix(rng_from_seed(5).standard_normal((1, 4)))
    query = Matrix(rng_from_seed(6).standard_normal((2, 4)))
    emb, attn = concept_query(query, Matrix(np.eye(4)), basis, 3.0)
    assert attn == pytest.approx(np.ones((2, 1)))
    unit = basis.value / np.linalg.norm(basis.value)
    assert np.max(np.abs(emb.value - np.vstack([unit, unit]))) <= 1e-12


def test_concept_query_flat_smoothness_approaches_uniform():
    basis = Matrix(rng_from_seed(7).standard_normal((5, 4)))
    query = Matrix(rng_from_seed(8).standard_normal((1, 4)))
    emb, attn = concept_query(query, Matrix(np.eye(4)), basis, 1e-9)
    assert attn == pytest.approx(np.full((1, 5), 0.2), abs=1e-9)
    mean_dir = basis.value.mean(axis=0, keepdims=True)
    mean_dir = mean_dir / np.linalg.norm(mean_dir)
    assert np.max(np.abs(emb.value - mean_dir)) <= 1e-6


def test_concept_query_sharp_smoothness_selects_top_concept():
    basis = Matrix(np.array([[1.0, 0.0], [0.2, np.sqrt(1 - 0.04)]]))
    query = Matrix(np.array([[1.0, 0.0]]))  # raw scores (1.0, 0.2)
    emb, attn = concept_query(query, Matrix(np.eye(2)), basis, 100.0)
    assert attn == pytest.approx(np.array([[1.0, 0.0]]), abs=1e-6)
    assert np.max(np.abs(emb.value - basis.value[:1])) <= 1e-6


@pytest.mark.parametrize("seed", range(5))
def test_concept_attention_rows_are_distributions(seed):
    rng = rng_from_seed(seed, 33)
    smoothness = float(rng.uniform(0.5, 20.0))
    basis = Matrix(rng.standard_normal((7, 6)))
    query = Matrix(rng.standard_normal((4, 6)))
    _, attn = concept_query(query, Matrix(np.eye(6)), basis, smoothness)
    assert np.max(np.abs(attn.sum(axis=1) - 1.0)) <= 1e-9
    assert np.all(attn >= 0.0)


# the smoothness the trainer's concept queries use
SMOOTHNESS = inspect.signature(concept_query).parameters["smoothness"].default


def composed_concept_query(query, w, basis, smoothness=SMOOTHNESS):
    """``concept_query`` built from elementary ops, one graph node per op."""
    attention = softmax_rows((query @ w) @ basis.T * smoothness)
    return l2_normalize_rows(attention @ basis), attention.value


@pytest.mark.parametrize("seed", range(3))
def test_concept_query_equals_the_composed_graph_bit_for_bit(seed):
    rng = rng_from_seed(seed, 34)
    # at this width BLAS rounds a product with a transposed view differently from one with a copy
    inputs = concept_inputs((rng.uniform(size=(24, 24)) > 0.5).astype(np.int64), 32, seed)
    arrays = [rng.standard_normal(shape) for shape in [(32, 32), (16, 32), (32, 32), (12, 32),
                                                       (32, 32)]]
    probe_v, probe_w = Matrix(rng.standard_normal((16, 32))), Matrix(rng.standard_normal((12, 32)))
    results = []
    for build in (concept_query, composed_concept_query):
        leaves = [Matrix(a) for a in arrays]
        w_sc, query_v, w_v, query_w, w_w = leaves
        # both modalities query one basis, as a training step does, so its grads accumulate
        basis = gcn_forward(inputs, w_sc)
        emb_v, att_v = build(query_v, w_v, basis, 2.5)
        emb_w, att_w = build(query_w, w_w, basis, 2.5)
        nm.backward(nm.sum_all(emb_v * probe_v) + nm.sum_all(emb_w * probe_w))
        results.append([a.tobytes() for a in (emb_v.value, emb_w.value, att_v, att_w,
                                               *(leaf.grad for leaf in leaves))])
    assert results[0] == results[1]


def test_seeded_training_is_bit_identical_with_the_composed_concept_query(monkeypatch):
    cfg = pl.TrainConfig(seed=0, epochs=2, batch_size=16, k_clusters=6)
    data = pl.generate_synthetic(40, 1, 4, seed=5)
    val = pl.generate_synthetic(8, 2, 4, seed=5, split="val")
    runs = []
    for build in (concept_query, composed_concept_query):
        # the visual query's input also takes grads from three instance-loss nodes, in graph order
        monkeypatch.setattr(knowledge, "concept_query", build)
        state, rows = pl.train(cfg, data, val)
        runs.append((rows, [m.value.tobytes() for _, m in state.model.param_items()]))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("stage, query, w, basis, smoothness", [
    ("query projection", 1e200, 1e200, 1.0, 1.0),
    ("scores", 1e200, 1.0, 1e200, 1.0),
    ("scaled scores", 1.0, 1.0, 1.0, 1e308),
])
def test_concept_query_names_a_non_finite_stage(stage, query, w, basis, smoothness):
    args = (Matrix(np.full((2, 3), query)), Matrix(w * np.eye(3)), Matrix(np.full((4, 3), basis)))
    with np.errstate(over="ignore"), pytest.raises(
            nm.NonFiniteError, match=f"^concept_query: {stage} has non-finite entries$"):
        concept_query(*args, smoothness)


@pytest.mark.parametrize("target", ["w_query", "w_sc"])
def test_grad_check_through_query_and_convolution(target):
    rng = rng_from_seed(9)
    g, d_c, f = 5, 6, 6
    adjacency = (rng.uniform(size=(g, g)) > 0.5).astype(float)
    inputs = concept_inputs(adjacency, d_c, 0)
    w_query = Matrix(np.eye(f))
    w_sc = Matrix(rng.standard_normal((d_c, f)))
    query = Matrix(rng.standard_normal((3, f)))
    probe = Matrix(rng.standard_normal((3, f)))

    def loss_fn(p):
        basis = gcn_forward(inputs, p if target == "w_sc" else w_sc)
        emb, _ = concept_query(query, p if target == "w_query" else w_query, basis, 4.0)
        return nm.sum_all(emb * probe)

    assert grad_check(loss_fn, w_sc if target == "w_sc" else w_query, h=1e-5) <= 1e-4

