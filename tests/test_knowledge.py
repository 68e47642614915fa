import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossalign import numerics as nm
from crossalign.knowledge import (
    binarize,
    build_cooccurrence,
    build_vocabulary,
    concept_query,
    gcn_forward,
    normalized_adjacency,
)
from crossalign.numerics import Matrix, grad_check, rng_from_seed


def test_vocabulary_unique_maximum():
    corpus = [["a", "dog", "runs"], ["a", "dog", "sleeps"]]
    vocab = build_vocabulary(corpus, 1, stoplist={"a"})
    assert vocab.concepts == ["dog"]


def test_vocabulary_exhaustive_is_frequency_sorted():
    corpus = [["dog", "cat"], ["dog", "bird"], ["dog"]]
    vocab = build_vocabulary(corpus, 3, stoplist=set())
    assert vocab.concepts == ["dog", "bird", "cat"]


def test_vocabulary_tie_breaks_lexicographically():
    corpus = [["cat"], ["dog"]]
    vocab = build_vocabulary(corpus, 1, stoplist=set())
    assert vocab.concepts == ["cat"]


def test_vocabulary_rejects_oversized_request():
    with pytest.raises(ValueError, match="distinct"):
        build_vocabulary([["dog"]], 2, stoplist=set())


def test_vocabulary_embeddings_are_seeded_unit_rows():
    corpus = [["dog", "cat", "bird"]]
    a = build_vocabulary(corpus, 3, stoplist=set(), embed_dim=16, seed=5)
    b = build_vocabulary(corpus, 3, stoplist=set(), embed_dim=16, seed=5)
    assert np.array_equal(a.init_embeddings, b.init_embeddings)
    assert np.max(np.abs(np.linalg.norm(a.init_embeddings, axis=1) - 1.0)) <= 1e-12


TOY_CORPUS = [["c1"], ["c1"], ["c1", "c2"], ["c1", "c2"]]


def _toy_vocab():
    return build_vocabulary(TOY_CORPUS, 2, stoplist=set(), embed_dim=8, seed=0)


def test_cooccurrence_toy_counts():
    stats = build_cooccurrence(TOY_CORPUS, _toy_vocab())
    i1 = _toy_vocab().concepts.index("c1")
    i2 = _toy_vocab().concepts.index("c2")
    assert stats.appearances[i1] == 4 and stats.appearances[i2] == 2
    assert stats.counts[i1, i2] == 2 == stats.counts[i2, i1]
    assert stats.conditional[i1, i2] == 0.5
    assert stats.conditional[i2, i1] == 1.0
    # asymmetry of the conditional matrix on a symmetric count matrix
    assert stats.conditional[i1, i2] != stats.conditional[i2, i1]


def test_cooccurrence_isolated_concept_has_zero_row():
    corpus = [["solo"], ["c1", "c2"], ["c1", "c2"]]
    vocab = build_vocabulary(corpus, 3, stoplist=set(), embed_dim=4, seed=0)
    stats = build_cooccurrence(corpus, vocab)
    i = vocab.concepts.index("solo")
    assert np.all(stats.conditional[i] == 0.0)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_cooccurrence_invariants_on_random_corpora(seed):
    rng = rng_from_seed(seed, 31)
    tokens = [f"t{i}" for i in range(6)]
    corpus = [
        list(rng.choice(tokens, size=int(rng.integers(1, 5)), replace=False))
        for _ in range(int(rng.integers(1, 12)))
    ]
    distinct = len({t for cap in corpus for t in cap})
    vocab = build_vocabulary(corpus, distinct, stoplist=set(), embed_dim=4, seed=0)
    stats = build_cooccurrence(corpus, vocab)
    assert np.array_equal(stats.counts, stats.counts.T)
    assert np.all(np.diag(stats.counts) == 0)
    assert np.all(stats.conditional >= 0.0) and np.all(stats.conditional <= 1.0)


def test_binarize_continues_toy_example():
    stats = build_cooccurrence(TOY_CORPUS, _toy_vocab())
    edges = binarize(stats.conditional, 0.6)
    i1 = _toy_vocab().concepts.index("c1")
    i2 = _toy_vocab().concepts.index("c2")
    assert edges[i1, i2] == 0
    assert edges[i2, i1] == 1  # boundary: probability 1.0 >= any threshold


def test_binarize_all_zero_above_max():
    corpus = [["c1", "c2"], ["c1"], ["c2"]]
    vocab = build_vocabulary(corpus, 2, stoplist=set(), embed_dim=4, seed=0)
    stats = build_cooccurrence(corpus, vocab)
    assert stats.conditional.max() == 0.5
    assert np.all(binarize(stats.conditional, 0.51) == 0)


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

def test_gcn_empty_graph_is_identity_on_nonnegative_input():
    x = np.abs(rng_from_seed(1).standard_normal((4, 4)))
    out = gcn_forward(x, np.zeros((4, 4)), Matrix(np.eye(4)))
    assert np.max(np.abs(out.value - x)) <= 1e-12


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


def test_gcn_zero_degree_nodes_stay_finite():
    x = rng_from_seed(3).standard_normal((5, 6))
    w = Matrix(rng_from_seed(4).standard_normal((6, 7)))
    out = gcn_forward(x, np.zeros((5, 5)), w)
    assert np.all(np.isfinite(out.value))


def test_gcn_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        gcn_forward(np.ones((3, 4)), np.zeros((2, 2)), Matrix(np.ones((4, 4))))
    with pytest.raises(ValueError):
        gcn_forward(np.ones((2, 4)), np.zeros((2, 2)), Matrix(np.ones((3, 3))))


def test_gcn_clamps_negative_outputs_to_zero():
    x = np.array([[-1.0, 2.0]])
    out = gcn_forward(x, np.zeros((1, 1)), Matrix(np.eye(2)))
    assert np.array_equal(out.value, np.array([[0.0, 2.0]]))


# ---------------------------------------------------------------------------
# concept query
# ---------------------------------------------------------------------------

def test_concept_query_single_concept():
    basis = Matrix(rng_from_seed(5).standard_normal((1, 4)))
    query = Matrix(rng_from_seed(6).standard_normal((2, 4)))
    emb, attn = concept_query(query, Matrix(np.eye(4)), basis, 3.0)
    assert attn.value == pytest.approx(np.ones((2, 1)))
    unit = basis.value / np.linalg.norm(basis.value)
    assert np.max(np.abs(emb.value - np.vstack([unit, unit]))) <= 1e-12


def test_concept_query_flat_smoothness_approaches_uniform():
    basis = Matrix(rng_from_seed(7).standard_normal((5, 4)))
    query = Matrix(rng_from_seed(8).standard_normal((1, 4)))
    emb, attn = concept_query(query, Matrix(np.eye(4)), basis, 1e-9)
    assert attn.value == pytest.approx(np.full((1, 5), 0.2), abs=1e-9)
    mean_dir = basis.value.mean(axis=0, keepdims=True)
    mean_dir = mean_dir / np.linalg.norm(mean_dir)
    assert np.max(np.abs(emb.value - mean_dir)) <= 1e-6


def test_concept_query_sharp_smoothness_selects_top_concept():
    basis = Matrix(np.array([[1.0, 0.0], [0.2, np.sqrt(1 - 0.04)]]))
    query = Matrix(np.array([[1.0, 0.0]]))  # raw scores (1.0, 0.2)
    emb, attn = concept_query(query, Matrix(np.eye(2)), basis, 100.0)
    assert attn.value == pytest.approx(np.array([[1.0, 0.0]]), abs=1e-6)
    assert np.max(np.abs(emb.value - basis.value[:1])) <= 1e-6


@pytest.mark.parametrize("seed", range(5))
def test_concept_attention_rows_are_distributions(seed):
    rng = rng_from_seed(seed, 33)
    smoothness = float(rng.uniform(0.5, 20.0))
    basis = Matrix(rng.standard_normal((7, 6)))
    query = Matrix(rng.standard_normal((4, 6)))
    _, attn = concept_query(query, Matrix(np.eye(6)), basis, smoothness)
    assert np.max(np.abs(attn.value.sum(axis=1) - 1.0)) <= 1e-9
    assert np.all(attn.value >= 0.0)


@pytest.mark.parametrize("target", ["w_query", "w_sc"])
def test_grad_check_through_query_and_convolution(target):
    rng = rng_from_seed(9)
    g, d_c, f = 5, 6, 6
    x = rng.standard_normal((g, d_c))
    adjacency = (rng.uniform(size=(g, g)) > 0.5).astype(float)
    w_query = Matrix(np.eye(f))
    w_sc = Matrix(rng.standard_normal((d_c, f)))
    query = Matrix(rng.standard_normal((3, f)))
    probe = Matrix(rng.standard_normal((3, f)))

    def loss_fn(p):
        basis = gcn_forward(x, adjacency, p if target == "w_sc" else w_sc)
        emb, _ = concept_query(query, p if target == "w_query" else w_query, basis, 4.0)
        return nm.sum_all(emb * probe)

    assert grad_check(loss_fn, w_sc if target == "w_sc" else w_query, h=1e-5) <= 1e-4

