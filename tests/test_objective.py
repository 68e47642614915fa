import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossalign import numerics as nm
from crossalign import objective
from crossalign.numerics import Matrix, rng_from_seed
from crossalign.objective import (
    SimilarityMatrix,
    _contrastive_direction,
    _estimate,
    _plusplus_init,
    cosine_matrix,
    dcl_i_loss,
    dcl_loss,
    diversity_entropy,
    diversity_std,
    kmeans_cluster,
    m_dcl_loss,
    pgc_loss,
    triplet_baseline_loss,
)

from autodiff_ref import l2_normalize_rows, log_softmax_rows, row_sum
from gradcheck import grad_check

MU, GAMMA = 0.1, 0.3


def _sim(values, diagonal=None):
    """Scores as a SimilarityMatrix; diagonal positives when square unless told otherwise."""
    arr = np.asarray(values, dtype=np.float64)
    if diagonal is None:
        diagonal = arr.shape[0] == arr.shape[1]
    return SimilarityMatrix(Matrix(arr), diagonal)


def _unit_rows(rng, n, dim):
    rows = rng.standard_normal((n, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# cosine similarity
# ---------------------------------------------------------------------------

def test_cosine_identical_orthogonal_and_diagonal_pairs():
    sim = cosine_matrix(Matrix(np.eye(2)), Matrix(np.eye(2)))
    assert sim.scores.value == pytest.approx(np.eye(2))
    assert sim.diagonal


def test_cosine_forty_five_degrees():
    sim = cosine_matrix(Matrix([[np.sqrt(0.5), np.sqrt(0.5)]]), Matrix([[1.0, 0.0]]))
    assert sim.scores.item() == pytest.approx(0.707107, abs=1e-6)


def test_cosine_rectangular_has_no_positive_map():
    rng = rng_from_seed(1)
    sim = cosine_matrix(Matrix(_unit_rows(rng, 2, 4)), Matrix(_unit_rows(rng, 5, 4)))
    assert not sim.diagonal
    assert np.all(np.abs(sim.scores.value) <= 1.0 + 1e-9)


def test_diagonal_needs_a_square_matrix():
    with pytest.raises(ValueError, match="square"):
        _sim(np.ones((2, 3)), diagonal=True)
    with pytest.raises(ValueError, match="diagonal positives"):
        _sim(np.ones((2, 2)), diagonal=False).transposed()
    flipped = _sim([[0.9, 0.1], [0.4, 0.8]]).transposed()
    assert flipped.diagonal and np.array_equal(flipped.scores.value, [[0.9, 0.4], [0.1, 0.8]])


# ---------------------------------------------------------------------------
# diversity
# ---------------------------------------------------------------------------

def test_diversity_std_zero_spread_limit():
    assert diversity_std(_sim([[0.5, 0.5]], diagonal=False)).tolist() == [1.0]
    assert diversity_std(_sim([[0.5, 0.5], [0.2, 0.2]], diagonal=False)).tolist() == [1.0, 1.0]
    # exp(-eps / spread) underflows to 0 without a warning, so a tiny spread weighs as zero spread
    assert objective._weights_from_spread(np.array([1e-300, 0.0]), 0.1).tolist() == [1.0, 1.0]


def test_diversity_std_reference_value():
    # spread 0.1 beside a zero-spread anchor, whose weight before normalisation is 1
    out = diversity_std(_sim([[0.5, 0.7], [0.5, 0.5]], diagonal=False), eps=0.1)
    assert out[0] == 1.0
    # scripts/golden_values.py: div_pre_norm_sd_0.1
    assert 1.0 / out[1] == pytest.approx(1.367879441171, abs=1e-9)


def test_diversity_std_normalized_pair():
    sim = _sim([[0.5, 0.5], [0.5, 0.7]], diagonal=False)
    out = diversity_std(sim, eps=0.1)
    assert out == pytest.approx(np.array([0.731058578630, 1.0]), abs=1e-9)
    assert out.max() == 1.0


def test_diversity_requires_negatives():
    sim = _sim([[1.0]])
    with pytest.raises(ValueError, match="no negative"):
        diversity_std(sim)
    with pytest.raises(ValueError, match="no negative"):
        diversity_entropy(sim)
    # a one-pair batch gets the zero-spread limit weight instead
    for estimator in ("std", "entropy"):
        assert _estimate(sim, estimator, 0.1).tolist() == [1.0]


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_diversity_std_closed_form_and_range(seed):
    rng = rng_from_seed(seed, 41)
    n, q = int(rng.integers(2, 7)), int(rng.integers(2, 9))
    sim = _sim(rng.uniform(-1.0, 1.0, size=(n, max(n, q))))
    out = diversity_std(sim, eps=0.1)
    spread = _loop_spreads(sim)[0]
    closed = np.where(spread > 0, 1.0 + np.exp(-0.1 / np.where(spread > 0, spread, 1.0)), 1.0)
    assert np.max(np.abs(out - closed / closed.max())) <= 1e-12
    assert out.max() == 1.0
    # the weights before normalisation lie in [1, 2), so none falls to 1/2
    assert np.all(out > 0.5) and np.all(out <= 1.0)


def test_diversity_monotone_in_spread_at_equal_mean():
    # same negative mean 0.5, spreads 0.0 < 0.1 < 0.3
    sim = _sim([[0.5, 0.5], [0.4, 0.6], [0.2, 0.8]], diagonal=False)
    out = diversity_std(sim)
    assert out[0] <= out[1] <= out[2]


def _loop_spreads(sim):
    """Per-row reference: (std spread, entropy spread) of each anchor's negatives."""
    std, ent = [], []
    for n, row in enumerate(sim.scores.value):
        negs = np.delete(row, n) if sim.diagonal else row
        std.append(np.sqrt(max(float(np.mean(negs ** 2) - np.mean(negs) ** 2), 0.0)))
        z = negs - negs.max()
        p = np.exp(z) / np.exp(z).sum()
        ent.append(float(-(p * np.log2(np.where(p > 0, p, 1.0))).sum()))
    return np.array(std), np.array(ent)


@pytest.mark.parametrize("shape, diagonal", [
    ((6, 6), True),      # square, diagonal positives
    ((5, 7), False),     # every candidate is a negative
    ((32, 128), False),  # memory-bank sized
    ((2, 2), True),      # a single negative per anchor
], ids=["shape0-auto", "shape2-None", "shape4-None", "one-negative"])
@pytest.mark.parametrize("seed", range(3))
def test_diversity_matches_per_row_loop(shape, diagonal, seed):
    sim = _sim(rng_from_seed(seed, 46).uniform(-1.0, 1.0, size=shape), diagonal)
    std, ent = _loop_spreads(sim)
    for got, spread in ((diversity_std(sim, eps=0.1), std), (diversity_entropy(sim, eps=0.1), ent)):
        assert got.shape == (shape[0],)
        pre = np.where(spread > 0, 1.0 + np.exp(-0.1 / np.where(spread > 0, spread, 1.0)), 1.0)
        np.testing.assert_allclose(got, pre / pre.max(), rtol=1e-12, atol=0.0)


# exp(-1000) underflows to 0, so this anchor's softmax puts all its mass on
# one negative: zero bits, and a weight of 1 before normalisation
ZERO_ENTROPY_ROW = [0.0, -1000.0]


def test_diversity_entropy_uniform_negatives():
    out = diversity_entropy(_sim([[0.3, 0.3], ZERO_ENTROPY_ROW], diagonal=False), eps=0.1)
    assert out[0] == 1.0
    # one bit; scripts/golden_values.py: div_ent_zero_beside_1_bit
    assert out[1] == pytest.approx(0.524979187479, abs=1e-9)


def test_diversity_entropy_single_negative_limit():
    assert diversity_entropy(_sim([[0.4]], diagonal=False)).tolist() == [1.0]
    assert diversity_entropy(_sim([[0.4], [0.9]], diagonal=False)).tolist() == [1.0, 1.0]


def test_diversity_entropy_reference_value():
    out = diversity_entropy(_sim([[2.0, 0.0], ZERO_ENTROPY_ROW], diagonal=False), eps=0.1)
    assert out[0] == 1.0
    # 0.527065341003 bits; scripts/golden_values.py: div_ent_zero_beside_2_0
    assert out[1] == pytest.approx(0.547290672460, abs=1e-9)


def test_diversity_entropy_subnormal_spread_weighs_as_zero_spread():
    # p = 5e-324 on the second negative: a subnormal entropy, where eps / spread would overflow
    out = diversity_entropy(_sim([[0.0, -744.0], [0.0, 0.0]], diagonal=False), eps=0.1)
    # one bit on the second anchor; scripts/golden_values.py: div_ent_zero_beside_1_bit
    assert out[0] == pytest.approx(0.524979187479, abs=1e-9) and out[1] == 1.0


@pytest.mark.parametrize("eps", [1e-300, 0.1, 3.0, 1e300])
def test_weights_from_spread_match_the_plain_formula_around_eps_over_40(eps):
    # a spread of eps / 40 or below weighs 1 before normalisation, as the plain formula rounds it
    edge = eps / 40.0
    spread = np.concatenate([edge * np.linspace(0.5, 2.0, 61),
                             [np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf), eps, 0.0]])
    x = eps / np.where(spread > 0.0, spread, 1.0)
    plain = np.where(spread > 0.0, 1.0 / (1.0 / (1.0 + np.exp(-x))), 1.0)
    assert np.array_equal(objective._weights_from_spread(spread, eps), plain / plain.max())


# ---------------------------------------------------------------------------
# in-batch contrastive losses
# ---------------------------------------------------------------------------

def test_dcl_i_single_pair():
    loss = dcl_i_loss(_sim([[1.0]]), MU, GAMMA)
    assert loss.item() == pytest.approx(-1.386294361120, abs=1e-9)


def test_dcl_i_identity_two():
    loss = dcl_i_loss(_sim(np.eye(2)), MU, GAMMA)
    assert loss.item() == pytest.approx(-1.376576890805, abs=1e-9)


def test_dcl_i_increases_when_a_negative_rises():
    base = np.eye(3) * 0.9
    lo = dcl_i_loss(_sim(base), MU, GAMMA).item()
    bumped = base.copy()
    bumped[0, 2] += 0.2
    hi = dcl_i_loss(_sim(bumped), MU, GAMMA).item()
    assert hi > lo


def test_dcl_i_rejects_bad_positive_and_temperature():
    with pytest.raises(ValueError, match="positive similarity"):
        dcl_i_loss(_sim([[-1.0, 0.0], [0.0, 0.5]]), MU, GAMMA)
    with pytest.raises(ValueError, match="mu"):
        dcl_i_loss(_sim(np.eye(2)), 0.0, GAMMA)
    with pytest.raises(ValueError, match="square"):
        dcl_i_loss(_sim(np.ones((2, 3))), MU, GAMMA)


def test_dcl_reduces_to_insensitive_with_unit_diversity():
    rng = rng_from_seed(2)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        sim = _sim(rng.uniform(-0.9, 0.9, size=(n, n)) + np.eye(n) * 0.5)
        full = dcl_loss(sim, np.ones(n), np.ones(n), MU, GAMMA).item()
        plain = dcl_i_loss(sim, MU, GAMMA).item()
        assert abs(full - plain) <= 1e-12


def test_dcl_single_negative_batches_degenerate_to_insensitive():
    # with one negative per anchor the spread is zero, so every weight is 1
    rng = rng_from_seed(3)
    sim = _sim(rng.uniform(-0.5, 0.5, size=(2, 2)) + np.eye(2) * 0.4)
    div_f = diversity_std(sim)
    div_b = diversity_std(sim.transposed())
    assert np.array_equal(div_f, np.ones(2))
    full = dcl_loss(sim, div_f, div_b, MU, GAMMA).item()
    assert full == pytest.approx(dcl_i_loss(sim, MU, GAMMA).item(), abs=1e-15)


def test_dcl_reference_value_with_halved_anchor_weight():
    sim = _sim(np.eye(2))
    loss = dcl_loss(sim, np.array([0.5, 1.0]), np.ones(2), MU, GAMMA)
    assert loss.item() == pytest.approx(-1.378882474127, abs=1e-9)
    # forward direction alone, via subtraction of the known backward value
    assert loss.item() - dcl_i_loss(_sim(np.eye(2)), MU, GAMMA).item() / 2 == pytest.approx(
        -0.690594028724, abs=1e-9
    )


def test_dcl_rejects_nonpositive_diversity():
    with pytest.raises(ValueError, match="diversity"):
        dcl_loss(_sim(np.eye(2)), np.array([0.0, 1.0]), np.ones(2), MU, GAMMA)


@pytest.mark.parametrize("seed", range(5))
def test_losses_are_permutation_equivariant(seed):
    rng = rng_from_seed(seed, 42)
    n = 6
    s = rng.uniform(-0.8, 0.8, size=(n, n)) + np.eye(n) * 0.3
    perm = rng.permutation(n)
    sp = s[np.ix_(perm, perm)]
    assert dcl_i_loss(_sim(sp), MU, GAMMA).item() == pytest.approx(
        dcl_i_loss(_sim(s), MU, GAMMA).item(), abs=1e-12
    )
    div_f, div_b = diversity_std(_sim(s)), diversity_std(_sim(s).transposed())
    assert dcl_loss(_sim(sp), div_f[perm], div_b[perm], MU, GAMMA).item() == pytest.approx(
        dcl_loss(_sim(s), div_f, div_b, MU, GAMMA).item(), abs=1e-12
    )
    # permuted diversity equals diversity of the permuted matrix
    assert np.max(np.abs(diversity_std(_sim(sp)) - div_f[perm])) <= 1e-12


def test_triplet_reference_value():
    loss = triplet_baseline_loss(_sim([[0.9, 0.8], [0.1, 0.7]]), 0.2)
    # scripts/golden_values.py: triplet_example
    assert loss.item() == pytest.approx(0.2, abs=1e-9)


def test_triplet_hinges_on_each_anchors_hardest_negative():
    loss = triplet_baseline_loss(_sim([[0.9, 0.8, 0.6], [0.3, 0.7, 0.65], [0.5, 0.2, 0.4]]), 0.2)
    # scripts/golden_values.py: triplet_example_3x3; the sum over all negatives is 0.5667
    assert loss.item() == pytest.approx(0.433333333333, abs=1e-9)
    # a one-pair batch has no negative
    assert triplet_baseline_loss(_sim([[0.3]]), 0.2).item() == 0.0


def test_triplet_hardest_negative_tie_goes_to_the_lowest_index():
    scores = Matrix([[0.9, 0.5, 0.5], [0.1, 0.9, 0.1], [0.0, 0.0, 0.9]])
    nm.backward(triplet_baseline_loss(SimilarityMatrix(scores, True), 1.0))
    # rows pick columns 1, 0, 0 and columns pick rows 1, 0, 0; each pick weighs 1/3
    picks = np.array([[0, 2, 1], [2, 0, 0], [1, 0, 0]]) / 3.0
    off_diag = ~np.eye(3, dtype=bool)
    assert scores.grad[off_diag] == pytest.approx(picks[off_diag], abs=1e-15)


def _hardest_margins(scores, margin):
    """Per anchor, both ways: the gap to the second-hardest negative and the hinge argument."""
    out = []
    for s in (scores, scores.T):
        negs = np.sort(s[~np.eye(len(s), dtype=bool)].reshape(len(s), -1), axis=1)
        out += [negs[:, -1] - negs[:, -2], margin - np.diagonal(s) + negs[:, -1]]
    return np.concatenate(out)


@pytest.mark.parametrize("seed", range(3))
def test_grad_check_triplet_away_from_ties(seed):
    scores = rng_from_seed(seed, 45).uniform(-0.5, 0.5, size=(5, 5)) + np.eye(5) * 0.3
    # a finite-difference step moves no choice of hardest negative and crosses no hinge kink
    assert np.min(np.abs(_hardest_margins(scores, 0.2))) > 1e-3
    assert grad_check(lambda p: triplet_baseline_loss(SimilarityMatrix(p, True), 0.2),
                      Matrix(scores), h=1e-6) <= 1e-4


def test_triplet_rejects_off_diagonal_positives_and_negative_margin():
    with pytest.raises(ValueError, match="diagonal positives"):
        triplet_baseline_loss(_sim(np.ones((2, 3))), 0.2)
    with pytest.raises(ValueError, match="diagonal positives"):
        triplet_baseline_loss(_sim(np.eye(2), diagonal=False), 0.2)
    with pytest.raises(ValueError, match="margin"):
        triplet_baseline_loss(_sim(np.eye(2)), -0.1)


# ---------------------------------------------------------------------------
# memory-bank contrastive loss
# ---------------------------------------------------------------------------

def _batch_div(v, w):
    """The in-batch diversity pair of unit rows v, w, as DCL and the memory loss share it."""
    sim = cosine_matrix(v, w)
    return _estimate(sim, "std", 0.1), _estimate(sim.transposed(), "std", 0.1)


def test_m_dcl_single_anchor_orthogonal_bank():
    anchor = Matrix([[1.0, 0.0]])
    bank = np.array([[0.0, 1.0]])
    loss = m_dcl_loss(anchor, anchor, anchor.value, anchor.value, bank, bank,
                      *_batch_div(anchor, anchor), MU, GAMMA)
    assert loss.item() == pytest.approx(2 * -0.688288445403, abs=1e-9)


def test_m_dcl_matches_in_batch_loss_on_degenerate_batch():
    # identical rows per modality: every anchor's in-batch negatives equal
    # the bank contents, and both diversity levels collapse to 1
    rng = rng_from_seed(4)
    v_row = _unit_rows(rng, 1, 6)
    w_row = _unit_rows(rng, 1, 6)
    n = 3
    batch_v = Matrix(np.tile(v_row, (n, 1)))
    batch_w = Matrix(np.tile(w_row, (n, 1)))
    mem = m_dcl_loss(batch_v, batch_w, batch_v.value, batch_w.value,
                     np.tile(v_row, (n - 1, 1)), np.tile(w_row, (n - 1, 1)),
                     *_batch_div(batch_v, batch_w), MU, GAMMA)
    sim = cosine_matrix(batch_v, batch_w)
    plain = dcl_loss(sim, diversity_std(sim), diversity_std(sim.transposed()), MU, GAMMA)
    assert mem.item() == pytest.approx(plain.item(), abs=1e-12)


def test_m_dcl_saturated_easy_negatives_vanishing_neg_term():
    anchor = Matrix([[1.0, 0.0]])
    far = np.array([[-1.0, 0.0]] * 4)
    loss = m_dcl_loss(anchor, anchor, anchor.value, anchor.value, far, far,
                      *_batch_div(anchor, anchor), MU, GAMMA)
    # both directions: negative term ~ mu*log(1 + 4 e^{-13}) ~ 0, positive -log 2
    assert loss.item() == pytest.approx(2 * -np.log(2.0), abs=1e-4)


def test_m_dcl_rejects_empty_bank_and_size_mismatch():
    anchor = Matrix([[1.0, 0.0]])
    filled = np.array([[0.0, 1.0]])
    div = _batch_div(anchor, anchor)
    with pytest.raises(ValueError, match="non-empty"):
        m_dcl_loss(anchor, anchor, anchor.value, anchor.value, np.zeros((0, 2)), filled, *div,
                   MU, GAMMA)
    two = Matrix(np.eye(2))
    with pytest.raises(ValueError, match="batch sizes"):
        m_dcl_loss(anchor, two, anchor.value, two.value, filled, filled, *div, MU, GAMMA)


def test_m_dcl_bank_rows_receive_no_gradient():
    rng = rng_from_seed(5)
    batch_v = Matrix(_unit_rows(rng, 3, 4))
    batch_w = Matrix(_unit_rows(rng, 3, 4))
    bank = _unit_rows(rng, 5, 4)
    loss = m_dcl_loss(batch_v, batch_w, batch_v.value, batch_w.value, bank, bank,
                      *_batch_div(batch_v, batch_w), MU, GAMMA)
    nm.backward(loss)
    assert batch_v.grad is not None and np.any(batch_v.grad != 0.0)
    assert batch_w.grad is not None and np.any(batch_w.grad != 0.0)


# ---------------------------------------------------------------------------
# gradient checks with diversity held constant
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(2))
def test_grad_checks_through_losses(seed, monkeypatch):
    rng = rng_from_seed(seed, 43)
    n, f = 5, 6
    v = Matrix(rng.standard_normal((n, f)))
    w = Matrix(rng.standard_normal((n, f)))
    # the losses take unit rows; the checks differentiate through the normalisation
    v_unit, w_unit = Matrix(l2_normalize_rows(v).value), Matrix(l2_normalize_rows(w).value)
    sim0 = cosine_matrix(v_unit, w_unit)
    div_f, div_b = diversity_std(sim0), diversity_std(sim0.transposed())

    def dcl_i_of_v(p):
        return dcl_i_loss(cosine_matrix(l2_normalize_rows(p), w_unit), MU, GAMMA)

    def dcl_of_w(p):
        return dcl_loss(cosine_matrix(v_unit, l2_normalize_rows(p)), div_f, div_b, MU, GAMMA)

    assert grad_check(dcl_i_of_v, v, h=1e-5) <= 1e-4
    assert grad_check(dcl_of_w, w, h=1e-5) <= 1e-4

    bank = _unit_rows(rng, 7, f)
    pos_v, pos_w = _unit_rows(rng, n, f), _unit_rows(rng, n, f)
    div = _batch_div(v_unit, w_unit)
    bank_div = [diversity_std(SimilarityMatrix(Matrix(a.value @ bank.T), False))
                for a in (v_unit, w_unit)]
    # each direction weighs an anchor by the mean of its in-batch and its bank diversity
    want = sum(_contrastive_direction(Matrix(a.value @ bank.T),
                                      Matrix((a.value * pos).sum(axis=1, keepdims=True)),
                                      (batch + in_bank) / 2.0, MU, GAMMA).item()
               for a, pos, batch, in_bank in zip((v_unit, w_unit), (pos_w, pos_v), div, bank_div))
    assert m_dcl_loss(v_unit, w_unit, pos_v, pos_w, bank, bank, *div, MU, GAMMA).item() == \
        pytest.approx(want, abs=1e-15)
    # the bank weights stay at the base point's while p moves
    pinned = itertools.cycle(bank_div)
    monkeypatch.setattr(objective, "_estimate", lambda sim, estimator, eps: next(pinned))

    def mem_of_v(p):
        return m_dcl_loss(l2_normalize_rows(p), w_unit, pos_v, pos_w, bank, bank, *div, MU, GAMMA)

    assert grad_check(mem_of_v, v, h=1e-5) <= 1e-4

    classifier = Matrix(rng.standard_normal((4, f)))
    labels = rng.integers(0, 4, size=n)

    def pgc_of_classifier(p):
        return pgc_loss(v, w, p, labels)

    assert grad_check(pgc_of_classifier, classifier, h=1e-5) <= 1e-4
    assert grad_check(lambda p: pgc_loss(p, w, classifier, labels), v, h=1e-5) <= 1e-4


# ---------------------------------------------------------------------------
# the fused contrastive direction against the composed graph it replaces
# ---------------------------------------------------------------------------

def _log(a):
    av = a.value
    return nm.node(np.log(av), (a,), lambda g: (g / av,))


def _composed_direction(scores, positives, neg_mask, div, mu, gamma):
    """The direction as the elementary-op graph the fused node must reproduce bit for bit."""
    n = scores.rows
    inv_temp = Matrix((1.0 / (mu * div)).reshape(n, 1))
    z = nm.exp((scores + -gamma) * inv_temp)
    if neg_mask is not None:
        z = z * Matrix(neg_mask)
    per_anchor = _log(row_sum(z) + 1.0) * mu + _log(positives + 1.0) * -1.0
    return nm.sum_all(per_anchor) * (1.0 / n)


def _direction_case(seed, n, q):
    rng = rng_from_seed(seed, 44)
    scores = rng.uniform(-0.3, 0.7, size=(n, q))
    positives = rng.uniform(-0.5, 0.9, size=(n, 1))
    div = rng.uniform(0.5, 1.0, size=n)
    return scores, positives, div


@pytest.mark.parametrize("seed", range(3))
def test_fused_direction_equals_composed_graph_in_batch(seed):
    scores, _, div = _direction_case(seed, 6, 6)
    fused_s, ref_s = Matrix(scores), Matrix(scores)
    fused = _contrastive_direction(fused_s, None, div, MU, GAMMA)
    eye = np.eye(6)
    ref = _composed_direction(ref_s, row_sum(ref_s * Matrix(eye)), 1.0 - eye, div, MU, GAMMA)
    assert fused.value.tobytes() == ref.value.tobytes()
    assert fused._parents == (fused_s,)
    # a non-unit upstream grad exercises the scale c = g * mu / N
    nm.backward(fused * 1.7)
    nm.backward(ref * 1.7)
    assert fused_s.grad.tobytes() == ref_s.grad.tobytes()


@pytest.mark.parametrize("seed", range(3))
def test_fused_direction_equals_composed_graph_bank(seed):
    scores, positives, div = _direction_case(seed, 5, 9)
    fused_s, fused_p = Matrix(scores), Matrix(positives)
    ref_s, ref_p = Matrix(scores), Matrix(positives)
    fused = _contrastive_direction(fused_s, fused_p, div, MU, GAMMA)
    ref = _composed_direction(ref_s, ref_p, None, div, MU, GAMMA)
    assert fused.value.tobytes() == ref.value.tobytes()
    assert fused._parents == (fused_s, fused_p)
    nm.backward(fused * -0.6)
    nm.backward(ref * -0.6)
    assert fused_s.grad.tobytes() == ref_s.grad.tobytes()
    assert fused_p.grad.tobytes() == ref_p.grad.tobytes()


@pytest.mark.parametrize("seed", range(2))
def test_grad_check_fused_direction(seed):
    scores, positives, div = _direction_case(seed, 5, 7)
    square = Matrix(scores[:, :5])
    assert not np.allclose(div, 1.0)
    assert grad_check(lambda p: _contrastive_direction(p, None, div, MU, GAMMA), square,
                      h=1e-5) <= 1e-4
    bank, pos = Matrix(scores), Matrix(positives)
    assert grad_check(lambda p: _contrastive_direction(p, pos, div, MU, GAMMA), bank,
                      h=1e-5) <= 1e-4
    assert grad_check(lambda p: _contrastive_direction(bank, p, div, MU, GAMMA), pos,
                      h=1e-5) <= 1e-4


def test_fused_direction_input_checks_and_overflow():
    scores = Matrix([[0.5, 0.1, -0.2], [0.0, 0.3, 0.4]])
    with pytest.raises(ValueError, match="one diversity value per anchor"):
        _contrastive_direction(scores, Matrix([[0.5], [0.5]]), np.ones(3), MU, GAMMA)
    with pytest.raises(ValueError, match="diversity weights must be positive"):
        _contrastive_direction(scores, Matrix([[0.5], [0.5]]), np.array([1.0, -0.5]), MU, GAMMA)
    with pytest.raises(ValueError, match="positive similarity is at or below -1"):
        _contrastive_direction(scores, Matrix([[0.5], [-1.0]]), None, MU, GAMMA)
    # 0.5 / 1e-3 = 500 is finite to exp, 0.8 / 1e-3 = 800 is not
    assert np.isfinite(_contrastive_direction(scores, Matrix([[0.5], [0.5]]), None,
                                              1e-3, 0.0).item())
    hot = Matrix([[0.8, 0.1, -0.2], [0.0, 0.3, 0.4]])
    with pytest.raises(nm.NonFiniteError, match="_contrastive_direction: exp overflows"):
        _contrastive_direction(hot, Matrix([[0.5], [0.5]]), None, 1e-3, 0.0)
    # the in-batch form checks the masked diagonal too, as the composed graph did
    with pytest.raises(nm.NonFiniteError, match="_contrastive_direction: exp overflows"):
        _contrastive_direction(Matrix([[0.8, 0.1], [0.0, 0.3]]), None, None, 1e-3, 0.0)


# ---------------------------------------------------------------------------
# constant arrays held by the nodes that read them, against the composed
# graphs that made them constant leaves
# ---------------------------------------------------------------------------

def _leaves(*arrays):
    """Two independent leaf tuples of the same values: one for the node under test, one for its reference."""
    return tuple(Matrix(a) for a in arrays), tuple(Matrix(a) for a in arrays)


def _assert_same_bits(fused, ref, fused_leaves, ref_leaves, upstream):
    assert fused.value.tobytes() == ref.value.tobytes()
    nm.backward(fused * upstream)
    nm.backward(ref * upstream)
    for got, want in zip(fused_leaves, ref_leaves):
        assert got.grad.tobytes() == want.grad.tobytes()


def _composed_m_dcl(batch_v, batch_w, pos_v, pos_w, queue_v, queue_w, div_fwd, div_bwd):
    """``m_dcl_loss`` with bank scores and positives composed of elementary ops on constant leaves."""
    def one_direction(anchors, pos_rows, bank, div_batch):
        bank_sims = anchors @ Matrix(bank).T
        positives = row_sum(anchors * Matrix(pos_rows))
        div = (div_batch + _estimate(SimilarityMatrix(bank_sims, False), "std", 0.1)) / 2.0
        return _contrastive_direction(bank_sims, positives, div, MU, GAMMA)

    return (one_direction(batch_v, pos_w, queue_w, div_fwd)
            + one_direction(batch_w, pos_v, queue_v, div_bwd))


@pytest.mark.parametrize("seed", range(3))
def test_m_dcl_bank_scores_and_positives_equal_the_composed_graph(seed):
    rng = rng_from_seed(seed, 46)
    # sizes at which BLAS rounds a product with a transposed view of the bank differently
    n, f, q = 16, 32, 40
    (v, w), (ref_v, ref_w) = _leaves(_unit_rows(rng, n, f), _unit_rows(rng, n, f))
    pos_v, pos_w = _unit_rows(rng, n, f), _unit_rows(rng, n, f)
    queue_v, queue_w = _unit_rows(rng, q, f), _unit_rows(rng, q, f)
    div = _batch_div(v, w)
    fused = m_dcl_loss(v, w, pos_v, pos_w, queue_v, queue_w, *div, MU, GAMMA)
    ref = _composed_m_dcl(ref_v, ref_w, pos_v, pos_w, queue_v, queue_w, *div)
    _assert_same_bits(fused, ref, (v, w), (ref_v, ref_w), 1.3)


def _composed_triplet(sim, margin):
    """``triplet_baseline_loss`` with the positive column and the hardest-negative mask as constant leaves."""
    n = sim.scores.rows
    eye = np.eye(n)
    diagonal = np.eye(n, dtype=bool)

    def direction(scores):
        negs = np.where(diagonal, -np.inf, scores.value)
        hardest = (np.arange(n) == negs.argmax(axis=1)[:, None]) & ~diagonal
        hinge = nm.relu((scores + row_sum(scores * Matrix(eye)) * -1.0) + margin) * Matrix(hardest)
        return nm.sum_all(hinge) * (1.0 / n)

    return direction(sim.scores) + direction(nm.transpose(sim.scores))


@pytest.mark.parametrize("seed", range(3))
def test_triplet_equals_the_composed_graph(seed):
    scores = rng_from_seed(seed, 47).uniform(-0.5, 0.5, size=(7, 7)) + np.eye(7) * 0.3
    (fused_s,), (ref_s,) = _leaves(scores)
    fused = triplet_baseline_loss(SimilarityMatrix(fused_s, True), 0.2)
    ref = _composed_triplet(SimilarityMatrix(ref_s, True), 0.2)
    _assert_same_bits(fused, ref, (fused_s,), (ref_s,), -0.7)


def _composed_pgc(vc, wc, classifier, labels):
    """``pgc_loss`` with the one-hot mask as a constant leaf."""
    n = vc.rows
    one_hot = np.zeros((n, classifier.rows))
    one_hot[np.arange(n), labels] = 1.0
    pick = Matrix(one_hot)

    def ce(embeds):
        return nm.sum_all(log_softmax_rows(embeds @ classifier.T) * pick) * (-1.0 / n)

    return ce(vc) + ce(wc)


@pytest.mark.parametrize("seed", range(3))
def test_pgc_equals_the_composed_graph(seed):
    rng = rng_from_seed(seed, 48)
    fused_leaves, ref_leaves = _leaves(_unit_rows(rng, 6, 5), _unit_rows(rng, 6, 5),
                                       rng.standard_normal((4, 5)))
    labels = rng.integers(0, 4, size=6)
    fused = pgc_loss(*fused_leaves, labels)
    ref = _composed_pgc(*ref_leaves, labels)
    _assert_same_bits(fused, ref, fused_leaves, ref_leaves, 1.9)


# ---------------------------------------------------------------------------
# k-means prototypes
# ---------------------------------------------------------------------------

def test_kmeans_two_clear_clusters():
    pts = np.array([[0.0], [0.1], [10.0], [10.1]])
    state = kmeans_cluster(pts, 2, seed=0)
    got = sorted(state.centroids.ravel().tolist())
    assert got[0] == (0.0 + 0.1) / 2
    assert got[1] == (10.0 + 10.1) / 2
    assert state.labels[0] == state.labels[1]
    assert state.labels[2] == state.labels[3]
    assert state.labels[0] != state.labels[2]


def test_kmeans_every_point_its_own_cluster():
    pts = rng_from_seed(6).standard_normal((5, 3))
    state = kmeans_cluster(pts, 5, seed=1)
    assert state.inertia_path[-1] == 0.0
    assert sorted(state.labels.tolist()) == list(range(5))


def test_kmeans_duplicate_points_single_cluster():
    pts = np.tile(np.array([[2.0, -1.0]]), (4, 1))
    state = kmeans_cluster(pts, 1, seed=2)
    assert np.array_equal(state.centroids, np.array([[2.0, -1.0]]))


def test_kmeans_rejects_bad_counts():
    pts = np.zeros((3, 2))
    with pytest.raises(ValueError):
        kmeans_cluster(pts, 0)
    with pytest.raises(ValueError):
        kmeans_cluster(pts, 4)


@pytest.mark.parametrize("seed", range(6))
def test_kmeans_inertia_non_increasing_and_assignment_optimal(seed):
    rng = rng_from_seed(seed, 44)
    pts = rng.standard_normal((30, 4))
    state = kmeans_cluster(pts, 5, seed=seed)
    path = state.inertia_path
    assert all(path[i + 1] <= path[i] + 1e-9 for i in range(len(path) - 1))
    dists = ((pts[:, None, :] - state.centroids[None, :, :]) ** 2).sum(axis=2)
    assert np.array_equal(state.labels, dists.argmin(axis=1))


def _loop_plusplus_init(points, k, rng):
    """Reference greedy k-means++: candidates scored one at a time, first lowest cost kept."""
    m = points.shape[0]
    n_candidates = 2 + int(np.log2(k)) if k > 1 else 1
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[int(rng.integers(m))]
    dist_sq = ((points - centroids[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = dist_sq.sum()
        if total > 0.0:
            candidates = rng.choice(m, size=n_candidates, p=dist_sq / total)
        else:
            candidates = rng.integers(m, size=n_candidates)
        best_idx, best_cost, best_dist = -1, np.inf, dist_sq
        for idx in candidates:
            trial = np.minimum(dist_sq, ((points - points[int(idx)]) ** 2).sum(axis=1))
            cost = trial.sum()
            if cost < best_cost:
                best_idx, best_cost, best_dist = int(idx), cost, trial
        centroids[i] = points[best_idx]
        dist_sq = best_dist
    return centroids


def _direct_lloyd(pts, k, centroids, max_iters=100):
    """Reference Lloyd: assignment over the full [m, k, d] array, no update after the last.

    A run stops when its labels repeat or its inertia does not fall.
    """
    labels = None
    path = []
    for step in range(max_iters):
        if step:
            for j in range(k):
                members = pts[labels == j]
                if members.shape[0] > 0:
                    centroids[j] = members.mean(axis=0)
                else:
                    far = int(point_cost.argmax())
                    centroids[j] = pts[far]
                    point_cost[far] = 0.0
        dists = ((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = dists.argmin(axis=1)
        point_cost = dists[np.arange(pts.shape[0]), new_labels]
        path.append(float(point_cost.sum()))
        settled = labels is not None and (np.array_equal(new_labels, labels) or path[-1] >= path[-2])
        labels = new_labels
        if settled:
            break
    return labels, centroids, path


def _direct_kmeans(pts, k, seed, n_init=10, max_iters=100):
    """Reference k-means: the loop seeding, then the direct Lloyd; first lowest inertia wins."""
    best = None
    for restart in range(n_init):
        centroids = _loop_plusplus_init(pts, k, rng_from_seed(seed, 77, restart))
        run = _direct_lloyd(pts, k, centroids, max_iters)
        if best is None or run[2][-1] < best[2][-1]:
            best = run
    return best


def _kmeans_data(kind, seed):
    rng = rng_from_seed(seed, 47)
    if kind == "gaussian":
        return rng.standard_normal((60, 5)) + 3.0 * rng.integers(0, 4, size=(60, 1))
    if kind == "offset":  # the expansion |x|^2 - 2x.c + |c|^2 loses the 0.01 scale here
        return 1e5 + 0.01 * rng.standard_normal((40, 3))
    if kind == "far_offset":  # its rounding here is a hundred times the distances
        return 1e7 + 0.01 * rng.standard_normal((40, 3))
    if kind == "line":  # numpy sums one column pairwise, not row by row
        return rng.standard_normal((60, 1)) + 3.0 * rng.integers(0, 4, size=(60, 1))
    if kind == "duplicates":  # 4 distinct points: k >= 5 leaves clusters empty, so reseeds run
        return rng.standard_normal((4, 3))[rng.integers(0, 4, size=48)]
    # small-integer grid: many points sit exactly halfway between centroids
    return rng.integers(-2, 3, size=(50, 2)).astype(np.float64)


KMEANS_KINDS = ["gaussian", "offset", "far_offset", "grid", "line", "duplicates"]


@pytest.mark.parametrize("kind", KMEANS_KINDS)
@pytest.mark.parametrize("k", [2, 5, 9])
@pytest.mark.parametrize("seed", range(3))
def test_kmeans_matches_direct_distances(kind, k, seed):
    pts = _kmeans_data(kind, seed)
    for restart in range(3):
        assert np.array_equal(_plusplus_init(pts, k, rng_from_seed(seed, 77, restart)),
                              _loop_plusplus_init(pts, k, rng_from_seed(seed, 77, restart)))
    labels, centroids, path = _direct_kmeans(pts, k, seed)
    state = kmeans_cluster(pts, k, seed=seed)
    assert np.array_equal(state.labels, labels)
    assert np.array_equal(state.centroids, centroids)
    assert state.inertia_path == path


@pytest.mark.parametrize("kind", ["gaussian", "offset", "grid", "line", "duplicates"])
@pytest.mark.parametrize("max_iters", [1, 2, 3])
def test_kmeans_capped_run_describes_one_assignment(kind, max_iters):
    pts = _kmeans_data(kind, 0)
    state = kmeans_cluster(pts, 5, max_iters=max_iters, n_init=1, seed=0)
    dists = ((pts[:, None, :] - state.centroids[None, :, :]) ** 2).sum(axis=2)
    assert np.array_equal(state.labels, dists.argmin(axis=1))
    assert state.inertia_path[-1] == float(dists[np.arange(pts.shape[0]), state.labels].sum())
    assert len(state.inertia_path) <= max_iters
    labels, centroids, path = _direct_kmeans(pts, 5, 0, n_init=1, max_iters=max_iters)
    assert np.array_equal(state.labels, labels)
    assert np.array_equal(state.centroids, centroids)
    assert state.inertia_path == path


@pytest.mark.parametrize("kind", KMEANS_KINDS)
@pytest.mark.parametrize("k", [2, 5, 9])
def test_kmeans_warm_start_matches_direct_lloyd(kind, k):
    pts = _kmeans_data(kind, 1)
    # start from another draw's centroids, as training does from last epoch's
    start = kmeans_cluster(_kmeans_data(kind, 2), k, seed=2).centroids
    state = kmeans_cluster(pts, k, start_centroids=start)
    labels, centroids, path = _direct_lloyd(pts, k, start.copy())
    assert np.array_equal(state.labels, labels)
    assert np.array_equal(state.centroids, centroids)
    assert state.inertia_path == path


def _lockstep_runs(kind, k, max_iters):
    """``objective._lloyd`` over six k-means++ starts of one data kind, and those starts."""
    pts = _kmeans_data(kind, 0)
    starts = np.stack([_loop_plusplus_init(pts, k, rng_from_seed(0, 77, r)) for r in range(6)])
    centroids = starts.copy()
    labels, paths = objective._lloyd(pts, centroids, max_iters)
    return pts, starts, centroids, labels, paths


def _assert_each_run_is_direct(pts, starts, centroids, labels, paths, max_iters):
    for r, start in enumerate(starts):
        want_labels, want_centroids, want_path = _direct_lloyd(pts, start.shape[0], start.copy(),
                                                               max_iters)
        assert np.array_equal(labels[r], want_labels)
        assert centroids[r].tobytes() == want_centroids.tobytes()
        assert paths[r] == want_path


@pytest.mark.parametrize("kind", KMEANS_KINDS)
@pytest.mark.parametrize("k", [2, 5, 9])
@pytest.mark.parametrize("max_iters", [1, 3, 4, 100])
def test_kmeans_every_lockstep_run_equals_its_direct_run(kind, k, max_iters):
    _assert_each_run_is_direct(*_lockstep_runs(kind, k, max_iters), max_iters)


def test_kmeans_lockstep_runs_stop_at_their_own_steps():
    # uncapped, these runs settle after 6, 3, 4, 4, 4 and 4 assignments
    free = [len(path) for path in _lockstep_runs("offset", 5, 100)[4]]
    capped = [len(path) for path in _lockstep_runs("offset", 5, 4)[4]]
    assert len(set(free)) > 1 and max(free) > 4
    assert capped == [min(n, 4) for n in free] and set(capped) == {3, 4}


@pytest.mark.parametrize("k", [5, 9])
def test_kmeans_settles_on_fewer_distinct_points_than_k(k):
    # reseeds move labels between copies of one point for ever; the inertia stops falling at once
    assert all(len(path) <= 3 for path in _lockstep_runs("duplicates", k, 100)[4])
    for seed in range(3):
        assert len(kmeans_cluster(_kmeans_data("duplicates", seed), k, seed=seed).inertia_path) <= 3


def test_kmeans_reseeds_each_runs_empty_clusters_in_index_order():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0], [10.0, 0.0], [11.0, 0.0]])
    # clusters 1 and 2 start empty: 1 takes the farthest point, (3, 0), then 2 the next, (0, 0)
    start = np.array([[1.0, 0.0], [100.0, 0.0], [200.0, 0.0], [10.5, 0.0]])
    state = kmeans_cluster(pts, 4, max_iters=2, start_centroids=start)
    assert state.centroids.tolist() == [[4 / 3, 0.0], [3.0, 0.0], [0.0, 0.0], [10.5, 0.0]]
    # in lockstep each run reseeds from its own point costs: here 2 takes (1, 0)
    starts = np.stack([start, [[0.0, 0.0], [100.0, 0.0], [200.0, 0.0], [11.0, 0.0]]])
    centroids = starts.copy()
    labels, paths = objective._lloyd(pts, centroids, 2)
    assert centroids[1, 2].tolist() == [1.0, 0.0]
    _assert_each_run_is_direct(pts, starts, centroids, labels, paths, 2)


def test_kmeans_equal_inertia_restarts_resolve_to_the_first(monkeypatch):
    pts = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
    # both starts settle on the same two pairs, with their cluster ids swapped
    starts = iter([pts[[2, 0]], pts[[0, 2]]])
    monkeypatch.setattr(objective, "_plusplus_init", lambda points, k, rng: next(starts).copy())
    state = kmeans_cluster(pts, 2, seed=0, n_init=2)
    assert state.labels.tolist() == [1, 1, 0, 0]
    assert state.centroids.tolist() == [[10.0, 0.5], [0.0, 0.5]]
    assert state.inertia_path[-1] == 1.0


@pytest.mark.parametrize("kind", ["gaussian", "offset", "grid"])
def test_kmeans_warm_start_from_a_fixpoint_stays_there(kind):
    pts = _kmeans_data(kind, 0)
    cold = kmeans_cluster(pts, 5, seed=0)
    warm = kmeans_cluster(pts, 5, start_centroids=cold.centroids)
    assert np.array_equal(warm.labels, cold.labels)
    assert warm.centroids.tobytes() == cold.centroids.tobytes()
    assert warm.inertia_path[-1] == cold.inertia_path[-1]
    assert len(warm.inertia_path) == 2


def test_kmeans_warm_start_never_writes_the_callers_array():
    pts = _kmeans_data("gaussian", 0)
    start = pts[:5].copy()
    before = start.copy()
    state = kmeans_cluster(pts, 5, start_centroids=start)
    assert np.array_equal(start, before)
    assert not np.array_equal(state.centroids, before)
    assert not np.shares_memory(state.centroids, start)


@pytest.mark.parametrize("start, match", [
    (np.zeros((4, 5)), r"start_centroids must have shape \(5, 5\), got \(4, 5\)"),
    (np.zeros((5, 4)), r"start_centroids must have shape \(5, 5\), got \(5, 4\)"),
    (np.zeros(25), r"start_centroids must have shape \(5, 5\), got \(25,\)"),
    (np.full((5, 5), np.nan), "start_centroids must be finite"),
    (np.full((5, 5), np.inf), "start_centroids must be finite"),
])
def test_kmeans_rejects_a_bad_start(start, match):
    with pytest.raises(ValueError, match=match):
        kmeans_cluster(_kmeans_data("gaussian", 0), 5, start_centroids=start)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kmeans_rejects_non_finite_points(bad):
    pts = _kmeans_data("gaussian", 0)
    pts[3, 1] = bad
    with pytest.raises(ValueError, match="points must be finite, but row 3 is not"):
        kmeans_cluster(pts, 5, seed=0)


def test_kmeans_warm_start_never_seeds(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("k-means++ seeding ran on a warm start")

    monkeypatch.setattr(objective, "_plusplus_init", forbidden)
    pts = _kmeans_data("gaussian", 0)
    state = kmeans_cluster(pts, 5, n_init=4, start_centroids=pts[:5])
    assert state.centroids.shape[0] == 5 and state.labels.shape == (pts.shape[0],)


def test_kmeans_matches_exhaustive_two_partition_search():
    hits = 0
    for seed in range(10):
        rng = rng_from_seed(seed, 45)
        pts = rng.standard_normal((7, 2))
        state = kmeans_cluster(pts, 2, seed=seed)
        best = np.inf
        for assignment in itertools.product([0, 1], repeat=7):
            a = np.array(assignment)
            if a.min() == a.max():
                continue
            cost = 0.0
            for j in (0, 1):
                members = pts[a == j]
                cost += float(((members - members.mean(axis=0)) ** 2).sum())
            best = min(best, cost)
        if state.inertia_path[-1] <= best + 1e-9:
            hits += 1
    assert hits >= 8


# ---------------------------------------------------------------------------
# pseudo-label classification
# ---------------------------------------------------------------------------

def test_pgc_uniform_classifier():
    rng = rng_from_seed(7)
    vc, wc = Matrix(_unit_rows(rng, 3, 5)), Matrix(_unit_rows(rng, 3, 5))
    loss = pgc_loss(vc, wc, Matrix(np.zeros((4, 5))), np.array([0, 1, 3]))
    assert loss.item() == pytest.approx(2.772588722240, abs=1e-9)


def test_pgc_saturating_logits_drive_loss_to_zero():
    vc = Matrix(np.array([[1.0, 0.0]]))
    classifier = Matrix(np.array([[50.0, 0.0], [-50.0, 0.0]]))
    loss = pgc_loss(vc, vc, classifier, np.array([0]))
    assert loss.item() == pytest.approx(0.0, abs=1e-12)


def test_pgc_reference_value_two_classes():
    vc = Matrix(np.array([[1.0, 0.0]]))
    classifier = Matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))  # logits (1, 0)
    loss = pgc_loss(vc, vc, classifier, np.array([0]))
    assert loss.item() == pytest.approx(0.626523375036, abs=1e-9)


def test_pgc_rejects_out_of_range_label():
    vc = Matrix(np.ones((2, 3)))
    with pytest.raises(ValueError, match="outside"):
        pgc_loss(vc, vc, Matrix(np.ones((2, 3))), np.array([0, 2]))


def test_pgc_permutation_equivariance():
    rng = rng_from_seed(8)
    vc, wc = Matrix(_unit_rows(rng, 6, 4)), Matrix(_unit_rows(rng, 6, 4))
    classifier = Matrix(rng.standard_normal((3, 4)))
    labels = rng.integers(0, 3, size=6)
    perm = rng.permutation(6)
    a = pgc_loss(vc, wc, classifier, labels).item()
    b = pgc_loss(Matrix(vc.value[perm]), Matrix(wc.value[perm]), classifier, labels[perm]).item()
    assert a == pytest.approx(b, abs=1e-12)


# ---------------------------------------------------------------------------
# input checks
# ---------------------------------------------------------------------------

_EYE = Matrix(np.eye(2))
_BANK_SIMS = _sim([[0.5, 0.7], [0.5, 0.5]], diagonal=False)


@pytest.mark.parametrize("call, message", [
    (lambda: cosine_matrix(_EYE, Matrix(np.ones((2, 3)))), "embedding dims differ: 2 vs 3"),
    (lambda: diversity_std(_BANK_SIMS, eps=0.0), "eps must be positive"),
    (lambda: diversity_entropy(_BANK_SIMS, eps=-0.1), "eps must be positive"),
    (lambda: _estimate(_BANK_SIMS, "median", 0.1), "unknown diversity estimator 'median'"),
    (lambda: m_dcl_loss(_EYE, _EYE, np.eye(2), np.eye(2), np.eye(2), np.eye(2), np.ones(2),
                        np.ones(2), 0.0, GAMMA), "temperature mu must be positive"),
    (lambda: m_dcl_loss(_EYE, _EYE, np.eye(2), np.ones((3, 2)), np.eye(2), np.eye(2), np.ones(2),
                        np.ones(2), MU, GAMMA), "momentum positives must match the anchor batch shape"),
    (lambda: pgc_loss(_EYE, Matrix(np.ones((3, 2))), _EYE, [0, 1]),
     "both modality batches must have the same size"),
    (lambda: pgc_loss(_EYE, _EYE, _EYE, [0, 1, 0]), "need one label per pair, got 3 for batch 2"),
    (lambda: pgc_loss(_EYE, _EYE, _EYE, [0.5, 1.7]), "labels must hold integers, got dtype float64"),
    (lambda: pgc_loss(_EYE, _EYE, _EYE, [True, False]), "labels must hold integers, got dtype bool"),
    (lambda: pgc_loss(_EYE, _EYE, _EYE, ["1", "0"]), "labels must hold integers, got dtype <U1"),
    (lambda: kmeans_cluster(np.arange(5.0), 2), "points must be a 2-D array"),
    (lambda: kmeans_cluster(np.eye(3), 2.5), "k must be an integer in [1, 3], got 2.5 of dtype float64"),
    (lambda: kmeans_cluster(np.eye(3), True), "k must be an integer in [1, 3], got True of dtype bool"),
    (lambda: kmeans_cluster(np.eye(3), 0), "k must be an integer in [1, 3], got 0 of dtype int64"),
    (lambda: kmeans_cluster(np.eye(3), np.int32(4)),
     "k must be an integer in [1, 3], got np.int32(4) of dtype int32"),
], ids=["cosine_widths", "std_eps", "entropy_eps", "estimator", "m_dcl_mu", "m_dcl_positives",
        "pgc_batches", "pgc_labels", "pgc_float_labels", "pgc_bool_labels", "pgc_str_labels",
        "kmeans_1d", "kmeans_float_k", "kmeans_bool_k", "kmeans_no_k", "kmeans_k_above_points"])
def test_objective_names_a_bad_argument(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
