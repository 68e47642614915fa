import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossalign import numerics as nm
from crossalign.numerics import Matrix, grad_check, rng_from_seed
from crossalign.objective import (
    DiversityScores,
    SimilarityMatrix,
    _estimate,
    _plusplus_init,
    _sigmoid_vec,
    cosine_matrix,
    dcl_i_loss,
    dcl_loss,
    diversity_entropy,
    diversity_std,
    kmeans_cluster,
    m_dcl_loss,
    pgc_loss,
    total_loss,
    triplet_baseline_loss,
)
from crossalign.representation import MemoryBank

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
    sim = _sim([[0.5, 0.5]], diagonal=False)
    out = diversity_std(sim)
    assert out.spread[0] == 0.0
    assert out.pre_norm[0] == 1.0


def test_diversity_std_reference_value():
    sim = _sim([[0.5, 0.7]], diagonal=False)
    out = diversity_std(sim, eps=0.1)
    assert out.spread[0] == pytest.approx(0.1, abs=1e-12)
    assert out.pre_norm[0] == pytest.approx(1.367879441171, abs=1e-9)


def test_diversity_std_normalized_pair():
    sim = _sim([[0.5, 0.5], [0.5, 0.7]], diagonal=False)
    out = diversity_std(sim, eps=0.1)
    assert out.values == pytest.approx(np.array([0.731058578630, 1.0]), abs=1e-9)
    assert out.values.max() == 1.0


def test_sigmoid_vec_reference_values_and_stable_tails():
    out = _sigmoid_vec(np.array([0.0, 1.0, -1.0, 1e6, -1e6]))
    assert out[0] == 0.5 and out[3] == 1.0 and out[4] == 0.0
    assert out[1:3] == pytest.approx([0.731058578630, 0.268941421370], abs=1e-9)


def test_diversity_requires_negatives():
    sim = _sim([[1.0]])
    with pytest.raises(ValueError, match="no negative"):
        diversity_std(sim)
    with pytest.raises(ValueError, match="no negative"):
        diversity_entropy(sim)
    # a one-pair batch gets the zero-spread limit weight instead
    for estimator in ("std", "entropy"):
        out = _estimate(sim, estimator, 0.1)
        assert [out.values.tolist(), out.pre_norm.tolist(), out.spread.tolist()] == [[1.0], [1.0], [0.0]]


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_diversity_std_closed_form_and_range(seed):
    rng = rng_from_seed(seed, 41)
    n, q = int(rng.integers(2, 7)), int(rng.integers(2, 9))
    sim = _sim(rng.uniform(-1.0, 1.0, size=(n, max(n, q))))
    out = diversity_std(sim, eps=0.1)
    closed = np.where(out.spread > 0, 1.0 + np.exp(-0.1 / np.where(out.spread > 0, out.spread, 1.0)), 1.0)
    assert np.max(np.abs(out.pre_norm - closed)) <= 1e-12
    assert out.values.max() == 1.0
    assert np.all(out.values > 0.0) and np.all(out.values <= 1.0)
    assert np.all(out.pre_norm >= 1.0) and np.all(out.pre_norm < 2.0)


def test_diversity_monotone_in_spread_at_equal_mean():
    # same negative mean 0.5, spreads 0.0 < 0.1 < 0.3
    sim = _sim([[0.5, 0.5], [0.4, 0.6], [0.2, 0.8]], diagonal=False)
    pre = diversity_std(sim).pre_norm
    assert pre[0] <= pre[1] <= pre[2]


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
        assert got.spread.shape == (shape[0],)
        np.testing.assert_allclose(got.spread, spread, rtol=1e-12, atol=0.0)
        pre = np.where(spread > 0, 1.0 + np.exp(-0.1 / np.where(spread > 0, spread, 1.0)), 1.0)
        np.testing.assert_allclose(got.pre_norm, pre, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(got.values, pre / pre.max(), rtol=1e-12, atol=0.0)


def test_diversity_entropy_uniform_negatives():
    sim = _sim([[0.3, 0.3]], diagonal=False)
    out = diversity_entropy(sim)
    assert out.spread[0] == pytest.approx(1.0, abs=1e-12)  # one bit


def test_diversity_entropy_single_negative_limit():
    sim = _sim([[0.4]], diagonal=False)
    out = diversity_entropy(sim)
    assert out.spread[0] == 0.0
    assert out.pre_norm[0] == 1.0


def test_diversity_entropy_reference_value():
    sim = _sim([[2.0, 0.0]], diagonal=False)
    out = diversity_entropy(sim, eps=0.1)
    assert out.spread[0] == pytest.approx(0.527065341003, abs=1e-9)


# ---------------------------------------------------------------------------
# in-batch contrastive losses
# ---------------------------------------------------------------------------

def test_dcl_i_single_pair():
    loss = dcl_i_loss(_sim([[1.0]]), MU, GAMMA)
    assert loss.item() == pytest.approx(-0.138629436112, abs=1e-9)


def test_dcl_i_identity_two():
    loss = dcl_i_loss(_sim(np.eye(2)), MU, GAMMA)
    assert loss.item() == pytest.approx(-0.128911965797, abs=1e-9)


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


def _ones_div(n):
    return DiversityScores(np.ones(n), np.ones(n), np.zeros(n))


def test_dcl_reduces_to_insensitive_with_unit_diversity():
    rng = rng_from_seed(2)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        sim = _sim(rng.uniform(-0.9, 0.9, size=(n, n)) + np.eye(n) * 0.5)
        full = dcl_loss(sim, _ones_div(n), _ones_div(n), MU, GAMMA).item()
        plain = dcl_i_loss(sim, MU, GAMMA).item()
        assert abs(full - plain) <= 1e-12


def test_dcl_single_negative_batches_degenerate_to_insensitive():
    # with one negative per anchor the spread is zero, so every weight is 1
    rng = rng_from_seed(3)
    sim = _sim(rng.uniform(-0.5, 0.5, size=(2, 2)) + np.eye(2) * 0.4)
    div_f = diversity_std(sim)
    div_b = diversity_std(sim.transposed())
    assert np.array_equal(div_f.values, np.ones(2))
    full = dcl_loss(sim, div_f, div_b, MU, GAMMA).item()
    assert full == pytest.approx(dcl_i_loss(sim, MU, GAMMA).item(), abs=1e-15)


def test_dcl_reference_value_with_halved_anchor_weight():
    sim = _sim(np.eye(2))
    fwd_div = DiversityScores(np.array([0.5, 1.0]), np.ones(2), np.zeros(2))
    loss = dcl_loss(sim, fwd_div, _ones_div(2), MU, GAMMA)
    assert loss.item() == pytest.approx(-0.131217549119, abs=1e-9)
    # forward direction alone, via subtraction of the known backward value
    assert loss.item() - dcl_i_loss(_sim(np.eye(2)), MU, GAMMA).item() / 2 == pytest.approx(
        -0.066761566220, abs=1e-9
    )


def test_dcl_rejects_nonpositive_diversity():
    bad = DiversityScores(np.array([0.0, 1.0]), np.ones(2), np.zeros(2))
    with pytest.raises(ValueError, match="diversity"):
        dcl_loss(_sim(np.eye(2)), bad, _ones_div(2), MU, GAMMA)


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
    div_fp = DiversityScores(div_f.values[perm], div_f.pre_norm[perm], div_f.spread[perm])
    div_bp = DiversityScores(div_b.values[perm], div_b.pre_norm[perm], div_b.spread[perm])
    assert dcl_loss(_sim(sp), div_fp, div_bp, MU, GAMMA).item() == pytest.approx(
        dcl_loss(_sim(s), div_f, div_b, MU, GAMMA).item(), abs=1e-12
    )
    # permuted diversity equals diversity of the permuted matrix
    assert np.max(np.abs(diversity_std(_sim(sp)).values - div_fp.values)) <= 1e-12


def test_triplet_reference_value():
    loss = triplet_baseline_loss(_sim([[0.9, 0.8], [0.1, 0.7]]), 0.2)
    # scripts/golden_values.py: triplet_example
    assert loss.item() == pytest.approx(0.2, abs=1e-9)


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


def _mem_diversity(v, w, bank):
    """Per-direction diversity exactly as the memory loss averages it."""
    def one(anchors, batch):
        bank_div = diversity_std(SimilarityMatrix(Matrix(anchors.value @ bank.view().T), False)).values
        return (batch.values + bank_div) / 2.0

    fwd, bwd = _batch_div(v, w)
    return one(v, fwd), one(w, bwd)


def test_m_dcl_single_anchor_orthogonal_bank():
    anchor = Matrix([[1.0, 0.0]])
    bank_v = MemoryBank(4, 2).enqueue(np.array([[0.0, 1.0]]))
    bank_w = MemoryBank(4, 2).enqueue(np.array([[0.0, 1.0]]))
    loss = m_dcl_loss(anchor, anchor, anchor, anchor, bank_v, bank_w,
                      *_batch_div(anchor, anchor), MU, GAMMA)
    assert loss.item() == pytest.approx(2 * -0.064455982899, abs=1e-9)


def test_m_dcl_matches_in_batch_loss_on_degenerate_batch():
    # identical rows per modality: every anchor's in-batch negatives equal
    # the bank contents, and both diversity levels collapse to 1
    rng = rng_from_seed(4)
    v_row = _unit_rows(rng, 1, 6)
    w_row = _unit_rows(rng, 1, 6)
    n = 3
    batch_v = Matrix(np.tile(v_row, (n, 1)))
    batch_w = Matrix(np.tile(w_row, (n, 1)))
    bank_v = MemoryBank(16, 6).enqueue(np.tile(v_row, (n - 1, 1)))
    bank_w = MemoryBank(16, 6).enqueue(np.tile(w_row, (n - 1, 1)))
    mem = m_dcl_loss(batch_v, batch_w, batch_v, batch_w, bank_v, bank_w,
                     *_batch_div(batch_v, batch_w), MU, GAMMA)
    sim = cosine_matrix(batch_v, batch_w)
    plain = dcl_loss(sim, diversity_std(sim), diversity_std(sim.transposed()), MU, GAMMA)
    assert mem.item() == pytest.approx(plain.item(), abs=1e-12)


def test_m_dcl_saturated_easy_negatives_vanishing_neg_term():
    anchor = Matrix([[1.0, 0.0]])
    far = np.array([[-1.0, 0.0]] * 4)
    bank_v = MemoryBank(8, 2).enqueue(far)
    bank_w = MemoryBank(8, 2).enqueue(far)
    loss = m_dcl_loss(anchor, anchor, anchor, anchor, bank_v, bank_w,
                      *_batch_div(anchor, anchor), MU, GAMMA)
    # both directions: negative term ~ log(1 + 4 e^{-13}) ~ 0, positive -mu*log 2
    assert loss.item() == pytest.approx(2 * -MU * np.log(2.0), abs=1e-4)


def test_m_dcl_rejects_empty_bank_and_size_mismatch():
    anchor = Matrix([[1.0, 0.0]])
    filled = MemoryBank(4, 2).enqueue(np.array([[0.0, 1.0]]))
    div = _batch_div(anchor, anchor)
    with pytest.raises(ValueError, match="non-empty"):
        m_dcl_loss(anchor, anchor, anchor, anchor, MemoryBank(4, 2), filled, *div, MU, GAMMA)
    two = Matrix(np.eye(2))
    with pytest.raises(ValueError, match="batch sizes"):
        m_dcl_loss(anchor, two, anchor, two, filled, filled, *div, MU, GAMMA)


def test_m_dcl_bank_rows_receive_no_gradient():
    rng = rng_from_seed(5)
    batch_v = Matrix(_unit_rows(rng, 3, 4))
    batch_w = Matrix(_unit_rows(rng, 3, 4))
    bank = MemoryBank(8, 4)
    bank.enqueue(_unit_rows(rng, 5, 4))
    loss = m_dcl_loss(batch_v, batch_w, batch_v.detach(), batch_w.detach(), bank, bank,
                      *_batch_div(batch_v, batch_w), MU, GAMMA)
    nm.backward(loss)
    assert batch_v.grad is not None and np.any(batch_v.grad != 0.0)
    assert batch_w.grad is not None and np.any(batch_w.grad != 0.0)


# ---------------------------------------------------------------------------
# gradient checks with diversity held constant
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(2))
def test_grad_checks_through_losses(seed):
    rng = rng_from_seed(seed, 43)
    n, f = 5, 6
    v = Matrix(rng.standard_normal((n, f)))
    w = Matrix(rng.standard_normal((n, f)))
    # the losses take unit rows; the checks differentiate through the normalisation
    v_unit, w_unit = nm.l2_normalize_rows(v).detach(), nm.l2_normalize_rows(w).detach()
    sim0 = cosine_matrix(v_unit, w_unit)
    div_f, div_b = diversity_std(sim0), diversity_std(sim0.transposed())

    def dcl_i_of_v(p):
        return dcl_i_loss(cosine_matrix(nm.l2_normalize_rows(p), w_unit), MU, GAMMA)

    def dcl_of_w(p):
        return dcl_loss(cosine_matrix(v_unit, nm.l2_normalize_rows(p)), div_f, div_b, MU, GAMMA)

    assert grad_check(dcl_i_of_v, v, h=1e-5) <= 1e-4
    assert grad_check(dcl_of_w, w, h=1e-5) <= 1e-4

    bank = MemoryBank(16, f)
    bank.enqueue(_unit_rows(rng, 7, f))
    pos_v, pos_w = _unit_rows(rng, n, f), _unit_rows(rng, n, f)
    div = _batch_div(v_unit, w_unit)
    base = m_dcl_loss(v_unit, w_unit, pos_v, pos_w, bank, bank, *div, MU, GAMMA)
    pinned = _mem_diversity(v_unit, w_unit, bank)

    def mem_of_v(p):
        return m_dcl_loss(nm.l2_normalize_rows(p), w_unit, pos_v, pos_w, bank, bank, *div, MU, GAMMA,
                          fixed_diversity=pinned)

    # the pinned weights must reproduce the unpinned loss at the base point
    assert m_dcl_loss(v_unit, w_unit, pos_v, pos_w, bank, bank, *div, MU, GAMMA,
                      fixed_diversity=pinned).item() == pytest.approx(base.item(), abs=1e-15)
    assert grad_check(mem_of_v, v, h=1e-5) <= 1e-4

    classifier = Matrix(rng.standard_normal((4, f)))
    labels = rng.integers(0, 4, size=n)

    def pgc_of_classifier(p):
        return pgc_loss(v, w, p, labels)

    assert grad_check(pgc_of_classifier, classifier, h=1e-5) <= 1e-4
    assert grad_check(lambda p: pgc_loss(p, w, classifier, labels), v, h=1e-5) <= 1e-4


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
    assert state.inertia == 0.0
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


def _direct_kmeans(pts, k, seed, n_init=10, max_iters=100):
    """Reference k-means: the loop seeding, assignment over the full [m, k, d] array."""
    best = None
    for restart in range(n_init):
        centroids = _loop_plusplus_init(pts, k, rng_from_seed(seed, 77, restart))
        labels = np.full(pts.shape[0], -1)
        path = []
        for _ in range(max_iters):
            dists = ((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
            new_labels = dists.argmin(axis=1)
            point_cost = dists[np.arange(pts.shape[0]), new_labels]
            path.append(float(point_cost.sum()))
            if np.array_equal(new_labels, labels):
                break
            labels = new_labels
            for j in range(k):
                members = pts[labels == j]
                if members.shape[0] > 0:
                    centroids[j] = members.mean(axis=0)
                else:
                    far = int(point_cost.argmax())
                    centroids[j] = pts[far]
                    point_cost[far] = 0.0
        if best is None or path[-1] < best[2][-1]:
            best = (labels, centroids, path)
    return best


def _kmeans_data(kind, seed):
    rng = rng_from_seed(seed, 47)
    if kind == "gaussian":
        return rng.standard_normal((60, 5)) + 3.0 * rng.integers(0, 4, size=(60, 1))
    if kind == "offset":  # the expansion |x|^2 - 2x.c + |c|^2 loses the 0.01 scale here
        return 1e5 + 0.01 * rng.standard_normal((40, 3))
    if kind == "far_offset":  # its rounding here is a hundred times the distances
        return 1e7 + 0.01 * rng.standard_normal((40, 3))
    # small-integer grid: many points sit exactly halfway between centroids
    return rng.integers(-2, 3, size=(50, 2)).astype(np.float64)


@pytest.mark.parametrize("kind", ["gaussian", "offset", "far_offset", "grid"])
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
    assert state.inertia == path[-1]


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
        if state.inertia <= best + 1e-9:
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
# combined objective
# ---------------------------------------------------------------------------

def test_total_loss_weighted_sum():
    parts = [Matrix([[v]]) for v in (1.0, 2.0, 3.0, 4.0)]
    report = total_loss(*parts, lambda_weight=3.0)
    assert report.total.item() == 12.0
    assert (report.l_dcl_i, report.l_mdcl, report.l_dcl_c, report.l_pgc) == (1.0, 2.0, 3.0, 4.0)


def test_total_loss_masking():
    report = total_loss(Matrix([[5.0]]), None, None, Matrix([[2.5]]), lambda_weight=0.0)
    assert report.total.item() == 2.5


def test_total_loss_recomposition():
    rng = rng_from_seed(9)
    vals = rng.standard_normal(4)
    report = total_loss(*[Matrix([[v]]) for v in vals], lambda_weight=3.0)
    assert report.total.item() == pytest.approx(3.0 * vals[0] + vals[1] + vals[2] + vals[3], abs=1e-12)
