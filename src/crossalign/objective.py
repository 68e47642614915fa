"""Alignment objectives: diversity-weighted contrastive losses and prototypes.

The contrastive family shares one direction primitive: a margin-shifted
log-sum-exp over negatives minus the log-shifted positive, averaged over
anchors and scaled by the temperature. The diversity-aware variant
divides each anchor's negative exponent by ``temperature * div(anchor)``
where ``div`` measures how spread out the anchor's negative similarities
are; anchors whose negatives all sit at the same distance get a sharper
effective temperature and therefore a harder penalty.

Diversity scores are always computed from detached similarity values and
enter the losses as constants: the batch-max normalization they include
is not differentiable at ties.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numerics as nm
from .numerics import Matrix
from .representation import MemoryBank


@dataclass
class SimilarityMatrix:
    """Similarity scores [N x Q]; with ``diagonal``, anchor n's positive is candidate n.

    Without ``diagonal`` every candidate is a negative (memory-bank case).
    In-batch positives are always the diagonal of a square matrix.
    """

    scores: Matrix
    diagonal: bool

    def __post_init__(self):
        if self.diagonal and self.scores.rows != self.scores.cols:
            raise ValueError(f"diagonal positives need a square matrix, got "
                             f"{self.scores.rows}x{self.scores.cols}")

    def transposed(self) -> "SimilarityMatrix":
        _require_diagonal(self)
        return SimilarityMatrix(nm.transpose(self.scores), True)


def _require_diagonal(sim: SimilarityMatrix) -> int:
    """The batch size of an in-batch similarity matrix; rejects any other."""
    if not sim.diagonal:
        raise ValueError("need a square similarity matrix with diagonal positives")
    return sim.scores.rows


def cosine_matrix(a: Matrix, b: Matrix) -> SimilarityMatrix:
    """All-pairs cosines as plain dot products ``a @ b.T``; rows must be unit-norm encoder outputs.

    Equal row counts pair anchor n with candidate n (in-batch positives);
    otherwise every candidate is a negative.
    """
    if a.cols != b.cols:
        raise ValueError(f"embedding dims differ: {a.cols} vs {b.cols}")
    return SimilarityMatrix(a @ b.T, a.rows == b.rows)


# ---------------------------------------------------------------------------
# diversity estimation
# ---------------------------------------------------------------------------

@dataclass
class DiversityScores:
    """Per-anchor diversity weights in (0, 1] with their raw ingredients."""

    values: np.ndarray
    pre_norm: np.ndarray
    spread: np.ndarray


def _negative_rows(sim: SimilarityMatrix) -> np.ndarray:
    """Each anchor's negative similarities: [N, N-1] without the diagonal, or all [N, Q]."""
    vals = sim.scores.value
    if sim.diagonal:
        vals = vals[~np.eye(vals.shape[0], dtype=bool)].reshape(vals.shape[0], -1)
    if vals.shape[1] == 0:
        raise ValueError("the anchors have no negative candidates")
    return vals


def _sigmoid_vec(x: np.ndarray) -> np.ndarray:
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                    np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))


def _weights_from_spread(spread: np.ndarray, eps: float) -> DiversityScores:
    # zero spread is the limit eps/spread -> inf, where the weight is 1
    pre = np.where(spread > 0.0, 1.0 / _sigmoid_vec(eps / np.where(spread > 0.0, spread, 1.0)), 1.0)
    return DiversityScores(pre / pre.max(), pre, spread)


def diversity_std(sim: SimilarityMatrix, eps: float = 0.1) -> DiversityScores:
    """Diversity from the population standard deviation of negative similarities."""
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    negs = _negative_rows(sim)
    spread = np.sqrt(np.maximum(np.mean(negs ** 2, axis=1) - np.mean(negs, axis=1) ** 2, 0.0))
    return _weights_from_spread(spread, eps)


def diversity_entropy(sim: SimilarityMatrix, eps: float = 0.1) -> DiversityScores:
    """Diversity from the base-2 entropy of the softmax over negative similarities."""
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    negs = _negative_rows(sim)
    z = negs - negs.max(axis=1, keepdims=True)
    p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    spread = -(p * np.log2(np.where(p > 0, p, 1.0))).sum(axis=1)
    return _weights_from_spread(spread, eps)


# ---------------------------------------------------------------------------
# contrastive losses
# ---------------------------------------------------------------------------

def _contrastive_direction(scores: Matrix, positives: Matrix, neg_mask: np.ndarray | None,
                           div: np.ndarray | None, mu: float, gamma: float) -> Matrix:
    """(mu/N) * sum_n [log(sum_negs exp((s - gamma)/(mu*div_n)) + 1) - log(pos_n + 1)]."""
    n = scores.rows
    if div is None:
        div = np.ones(n)
    div = np.asarray(div, dtype=np.float64)
    if div.shape != (n,):
        raise ValueError(f"need one diversity value per anchor, got {div.shape} for {n} anchors")
    if np.any(div <= 0.0):
        raise ValueError("diversity weights must be positive")
    if np.any(positives.value <= -1.0):
        raise ValueError("a positive similarity is at or below -1; its log term is undefined")
    inv_temp = Matrix((1.0 / (mu * div)).reshape(n, 1))
    z = nm.exp((scores - gamma) * inv_temp)
    if neg_mask is not None:
        z = z * Matrix(neg_mask)
    per_anchor = nm.log(nm.row_sum(z) + 1.0) - nm.log(positives + 1.0)
    return nm.sum_all(per_anchor) * (mu / n)


def _diag_column(scores: Matrix) -> Matrix:
    eye = np.eye(scores.rows)
    return nm.row_sum(scores * Matrix(eye))


def dcl_loss(sim: SimilarityMatrix, div_anchor_fwd: DiversityScores | None,
             div_anchor_bwd: DiversityScores | None, mu: float, gamma: float) -> Matrix:
    """Bidirectional contrastive loss with per-anchor diversity temperatures.

    Forward anchors (rows) use ``div_anchor_fwd``; the transposed
    direction uses ``div_anchor_bwd``. ``None`` weights every anchor of
    that direction 1, which is :func:`dcl_i_loss`.
    """
    if not mu > 0.0:
        raise ValueError("temperature mu must be positive")
    off_diag = 1.0 - np.eye(_require_diagonal(sim))

    def direction(scores: Matrix, div: DiversityScores | None) -> Matrix:
        return _contrastive_direction(scores, _diag_column(scores), off_diag,
                                      None if div is None else div.values, mu, gamma)

    return direction(sim.scores, div_anchor_fwd) + direction(nm.transpose(sim.scores), div_anchor_bwd)


def dcl_i_loss(sim: SimilarityMatrix, mu: float, gamma: float) -> Matrix:
    """Diversity-insensitive bidirectional contrastive loss on in-batch pairs."""
    return dcl_loss(sim, None, None, mu, gamma)


def triplet_baseline_loss(sim: SimilarityMatrix, margin: float) -> Matrix:
    """VSE++-style bidirectional hinge on every negative, summed per anchor, mean over anchors."""
    if margin < 0:
        raise ValueError("margin must be non-negative")
    n = _require_diagonal(sim)
    off_diag = Matrix(1.0 - np.eye(n))

    def direction(scores: Matrix) -> Matrix:
        hinge = nm.relu((scores - _diag_column(scores)) + margin) * off_diag
        return nm.sum_all(hinge) * (1.0 / n)

    return direction(sim.scores) + direction(nm.transpose(sim.scores))


def _estimate(sim: SimilarityMatrix, estimator: str, eps: float) -> DiversityScores:
    """Diversity weights by the named estimator.

    A one-pair batch has no negatives; its weight is the zero-spread limit 1.
    """
    if sim.diagonal and sim.scores.rows == 1:
        return _weights_from_spread(np.zeros(1), eps)
    if estimator == "std":
        return diversity_std(sim, eps)
    if estimator == "entropy":
        return diversity_entropy(sim, eps)
    raise ValueError(f"unknown diversity estimator {estimator!r}")


def m_dcl_loss(batch_v: Matrix, batch_w: Matrix, momentum_pos_v, momentum_pos_w,
               bank_v: MemoryBank, bank_w: MemoryBank, div_anchor_fwd: DiversityScores,
               div_anchor_bwd: DiversityScores, mu: float, gamma: float,
               *, estimator: str = "std", eps: float = 0.1,
               fixed_diversity: tuple[np.ndarray, np.ndarray] | None = None) -> Matrix:
    """Contrastive loss of in-batch anchors against memory-bank negatives.

    Each anchor's positive is the momentum-encoded embedding of its own
    cross-modal counterpart; every bank row is a negative, and all rows
    are unit-norm encoder outputs scored by dot product. Per anchor, the
    diversity weight is the mean of the bank-level estimate and the
    in-batch pair ``dcl_loss`` takes too. No gradient flows into bank
    rows, momentum positives, or diversity weights; ``fixed_diversity``
    pins the per-direction weights outright, which the finite-difference
    checks rely on.
    """
    if not mu > 0.0:
        raise ValueError("temperature mu must be positive")
    if len(bank_v) == 0 or len(bank_w) == 0:
        raise ValueError("memory banks must be non-empty")
    if batch_v.rows != batch_w.rows:
        raise ValueError(f"batch sizes differ: {batch_v.rows} vs {batch_w.rows}")

    def one_direction(anchors: Matrix, momentum_pos, bank: MemoryBank,
                      div_batch: DiversityScores, pinned_div: np.ndarray | None) -> Matrix:
        pos_rows = momentum_pos.value if isinstance(momentum_pos, Matrix) else np.asarray(momentum_pos)
        if pos_rows.shape != (anchors.rows, anchors.cols):
            raise ValueError("momentum positives must match the anchor batch shape")

        bank_sims = anchors @ Matrix(bank.view()).T
        positives = nm.row_sum(anchors * Matrix(pos_rows))

        if pinned_div is None:
            div_bank = _estimate(SimilarityMatrix(bank_sims.detach(), False), estimator, eps).values
            div = (div_batch.values + div_bank) / 2.0
        else:
            div = pinned_div
        return _contrastive_direction(bank_sims, positives, None, div, mu, gamma)

    pin_v, pin_w = fixed_diversity if fixed_diversity is not None else (None, None)
    return (one_direction(batch_v, momentum_pos_w, bank_w, div_anchor_fwd, pin_v)
            + one_direction(batch_w, momentum_pos_v, bank_v, div_anchor_bwd, pin_w))


# ---------------------------------------------------------------------------
# prototypes and pseudo-label classification
# ---------------------------------------------------------------------------

@dataclass
class PrototypeState:
    """K-means output used as pseudo labels."""

    k: int
    centroids: np.ndarray
    labels: np.ndarray
    inertia: float
    inertia_path: list[float] = field(default_factory=list)


def _plusplus_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Greedy k-means++: sample a few candidates per step, keep the best one.

    All candidates of a step are scored in one [candidates, points] pass,
    and the first with the lowest total cost wins. A point's distance to a
    candidate is measured exactly, as ((x - c)^2).sum(), only where the
    screen of ``_expansion`` leaves it possibly below the point's current
    distance; elsewhere the current distance stands, as it would in the
    element-wise minimum, so the costs are those of exact measurement.
    """
    m = points.shape[0]
    n_candidates = 2 + int(np.log2(k)) if k > 1 else 1
    pt_sq = (points ** 2).sum(axis=1)
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[int(rng.integers(m))]
    dist_sq = ((points - centroids[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = dist_sq.sum()
        if total > 0.0:
            candidates = rng.choice(m, size=n_candidates, p=dist_sq / total)
        else:
            candidates = rng.integers(m, size=n_candidates)
        approx, slack = _expansion(points, pt_sq, points[candidates])
        rows, cols = np.nonzero(approx <= (dist_sq + slack)[:, None])
        exact = ((points[rows] - points[candidates[cols]]) ** 2).sum(axis=1)
        trials = np.tile(dist_sq, (n_candidates, 1))
        trials[cols, rows] = np.minimum(dist_sq[rows], exact)
        best = int(trials.sum(axis=1).argmin())
        centroids[i] = points[candidates[best]]
        dist_sq = trials[best]
    return centroids


def _expansion(pts: np.ndarray, pt_sq: np.ndarray, centroids: np.ndarray):
    """|x|^2 - 2 x.c + |c|^2 for every point-centroid pair, and its rounding bound.

    The expansion costs one matmul but can round far from the direct sum
    of squares, so it only screens: per point, ``slack`` bounds the gap
    between the two forms for every centroid.
    """
    c_sq = (centroids ** 2).sum(axis=1)
    approx = pt_sq[:, None] - 2.0 * (pts @ centroids.T) + c_sq
    slack = 4.0 * (pts.shape[1] + 3) * np.finfo(np.float64).eps \
        * (np.sqrt(pt_sq) + np.sqrt(c_sq.max())) ** 2
    return approx, slack


def _assign(pts: np.ndarray, pt_sq: np.ndarray, centroids: np.ndarray):
    """Nearest centroid per point (lowest index on ties) and its squared distance.

    No centroid whose expansion lies more than twice ``slack`` above the
    row's smallest can be nearest. The survivors are measured again as
    ((x - c)^2).sum(), which alone decides the label and the cost,
    exactly as a direct search over all point-centroid pairs.
    """
    approx, slack = _expansion(pts, pt_sq, centroids)
    rows, cols = np.nonzero(approx <= approx.min(axis=1, keepdims=True) + 2.0 * slack[:, None])
    dists = np.full(approx.shape, np.inf)
    dists[rows, cols] = ((pts[rows] - centroids[cols]) ** 2).sum(axis=1)
    labels = dists.argmin(axis=1)
    return labels, dists[np.arange(pts.shape[0]), labels]


def _lloyd(pts: np.ndarray, k: int, centroids: np.ndarray, max_iters: int):
    labels = np.full(pts.shape[0], -1, dtype=np.int64)
    pt_sq = (pts ** 2).sum(axis=1)
    inertia_path: list[float] = []
    inertia = 0.0
    for _ in range(max(max_iters, 1)):
        new_labels, point_cost = _assign(pts, pt_sq, centroids)
        inertia = float(point_cost.sum())
        inertia_path.append(inertia)
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
    return centroids, labels, inertia, inertia_path


def kmeans_cluster(points, k: int, max_iters: int = 100, seed: int = 0,
                   n_init: int = 10) -> PrototypeState:
    """Best of ``n_init`` seeded k-means++ starts, each run to a fixpoint.

    Every restart draws its initial centroids from a stream derived from
    ``seed``, runs Lloyd iterations until the assignment stops changing
    (or ``max_iters``), and the lowest-inertia run wins. Empty clusters
    are reseeded to the point currently farthest from its assigned
    centroid. ``inertia_path`` records the winning run's inertia after
    each assignment step.

    Each assignment first screens the centroids with the matmul
    expansion of the squared distance and its rounding bound, then
    decides among the few survivors with exact sums of squared
    differences. Labels (lowest index on ties), costs, inertia and
    reseeds are therefore the same as a direct search over all
    point-centroid pairs, without its [points, k, dim] array.
    """
    pts = points.value if isinstance(points, Matrix) else np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-D array")
    m = pts.shape[0]
    if k < 1:
        raise ValueError("cluster count must be at least 1")
    if k > m:
        raise ValueError(f"cannot form {k} clusters from {m} points")

    best: PrototypeState | None = None
    for restart in range(max(n_init, 1)):
        rng = nm.rng_from_seed(seed, 77, restart)
        centroids, labels, inertia, path = _lloyd(pts, k, _plusplus_init(pts, k, rng), max_iters)
        if best is None or inertia < best.inertia:
            best = PrototypeState(k, centroids, labels, inertia, path)
    return best


def pgc_loss(vc: Matrix, wc: Matrix, classifier: Matrix, labels) -> Matrix:
    """Mean cross-entropy of both modalities' class scores against pseudo labels.

    ``classifier`` is [K, F]; logits are embedding . classifier_row. The
    labels are constants; gradients reach the embeddings and classifier.
    """
    z = np.asarray(labels, dtype=np.int64).reshape(-1)
    n, k = vc.rows, classifier.rows
    if wc.rows != n:
        raise ValueError("both modality batches must have the same size")
    if z.shape[0] != n:
        raise ValueError(f"need one label per pair, got {z.shape[0]} for batch {n}")
    if z.size and (z.min() < 0 or z.max() >= k):
        bad = int(z[(z < 0) | (z >= k)][0])
        raise ValueError(f"label {bad} outside [0, {k})")
    one_hot = np.zeros((n, k))
    one_hot[np.arange(n), z] = 1.0
    pick = Matrix(one_hot)

    def ce(embeds: Matrix) -> Matrix:
        logits = embeds @ classifier.T
        return nm.sum_all(nm.log_softmax_rows(logits) * pick) * (-1.0 / n)

    return ce(vc) + ce(wc)


# ---------------------------------------------------------------------------
# combined objective
# ---------------------------------------------------------------------------

@dataclass
class LossReport:
    """Scalar components of one training step and the combined graph node."""

    l_dcl_i: float
    l_mdcl: float
    l_dcl_c: float
    l_pgc: float
    total: Matrix


def total_loss(l_dcl_i: Matrix | None, l_mdcl: Matrix | None, l_dcl_c: Matrix | None,
               l_pgc: Matrix | None, lambda_weight: float) -> LossReport:
    """lambda * in-batch instance loss + memory loss + concept loss + label loss."""
    zero = Matrix([[0.0]])
    a = l_dcl_i if l_dcl_i is not None else zero
    b = l_mdcl if l_mdcl is not None else zero
    c = l_dcl_c if l_dcl_c is not None else zero
    d = l_pgc if l_pgc is not None else zero
    total = a * lambda_weight + b + c + d
    return LossReport(a.item(), b.item(), c.item(), d.item(), total)
