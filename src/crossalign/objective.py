"""Alignment objectives: diversity-weighted contrastive losses and prototypes.

The contrastive family shares one direction primitive: a margin-shifted
log-sum-exp over negatives, scaled by the temperature, minus the
log-shifted positive, averaged over anchors. Each direction is one graph
node with a hand-written VJP, so a training step's six directions (two
in-batch per branch, two against the memory banks) add six nodes to the
graph; each modality's pseudo-label cross-entropy adds one more. The
diversity-aware variant divides each anchor's negative exponent by ``temperature * div(anchor)``
where ``div`` measures how spread out the anchor's negative similarities
are; anchors whose negatives all sit at the same distance get a sharper
effective temperature and therefore a harder penalty.

Diversity scores are computed from the similarity values alone and enter
the losses as constants, never as graph nodes: the batch-max normalization
they include is not differentiable at ties.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .numerics import Matrix

# the eps of every diversity estimate: an anchor weighs 1 / sigmoid(eps / spread) before the batch max
DIVERSITY_EPS = 0.1


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

def _negative_rows(sim: SimilarityMatrix) -> np.ndarray:
    """Each anchor's negative similarities: [N, N-1] without the diagonal, or all [N, Q]."""
    vals = sim.scores.value
    if sim.diagonal:
        vals = vals[~np.eye(vals.shape[0], dtype=bool)].reshape(vals.shape[0], -1)
    if vals.shape[1] == 0:
        raise ValueError("the anchors have no negative candidates")
    return vals


def _weights_from_spread(spread: np.ndarray, eps: float) -> np.ndarray:
    """Per-anchor weights in (0, 1]: 1 / sigmoid(eps / spread), divided by its batch max."""
    # zero spread is the limit eps/spread -> inf, where the weight is 1. So is every spread up to
    # eps/40: there x >= 37 and 1 + exp(-x) rounds to 1, while eps/spread could overflow. x > 0, and
    # the reciprocal of sigmoid(x) = 1/(1 + exp(-x)) is kept as such: 1 + exp(-x) can differ in the
    # last bit
    wide = spread > eps / 40.0
    x = eps / np.where(wide, spread, 1.0)
    pre = np.where(wide, 1.0 / (1.0 / (1.0 + np.exp(-x))), 1.0)
    return pre / pre.max()


def diversity_std(sim: SimilarityMatrix, eps: float = DIVERSITY_EPS) -> np.ndarray:
    """Diversity from the population standard deviation of negative similarities."""
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    negs = _negative_rows(sim)
    spread = np.sqrt(np.maximum(np.mean(negs ** 2, axis=1) - np.mean(negs, axis=1) ** 2, 0.0))
    return _weights_from_spread(spread, eps)


def diversity_entropy(sim: SimilarityMatrix, eps: float = DIVERSITY_EPS) -> np.ndarray:
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

def _contrastive_direction(scores: Matrix, positives: Matrix | None, div: np.ndarray | None,
                           mu: float, gamma: float) -> Matrix:
    """(1/N) sum_n [mu log(sum_negs exp((s - gamma)/(mu div_n)) + 1) - log(pos_n + 1)], one node.

    With ``positives`` None this is the in-batch form: anchor n's positive
    is ``scores[n, n]``, the diagonal is masked out of the negatives, and
    ``scores`` is the node's only parent. Otherwise every column is a
    negative, ``positives`` is an [N, 1] column, and the parents are
    ``(scores, positives)``. ``div`` None weights every anchor 1.

    Only the negatives' term carries the temperature weight mu; the
    positive's term has weight 1. The VJP is hand-written: with c = g/N,
    denom_n = sum_negs z + 1 and z the masked exponentials, d scores =
    (c*mu/denom) * z / (mu*div), and d pos = -c/(pos + 1), which the
    in-batch form adds to the diagonal.
    Forward and VJP keep the operation order of the same function composed
    of elementary ops, so they reproduce its value and grads bit for bit;
    the tests compare against that composition.
    """
    n = scores.rows
    if div is None:
        div = np.ones(n)
    div = np.asarray(div, dtype=np.float64)
    if div.shape != (n,):
        raise ValueError(f"need one diversity value per anchor, got {div.shape} for {n} anchors")
    if np.any(div <= 0.0):
        raise ValueError("diversity weights must be positive")
    in_batch = positives is None
    pos = np.diagonal(scores.value).reshape(n, 1) if in_batch else positives.value
    if np.any(pos <= -1.0):
        raise ValueError("a positive similarity is at or below -1; its log term is undefined")
    inv_temp = (1.0 / (mu * div)).reshape(n, 1)
    with np.errstate(over="ignore"):
        exponent = (scores.value - gamma) * inv_temp
        z = np.exp(exponent)
        overflow = not np.isfinite(z).all()
        if in_batch:
            z[np.diag_indices(n)] = 0.0
        denom = z.sum(axis=1, keepdims=True) + 1.0
    if overflow or not np.isfinite(denom).all():
        raise nm.NonFiniteError(f"_contrastive_direction: exp overflows float64 (largest exponent "
                                f"{exponent.max():.4g}, mu {mu:g}, gamma {gamma:g})")
    pos_shifted = pos + 1.0
    per_anchor = np.log(denom) * mu - np.log(pos_shifted)

    def vjp(g):
        c = g[0, 0] * (1.0 / n)
        d_pos = -c / pos_shifted
        d_scores = (c * mu / denom) * z * inv_temp
        if in_batch:
            d_scores[np.diag_indices(n)] += d_pos[:, 0]
            return (d_scores,)
        return d_scores, d_pos

    parents = (scores,) if in_batch else (scores, positives)
    return nm.node(np.array([[per_anchor.sum()]]) * (1.0 / n), parents, vjp)


def dcl_loss(sim: SimilarityMatrix, div_anchor_fwd: np.ndarray | None,
             div_anchor_bwd: np.ndarray | None, mu: float, gamma: float) -> Matrix:
    """Bidirectional contrastive loss with per-anchor diversity temperatures.

    Forward anchors (rows) use ``div_anchor_fwd``; the transposed
    direction uses ``div_anchor_bwd``. ``None`` weights every anchor of
    that direction 1, which is :func:`dcl_i_loss`.
    """
    if not mu > 0.0:
        raise ValueError("temperature mu must be positive")
    _require_diagonal(sim)
    return (_contrastive_direction(sim.scores, None, div_anchor_fwd, mu, gamma)
            + _contrastive_direction(nm.transpose(sim.scores), None, div_anchor_bwd, mu, gamma))


def dcl_i_loss(sim: SimilarityMatrix, mu: float, gamma: float) -> Matrix:
    """Diversity-insensitive bidirectional contrastive loss on in-batch pairs."""
    return dcl_loss(sim, None, None, mu, gamma)


def triplet_baseline_loss(sim: SimilarityMatrix, margin: float = 0.2) -> Matrix:
    """VSE++ bidirectional hinge on each anchor's hardest negative, mean over anchors.

    Per anchor and direction only the negative with the highest score
    enters the hinge, which is the largest violation; among tied scores
    the lowest index wins. The choice is a constant mask, so the gradient
    reaches the positive and that one negative. A one-pair batch has no
    negative and adds nothing.
    """
    if margin < 0:
        raise ValueError("margin must be non-negative")
    n = _require_diagonal(sim)
    diagonal = np.eye(n, dtype=bool)

    def direction(scores: Matrix) -> Matrix:
        negs = np.where(diagonal, -np.inf, scores.value)
        hardest = (np.arange(n) == negs.argmax(axis=1)[:, None]) & ~diagonal
        minus_pos = nm.node(-(scores.value * diagonal).sum(axis=1, keepdims=True), (scores,),
                            lambda g: (-g * diagonal,))
        violation = nm.relu((scores + minus_pos) + margin)
        hinge = nm.node(violation.value * hardest, (violation,), lambda g: (g * hardest,))
        return nm.sum_all(hinge) * (1.0 / n)

    return direction(sim.scores) + direction(nm.transpose(sim.scores))


def _estimate(sim: SimilarityMatrix, estimator: str, eps: float = DIVERSITY_EPS) -> np.ndarray:
    """Diversity weights by the named estimator.

    A one-pair batch has no negatives; its weight is the zero-spread limit 1.
    """
    if sim.diagonal and sim.scores.rows == 1:
        return np.ones(1)
    if estimator == "std":
        return diversity_std(sim, eps)
    if estimator == "entropy":
        return diversity_entropy(sim, eps)
    raise ValueError(f"unknown diversity estimator {estimator!r}")


def m_dcl_loss(batch_v: Matrix, batch_w: Matrix, momentum_pos_v: np.ndarray,
               momentum_pos_w: np.ndarray,
               queue_v: np.ndarray, queue_w: np.ndarray, div_anchor_fwd: np.ndarray,
               div_anchor_bwd: np.ndarray, mu: float, gamma: float,
               *, estimator: str = "std", eps: float = DIVERSITY_EPS) -> Matrix:
    """Contrastive loss of in-batch anchors against memory-bank negatives.

    Each anchor's positive is the momentum-encoded embedding of its own
    cross-modal counterpart, one row of an array. ``queue_v`` and
    ``queue_w`` are the image and caption column halves of the memory
    queue's ``[v | w]`` pair rows, [n, d] each, and every queue row is a
    negative; all rows are unit-norm encoder outputs scored by dot
    product. Per anchor, the diversity weight is the mean of the estimate
    over the anchor's queue scores and the in-batch pair ``dcl_loss`` takes
    too. Queue rows, momentum positives and diversity weights are arrays
    held by the nodes that read them, so no gradient flows into them.
    """
    if not mu > 0.0:
        raise ValueError("temperature mu must be positive")
    if len(queue_v) == 0 or len(queue_w) == 0:
        raise ValueError("the memory queue must be non-empty")
    if batch_v.rows != batch_w.rows:
        raise ValueError(f"batch sizes differ: {batch_v.rows} vs {batch_w.rows}")

    def one_direction(anchors: Matrix, momentum_pos: np.ndarray, bank: np.ndarray,
                      div_batch: np.ndarray) -> Matrix:
        pos_rows = np.asarray(momentum_pos, dtype=np.float64)
        if pos_rows.shape != (anchors.rows, anchors.cols):
            raise ValueError("momentum positives must match the anchor batch shape")

        bank_t = np.ascontiguousarray(bank.T)  # BLAS rounds a product with a view differently
        bank_sims = nm.node(anchors.value @ bank_t, (anchors,), lambda g: (g @ bank_t.T,))
        positives = nm.node((anchors.value * pos_rows).sum(axis=1, keepdims=True), (anchors,),
                            lambda g: (g * pos_rows,))

        div = (div_batch + _estimate(SimilarityMatrix(bank_sims, False), estimator, eps)) / 2.0
        return _contrastive_direction(bank_sims, positives, div, mu, gamma)

    return (one_direction(batch_v, momentum_pos_w, queue_w, div_anchor_fwd)
            + one_direction(batch_w, momentum_pos_v, queue_v, div_anchor_bwd))


# ---------------------------------------------------------------------------
# prototypes and pseudo-label classification
# ---------------------------------------------------------------------------

@dataclass
class PrototypeState:
    """K-means output used as pseudo labels; the run's inertia is ``inertia_path[-1]``."""

    centroids: np.ndarray
    labels: np.ndarray
    inertia_path: list[float]


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
        cols, rows = np.nonzero(approx <= dist_sq + slack)
        exact = ((points[rows] - points[candidates[cols]]) ** 2).sum(axis=1)
        trials = np.tile(dist_sq, (n_candidates, 1))
        trials[cols, rows] = np.minimum(dist_sq[rows], exact)
        best = int(trials.sum(axis=1).argmin())
        centroids[i] = points[candidates[best]]
        dist_sq = trials[best]
    return centroids


def _expansion(pts: np.ndarray, pt_sq: np.ndarray, centroids: np.ndarray):
    """|c|^2 - 2 c.x + |x|^2 for every centroid-point pair, [centroids, points], and its rounding bound.

    The expansion costs one matmul but can round far from the direct sum
    of squares, so it only screens: per point, ``slack`` bounds the gap
    between the two forms for every centroid.
    """
    c_sq = (centroids ** 2).sum(axis=1)
    approx = centroids @ pts.T
    approx *= -2.0
    approx += c_sq[:, None]
    approx += pt_sq
    slack = 4.0 * (pts.shape[1] + 3) * np.finfo(np.float64).eps \
        * (np.sqrt(pt_sq) + np.sqrt(c_sq.max())) ** 2
    return approx, slack


def _assign(pts: np.ndarray, pt_sq: np.ndarray, centroids: np.ndarray):
    """Nearest centroid of every run per point (lowest index on ties) and its squared distance.

    ``centroids`` is [runs, k, dim]; labels and costs come back [runs, m].
    One expansion screens every run's centroids: none whose expansion lies
    more than twice ``slack`` above the run's smallest for the point can
    be nearest, and the bound's largest centroid norm across runs only
    lets more through. A point with one survivor in a run takes it; one
    with several measures each as ((x - c)^2).sum(). The cost is that
    exact sum for the label, so labels and costs are those of a direct
    search over all point-centroid pairs.
    """
    n_runs, k, dim = centroids.shape
    approx, slack = _expansion(pts, pt_sq, centroids.reshape(-1, dim))
    approx = approx.reshape(n_runs, k, -1)
    survivors = approx <= approx.min(axis=1, keepdims=True) + 2.0 * slack
    labels = survivors.argmax(axis=1)
    runs, pt_idx = np.nonzero(survivors.sum(axis=1) > 1)
    if runs.size:
        rows, cols = np.nonzero(survivors[runs, :, pt_idx])
        dists = np.full((runs.size, k), np.inf)
        dists[rows, cols] = ((pts[pt_idx[rows]] - centroids[runs[rows], cols]) ** 2).sum(axis=1)
        labels[runs, pt_idx] = dists.argmin(axis=1)
    diff = np.take(centroids.reshape(-1, dim), labels + k * np.arange(n_runs)[:, None], axis=0)
    diff -= pts  # (c - x)^2 is (x - c)^2 bit for bit
    diff *= diff
    return labels, diff.sum(axis=2)


def _move_centroids(pts: np.ndarray, centroids: np.ndarray, labels: np.ndarray,
                    cost: np.ndarray) -> None:
    """Each run's centroids to the means of their members, in place.

    A run's empty clusters, in index order, take the point then farthest
    from its centroid, whose cost drops to 0. Sums come from one
    ``bincount`` over run-offset labels; it adds members in index order,
    as numpy's mean sums a [members, dim] array down its rows. A single
    column numpy sums pairwise, so at dim 1 each cluster takes its mean.
    """
    n_runs, k, dim = centroids.shape
    flat = (np.arange(n_runs)[:, None] * k + labels).ravel()
    counts = np.bincount(flat, minlength=n_runs * k).reshape(n_runs, k)
    runs, cols = np.nonzero(counts)
    if dim == 1:
        for r, j in zip(runs, cols):
            centroids[r, j] = pts[labels[r] == j].mean(axis=0)
    else:
        slots = np.arange(n_runs * k * dim).reshape(-1, dim)
        sums = np.bincount(np.take(slots, flat, axis=0).ravel(), weights=np.tile(pts.ravel(), n_runs),
                           minlength=slots.size).reshape(n_runs, k, dim)
        centroids[runs, cols] = sums[runs, cols] / counts[runs, cols, None]
    for r, j in zip(*np.nonzero(counts == 0)):
        far = int(cost[r].argmax())
        centroids[r, j] = pts[far]
        cost[r, far] = 0.0


def _lloyd(pts: np.ndarray, centroids: np.ndarray, max_iters: int):
    """Lloyd iterations of every run in ``centroids`` [runs, k, dim] in lockstep, in place.

    A run leaves the loop when its labels stop changing or its inertia
    does not fall (on fewer distinct points than k, reseeds move labels
    for ever), or at ``max_iters``, where it would stop alone. Centroids
    move only between assignments, so each run's labels, centroids and
    inertia describe one assignment, also when ``max_iters`` stops it.
    Returns the labels [runs, m] and each run's inertia after every
    assignment.
    """
    pt_sq = (pts ** 2).sum(axis=1)
    labels = np.full((centroids.shape[0], pts.shape[0]), -1, dtype=np.intp)  # no run settles at step 0
    cost = np.full(labels.shape, np.inf)
    paths: list[list[float]] = [[] for _ in labels]
    active = np.arange(len(labels))
    for step in range(max(max_iters, 1)):
        if step:
            moved = centroids[active]
            _move_centroids(pts, moved, labels[active], cost[active])
            centroids[active] = moved
        new_labels, new_cost = _assign(pts, pt_sq, centroids[active])
        inertia = new_cost.sum(axis=1)
        for r, value in zip(active, inertia):
            paths[r].append(float(value))
        settled = (new_labels == labels[active]).all(axis=1) | (inertia >= cost[active].sum(axis=1))
        labels[active], cost[active] = new_labels, new_cost
        active = active[~settled]
        if not active.size:
            break
    return labels, paths


def kmeans_cluster(points: np.ndarray, k: int, max_iters: int = 100, seed: int = 0,
                   n_init: int = 10, start_centroids=None) -> PrototypeState:
    """Best of ``n_init`` seeded k-means++ starts, or one run from ``start_centroids``.

    ``points`` is a finite [m, dim] array. Every restart draws its initial
    centroids from a stream derived from ``seed``, runs Lloyd iterations
    until the labels repeat or the inertia stops falling (or ``max_iters``),
    and the first run of the lowest inertia wins. Given ``start_centroids``, a finite
    [k, dim] array that is never written, one Lloyd run refines a copy of
    it instead: no seeding, no restarts, and cluster j starts from row j,
    so ids carry over from the run that produced the start. Empty clusters
    are reseeded to the point currently farthest from its assigned
    centroid. ``inertia_path`` records the winning run's inertia after
    each assignment step.

    The restarts refine in lockstep: each iteration screens every active
    run's centroids against the points with one matmul expansion of the
    squared distance and its rounding bound, an O(n_init * k * m) array,
    then decides among the few survivors with exact sums of squared
    differences. Each run's labels (lowest index on ties), costs, inertia,
    reseeds and stopping step are therefore those of a direct search over
    all point-centroid pairs run on its own, without its [points, k, dim]
    array.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-D array")
    bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
    if bad.size:
        raise ValueError(f"points must be finite, but row {int(bad[0])} is not")
    m = pts.shape[0]
    if not np.issubdtype(np.asarray(k).dtype, np.integer) or not 1 <= k <= m:
        raise ValueError(f"k must be an integer in [1, {m}], got {k!r} of dtype {np.asarray(k).dtype}")

    if start_centroids is not None:
        start = np.array(start_centroids, dtype=np.float64)
        if start.shape != (k, pts.shape[1]):
            raise ValueError(f"start_centroids must have shape {(k, pts.shape[1])}, got {start.shape}")
        if not np.isfinite(start).all():
            raise ValueError("start_centroids must be finite")
        starts = start[None]
    else:
        # each restart seeds from its own stream
        starts = np.stack([_plusplus_init(pts, k, nm.rng_from_seed(seed, 77, r))
                           for r in range(max(n_init, 1))])
    labels, paths = _lloyd(pts, starts, max_iters)
    best = min(range(len(paths)), key=lambda r: paths[r][-1])
    return PrototypeState(starts[best], labels[best], paths[best])


def _cross_entropy(logits: Matrix, targets: np.ndarray) -> Matrix:
    """-(1/N) sum_n targets_n . log_softmax(logits_n) as one node on ``logits``; ``targets`` is a constant.

    Forward and VJP keep the composed graph's operation order, so they
    equal it bit for bit; the tests compare against that composition.
    """
    scale = -1.0 / logits.rows
    z = logits.value - logits.value.max(axis=1, keepdims=True)
    log_p = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    soft = np.exp(log_p)

    def vjp(g):
        g_log_p = np.full(log_p.shape, g[0, 0] * scale) * targets
        return (g_log_p - soft * g_log_p.sum(axis=1, keepdims=True),)

    return nm.node(np.array([[(log_p * targets).sum()]]) * scale, (logits,), vjp)


def pgc_loss(vc: Matrix, wc: Matrix, classifier: Matrix, labels) -> Matrix:
    """Mean cross-entropy of both modalities' class scores against pseudo labels.

    ``classifier`` is [K, F]; logits are embedding . classifier_row. The
    labels are integers in [0, K), held as one-hot targets; gradients reach
    embeddings and classifier.
    """
    z = np.asarray(labels).reshape(-1)
    if not np.issubdtype(z.dtype, np.integer):
        raise ValueError(f"labels must hold integers, got dtype {z.dtype}")
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
    weights = classifier.T  # one transpose node for both modalities
    return _cross_entropy(vc @ weights, one_hot) + _cross_entropy(wc @ weights, one_hot)
