"""Sequence encoders: position-weighted pooling, momentum mirrors, memory queues.

An image or caption arrives as a short sequence of local feature vectors.
The aggregator projects each vector into the joint space, weights it by a
scalar derived from its position, sums, and unit-normalizes; it and
``knowledge.concept_query`` alone normalize, so similarities downstream
are plain dot products. A momentum copy of the encoder parameters
follows the trainable ones by EMA and feeds the FIFO memory banks.
"""
from __future__ import annotations

import numpy as np

from . import numerics as nm
from .numerics import Matrix


def positional_encoding_table(length: int, d_p: int) -> np.ndarray:
    """Row p < length: sin(u_j * p) in even and cos(u_j * p) in odd columns, u_j = 10000^(-2j / d_p)."""
    if length < 1:
        raise ValueError("table length must be at least 1")
    if d_p % 2 != 0 or d_p <= 0:
        raise ValueError(f"positional dimension must be a positive even number, got {d_p}")
    j = np.arange(d_p // 2)
    u = 1.0 / (10000.0 ** (2.0 * j / d_p))
    angles = np.arange(length)[:, None] * u
    out = np.empty((length, d_p))
    out[:, 0::2] = np.sin(angles)
    out[:, 1::2] = np.cos(angles)
    return out


class FeatureAggregator:
    """Pools a variable-length feature sequence into one unit-norm embedding.

    Pooling weights come from a two-layer perceptron applied to the
    positional encoding of each index, so they depend on position only.
    The raw perceptron outputs are used directly as weights; the final
    unit normalization absorbs their scale. The output bias starts at 1
    so a fresh aggregator behaves like sum pooling instead of collapsing
    toward a zero vector.
    """

    def __init__(self, d_in: int, out_dim: int, d_p: int = 32, hidden: int = 16,
                 rng: np.random.Generator | None = None):
        if d_p % 2 != 0:
            raise ValueError("positional dimension must be even")
        rng = rng if rng is not None else nm.rng_from_seed(0)
        self.d_in = d_in
        self.out_dim = out_dim
        self.d_p = d_p
        self.hidden = hidden
        self.p: dict[str, Matrix] = {
            "proj": Matrix(rng.standard_normal((d_in, out_dim)) / np.sqrt(d_in)),
            "dec_w1": Matrix(rng.standard_normal((d_p, hidden)) / np.sqrt(d_p)),
            "dec_b1": Matrix(np.zeros((1, hidden))),
            "dec_w2": Matrix(rng.standard_normal((hidden, 1)) / np.sqrt(hidden)),
            "dec_b2": Matrix(np.ones((1, 1))),
        }

    def _resolve(self, params) -> dict[str, Matrix]:
        if params is None:
            return self.p
        return {k: v if isinstance(v, Matrix) else Matrix(v) for k, v in params.items()}

    def pooling_weights(self, length: int, params=None) -> Matrix:
        """Per-position pooling weights for positions 0..length-1, shape [length, 1]."""
        p = self._resolve(params)
        pe = Matrix(positional_encoding_table(length, self.d_p))
        h = nm.relu(pe @ p["dec_w1"] + p["dec_b1"])
        return h @ p["dec_w2"] + p["dec_b2"]

    def aggregate_batch(self, seqs, params=None) -> Matrix:
        """Embed several sequences at once; returns [len(seqs), out_dim].

        All sequences are stacked into one [sum of lengths, d_in] array
        and projected with a single matmul; one segment-weighted sum then
        pools each sequence's rows and the result is unit-normalized. The
        pooling-weight perceptron runs once for the longest sequence and
        shorter ones use a prefix of its weights, which is exact because
        the weights depend only on position. The graph therefore has the
        same number of nodes for any number of sequences.
        """
        if len(seqs) == 0:
            raise ValueError("aggregate_batch needs at least one sequence")
        arrs = []
        for seq in seqs:
            arr = np.asarray(seq, dtype=np.float64)
            if arr.ndim != 2 or arr.shape[0] < 1:
                raise ValueError("each sequence must be a nonempty 2-D array")
            if arr.shape[1] != self.d_in:
                raise ValueError(f"sequence feature dim {arr.shape[1]} != aggregator d_in {self.d_in}")
            arrs.append(arr)
        p = self._resolve(params)
        lengths = [a.shape[0] for a in arrs]
        theta = self.pooling_weights(max(lengths), params=p)
        projected = Matrix(np.concatenate(arrs)) @ p["proj"]
        return nm.l2_normalize_rows(nm.segment_weighted_sum(projected, theta, lengths))


def named_params(groups: dict[str, dict[str, Matrix]]):
    """Yield ``("prefix.key", parameter)`` for every parameter of every group."""
    for prefix, d in groups.items():
        for k, m in d.items():
            yield f"{prefix}.{k}", m


class EncoderPair:
    """Trainable encoder parameters plus a gradient-free momentum mirror.

    ``groups`` maps a prefix to a live parameter dict (the same object the
    trainer updates), so functional parameter replacement stays visible.
    The momentum side is plain arrays: it never builds graph nodes with
    gradients.
    """

    def __init__(self, groups: dict[str, dict[str, Matrix]]):
        self.groups = groups
        self.momentum: dict[str, np.ndarray] = {
            name: m.value.copy() for name, m in named_params(groups)
        }

    def momentum_update(self, m: float) -> "EncoderPair":
        """Move every momentum parameter toward its main one: mom <- m*mom + (1-m)*main."""
        if not 0.0 <= m <= 1.0:
            raise ValueError(f"momentum coefficient must be in [0, 1], got {m}")
        for name, main in named_params(self.groups):
            self.momentum[name] = m * self.momentum[name] + (1.0 - m) * main.value
        return self

    def momentum_group(self, prefix: str) -> dict[str, np.ndarray]:
        """Momentum parameters for one group, keyed like the main dict."""
        head = prefix + "."
        return {name[len(head):]: arr for name, arr in self.momentum.items() if name.startswith(head)}


class MemoryBank:
    """Fixed-capacity FIFO queue of embedding rows, oldest first.

    Callers push unit-norm encoder rows, which ``m_dcl_loss`` scores by
    dot product; the queue only enforces capacity, order, and dimension.
    """

    def __init__(self, capacity: int, dim: int):
        if capacity < 1 or dim < 1:
            raise ValueError("capacity and dim must be positive")
        self.capacity = capacity
        self.dim = dim
        self._rows = np.zeros((0, dim))

    def __len__(self) -> int:
        return self._rows.shape[0]

    def enqueue(self, rows: np.ndarray) -> "MemoryBank":
        """Append rows newest-last, evicting from the front past capacity."""
        arr = np.asarray(rows, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != self.dim:
            raise ValueError(f"expected rows of dim {self.dim}, got shape {arr.shape}")
        self._rows = np.vstack([self._rows, arr])[-self.capacity:]
        return self

    def view(self) -> np.ndarray:
        """Current contents, oldest first; read-only."""
        out = self._rows.view()
        out.setflags(write=False)
        return out
