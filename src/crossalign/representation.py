"""Sequence encoders: position-weighted pooling, momentum mirrors, the memory queue.

An image or caption arrives as a short sequence of local feature vectors.
The aggregator projects each vector into the joint space, weights it by a
scalar derived from its position, sums, and unit-normalizes; it and
``knowledge.concept_query`` alone normalize, so similarities downstream
are plain dot products. One plain-numpy pass computes all of that:
``FeatureAggregator.aggregate_batch`` wraps it in a single graph node
with a hand-written VJP for training, and ``FeatureAggregator.forward``
returns its embeddings with no node for the encoders that take no
gradient. Both entry points take a batch as ``(lengths, rows)``: the n
sequences' lengths and their rows stacked one after another, so every
encoder of one input width reads one pair per batch. A momentum
copy of the encoder parameters follows the trainable ones by EMA and
feeds the FIFO memory queue.
"""
from __future__ import annotations

import functools

import numpy as np

from . import numerics as nm
from .numerics import Matrix


@functools.lru_cache(maxsize=64)
def positional_encoding_table(length: int, d_p: int) -> np.ndarray:
    """Row p < length: sin(u_j * p) in even and cos(u_j * p) in odd columns, u_j = 10000^(-2j / d_p).

    Computed once per ``(length, d_p)``; the table is read-only.
    """
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
    out.setflags(write=False)
    return out


# the order of aggregate_batch's parents and of the grads its VJP returns
PARAM_NAMES = ("proj", "dec_w1", "dec_b1", "dec_w2", "dec_b2")


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
        self.d_p = d_p
        self.p: dict[str, Matrix] = {
            "proj": Matrix(rng.standard_normal((d_in, out_dim)) / np.sqrt(d_in)),
            "dec_w1": Matrix(rng.standard_normal((d_p, hidden)) / np.sqrt(d_p)),
            "dec_b1": Matrix(np.zeros((1, hidden))),
            "dec_w2": Matrix(rng.standard_normal((hidden, 1)) / np.sqrt(hidden)),
            "dec_b2": Matrix(np.ones((1, 1))),
        }

    def forward(self, lengths: np.ndarray, rows: np.ndarray,
                params: dict[str, np.ndarray] | None = None) -> np.ndarray:
        """Unit embeddings [n, out_dim] of the n sequences of ``(lengths, rows)``, with no graph node.

        For encoders that take no gradient: the momentum mirror (its
        arrays as ``params``), clustering and evaluation. ``params`` None
        uses the values of the trainable parameters. The result is
        bit for bit the value of ``aggregate_batch`` on the same pair.
        """
        if params is None:
            params = {k: m.value for k, m in self.p.items()}
        return _forward(lengths, rows, params, self.d_p)[0]

    def aggregate_batch(self, lengths: np.ndarray, rows: np.ndarray) -> Matrix:
        """Embed the n sequences of ``(lengths, rows)`` at once as one graph node; returns [n, out_dim].

        ``lengths`` come first: the bench counts an encoder call's
        sequences as ``len()`` of its first argument.

        The stacked rows are projected with a single matmul; each
        sequence's projected rows are summed with per-position weights and
        the sums are unit-normalized. The pooling-weight perceptron runs
        once for the longest sequence and shorter ones use a prefix of its
        weights, which is exact because the weights depend only on position.

        The node's parents are the five parameters in ``self.p`` and its
        VJP is hand-written. Forward and VJP repeat, op for op, the graph
        the same pass composed of elementary ops would build, so value
        and grads equal that graph's bit for bit; the tests compare
        against it.
        """
        out, (pe, pre, hidden, row_w, position, projected, norms) = _forward(
            lengths, rows, {k: m.value for k, m in self.p.items()}, self.d_p)
        w2 = self.p["dec_w2"].value

        def vjp(g):
            g_pooled = nm.unit_rows_vjp(g, out, norms)
            spread = np.repeat(g_pooled, lengths, axis=0)
            g_theta = np.zeros((pe.shape[0], 1))
            np.add.at(g_theta[:, 0], position, (spread * projected).sum(axis=1))
            g_pre = (g_theta @ w2.T) * (pre > 0.0)
            return (rows.T @ (spread * row_w), pe.T @ g_pre, g_pre.sum(axis=0, keepdims=True),
                    hidden.T @ g_theta, g_theta.sum(axis=0, keepdims=True))

        return nm.node(out, tuple(self.p[k] for k in PARAM_NAMES), vjp)


_finite = functools.partial(nm.finite, "aggregate_batch")


def _forward(lengths: np.ndarray, x: np.ndarray, p: dict[str, np.ndarray], d_p: int):
    """The aggregator's pass over the stacked rows ``x`` of sequences of ``lengths``, in plain numpy.

    Returns the unit embeddings and the intermediates the VJP of
    ``FeatureAggregator.aggregate_batch`` reads. Every array the
    composed graph would hold is checked, so a ``NonFiniteError`` names
    ``aggregate_batch`` and the stage that is not finite: the
    pre-activation before ``relu`` could hide a ``-inf`` or NaN in it,
    and a non-finite parameter in the stage that uses it. The positional
    table and the ``relu`` output are finite by construction, and the
    normalisation raises as ``numerics.unit_rows`` does. Rows
    of another width than ``p["proj"]`` expects are rejected first.
    """
    if x.shape[1] != p["proj"].shape[0]:
        raise ValueError(f"stacked feature dim {x.shape[1]} != aggregator d_in {p['proj'].shape[0]}")
    _finite("input", x)
    pe = positional_encoding_table(int(lengths.max()), d_p)
    pre = _finite("pooling pre-activation", _finite("pooling layer 1", pe @ p["dec_w1"]) + p["dec_b1"])
    hidden = np.where(pre > 0.0, pre, 0.0)
    theta = _finite("pooling weights",
                    _finite("pooling layer 2", hidden @ p["dec_w2"]) + p["dec_b2"])
    projected = _finite("projection", x @ p["proj"])
    starts = np.cumsum(lengths) - lengths
    position = np.arange(x.shape[0]) - np.repeat(starts, lengths)
    row_w = theta[position]
    pooled = _finite("pooled sum", np.add.reduceat(projected * row_w, starts, axis=0))
    out, norms = nm.unit_rows(pooled)
    return out, (pe, pre, hidden, row_w, position, projected, norms)


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

    def momentum_update(self, m: float = 0.995) -> "EncoderPair":
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
    """Fixed-capacity FIFO queue of embedding rows, oldest first; capacity 0 holds none.

    The trainer pushes ``[v | w]`` rows, each an image–text pair of unit-norm
    momentum embeddings; the queue enforces capacity, order, dimension, finiteness.
    """

    def __init__(self, capacity: int, dim: int):
        if not all(np.issubdtype(np.asarray(x).dtype, np.integer) for x in (capacity, dim)):
            raise ValueError(f"capacity and dim must be integers, got {capacity!r} and {dim!r}")
        if capacity < 0 or dim < 1:
            raise ValueError("capacity must be non-negative and dim positive")
        self.capacity = capacity
        self.dim = dim
        self._rows = np.zeros((0, dim))

    def __len__(self) -> int:
        return self._rows.shape[0]

    def enqueue(self, rows: np.ndarray) -> "MemoryBank":
        """Append finite rows newest-last, evicting from the front past capacity."""
        arr = np.asarray(rows, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != self.dim:
            raise ValueError(f"expected rows of dim {self.dim}, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise nm.NonFiniteError("enqueue: rows contain non-finite entries")
        self._rows = np.vstack([self._rows, arr])[max(len(self) + len(arr) - self.capacity, 0):]
        return self

    def view(self) -> np.ndarray:
        """Current contents, oldest first; read-only."""
        out = self._rows.view()
        out.setflags(write=False)
        return out
