"""Float64 matrices with reverse-mode differentiation, Adam, and grad checking.

Everything downstream builds on this module. A :class:`Matrix` is an
immutable 2-D float64 value; operations return new matrices that remember
their parents and a vector-Jacobian closure, so running :func:`backward`
on a scalar result fills ``grad`` on every node that fed into it.

Matrix values are safe to read from any thread once constructed. Graph
construction and backward passes are single-owner, single-threaded.
"""
from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np


class Matrix:
    """Immutable 2-D float64 value, optionally a node in a reverse-mode graph.

    ``value`` is a non-writeable row-major ndarray. ``grad`` is filled by
    :func:`backward` and holds d(result)/d(self) with the same shape; it
    may be the same array as another node's grad, so it is read-only.
    """

    __slots__ = ("value", "grad", "_parents", "_vjp", "_spent")

    def __init__(self, values):
        arr = np.array(values, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2:
            raise ValueError(f"Matrix must be 2-D, got {arr.ndim}-D input")
        _check_finite(arr)
        arr.setflags(write=False)
        self.value = arr
        self.grad: np.ndarray | None = None
        self._parents: tuple[Matrix, ...] = ()
        self._vjp: Callable[[np.ndarray], tuple[np.ndarray, ...]] | None = None
        self._spent = False

    @property
    def rows(self) -> int:
        return self.value.shape[0]

    @property
    def cols(self) -> int:
        return self.value.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    def item(self) -> float:
        if self.value.shape != (1, 1):
            raise ValueError(f"item() needs a 1x1 matrix, got {self.value.shape}")
        return float(self.value[0, 0])

    def detach(self) -> "Matrix":
        """Same value as a fresh leaf; gradients stop here."""
        return Matrix(self.value)

    @property
    def T(self) -> "Matrix":
        return transpose(self)

    def __add__(self, other):
        return add(self, _as_matrix(other))

    def __radd__(self, other):
        return add(_as_matrix(other), self)

    def __sub__(self, other):
        return add(self, neg(_as_matrix(other)))

    def __rsub__(self, other):
        return add(_as_matrix(other), neg(self))

    def __neg__(self):
        return neg(self)

    def __mul__(self, other):
        return mul(self, _as_matrix(other))

    def __rmul__(self, other):
        return mul(_as_matrix(other), self)

    def __truediv__(self, other):
        if isinstance(other, Matrix):
            raise TypeError("matrix/matrix division is not supported; multiply by a reciprocal constant")
        return mul(self, _as_matrix(1.0 / float(other)))

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


class NonFiniteError(ValueError):
    """An operation produced or received NaN/Inf entries."""


def _check_finite(arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteError("matrix contains non-finite entries")


def _node(values: np.ndarray, parents: tuple[Matrix, ...], vjp) -> Matrix:
    out = Matrix.__new__(Matrix)
    arr = np.ascontiguousarray(values, dtype=np.float64)
    _check_finite(arr)
    arr.setflags(write=False)
    out.value = arr
    out.grad = None
    out._parents = parents
    out._vjp = vjp
    out._spent = False
    return out


def _as_matrix(x) -> Matrix:
    if isinstance(x, Matrix):
        return x
    return Matrix(x)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    out = grad
    if shape[0] == 1 and out.shape[0] > 1:
        out = out.sum(axis=0, keepdims=True)
    if shape[1] == 1 and out.shape[1] > 1:
        out = out.sum(axis=1, keepdims=True)
    return out


# ---------------------------------------------------------------------------
# elementary operations
# ---------------------------------------------------------------------------

def add(a: Matrix, b: Matrix) -> Matrix:
    av, bv = a.value, b.value

    def vjp(g):
        return _unbroadcast(g, av.shape), _unbroadcast(g, bv.shape)

    return _node(av + bv, (a, b), vjp)


def neg(a: Matrix) -> Matrix:
    return _node(-a.value, (a,), lambda g: (-g,))


def mul(a: Matrix, b: Matrix) -> Matrix:
    av, bv = a.value, b.value

    def vjp(g):
        return _unbroadcast(g * bv, av.shape), _unbroadcast(g * av, bv.shape)

    return _node(av * bv, (a, b), vjp)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    if a.cols != b.rows:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    av, bv = a.value, b.value

    def vjp(g):
        return g @ bv.T, av.T @ g

    return _node(av @ bv, (a, b), vjp)


def transpose(a: Matrix) -> Matrix:
    return _node(a.value.T, (a,), lambda g: (g.T,))


def exp(a: Matrix) -> Matrix:
    out = np.exp(a.value)
    return _node(out, (a,), lambda g: (g * out,))


def log(a: Matrix) -> Matrix:
    if np.any(a.value <= 0.0):
        raise ValueError("log of a non-positive entry")
    av = a.value
    return _node(np.log(av), (a,), lambda g: (g / av,))


def relu(a: Matrix) -> Matrix:
    mask = a.value > 0.0
    return _node(np.where(mask, a.value, 0.0), (a,), lambda g: (g * mask,))


def sum_all(a: Matrix) -> Matrix:
    shape = a.value.shape
    return _node(np.array([[a.value.sum()]]), (a,), lambda g: (np.full(shape, g[0, 0]),))


def row_sum(a: Matrix) -> Matrix:
    cols = a.cols
    return _node(a.value.sum(axis=1, keepdims=True), (a,), lambda g: (np.repeat(g, cols, axis=1),))


def segment_weighted_sum(values: Matrix, weights: Matrix, lengths: Sequence[int]) -> Matrix:
    """Position-weighted sum over consecutive row segments; shape [len(lengths), cols].

    ``values`` stacks the segments' rows, ``lengths[i]`` rows for segment
    i, and ``weights`` is a [max_length, 1] column of per-position
    weights, so row i of the result is
    sum over t < lengths[i] of weights[t] * values[offset_i + t].
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.ndim != 1 or lengths.size == 0 or lengths.min() < 1:
        raise ValueError("segment_weighted_sum needs one or more segments, each of length >= 1")
    if int(lengths.sum()) != values.rows:
        raise ValueError(f"segment lengths sum to {int(lengths.sum())}, but values has {values.rows} rows")
    if weights.cols != 1 or weights.rows < lengths.max():
        raise ValueError(f"weights must be a column of at least {int(lengths.max())} rows, "
                         f"got {weights.shape}")
    starts = np.cumsum(lengths) - lengths
    position = np.arange(values.rows) - np.repeat(starts, lengths)
    vv, row_w = values.value, weights.value[position]

    def vjp(g):
        spread = np.repeat(g, lengths, axis=0)
        dw = np.zeros(weights.value.shape)
        np.add.at(dw[:, 0], position, (spread * vv).sum(axis=1))
        return spread * row_w, dw

    return _node(np.add.reduceat(vv * row_w, starts, axis=0), (values, weights), vjp)


def softmax_rows(a: Matrix) -> Matrix:
    """Row-wise softmax with max-subtraction."""
    z = a.value - a.value.max(axis=1, keepdims=True)
    e = np.exp(z)
    out = e / e.sum(axis=1, keepdims=True)

    def vjp(g):
        inner = (g * out).sum(axis=1, keepdims=True)
        return (out * (g - inner),)

    return _node(out, (a,), vjp)


def log_softmax_rows(a: Matrix) -> Matrix:
    z = a.value - a.value.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    out = z - lse
    soft = np.exp(out)

    def vjp(g):
        return (g - soft * g.sum(axis=1, keepdims=True),)

    return _node(out, (a,), vjp)


# below this norm a row's squares can underflow: sqrt of the smallest normal float64
_SMALL_NORM = math.sqrt(np.finfo(np.float64).tiny)


def l2_normalize_rows(a: Matrix) -> Matrix:
    """Scale every row to unit Euclidean norm; rejects zero rows and overflowing norms.

    A row whose norm is below ``_SMALL_NORM`` would lose bits to (or
    vanish in) the underflowing squares, so it is first divided by its
    largest magnitude; every other row is divided by its norm directly.
    """
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(a.value, axis=1, keepdims=True)
    if not np.isfinite(norms).all():
        raise NonFiniteError("l2_normalize_rows: a row norm overflows float64")
    scaled, scaled_norms = a.value, norms
    small = norms < _SMALL_NORM
    if small.any():
        # dividing the other rows by 1.0 leaves their bits as they were
        peak = np.where(small, np.abs(a.value).max(axis=1, keepdims=True), 1.0)
        if np.any(peak == 0.0):
            raise ValueError("cannot normalize a zero row")
        scaled = a.value / peak
        scaled_norms = np.linalg.norm(scaled, axis=1, keepdims=True)
        norms = peak * scaled_norms
    out = scaled / scaled_norms

    def vjp(g):
        inner = (g * out).sum(axis=1, keepdims=True)
        return ((g - out * inner) / norms,)

    return _node(out, (a,), vjp)


# ---------------------------------------------------------------------------
# reverse pass
# ---------------------------------------------------------------------------

def backward(result: Matrix) -> None:
    """Fill ``grad`` on every node that fed into the 1x1 ``result``.

    Buffers are lazy: each reached node's ``grad`` is reset to ``None``,
    its first contribution is stored as given and later ones are added
    into a new array. A grad can therefore be the very array another
    node holds (``add`` hands one array to both parents, ``transpose`` a
    view of its own), so grads are read-only: never write into one in
    place. Nodes the result does not reach keep their ``grad``.

    A second backward on the same result (without rebuilding the forward
    graph) is an error: intermediate grads would silently double.
    """
    if result.value.shape != (1, 1):
        raise ValueError("backward expects a 1x1 scalar result")
    if result._spent:
        raise RuntimeError("backward already ran for this result; rebuild the forward pass")
    result._spent = True

    order: list[Matrix] = []
    seen: set[int] = set()
    stack: list[tuple[Matrix, bool]] = [(result, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))

    for node in order:
        node.grad = None
    result.grad = np.ones((1, 1))
    for node in reversed(order):
        if node._vjp is None:
            continue
        for parent, g in zip(node._parents, node._vjp(node.grad)):
            parent.grad = g if parent.grad is None else parent.grad + g


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

class AdamState:
    """First/second moment buffers and step counter for one parameter."""

    __slots__ = ("lr", "m", "v", "step")

    def __init__(self, rows: int, cols: int, lr: float):
        self.lr = lr
        self.m = np.zeros((rows, cols))
        self.v = np.zeros((rows, cols))
        self.step = 0


def adam_step(state: AdamState, params: Matrix, grads: Matrix | np.ndarray) -> Matrix:
    """One bias-corrected Adam update; returns the new parameter value."""
    g = grads.value if isinstance(grads, Matrix) else np.asarray(grads, dtype=np.float64)
    if g.shape != params.value.shape or state.m.shape != params.value.shape:
        raise ValueError(
            f"adam_step shape mismatch: params {params.value.shape}, "
            f"grads {g.shape}, state {state.m.shape}"
        )
    state.step += 1
    state.m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * g
    state.v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * g * g
    m_hat = state.m / (1.0 - ADAM_BETA1 ** state.step)
    v_hat = state.v / (1.0 - ADAM_BETA2 ** state.step)
    return Matrix(params.value - state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS))


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def grad_check(loss_fn: Callable[[Matrix], Matrix], params: Matrix, h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``loss_fn`` must be deterministic and return a 1x1 matrix. The error
    denominator is floored at 1e-8 so near-zero gradients do not blow up
    the ratio.
    """
    if not h > 0.0:
        raise ValueError("step size h must be positive")
    leaf = Matrix(params.value)
    out = loss_fn(leaf)
    _check_finite(out.value)
    backward(out)
    analytic = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.value)

    numeric = np.zeros_like(leaf.value)
    base = params.value
    for i in range(base.shape[0]):
        for j in range(base.shape[1]):
            bumped = base.copy()
            bumped[i, j] = base[i, j] + h
            up = loss_fn(Matrix(bumped)).item()
            bumped[i, j] = base[i, j] - h
            down = loss_fn(Matrix(bumped)).item()
            if not (math.isfinite(up) and math.isfinite(down)):
                raise NonFiniteError("loss_fn returned a non-finite value during differencing")
            numeric[i, j] = (up - down) / (2.0 * h)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


# ---------------------------------------------------------------------------
# seeded randomness
# ---------------------------------------------------------------------------

def rng_from_seed(seed: int, *stream: int) -> np.random.Generator:
    """Deterministic generator for ``seed`` plus an optional stream key."""
    if seed < 0 or any(s < 0 for s in stream):
        raise ValueError("seeds and stream keys must be non-negative")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *stream])))
