"""Float64 matrices with reverse-mode differentiation and Adam.

Everything downstream builds on this module. A :class:`Matrix` is an
immutable 2-D float64 value; operations return new matrices that remember
their parents and a vector-Jacobian closure, so running :func:`backward`
on a scalar result fills ``grad`` on every node that fed into it.
Every op returns through :func:`node`, which other modules also use for
a fused op with a hand-written VJP (``objective._contrastive_direction``
and ``_cross_entropy``, ``representation.FeatureAggregator.aggregate_batch``,
``knowledge.concept_query``); ops only the tests compose live with them.

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
        if arr.ndim != 2:
            raise ValueError(f"Matrix must be 2-D, got {arr.ndim}-D input")
        if not np.isfinite(arr).all():
            raise NonFiniteError("Matrix: matrix contains non-finite entries")
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

    @property
    def T(self) -> "Matrix":
        return transpose(self)

    def __add__(self, other):
        return add(self, _as_matrix(other))

    def __mul__(self, other):
        return mul(self, _as_matrix(other))

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


class NonFiniteError(ValueError):
    """An operation produced or received NaN/Inf entries."""


def node(values: np.ndarray, parents: tuple[Matrix, ...], vjp) -> Matrix:
    """A graph node holding ``values``: the one constructor every differentiable op returns through.

    ``vjp(g)`` maps the grad of the result to one grad per parent, in
    ``parents`` order and each in its parent's shape; an array the op
    holds as a constant is no parent and gets no grad. ``values`` must be
    finite; it becomes the node's read-only row-major float64 value
    (copied only when it is not one already). A non-finite value raises
    ``NonFiniteError`` naming the op, the function ``vjp`` was defined in.
    """
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if not np.isfinite(arr).all():
        op = getattr(vjp, "__qualname__", "node").split(".<locals>", 1)[0]
        raise NonFiniteError(f"{op}: result contains non-finite entries")
    return _wrap(arr, parents, vjp)


def _wrap(arr: np.ndarray, parents: tuple[Matrix, ...], vjp) -> Matrix:
    """A node holding the finite row-major float64 ``arr`` itself, made read-only; nothing is checked."""
    out = Matrix.__new__(Matrix)
    arr.setflags(write=False)
    out.value = arr
    out.grad = None
    out._parents = parents
    out._vjp = vjp
    out._spent = False
    return out


def finite(op: str, stage: str, arr: np.ndarray) -> np.ndarray:
    """``arr``, if it is finite; otherwise a ``NonFiniteError`` naming the fused ``op`` and its ``stage``."""
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{op}: {stage} has non-finite entries")
    return arr


def split_leaves(flat: Matrix, shapes: Sequence[tuple[int, int]]) -> list[Matrix]:
    """Leaves holding consecutive slices of ``flat``'s values, one per shape, in order.

    Each leaf's value is a read-only view of ``flat.value``, neither
    copied nor checked again: the values of a Matrix are finite already.
    """
    values = flat.value.reshape(-1)
    sizes = [rows * cols for rows, cols in shapes]
    if sum(sizes) != values.size:
        raise ValueError(f"shapes hold {sum(sizes)} values, but flat has {values.size}")
    ends = np.cumsum(sizes)
    return [_wrap(values[end - size:end].reshape(shape), (), None)
            for shape, size, end in zip(shapes, sizes, ends)]


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

    return node(av + bv, (a, b), vjp)


def mul(a: Matrix, b: Matrix) -> Matrix:
    av, bv = a.value, b.value

    def vjp(g):
        return _unbroadcast(g * bv, av.shape), _unbroadcast(g * av, bv.shape)

    return node(av * bv, (a, b), vjp)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    if a.cols != b.rows:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    av, bv = a.value, b.value

    def vjp(g):
        return g @ bv.T, av.T @ g

    return node(av @ bv, (a, b), vjp)


def transpose(a: Matrix) -> Matrix:
    return node(a.value.T, (a,), lambda g: (g.T,))


def exp(a: Matrix) -> Matrix:
    out = np.exp(a.value)
    return node(out, (a,), lambda g: (g * out,))


def relu(a: Matrix) -> Matrix:
    mask = a.value > 0.0
    return node(np.where(mask, a.value, 0.0), (a,), lambda g: (g * mask,))


def sum_all(a: Matrix) -> Matrix:
    shape = a.value.shape
    return node(np.array([[a.value.sum()]]), (a,), lambda g: (np.full(shape, g[0, 0]),))


# below this norm a row's squares can underflow: sqrt of the smallest normal float64
_SMALL_NORM = math.sqrt(np.finfo(np.float64).tiny)


def unit_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every row of ``x`` scaled to unit Euclidean norm, and the norms [rows, 1].

    Rejects zero rows, and overflowing norms with a ``NonFiniteError``
    naming ``unit_rows``. A row whose norm is below ``_SMALL_NORM`` would
    lose bits to (or vanish in) the underflowing squares, so it is first
    divided by its largest magnitude; every other row is divided by its
    norm directly.
    """
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(x, axis=1, keepdims=True)
    if not np.isfinite(norms).all():
        raise NonFiniteError("unit_rows: a row norm overflows float64")
    scaled, scaled_norms = x, norms
    small = norms < _SMALL_NORM
    if small.any():
        # dividing the other rows by 1.0 leaves their bits as they were
        peak = np.where(small, np.abs(x).max(axis=1, keepdims=True), 1.0)
        if np.any(peak == 0.0):
            raise ValueError("cannot normalize a zero row")
        scaled = x / peak
        scaled_norms = np.linalg.norm(scaled, axis=1, keepdims=True)
        norms = peak * scaled_norms
    return scaled / scaled_norms, norms


def unit_rows_vjp(g: np.ndarray, out: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """The grad of the input of :func:`unit_rows` from the grad ``g`` of its output ``out``."""
    inner = (g * out).sum(axis=1, keepdims=True)
    return (g - out * inner) / norms


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
    """First/second moment buffers and step counter for one parameter array.

    The trainer keeps one state over all its parameters, flattened into a
    single [1, total] row, and steps them with one call.
    """

    __slots__ = ("lr", "m", "v", "step")

    def __init__(self, rows: int, cols: int, lr: float):
        self.lr = lr
        self.m = np.zeros((rows, cols))
        self.v = np.zeros((rows, cols))
        self.step = 0


def adam_step(state: AdamState, params: Matrix, grads: np.ndarray) -> Matrix:
    """One bias-corrected Adam update; returns the new parameter value.

    A non-finite result raises ``NonFiniteError`` naming ``adam_step`` and
    leaves ``state`` as it was.
    """
    g = np.asarray(grads, dtype=np.float64)
    if g.shape != params.value.shape or state.m.shape != params.value.shape:
        raise ValueError(
            f"adam_step shape mismatch: params {params.value.shape}, "
            f"grads {g.shape}, state {state.m.shape}"
        )
    step = state.step + 1
    m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * g
    v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * g * g
    m_hat = m / (1.0 - ADAM_BETA1 ** step)
    v_hat = v / (1.0 - ADAM_BETA2 ** step)
    out = params.value - state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    if not np.isfinite(out).all():
        raise NonFiniteError("adam_step: update contains non-finite entries")
    state.m, state.v, state.step = m, v, step
    return _wrap(out, (), None)


# ---------------------------------------------------------------------------
# seeded randomness
# ---------------------------------------------------------------------------

def rng_from_seed(seed: int, *stream: int) -> np.random.Generator:
    """Deterministic generator for ``seed`` plus an optional stream key."""
    if seed < 0 or any(s < 0 for s in stream):
        raise ValueError("seeds and stream keys must be non-negative")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *stream])))
