"""Elementary ops that only the tests' composed reference graphs use.

Import them as ``from autodiff_ref import row_sum``; pytest puts this
directory on ``sys.path`` because it has no ``__init__.py``. The fused
nodes in ``crossalign`` repeat these ops' arithmetic, so the composed
graphs built from them are the byte-equality references of those nodes.
"""
import numpy as np

from crossalign.numerics import Matrix, node, unit_rows, unit_rows_vjp


def row_sum(a: Matrix) -> Matrix:
    """Each row's sum as an [N, 1] column."""
    cols = a.cols
    return node(a.value.sum(axis=1, keepdims=True), (a,), lambda g: (np.repeat(g, cols, axis=1),))


def softmax_rows(a: Matrix) -> Matrix:
    """Row-wise softmax with max-subtraction."""
    z = a.value - a.value.max(axis=1, keepdims=True)
    e = np.exp(z)
    out = e / e.sum(axis=1, keepdims=True)

    def vjp(g):
        inner = (g * out).sum(axis=1, keepdims=True)
        return (out * (g - inner),)

    return node(out, (a,), vjp)


def log_softmax_rows(a: Matrix) -> Matrix:
    z = a.value - a.value.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    out = z - lse
    soft = np.exp(out)

    def vjp(g):
        return (g - soft * g.sum(axis=1, keepdims=True),)

    return node(out, (a,), vjp)


def l2_normalize_rows(a: Matrix) -> Matrix:
    """Scale every row to unit Euclidean norm, as ``unit_rows`` does."""
    out, norms = unit_rows(a.value)
    return node(out, (a,), lambda g: (unit_rows_vjp(g, out, norms),))
