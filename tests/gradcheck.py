"""Central-difference gradient checking for the tests.

Import it as ``from gradcheck import grad_check``; pytest puts this
directory on ``sys.path`` because it has no ``__init__.py``.
"""
import numpy as np

from crossalign.numerics import Matrix, backward


def grad_check(loss_fn, params: Matrix, h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``loss_fn`` maps a Matrix like ``params`` to a deterministic 1x1
    Matrix; every Matrix is finite, so a non-finite loss raises
    ``NonFiniteError`` where it is formed. The error denominator is
    floored at 1e-8 so near-zero gradients do not blow up the ratio.
    """
    if not h > 0.0:
        raise ValueError("step size h must be positive")
    leaf = Matrix(params.value)
    backward(loss_fn(leaf))
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
            numeric[i, j] = (up - down) / (2.0 * h)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))
