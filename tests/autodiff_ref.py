"""Elementary ops that only the tests' composed reference graphs use.

Import them as ``from autodiff_ref import row_sum``; pytest puts this
directory on ``sys.path`` because it has no ``__init__.py``.
"""
import numpy as np

from crossalign.numerics import Matrix, node


def row_sum(a: Matrix) -> Matrix:
    """Each row's sum as an [N, 1] column."""
    cols = a.cols
    return node(a.value.sum(axis=1, keepdims=True), (a,), lambda g: (np.repeat(g, cols, axis=1),))
