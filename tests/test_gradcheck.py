import numpy as np
import pytest

from crossalign import numerics as nm
from crossalign.numerics import Matrix, rng_from_seed

from gradcheck import grad_check


def test_grad_check_linear():
    err = grad_check(lambda p: nm.sum_all(p), Matrix(np.ones((3, 4))), h=1e-5)
    assert err <= 1e-10


def test_grad_check_quadratic():
    rng = rng_from_seed(3)
    params = Matrix(rng.standard_normal((4, 4)))
    err = grad_check(lambda p: nm.sum_all(p * p) * 0.5, params, h=1e-5)
    assert err <= 1e-8


def test_grad_check_reports_a_wrong_vjp():
    def doubled_sum(p):
        return nm.node(np.array([[p.value.sum()]]), (p,), lambda g: (np.full(p.shape, 2.0 * g[0, 0]),))

    assert grad_check(doubled_sum, Matrix(np.ones((2, 3))), h=1e-5) == pytest.approx(0.5, abs=1e-9)


def test_grad_check_rejects_non_finite_loss():
    def bad(p):
        return Matrix([[0.0]]) if p.value[0, 0] == 1.0 else (p * 1e308) @ (p * 1e308).T

    with np.errstate(over="ignore"), pytest.raises(nm.NonFiniteError, match="^mul: result contains"):
        grad_check(bad, Matrix([[2.0]]), h=1e-5)


@pytest.mark.parametrize("h", [0.0, -1e-5, float("nan")])
def test_grad_check_rejects_a_step_that_is_not_positive(h):
    with pytest.raises(ValueError, match="^step size h must be positive$"):
        grad_check(lambda p: nm.sum_all(p), Matrix(np.ones((1, 1))), h=h)
