import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossalign import numerics as nm
from crossalign.numerics import (
    AdamState,
    Matrix,
    adam_step,
    backward,
    rng_from_seed,
)

from autodiff_ref import l2_normalize_rows, log_softmax_rows, row_sum, softmax_rows
from gradcheck import grad_check


def test_matmul_identity():
    m = Matrix([[1.0, 2.0], [3.0, 4.0]])
    eye = Matrix(np.eye(2))
    assert np.array_equal((eye @ m).value, m.value)


def test_matmul_hand_arithmetic():
    out = Matrix([[1.0, 2.0], [3.0, 4.0]]) @ Matrix([[1.0], [1.0]])
    assert out.value.tolist() == [[3.0], [7.0]]


def test_matmul_against_triple_loop():
    rng = rng_from_seed(11)
    a = rng.standard_normal((5, 7))
    b = rng.standard_normal((7, 3))
    out = (Matrix(a) @ Matrix(b)).value
    ref = np.zeros((5, 3))
    for i in range(5):
        for j in range(3):
            for k in range(7):
                ref[i, j] += a[i, k] * b[k, j]
    assert np.max(np.abs(out - ref)) <= 1e-12


def test_matmul_dimension_mismatch():
    with pytest.raises(ValueError, match="matmul"):
        Matrix(np.ones((2, 3))) @ Matrix(np.ones((2, 3)))


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_matmul_associative(seed):
    rng = rng_from_seed(seed, 1)
    a, b, c = (Matrix(rng.standard_normal(s)) for s in [(4, 6), (6, 5), (5, 3)])
    left = ((a @ b) @ c).value
    right = (a @ (b @ c)).value
    scale = max(np.max(np.abs(left)), np.max(np.abs(right)), 1.0)
    assert np.max(np.abs(left - right)) / scale <= 1e-9


def test_l2_normalize_three_four_five():
    out = l2_normalize_rows(Matrix([[3.0, 4.0]]))
    assert out.value == pytest.approx(np.array([[0.6, 0.8]]), abs=1e-15)


def test_l2_normalize_unit_row_unchanged():
    row = np.array([[0.0, 1.0, 0.0]])
    assert np.array_equal(l2_normalize_rows(Matrix(row)).value, row)


def test_l2_normalize_random_rows_have_unit_norm():
    rng = rng_from_seed(5)
    out = l2_normalize_rows(Matrix(rng.standard_normal((20, 9))))
    assert np.max(np.abs(np.linalg.norm(out.value, axis=1) - 1.0)) <= 1e-12


def test_l2_normalize_zero_row_rejected():
    with pytest.raises(ValueError, match="zero row"):
        l2_normalize_rows(Matrix([[0.0, 0.0]]))


@pytest.mark.parametrize("tiny", [1e-200, 1e-160])
def test_l2_normalize_tiny_row_is_rescaled_not_zeroed(tiny):
    # 1e-200 squared underflows to 0; 1e-160 squared is subnormal and loses bits
    row = np.array([[1.0, -3.0]])
    ref = l2_normalize_rows(Matrix(row))
    small = l2_normalize_rows(Matrix(tiny * row))
    assert small.value == pytest.approx(ref.value, rel=1e-15)
    assert l2_normalize_rows(Matrix([[tiny, tiny]])).value == pytest.approx(
        np.full((1, 2), np.sqrt(0.5)), rel=1e-15)

    def grad_at(x):
        leaf = Matrix(x)
        nm.backward(nm.sum_all(l2_normalize_rows(leaf) * Matrix([[0.3, -0.7]])))
        return leaf.grad

    # the Jacobian of x / |x| scales as 1 / |x|
    assert grad_at(tiny * row) * tiny == pytest.approx(grad_at(row), rel=1e-12)


def test_l2_normalize_small_row_leaves_other_rows_bits():
    rng = rng_from_seed(6)
    rows = rng.standard_normal((5, 7))
    alone = l2_normalize_rows(Matrix(rows)).value
    mixed = l2_normalize_rows(Matrix(np.vstack([rows, 1e-200 * rows[:1]]))).value
    assert np.array_equal(mixed[:5], alone)
    assert mixed[5] == pytest.approx(alone[0], rel=1e-15)


@pytest.mark.parametrize("row", [[1e200, 1e200], [1.0, -1e155], [1.7e308, 1.7e308]])
def test_l2_normalize_overflowing_norm_is_named_not_zeroed(row):
    # the squared norm overflows float64; dividing by an inf norm would give a zero row
    with pytest.raises(nm.NonFiniteError, match="^unit_rows: a row norm overflows float64$"):
        l2_normalize_rows(Matrix([[1.0, 1.0], row]))


def test_softmax_symmetric_row():
    assert softmax_rows(Matrix([[0.0, 0.0]])).value == pytest.approx(np.array([[0.5, 0.5]]))


def test_softmax_extreme_row_is_stable():
    out = softmax_rows(Matrix([[1000.0, 0.0]])).value
    assert out == pytest.approx(np.array([[1.0, 0.0]]), abs=1e-12)


def test_softmax_reference_row():
    out = softmax_rows(Matrix([[1.0, 2.0, 3.0]])).value
    assert out == pytest.approx(
        np.array([[0.090030573170, 0.244728471055, 0.665240955775]]), abs=1e-10
    )


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=50, deadline=None)
def test_softmax_rows_sum_to_one(seed):
    rng = rng_from_seed(seed, 2)
    shape = (int(rng.integers(1, 6)), int(rng.integers(1, 8)))
    vals = rng.uniform(-50.0, 50.0, size=shape) / rng.uniform(0.05, 5.0)
    out = softmax_rows(Matrix(vals))
    assert np.max(np.abs(out.value.sum(axis=1) - 1.0)) <= 1e-9
    assert np.all(out.value >= 0.0)


def test_matrix_rejects_non_finite():
    with pytest.raises(nm.NonFiniteError, match="^Matrix: matrix contains non-finite entries"):
        Matrix([[np.nan, 1.0]])
    with pytest.raises(nm.NonFiniteError, match="^Matrix: "):
        Matrix([[np.inf]])


def test_matrix_value_is_immutable():
    m = Matrix([[1.0]])
    with pytest.raises(ValueError):
        m.value[0, 0] = 2.0


# ---------------------------------------------------------------------------
# reverse mode
# ---------------------------------------------------------------------------

def test_backward_twice_is_an_error():
    x = Matrix([[2.0]])
    loss = nm.sum_all(x * x)
    backward(loss)
    assert x.grad == pytest.approx(np.array([[4.0]]))
    with pytest.raises(RuntimeError, match="already ran"):
        backward(loss)


def test_shared_node_gradients_accumulate():
    x = Matrix([[3.0]])
    loss = nm.sum_all(x * x + x)  # d/dx = 2x + 1
    backward(loss)
    assert x.grad == pytest.approx(np.array([[7.0]]))


def test_backward_fan_out_keeps_grads_separate():
    x = Matrix([[1.0, 2.0]])
    y = x * 3.0
    z = nm.add(y, y)  # one node feeds both inputs; its two grads arrive as one array
    unreached = x * 5.0
    backward(nm.sum_all(z * z))  # z feeds both inputs of mul as well
    assert np.array_equal(z.grad, np.array([[12.0, 24.0]]))
    assert np.array_equal(y.grad, np.array([[24.0, 48.0]]))
    assert np.array_equal(x.grad, np.array([[72.0, 144.0]]))
    assert unreached.grad is None


@pytest.mark.parametrize("seed", range(5))
def test_grad_check_elementary_ops(seed):
    rng = rng_from_seed(seed, 7)
    probe = Matrix(rng.standard_normal((4, 5)))
    other = Matrix(rng.standard_normal((4, 5)))
    right = Matrix(rng.standard_normal((5, 3)))
    # keep relu inputs away from the kink and rows away from zero
    offset = Matrix(np.full((4, 5), 3.0))

    cases = [
        lambda p: nm.sum_all(p @ right),
        lambda p: nm.sum_all(p + other),
        lambda p: nm.sum_all(p * other),
        lambda p: nm.sum_all(nm.exp(p * 0.3)),
        lambda p: nm.sum_all(nm.relu(p + offset) * other),
        lambda p: nm.sum_all(softmax_rows(p * 1.4) * other),
        lambda p: nm.sum_all(log_softmax_rows(p) * other),
        lambda p: nm.sum_all(l2_normalize_rows(p + offset) * other),
        lambda p: nm.sum_all(row_sum(p) * row_sum(other)),
        lambda p: nm.sum_all(p.T @ other),
    ]
    for fn in cases:
        assert grad_check(fn, probe, h=1e-5) <= 1e-4


@pytest.mark.parametrize("op, build", [
    ("matmul", lambda big: big @ big.T),
    ("add", lambda big: big + big),
    ("mul", lambda big: big * big),
    ("exp", lambda big: nm.exp(big)),
    ("sum_all", lambda big: nm.sum_all(big)),
    ("row_sum", lambda big: row_sum(big)),
])
def test_a_non_finite_node_value_names_its_op(op, build):
    big = Matrix(np.full((2, 2), 1e308))
    with np.errstate(over="ignore"), pytest.raises(nm.NonFiniteError, match=f"^{op}: result contains non-finite entries"):
        build(big)


def test_split_leaves_view_the_flat_values_in_order():
    flat = Matrix(np.arange(11.0).reshape(1, -1))
    leaves = nm.split_leaves(flat, [(2, 3), (1, 1), (4, 1)])
    assert [leaf.value.tolist() for leaf in leaves] == [
        [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]], [[6.0]], [[7.0], [8.0], [9.0], [10.0]]]
    for leaf in leaves:
        assert np.shares_memory(leaf.value, flat.value) and not leaf.value.flags.writeable
        assert leaf.grad is None and leaf._parents == () and leaf._vjp is None
    with pytest.raises(ValueError, match="shapes hold 10 values, but flat has 11"):
        nm.split_leaves(flat, [(2, 5)])


def test_a_python_scalar_operand_becomes_a_1x1_leaf_parent():
    # the only constant leaves a training step builds are such scalars
    leaf = Matrix(np.arange(6.0).reshape(2, 3))
    out = leaf * 0.1
    assert out._parents[0] is leaf
    scalar = out._parents[1]
    assert scalar.value.tolist() == [[0.1]] and scalar._parents == () and scalar._vjp is None
    backward(nm.sum_all(out))
    assert scalar.grad.tolist() == [[15.0]]


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def test_adam_zero_gradient_is_fixed_point():
    params = Matrix([[1.0, -2.0]])
    state = AdamState(1, 2, lr=0.1)
    out = adam_step(state, params, np.zeros((1, 2)))
    assert np.array_equal(out.value, params.value)


def test_adam_first_step_magnitude():
    params = Matrix([[1.0]])
    state = AdamState(1, 1, lr=0.1)
    out = adam_step(state, params, np.array([[1.0]]))
    assert params.value[0, 0] - out.value[0, 0] == pytest.approx(0.099999999, abs=1e-9)


def test_adam_descends_quadratic():
    params = Matrix([[1.0]])
    state = AdamState(1, 1, lr=0.05)
    for _ in range(100):
        grad = 2.0 * params.value  # d/dx of x^2
        params = adam_step(state, params, grad)
    assert abs(params.value[0, 0]) < 0.1


def test_adam_is_bitwise_deterministic():
    rng = rng_from_seed(9)
    p0 = rng.standard_normal((3, 3))
    g = rng.standard_normal((3, 3))
    outs = []
    for _ in range(2):
        state = AdamState(3, 3, lr=0.01)
        params = Matrix(p0)
        for _ in range(10):
            params = adam_step(state, params, g)
        outs.append(params.value)
    assert outs[0].tobytes() == outs[1].tobytes()


def test_adam_shape_mismatch():
    state = AdamState(2, 2, lr=0.1)
    with pytest.raises(ValueError, match="shape"):
        adam_step(state, Matrix(np.ones((2, 2))), np.ones((2, 3)))


def test_adam_step_counter_increases():
    state = AdamState(1, 1, lr=0.1)
    params = Matrix([[0.0]])
    for expected in (1, 2, 3):
        params = adam_step(state, params, np.ones((1, 1)))
        assert state.step == expected


def test_rng_streams_are_deterministic_and_distinct():
    a = rng_from_seed(7, 1).standard_normal(4)
    b = rng_from_seed(7, 1).standard_normal(4)
    c = rng_from_seed(7, 2).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError):
        rng_from_seed(-1)
