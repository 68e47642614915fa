import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossalign import numerics as nm
from crossalign.numerics import Matrix, backward, grad_check, rng_from_seed
from crossalign.representation import (
    EncoderPair,
    FeatureAggregator,
    MemoryBank,
    named_params,
    positional_encoding,
    positional_encoding_table,
)


def test_positional_encoding_at_zero():
    out = positional_encoding(0, 8)
    assert np.array_equal(out, np.array([0.0, 1.0] * 4))


def test_positional_encoding_reference_value():
    out = positional_encoding(1, 2)
    assert out == pytest.approx([0.841470984808, 0.540302305868], abs=1e-10)


@given(st.integers(min_value=0, max_value=5000), st.integers(min_value=1, max_value=16))
@settings(max_examples=40, deadline=None)
def test_positional_encoding_bounded(index, half_dim):
    out = positional_encoding(index, 2 * half_dim)
    assert np.all(out >= -1.0) and np.all(out <= 1.0)


@pytest.mark.parametrize("d_p", [2, 8, 32])
@pytest.mark.parametrize("length", [1, 5, 64])
def test_positional_table_equals_stacked_rows(d_p, length):
    rows = np.stack([positional_encoding(i, d_p) for i in range(length)])
    u = 1.0 / (10000.0 ** (2.0 * np.arange(d_p // 2) / d_p))
    formula = np.stack([np.stack([np.sin(u * i), np.cos(u * i)], axis=1).ravel() for i in range(length)])
    table = positional_encoding_table(length, d_p)
    assert table.shape == (length, d_p)
    assert np.array_equal(table, rows)
    assert np.array_equal(table, formula)


def test_positional_encoding_rejects_odd_dim():
    with pytest.raises(ValueError, match="even"):
        positional_encoding(3, 5)


def _aggregator(seed=0, d_in=6, out_dim=8):
    return FeatureAggregator(d_in, out_dim, d_p=8, hidden=4, rng=rng_from_seed(seed))


def test_aggregate_identical_features_collapse_to_projection():
    agg = _aggregator()
    feature = rng_from_seed(1).standard_normal(6)
    seq = np.tile(feature, (5, 1))
    theta = agg.pooling_weights(5).value
    assert theta.sum() > 0  # fresh decoder starts near sum pooling
    out = agg.aggregate(seq).value
    expected = nm.l2_normalize_rows(Matrix(feature.reshape(1, -1)) @ agg.p["proj"]).value
    assert np.max(np.abs(out - expected)) <= 1e-10


def test_aggregate_single_feature():
    agg = _aggregator(seed=3)
    feature = rng_from_seed(4).standard_normal((1, 6))
    out = agg.aggregate(feature).value
    expected = nm.l2_normalize_rows(Matrix(feature) @ agg.p["proj"]).value
    assert np.max(np.abs(out - expected)) <= 1e-12


def test_pool_with_first_position_weight_only():
    agg = _aggregator(seed=5)
    seq = rng_from_seed(6).standard_normal((4, 6))
    weights = Matrix(np.array([[1.0], [0.0], [0.0], [0.0]]))
    pooled = nm.segment_weighted_sum(Matrix(seq) @ agg.p["proj"], weights, [4])
    out = nm.l2_normalize_rows(pooled).value
    expected = nm.l2_normalize_rows(Matrix(seq[:1]) @ agg.p["proj"]).value
    assert np.max(np.abs(out - expected)) <= 1e-10


@pytest.mark.parametrize("seed", range(6))
def test_aggregate_output_is_unit_norm(seed):
    rng = rng_from_seed(seed, 21)
    agg = _aggregator(seed=seed)
    seqs = [rng.standard_normal((int(rng.integers(1, 7)), 6)) for _ in range(4)]
    out = agg.aggregate_batch(seqs).value
    assert np.max(np.abs(np.linalg.norm(out, axis=1) - 1.0)) <= 1e-12


def test_aggregate_rejects_empty_input():
    agg = _aggregator()
    with pytest.raises(ValueError):
        agg.aggregate_batch([])
    with pytest.raises(ValueError):
        agg.aggregate(np.zeros((0, 6)))


def test_aggregate_rejects_wrong_feature_dim():
    agg = _aggregator()
    with pytest.raises(ValueError, match="d_in"):
        agg.aggregate(np.ones((3, 5)))


@pytest.mark.parametrize("name", ["proj", "dec_w1", "dec_b1", "dec_w2", "dec_b2"])
def test_gradients_flow_through_aggregate(name):
    agg = _aggregator(seed=7)
    rng = rng_from_seed(8)
    seqs = [rng.standard_normal((3, 6)), rng.standard_normal((5, 6))]
    probe = Matrix(rng.standard_normal((2, 8)))

    def loss_fn(p):
        params = dict(agg.p)
        params[name] = p
        return nm.sum_all(agg.aggregate_batch(seqs, params=params) * probe)

    assert grad_check(loss_fn, agg.p[name], h=1e-5) <= 1e-4


def test_batch_and_single_aggregation_agree():
    agg = _aggregator(seed=9)
    rng = rng_from_seed(10)
    seqs = [rng.standard_normal((int(rng.integers(1, 6)), 6)) for _ in range(5)]
    batched = agg.aggregate_batch(seqs).value
    singles = np.vstack([agg.aggregate(s).value for s in seqs])
    assert np.max(np.abs(batched - singles)) <= 1e-12


# ---------------------------------------------------------------------------
# momentum mirror
# ---------------------------------------------------------------------------

def _pair():
    agg = _aggregator(seed=11)
    return agg, EncoderPair({"enc": agg.p})


def test_momentum_update_extremes():
    agg, pair = _pair()
    before = {k: v.copy() for k, v in pair.momentum.items()}
    agg.p["proj"] = Matrix(agg.p["proj"].value + 1.0)

    pair.momentum_update(1.0)
    for k in before:
        assert np.array_equal(pair.momentum[k], before[k])

    pair.momentum_update(0.0)
    for name, main in named_params(pair.groups):
        assert np.array_equal(pair.momentum[name], main.value)


def test_momentum_update_single_value():
    main = {"only": {"w": Matrix([[1.0]])}}
    pair = EncoderPair(main)
    pair.momentum["only.w"] = np.array([[0.0]])
    pair.momentum_update(0.995)
    assert pair.momentum["only.w"][0, 0] == pytest.approx(0.005, abs=1e-15)


def test_momentum_update_rejects_out_of_range():
    _, pair = _pair()
    with pytest.raises(ValueError):
        pair.momentum_update(1.5)
    with pytest.raises(ValueError):
        pair.momentum_update(-0.1)


def test_momentum_closed_form_ema():
    main = {"g": {"w": Matrix(np.full((2, 2), 3.0))}}
    pair = EncoderPair(main)
    start = np.array([[0.0, 1.0], [2.0, -1.0]])
    pair.momentum["g.w"] = start.copy()
    m = 0.9
    for t in range(1, 41):
        pair.momentum_update(m)
        expected = 3.0 + (m ** t) * (start - 3.0)
        assert np.max(np.abs(pair.momentum["g.w"] - expected)) <= 1e-10


def test_momentum_shapes_match_main():
    _, pair = _pair()
    for name, main in named_params(pair.groups):
        assert pair.momentum[name].shape == main.value.shape


def test_momentum_forward_matches_main_after_full_copy():
    agg, pair = _pair()
    agg.p["proj"] = Matrix(agg.p["proj"].value * 0.5)
    pair.momentum_update(0.0)
    seq = rng_from_seed(12).standard_normal((4, 6))
    main_out = agg.aggregate(seq).value
    mom_out = agg.aggregate(seq, params=pair.momentum_group("enc")).value
    assert np.array_equal(main_out, mom_out)


def test_momentum_forward_leaves_main_gradients_untouched():
    agg, pair = _pair()
    seq = rng_from_seed(13).standard_normal((3, 6))
    out = agg.aggregate(seq, params=pair.momentum_group("enc"))
    backward(nm.sum_all(out))
    assert all(m.grad is None for _, m in named_params(pair.groups))


# ---------------------------------------------------------------------------
# memory bank
# ---------------------------------------------------------------------------

def test_bank_fifo_one_at_a_time():
    bank = MemoryBank(capacity=3, dim=2)
    rows = np.arange(8.0).reshape(4, 2)
    for r in rows:
        bank.enqueue(r.reshape(1, 2))
    assert np.array_equal(bank.view(), rows[1:])


def test_bank_exact_fill():
    rng = rng_from_seed(14)
    batch = rng.standard_normal((5, 3))
    bank = MemoryBank(capacity=5, dim=3)
    bank.enqueue(batch)
    assert np.array_equal(bank.view(), batch)


def test_bank_two_capacities_of_half_batches():
    cap = 8
    bank = MemoryBank(capacity=cap, dim=2)
    pushed = []
    rng = rng_from_seed(15)
    for _ in range(4):  # 2*cap rows in cap/2-sized batches
        batch = rng.standard_normal((cap // 2, 2))
        pushed.append(batch)
        bank.enqueue(batch)
    flat = np.vstack(pushed)
    assert np.array_equal(bank.view(), flat[-cap:])


def test_bank_rejects_wrong_dim():
    bank = MemoryBank(capacity=4, dim=3)
    with pytest.raises(ValueError, match="dim"):
        bank.enqueue(np.ones((2, 4)))


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_bank_matches_list_slicing_oracle(seed):
    rng = rng_from_seed(seed, 22)
    cap = int(rng.integers(1, 12))
    bank = MemoryBank(capacity=cap, dim=3)
    pushed = []
    for _ in range(int(rng.integers(1, 9))):
        batch = rng.standard_normal((int(rng.integers(1, 7)), 3))
        pushed.append(batch)
        bank.enqueue(batch)
    flat = np.vstack(pushed)
    assert np.array_equal(bank.view(), flat[-cap:])
    assert len(bank) == min(cap, flat.shape[0])
