import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossalign import numerics as nm
from crossalign import pipeline as pl
from crossalign.numerics import Matrix, backward, rng_from_seed
from crossalign.representation import (
    PARAM_NAMES,
    EncoderPair,
    FeatureAggregator,
    MemoryBank,
    named_params,
    positional_encoding_table,
)

from autodiff_ref import l2_normalize_rows
from gradcheck import grad_check
from stacking import stack


def test_positional_encoding_at_zero():
    out = positional_encoding_table(1, 8)[0]
    assert np.array_equal(out, np.array([0.0, 1.0] * 4))


def test_positional_encoding_reference_value():
    out = positional_encoding_table(2, 2)[1]
    assert out == pytest.approx([0.841470984808, 0.540302305868], abs=1e-10)


@given(st.integers(min_value=0, max_value=5000), st.integers(min_value=1, max_value=16))
@settings(max_examples=40, deadline=None)
def test_positional_encoding_bounded(index, half_dim):
    out = positional_encoding_table(index + 1, 2 * half_dim)[index]
    assert np.all(out >= -1.0) and np.all(out <= 1.0)


@pytest.mark.parametrize("d_p", [2, 8, 32])
@pytest.mark.parametrize("length", [1, 5, 64])
def test_positional_table_equals_stacked_rows(d_p, length):
    # row i of any longer table, so rows do not depend on the table length
    rows = np.stack([positional_encoding_table(i + 1, d_p)[i] for i in range(length)])
    u = 1.0 / (10000.0 ** (2.0 * np.arange(d_p // 2) / d_p))
    formula = np.stack([np.stack([np.sin(u * i), np.cos(u * i)], axis=1).ravel() for i in range(length)])
    table = positional_encoding_table(length, d_p)
    assert table.shape == (length, d_p)
    assert np.array_equal(table, rows)
    assert np.array_equal(table, formula)


def test_positional_table_is_computed_once_per_shape_and_read_only():
    table = positional_encoding_table(7, 8)
    assert positional_encoding_table(7, 8) is table and not table.flags.writeable
    assert positional_encoding_table(7, 4) is not table


def test_positional_encoding_rejects_odd_dim():
    with pytest.raises(ValueError, match="even"):
        positional_encoding_table(4, 5)


def _aggregator(seed=0, d_in=6, out_dim=8):
    return FeatureAggregator(d_in, out_dim, d_p=8, hidden=4, rng=rng_from_seed(seed))


# ---------------------------------------------------------------------------
# the composed aggregator: the reference the fused node must equal bit for bit
# ---------------------------------------------------------------------------

def _segment_weighted_sum(values: Matrix, weights: Matrix, lengths) -> Matrix:
    """Row i: sum over t < lengths[i] of weights[t] * values[offset_i + t], as one elementary op."""
    lengths = np.asarray(lengths, dtype=np.int64)
    starts = np.cumsum(lengths) - lengths
    position = np.arange(values.rows) - np.repeat(starts, lengths)
    vv, row_w = values.value, weights.value[position]

    def vjp(g):
        spread = np.repeat(g, lengths, axis=0)
        dw = np.zeros(weights.value.shape)
        np.add.at(dw[:, 0], position, (spread * vv).sum(axis=1))
        return spread * row_w, dw

    return nm.node(np.add.reduceat(vv * row_w, starts, axis=0), (values, weights), vjp)


def _composed_pooling_weights(agg, length, p) -> Matrix:
    pe = Matrix(positional_encoding_table(length, agg.d_p))
    h = nm.relu(pe @ p["dec_w1"] + p["dec_b1"])
    return h @ p["dec_w2"] + p["dec_b2"]


def composed_aggregate(agg, lengths, rows, params=None) -> Matrix:
    """``agg.aggregate_batch`` built from elementary ops, one graph node per op."""
    p = agg.p if params is None else {k: v if isinstance(v, Matrix) else Matrix(v)
                                      for k, v in params.items()}
    theta = _composed_pooling_weights(agg, int(lengths.max()), p)
    projected = Matrix(rows) @ p["proj"]
    return l2_normalize_rows(_segment_weighted_sum(projected, theta, lengths))


def _loop_aggregate(agg, seqs) -> np.ndarray:
    """One sequence and one position at a time."""
    p = {k: m.value for k, m in agg.p.items()}
    rows = []
    for seq in seqs:
        pe = positional_encoding_table(len(seq), agg.d_p)
        theta = np.maximum(pe @ p["dec_w1"] + p["dec_b1"], 0.0) @ p["dec_w2"] + p["dec_b2"]
        pooled = sum(theta[t, 0] * (seq[t] @ p["proj"]) for t in range(len(seq)))
        rows.append(pooled / np.linalg.norm(pooled))
    return np.stack(rows)


def _batch(kind, rng):
    if kind == "seeded":
        return [rng.standard_normal((int(rng.integers(1, 7)), 6)) for _ in range(5)]
    if kind == "lengths_1_to_L":
        return [rng.standard_normal((n, 6)) for n in range(1, 9)]
    if kind == "one_sequence":
        return [rng.standard_normal((4, 6))]
    # the second row's pooled norm is below numerics._SMALL_NORM
    return [rng.standard_normal((3, 6)), 1e-160 * rng.standard_normal((2, 6)),
            rng.standard_normal((1, 6))]


BATCH_KINDS = ["seeded", "lengths_1_to_L", "one_sequence", "small_norm_row"]


@pytest.mark.parametrize("kind", BATCH_KINDS)
@pytest.mark.parametrize("seed", range(3))
def test_aggregate_batch_equals_the_composed_graph_bit_for_bit(kind, seed):
    agg = _aggregator(seed=seed)
    rng = rng_from_seed(seed, 23)
    # a trained decoder: some pooling pre-activations fall below zero
    agg.p["dec_b1"] = Matrix(rng.standard_normal((1, 4)))
    seqs = _batch(kind, rng)
    probe = Matrix(rng.standard_normal((len(seqs), 8)))
    outs, grads = [], []
    for build in (FeatureAggregator.aggregate_batch, composed_aggregate):
        agg.p = {k: Matrix(m.value) for k, m in agg.p.items()}
        out = build(agg, *stack(seqs))
        backward(nm.sum_all(out * probe))
        outs.append(out.value.tobytes())
        grads.append([agg.p[k].grad.tobytes() for k in PARAM_NAMES])
    if kind == "small_norm_row":
        pooled = composed_aggregate(agg, *stack(seqs))._parents[0].value
        assert np.linalg.norm(pooled[1]) < nm._SMALL_NORM
    assert outs[0] == outs[1]
    assert grads[0] == grads[1]


@pytest.mark.parametrize("kind", BATCH_KINDS)
def test_forward_equals_the_node_value_bit_for_bit(kind):
    agg, pair = _pair()
    seqs = _batch(kind, rng_from_seed(24))
    stacked = stack(seqs)
    assert agg.forward(*stacked).tobytes() == agg.aggregate_batch(*stacked).value.tobytes()
    agg.p["proj"] = Matrix(agg.p["proj"].value * 0.5)
    pair.momentum_update(0.7)
    momentum = pair.momentum_group("enc")
    agg.p = {k: Matrix(v) for k, v in momentum.items()}
    want = agg.aggregate_batch(*stacked).value
    assert agg.forward(*stacked, momentum).tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", range(3))
def test_forward_against_loop(seed):
    agg = _aggregator(seed=seed)
    rng = rng_from_seed(seed, 25)
    agg.p["dec_b1"] = Matrix(rng.standard_normal((1, 4)))
    seqs = [rng.standard_normal((int(rng.integers(1, 7)), 6)) for _ in range(6)]
    assert np.max(np.abs(agg.forward(*stack(seqs)) - _loop_aggregate(agg, seqs))) <= 1e-12


def _train_digest(cfg, data, val) -> str:
    state, rows = pl.train(cfg, data, val)
    h = hashlib.sha256(json.dumps(rows).encode())
    for _, m in state.model.param_items():
        h.update(m.value.tobytes())
    for arr in (*state.model.encoder_pair.momentum.values(), state.bank.view(),
                state.prototypes.labels, state.prototypes.centroids):
        h.update(arr.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("instance_loss", ["dcl", "triplet"])
def test_seeded_training_is_bit_identical_with_the_composed_aggregator(instance_loss, monkeypatch):
    cfg = pl.TrainConfig(seed=0, epochs=2, batch_size=16, k_clusters=6, instance_loss=instance_loss)
    data = pl.generate_synthetic(40, 1, 4, seed=5)
    val = pl.generate_synthetic(8, 2, 4, seed=5, split="val")
    fused = _train_digest(cfg, data, val)
    monkeypatch.setattr(FeatureAggregator, "aggregate_batch", composed_aggregate)
    monkeypatch.setattr(FeatureAggregator, "forward", lambda agg, lengths, rows, params=None:
                        composed_aggregate(agg, lengths, rows, params).value)
    assert _train_digest(cfg, data, val) == fused


def test_aggregate_identical_features_collapse_to_projection():
    agg = _aggregator()
    feature = rng_from_seed(1).standard_normal(6)
    seq = np.tile(feature, (5, 1))
    theta = _composed_pooling_weights(agg, 5, agg.p).value
    assert theta.sum() > 0  # fresh decoder starts near sum pooling
    out = agg.aggregate_batch(*stack([seq])).value
    expected = l2_normalize_rows(Matrix(feature.reshape(1, -1)) @ agg.p["proj"]).value
    assert np.max(np.abs(out - expected)) <= 1e-10


def test_aggregate_single_feature():
    agg = _aggregator(seed=3)
    feature = rng_from_seed(4).standard_normal((1, 6))
    out = agg.aggregate_batch(*stack([feature])).value
    expected = l2_normalize_rows(Matrix(feature) @ agg.p["proj"]).value
    assert np.max(np.abs(out - expected)) <= 1e-12


def test_pool_with_first_position_weight_only():
    agg = _aggregator(seed=5)
    seq = rng_from_seed(6).standard_normal((4, 6))
    weights = Matrix(np.array([[1.0], [0.0], [0.0], [0.0]]))
    pooled = _segment_weighted_sum(Matrix(seq) @ agg.p["proj"], weights, [4])
    out = l2_normalize_rows(pooled).value
    expected = l2_normalize_rows(Matrix(seq[:1]) @ agg.p["proj"]).value
    assert np.max(np.abs(out - expected)) <= 1e-10


@pytest.mark.parametrize("seed", range(6))
def test_aggregate_output_is_unit_norm(seed):
    rng = rng_from_seed(seed, 21)
    agg = _aggregator(seed=seed)
    seqs = [rng.standard_normal((int(rng.integers(1, 7)), 6)) for _ in range(4)]
    out = agg.aggregate_batch(*stack(seqs)).value
    assert np.max(np.abs(np.linalg.norm(out, axis=1) - 1.0)) <= 1e-12


def test_forward_rejects_a_stack_of_another_width():
    stacked = stack([np.ones((3, 5))])
    agg = _aggregator()
    for encode in (agg.forward, agg.aggregate_batch):
        with pytest.raises(ValueError, match="^stacked feature dim 5 != aggregator d_in 6$"):
            encode(*stacked)


def _overflowing(stage):
    """A sequence and parameter overrides under which ``stage`` is the first non-finite array."""
    seq, p = np.ones((2, 6)), {}
    if stage == "input":
        seq[1, 2] = np.nan
    elif stage == "pooling layer 1":
        p["dec_w1"] = np.full((8, 4), 1e308)
    elif stage == "pooling pre-activation":
        # finite after layer 1 and -inf after the bias, which relu would turn into 0
        w1 = np.zeros((8, 4))
        w1[1] = -1e308
        p["dec_w1"], p["dec_b1"] = w1, np.full((1, 4), -1e308)
    elif stage == "pooling layer 2":
        p["dec_b1"], p["dec_w2"] = np.full((1, 4), 10.0), np.full((4, 1), 1e308)
    elif stage == "pooling weights":
        p["dec_w2"], p["dec_b2"] = np.full((4, 1), 1e307), np.full((1, 1), 1.7e308)
    elif stage == "projection":
        p["proj"] = np.full((6, 8), 1e308)
    else:  # projected rows near the float64 maximum, weighted by about 100
        p["proj"], p["dec_b2"] = np.full((6, 8), 1.5e307), np.full((1, 1), 100.0)
    return seq, p


@pytest.mark.parametrize("stage", ["input", "pooling layer 1", "pooling pre-activation",
                                   "pooling layer 2", "pooling weights", "projection", "pooled sum"])
def test_non_finite_stage_is_named(stage):
    agg = _aggregator()
    seq, override = _overflowing(stage)
    params = {k: m.value for k, m in agg.p.items()} | override
    match = f"^aggregate_batch: {stage} has non-finite entries"
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(nm.NonFiniteError, match=match):
            agg.forward(*stack([seq]), params)
        agg.p = {k: Matrix(v) for k, v in params.items()}
        with pytest.raises(nm.NonFiniteError, match=match):
            agg.aggregate_batch(*stack([seq]))


@pytest.mark.parametrize("name", PARAM_NAMES)
def test_gradients_flow_through_aggregate(name):
    agg = _aggregator(seed=7)
    rng = rng_from_seed(8)
    seqs = [rng.standard_normal((3, 6)), rng.standard_normal((5, 6))]
    probe = Matrix(rng.standard_normal((2, 8)))

    def loss_fn(p):
        agg.p[name] = p
        return nm.sum_all(agg.aggregate_batch(*stack(seqs)) * probe)

    assert grad_check(loss_fn, agg.p[name], h=1e-5) <= 1e-4


def test_batch_and_single_aggregation_agree():
    agg = _aggregator(seed=9)
    rng = rng_from_seed(10)
    seqs = [rng.standard_normal((int(rng.integers(1, 6)), 6)) for _ in range(5)]
    batched = agg.aggregate_batch(*stack(seqs)).value
    singles = np.vstack([agg.aggregate_batch(*stack([s])).value for s in seqs])
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
    main_out = agg.aggregate_batch(*stack([seq])).value
    mom_out = agg.forward(*stack([seq]), pair.momentum_group("enc"))
    assert np.array_equal(main_out, mom_out)


def test_momentum_forward_builds_no_graph_node(monkeypatch):
    agg, pair = _pair()
    built = []
    node = nm.node
    monkeypatch.setattr(nm, "node", lambda *args: built.append(args) or node(*args))
    seq = rng_from_seed(13).standard_normal((3, 6))
    out = agg.forward(*stack([seq]), pair.momentum_group("enc"))
    assert type(out) is np.ndarray and out.shape == (1, 8) and built == []
    agg.aggregate_batch(*stack([seq]))
    assert len(built) == 1  # the spy sees the node that the trainable encoder builds
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


def test_bank_of_capacity_zero_holds_no_row():
    bank = MemoryBank(capacity=0, dim=2).enqueue(np.ones((3, 2))).enqueue(np.ones((1, 2)))
    assert len(bank) == 0 and bank.view().shape == (0, 2)


def test_bank_rejects_wrong_dim():
    bank = MemoryBank(capacity=4, dim=3)
    with pytest.raises(ValueError, match="dim"):
        bank.enqueue(np.ones((2, 4)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_bank_rejects_a_non_finite_row_and_keeps_its_rows(bad):
    bank = MemoryBank(capacity=4, dim=2).enqueue(np.ones((1, 2)))
    rows = np.zeros((2, 2))
    rows[1, 0] = bad
    with pytest.raises(nm.NonFiniteError, match="^enqueue: rows contain non-finite entries$"):
        bank.enqueue(rows)
    assert np.array_equal(bank.view(), np.ones((1, 2)))


@pytest.mark.parametrize("capacity, dim, message", [
    (2.5, 2, "capacity and dim must be integers, got 2.5 and 2"),
    (True, 2, "capacity and dim must be integers, got True and 2"),
    (4, 2.0, "capacity and dim must be integers, got 4 and 2.0"),
    (-1, 2, "capacity must be non-negative and dim positive"),
    (4, 0, "capacity must be non-negative and dim positive"),
])
def test_bank_rejects_a_capacity_or_dim_it_cannot_hold(capacity, dim, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        MemoryBank(capacity, dim)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_bank_matches_list_slicing_oracle(seed):
    rng = rng_from_seed(seed, 22)
    cap = int(rng.integers(0, 12))
    bank = MemoryBank(capacity=cap, dim=3)
    pushed = []
    for _ in range(int(rng.integers(1, 9))):
        batch = rng.standard_normal((int(rng.integers(1, 7)), 3))
        pushed.append(batch)
        bank.enqueue(batch)
    flat = np.vstack(pushed)
    # the last cap rows; flat[-cap:] would be every row at cap 0
    assert np.array_equal(bank.view(), flat[::-1][:cap][::-1])
    assert len(bank) == min(cap, flat.shape[0])
