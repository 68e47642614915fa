#!/usr/bin/env python3
"""Recompute every frozen numeric constant used in the test suite.

Straight-line stdlib math only: this script must stay independent of the
package so the tests' expected values are derived from a second route.
Run it and compare against the literals in tests/ when touching any loss
or diversity formula.
"""
import math


def show(name, value):
    if isinstance(value, (list, tuple)):
        body = ", ".join(f"{v:.12f}" for v in value)
        print(f"{name:44s} = [{body}]")
    else:
        print(f"{name:44s} = {value:.12f}")


def softmax(xs):
    m = max(xs)
    ex = [math.exp(x - m) for x in xs]
    s = sum(ex)
    return [e / s for e in ex]


def sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


def population_sd(xs):
    mean = sum(xs) / len(xs)
    mean_sq = sum(x * x for x in xs) / len(xs)
    return math.sqrt(max(mean_sq - mean * mean, 0.0))


def diversity_pre_norm(sd, eps=0.1):
    # limit for zero spread: weight saturates at 1
    if sd == 0.0:
        return 1.0
    return 1.0 / sigmoid(eps / sd)


def contrastive_direction(scores, positives, temps, mu, gamma):
    """One direction of the margin log-sum-exp contrastive loss.

    scores[n] holds the negative similarities for anchor n, positives[n]
    its positive similarity, temps[n] the anchor's effective temperature.
    """
    n_anchors = len(scores)
    total = 0.0
    for negs, pos, temp in zip(scores, positives, temps):
        neg_term = math.log(sum(math.exp((s - gamma) / temp) for s in negs) + 1.0)
        total += neg_term - math.log(pos + 1.0)
    return mu / n_anchors * total


def main():
    mu, gamma, eps = 0.1, 0.3, 0.1

    show("softmax_row_1_2_3", softmax([1.0, 2.0, 3.0]))
    show("sigmoid_1", sigmoid(1.0))
    show("posenc_l1_dp2", [math.sin(1.0), math.cos(1.0)])

    # -- diversity, spread estimator --------------------------------------
    sd = population_sd([0.5, 0.7])
    show("sd_of_0.5_0.7", sd)
    pre_spread = diversity_pre_norm(sd, eps)
    show("div_pre_norm_sd_0.1", pre_spread)
    pre_flat = diversity_pre_norm(0.0, eps)
    batch_max = max(pre_flat, pre_spread)
    show("div_normalized_pair", [pre_flat / batch_max, pre_spread / batch_max])

    # -- diversity, entropy estimator --------------------------------------
    p = softmax([2.0, 0.0])
    show("entropy_probs_2_0", p)
    h = -sum(q * math.log2(q) for q in p)
    show("entropy_bits_2_0", h)
    show("div_ent_pre_norm_2_0", diversity_pre_norm(h, eps))
    # entropy column values for the two-anchor diversity report fixture
    h_flat = -sum(q * math.log2(q) for q in softmax([0.5, 0.5]))
    h_spread = -sum(q * math.log2(q) for q in softmax([0.5, 0.7]))
    show("report_entropy_bits", [h_flat, h_spread])
    pre_ent = [diversity_pre_norm(h_flat, eps), diversity_pre_norm(h_spread, eps)]
    m = max(pre_ent)
    show("report_div_ent", [pre_ent[0] / m, pre_ent[1] / m])

    # -- contrastive losses -------------------------------------------------
    # single pair, no negatives, positive similarity 1, both directions
    single = 2 * contrastive_direction([[]], [1.0], [mu], mu, gamma)
    show("loss_single_pair", single)
    # 2x2 identity similarity, unit diversity, both directions
    one_dir = contrastive_direction([[0.0], [0.0]], [1.0, 1.0], [mu, mu], mu, gamma)
    show("loss_identity2_per_direction", one_dir)
    show("loss_identity2_total", 2 * one_dir)
    # same matrix, forward anchors weighted by diversity (0.5, 1.0)
    fwd = contrastive_direction(
        [[0.0], [0.0]], [1.0, 1.0], [mu * 0.5, mu * 1.0], mu, gamma
    )
    show("loss_identity2_div_half_forward", fwd)
    show("loss_identity2_div_half_total", fwd + one_dir)
    # memory variant: one orthogonal bank entry, positive similarity 1
    mem = contrastive_direction([[0.0]], [1.0], [mu], mu, gamma)
    show("loss_memory_single_anchor_one_direction", mem)

    # -- pseudo-label classification ----------------------------------------
    show("uniform_label_loss_k4", 2 * math.log(4.0))
    # K=2, true class 0, logits (1, 0) in both modalities
    show("label_loss_logits_1_0", 2 * -math.log(sigmoid(1.0)))

    # -- triplet baseline ----------------------------------------------------
    s = [[0.9, 0.8], [0.1, 0.7]]
    margin = 0.2
    fw = sum(max(0.0, margin - s[n][n] + s[n][q]) for n in (0, 1) for q in (0, 1) if q != n) / 2
    bw = sum(max(0.0, margin - s[q][q] + s[n][q]) for q in (0, 1) for n in (0, 1) if n != q) / 2
    show("triplet_example", fw + bw)

    # -- graph propagation ----------------------------------------------------
    # fully connected 2-node graph incl. self loops: each degree 2,
    # normalized entries 1/2, identity added on the diagonal
    norm = 1.0 / math.sqrt(2.0 * 2.0)
    show("dense2_adjacency_row0", [norm + 1.0, norm])

    # -- optimizer: first bias-corrected step, gradient 1, lr 0.1 -------------
    m1, v1 = 0.1 * 1.0, 0.001 * 1.0
    m_hat, v_hat = m1 / (1 - 0.9), v1 / (1 - 0.999)
    show("adam_first_step_delta", 0.1 * m_hat / (math.sqrt(v_hat) + 1e-8))

    # -- sharp concept attention: scores (1.0, 0.2) at smoothness 100 ---------
    show("sharp_attention", softmax([100.0 * 1.0, 100.0 * 0.2]))

    # -- co-occurrence toy corpus ---------------------------------------------
    # 4 captions: {c1}, {c1}, {c1 c2}, {c1 c2}  ->  N = (4, 2), B12 = B21 = 2
    show("cond_prob_12", 2 / 4)
    show("cond_prob_21", 2 / 2)


if __name__ == "__main__":
    main()
