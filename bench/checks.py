"""Output checks: finite losses, recalls in range, and a brute-force ranking oracle."""
from __future__ import annotations

import math

import numpy as np

LOSS_KEYS = ("l_dcl_i", "l_mdcl", "l_dcl_c", "l_pgc", "total")
RECALL_KEYS = ("r1_t", "r5_t", "r10_t", "r1_i", "r5_i", "r10_i")
KS = (1, 5, 10)


def loss_problems(rows: list[dict]) -> list[str]:
    """One message per epoch loss part that is missing or not finite."""
    return [f"epoch {row.get('epoch', i)}: {key}={row.get(key)!r}"
            for i, row in enumerate(rows) for key in LOSS_KEYS
            if not isinstance(row.get(key), float) or not math.isfinite(row[key])]


def recall_problems(recalls: dict[str, float]) -> list[str]:
    """One message per recall outside [0, 100]."""
    return [f"{key}={recalls[key]!r}" for key in RECALL_KEYS if not 0.0 <= recalls[key] <= 100.0]


def oracle_recalls(scores, caption_image, chunk: int = 256) -> dict[str, float]:
    """Recall@{1,5,10} both ways by counting, with the lower-index-first tie rule.

    A candidate's rank is ``#(s > s_gt) + #(s == s_gt and idx < gt)`` in
    its row (image to text, best of the image's captions) or column
    (text to image). Captions are processed in chunks to bound memory.
    """
    scores = np.asarray(scores, dtype=np.float64)
    caption_image = np.asarray(caption_image, dtype=np.int64)
    n_img, n_cap = scores.shape
    img_index = np.arange(n_img)[:, None]
    cap_index = np.arange(n_cap)[None, :]
    text_rank = np.full(n_img, np.iinfo(np.int64).max)  # an image with no caption never hits
    image_rank = np.empty(n_cap, dtype=np.int64)
    for lo in range(0, n_cap, chunk):
        cols = np.arange(lo, min(lo + chunk, n_cap))
        gt_img = caption_image[cols]
        gt = scores[gt_img, cols]

        column = scores[:, cols]
        image_rank[cols] = ((column > gt).sum(axis=0)
                            + ((column == gt) & (img_index < gt_img)).sum(axis=0))

        rows = scores[gt_img]
        rank = ((rows > gt[:, None]).sum(axis=1)
                + ((rows == gt[:, None]) & (cap_index < cols[:, None])).sum(axis=1))
        np.minimum.at(text_rank, gt_img, rank)

    out = {}
    for k in KS:
        out[f"r{k}_t"] = 100.0 * float((text_rank < k).sum()) / n_img
        out[f"r{k}_i"] = 100.0 * float((image_rank < k).sum()) / n_cap
    return out


def blended_scores(v, w, vc, wc, beta: float) -> np.ndarray:
    """The evaluator's beta blend of instance and concept scores, bit for bit.

    Computed in place, which rounds exactly as the out-of-place
    expression does while holding one score matrix fewer.
    """
    scores = v @ w.T
    scores *= beta
    concept = vc @ wc.T
    concept *= 1.0 - beta
    scores += concept
    return scores


def agreement_problems(got: dict[str, float], want: dict[str, float], n_img: int, n_cap: int,
                       flips: int = 0) -> list[str]:
    """Recalls that differ by more than ``flips`` rank changes per direction."""
    out = []
    for key in RECALL_KEYS:
        tol = flips * 100.0 / (n_img if key.endswith("_t") else n_cap)
        if not abs(got[key] - want[key]) <= tol:
            out.append(f"{key}: {got[key]!r} vs oracle {want[key]!r}")
    return out
