"""Concept branch: co-occurrence graph over frequent tokens and soft concept queries.

The most frequent caption tokens become a graph whose edges are
thresholded conditional co-occurrence probabilities. Captions arrive
as a dataset holds them, token codes into a vocabulary with a token
count per caption, and both the ranking and the graph count codes. The
normalized graph times seeded random concept vectors is a constant
array, formed once and never a graph leaf; one graph convolution of it
with a learned weight gives the concept basis. Each modality then
queries that basis with a learned bilinear score and represents itself
as the softmax-weighted combination of concept rows, in one graph node.
"""
from __future__ import annotations

import numpy as np

from . import numerics as nm
from .numerics import Matrix

DEFAULT_STOPLIST = frozenset(
    "a an and are as at by for in is it of on or the to with".split()
)


def build_vocabulary(vocabulary: np.ndarray, token_codes: np.ndarray, g: int) -> np.ndarray:
    """Indices into ``vocabulary`` of its at most ``g`` most frequent non-stop tokens.

    ``token_codes`` are the corpus's tokens as ``vocabulary`` indices.
    Ties are broken lexicographically, by code point; a token that never
    occurs is no concept.
    """
    if g < 1:
        raise ValueError("need at least one concept")
    counts = np.bincount(token_codes, minlength=len(vocabulary))
    counts[np.isin(vocabulary, list(DEFAULT_STOPLIST))] = 0
    ranked = np.lexsort((vocabulary, -counts))[:g]
    ranked = ranked[counts[ranked] > 0]
    if not ranked.size:
        raise ValueError("no non-stop tokens available for the concept vocabulary")
    return ranked


def build_cooccurrence(token_counts: np.ndarray, token_codes: np.ndarray,
                       concepts: np.ndarray) -> np.ndarray:
    """Conditional co-occurrence: of the captions that hold concept i, the share that hold j.

    Caption k holds the next ``token_counts[k]`` of ``token_codes``, and
    ``concepts`` are codes. One [captions x concepts] presence matrix P
    counts each concept at most once per caption; ``P.T @ P`` holds the
    pair counts off its diagonal and each concept's caption count on it.
    The diagonal of the result is zero, and so is the row of a concept
    that never appears.
    """
    concepts = np.asarray(concepts)
    if len(np.unique(concepts)) != len(concepts):
        raise ValueError("concept tokens must be unique")
    # each code's concept column, -1 for a code that is no concept
    column = np.full(max(concepts.max(initial=-1), token_codes.max(initial=-1)) + 1, -1)
    column[concepts] = np.arange(len(concepts))
    caption, col = np.repeat(np.arange(len(token_counts)), token_counts), column[token_codes]
    hit = col >= 0
    presence = np.zeros((len(token_counts), len(concepts)))
    presence[caption[hit], col[hit]] = 1.0
    counts = presence.T @ presence
    appearances = np.diag(counts).copy()
    np.fill_diagonal(counts, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(appearances[:, None] > 0, counts / appearances[:, None], 0.0)


def binarize(conditional: np.ndarray, eps_t: float = 0.3) -> np.ndarray:
    """Edge matrix: 1 where the conditional probability reaches ``eps_t``."""
    if not 0.0 < eps_t < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {eps_t}")
    return (np.asarray(conditional) >= eps_t).astype(np.int64)


def normalized_adjacency(adjacency: np.ndarray) -> np.ndarray:
    """Degree-normalized adjacency with identity added.

    Entry (i, j) is adjacency[i, j] / sqrt(row_degree(i) * col_degree(j)),
    plus 1 on the diagonal. Zero-degree rows or columns contribute zero
    instead of dividing by zero (the adjacency may be asymmetric).
    """
    h = np.asarray(adjacency, dtype=np.float64)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("adjacency must be square")
    d_row = h.sum(axis=1)
    d_col = h.sum(axis=0)
    inv_row = np.where(d_row > 0, 1.0 / np.sqrt(np.where(d_row > 0, d_row, 1.0)), 0.0)
    inv_col = np.where(d_col > 0, 1.0 / np.sqrt(np.where(d_col > 0, d_col, 1.0)), 0.0)
    return h * inv_row[:, None] * inv_col[None, :] + np.eye(h.shape[0])


def concept_inputs(adjacency: np.ndarray, dim: int, seed: int) -> np.ndarray:
    """The concept branch's frozen input: ``normalized_adjacency(adjacency) @ X``.

    ``X`` holds one seeded random unit row of width ``dim`` per graph
    node. Graph and rows are constants and only the convolution weight
    learns, so the product is formed once, when the graph is built.
    """
    a_norm = normalized_adjacency(adjacency)
    rows = nm.rng_from_seed(seed, 101).standard_normal((a_norm.shape[0], dim))
    return a_norm @ nm.unit_rows(rows)[0]


def gcn_forward(inputs: np.ndarray, w: Matrix) -> Matrix:
    """One graph convolution of the constant ``concept_inputs`` array: relu(inputs @ w).

    The product node holds ``inputs``; ``w`` is its only parent and takes the gradient.
    """
    if w.rows != inputs.shape[1]:
        raise ValueError(f"weight rows {w.rows} != feature dim {inputs.shape[1]}")
    return nm.relu(nm.node(inputs @ w.value, (w,), lambda g: (inputs.T @ g,)))


def concept_query(query: Matrix, w: Matrix, basis: Matrix,
                  smoothness: float = 10.0) -> tuple[Matrix, np.ndarray]:
    """Soft combination of concept rows selected by a scaled bilinear score, as one graph node.

    ``w`` is the modality's square query weight (the model starts it at
    the identity, so the first score is a plain dot product between query
    and concept) and ``smoothness`` scales the scores before the softmax.
    Returns the unit-normalized combined embedding [N, F], scored by plain
    dot products downstream, and the attention weights [N, g] as an array
    (each row a probability distribution). The node's parents are
    ``(query, w, basis, basis)``, the pooling grad first; forward and VJP
    repeat the composed graph's ops in order, so they equal it bit for bit.
    """
    basis_t = np.ascontiguousarray(basis.value.T)  # BLAS rounds a product with a view differently
    q_w = nm.finite("concept_query", "query projection", query.value @ w.value)
    raw = nm.finite("concept_query", "scores", q_w @ basis_t)
    scores = nm.finite("concept_query", "scaled scores", raw * smoothness)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    attention = nm.finite("concept_query", "attention", e / e.sum(axis=1, keepdims=True))
    pooled = nm.finite("concept_query", "pooled concepts", attention @ basis.value)
    out, norms = nm.unit_rows(pooled)
    attention.setflags(write=False)

    def vjp(g):
        g_pooled = nm.unit_rows_vjp(g, out, norms)
        g_att = g_pooled @ basis.value.T
        g_raw = attention * (g_att - (g_att * attention).sum(axis=1, keepdims=True)) * smoothness
        g_q_w = g_raw @ basis_t.T
        return (g_q_w @ w.value.T, query.value.T @ g_q_w, attention.T @ g_pooled,
                (q_w.T @ g_raw).T)

    return nm.node(out, (query, w, basis, basis), vjp), attention
