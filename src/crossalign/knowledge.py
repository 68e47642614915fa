"""Concept branch: co-occurrence graph over frequent tokens and soft concept queries.

A vocabulary of the most frequent caption tokens becomes a graph whose
edges are thresholded conditional co-occurrence probabilities. One graph
convolution turns seeded random concept vectors into a concept basis;
each modality then queries that basis with a learned bilinear score and
represents itself as the softmax-weighted combination of concept rows.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import numerics as nm
from .numerics import Matrix

DEFAULT_STOPLIST = frozenset(
    "a an and are as at by for in is it of on or the to with".split()
)


@dataclass
class ConceptVocabulary:
    """Ordered concept tokens plus their frozen seeded embeddings (unit rows)."""

    concepts: list[str]
    init_embeddings: np.ndarray

    def __post_init__(self):
        if len(self.concepts) != len(set(self.concepts)):
            raise ValueError("concept tokens must be unique")
        if self.init_embeddings.shape[0] != len(self.concepts):
            raise ValueError("one embedding row per concept required")

    @property
    def size(self) -> int:
        return len(self.concepts)


@dataclass
class CooccurrenceStats:
    """Caption-level co-occurrence counts and conditional probabilities.

    ``counts[i, j]`` is the number of captions containing both concepts
    (zero on the diagonal), ``appearances[i]`` the number of captions
    containing concept i, and ``conditional[i, j] = counts[i, j] /
    appearances[i]`` with zero rows where a concept never appears.
    """

    counts: np.ndarray
    appearances: np.ndarray
    conditional: np.ndarray


def concept_embeddings(count: int, dim: int, seed: int) -> np.ndarray:
    """Seeded random unit rows used as frozen initial concept vectors."""
    rows = nm.rng_from_seed(seed, 101).standard_normal((count, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def build_vocabulary(corpus: Sequence[Sequence[str]], g: int,
                     stoplist: Iterable[str] = DEFAULT_STOPLIST,
                     *, embed_dim: int = 32, seed: int = 0) -> ConceptVocabulary:
    """Pick the ``g`` most frequent non-stop tokens, ties broken lexicographically."""
    if not corpus:
        raise ValueError("corpus is empty")
    if g < 1:
        raise ValueError("need at least one concept")
    stop = set(stoplist)
    freq = Counter(tok for caption in corpus for tok in caption if tok not in stop)
    if g > len(freq):
        raise ValueError(f"requested {g} concepts but corpus has only {len(freq)} distinct non-stop tokens")
    ranked = sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))
    concepts = [tok for tok, _ in ranked[:g]]
    return ConceptVocabulary(concepts, concept_embeddings(g, embed_dim, seed))


def build_cooccurrence(corpus: Sequence[Sequence[str]], vocab: ConceptVocabulary) -> CooccurrenceStats:
    """Count caption-level appearances and pairwise co-occurrences, once per caption."""
    g = vocab.size
    index = {tok: i for i, tok in enumerate(vocab.concepts)}
    counts = np.zeros((g, g), dtype=np.int64)
    appearances = np.zeros(g, dtype=np.int64)
    for caption in corpus:
        present = sorted({index[t] for t in caption if t in index})
        for i in present:
            appearances[i] += 1
        for a in range(len(present)):
            for b in range(a + 1, len(present)):
                counts[present[a], present[b]] += 1
                counts[present[b], present[a]] += 1
    with np.errstate(divide="ignore", invalid="ignore"):
        conditional = np.where(appearances[:, None] > 0, counts / appearances[:, None], 0.0)
    return CooccurrenceStats(counts, appearances, conditional)


def binarize(conditional: np.ndarray, eps_t: float) -> np.ndarray:
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


def gcn_forward(x, adjacency, w: Matrix) -> Matrix:
    """One graph convolution: relu(normalized_adjacency @ x @ w).

    ``x`` and ``adjacency`` are constants; gradients flow through ``w``.
    """
    x_arr = x.value if isinstance(x, Matrix) else np.asarray(x, dtype=np.float64)
    a_norm = normalized_adjacency(adjacency)
    if x_arr.shape[0] != a_norm.shape[0]:
        raise ValueError(f"adjacency has {a_norm.shape[0]} nodes but x has {x_arr.shape[0]} rows")
    if w.rows != x_arr.shape[1]:
        raise ValueError(f"weight rows {w.rows} != feature dim {x_arr.shape[1]}")
    return nm.relu(Matrix(a_norm @ x_arr) @ w)


class ConceptQueryHead:
    """Bilinear scorer mapping a query embedding to attention over concepts.

    One square weight matrix per modality; both start as the identity so
    the initial score is a plain dot product between query and concept.
    """

    def __init__(self, dim: int, smoothness: float):
        if not smoothness > 0.0:
            raise ValueError("smoothness must be positive")
        self.dim = dim
        self.smoothness = smoothness
        self.p: dict[str, Matrix] = {
            "w_visual": Matrix(np.eye(dim)),
            "w_textual": Matrix(np.eye(dim)),
        }


def concept_query(head: ConceptQueryHead, query: Matrix, basis: Matrix,
                  modality: str) -> tuple[Matrix, Matrix]:
    """Soft combination of concept rows selected by a scaled bilinear score.

    Returns the unit-normalized combined embedding [N, F], scored by plain
    dot products downstream, and the attention weights [N, g] (each row a
    probability distribution).
    """
    if modality not in ("visual", "textual"):
        raise ValueError(f"modality must be 'visual' or 'textual', got {modality!r}")
    w = head.p["w_visual" if modality == "visual" else "w_textual"]
    scores = (query @ w) @ basis.T * head.smoothness
    attention = nm.softmax_rows(scores)
    combined = nm.l2_normalize_rows(attention @ basis)
    return combined, attention
