"""The encoders' ``(lengths, rows)`` input, stacked from a list of feature sequences.

Import it as ``from stacking import stack``; pytest puts this directory
on ``sys.path`` because it has no ``__init__.py``.
"""
import numpy as np


def stack(seqs) -> tuple[np.ndarray, np.ndarray]:
    """The sequences' lengths, and their rows stacked one after another."""
    return np.array([len(seq) for seq in seqs], dtype=np.int64), np.concatenate(seqs)
