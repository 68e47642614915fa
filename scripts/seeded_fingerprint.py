#!/usr/bin/env python3
"""Print one JSON fingerprint of seven seeded ``train()`` runs of a source tree.

Usage::

    python scripts/seeded_fingerprint.py <src dir>

``<src dir>`` holds the ``crossalign`` package to run, for example
``src`` or an export of another revision (``git archive <rev> src | tar
-x``). Two trees train bit for bit alike when they print the same bytes.

Each run trains 3 epochs on 200 images x 2 captions and evaluates 30 x 2
held-out pairs every epoch, with a queue of 96 rows; with 30 images a
recall is a multiple of 1/30 or 1/60, most of which no float holds
exactly, so a change in how recalls or rsum round shows. The runs cover the three
instance losses, the entropy estimator, the memory loss off, the concept
losses off and unequal feature widths. Per run the output holds the loss
rows with their per-epoch recalls; the sha256 of the parameter bytes in
``param_items()`` order and of the momentum mirror's bytes; the sha256
of the last clustering's centroid bytes, label bytes and inertia path
(null when the concept losses are off); and the sha256 of the final
state's retrieval embeddings of the held-out split, the bytes of ``v``,
``vc``, ``w`` and ``wc`` from ``embed_for_retrieval``. The queue's bytes
are left out, so that a change of its layout does not show; its content
reaches every ``l_mdcl`` value in the rows.
"""
import array
import hashlib
import json
import os
import sys

# BLAS pinned to one thread, as in the tests and the bench
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

# name: (TrainConfig fields besides the defaults, d_img, d_txt)
RUNS = {
    "dcl": ({}, 48, 48),
    "dcl_i": ({"instance_loss": "dcl_i"}, 48, 48),
    "triplet": ({"instance_loss": "triplet"}, 48, 48),
    "entropy": ({"diversity_estimator": "entropy"}, 48, 48),
    "memory_off": ({"bank_capacity": 0}, 48, 48),
    "concepts_off": ({"use_concept_losses": False}, 48, 48),
    "d_img_40_d_txt_24": ({}, 40, 24),
}


def _sha256(arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(arr.tobytes())
    return h.hexdigest()


def _prototypes_sha256(prototypes) -> str | None:
    if prototypes is None:
        return None
    return _sha256((prototypes.centroids, prototypes.labels,
                    array.array("d", prototypes.inertia_path)))


def config(pl, changes: dict, epochs: int = 3, bank_capacity: int = 96):
    """A run's ``pl.TrainConfig``: seed 0, ``epochs`` and ``bank_capacity``, with ``changes`` over them."""
    return pl.TrainConfig(**{"seed": 0, "epochs": epochs, "bank_capacity": bank_capacity, **changes})


def _retrieval_sha256(pl, state, val) -> str:
    _, _, v, w, vc, wc = pl.embed_for_retrieval(state, val)
    return _sha256((v, vc, w, wc))


def fingerprint(pl, runs=RUNS, n_train=200, n_val=30, epochs=3, bank_capacity=96) -> dict:
    """Loss rows and parameter, momentum, prototype and retrieval digests of each run in ``runs``, by name.

    ``pl`` is the ``crossalign.pipeline`` module to run.
    """
    out = {}
    for name, (changes, d_img, d_txt) in runs.items():
        world = pl.build_world(8, 0, d_img=d_img, d_txt=d_txt)
        data = pl.generate_synthetic(n_train, 2, 8, seed=1, world=world, d_img=d_img, d_txt=d_txt)
        val = pl.generate_synthetic(n_val, 2, 8, seed=1, split="val", world=world,
                                    d_img=d_img, d_txt=d_txt)
        state, rows = pl.train(config(pl, changes, epochs, bank_capacity), data, val)
        out[name] = {"rows": rows,
                     "params": _sha256(m.value for _, m in state.model.param_items()),
                     "momentum": _sha256(state.model.encoder_pair.momentum.values()),
                     "prototypes": _prototypes_sha256(state.prototypes),
                     "retrieval": _retrieval_sha256(pl, state, val)}
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    src = os.path.abspath(argv[1])
    sys.path.insert(0, src)
    from crossalign import pipeline

    if not os.path.abspath(pipeline.__file__).startswith(src + os.sep):
        print(f"crossalign was imported from {pipeline.__file__}, not from {src}", file=sys.stderr)
        return 1
    print(json.dumps(fingerprint(pipeline), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
