import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np

from crossalign import pipeline as pl

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "seeded_fingerprint.py"


def _script():
    spec = importlib.util.spec_from_file_location("seeded_fingerprint", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_seeded_fingerprint_repeats_byte_for_byte():
    fp = _script()
    # 12 x 2 records fill the queue in the first epoch, so the memory loss runs in the second
    runs = {"dcl": fp.RUNS["dcl"]}
    first, second = (json.dumps(fp.fingerprint(pl, runs, n_train=12, n_val=4, epochs=2,
                                               bank_capacity=16), sort_keys=True)
                     for _ in range(2))
    assert first == second
    out = json.loads(first)["dcl"]
    assert sorted(out) == ["momentum", "params", "prototypes", "retrieval", "rows"]
    assert [row["epoch"] for row in out["rows"]] == [0, 1]
    assert out["rows"][0]["l_mdcl"] == 0.0 and out["rows"][1]["l_mdcl"] != 0.0
    assert all(len(out[key]) == 64 for key in ("params", "momentum", "prototypes", "retrieval"))


def test_seeded_fingerprint_digests_the_last_clustering(monkeypatch):
    fp = _script()
    runs = {"dcl": fp.RUNS["dcl"], "concepts_off": fp.RUNS["concepts_off"]}
    kmeans, seen = pl.obj.kmeans_cluster, []

    def spy_kmeans(*args, **kwargs):
        seen.append(kmeans(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(pl.obj, "kmeans_cluster", spy_kmeans)
    out = fp.fingerprint(pl, runs, n_train=12, n_val=4, epochs=2, bank_capacity=16)
    last = seen[-1]
    want = hashlib.sha256(last.centroids.tobytes() + last.labels.tobytes()
                          + np.array(last.inertia_path).tobytes()).hexdigest()
    assert len(seen) == 2 and out["dcl"]["prototypes"] == want
    assert out["concepts_off"]["prototypes"] is None


def test_every_fingerprint_run_builds_its_config():
    # a run whose changes name a removed field would break the script only when it is run
    fp = _script()
    for name, (changes, _, _) in fp.RUNS.items():
        cfg = fp.config(pl, changes)
        assert {key: getattr(cfg, key) for key in changes} == changes, name
    # a run's changes override the script's own keywords
    assert fp.config(pl, fp.RUNS["memory_off"][0]).bank_capacity == 0


def test_seeded_fingerprint_digests_the_final_retrieval_embeddings(monkeypatch):
    fp = _script()
    embed, seen = pl.embed_for_retrieval, []

    def spy_embed(*args):
        seen.append(embed(*args))
        return seen[-1]

    monkeypatch.setattr(pl, "embed_for_retrieval", spy_embed)
    out = fp.fingerprint(pl, {"dcl": fp.RUNS["dcl"]}, n_train=12, n_val=4, epochs=2, bank_capacity=16)
    # one embedding per epoch's evaluation, then the script's own of the final state
    assert len(seen) == 3
    _, _, v, w, vc, wc = seen[-1]
    want = hashlib.sha256(b"".join(arr.tobytes() for arr in (v, vc, w, wc))).hexdigest()
    assert out["dcl"]["retrieval"] == want
