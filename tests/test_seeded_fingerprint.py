import importlib.util
import json
from pathlib import Path

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
    assert sorted(out) == ["momentum", "params", "rows"]
    assert [row["epoch"] for row in out["rows"]] == [0, 1]
    assert out["rows"][0]["l_mdcl"] == 0.0 and out["rows"][1]["l_mdcl"] != 0.0
    assert all(len(out[key]) == 64 for key in ("params", "momentum"))
