"""Benchmark for crossalign: one workload per process, one caller in a closed loop.

    python3 bench/run.py --workload train_desk --seed 1 --seconds 40 --trace 0

The workload's data comes from ``pipeline.generate_synthetic`` at
``--seed`` and is written as JSONL, untimed, under ``.bench_out/`` in the
checkout. With ``--trace 0`` the run times set-up, training and
evaluation with the package unmodified and prints the end-to-end
metrics; with ``--trace 1`` it alternates plain and traced passes of
set-up plus the workload's main operation and prints per-layer metrics.
Either way the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record
(environment, every sample, each epoch's loss parts) goes to
``.bench_out/<workload>-seed<seed>-trace<trace>.json``.

BLAS is pinned to one thread and no other thread or process is started.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
LATENT_CLASSES = 8
MIN_ROUNDS = 3
# The synthetic world (class latents and modality projections, standing in
# for fixed pretrained encoders) and the trainer's seed are the same for
# every run; --seed draws the images and captions. At 3 epochs held-out
# rsum swings by about 10% with the initialisation seed alone, which
# would drown any bound on it.
WORLD_SEED = 0
TRAIN_SEED = 0


@dataclass(frozen=True)
class Workload:
    """Data shapes, trainer settings and which operation the run is about.

    ``main`` is the operation the workload exists to measure and the
    only one its traced run covers. The other operation runs smaller,
    untraced, so that every end-to-end metric has a value on every
    workload.
    """

    name: str
    main: str                      # "train" or "evaluate"
    train_split: tuple[int, int]   # images, captions per image
    eval_split: tuple[int, int]
    config: dict


WORKLOADS = {w.name: w for w in (
    # many small steps on short sequences: per-sequence graph overhead,
    # Python-loop diversity (std), k-means and Adam dominate
    Workload("train_desk", "train", (600, 2), (300, 2), {"epochs": 3}),
    # forward-only embedding and quadratic recall ranking on an untrained
    # state; backward, Adam, diversity, M-DCL and k-means do no work
    Workload("eval_2k", "evaluate", (300, 2), (2000, 5), {"epochs": 1}),
)}

# name -> unit, in BENCHMARK.json order
END_TO_END = {
    "setup_s": "s",
    "train_pairs_per_s": "pairs/s",
    "eval_s": "s",
    "rsum": "recall%",
    "peak_rss_mb": "MB",
}

# span -> counters reported besides its self time
_LAYERS = [
    ("numerics.backward", ["calls"]),
    ("numerics.adam_step", []),
    ("representation.aggregate_batch", ["calls", "seqs"]),
    ("representation.momentum_update", []),
    ("representation.enqueue", []),
    ("objective.diversity", ["calls", "anchors"]),
    ("objective.dcl_loss", []),
    ("objective.m_dcl_loss", []),
    ("objective.pgc_loss", []),
    ("objective.kmeans_cluster", ["lloyd_iters"]),
    ("knowledge.gcn_forward", []),
    ("knowledge.concept_query", []),
    ("knowledge.build_cooccurrence", []),
    ("pipeline.load_dataset", ["records"]),
    ("pipeline.build_state", []),
    ("pipeline.train", []),
    ("pipeline.batch_losses", []),
    ("pipeline.embed_for_retrieval", []),
    ("pipeline.evaluate", []),
    ("pipeline.recalls_from_similarity", ["cells"]),
]
# (metric, unit, span, counter); counter None is the span's self time
PER_LAYER = [(f"{span}.self_s", "s", span, None) for span, _ in _LAYERS]
PER_LAYER += [(f"{span}.{c}", "count", span, c) for span, counters in _LAYERS for c in counters]
PER_LAYER += [("numerics.graph_nodes_per_step", "count", None, None),
              ("trace.overhead_frac", "ratio", None, None)]


@dataclass
class Ledger:
    """Operations attempted and failed (training steps and evaluate calls)."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, ops: int, problems: list[str], what: str) -> None:
        self.attempted += ops
        if problems:
            self.failed += ops
            self.problems += [f"{what}: {p}" for p in problems]


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be non-negative and --seconds positive")
    return args


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "kernel": " ".join(os.uname()[i] for i in (0, 2, 4)),
    }


def timed(fn, reps: int = 1) -> list[float]:
    """Wall time of each of ``reps`` calls of ``fn``."""
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return out


class Bench:
    """One workload at one seed: data files, set-up and the two operations."""

    def __init__(self, wl: Workload, seed: int, workdir: Path, ledger: Ledger):
        from crossalign import pipeline as pl

        self.pl = pl
        self.wl = wl
        self.seed = seed
        self.cfg = pl.TrainConfig(seed=TRAIN_SEED, **wl.config)
        world = pl.build_world(LATENT_CLASSES, WORLD_SEED)
        self.files = {}
        for split, (n_images, per_image) in (("train", wl.train_split), ("val", wl.eval_split)):
            data = pl.generate_synthetic(n_images, per_image, LATENT_CLASSES, seed=seed, split=split,
                                         world=world)
            self.files[split] = workdir / f"{split}.jsonl"
            pl.save_dataset(data, self.files[split])
        self.ledger = ledger
        self.loss_rows: list[dict] | None = None
        self.trained = None
        self.recalls: dict | None = None
        self.missing_targets: list[str] = []

    def set_up(self):
        train_data = self.pl.load_dataset(self.files["train"])
        eval_data = self.pl.load_dataset(self.files["val"])
        return train_data, eval_data, self.pl.build_state(self.cfg, train_data)

    def train_once(self, data):
        from checks import LOSS_KEYS, loss_problems

        state, rows = self.pl.train(self.cfg, data)
        problems = loss_problems(rows)
        losses = [{k: row[k] for k in LOSS_KEYS} for row in rows]
        if self.loss_rows is None:
            self.loss_rows, self.trained = losses, state
        elif not problems and losses != self.loss_rows:
            problems = ["losses differ from the first train() call of this run"]
        steps = self.cfg.epochs * math.ceil(len(data) / self.cfg.batch_size)
        self.ledger.record(steps, problems, "train")

    def evaluate_once(self, state, data):
        from checks import recall_problems

        recalls = self.pl.evaluate(state, data, self.cfg.beta).as_row()
        problems = recall_problems(recalls)
        if self.recalls is None:
            self.recalls = recalls
        elif not problems and recalls != self.recalls:
            problems = ["recalls differ from the first evaluate() call of this run"]
        self.ledger.record(1, problems, "evaluate")

    def main_op(self, train_data, eval_data, state):
        if self.wl.main == "train":
            self.train_once(train_data)
        else:
            self.evaluate_once(state, eval_data)

    def oracle_problems(self, state, data) -> list[str]:
        """Recompute the recalls by brute force and compare (untimed)."""
        from checks import agreement_problems, blended_scores, oracle_recalls

        _, caption_image, v, w, vc, wc = self.pl.embed_for_retrieval(state, data)
        scores = blended_scores(v, w, vc, wc, self.cfg.beta)
        want = oracle_recalls(scores, caption_image)
        exact = self.pl.recalls_from_similarity(scores, caption_image).as_row()
        n_img, n_cap = scores.shape
        # same matrix: exact; through evaluate(): allow two rank flips per
        # recall so that a change in the blend's rounding is not a failure
        return (agreement_problems(exact, want, n_img, n_cap)
                + agreement_problems(self.recalls, want, n_img, n_cap, flips=2))

    # -- the two kinds of run ------------------------------------------------

    def plain_run(self, seconds: float) -> tuple[dict, dict]:
        """Rounds of set-up, main operation and secondary operation until ``seconds``.

        Interleaving spreads every metric's samples over the whole run, so
        that the host's slow and fast spells, which last from seconds to
        minutes, weigh on every metric alike. Each timing metric is the
        mean over the run: total time over calls, or pairs over time.
        """
        samples = {"setup_s": [], "train_s": [], "eval_s": []}
        start = time.perf_counter()
        while len(samples["setup_s"]) < MIN_ROUNDS or time.perf_counter() - start < seconds:
            t0 = time.perf_counter()
            train_data, eval_data, state = self.set_up()
            samples["setup_s"].append(time.perf_counter() - t0)
            if self.wl.main == "train":
                samples["train_s"] += timed(lambda: self.train_once(train_data))
                state = self.trained
                samples["eval_s"] += timed(lambda: self.evaluate_once(state, eval_data), 3)
            else:
                samples["eval_s"] += timed(lambda: self.evaluate_once(state, eval_data))
                samples["train_s"] += timed(lambda: self.train_once(train_data), 4)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        t0 = time.perf_counter()
        self.ledger.record(0, self.oracle_problems(state, eval_data), "oracle")
        samples["oracle_check_s"] = time.perf_counter() - t0
        samples["train_pairs"] = pairs = len(train_data) * self.cfg.epochs
        metrics = {
            "setup_s": statistics.fmean(samples["setup_s"]),
            "train_pairs_per_s": pairs / statistics.fmean(samples["train_s"]),
            "eval_s": statistics.fmean(samples["eval_s"]),
            "rsum": self.recalls["rsum"],
            "peak_rss_mb": peak_rss_mb,
        }
        return metrics, samples

    def traced_run(self, seconds: float) -> tuple[dict, dict]:
        from tracing import Tracer, install

        plain, traced, layers = [], [], []
        start = time.perf_counter()
        while len(plain) < 2 or time.perf_counter() - start < seconds:
            order = (False, True) if len(plain) % 2 == 0 else (True, False)
            for with_trace in order:
                tracer = Tracer() if with_trace else None
                restore, missing = install(tracer) if with_trace else (lambda: None, [])
                try:
                    t0 = time.perf_counter()
                    self.main_op(*self.set_up())
                    elapsed = time.perf_counter() - t0
                finally:
                    restore()
                if with_trace:
                    traced.append(elapsed)
                    layers.append(layer_metrics(tracer))
                    spans, self.missing_targets = tracer.spans, missing
                else:
                    plain.append(elapsed)

        # counts repeat exactly from pass to pass, so their mean is exact
        metrics = {name: statistics.fmean(pass_[name] for pass_ in layers)
                   for name, *_ in PER_LAYER if name != "trace.overhead_frac"}
        metrics["trace.overhead_frac"] = statistics.fmean(traced) / statistics.fmean(plain) - 1.0
        self.write_spans(spans)
        return metrics, {"plain_pass_s": plain, "traced_pass_s": traced}

    def write_spans(self, spans) -> None:
        path = OUT_DIR / f"{self.wl.name}-seed{self.seed}-spans.json"
        path.write_text(json.dumps({"fields": ["name", "parent", "start", "end"], "spans": spans}))


def layer_metrics(tracer) -> dict:
    """Per-layer metrics of one traced pass."""
    from tracing import self_times

    own = self_times(tracer.spans)
    out = {}
    for name, _, span, counter in PER_LAYER:
        if span is None:
            continue
        out[name] = own.get(span, 0.0) if counter is None else tracer.counts.get(f"{span}.{counter}", 0)
    steps = tracer.counts.get("numerics.backward.calls", 0)
    nodes = tracer.counts.get("numerics.backward.graph_nodes", 0)
    out["numerics.graph_nodes_per_step"] = nodes / steps if steps else 0
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    for key in BLAS_ENV:
        os.environ[key] = "1"  # before numpy loads BLAS
    if not (ROOT / "src" / "crossalign" / "pipeline.py").is_file():
        print(f"bench: no crossalign sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT_DIR.mkdir(exist_ok=True)

    wl = WORKLOADS[args.workload]
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment()}
    ledger = Ledger()
    bench = None
    metrics = {}
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT_DIR))
    try:
        bench = Bench(wl, args.seed, workdir, ledger)
        if args.trace:
            values, samples = bench.traced_run(args.seconds)
            units = {name: unit for name, unit, *_ in PER_LAYER}
            record["missing_targets"] = bench.missing_targets
        else:
            values, samples = bench.plain_run(args.seconds)
            units = END_TO_END
        record["samples"] = samples
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    except Exception:
        # the operation that raised counts as one failed operation
        ledger.record(1, [traceback.format_exc()], "exception")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = not ledger.problems
    if not correct:
        metrics = {}
    record.update(loss_rows=bench and bench.loss_rows, recalls=bench and bench.recalls,
                  problems=ledger.problems, metrics=metrics)
    out = OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))
    for p in ledger.problems:
        print(f"bench: check failed: {p}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
