"""Spans and counters recorded around crossalign's public functions, from outside.

``install`` swaps functions on the package's modules and methods on its
classes for timing wrappers and returns a callable that puts the
originals back, so the package itself knows nothing about tracing and an
untraced process runs the unmodified code.

A span is ``[name, parent, start, end]`` where ``parent`` indexes the
span that was open when it started (-1 at top level). Calls are single
threaded, so child spans nest strictly inside their parent and a span's
self time is its duration minus the durations of its direct children.
"""
from __future__ import annotations

import functools
import time
from collections import defaultdict

COUNT_SPAN = "trace.count"


class Tracer:
    """Collects spans in memory and per-span counters (``<span>.<counter>``)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[int] = []

    def call(self, name: str, fn, args=(), kwargs=None):
        """Run ``fn`` inside a span called ``name``."""
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, parent, self.clock(), None])
        self._open.append(index)
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            self.spans[index][3] = self.clock()
            self._open.pop()

    def wrap(self, name: str, fn, count=None):
        """``fn`` traced as ``name``; ``count(args, kwargs, result)`` returns counter increments.

        Counting runs in its own span so that its cost (walking a graph,
        say) stays out of every layer's self time.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            self.counts[name + ".calls"] += 1
            if count is not None:
                extra = self.call(COUNT_SPAN, count, (args, kwargs, result))
                for key, n in extra.items():
                    self.counts[f"{name}.{key}"] += n
            return result

        return traced


def self_times(spans) -> dict[str, float]:
    """Total self time per span name: duration minus direct children's durations."""
    covered = [0.0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, _, start, end) in enumerate(spans):
        out[name] += (end - start) - covered[i]
    return dict(out)


# ---------------------------------------------------------------------------
# counters
# ---------------------------------------------------------------------------

def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def graph_nodes(root) -> int:
    """Distinct nodes reachable from ``root`` through their parents."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in getattr(stack.pop(), "_parents", ()):
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _count_graph(args, kwargs, result):
    return {"graph_nodes": graph_nodes(_arg(args, kwargs, 0, "result"))}


def _count_seqs(args, kwargs, result):
    return {"seqs": len(_arg(args, kwargs, 1, "seqs"))}


def _count_anchors(args, kwargs, result):
    return {"anchors": _arg(args, kwargs, 0, "sim").scores.rows}


def _count_lloyd(args, kwargs, result):
    return {"lloyd_iters": len(result.inertia_path)}


def _count_records(args, kwargs, result):
    return {"records": len(result)}


def _count_cells(args, kwargs, result):
    return {"cells": int(_arg(args, kwargs, 0, "scores").size)}


def targets():
    """(owner, attribute, span name, counter) for every wrapped function.

    ``pipeline`` imports ``backward`` and ``adam_step`` by name, so they
    are wrapped in both namespaces under one span name; each call goes
    through exactly one of the two. The diversity estimators are
    wrapped on ``objective`` itself, which also catches the calls that
    ``objective._estimate`` makes.
    """
    from crossalign import knowledge, numerics, objective, pipeline, representation

    return [
        (numerics, "backward", "numerics.backward", _count_graph),
        (pipeline, "backward", "numerics.backward", _count_graph),
        (numerics, "adam_step", "numerics.adam_step", None),
        (pipeline, "adam_step", "numerics.adam_step", None),
        (representation.FeatureAggregator, "aggregate_batch",
         "representation.aggregate_batch", _count_seqs),
        (representation.EncoderPair, "momentum_update", "representation.momentum_update", None),
        (representation.MemoryBank, "enqueue", "representation.enqueue", None),
        (objective, "diversity_std", "objective.diversity", _count_anchors),
        (objective, "diversity_entropy", "objective.diversity", _count_anchors),
        (objective, "dcl_loss", "objective.dcl_loss", None),
        (objective, "dcl_i_loss", "objective.dcl_loss", None),
        (objective, "m_dcl_loss", "objective.m_dcl_loss", None),
        (objective, "pgc_loss", "objective.pgc_loss", None),
        (objective, "kmeans_cluster", "objective.kmeans_cluster", _count_lloyd),
        (knowledge, "gcn_forward", "knowledge.gcn_forward", None),
        (knowledge, "concept_query", "knowledge.concept_query", None),
        (knowledge, "build_cooccurrence", "knowledge.build_cooccurrence", None),
        (pipeline, "load_dataset", "pipeline.load_dataset", _count_records),
        (pipeline, "build_state", "pipeline.build_state", None),
        (pipeline, "train", "pipeline.train", None),
        (pipeline, "batch_losses", "pipeline.batch_losses", None),
        (pipeline, "embed_for_retrieval", "pipeline.embed_for_retrieval", None),
        (pipeline, "evaluate", "pipeline.evaluate", None),
        (pipeline, "recalls_from_similarity", "pipeline.recalls_from_similarity", _count_cells),
    ]


def install(tracer: Tracer):
    """Wrap every target that exists; returns (restore, names of missing targets)."""
    saved, missing = [], []
    for owner, attr, name, count in targets():
        original = vars(owner).get(attr)
        if original is None:
            missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            continue
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, count))

    def restore():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore, missing
