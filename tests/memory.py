"""The traced memory peak of one call, and the ``train`` workload's inputs
that the tests bounding it use."""
from __future__ import annotations

import importlib
import tracemalloc
from pathlib import Path

from commtopo.collector import collect_supervision
from commtopo.synth import make_planted_evaluator


def traced_peak(call, *args):
    """``call(*args)`` and the peak of memory traced while it ran, in bytes above its start."""
    tracemalloc.start()
    try:
        return call(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def train_workload_pairs(monkeypatch):
    """The pairs that a pass of the ``train`` benchmark workload collects at
    seed 100, with that workload's pool and config."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
    workloads = importlib.import_module("workloads")
    suite, pool, cfg = workloads.TrainWorkload(100, workloads.FULL["train"], 0.0, 0.0).setup()
    pairs, _ = collect_supervision(suite.train_tasks, pool, cfg.collector, make_planted_evaluator("jaccard"))
    return pairs, pool, cfg
