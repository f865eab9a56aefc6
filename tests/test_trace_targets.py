"""Every function the benchmark wraps by name still exists, every
workload's configuration passes the options' declared values, and a few
of the recorded output digests recompute equal.

``benchmarks/workloads.py`` lists the functions in ``TRACE_TARGETS``; a
rename, a deletion or a tightened range would otherwise show only in the
slower benchmark self-test.
"""
import importlib
import json
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_every_trace_target_is_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    workloads = importlib.import_module("workloads")
    targets = [(module, attr) for module, attr, *_ in workloads.TRACE_TARGETS]
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr in targets
        if not callable(getattr(module, attr, None))
    ]
    assert targets and missing == []


def test_every_workload_config_passes_the_declared_values(monkeypatch):
    # collect-orch never trains and sets epochs = 0, which finalize must accept
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    workloads = importlib.import_module("workloads")
    for sizes in (*workloads.FULL.values(), *workloads.TINY.values()):
        workloads.pipeline_config(sizes)


@pytest.mark.parametrize("seed", [0, 11, 73])
def test_recorded_digests_recompute_equal(monkeypatch, seed):
    # the benchmark compares every pass with these; a change to the outputs shows here first
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    record_digests = importlib.import_module("record_digests")
    recorded = json.loads((BENCHMARKS / "digests.json").read_text())
    got = record_digests.digests_for(seed)
    assert got == {workload: recorded[workload][str(seed)] for workload in ("query", "collect-orch")}
