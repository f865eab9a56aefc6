"""Every function the benchmark wraps by name still exists, and every
workload's configuration passes the options' declared values.

``benchmarks/workloads.py`` lists the functions in ``TRACE_TARGETS``; a
rename, a deletion or a tightened range would otherwise show only in the
slower benchmark self-test.
"""
import importlib
from pathlib import Path


def test_every_trace_target_is_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
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
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
    workloads = importlib.import_module("workloads")
    for sizes in (*workloads.FULL.values(), *workloads.TINY.values()):
        workloads.pipeline_config(sizes)
