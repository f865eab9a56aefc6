"""Every function the benchmark wraps by name still exists.

``benchmarks/workloads.py`` lists them in ``TRACE_TARGETS``; a rename or a
deletion would otherwise show only in the slower benchmark self-test.
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
