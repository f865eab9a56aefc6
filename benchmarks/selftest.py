"""Self-test of the benchmark harness.

    python3 benchmarks/selftest.py

Runs every workload at a tiny size, untraced and traced, and asserts
that the result line carries exactly the end-to-end or per-layer
metrics named in BENCHMARK.json with their units, that the report line
names each workload's metrics with unit and sample count, and that the
structural counts hold (46 calls per star or complete run, critical
paths of 7 and 46).  Then it checks that the benchmark refuses to run,
with a non-zero exit and no result, in a directory that holds only the
benchmark's own files.  Takes under a minute.
"""
from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
from workloads import TINY  # noqa: E402

REPORT_METRICS = {
    "train": ("collect_s", "train_s", "heldout_recovery"),
    "query": tuple(
        f"{m}.latency_p{q}_ms" for m in ("designed", "star", "complete") for q in (50, 90)
    ) + ("designed.tokens_per_query", "token_ratio", "designed.accuracy"),
    "collect-orch": ("collect_s",),
}


def run_workload(spec: dict, name: str, trace: int) -> tuple[dict, dict]:
    """Run in this process with the command's own arguments, at tiny sizes."""
    argv = spec["command"][2:] + ["--workload", name, "--seed", "1", "--seconds", "0.1", "--trace", str(trace)]
    out = io.StringIO()
    with redirect_stdout(out):
        rc = run.main(argv, sizes=TINY, digests={})
    assert rc == 0, f"{name}: exit code {rc}"
    lines = out.getvalue().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def check_result(name: str, result: dict, expected: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, f"{name}: a correctness check failed"
    assert result["attempted"] >= 1 and result["failed"] == 0
    units = {m["name"]: m["unit"] for m in expected}
    assert set(result["metrics"]) == set(units), set(result["metrics"]) ^ set(units)
    for metric, unit in units.items():
        got = result["metrics"][metric]
        assert got["unit"] == unit, f"{name}: {metric} unit {got['unit']} != {unit}"
        assert isinstance(got["value"], (int, float)), f"{name}: {metric} = {got['value']!r}"


def check_report(name: str, report: dict) -> None:
    for metric in REPORT_METRICS[name]:
        entry = report["metrics"][metric]
        assert entry["value"] is not None and entry["unit"] and entry["samples"] >= 1, (name, metric, entry)
    assert report["failed_ratio"]["value"] == 0.0 and report["failed_ratio"]["base"]


def check_bare_directory() -> None:
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((bare / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"] + ["--workload", "query", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0, "benchmark ran without the library"
    assert proc.stdout.strip() == "", proc.stdout


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(REPORT_METRICS)
    for name in REPORT_METRICS:
        report, result = run_workload(spec, name, 0)
        check_result(name, result, spec["end_to_end"])
        check_report(name, report)
        report, result = run_workload(spec, name, 1)
        check_result(name, result, spec["per_layer"])
        assert report["absent"] == [], report["absent"]
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        if name == "query":
            for method, path in (("star", 7), ("complete", 46)):
                assert metrics[f"orchestrator.{method}.calls_per_query"] == 46
                assert metrics[f"orchestrator.{method}.critical_path_calls"] == path
        print(f"ok: {name}")
    check_bare_directory()
    print("ok: refuses to run without the library")
    return 0


if __name__ == "__main__":
    sys.exit(main())
