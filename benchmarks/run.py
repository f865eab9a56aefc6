"""Run one benchmark workload and print its metrics.

    python3 benchmarks/run.py --chat-delay-ms 2 --embed-delay-ms 0.5 \
        --workload query --seed 3 --seconds 10 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it is a report with the workload's named
metrics (each with unit and sample count), the correctness checks, the
failure count with its base and a record of the machine.  Exits 2 with
no result when the checkout has no library to benchmark.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SLICE_S = 0.5
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train", "query", "collect-orch"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--chat-delay-ms", type=float, required=True)
    parser.add_argument("--embed-delay-ms", type=float, required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def machine_record(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "seed": args.seed,
        "chat_delay_ms": args.chat_delay_ms,
        "embed_delay_ms": args.embed_delay_ms,
        "git_commit": git_commit(ROOT),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setups(workload):
    """Set up until the set-ups total SETUP_SLICE_S, so a set-up of a few
    milliseconds is sampled many times while one that takes longer runs
    once; return the last state and every set-up time."""
    times = []
    while sum(times) < SETUP_SLICE_S:
        start = time.perf_counter()
        state = workload.setup()
        times.append(time.perf_counter() - start)
    return state, times


def run_untraced(workload, seconds: float):
    """Passes repeat while another fits in ``seconds``.  Each pass runs on
    a fresh set-up, so the set-up samples are spread over the run like
    the passes: the machine's speed drifts over seconds, and set-ups
    timed in one block at the start would all see the same moment."""
    setups, passes = [], []
    while True:
        state, times = timed_setups(workload)
        setups += times
        passes.append(workload.timed_pass(state))
        measured = sum(p.wall_s for p in passes)
        if len(passes) >= workload.min_passes and measured + measured / len(passes) > seconds:
            break
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "pass_s": (statistics.median(p.wall_s for p in passes), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return passes, metrics, {"setup_s_samples": setups}


def run_traced(workload, out_dir: Path, tag: str):
    """Four passes over the same inputs: untraced, traced, traced, untraced.

    The per-layer metrics come from the first traced pass.  The trace
    overhead is the traced passes' wall time over the untraced passes'
    wall time, minus 1; the symmetric order cancels a steady drift in
    the machine's speed.
    """
    from tracing import Tracer, patched
    from workloads import TRACE_TARGETS, layer_metrics, method_breakdown

    state = workload.setup()
    tracers = (None, Tracer(), Tracer(), None)
    passes = []
    for t in tracers:
        with patched(t, TRACE_TARGETS) if t else nullcontext():
            passes.append(workload.timed_pass(state, t))
    tracer = tracers[1]
    metrics = layer_metrics(tracer, passes[1])
    plain_s = passes[0].wall_s + passes[3].wall_s
    metrics["trace_overhead"] = ((passes[1].wall_s + passes[2].wall_s) / plain_s - 1.0, "ratio")
    out_dir.mkdir(exist_ok=True)
    tracer.dump(out_dir / f"spans-{tag}.jsonl")
    extra = {"absent": tracer.absent, "spans": len(tracer.spans), "method_breakdown": method_breakdown(tracer)}
    return passes, metrics, extra


def main(argv=None, sizes=None, digests=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "commtopo" / "__init__.py").is_file():
        print(f"error: no library at {src / 'commtopo'}; run from a source checkout", file=sys.stderr)
        return 2
    for path in (str(src), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads

    if digests is None:
        digests = json.loads((HERE / "digests.json").read_text())
    cls = workloads.WORKLOADS[args.workload]
    workload = cls(
        args.seed,
        (sizes or workloads.FULL)[args.workload],
        args.chat_delay_ms / 1e3,
        args.embed_delay_ms / 1e3,
        digests,
    )
    if args.trace:
        passes, metrics, extra = run_traced(workload, ROOT / ".bench_out", f"{args.workload}-{args.seed}")
    else:
        passes, metrics, extra = run_untraced(workload, args.seconds)

    checks = {}
    for p in passes:
        for name, ok in p.checks.items():
            checks[name] = checks.get(name, True) and ok
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    report = {
        "workload": args.workload,
        "pass_s_samples": [p.wall_s for p in passes],
        "metrics": workload.report([p for p in passes if not p.traced]),
        "failed_ratio": {"value": failed / attempted if attempted else None, "base": f"{attempted} {cls.ops_base}"},
        "checks": checks,
        "digest": passes[-1].values.get("digest"),
        "digest_recorded": workload.recorded,
        "machine": machine_record(args),
        **extra,
    }
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
