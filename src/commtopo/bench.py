"""Static-topology baselines, and the benchmark harness that runs each
method's topologies through the orchestrator."""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .backends import BackendSet
from .collector import TaskSpec, answer_matches
from .errors import BackendError, ConfigError, RunAborted
from .graphs import CommTopology, NodeMask, WeightMatrix
from .orchestrator import run_topology
from .pool import AgentPool

STATIC_SHAPES = ("chain", "star", "tree", "complete", "random")


def make_static(
    shape: str,
    members: Sequence[int],
    n_max: int,
    p: float = 0.3,
    rng: np.random.Generator | None = None,
) -> CommTopology:
    """Build a fixed topology over the member set, lifted to n_max.

    chain: i -> i+1 along member order; star: first member is the hub,
    both directions; tree: binary-heap layout, parent -> child (downward
    flow); complete: all ordered pairs;
    random: each ordered pair independently with probability p, from one
    uniform draw per ordered pair, taken in row order.
    """
    members = sorted(int(v) for v in members)
    if len(members) < 2:
        raise ConfigError("need at least 2 members")
    if len(set(members)) != len(members) or members[0] < 0 or members[-1] >= n_max:
        raise ConfigError(f"invalid member ids {members}")
    m = len(members)
    k = np.arange(m)  # local indices into the sorted members
    if shape == "chain":
        src, dst = k[:-1], k[1:]
    elif shape == "star":
        hub = np.zeros(m - 1, dtype=int)
        src, dst = np.concatenate([hub, k[1:]]), np.concatenate([k[1:], hub])
    elif shape == "tree":
        src, dst = (k[1:] - 1) // 2, k[1:]
    elif shape in ("complete", "random"):
        src, dst = np.nonzero(~np.eye(m, dtype=bool))  # off-diagonal pairs, row order
        if shape == "random":
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"random edge probability {p} outside [0, 1]")
            if rng is None:
                raise ConfigError("random shape needs an rng")
            keep = rng.uniform(size=m * (m - 1)) < p
            src, dst = src[keep], dst[keep]
    else:
        raise ConfigError(f"unknown shape {shape!r}; valid: {STATIC_SHAPES}")
    idx = np.array(members)
    w = np.zeros((n_max, n_max))
    w[idx[src], idx[dst]] = 1.0
    mask = np.zeros(n_max)
    mask[members] = 1.0
    return CommTopology(NodeMask(n_max, mask), WeightMatrix(n_max, w))


TopologySource = Callable[[TaskSpec], CommTopology]


@dataclass(frozen=True)
class BenchRow:
    method: str
    accuracy: float
    mean_tokens: float
    runs: int
    aborted: int  # runs that a backend failure ended; each counts as incorrect


@dataclass(frozen=True)
class BenchReport:
    rows: tuple[BenchRow, ...]
    suite_id: str
    seed: int

    def row(self, method: str) -> BenchRow:
        for r in self.rows:
            if r.method == method:
                return r
        raise KeyError(method)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["method", "accuracy", "mean_tokens", "runs", "aborted"])
        for r in self.rows:
            writer.writerow([r.method, f"{r.accuracy:.4f}", f"{r.mean_tokens:.1f}", r.runs, r.aborted])
        return buf.getvalue()

    def to_markdown(self) -> str:
        lines = [
            f"Benchmark suite: {self.suite_id} (seed {self.seed})",
            "",
            "| Method | Accuracy | Mean tokens | Runs | Aborted |",
            "| --- | --- | --- | --- | --- |",
        ]
        for r in self.rows:
            lines.append(f"| {r.method} | {r.accuracy:.4f} | {r.mean_tokens:.1f} | {r.runs} | {r.aborted} |")
        return "\n".join(lines) + "\n"


def run_bench(
    suite: Sequence[TaskSpec],
    methods: Sequence[tuple[str, TopologySource]],
    pool: AgentPool,
    backends: BackendSet,
    repeats: int = 2,
    k: int = 3,
    theta: float = 0.5,
    seed: int = 0,
    suite_id: str = "suite",
) -> BenchReport:
    """Each method's source designs each task's topology once, and that
    topology executes through the orchestrator once per repeat; aborted
    runs count as incorrect with their partial token cost, and each row
    counts its aborted runs.  A bench whose every run aborted measured
    nothing: it raises ``BackendError`` naming the first abort."""
    if not suite:
        raise ConfigError("empty task suite")
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    rows = []
    first_abort = ""
    for method_index, (name, source) in enumerate(methods):
        correct = aborted = runs = 0
        tokens: list[int] = []
        for task_index, task in enumerate(suite):
            topo = source(task)
            for rep in range(repeats):
                rng = np.random.default_rng((seed, method_index, task_index, rep))
                runs += 1
                try:
                    result = run_topology(topo, task, pool, backends, k=k, theta=theta, rng=rng)
                except RunAborted as exc:
                    partial = sum(e.tokens() for e in exc.transcript)
                    tokens.append(partial)
                    aborted += 1
                    first_abort = first_abort or str(exc)
                    continue
                tokens.append(result.total_tokens)
                if answer_matches(task, result.answer):
                    correct += 1
        rows.append(BenchRow(name, correct / runs, float(np.mean(tokens)), runs, aborted))
    if rows and all(r.aborted == r.runs for r in rows):
        raise BackendError(f"every bench run aborted; the first: {first_abort}")
    return BenchReport(tuple(rows), suite_id, seed)
