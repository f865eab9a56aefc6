"""Static-topology baselines, the benchmark harness, and the
node-count Gaussian fit used for team-size analysis."""
from __future__ import annotations

import csv
import io
import logging
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import curve_fit

from .backends import BackendSet
from .collector import TaskSpec, answer_matches
from .errors import ConfigError, FitDegenerate, RunAborted
from .graphs import CommTopology, NodeMask, WeightMatrix
from .orchestrator import run_topology
from .pool import AgentPool

log = logging.getLogger(__name__)

STATIC_SHAPES = ("chain", "star", "tree", "complete", "random")


def make_static(
    shape: str,
    members: Sequence[int],
    n_max: int,
    p: float = 0.3,
    rng: np.random.Generator | None = None,
    bidirectional_tree: bool = False,
) -> CommTopology:
    """Build a fixed topology over the member set, lifted to n_max.

    chain: i -> i+1 along member order; star: first member is the hub,
    both directions; tree: binary-heap layout, parent -> child (downward
    flow unless ``bidirectional_tree``); complete: all ordered pairs;
    random: each ordered pair independently with probability p.
    """
    members = sorted(int(v) for v in members)
    if len(members) < 2:
        raise ConfigError("need at least 2 members")
    if len(set(members)) != len(members) or members[0] < 0 or members[-1] >= n_max:
        raise ConfigError(f"invalid member ids {members}")
    w = np.zeros((n_max, n_max))
    m = len(members)
    if shape == "chain":
        for a, b in zip(members, members[1:]):
            w[a, b] = 1.0
    elif shape == "star":
        hub = members[0]
        for other in members[1:]:
            w[hub, other] = 1.0
            w[other, hub] = 1.0
    elif shape == "tree":
        for k in range(m):
            for child in (2 * k + 1, 2 * k + 2):
                if child < m:
                    w[members[k], members[child]] = 1.0
                    if bidirectional_tree:
                        w[members[child], members[k]] = 1.0
    elif shape == "complete":
        for a in members:
            for b in members:
                if a != b:
                    w[a, b] = 1.0
    elif shape == "random":
        if not 0.0 <= p <= 1.0:
            raise ConfigError(f"random edge probability {p} outside [0, 1]")
        if rng is None:
            raise ConfigError("random shape needs an rng")
        for a in members:
            for b in members:
                if a != b and rng.uniform() < p:
                    w[a, b] = 1.0
    else:
        raise ConfigError(f"unknown shape {shape!r}; valid: {STATIC_SHAPES}")
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
        writer.writerow(["method", "accuracy", "mean_tokens", "runs"])
        for r in self.rows:
            writer.writerow([r.method, f"{r.accuracy:.4f}", f"{r.mean_tokens:.1f}", r.runs])
        return buf.getvalue()

    def to_markdown(self) -> str:
        lines = [
            f"Benchmark suite: {self.suite_id} (seed {self.seed})",
            "",
            "| Method | Accuracy | Mean tokens | Runs |",
            "| --- | --- | --- | --- |",
        ]
        for r in self.rows:
            lines.append(f"| {r.method} | {r.accuracy:.4f} | {r.mean_tokens:.1f} | {r.runs} |")
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
    """Each method x task x repeat executes through the orchestrator;
    aborted runs count as incorrect with their partial token cost."""
    if not suite:
        raise ConfigError("empty task suite")
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    rows = []
    for method_index, (name, source) in enumerate(methods):
        correct = 0
        tokens: list[int] = []
        runs = 0
        for task_index, task in enumerate(suite):
            for rep in range(repeats):
                rng = np.random.default_rng((seed, method_index, task_index, rep))
                runs += 1
                try:
                    result = run_topology(
                        source(task), task, pool, backends, k=k, theta=theta, rng=rng
                    )
                except RunAborted as exc:
                    partial = sum(e.tokens() for e in exc.transcript)
                    tokens.append(partial)
                    log.warning("bench cell aborted (%s, %s): %s", name, task.task_id, exc)
                    continue
                tokens.append(result.total_tokens)
                if answer_matches(task, result.answer):
                    correct += 1
        rows.append(BenchRow(name, correct / runs, float(np.mean(tokens)), runs))
    return BenchReport(tuple(rows), suite_id, seed)


def fit_node_count_gaussian(topologies: Sequence[CommTopology]) -> tuple[float, float, float]:
    """Least-squares fit of A*exp(-(x-mu)^2 / (2 sigma^2)) to the
    histogram of active-node counts; returns (A, mu, |sigma|)."""
    if len(topologies) < 5:
        raise FitDegenerate("need at least 5 topologies")
    counts = np.array([t.mask.active_count() for t in topologies])
    xs = np.arange(counts.min(), counts.max() + 1)
    if len(xs) < 2:
        raise FitDegenerate("all topologies have the same node count")
    ys = np.array([(counts == x).sum() for x in xs], dtype=float)

    def gauss(x, a, mu, sigma):
        return a * np.exp(-((x - mu) ** 2) / (2.0 * sigma**2))

    p0 = (float(ys.max()), float(np.mean(counts)), max(float(np.std(counts)), 0.5))
    try:
        popt, _ = curve_fit(gauss, xs, ys, p0=p0, maxfev=10000)
    except RuntimeError as exc:
        raise FitDegenerate(f"fit did not converge: {exc}") from exc
    a, mu, sigma = popt
    return float(a), float(mu), float(abs(sigma))
