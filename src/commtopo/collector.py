"""Stage I: sample complete subgraphs, score them per task, mine the
top-k per task, and emit lifted supervision pairs."""
from __future__ import annotations

import json
import logging
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np
from scipy.special import ndtr

from .backends import MAX_IN_FLIGHT
from .errors import (
    ConfigError,
    FormatError,
    InvalidOrder,
    MineUnderflow,
    ScoreUnavailable,
)
from .graphs import CATEGORIES, SupervisionPair, Topology, lift_subgraph
from .pool import AgentPool

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SampledGraph:
    """A complete subgraph K_i on a sorted member set."""

    members: tuple[int, ...]
    topology: Topology

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(int(v) for v in self.members))
        if list(self.members) != sorted(set(self.members)):
            raise InvalidOrder("members must be strictly ascending")


@dataclass(frozen=True)
class TaskSpec:
    task_id: str
    task_text: str
    category: str
    expected_answer: str = ""
    check: str = "exact"  # exact | numeric | contains
    planted_team: tuple[int, ...] | None = None  # synthetic suites only

    def __post_init__(self):
        if self.category not in CATEGORIES:
            raise ConfigError(f"unknown category {self.category!r}")
        if self.check not in ("exact", "numeric", "contains"):
            raise ConfigError(f"unknown check rule {self.check!r}")
        if self.planted_team is not None:
            object.__setattr__(self, "planted_team", tuple(int(v) for v in self.planted_team))

    def to_json_line(self) -> str:
        obj = {
            "task_id": self.task_id,
            "task_text": self.task_text,
            "category": self.category,
            "expected_answer": self.expected_answer,
            "check": self.check,
        }
        if self.planted_team is not None:
            obj["planted_team"] = list(self.planted_team)
        return json.dumps(obj, sort_keys=True)

    @classmethod
    def from_json_line(cls, line: str) -> "TaskSpec":
        try:
            obj = json.loads(line)
            return cls(
                task_id=obj["task_id"],
                task_text=obj["task_text"],
                category=obj["category"],
                expected_answer=obj.get("expected_answer", ""),
                check=obj.get("check", "exact"),
                planted_team=tuple(obj["planted_team"]) if "planted_team" in obj else None,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bad task line: {exc}") from exc


def read_tasks(text: str) -> list[TaskSpec]:
    return [TaskSpec.from_json_line(ln) for ln in text.splitlines() if ln.strip()]


def write_tasks(tasks: Iterable[TaskSpec]) -> str:
    return "".join(t.to_json_line() + "\n" for t in tasks)


def answer_matches(task: TaskSpec, answer: str) -> bool:
    """Apply the task's answer-match rule."""
    expected = task.expected_answer.strip()
    got = answer.strip()
    if task.check == "exact":
        return got == expected
    if task.check == "contains":
        return expected in got
    # numeric: compare the last number found in the answer at small tolerance
    def last_number(s: str) -> float | None:
        num = None
        for tok in s.replace(",", " ").split():
            try:
                num = float(tok.rstrip(".:;"))
            except ValueError:
                continue
        return num

    want, have = last_number(expected), last_number(got)
    if want is None or have is None:
        return False
    return math.isclose(want, have, rel_tol=1e-6, abs_tol=1e-6)


@dataclass
class CollectorConfig:
    budget: int = 2000
    sigma: float = 2.0
    mu: float | None = None  # defaults to n_max / 2
    top_k: int = 2
    candidates_per_task: int = 20
    seed: int = 0

    def resolved_mu(self, n_max: int) -> float:
        mu = self.mu if self.mu is not None else n_max / 2
        if not 2 <= mu <= n_max:
            raise ConfigError(f"mu={mu} outside [2, {n_max}]")
        return mu

    # sample_orders rejection-samples the whole Gaussian, so it needs about
    # 1 / accepted_mass draws per order
    MIN_ACCEPTED_MASS = 1e-3

    def validate(self, n_max: int) -> None:
        if self.budget < 1:
            raise ConfigError("budget must be >= 1")
        if not 0 < self.sigma < math.inf:  # a NaN or infinite sigma never draws an order
            raise ConfigError("sigma must be finite and > 0")
        if self.top_k < 1 or self.candidates_per_task < 1:
            raise ConfigError("top_k and candidates_per_task must be >= 1")
        mass = accepted_mass(self, n_max)
        if not mass >= self.MIN_ACCEPTED_MASS:
            raise ConfigError(
                f"sigma={self.sigma} leaves {mass:.3g} of the order distribution in "
                f"[2, {n_max}] (need >= {self.MIN_ACCEPTED_MASS})"
            )


def sample_orders(cfg: CollectorConfig, n_max: int, rng: np.random.Generator | None = None) -> list[int]:
    """Draw graph orders from a Gaussian truncated to [2, n_max].

    Draws outside the range are rejected and resampled; accepted reals
    are rounded half-up to integers.
    """
    cfg.validate(n_max)
    mu = cfg.resolved_mu(n_max)
    rng = rng if rng is not None else np.random.default_rng(cfg.seed)
    orders: list[int] = []
    while len(orders) < cfg.budget:
        draws = rng.normal(mu, cfg.sigma, size=max(64, cfg.budget))
        kept = draws[(draws >= 2) & (draws <= n_max)]
        orders.extend(int(math.floor(x + 0.5)) for x in kept)
    return orders[: cfg.budget]


def accepted_mass(cfg: CollectorConfig, n_max: int) -> float:
    """Probability that one Gaussian draw of ``sample_orders`` lies in [2, n_max]."""
    mu = cfg.resolved_mu(n_max)
    return float(ndtr((n_max - mu) / cfg.sigma) - ndtr((2 - mu) / cfg.sigma))


def order_distribution(cfg: CollectorConfig, n_max: int) -> np.ndarray:
    """Exact pmf of sample_orders over the integers 2..n_max."""
    mu, sigma = cfg.resolved_mu(n_max), cfg.sigma
    ks = np.arange(2, n_max + 1)
    lo = np.maximum(ks - 0.5, 2.0)
    hi = np.minimum(ks + 0.5, float(n_max))
    return (ndtr((hi - mu) / sigma) - ndtr((lo - mu) / sigma)) / accepted_mass(cfg, n_max)


def order_ks_statistic(orders: Sequence[int], cfg: CollectorConfig, n_max: int) -> float:
    """KS distance between sampled orders and the truncated-Gaussian pmf."""
    pmf = order_distribution(cfg, n_max)
    cdf = np.cumsum(pmf)
    counts = np.bincount(np.asarray(orders, dtype=int), minlength=n_max + 1)[2 : n_max + 1]
    ecdf = np.cumsum(counts) / len(orders)
    return float(np.abs(ecdf - cdf).max())


def sample_subset(order: int, pool: AgentPool, rng: np.random.Generator) -> SampledGraph:
    """Uniform size-``order`` agent subset, ascending ids, complete topology."""
    if not 2 <= order <= pool.n_max:
        raise InvalidOrder(f"order {order} outside [2, {pool.n_max}]")
    members = np.sort(rng.choice(pool.n_max, size=order, replace=False))
    return SampledGraph(tuple(int(v) for v in members), Topology.complete(order))


Evaluator = Callable[[SampledGraph, TaskSpec], float]
"""Utility of a sampled graph on a task.  `collect_supervision` calls it
from several threads at once, and its corpus is deterministic only if
the result depends on nothing but (graph, task)."""


def score_graph(g: SampledGraph, task: TaskSpec, evaluator: Evaluator) -> float:
    """The evaluator's utility clipped to [0, 1]; any failure, a NaN
    included, is ScoreUnavailable."""
    try:
        score = float(evaluator(g, task))
    except ScoreUnavailable:
        raise
    except Exception as exc:
        raise ScoreUnavailable(str(exc)) from exc
    if math.isnan(score):
        raise ScoreUnavailable("utility is NaN")
    return min(max(score, 0.0), 1.0)


def mine_supervision(
    scored: Mapping[TaskSpec, Sequence[tuple[SampledGraph, float]]],
    cfg: CollectorConfig,
    n_max: int,
) -> list[SupervisionPair]:
    """Keep the top-k graphs per task and lift them to the n_max frame.

    Ties prefer fewer members (cheaper teams), then lexicographic member
    lists, so mining is deterministic.
    """
    pairs: list[SupervisionPair] = []
    # id(graph) -> (a_gt, y): a graph is top-k for several tasks, and the
    # value types are immutable, so its pairs share one lift
    lifted = {}
    for task, entries in scored.items():
        if len(entries) < cfg.top_k:
            raise MineUnderflow(
                f"task {task.task_id}: {len(entries)} scored graphs < top_k={cfg.top_k}"
            )
        ranked = sorted(entries, key=lambda e: (-e[1], len(e[0].members), e[0].members))
        for graph, utility in ranked[: cfg.top_k]:
            labels = lifted.get(id(graph))
            if labels is None:
                labels = lifted[id(graph)] = lift_subgraph(graph.topology, graph.members, n_max)
            pairs.append(
                SupervisionPair(
                    task_id=task.task_id,
                    task_text=task.task_text,
                    category=task.category,
                    a_gt=labels[0],
                    y=labels[1],
                    score=utility,
                )
            )
    return pairs


@dataclass
class CollectStats:
    tasks: int = 0
    graphs_scored: int = 0
    graphs_skipped: int = 0
    pairs: int = 0
    category_histogram: dict = field(default_factory=dict)


def _score_unit(unit, evaluator: Evaluator, stop: threading.Event) -> dict:
    """Score one graph's new (key, graph, task) items in order, until
    `stop` is set.  Each key maps to its utility, or to the message of
    its ScoreUnavailable."""
    outcomes = {}
    for key, graph, task in unit:
        if stop.is_set():
            break
        try:
            outcomes[key] = score_graph(graph, task, evaluator)
        except ScoreUnavailable as exc:
            outcomes[key] = str(exc)
    return outcomes


def collect_supervision(
    tasks: Sequence[TaskSpec],
    pool: AgentPool,
    cfg: CollectorConfig,
    evaluator: Evaluator,
) -> tuple[list[SupervisionPair], CollectStats]:
    """Full Stage I pipeline.

    Each sampled graph is scored against a strided window of tasks, so
    every task sees about ``candidates_per_task`` candidates even when
    the budget is much smaller than the task count; neighboring tasks
    still get largely disjoint candidate sets.  Scores are cached by
    (member set, task id) since duplicate subsets are allowed; a key whose
    scoring failed is scored again at its next occurrence.  Tasks that
    share an id would share scores, so they are a ConfigError.

    Every graph is drawn up front.  Each graph's first occurrences of
    (member set, task) keys form one unit of work, and the units run on
    a pool of at most `MAX_IN_FLIGHT` threads owned by the call.  The
    results are merged on the calling thread in sampling order, so the
    pairs, the stats and the skip warnings equal those of scoring one
    key at a time.  If the merge raises, queued units are cancelled and
    running ones stop before their next scoring.
    """
    if not tasks:
        raise ConfigError("no tasks")
    seen = set()
    for task in tasks:
        if task.task_id in seen:
            raise ConfigError(f"duplicate task id {task.task_id!r}")
        seen.add(task.task_id)
    cfg.validate(pool.n_max)
    rng = np.random.default_rng(cfg.seed)
    graphs = [sample_subset(order, pool, rng) for order in sample_orders(cfg, pool.n_max, rng)]
    n_tasks = len(tasks)
    stride = min(
        n_tasks, max(1, round(cfg.candidates_per_task * n_tasks / cfg.budget))
    )
    gap = max(1, n_tasks // stride)
    entries: list[list[tuple[SampledGraph, float]]] = [[] for _ in tasks]
    cache: dict[tuple[tuple[int, ...], str], float] = {}
    repeats: dict[tuple[tuple[int, ...], str], list] = {}  # later occurrences, in order
    retries = {}  # key -> the future scoring its next occurrence after a failure
    stats = CollectStats(tasks=n_tasks)
    stop = threading.Event()
    executor = ThreadPoolExecutor(max_workers=MAX_IN_FLIGHT)
    try:
        visits = []
        for i, graph in enumerate(graphs):
            # (key, task index) of each target task, in task order
            targets = [
                ((graph.members, tasks[j].task_id), j)
                for j in sorted({(i + s * gap) % n_tasks for s in range(stride)})
            ]
            unit = []
            for key, j in targets:
                later = repeats.get(key)
                if later is None:
                    repeats[key] = []
                    unit.append((key, graph, tasks[j]))
                else:
                    later.append((graph, tasks[j]))
            future = executor.submit(_score_unit, unit, evaluator, stop) if unit else None
            visits.append((graph, targets, future))
        for graph, targets, future in visits:
            fresh = future.result() if future is not None else {}
            for key, j in targets:
                utility = cache.get(key)
                if utility is None:
                    outcome = fresh.pop(key, None)
                    if outcome is None:
                        outcome = retries.pop(key).result()[key]
                    if isinstance(outcome, str):
                        stats.graphs_skipped += 1
                        log.warning("skipping graph %s on task %s: %s", *key, outcome)
                        if repeats[key]:
                            unit = [(key, *repeats[key].pop(0))]
                            retries[key] = executor.submit(_score_unit, unit, evaluator, stop)
                        continue
                    utility = cache[key] = outcome
                entries[j].append((graph, utility))
    finally:
        stop.set()
        executor.shutdown(cancel_futures=True)
    stats.graphs_scored = sum(map(len, entries))
    scored = dict(zip(tasks, entries))
    pairs = mine_supervision(scored, cfg, pool.n_max)
    stats.pairs = len(pairs)
    for p in pairs:
        stats.category_histogram[p.category] = stats.category_histogram.get(p.category, 0) + 1
    return pairs, stats
