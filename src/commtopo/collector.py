"""Stage I: sample complete subgraphs, score them per task, mine the
top-k per task, and emit lifted supervision pairs."""
from __future__ import annotations

import functools
import json
import logging
import math
import re
import threading
from array import array
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .backends import MAX_IN_FLIGHT
from .errors import (
    ConfigError,
    InvalidOrder,
    MineUnderflow,
    ScoreUnavailable,
    check_types,
    check_within,
    reading,
    within,
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

    @classmethod
    def from_json_line(cls, line: str) -> "TaskSpec":
        with reading("bad task line"):
            obj = json.loads(line)
            check_types(
                obj, task_id=str, task_text=str, category=str, expected_answer=str, check=str,
                planted_team=[int],
            )
            return cls(
                task_id=obj["task_id"],
                task_text=obj["task_text"],
                category=obj["category"],
                expected_answer=obj.get("expected_answer", ""),
                check=obj.get("check", "exact"),
                planted_team=tuple(obj["planted_team"]) if "planted_team" in obj else None,
            )


def read_tasks(text: str) -> list[TaskSpec]:
    return [TaskSpec.from_json_line(ln) for ln in text.splitlines() if ln.strip()]


# a decimal literal; float() also takes inf, nan and digits joined by underscores
_DECIMAL = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")


def answer_matches(task: TaskSpec, answer: str) -> bool:
    """Apply the task's answer-match rule."""
    expected = task.expected_answer.strip()
    got = answer.strip()
    if task.check == "exact":
        return got == expected
    if task.check == "contains":
        return expected in got
    # numeric: compare the last finite decimal number in the answer at small tolerance; a
    # comma between a digit and exactly three digits groups thousands, any other separates
    def last_number(s: str) -> float | None:
        toks = re.sub(r"(?<=\d),(?=\d{3}(?!\d))", "", s).replace(",", " ").split()
        nums = [float(t) for t in (tok.rstrip(".:;") for tok in toks) if _DECIMAL.fullmatch(t)]
        return next((v for v in reversed(nums) if math.isfinite(v)), None)

    want, have = last_number(expected), last_number(got)
    if want is None or have is None:
        return False
    return math.isclose(want, have, rel_tol=1e-6, abs_tol=1e-6)


@dataclass
class CollectorConfig:
    budget: int = within(2000, "[1, 100000]")  # every graph is sampled and held up front
    sigma: float = within(2.0, "(0, inf)")
    mu: float | None = within(None, "[2, inf)")  # None: n_max / 2; resolved_mu caps it at n_max
    top_k: int = within(2, "[1, inf)")
    candidates_per_task: int = within(20, "[1, inf)")
    seed: int = 0

    def resolved_mu(self, n_max: int) -> float:
        mu = self.mu if self.mu is not None else n_max / 2
        if not 2 <= mu <= n_max:
            raise ConfigError(f"mu={mu} outside [2, {n_max}]")
        return mu

    # sample_orders rejection-samples the whole Gaussian, so it needs about
    # 1 / mass draws per order, where mass is the chance that one draw lies in [2, n_max]
    MIN_ACCEPTED_MASS = 1e-3

    def validate(self, n_max: int) -> None:
        check_within(self)
        # the mass, computed with the standard library's erfc
        mu, scale = self.resolved_mu(n_max), self.sigma * math.sqrt(2)
        mass = 0.5 * math.erfc((mu - n_max) / scale) - 0.5 * math.erfc((mu - 2) / scale)
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


@functools.cache
def _complete(order: int) -> Topology:
    """The complete topology on ``order`` nodes; frozen, so every graph of that order shares it."""
    return Topology.complete(order)


def sample_subset(order: int, pool: AgentPool, rng: np.random.Generator) -> SampledGraph:
    """Uniform size-``order`` agent subset, ascending ids, complete topology."""
    if not 2 <= order <= pool.n_max:
        raise InvalidOrder(f"order {order} outside [2, {pool.n_max}]")
    members = np.sort(rng.choice(pool.n_max, size=order, replace=False))
    return SampledGraph(tuple(int(v) for v in members), _complete(order))


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


MAX_OCCURRENCES = 1_000_000
"""The most (graph, target task) key occurrences, budget × stride, that a
collect may hold: ten times the largest budget.  A collect of 200,000
occurrences traces about 165 bytes per occurrence at its peak, most of
them pass 1's key -> id dict; a collect at the cap peaked at about
190 MB of RSS on the planted evaluator."""

UNITS = 4 * MAX_IN_FLIGHT
"""A collect cuts its key ids into ranges of ``len(keys) // UNITS`` (at
least 1) and submits them longest first: four units per worker keep the
workers evenly busy, and a collect of many cheap scorings pays the
hand-off to a worker about `UNITS` times, not once per key."""


@dataclass(frozen=True)
class _Keys:
    """A collect's distinct (member set, task) keys, numbered in order of
    first occurrence, as flat columns: the index of the key's first graph,
    of its task and its occurrence count.  The workers write each key's
    utility into `utility`."""

    graphs: Sequence[SampledGraph]
    tasks: Sequence[TaskSpec]
    graph: array
    task: array
    count: array
    utility: array


def _number_keys(graphs: Sequence[SampledGraph], tasks: Sequence[TaskSpec], stride: int) -> tuple[_Keys, array]:
    """Pass 1: the keys of every graph's target tasks, and the key id of
    each occurrence in sampling order, `stride` per graph: graph i
    targets tasks ``(i + s * gap) % len(tasks)`` for s < stride, in task
    order, and the offsets s * gap are below ``len(tasks)``, so they are
    distinct."""
    gap = max(1, len(tasks) // stride)
    graph, task, count, occurrences = array("q"), array("q"), array("q"), array("q")
    member_sets: dict = {}
    ids: dict = {}  # member set id * len(tasks) + task index -> key id; ints cost less than tuples
    for i, g in enumerate(graphs):
        base = member_sets.setdefault(g.members, len(member_sets)) * len(tasks)
        for j in sorted({(i + s * gap) % len(tasks) for s in range(stride)}):
            k = ids.setdefault(base + j, len(ids))
            if k == len(count):
                graph.append(i)
                task.append(j)
                count.append(0)
            count[k] += 1
            occurrences.append(k)
    return _Keys(graphs, tasks, graph, task, count, array("d", [math.nan]) * len(count)), occurrences


def _longest_first(units: list[range], keys: _Keys) -> list[range]:
    """The units in descending order of their graphs' summed member counts,
    ties in sampling order.  An orchestrator scoring of an m-member graph
    is a chain of k·m + 1 backend calls, so the longest chains start first
    and the pass does not end on one drawn late (Graham's LPT rule)."""
    return sorted(units, key=lambda unit: sum(len(keys.graphs[keys.graph[k]].members) for k in unit), reverse=True)


def _score_unit(unit: range, keys: _Keys, evaluator: Evaluator, stop: threading.Event) -> dict:
    """Score the unit's keys in order, until `stop` is set.  A key is
    scored up to once per occurrence, until a utility comes back, which
    goes into ``keys.utility``; returns the messages of the
    ScoreUnavailable failures of each key that failed."""
    failed: dict[int, list[str]] = {}
    for k in unit:
        graph, task = keys.graphs[keys.graph[k]], keys.tasks[keys.task[k]]
        for _ in range(keys.count[k]):
            if stop.is_set():
                break
            try:
                keys.utility[k] = score_graph(graph, task, evaluator)
                break
            except ScoreUnavailable as exc:
                failed.setdefault(k, []).append(str(exc))
    return failed


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
    still get largely disjoint candidate sets.  Scores are shared by
    (member set, task id) since duplicate subsets are allowed; a key whose
    scoring failed is scored again for its next occurrence.  Tasks that
    share an id would share scores, so they are a ConfigError.

    Every graph is drawn up front, then the sample is passed over twice.
    Pass 1 numbers each key at its first occurrence, in sampling order,
    and keeps flat integer columns (stdlib ``array``): each occurrence's
    key id, and each key's first graph, task and occurrence count; the
    key -> id dict goes before scoring starts.  The key ids are cut
    into ranges of ``len(keys) // UNITS`` (at least one), submitted
    longest first, by their graphs' summed member counts (ties in
    sampling order).  A unit scores each key up to once per occurrence,
    until a utility comes back, and writes it into one float column; the
    failure messages of the keys that failed come back in one dict.  The
    units run on a pool of at most `MAX_IN_FLIGHT` threads owned by the
    call.  Once every unit is in, pass 2 walks the occurrences' key ids
    on the calling thread in sampling order: each failed scoring skips
    one occurrence, so the pairs, the stats and the skip warnings equal
    those of scoring one key at a time, whatever order the units ran in.
    If a unit raises, queued units are cancelled and running ones stop
    before their next scoring.  A collect of more than `MAX_OCCURRENCES`
    occurrences is a ConfigError, raised before any graph is drawn.
    """
    if not tasks:
        raise ConfigError("no tasks")
    seen = set()
    for task in tasks:
        if task.task_id in seen:
            raise ConfigError(f"duplicate task id {task.task_id!r}")
        seen.add(task.task_id)
    cfg.validate(pool.n_max)  # the stride divides by the budget
    n_tasks = len(tasks)
    stride = min(
        n_tasks, max(1, round(cfg.candidates_per_task * n_tasks / cfg.budget))
    )
    if cfg.budget * stride > MAX_OCCURRENCES:
        raise ConfigError(
            f"budget {cfg.budget} graphs x {stride} target tasks each = {cfg.budget * stride} "
            f"(graph, task) pairs, more than {MAX_OCCURRENCES}; lower budget or candidates_per_task"
        )
    rng = np.random.default_rng(cfg.seed)
    graphs = [sample_subset(order, pool, rng) for order in sample_orders(cfg, pool.n_max, rng)]

    keys, occurrences = _number_keys(graphs, tasks, stride)
    ids, size = range(len(keys.count)), max(1, len(keys.count) // UNITS)
    units = _longest_first([ids[a : a + size] for a in ids[::size]], keys)
    stop = threading.Event()
    executor = ThreadPoolExecutor(max_workers=MAX_IN_FLIGHT)
    try:
        futures = [executor.submit(_score_unit, unit, keys, evaluator, stop) for unit in units]
        failed = {k: tried for future in futures for k, tried in future.result().items()}
    finally:
        stop.set()
        executor.shutdown(cancel_futures=True)
    # pass 2: merge in sampling order; each failed scoring skips one occurrence
    entries: list[list[tuple[SampledGraph, float]]] = [[] for _ in tasks]
    stats = CollectStats(tasks=n_tasks)
    for p, k in enumerate(occurrences):
        graph, j, tried = graphs[p // stride], keys.task[k], failed.get(k)
        if tried:
            stats.graphs_skipped += 1
            log.warning("skipping graph %s on task %s: %s", graph.members, tasks[j].task_id, tried.pop(0))
        else:
            entries[j].append((graph, keys.utility[k]))
    stats.graphs_scored = sum(map(len, entries))
    scored = dict(zip(tasks, entries))
    pairs = mine_supervision(scored, cfg, pool.n_max)
    stats.pairs = len(pairs)
    for p in pairs:
        stats.category_histogram[p.category] = stats.category_histogram.get(p.category, 0) + 1
    return pairs, stats
