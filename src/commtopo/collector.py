"""Stage I: sample complete subgraphs, score them per task, mine the
top-k per task, and emit lifted supervision pairs."""
from __future__ import annotations

import functools
import itertools
import json
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
    MineUnderflow,
    ScoreUnavailable,
    ValidationError,
    check_types,
    check_within,
    reading,
    within,
)
from .graphs import CATEGORIES, SupervisionPair, Topology, lift_subgraph
from .pool import AgentPool


@dataclass(frozen=True)
class SampledGraph:
    """A complete subgraph K_i on a sorted member set."""

    members: tuple[int, ...]
    topology: Topology

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(int(v) for v in self.members))
        if list(self.members) != sorted(set(self.members)):
            raise ValidationError("members must be strictly ascending")


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
        raise ValidationError(f"order {order} outside [2, {pool.n_max}]")
    members = np.sort(rng.choice(pool.n_max, size=order, replace=False))
    return SampledGraph(tuple(int(v) for v in members), _complete(order))


Evaluator = Callable[[SampledGraph, TaskSpec], float]
"""Utility of a sampled graph on a task.  `collect_supervision` calls it
once per distinct (member set, task) key, from several threads at once,
and lets the utility, or the skip of a failure, stand for every
occurrence of the key.
Its corpus is deterministic only if the result, a failure included,
depends on nothing but (graph, task)."""


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


def _rank(entry: tuple[SampledGraph, float]) -> tuple:
    """Mining's sort key: higher utility first; ties prefer fewer members
    (cheaper teams), then lexicographic member lists, and a stable sort
    keeps the rest in sampling order, so mining is deterministic."""
    return -entry[1], len(entry[0].members), entry[0].members


def mine_supervision(
    scored: Mapping[TaskSpec, Sequence[tuple[SampledGraph, float]]],
    cfg: CollectorConfig,
    n_max: int,
    first_skip: str = "",
) -> list[SupervisionPair]:
    """Keep the top-k graphs per task, by `_rank`, and lift them to the
    n_max frame.  `MineUnderflow` ends with `first_skip`, the first graph
    the collect skipped, if any, as the likely reason."""
    pairs: list[SupervisionPair] = []
    # id(graph) -> (a_gt, y): a graph is top-k for several tasks, and the
    # value types are immutable, so its pairs share one lift
    lifted = {}
    for task, entries in scored.items():
        if len(entries) < cfg.top_k:
            raise MineUnderflow(
                f"task {task.task_id}: {len(entries)} scored graphs < top_k={cfg.top_k}"
                + (f"; first skip: {first_skip}" if first_skip else "")
            )
        ranked = sorted(entries, key=_rank)
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
    first_skip: str = ""  # the first skipped graph in sampling order, its task and why
    pairs: int = 0
    category_histogram: dict = field(default_factory=dict)


MAX_OCCURRENCES = 1_000_000
"""The most (graph, target task) occurrences, budget × stride, that a
collect may hold: ten times the largest budget.  Each holds a 4-byte
task id, the 4-byte id of its key's first occurrence and an 8-byte
utility; at the cap, a planted collect on 600 tasks peaked at 59 MB of
RSS at budget 5,000, 80 MB at budget 100,000."""

UNITS = 4 * MAX_IN_FLIGHT
"""A collect cuts the first occurrences of its keys into runs of
``keys // UNITS`` (at least 1) and submits them longest first: four
units per worker keep the workers evenly busy, and a collect of many
cheap scorings pays the hand-off to a worker about `UNITS` times, not
once per key."""


def _targets(n_graphs: int, n_tasks: int, stride: int) -> array:
    """Pass 1: the target task id of each occurrence, in sampling order,
    `stride` per graph: graph i targets tasks ``(i + s * gap) % n_tasks``
    for s < stride, in task order, and the offsets s * gap are below
    ``n_tasks``, so they are distinct."""
    gap = max(1, n_tasks // stride)
    target = array("i")
    for i in range(n_graphs):
        target.extend(sorted((i + s * gap) % n_tasks for s in range(stride)))
    return target


def _first_occurrences(graphs: Sequence[SampledGraph], target: array, stride: int) -> array:
    """Pass 1: for each occurrence, the first occurrence in sampling order
    of its (member set, task) key.  A stable sort of the graph ids by
    member set puts the graphs of each member set together, in sampling
    order, and only a set drawn more than once can repeat a key, so only
    its occurrences go through a task -> first occurrence dict, one per
    set and dropped after it."""
    first = array("i", range(len(target)))
    by_set = sorted(range(len(graphs)), key=lambda i: graphs[i].members)
    for _, drawn in itertools.groupby(by_set, key=lambda i: graphs[i].members):
        drawn = list(drawn)
        if len(drawn) == 1:
            continue
        seen: dict[int, int] = {}
        for i in drawn:
            for p in range(i * stride, (i + 1) * stride):
                first[p] = seen.setdefault(target[p], p)
    return first


def _longest_first(units: list[array], graphs: Sequence[SampledGraph], stride: int) -> list[array]:
    """The units in descending order of their graphs' summed member counts,
    ties in sampling order.  An orchestrator scoring of an m-member graph
    is a chain of k·m + 1 backend calls, so the longest chains start first
    and the pass does not end on one drawn late (Graham's LPT rule)."""
    return sorted(units, key=lambda unit: sum(len(graphs[p // stride].members) for p in unit), reverse=True)


def _score_unit(unit: array, graphs: Sequence[SampledGraph], tasks: Sequence[TaskSpec], stride: int, target: array,
                utility: array, evaluator: Evaluator, stop: threading.Event) -> tuple[int, str] | None:
    """Score the unit's occurrences, each the first of its key, in
    ascending order, until `stop` is set: occurrence p is graph
    ``p // stride`` on task ``target[p]``, and its utility goes into
    ``utility[p]``, which stays NaN if the scoring fails.  Returns the
    first failed occurrence and ``graph <members> on task <id>: <why>``,
    or None."""
    first_failure = None
    for p in unit:
        if stop.is_set():
            break
        graph, task = graphs[p // stride], tasks[target[p]]
        try:
            utility[p] = score_graph(graph, task, evaluator)
        except ScoreUnavailable as exc:
            first_failure = first_failure or (p, f"graph {graph.members} on task {task.task_id}: {exc}")
    return first_failure


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
    still get largely disjoint candidate sets.  Duplicate subsets are
    allowed, so a (member set, task id) key may occur more than once; it
    is scored once, at its first occurrence, and its utility or skip
    stands for every occurrence.  A failure is not retried: the HTTP
    transport has already retried what can heal (see `backends`).  Tasks
    that share an id would share scores, so they are a ConfigError.

    Every graph is drawn up front, then the sample is passed over twice.
    Pass 1 keeps each occurrence's target task id in one flat 4-byte
    integer column (stdlib ``array``), in sampling order: occurrence p
    is graph ``p // stride`` on its ``(p % stride)``-th target task.  A
    second column holds the first occurrence of each occurrence's key.
    The first occurrences are cut into runs of ``keys // UNITS`` (at
    least one), submitted longest first, by their graphs' summed member
    counts (ties in sampling order).  A unit scores its keys one at a
    time and writes each utility into one float column, at the key's
    first occurrence; a failed key stays NaN there, and each unit
    returns only its first failure.  The units run on a pool of at most
    `MAX_IN_FLIGHT` threads owned by the call.  Once every unit is in,
    the smallest of those failures is the first skip in sampling order,
    ``CollectStats.first_skip``, and pass 2 walks the occurrences on the
    calling thread in sampling order, skipping each occurrence of a
    failed key, so the pairs and the stats equal those of scoring one
    key at a time, whatever order the units ran in.  Nothing is logged:
    a `MineUnderflow` names the first skip.  Pass 2 keeps a running top-k per
    task: once a task holds more than 2 · ``top_k`` scored graphs, a
    stable sort by `_rank` cuts them to ``top_k``, which keeps every
    graph mining would pick, and a task with fewer than ``top_k`` keeps
    them all, so `MineUnderflow` counts them.  The columns are released
    before mining.  If a unit raises, queued units are cancelled and
    running ones stop before their next scoring.  A collect of more than
    `MAX_OCCURRENCES` occurrences is a ConfigError, raised before any
    graph is drawn.
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
    stride = min(n_tasks, max(1, round(cfg.candidates_per_task * n_tasks / cfg.budget)))
    if cfg.budget * stride > MAX_OCCURRENCES:
        raise ConfigError(
            f"budget {cfg.budget} graphs x {stride} target tasks each = {cfg.budget * stride} "
            f"(graph, task) pairs, more than {MAX_OCCURRENCES}; lower budget or candidates_per_task"
        )
    rng = np.random.default_rng(cfg.seed)
    graphs = [sample_subset(order, pool, rng) for order in sample_orders(cfg, pool.n_max, rng)]

    target = _targets(len(graphs), n_tasks, stride)
    first = _first_occurrences(graphs, target, stride)
    keys = array("i", (p for p, q in enumerate(first) if p == q))
    size = max(1, len(keys) // UNITS)
    units = _longest_first([keys[a : a + size] for a in range(0, len(keys), size)], graphs, stride)
    del keys
    utility = array("d", [math.nan]) * len(target)
    stop = threading.Event()
    executor = ThreadPoolExecutor(max_workers=MAX_IN_FLIGHT)
    try:
        futures = [executor.submit(_score_unit, unit, graphs, tasks, stride, target, utility, evaluator, stop)
                   for unit in units]
        first_skip = min(filter(None, [future.result() for future in futures]), default=(0, ""))[1]
    finally:
        stop.set()
        executor.shutdown(cancel_futures=True)
    # pass 2: merge in sampling order; a failed key, still NaN, skips each of its occurrences
    kept: list[list[tuple[SampledGraph, float]]] = [[] for _ in tasks]
    stats = CollectStats(tasks=n_tasks, first_skip=first_skip)
    for p, (j, q) in enumerate(zip(target, first)):
        if math.isnan(utility[q]):
            stats.graphs_skipped += 1
            continue
        stats.graphs_scored += 1
        kept[j].append((graphs[p // stride], utility[q]))
        if len(kept[j]) > 2 * cfg.top_k:
            # a stable sort keeps equal ranks in sampling order, as mining's does
            kept[j].sort(key=_rank)
            del kept[j][cfg.top_k :]
    del target, first, utility
    pairs = mine_supervision(dict(zip(tasks, kept)), cfg, pool.n_max, first_skip)
    stats.pairs = len(pairs)
    for p in pairs:
        stats.category_histogram[p.category] = stats.category_histogram.get(p.category, 0) + 1
    return pairs, stats
