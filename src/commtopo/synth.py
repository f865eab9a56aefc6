"""Synthetic planted task suites.

Each task family has a known best 3-agent team; the mock evaluator
scores a sampled team by how close its member set is to that team.  The
suites verify the whole pipeline at desk scale: mining should surface
the planted teams and the trained network should recover them on
held-out task texts.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .backends import BackendSet, EchoBackend, PlantedDecisionBackend
from .collector import Evaluator, SampledGraph, TaskSpec, answer_matches
from .errors import ScoreUnavailable
from .graphs import lift_subgraph
from .orchestrator import run_topology
from .pool import AgentPool

# Family -> (category, planted 3-agent team over the default 15-role pool)
DEFAULT_FAMILIES = {
    "general": ("general_reasoning", (0, 3, 6)),
    "math": ("math_reasoning", (11, 12, 14)),
    "code": ("code_generation", (8, 10, 13)),
}

_WORDBANKS = {
    "general": (
        "society culture governance policy ethics history tradition civic "
        "public debate institutions heritage law commerce trade markets"
    ).split(),
    "math": (
        "integral derivative equation algebra arithmetic fraction prime "
        "polynomial geometry theorem proof sum ratio remainder quotient"
    ).split(),
    "code": (
        "function python implement string list loop compile refactor "
        "unittest bug stacktrace module parser iterator recursion lambda"
    ).split(),
}

# Long fixed preambles keep the family signal dominant in the hashed
# query embedding; the per-task words below only perturb it.
_LEADS = {
    "general": (
        "Open reasoning question about society and public institutions, "
        "weighing evidence and tradition, concerning"
    ),
    "math": (
        "Mathematics word problem requiring careful calculation and a "
        "rigorous numeric argument, concerning"
    ),
    "code": (
        "Programming exercise asking for working source code and a "
        "passing test suite, concerning"
    ),
}


@dataclass(frozen=True)
class PlantedSuite:
    train_tasks: tuple[TaskSpec, ...]
    heldout_tasks: tuple[TaskSpec, ...]
    teams: dict  # family name -> member tuple


def _make_task(family: str, index: int, rng: np.random.Generator) -> TaskSpec:
    category, team = DEFAULT_FAMILIES[family]
    bank = _WORDBANKS[family]
    words = " ".join(rng.choice(bank, size=2, replace=False))
    text = f"{_LEADS[family]} {words} ({family}-{index:03d})."
    return TaskSpec(
        task_id=f"{family}-{index:03d}",
        task_text=text,
        category=category,
        expected_answer=f"answer-{family}-{index:03d}",
        check="exact",
        planted_team=team,
    )


def make_planted_suite(
    tasks_per_family: int = 200,
    heldout_per_family: int = 10,
    seed: int = 0,
) -> PlantedSuite:
    rng = np.random.default_rng(seed)
    train, heldout = [], []
    for family in DEFAULT_FAMILIES:
        for i in range(tasks_per_family):
            train.append(_make_task(family, i, rng))
        for i in range(tasks_per_family, tasks_per_family + heldout_per_family):
            heldout.append(_make_task(family, i, rng))
    teams = {name: spec[1] for name, spec in DEFAULT_FAMILIES.items()}
    return PlantedSuite(tuple(train), tuple(heldout), teams)


def planted_utility(members, team, mode: str = "overlap") -> float:
    """Score a member set against the planted team.

    overlap: 1 for any superset of the team, else overlap fraction;
    jaccard: intersection over union, maximized only by the exact team.
    """
    members = set(int(v) for v in members)
    team = set(int(v) for v in team)
    inter = len(members & team)
    if mode == "overlap":
        return 1.0 if team <= members else inter / len(team)
    if mode == "jaccard":
        return inter / len(members | team)
    raise ValueError(f"unknown planted utility mode {mode!r}")


def make_planted_evaluator(mode: str = "jaccard") -> Evaluator:
    def evaluator(g: SampledGraph, task: TaskSpec) -> float:
        if task.planted_team is None:
            raise ScoreUnavailable(f"task {task.task_id} carries no planted team")
        return planted_utility(g.members, task.planted_team, mode)

    return evaluator


def make_orchestrator_evaluator(
    pool: AgentPool, backends: BackendSet, k: int = 3, theta: float = 0.5
) -> Evaluator:
    """Score a sampled graph by actually running it on the task."""

    def evaluator(g: SampledGraph, task: TaskSpec) -> float:
        weights, mask = lift_subgraph(g.topology, g.members, pool.n_max)
        from .graphs import induce

        topo = induce(weights, mask)
        key = ",".join(map(str, g.members)) + "|" + task.task_id
        rng = np.random.default_rng(zlib.crc32(key.encode()))
        result = run_topology(topo, task, pool, backends, k=k, theta=theta, rng=rng)
        return 1.0 if answer_matches(task, result.answer) else 0.0

    return evaluator


def planted_backends(tasks, pool: AgentPool) -> BackendSet:
    """Deterministic echo agents plus the planted decision mock."""
    return BackendSet(default=EchoBackend(), decision=PlantedDecisionBackend(tasks, pool))

