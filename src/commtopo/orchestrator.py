"""Execute a communication topology: K rounds of message passing among
active agents over thresholded edges, then a decision agent that reads
the whole transcript and emits the final answer.

The canonical order of a run is (round, ascending agent id), then the
decision.  An agent sees entries authored by its in-neighbors (from
prior rounds and from lower ids in the current round), ordered by
incoming edge weight, then arrival.  Agents never see their own prior
outputs.

Calls that do not depend on each other run at the same time.  Within a
round, an agent's depth is one more than the deepest of its
in-neighbors with a lower id; the agents of one depth form a wave and
are called together, after the previous wave and round have finished.
Prompts are rendered and entries committed on the calling thread in
canonical order, and every tag is drawn up front, so the transcript --
and, on a backend failure, the error and partial transcript -- equal
those of running the calls one at a time.
"""
from __future__ import annotations

import json
import string
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .backends import MAX_IN_FLIGHT, BackendSet
from .collector import TaskSpec
from .errors import BackendError, ConfigError, DegenerateTopology, RunAborted
from .graphs import CommTopology, Topology, binarize, serialize_topology
from .pool import AgentPool, AgentProfile, render_system_prompt, render_user_prompt

DECISION_PROFILE = AgentProfile(
    id=-1,
    role="Decision Maker",
    expertise="Aggregate the dialogue history and produce the final solution",
)

_TAG_ALPHABET = string.ascii_uppercase + string.digits


@dataclass(frozen=True)
class DialogueEntry:
    entry_id: str
    round: int
    agent_id: int
    role: str
    output: str
    prompt_tokens: int
    completion_tokens: int

    def tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens

    def as_history_item(self) -> dict:
        return {"id": self.entry_id, "role": self.role, "output": self.output}


@dataclass(frozen=True)
class RunResult:
    answer: str
    transcript: tuple[DialogueEntry, ...]
    total_tokens: int
    per_agent_tokens: dict[int, int]
    topology_used: CommTopology

    def to_json(self) -> str:
        return json.dumps(
            {
                "answer": self.answer,
                "total_tokens": self.total_tokens,
                "per_agent_tokens": {str(k): v for k, v in sorted(self.per_agent_tokens.items())},
                "transcript": [
                    {
                        "id": e.entry_id,
                        "round": e.round,
                        "agent_id": e.agent_id,
                        "role": e.role,
                        "output": e.output,
                        "prompt_tokens": e.prompt_tokens,
                        "completion_tokens": e.completion_tokens,
                    }
                    for e in self.transcript
                ],
                "topology": json.loads(serialize_topology(self.topology_used).decode()),
            },
            sort_keys=True,
        )


def count_tokens(text: str) -> int:
    """Whitespace fallback used when a backend reports no usage."""
    return len(text.split())


def visible_history(
    history: list[DialogueEntry],
    agent_id: int,
    adj: Topology,
    weights,
) -> list[DialogueEntry]:
    """Entries from in-neighbors, ordered by edge weight desc then arrival."""
    w = np.asarray(getattr(weights, "w", weights), dtype=float)
    indexed = [
        (idx, e)
        for idx, e in enumerate(history)
        if e.agent_id >= 0 and adj.adj[e.agent_id, agent_id] >= 1.0
    ]
    indexed.sort(key=lambda pair: (-w[pair[1].agent_id, agent_id], pair[0]))
    return [e for _, e in indexed]


def _new_tag(rng: np.random.Generator) -> str:
    return "".join(rng.choice(list(_TAG_ALPHABET)) for _ in range(4))


def _depths(active: list[int], adj: Topology) -> dict[int, int]:
    """Wave index of each agent within a round: 1 + the deepest in-neighbor i < j."""
    depth: dict[int, int] = {}
    for j in active:
        depth[j] = 1 + max((depth[i] for i in active if i < j and adj.adj[i, j] >= 1.0), default=0)
    return depth


def _complete(backend, system: str, user: str):
    """One call; a `BackendError` is returned, not raised, so the caller
    can pick the first failure in canonical order."""
    try:
        return backend.complete(system, user)
    except BackendError as exc:
        return exc


def run_topology(
    t: CommTopology,
    task: TaskSpec,
    pool: AgentPool,
    backends: BackendSet,
    k: int = 3,
    theta: float = 0.5,
    rng: np.random.Generator | None = None,
) -> RunResult:
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    active = t.mask.active_ids()
    if len(active) < 2:
        raise DegenerateTopology("run needs at least 2 active agents")
    rng = rng if rng is not None else np.random.default_rng(0)
    adj = binarize(t.weights, theta)
    m = len(active)
    tags = [_new_tag(rng) for _ in range(k * m + 1)]
    # slot of agent active[pos] in round rnd is (rnd - 1) * m + pos; the decision takes the last
    slots: list[DialogueEntry | None] = [None] * (k * m + 1)
    depth = _depths(active, adj)
    waves = [
        [(pos, j) for pos, j in enumerate(active) if depth[j] == d]
        for d in range(1, max(depth.values()) + 1)
    ]
    abort_at = len(slots)  # slot of the first failure in canonical order
    failure: tuple[int, int, BackendError] | None = None
    executor: ThreadPoolExecutor | None = None

    def call_wave(calls: list[tuple], backend, rnd: int) -> None:
        nonlocal abort_at, failure, executor
        if len(calls) < 2:
            outcomes = [_complete(backend, system, user) for _, _, _, system, user in calls]
        else:
            if executor is None:
                executor = ThreadPoolExecutor(max_workers=min(m, MAX_IN_FLIGHT))
            futures = [executor.submit(_complete, backend, system, user) for _, _, _, system, user in calls]
            outcomes = [f.result() for f in futures]
        for (slot, agent_id, role, system, user), outcome in zip(calls, outcomes):
            if isinstance(outcome, BackendError):
                if slot < abort_at:
                    abort_at, failure = slot, (agent_id, rnd, outcome)
                continue
            output, p_tok, c_tok = outcome
            if p_tok is None:
                p_tok = count_tokens(system) + count_tokens(user)
            if c_tok is None:
                c_tok = count_tokens(output)
            slots[slot] = DialogueEntry(tags[slot], rnd, agent_id, role, output, p_tok, c_tok)

    try:
        for rnd in range(1, k + 1):
            for wave in waves:
                calls = []
                for pos, agent_id in wave:
                    slot = (rnd - 1) * m + pos
                    if slot >= abort_at:
                        break
                    profile = pool[agent_id]
                    before = [e for e in slots[:slot] if e is not None]
                    seen = visible_history(before, agent_id, adj, t.weights)
                    system = render_system_prompt(profile, task.task_text)
                    user = render_user_prompt([e.as_history_item() for e in seen])
                    calls.append((slot, agent_id, profile.role, system, user))
                call_wave(calls, backends.default, rnd)
            if failure is not None:
                break
        else:
            system = render_system_prompt(DECISION_PROFILE, task.task_text)
            user = render_user_prompt([e.as_history_item() for e in slots[:-1]])
            call_wave([(k * m, -1, DECISION_PROFILE.role, system, user)], backends.decision, k)
    finally:
        if executor is not None:
            executor.shutdown()
    if failure is not None:
        agent_id, rnd, exc = failure
        raise RunAborted(
            f"run aborted: agent {agent_id} failed in round {rnd}: {exc}", slots[:abort_at]
        ) from exc

    transcript = tuple(slots)
    decision_entry = transcript[-1]
    per_agent: dict[int, int] = {}
    for e in transcript[:-1]:
        per_agent[e.agent_id] = per_agent.get(e.agent_id, 0) + e.tokens()
    total = sum(per_agent.values()) + decision_entry.tokens()
    return RunResult(
        answer=decision_entry.output,
        transcript=transcript,
        total_tokens=total,
        per_agent_tokens=per_agent,
        topology_used=t,
    )
