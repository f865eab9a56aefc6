"""Execute a communication topology: K rounds of message passing among
active agents over thresholded edges, then a decision agent that reads
the whole transcript and emits the final answer.

Within a round agents run in ascending id order; an agent sees entries
authored by its in-neighbors (from prior rounds and earlier in the
current round), ordered by incoming edge weight, then arrival.  Agents
never see their own prior outputs.
"""
from __future__ import annotations

import json
import string
from dataclasses import dataclass

import numpy as np

from .backends import BackendSet
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
    transcript: list[DialogueEntry] = []

    def record(agent_id: int, role: str, rnd: int, system: str, user: str, backend) -> DialogueEntry:
        try:
            output, p_tok, c_tok = backend.complete(system, user)
        except BackendError as exc:
            raise RunAborted(
                f"run aborted: agent {agent_id} failed in round {rnd}: {exc}", transcript
            ) from exc
        if p_tok is None:
            p_tok = count_tokens(system) + count_tokens(user)
        if c_tok is None:
            c_tok = count_tokens(output)
        entry = DialogueEntry(_new_tag(rng), rnd, agent_id, role, output, p_tok, c_tok)
        transcript.append(entry)
        return entry

    for rnd in range(1, k + 1):
        for agent_id in active:
            profile = pool[agent_id]
            seen = visible_history(transcript, agent_id, adj, t.weights)
            system = render_system_prompt(profile, task.task_text)
            user = render_user_prompt([e.as_history_item() for e in seen])
            record(agent_id, profile.role, rnd, system, user, backends.for_agent(agent_id))

    system = render_system_prompt(DECISION_PROFILE, task.task_text)
    user = render_user_prompt([e.as_history_item() for e in transcript])
    decision_entry = record(-1, DECISION_PROFILE.role, k, system, user, backends.decision)

    per_agent: dict[int, int] = {}
    for e in transcript:
        if e.agent_id >= 0:
            per_agent[e.agent_id] = per_agent.get(e.agent_id, 0) + e.tokens()
    total = sum(per_agent.values()) + decision_entry.tokens()
    return RunResult(
        answer=decision_entry.output,
        transcript=tuple(transcript),
        total_tokens=total,
        per_agent_tokens=per_agent,
        topology_used=t,
    )
