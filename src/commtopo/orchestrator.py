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
canonical order, each system prompt and each entry's history JSON once
per run, and every tag is drawn up front, so the transcript --
and, on a backend failure, the error and partial transcript -- equal
those of running the calls one at a time.
"""
from __future__ import annotations

import json
import string
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .backends import MAX_IN_FLIGHT, BackendSet
from .collector import TaskSpec
from .errors import BackendError, ConfigError, DegenerateTopology, RunAborted
from .graphs import CommTopology, Topology, binarize, serialize_topology
from .pool import DECISION_PROFILE, USER_PROMPT_PREFIX, AgentPool, join_user_prompt, render_entry, render_system_prompt
from .pool import render_user_prompt  # noqa: F401 -- benchmarks/workloads.py traces it by this name

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


_PREFIX_TOKENS = count_tokens(USER_PROMPT_PREFIX)


def visible_history(
    history: list[DialogueEntry],
    agent_id: int,
    adj: Topology,
    weights,
) -> list[DialogueEntry]:
    """Entries from in-neighbors, ordered by edge weight desc then arrival."""
    w = np.asarray(getattr(weights, "w", weights), dtype=float)[:, agent_id].tolist()
    linked = adj.adj[:, agent_id].tolist()
    indexed = [
        (idx, e)
        for idx, e in enumerate(history)
        if e.agent_id >= 0 and linked[e.agent_id] >= 1.0
    ]
    indexed.sort(key=lambda pair: (-w[pair[1].agent_id], pair[0]))
    return [e for _, e in indexed]


def _new_tags(rng: np.random.Generator, n: int) -> list[str]:
    """`n` tags of 4 characters, drawn as one array: the same stream as
    4 `rng.choice(list(_TAG_ALPHABET))` calls per tag, so recorded
    transcripts keep their tags."""
    draws = rng.integers(0, len(_TAG_ALPHABET), size=(n, 4))
    return ["".join(_TAG_ALPHABET[c] for c in row) for row in draws]


def _depths(active: list[int], adj: Topology) -> dict[int, int]:
    """Wave index of each agent within a round: 1 + the deepest in-neighbor i < j."""
    rows = adj.adj.tolist()
    depth: dict[int, int] = {}
    for j in active:
        depth[j] = 1 + max((depth[i] for i in active if i < j and rows[i][j] >= 1.0), default=0)
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
    tags = _new_tags(rng, k * m + 1)
    # slot of agent active[pos] in round rnd is (rnd - 1) * m + pos; the decision takes the last
    slots: list[DialogueEntry | None] = [None] * (k * m + 1)
    depth = _depths(active, adj)
    waves = [
        [(pos, j) for pos, j in enumerate(active) if depth[j] == d]
        for d in range(1, max(depth.values()) + 1)
    ]
    profiles = {**{j: pool[j] for j in active}, -1: DECISION_PROFILE}
    # each agent's system prompt and its token count, rendered once per run
    systems = {j: render_system_prompt(p, task.task_text) for j, p in profiles.items()}
    system_tokens = {j: count_tokens(system) for j, system in systems.items()}
    # id of each committed entry -> (its history JSON, that text's token count)
    rendered: dict[int, tuple[str, int]] = {}
    abort_at = len(slots)  # slot of the first failure in canonical order
    failure: tuple[int, int, BackendError] | None = None

    def call(slot: int, agent_id: int, seen: list[DialogueEntry]) -> tuple:
        """(slot, agent, role, system prompt, user prompt, their `count_tokens`).
        The prefix ends in a space and every entry text starts with '{' and
        ends with '}', so joining them adds no token and merges none: the
        user prompt's count is the prefix's plus the entries', or 1 more for "[]"."""
        entries = [rendered[id(e)] for e in seen]
        user = join_user_prompt([text for text, _ in entries])
        tokens = system_tokens[agent_id] + _PREFIX_TOKENS + (sum(n for _, n in entries) or 1)
        return slot, agent_id, profiles[agent_id].role, systems[agent_id], user, tokens

    def call_wave(calls: list[tuple], backend, rnd: int) -> None:
        nonlocal abort_at, failure
        if len(calls) < 2:
            outcomes = [_complete(backend, system, user) for _, _, _, system, user, _ in calls]
        else:
            futures = [executor.submit(_complete, backend, system, user) for _, _, _, system, user, _ in calls]
            outcomes = [f.result() for f in futures]
        for (slot, agent_id, role, _, _, prompt_tokens), outcome in zip(calls, outcomes):
            if isinstance(outcome, BackendError):
                if slot < abort_at:
                    abort_at, failure = slot, (agent_id, rnd, outcome)
                continue
            output, p_tok, c_tok = outcome
            if p_tok is None:
                p_tok = prompt_tokens
            if c_tok is None:
                c_tok = count_tokens(output)
            entry = slots[slot] = DialogueEntry(tags[slot], rnd, agent_id, role, output, p_tok, c_tok)
            text = render_entry(entry.as_history_item())
            rendered[id(entry)] = text, count_tokens(text)

    # a pool starts its threads on the first submit and joins them when the `with` ends
    wide = any(len(wave) >= 2 for wave in waves)
    with ThreadPoolExecutor(max_workers=min(m, MAX_IN_FLIGHT)) if wide else nullcontext() as executor:
        for rnd in range(1, k + 1):
            for wave in waves:
                calls = []
                for pos, agent_id in wave:
                    slot = (rnd - 1) * m + pos
                    if slot >= abort_at:
                        break
                    before = [e for e in slots[:slot] if e is not None]
                    calls.append(call(slot, agent_id, visible_history(before, agent_id, adj, t.weights)))
                call_wave(calls, backends.default, rnd)
            if failure is not None:
                break
        else:
            call_wave([call(k * m, -1, slots[:-1])], backends.decision, k)
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
