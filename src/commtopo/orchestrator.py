"""Execute a communication topology: K rounds of message passing among
active agents over thresholded edges, then a decision agent that reads
the whole transcript and emits the final answer.

The canonical order of a run is (round, ascending agent id), then the
decision.  An agent sees entries authored by its in-neighbors (from
prior rounds and from lower ids in the current round), ordered by
incoming edge weight, then arrival.  Agents never see their own prior
outputs.

Calls that do not depend on each other run at the same time.  Each
round's active ids are cut, in order, into waves: a new wave starts
before any agent with an in-neighbor in the current one.  A wave's
agents are called together, after the previous wave has finished, and
the decision is the last wave.  Each run opens one thread pool of
`MAX_IN_FLIGHT - 1` workers: a wave's first call runs on the calling
thread and the others on the pool, so a run keeps at most
`MAX_IN_FLIGHT` calls in flight, and a wave of one agent starts no
thread.  Prompts are rendered and entries committed on the calling
thread in canonical order, each system prompt and each entry's history
JSON once per run, and every tag is drawn up front.  The first failure
in canonical order aborts the run at once, so the transcript -- and, on
a backend failure, the error and partial transcript -- equal those of
running the calls one at a time.
"""
from __future__ import annotations

import json
import string
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .backends import MAX_IN_FLIGHT, BackendSet
from .collector import TaskSpec
from .errors import BackendError, ConfigError, RunAborted, ValidationError
from .graphs import CommTopology, Topology, WeightMatrix, binarize, topology_dict
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

    def as_record(self) -> dict:
        """The entry as a transcript file holds it, whole or cut short by an abort."""
        return {
            "id": self.entry_id,
            "round": self.round,
            "agent_id": self.agent_id,
            "role": self.role,
            "output": self.output,
            "prompt_tokens": self.prompt_tokens,
            "completion_tokens": self.completion_tokens,
        }


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
                "transcript": [e.as_record() for e in self.transcript],
                "topology": topology_dict(self.topology_used),
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
    weights: WeightMatrix,
) -> list[DialogueEntry]:
    """Entries from in-neighbors, ordered by edge weight desc then arrival."""
    w = weights.w[:, agent_id].tolist()
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
    draws = rng.integers(0, len(_TAG_ALPHABET), size=(n, 4)).tolist()  # Python ints index faster
    return ["".join(_TAG_ALPHABET[c] for c in row) for row in draws]


def _waves(active: list[int], adj: Topology) -> list[list[int]]:
    """The active ids, in order, cut into waves: a new wave starts before
    any agent with an in-neighbor in the current one."""
    rows = adj.adj.tolist()
    waves: list[list[int]] = []
    for j in active:
        if waves and not any(rows[i][j] >= 1.0 for i in waves[-1]):
            waves[-1].append(j)
        else:
            waves.append([j])
    return waves


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
        raise ValidationError("run needs at least 2 active agents")
    rng = rng if rng is not None else np.random.default_rng(0)
    adj = binarize(t.weights, theta)
    tags = _new_tags(rng, k * len(active) + 1)
    waves = _waves(active, adj)
    schedule = [(rnd, wave, backends.default) for rnd in range(1, k + 1) for wave in waves]
    schedule.append((k, [-1], backends.decision))
    profiles = {**{j: pool[j] for j in active}, -1: DECISION_PROFILE}
    # each agent's system prompt and its token count, rendered once per run
    systems = {j: render_system_prompt(p, task.task_text) for j, p in profiles.items()}
    system_tokens = {j: count_tokens(system) for j, system in systems.items()}
    # id of each committed entry -> (its history JSON, that text's token count)
    rendered: dict[int, tuple[str, int]] = {}
    transcript: list[DialogueEntry] = []

    def call(agent_id: int) -> tuple[str, str, int]:
        """(system prompt, user prompt, their `count_tokens`); the decision
        reads every entry.  The prefix ends in a space and every entry text
        starts with '{' and ends with '}', so joining them adds no token and
        merges none: the user prompt's count is the prefix's plus the
        entries', or 1 more for "[]"."""
        seen = transcript if agent_id < 0 else visible_history(transcript, agent_id, adj, t.weights)
        entries = [rendered[id(e)] for e in seen]
        user = join_user_prompt([text for text, _ in entries])
        tokens = system_tokens[agent_id] + _PREFIX_TOKENS + (sum(n for _, n in entries) or 1)
        return systems[agent_id], user, tokens

    # a pool starts its threads on submit, so one-agent waves start none; the `with` joins them
    with ThreadPoolExecutor(max_workers=MAX_IN_FLIGHT - 1) as executor:
        for rnd, wave, backend in schedule:
            calls = [call(agent_id) for agent_id in wave]
            # the first call runs here once the rest are in the pool; results are read in id
            # order, each result() returning the call's outcome or raising its error
            results = [partial(backend.complete, *calls[0][:2])]
            results += [executor.submit(backend.complete, system, user).result for system, user, _ in calls[1:]]
            for agent_id, (_, _, prompt_tokens), result in zip(wave, calls, results):
                try:
                    output, p_tok, c_tok = result()
                except BackendError as exc:
                    message = f"run aborted: agent {agent_id} failed in round {rnd}: {exc}"
                    raise RunAborted(message, transcript) from exc
                if p_tok is None:
                    p_tok = prompt_tokens
                if c_tok is None:
                    c_tok = count_tokens(output)
                entry = DialogueEntry(
                    tags[len(transcript)], rnd, agent_id, profiles[agent_id].role, output, p_tok, c_tok
                )
                transcript.append(entry)
                text = render_entry(entry.as_history_item())
                rendered[id(entry)] = text, count_tokens(text)

    per_agent: dict[int, int] = {}
    for e in transcript[:-1]:
        per_agent[e.agent_id] = per_agent.get(e.agent_id, 0) + e.tokens()
    return RunResult(
        answer=transcript[-1].output,
        transcript=tuple(transcript),
        total_tokens=sum(e.tokens() for e in transcript),
        per_agent_tokens=per_agent,
        topology_used=t,
    )
