"""The anchored roster of heterogeneous agents and prompt rendering.

Agent ids are permanent: the pool is always exactly ids 0..n_max-1 in
order, so graphs mined against one pool stay meaningful for another run.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from importlib import resources
from typing import Mapping, Sequence

from .errors import AnchoringError, FormatError, check_types

DEFAULT_SYSTEM_TEMPLATE = "<Profile>. And your task is to solve the question: <Task>. "
USER_PROMPT_PREFIX = (
    "At the same time, there are the following responses to the same question "
    "for your reference: "
)


@dataclass(frozen=True)
class AgentProfile:
    id: int
    role: str
    expertise: str = ""
    system_template: str = DEFAULT_SYSTEM_TEMPLATE

    def profile_text(self) -> str:
        """Prose filled into the <Profile> slot."""
        if not self.role:
            return ""
        text = f"You are a {self.role}"
        if self.expertise:
            text += f", and your duty is: {self.expertise.lower()}"
        return text


DECISION_PROFILE = AgentProfile(
    id=-1,
    role="Decision Maker",
    expertise="Aggregate the dialogue history and produce the final solution",
)


@dataclass(frozen=True)
class AgentPool:
    agents: tuple[AgentProfile, ...]
    n_max: int = field(default=0)

    def __post_init__(self):
        object.__setattr__(self, "agents", tuple(self.agents))
        object.__setattr__(self, "n_max", len(self.agents))
        ids = [a.id for a in self.agents]
        if ids != list(range(len(ids))):
            raise AnchoringError(f"agent ids must be exactly 0..{len(ids) - 1}, got {ids}")

    def __getitem__(self, agent_id: int) -> AgentProfile:
        return self.agents[agent_id]


def load_pool(source: bytes | str) -> AgentPool:
    """Parse a JSONL profile file (one object per line) into a pool."""
    if isinstance(source, bytes):
        source = source.decode()
    lines = [ln for ln in source.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty profile file")
    profiles = []
    for ln in lines:
        try:
            obj = json.loads(ln)
            check_types(obj, id=int, role=str, expertise=str, system_template=str)
            profiles.append(
                AgentProfile(
                    id=obj["id"],
                    role=obj["role"],
                    expertise=obj.get("expertise", ""),
                    system_template=obj.get("system_template", DEFAULT_SYSTEM_TEMPLATE),
                )
            )
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise FormatError(f"bad profile line: {exc}") from exc
    profiles.sort(key=lambda p: p.id)
    ids = [p.id for p in profiles]
    if ids != list(range(len(ids))):
        raise AnchoringError(f"profile ids must be gap-free from 0, got {ids}")
    return AgentPool(tuple(profiles))


def load_default_pool() -> AgentPool:
    data = resources.files("commtopo.data").joinpath("default_pool.jsonl").read_bytes()
    return load_pool(data)


def render_system_prompt(p: AgentProfile, task: str) -> str:
    """Fill the profile and task slots; output is byte-stable."""
    profile = p.profile_text()
    if not profile:
        warnings.warn(f"agent {p.id} has an empty profile text", stacklevel=2)
    return p.system_template.replace("<Profile>", profile).replace("<Task>", task)


def render_entry(h: Mapping[str, str]) -> str:
    """One history entry as a JSON object with exactly the keys id, role, output."""
    return json.dumps({"id": h["id"], "role": h["role"], "output": h["output"]}, ensure_ascii=False)


def join_user_prompt(entries: Sequence[str]) -> str:
    """Fixed prefix plus rendered entries as a JSON array, in the given order:
    the bytes ``json.dumps`` gives the list of their objects."""
    return USER_PROMPT_PREFIX + "[" + ", ".join(entries) + "]"


def render_user_prompt(history: Sequence[Mapping[str, str]]) -> str:
    """Fixed prefix plus the dialogue history as a JSON array, in arrival order."""
    return join_user_prompt([render_entry(h) for h in history])
