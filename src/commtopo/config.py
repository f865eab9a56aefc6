"""Application configuration: INI file plus environment plus flags.

Precedence is flags > config file > environment > defaults.  All
randomness flows from one root seed, split per subsystem so collector,
training, and orchestration are independently reproducible.
"""
from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field

import numpy as np

from .collector import CollectorConfig
from .errors import ConfigError
from .prunenet import TrainConfig

ENV_API_KEY = "COMMTOPO_API_KEY"
ENV_EMBED_ENDPOINT = "COMMTOPO_EMBED_ENDPOINT"
ENV_CHAT_ENDPOINT = "COMMTOPO_CHAT_ENDPOINT"


@dataclass
class AppConfig:
    pool_path: str = ""  # empty = shipped default roster
    corpus_path: str = "corpus.jsonl"
    checkpoint_path: str = "checkpoint.json"
    train_log_path: str = "train_log.csv"
    transcript_path: str = "transcript.json"

    embed_backend: str = "hash"  # hash | http
    embed_endpoint: str = ""
    agent_backend: str = "echo"  # echo | planted | http
    chat_endpoint: str = ""
    model: str = "gpt-4o-mini"
    api_key: str = ""
    evaluator: str = "planted"  # planted | orchestrator
    planted_mode: str = "jaccard"

    collector: CollectorConfig = field(default_factory=CollectorConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    k_rounds: int = 3
    theta: float = 0.5
    parallelism: int = 1
    seed: int = 0

    def split_seeds(self) -> dict[str, int]:
        """Derive stable per-subsystem seeds from the root seed."""
        children = np.random.SeedSequence(self.seed).spawn(3)
        names = ("collector", "train", "orchestrator")
        return {n: int(c.generate_state(1)[0]) for n, c in zip(names, children)}

    def finalize(self) -> "AppConfig":
        seeds = self.split_seeds()
        self.collector.seed = seeds["collector"]
        self.train.seed = seeds["train"]
        return self


_SCALAR_FIELDS = {
    "paths": ("pool_path", "corpus_path", "checkpoint_path", "train_log_path", "transcript_path"),
    "embedding": ("embed_backend", "embed_endpoint"),
    "agents": ("agent_backend", "chat_endpoint", "model", "api_key", "evaluator", "planted_mode"),
    "run": ("k_rounds", "theta", "parallelism", "seed"),
}


def _coerce(current, raw: str, where: str):
    """Parse ``raw`` as the type of ``current``; None marks an optional float."""
    kind = float if current is None else type(current)
    if kind is str:
        return raw
    try:
        if kind is bool:
            return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
        return kind(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"{where}: {raw!r} is not a valid {kind.__name__}") from None


def load_config(path: str | None = None, env: dict | None = None) -> AppConfig:
    env = os.environ if env is None else env
    cfg = AppConfig()
    cfg.api_key = env.get(ENV_API_KEY, cfg.api_key)
    cfg.embed_endpoint = env.get(ENV_EMBED_ENDPOINT, cfg.embed_endpoint)
    cfg.chat_endpoint = env.get(ENV_CHAT_ENDPOINT, cfg.chat_endpoint)
    if path:
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise ConfigError(f"config file not found: {path}")
        for section, names in _SCALAR_FIELDS.items():
            if parser.has_section(section):
                for name in names:
                    if parser.has_option(section, name):
                        raw = parser.get(section, name)
                        setattr(cfg, name, _coerce(getattr(cfg, name), raw, f"[{section}] {name}"))
        for section, target in (("collector", cfg.collector), ("train", cfg.train)):
            if parser.has_section(section):
                for name, raw in parser.items(section):
                    if not hasattr(target, name):
                        raise ConfigError(f"unknown option {name!r} in [{section}]")
                    current = getattr(target, name)
                    setattr(target, name, _coerce(current, raw, f"[{section}] {name}"))
    return cfg
