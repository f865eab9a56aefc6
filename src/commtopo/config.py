"""Application configuration: INI file plus environment plus flags.

Precedence is flags > config file > environment > defaults.  All
randomness flows from one root seed, split per subsystem so collector,
training, and orchestration are independently reproducible.
"""
from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .collector import CollectorConfig
from .errors import ConfigError, check_within, within
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

    embed_backend: str = within("hash", ("hash", "http"))
    embed_endpoint: str = ""
    agent_backend: str = within("echo", ("echo", "planted", "http"))
    chat_endpoint: str = ""
    model: str = "gpt-4o-mini"
    api_key: str = ""
    evaluator: str = within("planted", ("planted", "orchestrator"))
    planted_mode: str = within("jaccard", ("jaccard", "overlap"))

    collector: CollectorConfig = field(default_factory=CollectorConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    k_rounds: int = within(3, "[1, 1000]")  # a run draws its k * m + 1 tags up front
    theta: float = within(0.5, "[0, 1]")
    seed: int = within(0, "[0, inf)")

    def split_seeds(self) -> dict[str, int]:
        """Derive stable per-subsystem seeds from the root seed."""
        children = np.random.SeedSequence(self.seed).spawn(3)
        names = ("collector", "train", "orchestrator")
        return {n: int(c.generate_state(1)[0]) for n, c in zip(names, children)}

    def finalize(self) -> "AppConfig":
        for obj in (self, self.collector, self.train):
            check_within(obj)
        seeds = self.split_seeds()
        self.collector.seed = seeds["collector"]
        self.train.seed = seeds["train"]
        return self


def options(cfg: AppConfig) -> dict[str, tuple[object, tuple[str, ...]]]:
    """Every settable option: INI section -> (the object it sets, its option names).

    This is the one list of settable names.  ``load_config`` reads the INI
    file through it, and ``cli._config`` applies every flag whose ``dest``
    names an option.  ``seed`` is settable only in ``[run]``: ``finalize``
    derives the collector and training seeds from it.
    """

    def fields_of(obj) -> tuple[str, ...]:
        return tuple(f.name for f in fields(obj) if f.name != "seed")

    return {
        "paths": (cfg, ("pool_path", "corpus_path", "checkpoint_path", "train_log_path", "transcript_path")),
        "embedding": (cfg, ("embed_backend", "embed_endpoint")),
        "agents": (cfg, ("agent_backend", "chat_endpoint", "model", "api_key", "evaluator", "planted_mode")),
        "run": (cfg, ("k_rounds", "theta", "seed")),
        "collector": (cfg.collector, fields_of(cfg.collector)),
        "train": (cfg.train, fields_of(cfg.train)),
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
        # No section header can name the empty string, so [DEFAULT] is an
        # ordinary section, rejected as unknown, and no option is shared.
        parser = configparser.ConfigParser(interpolation=None, default_section="")
        try:
            read = parser.read(path)
        except (configparser.Error, UnicodeDecodeError) as exc:
            # configparser messages can span lines; the CLI reports one line
            raise ConfigError(f"config file {path}: {' '.join(str(exc).split())}") from None
        if not read:
            raise ConfigError(f"config file not found: {path}")
        table = options(cfg)
        for section in parser.sections():
            if section not in table:
                raise ConfigError(f"unknown section [{section}]; valid: {', '.join(table)}")
            target, names = table[section]
            for name, raw in parser.items(section):
                if name not in names:
                    home = next((s for s, (_, n) in table.items() if name in n), None)
                    hint = f"; did you mean [{home}] {name}?" if home else ""
                    raise ConfigError(f"unknown option {name!r} in [{section}]{hint}")
                setattr(target, name, _coerce(getattr(target, name), raw, f"[{section}] {name}"))
    return cfg
