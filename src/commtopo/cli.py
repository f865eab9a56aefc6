"""Command-line entry point: collect, train, design, run, bench, export.

Exit codes are stable API. Commands raise; ``main`` prints one
``error: <message>`` line and maps the exception through ``EXIT_CODES``:

0 success.
1 usage: an unknown flag, a bad config value, a missing or malformed
  input file (``ConfigError``, ``FormatError``, any other
  ``CommTopoError``), or an ``OSError`` on a path the user named.
2 external service: ``BackendError`` (an ``http`` chat backend without
  endpoint or key), ``EmbeddingUnavailable``, ``MineUnderflow``.
3 training diverged: ``TrainingDiverged`` (non-finite loss or parameter).
4 checkpoint missing or malformed: ``CheckpointError``.
5 run aborted: ``RunAborted``; the partial transcript is still written.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from . import collector as collector_mod
from . import prunenet
from .backends import BackendSet, EchoBackend, HttpChatBackend, MajorityVoteDecision, check_planted_teams
from .config import AppConfig, load_config, options
from .embed import HashingBackend, HttpBackend
from .errors import (
    BackendError,
    CheckpointError,
    CommTopoError,
    ConfigError,
    EmbeddingUnavailable,
    FormatError,
    MineUnderflow,
    RunAborted,
    TrainingDiverged,
)
from .graphs import parse_topology, read_corpus, serialize_topology, write_corpus
from .orchestrator import run_topology
from .pool import load_default_pool, load_pool
from .synth import make_orchestrator_evaluator, make_planted_evaluator, planted_backends

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_EXTERNAL = 2
EXIT_TRAINING = 3
EXIT_CHECKPOINT = 4
EXIT_ABORTED = 5

# Checked in order, so every class comes before its base classes.
EXIT_CODES = (
    (TrainingDiverged, EXIT_TRAINING),
    (CheckpointError, EXIT_CHECKPOINT),
    (RunAborted, EXIT_ABORTED),
    ((BackendError, EmbeddingUnavailable, MineUnderflow), EXIT_EXTERNAL),
    ((CommTopoError, OSError), EXIT_USAGE),
)

VALID_BENCH_METHODS = bench_mod.STATIC_SHAPES + ("designed",)


def _read_input(path: str, what: str) -> str:
    """The text of an input file the user named; a missing or non-UTF-8 file fails in one line."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"{what} not found: {path}")
    try:
        return p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{what} {path} is not UTF-8: {exc.reason} at byte {exc.start}") from None


def _load_pool(cfg: AppConfig):
    if cfg.pool_path:
        return load_pool(_read_input(cfg.pool_path, "pool"))
    return load_default_pool()


def _embed_backend(cfg: AppConfig):
    if cfg.embed_backend == "hash":
        return HashingBackend()
    if not cfg.embed_endpoint:
        raise EmbeddingUnavailable("embedding endpoint missing")
    return HttpBackend(cfg.embed_endpoint, cfg.api_key)


def _chat_backends(cfg: AppConfig, pool, tasks=()) -> BackendSet:
    if cfg.agent_backend == "echo":
        return BackendSet(default=EchoBackend(), decision=MajorityVoteDecision())
    if cfg.agent_backend == "planted":
        return planted_backends(tasks, pool)
    if not cfg.chat_endpoint:
        raise BackendError("chat endpoint missing")
    if not cfg.api_key:
        raise BackendError("credentials missing")
    http = HttpChatBackend(cfg.chat_endpoint, cfg.api_key, cfg.model)
    return BackendSet(default=http, decision=http)


def cmd_collect(cfg: AppConfig, tasks_file: str, out_path: str | None = None) -> None:
    tasks = collector_mod.read_tasks(_read_input(tasks_file, "tasks file"))
    pool = _load_pool(cfg)
    check_planted_teams(tasks, pool)
    if cfg.evaluator == "planted":
        evaluator = make_planted_evaluator(cfg.planted_mode)
    else:
        backends = _chat_backends(cfg, pool, tasks)
        evaluator = make_orchestrator_evaluator(pool, backends, cfg.k_rounds, cfg.theta)
    pairs, stats = collector_mod.collect_supervision(tasks, pool, cfg.collector, evaluator)
    out = Path(out_path or cfg.corpus_path)
    out.write_text(write_corpus(pairs))
    print(
        f"tasks={stats.tasks} graphs_scored={stats.graphs_scored} "
        f"graphs_skipped={stats.graphs_skipped} pairs={stats.pairs}"
    )
    for cat in sorted(stats.category_histogram):
        print(f"  {cat}: {stats.category_histogram[cat]}")
    print(f"corpus written to {out}")


def cmd_train(cfg: AppConfig) -> None:
    corpus = read_corpus(_read_input(cfg.corpus_path, "corpus"))
    pool = _load_pool(cfg)
    backend = _embed_backend(cfg)
    params, log = prunenet.train(corpus, pool, backend, cfg.train)
    net = prunenet.NetConfig(d=backend.dim, n_max=pool.n_max)
    Path(cfg.checkpoint_path).write_bytes(prunenet.save_checkpoint(params, net))
    Path(cfg.train_log_path).write_text(prunenet.write_training_log(log))
    print(
        f"trained {len(log)} steps (beta={cfg.train.beta}, epochs={cfg.train.epochs}, "
        f"lr={cfg.train.lr}, seed={cfg.train.seed})"
    )
    print(f"initial loss {log[0].total:.4f}, final loss {log[-1].total:.4f}")
    print(f"checkpoint written to {cfg.checkpoint_path}; log to {cfg.train_log_path}")


def _designer(cfg: AppConfig, pool):
    """Design for a query with the checkpoint, which must fit the pool and the embedder."""
    path = Path(cfg.checkpoint_path)
    if not path.exists():
        raise CheckpointError(f"checkpoint not found: {path}")
    params, net = prunenet.load_checkpoint(path.read_bytes())
    embed = _embed_backend(cfg)
    have, need = (net.n_max, net.d), (pool.n_max, embed.dim)
    if have != need:
        raise CheckpointError(f"checkpoint (n_max, d) {have} does not fit the pool and embedder {need}")
    return lambda query: prunenet.design_topology(query, pool, embed, params, theta=cfg.theta)


def cmd_design(cfg: AppConfig, query: str, fmt: str = "json", out_path: str | None = None) -> None:
    pool = _load_pool(cfg)
    topo = _designer(cfg, pool)(query)
    payload = serialize_topology(topo, fmt).decode()
    if out_path:
        Path(out_path).write_text(payload)
    else:
        sys.stdout.write(payload if payload.endswith("\n") else payload + "\n")
    roles = [pool[i].role for i in topo.mask.active_ids()]
    print(f"active agents: {', '.join(roles)}", file=sys.stderr)


def cmd_run(cfg: AppConfig, query: str, suite_path: str | None = None) -> None:
    pool = _load_pool(cfg)
    design = _designer(cfg, pool)
    tasks = collector_mod.read_tasks(_read_input(suite_path, "tasks file")) if suite_path else ()
    backends = _chat_backends(cfg, pool, tasks)
    topo = design(query)
    task = next(
        (t for t in tasks if t.task_text == query),
        collector_mod.TaskSpec("query", query, "general_reasoning", "", "contains"),
    )
    rng = np.random.default_rng(cfg.split_seeds()["orchestrator"])
    try:
        result = run_topology(topo, task, pool, backends, k=cfg.k_rounds, theta=cfg.theta, rng=rng)
    except RunAborted as exc:
        partial = [e.as_history_item() for e in exc.transcript]
        Path(cfg.transcript_path).write_text(json.dumps(partial, sort_keys=True))
        raise
    Path(cfg.transcript_path).write_text(result.to_json())
    print(f"answer: {result.answer}")
    print(f"total tokens: {result.total_tokens}")
    print(f"transcript written to {cfg.transcript_path}")


def cmd_bench(
    cfg: AppConfig, suite_file: str, methods: list[str], repeats: int = 2, out_prefix: str = "bench"
) -> None:
    unknown = [m for m in methods if m not in VALID_BENCH_METHODS]
    if unknown or not methods:
        raise ConfigError(f"unknown methods {unknown}; valid: {', '.join(VALID_BENCH_METHODS)}")
    suite = collector_mod.read_tasks(_read_input(suite_file, "tasks file"))
    pool = _load_pool(cfg)
    sources = {}
    for m in methods:
        if m == "designed":
            design = _designer(cfg, pool)
            sources[m] = lambda task: design(task.task_text)
        else:
            rng = np.random.default_rng(cfg.seed)
            topo = bench_mod.make_static(m, range(pool.n_max), pool.n_max, p=0.3, rng=rng)
            sources[m] = lambda task, t=topo: t
    report = bench_mod.run_bench(
        suite,
        [(m, sources[m]) for m in methods],
        pool,
        _chat_backends(cfg, pool, suite),
        repeats=repeats,
        k=cfg.k_rounds,
        theta=cfg.theta,
        seed=cfg.seed,
        suite_id=Path(suite_file).stem,
    )
    Path(f"{out_prefix}.csv").write_text(report.to_csv())
    Path(f"{out_prefix}.md").write_text(report.to_markdown())
    print(report.to_markdown())
    print(f"report written to {out_prefix}.csv and {out_prefix}.md")


def cmd_export(topology_path: str, fmt: str) -> None:
    topo = parse_topology(_read_input(topology_path, "topology"))
    sys.stdout.write(serialize_topology(topo, fmt).decode())


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="commtopo")
    parser.add_argument("--config", help="INI config file")
    parser.add_argument("--seed", type=int, help="root seed (split per subsystem)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("collect", help="mine a supervision corpus (Stage I)")
    p.add_argument("--tasks", required=True)
    p.add_argument("--out")
    p.add_argument("--budget", type=int)
    p.add_argument("--sigma", type=float)
    p.add_argument("--mu", type=float)

    p = sub.add_parser("train", help="train the pruning network (Stage II)")
    p.add_argument("--corpus", dest="corpus_path")
    p.add_argument("--checkpoint", dest="checkpoint_path")
    p.add_argument("--log", dest="train_log_path")
    p.add_argument("--beta", type=float)
    p.add_argument("--epochs", type=int)

    p = sub.add_parser("design", help="design a topology for a query")
    p.add_argument("--query", required=True)
    p.add_argument("--checkpoint", dest="checkpoint_path")
    p.add_argument("--theta", type=float)
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.add_argument("--out")

    p = sub.add_parser("run", help="design then execute a query")
    p.add_argument("--query", required=True)
    p.add_argument("--checkpoint", dest="checkpoint_path")
    p.add_argument("--suite")
    p.add_argument("--theta", type=float)
    p.add_argument("--k", type=int, dest="k_rounds")
    p.add_argument("--transcript", dest="transcript_path")

    p = sub.add_parser("bench", help="compare topology methods on a suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--methods", default="designed,complete")
    p.add_argument("--checkpoint", dest="checkpoint_path")
    p.add_argument("--repeats", type=int, default=2)
    p.add_argument("--out-prefix", default="bench")

    p = sub.add_parser("export", help="convert a topology JSON file")
    p.add_argument("--topology", required=True)
    p.add_argument("--format", choices=["json", "dot"], default="dot")
    return parser


def _config(args: argparse.Namespace) -> AppConfig:
    """Config file, then every flag whose ``dest`` names an option (flags > file > env > defaults)."""
    cfg = load_config(args.config)
    for target, names in options(cfg).values():
        for name in names:
            if getattr(args, name, None) is not None:
                setattr(target, name, getattr(args, name))
    return cfg.finalize()


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        cfg = _config(args)
        if args.command == "collect":
            cmd_collect(cfg, args.tasks, args.out)
        elif args.command == "train":
            cmd_train(cfg)
        elif args.command == "design":
            cmd_design(cfg, args.query, args.format, args.out)
        elif args.command == "run":
            cmd_run(cfg, args.query, args.suite)
        elif args.command == "bench":
            methods = [m.strip() for m in args.methods.split(",") if m.strip()]
            cmd_bench(cfg, args.suite, methods, args.repeats, args.out_prefix)
        elif args.command == "export":
            cmd_export(args.topology, args.format)
    except Exception as exc:
        code = next((code for kind, code in EXIT_CODES if isinstance(exc, kind)), None)
        if code is None:
            raise
        # a message can quote input text that holds line breaks; the error stays one line
        print("error: " + " ".join(str(exc).splitlines()), file=sys.stderr)
        return code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
