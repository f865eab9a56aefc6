"""Command-line entry point: collect, train, design, run, bench, export.

Exit codes are stable API. Commands and the argument parser raise; ``main``
prints one ``error: <message>`` line and maps the exception through
``EXIT_CODES``. Only ``--help`` exits through ``SystemExit``:

0 success.
1 usage: an unknown flag or command, a flag or config value that does not
  parse, a missing or malformed input file (``ConfigError``, ``FormatError``),
  a value that breaks a structural invariant (``ValidationError``) or sizes
  that disagree (``DimensionError``), any other ``CommTopoError``, or an
  ``OSError`` on a path the user named.
2 external service: ``BackendError`` (an ``http`` chat backend without
  endpoint or key, or a bench whose every run aborted),
  ``EmbeddingUnavailable`` (an embedding call that failed at once, or 3
  times by the transport's retry rule), ``MineUnderflow`` (its message
  ends with the collect's first skipped graph and why it failed).
3 training diverged: ``TrainingDiverged`` (non-finite loss or parameter).
4 checkpoint missing or malformed: ``CheckpointError``.
5 run aborted: ``RunAborted`` (a chat call that failed at once, or 3 times
  by the transport's retry rule); the partial transcript is still written,
  its entries as a whole run's, beside the error message.
130 interrupted: ``KeyboardInterrupt`` (Ctrl-C).

An output file is written whole or not at all: its text goes to a
temporary file beside it, which then replaces it.
"""
from __future__ import annotations

import argparse
import codecs
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from . import collector as collector_mod
from . import prunenet
from .backends import BackendSet, EchoBackend, HttpChatBackend, MajorityVoteDecision, check_planted_teams
from .config import AppConfig, _coerce, load_config, options
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
EXIT_INTERRUPTED = 130

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


def _write(path, text: str) -> None:
    """Write an output file as UTF-8; text that came from an argument the
    locale could not decode keeps the bytes it was given.  A write that
    fails leaves the file as it was."""
    temporary = Path(f"{path}.{os.getpid()}.tmp")  # beside the target, so os.replace renames in one step
    try:
        with open(temporary, "w", encoding="utf-8", errors="surrogateescape") as f:
            f.write(text)
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


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


def cmd_collect(cfg: AppConfig, args: argparse.Namespace) -> None:
    tasks = collector_mod.read_tasks(_read_input(args.tasks, "tasks file"))
    pool = _load_pool(cfg)
    check_planted_teams(tasks, pool, required=cfg.evaluator == "planted")
    if cfg.evaluator == "planted":
        evaluator = make_planted_evaluator(cfg.planted_mode)
    else:
        backends = _chat_backends(cfg, pool, tasks)
        evaluator = make_orchestrator_evaluator(pool, backends, cfg.k_rounds, cfg.theta)
    pairs, stats = collector_mod.collect_supervision(tasks, pool, cfg.collector, evaluator)
    out = Path(args.out or cfg.corpus_path)
    _write(out, write_corpus(pairs))
    print(
        f"tasks={stats.tasks} graphs_scored={stats.graphs_scored} "
        f"graphs_skipped={stats.graphs_skipped} pairs={stats.pairs}"
    )
    if stats.first_skip:
        print(f"first skip: {stats.first_skip}")
    for cat in sorted(stats.category_histogram):
        print(f"  {cat}: {stats.category_histogram[cat]}")
    print(f"corpus written to {out}")


def cmd_train(cfg: AppConfig, args: argparse.Namespace) -> None:
    corpus = read_corpus(_read_input(cfg.corpus_path, "corpus"))
    pool = _load_pool(cfg)
    backend = _embed_backend(cfg)
    params, log = prunenet.train(corpus, pool, backend, cfg.train)
    net = prunenet.NetConfig(d=backend.dim, n_max=pool.n_max)
    _write(cfg.checkpoint_path, prunenet.save_checkpoint(params, net))
    _write(cfg.train_log_path, prunenet.write_training_log(log))
    print(
        f"trained {len(log)} steps (beta={cfg.train.beta}, epochs={cfg.train.epochs}, "
        f"lr={cfg.train.lr}, seed={cfg.train.seed})"
    )
    # the anneal lowers tau as training goes, so each loss is shown with its step's tau
    shown = [f"{row.total:.4f} at step {row.step} (tau {row.tau:.4f})" for row in (log[0], log[-1])]
    print(f"loss {', '.join(shown)}")
    print(f"checkpoint written to {cfg.checkpoint_path}; log to {cfg.train_log_path}")


def _designer(cfg: AppConfig, pool):
    """Design for a query with the checkpoint, which must fit the pool and the embedder."""
    try:
        text = _read_input(cfg.checkpoint_path, "checkpoint")
    except (ConfigError, FormatError) as exc:  # exit 4, as for every other checkpoint fault
        raise CheckpointError(str(exc)) from None
    params, net = prunenet.load_checkpoint(text)
    embed = _embed_backend(cfg)
    have, need = (net.n_max, net.d), (pool.n_max, embed.dim)
    if have != need:
        raise CheckpointError(f"checkpoint (n_max, d) {have} does not fit the pool and embedder {need}")
    return lambda query: prunenet.design_topology(query, pool, embed, params, theta=cfg.theta)


def cmd_design(cfg: AppConfig, args: argparse.Namespace) -> None:
    pool = _load_pool(cfg)
    topo = _designer(cfg, pool)(args.query)
    payload = serialize_topology(topo, args.format)
    if args.out:
        _write(args.out, payload)
    else:
        sys.stdout.write(payload if payload.endswith("\n") else payload + "\n")
    roles = [pool[i].role for i in topo.mask.active_ids()]
    print(f"active agents: {', '.join(roles)}", file=sys.stderr)


def cmd_run(cfg: AppConfig, args: argparse.Namespace) -> None:
    pool = _load_pool(cfg)
    design = _designer(cfg, pool)
    tasks = collector_mod.read_tasks(_read_input(args.suite, "tasks file")) if args.suite else ()
    backends = _chat_backends(cfg, pool, tasks)
    topo = design(args.query)
    task = next(
        (t for t in tasks if t.task_text == args.query),
        collector_mod.TaskSpec("query", args.query, "general_reasoning", "", "contains"),
    )
    rng = np.random.default_rng(cfg.split_seeds()["orchestrator"])
    try:
        result = run_topology(topo, task, pool, backends, k=cfg.k_rounds, theta=cfg.theta, rng=rng)
    except RunAborted as exc:
        partial = {"error": str(exc), "transcript": [e.as_record() for e in exc.transcript]}
        _write(cfg.transcript_path, json.dumps(partial, sort_keys=True))
        raise
    _write(cfg.transcript_path, result.to_json())
    print(f"answer: {result.answer}")
    print(f"total tokens: {result.total_tokens}")
    print(f"transcript written to {cfg.transcript_path}")


def cmd_bench(cfg: AppConfig, args: argparse.Namespace) -> None:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    unknown = [m for m in methods if m not in VALID_BENCH_METHODS]
    if unknown or not methods:
        raise ConfigError(f"unknown methods {unknown}; valid: {', '.join(VALID_BENCH_METHODS)}")
    repeated = [m for i, m in enumerate(methods) if m in methods[:i]]
    if repeated:  # each would run, and call the backends, once more
        raise ConfigError(f"methods named more than once: {', '.join(dict.fromkeys(repeated))}")
    suite = collector_mod.read_tasks(_read_input(args.suite, "tasks file"))
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
        repeats=args.repeats,
        k=cfg.k_rounds,
        theta=cfg.theta,
        seed=cfg.seed,
        suite_id=Path(args.suite).stem,
    )
    _write(f"{args.out_prefix}.csv", report.to_csv())
    _write(f"{args.out_prefix}.md", report.to_markdown())
    print(report.to_markdown())
    print(f"report written to {args.out_prefix}.csv and {args.out_prefix}.md")


def cmd_export(cfg: AppConfig, args: argparse.Namespace) -> None:
    topo = parse_topology(_read_input(args.topology, "topology"))
    sys.stdout.write(serialize_topology(topo, args.format))


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # takes main's one path: exit 1, one line, no usage text
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="commtopo")
    parser.add_argument("--config", help="INI config file")
    parser.add_argument("--seed", help="root seed (split per subsystem)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("collect", help="mine a supervision corpus (Stage I)")
    p.set_defaults(cmd=cmd_collect)
    p.add_argument("--tasks", required=True)
    p.add_argument("--out")
    p.add_argument("--budget")
    p.add_argument("--sigma")
    p.add_argument("--mu")

    p = sub.add_parser("train", help="train the pruning network (Stage II)")
    p.set_defaults(cmd=cmd_train)
    p.add_argument("--corpus", dest="corpus_path")
    p.add_argument("--checkpoint", dest="checkpoint_path")
    p.add_argument("--log", dest="train_log_path")
    p.add_argument("--beta")
    p.add_argument("--epochs")

    p = sub.add_parser("design", help="design a topology for a query")
    p.set_defaults(cmd=cmd_design)
    p.add_argument("--query", required=True)
    p.add_argument("--checkpoint", dest="checkpoint_path")
    p.add_argument("--theta")
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.add_argument("--out")

    p = sub.add_parser("run", help="design then execute a query")
    p.set_defaults(cmd=cmd_run)
    p.add_argument("--query", required=True)
    p.add_argument("--checkpoint", dest="checkpoint_path")
    p.add_argument("--suite")
    p.add_argument("--theta")
    p.add_argument("--k", dest="k_rounds")
    p.add_argument("--transcript", dest="transcript_path")

    p = sub.add_parser("bench", help="compare topology methods on a suite")
    p.set_defaults(cmd=cmd_bench)
    p.add_argument("--suite", required=True)
    p.add_argument("--methods", default="designed,complete")
    p.add_argument("--checkpoint", dest="checkpoint_path")
    p.add_argument("--repeats", type=int, default=2)
    p.add_argument("--out-prefix", default="bench")

    p = sub.add_parser("export", help="convert a topology JSON file")
    p.set_defaults(cmd=cmd_export)
    p.add_argument("--topology", required=True)
    p.add_argument("--format", choices=["json", "dot"], default="dot")
    return parser


def _config(args: argparse.Namespace) -> AppConfig:
    """Config file, then every flag whose ``dest`` names an option, its text parsed
    as the option's INI value is, so flags declare no type (flags > file > env > defaults)."""
    cfg = load_config(args.config)
    for target, names in options(cfg).values():
        for name in names:
            if getattr(args, name, None) is not None:
                setattr(target, name, _coerce(getattr(target, name), getattr(args, name), name))
    return cfg.finalize()


def _typed_or_escaped(exc: UnicodeEncodeError):
    """The encoding error handler of stdout and stderr: a surrogate that the
    locale's decoding of an argument left becomes the byte that was typed,
    as in the output files; any other character the locale cannot encode
    is escaped with a backslash."""
    one = UnicodeEncodeError(exc.encoding, exc.object, exc.start, exc.start + 1, exc.reason)
    try:
        return codecs.lookup_error("surrogateescape")(one)
    except UnicodeEncodeError:
        return codecs.backslashreplace_errors(one)


def main(argv=None) -> int:
    codecs.register_error("commtopo.typed_or_escaped", _typed_or_escaped)
    for stream in (sys.stdout, sys.stderr):
        if isinstance(stream, io.TextIOWrapper):
            stream.reconfigure(errors="commtopo.typed_or_escaped")
    try:
        args = _build_parser().parse_args(argv)
        args.cmd(_config(args), args)
    except SystemExit:  # --help; every other parser error raises ConfigError
        return EXIT_OK
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
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
