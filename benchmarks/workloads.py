"""The three benchmark workloads: ``train``, ``query`` and ``collect-orch``.

Each workload has a set-up, which builds its inputs from the seed, and a
pass, which is the unit of measured work.  A pass drives the same public
calls the CLI stages use (``collect_supervision``, ``train``,
``design_topology``, ``run_topology``) through module attributes, so a
traced pass can wrap them from outside.  The client is one thread in a
closed loop: it issues the next call only when the previous one returned.

Inputs: the planted suite is drawn from the workload seed; the collector
and training seeds come from root seed 2 through ``AppConfig.finalize``,
as in the acceptance fixture, so ``--seed 0`` gives the fixture's suite.
"""
from __future__ import annotations

import hashlib
import inspect
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from commtopo import collector, graphs, orchestrator, prunenet, synth
from commtopo.backends import BackendSet, EchoBackend, PlantedDecisionBackend
from commtopo.bench import make_static
from commtopo.collector import SampledGraph, answer_matches
from commtopo.config import AppConfig
from commtopo.embed import HashingBackend
from commtopo.errors import (
    BackendError,
    EmbeddingUnavailable,
    RunAborted,
    ScoreUnavailable,
    TrainingDiverged,
)
from commtopo.graphs import Topology, binarize
from commtopo.pool import load_default_pool

from meters import CallMeter, DelayedChat, DelayedEmbedding
from tracing import SpanIndex, Tracer

ROOT_SEED = 2  # root seed of the acceptance fixture
K_ROUNDS = 3
THETA = 0.5
METHODS = ("designed", "star", "complete")
RUN_KINDS = METHODS + ("scoring",)
TOKEN_RATIO_BAR = 0.40  # acceptance criterion 6
OP_FAILURES = (RunAborted, BackendError, ScoreUnavailable, EmbeddingUnavailable)


@dataclass(frozen=True)
class Sizes:
    tasks_per_family: int
    heldout_per_family: int
    budget: int
    candidates_per_task: int
    epochs: int


FULL = {
    # 5 epochs recover 30/30 held-out teams at a quarter of the fixture's
    # 20-epoch training time, which keeps a run inside its time budget.
    "train": Sizes(500, 10, 300, 20, 5),
    "query": Sizes(500, 34, 300, 20, 5),
    "collect-orch": Sizes(10, 0, 60, 4, 0),
}
TINY = {
    "train": Sizes(60, 10, 60, 20, 2),
    "query": Sizes(60, 4, 60, 20, 2),
    "collect-orch": Sizes(4, 0, 12, 4, 0),
}

# Library attributes wrapped during a traced pass:
# (module, attribute, span name, layer, keep call arguments).
TRACE_TARGETS = (
    (collector, "collect_supervision", "collector.collect_supervision", "collector", False),
    (graphs, "write_corpus", "graphs.write_corpus", "graphs", False),
    (graphs, "read_corpus", "graphs.read_corpus", "graphs", False),
    (prunenet, "save_checkpoint", "prunenet.save_checkpoint", "prunenet", False),
    (prunenet, "train", "prunenet.train", "prunenet", False),
    (prunenet, "loss_and_grads", "prunenet.loss_and_grads", "prunenet", False),
    (prunenet, "forward_losses", "prunenet.forward_losses", "prunenet", False),
    (prunenet, "design_topology", "prunenet.design_topology", "prunenet", False),
    (orchestrator, "run_topology", "orchestrator.run_topology", "orchestrator", True),
    (synth, "run_topology", "orchestrator.run_topology", "orchestrator", True),
    (orchestrator, "visible_history", "orchestrator.visible_history", "orchestrator", False),
    (orchestrator, "render_system_prompt", "orchestrator.render_prompts", "orchestrator", False),
    (orchestrator, "render_user_prompt", "orchestrator.render_prompts", "orchestrator", False),
)


now = time.perf_counter


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% at or below it."""
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q / 100.0 * len(ordered))))
    return float(ordered[rank - 1])


def critical_path_calls(topology, k: int, theta: float) -> int:
    """Longest chain of dependent backend calls in one run.

    Agent j in round r waits on its in-neighbours i < j in round r and on
    all of round r-1; the decision call waits on everything.
    """
    adj = binarize(topology.weights, theta).adj
    active = topology.mask.active_ids()
    depth: dict[int, int] = {}
    for j in active:
        depth[j] = 1 + max((depth[i] for i in active if i < j and adj[i, j] >= 1.0), default=0)
    return k * max(depth.values()) + 1


def pipeline_config(sizes: Sizes) -> AppConfig:
    cfg = AppConfig(seed=ROOT_SEED)
    cfg.collector.budget = sizes.budget
    cfg.collector.mu = 5.0
    cfg.collector.sigma = 1.5
    cfg.collector.candidates_per_task = sizes.candidates_per_task
    cfg.train.epochs = sizes.epochs
    return cfg.finalize()


@dataclass
class Pass:
    """What one pass measured and checked."""

    wall_s: float = 0.0
    traced: bool = False
    attempted: int = 0
    failed: int = 0
    samples: dict = field(default_factory=lambda: defaultdict(list))
    values: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    stats: object = None  # CollectStats of the pass's collect, if any
    embed: tuple = (0, 0, 0.0)  # calls, distinct texts, busy seconds in the embedding stage
    chat: CallMeter | None = None
    steps: int = 0

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)


@contextmanager
def operation(tracer: Tracer | None, op: str, name: str):
    """Root span of one client operation (traced passes only)."""
    if tracer is None:
        yield
        return
    tracer.op = op
    with tracer.span(name, "harness"):
        yield


def _collect(tasks, pool, cfg, evaluator, tracer, p: Pass):
    evaluator = tracer.wrap(evaluator, "collector.evaluator", "evaluator") if tracer else evaluator
    pairs, stats = collector.collect_supervision(tasks, pool, cfg.collector, evaluator)
    p.stats = stats
    p.attempted += stats.graphs_scored + stats.graphs_skipped
    p.failed += stats.graphs_skipped
    return pairs


def _train(corpus_text: str, pool, cfg, embed, p: Pass):
    """cmd_train's work: read the corpus, train, save the checkpoint."""
    corpus = graphs.read_corpus(corpus_text)
    p.attempted += 1
    try:
        params, log = prunenet.train(corpus, pool, embed, cfg.train)
    except TrainingDiverged:
        p.failed += 1
        p.check("training_finite", False)
        return None, None
    net = prunenet.NetConfig(d=embed.dim, n_max=pool.n_max)
    return params, (prunenet.save_checkpoint(params, net), log, len(corpus))


def _check_training(p: Pass, pairs, saved) -> None:
    checkpoint, log, n_read = saved
    loaded, _ = prunenet.load_checkpoint(checkpoint)
    p.check("corpus_round_trip", n_read == len(pairs))
    p.check("checkpoint_finite", all(np.isfinite(t).all() for t in loaded.tensors().values()))
    p.check("training_finite", all(np.isfinite([r.edge_loss, r.node_loss, r.total]).all() for r in log))
    p.steps = len(log)


class Workload:
    name = ""
    ops_base = ""
    min_passes = 1

    def __init__(self, seed: int, sizes: Sizes, chat_delay_s: float, embed_delay_s: float, digests=None):
        self.seed = seed
        self.sizes = sizes
        self.chat_delay_s = chat_delay_s
        self.embed_delay_s = embed_delay_s
        self.recorded = (digests or {}).get(self.name, {}).get(str(seed))

    def check_digest(self, p: Pass, digest: str) -> None:
        p.values["digest"] = digest
        if self.recorded is not None:
            p.check("digest_matches_record", digest == self.recorded)

    def chat_backends(self, tasks, pool, meter: CallMeter, tracer) -> BackendSet:
        """Planted mocks behind the fixed chat delay."""
        return BackendSet(
            default=DelayedChat(EchoBackend(), self.chat_delay_s, meter, tracer),
            decision=DelayedChat(PlantedDecisionBackend(tasks, pool), self.chat_delay_s, meter, tracer),
        )

    def setup(self):
        raise NotImplementedError

    def run_pass(self, state, tracer: Tracer | None) -> Pass:
        raise NotImplementedError

    def report(self, passes: list[Pass]) -> dict:
        raise NotImplementedError

    def timed_pass(self, state, tracer: Tracer | None = None) -> Pass:
        start = now()
        p = self.run_pass(state, tracer)
        p.wall_s = now() - start
        p.traced = tracer is not None
        return p


def _metric(value, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def _median_metric(samples, unit: str) -> dict:
    return _metric(statistics.median(samples) if samples else None, unit, len(samples))


class TrainWorkload(Workload):
    """The acceptance fixture's offline stages: collect, train, design."""

    name = "train"
    ops_base = "graph scorings + 1 training + held-out designs"
    # all CPU: a pass's time swings by 10% with the load on the machine,
    # so the run reports the median of four
    min_passes = 4

    def setup(self):
        suite = synth.make_planted_suite(
            self.sizes.tasks_per_family, self.sizes.heldout_per_family, seed=self.seed
        )
        return suite, load_default_pool(), pipeline_config(self.sizes)

    def run_pass(self, state, tracer):
        suite, pool, cfg = state
        p = Pass()
        meter = CallMeter()
        embed = DelayedEmbedding(HashingBackend(), 0.0, meter, tracer)
        with operation(tracer, "collect", "op.collect"):
            start = now()
            pairs = _collect(suite.train_tasks, pool, cfg, synth.make_planted_evaluator("jaccard"), tracer, p)
            corpus_text = graphs.write_corpus(pairs)
            p.samples["collect_s"].append(now() - start)
        with operation(tracer, "train", "op.train"):
            start = now()
            params, saved = _train(corpus_text, pool, cfg, embed, p)
            p.samples["train_s"].append(now() - start)
        p.embed = (meter.calls, len(meter.texts), meter.busy_s)
        if params is None:
            return p
        _check_training(p, pairs, saved)
        hits = 0
        for i, task in enumerate(suite.heldout_tasks):
            p.attempted += 1
            with operation(tracer, f"design:{i}", "op.design"):
                topo = prunenet.design_topology(task.task_text, pool, embed, params, THETA)
            hits += tuple(topo.mask.active_ids()) == task.planted_team
        p.values["heldout_recovery"] = hits
        return p

    def report(self, passes):
        last = passes[-1]
        return {
            "collect_s": _median_metric([v for p in passes for v in p.samples["collect_s"]], "s"),
            "train_s": _median_metric([v for p in passes for v in p.samples["train_s"]], "s"),
            "heldout_recovery": _metric(
                last.values.get("heldout_recovery"), "count", self.sizes.heldout_per_family * 3
            ),
        }


class QueryWorkload(Workload):
    """Held-out planted queries, each run designed, then star, then complete."""

    name = "query"
    ops_base = "method runs (3 per held-out query)"

    def inputs(self):
        """Suite, pool and the star and complete topologies over every agent."""
        suite = synth.make_planted_suite(
            self.sizes.tasks_per_family, self.sizes.heldout_per_family, seed=self.seed
        )
        pool = load_default_pool()
        everyone = list(range(pool.n_max))
        static = {m: make_static(m, everyone, pool.n_max) for m in ("star", "complete")}
        return suite, pool, static

    def setup(self):
        """Inputs plus a checkpoint collected and trained as in ``train``."""
        suite, pool, static = self.inputs()
        cfg = pipeline_config(self.sizes)
        p = Pass()
        pairs = _collect(suite.train_tasks, pool, cfg, synth.make_planted_evaluator("jaccard"), None, p)
        params, saved = _train(graphs.write_corpus(pairs), pool, cfg, HashingBackend(), p)
        if params is None:
            raise TrainingDiverged(0, "set-up training diverged")
        params, _ = prunenet.load_checkpoint(saved[0])
        return suite.heldout_tasks, pool, params, static

    def run_pass(self, state, tracer):
        queries, pool, params, static = state
        p = Pass()
        p.chat = CallMeter()
        backends = self.chat_backends(queries, pool, p.chat, tracer)
        emeter = CallMeter()
        embed = DelayedEmbedding(HashingBackend(), self.embed_delay_s, emeter, tracer)
        digest = hashlib.sha256()
        for qi, task in enumerate(queries):
            for mi, method in enumerate(METHODS):
                rng = np.random.default_rng((self.seed, mi, qi))
                p.attempted += 1
                result = None
                with operation(tracer, f"{method}:{qi}", f"query.{method}"):
                    start = now()
                    try:
                        if method == "designed":
                            topo = prunenet.design_topology(task.task_text, pool, embed, params, THETA)
                        else:
                            topo = static[method]
                        result = orchestrator.run_topology(
                            topo, task, pool, backends, k=K_ROUNDS, theta=THETA, rng=rng
                        )
                    except OP_FAILURES:
                        pass
                    elapsed = now() - start
                if result is None:
                    p.failed += 1
                    continue
                p.samples[f"{method}.latency_ms"].append(elapsed * 1e3)
                p.samples[f"{method}.tokens"].append(result.total_tokens)
                p.samples[f"{method}.correct"].append(answer_matches(task, result.answer))
                p.check(
                    "transcript_entries",
                    len(result.transcript) == K_ROUNDS * len(topo.mask.active_ids()) + 1,
                )
                if method != "designed":
                    digest.update(result.to_json().encode())
        p.embed = (emeter.calls, len(emeter.texts), emeter.busy_s)
        ratio = self._token_ratio(p)
        p.check("token_ratio_within_bar", ratio is not None and ratio <= TOKEN_RATIO_BAR)
        self.check_digest(p, digest.hexdigest())
        return p

    @staticmethod
    def _token_ratio(p: Pass):
        designed, complete = p.samples["designed.tokens"], p.samples["complete.tokens"]
        if not designed or not complete:
            return None
        return statistics.fmean(designed) / statistics.fmean(complete)

    def report(self, passes):
        out = {}
        for method in METHODS:
            lat = [v for p in passes for v in p.samples[f"{method}.latency_ms"]]
            for q in (50, 90):
                out[f"{method}.latency_p{q}_ms"] = _metric(percentile(lat, q) if lat else None, "ms", len(lat))
        last = passes[-1]
        designed = last.samples["designed.tokens"]
        out["designed.tokens_per_query"] = _metric(
            statistics.fmean(designed) if designed else None, "tokens", len(designed)
        )
        out["token_ratio"] = _metric(self._token_ratio(last), "ratio", len(designed))
        correct = last.samples["designed.correct"]
        out["designed.accuracy"] = _metric(
            sum(correct) / len(correct) if correct else None, "ratio", len(correct)
        )
        return out


class CollectOrchWorkload(Workload):
    """collect_supervision scoring every sampled graph through the orchestrator."""

    name = "collect-orch"
    ops_base = "graph scorings (each one orchestrator run)"

    def setup(self):
        """Inputs, then one warm-up scoring of the whole pool, so first-call
        costs stay out of the passes."""
        tasks = synth.make_planted_suite(
            self.sizes.tasks_per_family, self.sizes.heldout_per_family, seed=self.seed
        ).train_tasks
        pool = load_default_pool()
        backends = self.chat_backends(tasks, pool, CallMeter(), None)
        everyone = SampledGraph(tuple(range(pool.n_max)), Topology.complete(pool.n_max))
        synth.make_orchestrator_evaluator(pool, backends, K_ROUNDS, THETA)(everyone, tasks[0])
        return tasks, pool, pipeline_config(self.sizes)

    def run_pass(self, state, tracer):
        tasks, pool, cfg = state
        p = Pass()
        p.chat = CallMeter()
        backends = self.chat_backends(tasks, pool, p.chat, tracer)
        evaluator = synth.make_orchestrator_evaluator(pool, backends, K_ROUNDS, THETA)
        with operation(tracer, "scoring", "op.collect"):
            start = now()
            pairs = _collect(tasks, pool, cfg, evaluator, tracer, p)
            corpus_bytes = graphs.write_corpus(pairs).encode()
            p.samples["collect_s"].append(now() - start)
        p.check("top_k_pairs_per_task", len(pairs) == cfg.collector.top_k * len(tasks))
        self.check_digest(p, hashlib.sha256(corpus_bytes).hexdigest())
        return p

    def report(self, passes):
        return {"collect_s": _median_metric([v for p in passes for v in p.samples["collect_s"]], "s")}


WORKLOADS = {w.name: w for w in (TrainWorkload, QueryWorkload, CollectOrchWorkload)}


def layer_metrics(tracer: Tracer, p: Pass) -> dict:
    """Per-layer metrics of one traced pass, each as (value, unit).

    A metric built on a wrapped function that no longer exists is None.
    """
    idx = SpanIndex(tracer.spans)
    wrapped = defaultdict(list)
    for module, attr, name, _, _ in TRACE_TARGETS:
        wrapped[name].append(f"{module.__name__}.{attr}")
    missing = {n for n, attrs in wrapped.items() if all(a in tracer.absent for a in attrs)}

    def spans(name):
        return None if name in missing else idx.named(name)

    def count(name):
        s = spans(name)
        return None if s is None else len(s)

    def busy(name):
        s = spans(name)
        return None if s is None else sum(x.dur for x in s)

    def under(root, name):
        return [d for d in idx.descendants(root) if d.name == name]

    def ratio(a, b):
        return None if a is None or b is None else (a / b if b else 0.0)

    m = {}
    stats = p.stats
    attempts = stats.graphs_scored + stats.graphs_skipped if stats else 0
    evals = count("collector.evaluator")
    m["collector.evaluator_calls"] = (evals, "count")
    m["collector.cache_hit_ratio"] = (ratio(attempts - evals, attempts), "ratio")
    m["collector.evaluator_busy_s"] = (busy("collector.evaluator"), "s")
    collects = spans("collector.collect_supervision")
    m["collector.self_s"] = (None if collects is None else sum(idx.self_s[s.sid] for s in collects), "s")
    m["collector.graphs_skipped"] = (stats.graphs_skipped if stats else 0, "count")

    calls, distinct, embed_busy = p.embed
    m["embed.calls"] = (calls, "count")
    m["embed.distinct_texts"] = (distinct, "count")
    m["embed.useful_ratio"] = (ratio(distinct, calls), "ratio")
    m["embed.busy_s"] = (embed_busy, "s")
    designs = spans("prunenet.design_topology")
    m["embed.calls_per_design"] = (
        None if designs is None else
        (statistics.fmean(len(under(d, "embed.embed")) for d in designs) if designs else 0.0),
        "count",
    )

    trains = spans("prunenet.train")
    train_self = None if trains is None else sum(idx.self_s[s.sid] for s in trains)
    train_compute = None if trains is None else sum(
        s.dur - sum(e.dur for e in under(s, "embed.embed")) for s in trains
    )
    m["prunenet.train.steps"] = (p.steps, "count")
    m["prunenet.step_ms"] = (ratio(None if train_compute is None else train_compute * 1e3, p.steps), "ms")
    for fn in ("loss_and_grads", "forward_losses"):
        m[f"prunenet.{fn}.calls"] = (count(f"prunenet.{fn}"), "count")
        m[f"prunenet.{fn}.busy_s"] = (busy(f"prunenet.{fn}"), "s")
    m["prunenet.train.self_s"] = (train_self, "s")
    m["prunenet.design.self_ms_p50"] = (
        None if designs is None else
        (percentile([idx.self_s[d.sid] * 1e3 for d in designs], 50) if designs else 0.0),
        "ms",
    )

    runs = defaultdict(list)
    for s in spans("orchestrator.run_topology") or ():
        runs[(s.op or "").split(":")[0]].append(s)
    for kind in RUN_KINDS:
        rs = runs.get(kind, [])
        pre = f"orchestrator.{kind}"
        if not rs:
            for metric, unit in (("calls_per_query", "count"), ("critical_path_calls", "count"),
                                 ("self_ms_p50", "ms"), ("visible_history.busy_ms", "ms"),
                                 ("render_prompts.busy_ms", "ms")):
                m[f"{pre}.{metric}"] = (None if "orchestrator.run_topology" in missing else 0.0, unit)
            continue
        m[f"{pre}.calls_per_query"] = (statistics.median(len(under(r, "backends.complete")) for r in rs), "count")
        m[f"{pre}.critical_path_calls"] = (statistics.median(_critical_path_of(r) for r in rs), "count")
        m[f"{pre}.self_ms_p50"] = (percentile([idx.layer_self(r)["orchestrator"] * 1e3 for r in rs], 50), "ms")
        for part in ("visible_history", "render_prompts"):
            name = f"orchestrator.{part}"
            m[f"{pre}.{part}.busy_ms"] = (
                None if name in missing else
                statistics.fmean(sum(d.dur for d in under(r, name)) for r in rs) * 1e3,
                "ms",
            )

    chat = p.chat or CallMeter()
    m["backends.calls"] = (chat.calls, "count")
    m["backends.busy_s"] = (chat.busy_s, "s")
    m["backends.failures"] = (chat.failures, "count")
    m["backends.max_in_flight"] = (chat.max_in_flight, "count")

    roots = [s for s in idx.spans if s.layer == "harness"]
    root_s = sum(s.dur for s in roots)
    m["trace.unaccounted_ratio"] = (ratio(sum(idx.self_s[s.sid] for s in roots), root_s), "ratio")
    return m


def _critical_path_of(run_span) -> int:
    args, kwargs = run_span.info
    bound = inspect.signature(orchestrator.run_topology).bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    return critical_path_calls(a["t"], a["k"], a["theta"])


def method_breakdown(tracer: Tracer) -> dict:
    """Mean latency per query method and the mean self time of each layer in it."""
    idx = SpanIndex(tracer.spans)
    out = {}
    for method in METHODS:
        roots = idx.named(f"query.{method}")
        if not roots:
            continue
        per_layer = defaultdict(float)
        for r in roots:
            for layer, t in idx.layer_self(r).items():
                per_layer[layer] += t
        n = len(roots)
        out[method] = {
            "latency_ms_mean": sum(r.dur for r in roots) / n * 1e3,
            "self_ms_mean": {k: v / n * 1e3 for k, v in sorted(per_layer.items())},
            "runs": n,
        }
    return out
