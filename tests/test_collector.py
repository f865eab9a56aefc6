import math
import os
import re
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from commtopo import collector, orchestrator
from commtopo.backends import MAX_IN_FLIGHT
from commtopo.collector import (
    CollectorConfig,
    SampledGraph,
    TaskSpec,
    answer_matches,
    collect_supervision,
    mine_supervision,
    sample_orders,
    sample_subset,
    score_graph,
    read_tasks,
)
from commtopo.graphs import write_corpus
from commtopo.errors import ConfigError, MineUnderflow, ScoreUnavailable, ValidationError
from commtopo.graphs import Topology
from commtopo.pool import AgentPool, load_default_pool
from commtopo.synth import (
    make_orchestrator_evaluator,
    make_planted_evaluator,
    make_planted_suite,
    planted_backends,
    planted_utility,
)
from analysis import accepted_mass, order_distribution, order_ks_statistic
from memory import traced_peak
from taskfiles import write_tasks


def task(tid="t0", team=None):
    return TaskSpec(tid, f"question {tid}", "math_reasoning", "42", "exact", team)


class TestSampleOrders:
    def test_budget_and_range(self):
        cfg = CollectorConfig(budget=2000, sigma=2.0, seed=0)
        orders = sample_orders(cfg, 16)
        assert len(orders) == 2000
        assert min(orders) >= 2 and max(orders) <= 16
        assert 7.0 <= np.mean(orders) <= 9.0

    def test_degenerate_sigma_pins_mean(self):
        cfg = CollectorConfig(budget=200, sigma=0.01, mu=8.0, seed=1)
        assert set(sample_orders(cfg, 16)) == {8}

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_sigma_rejected(self, sigma):
        # rejection sampling would never accept a draw and loop forever
        with pytest.raises(ConfigError, match="sigma"):
            CollectorConfig(sigma=sigma).validate(16)

    @pytest.mark.parametrize("sigma", [1e300, 1e6], ids=["1e300", "1e6"])
    def test_sigma_too_wide_to_sample_rejected(self, sigma):
        # validate only: sample_orders would draw for hours (1e6) or forever (1e300)
        with pytest.raises(ConfigError, match="sigma"):
            CollectorConfig(sigma=sigma).validate(16)

    def test_wide_but_sampleable_sigma_accepted(self):
        cfg = CollectorConfig(budget=50, sigma=100.0, seed=3)
        cfg.validate(16)
        assert len(sample_orders(cfg, 16)) == 50

    def test_seeded_determinism(self):
        cfg = CollectorConfig(budget=500, seed=42)
        assert sample_orders(cfg, 16) == sample_orders(cfg, 16)

    def test_ks_statistic_small_over_seeds(self):
        stats = []
        for seed in range(5):
            cfg = CollectorConfig(budget=2000, sigma=2.0, seed=seed)
            stats.append(order_ks_statistic(sample_orders(cfg, 16), cfg, 16))
        assert np.mean(stats) < 0.05

    def test_distribution_sums_to_one(self):
        pmf = order_distribution(CollectorConfig(sigma=2.0), 16)
        assert abs(pmf.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("n_max", [3, 5, 16])
    @pytest.mark.parametrize("sigma", [0.05, 1.5, 2.0, 40.0])
    def test_distribution_equals_scipy_stats_norm(self, n_max, sigma):
        from scipy.stats import norm

        for mu in np.linspace(2, n_max, 5):
            cfg = CollectorConfig(mu=float(mu), sigma=sigma)
            z = norm.cdf(n_max, mu, sigma) - norm.cdf(2, mu, sigma)
            want = [
                (norm.cdf(min(k + 0.5, n_max), mu, sigma) - norm.cdf(max(k - 0.5, 2.0), mu, sigma)) / z
                for k in range(2, n_max + 1)
            ]
            assert accepted_mass(cfg, n_max) == z
            assert order_distribution(cfg, n_max).tolist() == want


@settings(max_examples=300, deadline=None)
@given(
    st.integers(3, 64).flatmap(lambda n: st.tuples(st.just(n), st.floats(2, n))),
    st.floats(1e-3, 1e7),
)
def test_guard_mass_matches_accepted_mass(n_max_mu, sigma):
    n_max, mu = n_max_mu
    cfg = CollectorConfig(mu=mu, sigma=sigma)
    want = accepted_mass(cfg, n_max)
    # Each side subtracts two normal cdf values computed by a different erf, each
    # within an ulp or so of the true value: 2**-51 bounds the gap of the difference.
    tol = 1e-12 * want + 2**-51
    if abs(want - cfg.MIN_ACCEPTED_MASS) > 1e-9 * cfg.MIN_ACCEPTED_MASS:
        if want >= cfg.MIN_ACCEPTED_MASS:
            cfg.validate(n_max)
        else:
            with pytest.raises(ConfigError, match="sigma"):
                cfg.validate(n_max)
    # validate accepts iff its mass reaches the threshold, so two thresholds bracket that mass
    cfg.MIN_ACCEPTED_MASS = want - tol
    cfg.validate(n_max)
    cfg.MIN_ACCEPTED_MASS = want + tol
    with pytest.raises(ConfigError, match="sigma"):
        cfg.validate(n_max)


def test_importing_commtopo_loads_neither_scipy_stats_nor_optimize():
    # nor any other scipy module: scipy.special alone took half the start-up of a command
    code = (
        "import importlib, pkgutil, sys, commtopo\n"
        "for m in pkgutil.iter_modules(commtopo.__path__):\n"
        "    importlib.import_module('commtopo.' + m.name)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestSampleSubset:
    def test_full_order_forces_whole_pool(self):
        pool = load_default_pool()
        g = sample_subset(pool.n_max, pool, np.random.default_rng(0))
        assert list(g.members) == list(range(pool.n_max))

    def test_members_strictly_ascending(self):
        pool = load_default_pool()
        rng = np.random.default_rng(7)
        for _ in range(50):
            g = sample_subset(5, pool, rng)
            assert list(g.members) == sorted(set(g.members))
            assert np.array_equal(g.topology.adj, Topology.complete(5).adj)

    def test_pairs_roughly_uniform(self):
        # order 2 over a 3-agent pool: each pair should appear ~1/3 of draws
        from commtopo.pool import AgentPool, AgentProfile

        agents = [
            AgentProfile(i, f"Agent {i}", "duty", "<Profile>: <Task>")
            for i in range(3)
        ]
        pool = AgentPool(tuple(agents))
        rng = np.random.default_rng(123)
        counts = {}
        for _ in range(10000):
            g = sample_subset(2, pool, rng)
            counts[g.members] = counts.get(g.members, 0) + 1
        for pair_count in counts.values():
            assert abs(pair_count / 10000 - 1 / 3) < 0.05

    def test_out_of_range_order(self):
        pool = load_default_pool()
        with pytest.raises(ValidationError, match=re.escape(f"order 1 outside [2, {pool.n_max}]")):
            sample_subset(1, pool, np.random.default_rng(0))
        with pytest.raises(ValidationError, match=re.escape(f"order {pool.n_max + 1} outside [2, {pool.n_max}]")):
            sample_subset(pool.n_max + 1, pool, np.random.default_rng(0))


class TestScoreGraph:
    def graph(self, members):
        return SampledGraph(tuple(members), Topology.complete(len(members)))

    def test_mock_rewards_agent_presence(self):
        def evaluator(g, t):
            return 1.0 if 11 in g.members else 0.0

        assert score_graph(self.graph([3, 11]), task(), evaluator) == 1.0
        assert score_graph(self.graph([3, 4]), task(), evaluator) == 0.0

    def test_failure_wrapped(self):
        def evaluator(g, t):
            raise RuntimeError("backend down")

        with pytest.raises(ScoreUnavailable):
            score_graph(self.graph([0, 1]), task(), evaluator)

    def test_nan_is_unavailable(self):
        with pytest.raises(ScoreUnavailable, match="NaN"):
            score_graph(self.graph([0, 1]), task(), lambda g, t: float("nan"))

    @pytest.mark.parametrize(
        "raw", [math.inf, -math.inf, -0.0, 0.0, 1.0, 1.5, -3.0, 0.3, 5e-324, 1.0000000000000002]
    )
    def test_clip_is_bitwise_np_clip(self, raw):
        got = score_graph(self.graph([0, 1]), task(), lambda g, t: raw)
        assert struct.pack("<d", got) == struct.pack("<d", float(np.clip(raw, 0.0, 1.0)))


class TestMineSupervision:
    def graph(self, members):
        return SampledGraph(tuple(members), Topology.complete(len(members)))

    def test_top_two_selected(self):
        t = task()
        scored = {
            t: [
                (self.graph([0, 1]), 0.9),
                (self.graph([2, 3]), 0.8),
                (self.graph([4, 5]), 0.7),
            ]
        }
        pairs = mine_supervision(scored, CollectorConfig(top_k=2), 15)
        assert len(pairs) == 2
        assert pairs[0].score == 0.9 and pairs[1].score == 0.8

    def test_tie_prefers_fewer_members(self):
        t = task()
        scored = {
            t: [
                (self.graph([0, 1, 2, 3, 4]), 0.9),
                (self.graph([5, 6, 7]), 0.9),
            ]
        }
        pairs = mine_supervision(scored, CollectorConfig(top_k=2), 15)
        assert list(np.flatnonzero(pairs[0].y.m)) == [5, 6, 7]

    def test_emitted_pairs_validate(self):
        t = task()
        scored = {t: [(self.graph([1, 4, 9]), 0.5), (self.graph([2, 3]), 0.4)]}
        pairs = mine_supervision(scored, CollectorConfig(top_k=2), 15)
        for p in pairs:
            active = p.y.m
            inactive = np.flatnonzero(active == 0)
            assert p.a_gt.w[inactive, :].sum() == 0
            assert p.a_gt.w[:, inactive].sum() == 0

    def test_underflow(self):
        scored = {task(): [(self.graph([0, 1]), 0.5)]}
        with pytest.raises(MineUnderflow):
            mine_supervision(scored, CollectorConfig(top_k=2), 15)


class TestCollectSupervision:
    def test_tasks_sharing_an_id_are_rejected(self):
        # the corpus names each task by its id, so pairs mined for task "b"
        # could not be told from task "a"'s
        tasks = [
            TaskSpec("same", "a", "math_reasoning", "a"),
            TaskSpec("same", "b", "math_reasoning", "b"),
        ]
        seen = []

        def evaluator(g, t):
            seen.append(t.task_text)
            return 1.0

        cfg = CollectorConfig(budget=20, top_k=1, seed=0)
        with pytest.raises(ConfigError, match="duplicate task id 'same'"):
            collect_supervision(tasks, load_default_pool(), cfg, evaluator)
        assert seen == []

    def test_pair_count_is_topk_times_tasks(self):
        pool = load_default_pool()
        tasks = [task(f"t{i}", team=(1, 2, 3)) for i in range(10)]
        cfg = CollectorConfig(budget=100, seed=5)
        pairs, stats = collect_supervision(tasks, pool, cfg, make_planted_evaluator())
        assert len(pairs) == 20
        assert stats.pairs == 20
        assert stats.tasks == 10

    def test_deterministic_given_seed(self):
        pool = load_default_pool()
        tasks = [task(f"t{i}", team=(1, 2, 3)) for i in range(5)]
        cfg = CollectorConfig(budget=60, seed=9)
        a, _ = collect_supervision(tasks, pool, cfg, make_planted_evaluator())
        b, _ = collect_supervision(tasks, pool, cfg, make_planted_evaluator())
        assert [p.to_json_line() for p in a] == [p.to_json_line() for p in b]

    def test_planted_top1_exact_when_team_sampled(self):
        # when the exact planted team is among a task's candidates, the
        # overlap evaluator plus fewer-members tie-break mines it first
        pool = load_default_pool()
        team = (2, 5, 9)
        t = task("t0", team=team)
        cfg = CollectorConfig(budget=40, mu=4.0, sigma=1.5, seed=11)
        evaluator = make_planted_evaluator("overlap")
        pairs, _ = collect_supervision([t], pool, cfg, evaluator)
        sampled_team = any(
            list(np.flatnonzero(p.y.m)) == list(team) for p in pairs
        )
        # force the property by scoring a pool that includes the team
        from commtopo.collector import mine_supervision as mine

        graphs = [
            SampledGraph((2, 5, 9), Topology.complete(3)),
            SampledGraph((2, 5, 9, 12), Topology.complete(4)),
            SampledGraph((0, 1), Topology.complete(2)),
        ]
        scored = {t: [(g, evaluator(g, t)) for g in graphs]}
        mined = mine(scored, CollectorConfig(top_k=2), pool.n_max)
        assert list(np.flatnonzero(mined[0].y.m)) == list(team)


class TestCollectCap:
    def test_a_collect_at_the_cap_runs_and_one_past_it_stops_before_sampling(self, monkeypatch):
        # 10 graphs, each scored on all 4 tasks: stride = min(4, round(20 * 4 / 10)) = 4
        tasks = [task(f"t{i}", team=(1, 2, 3)) for i in range(4)]
        cfg = CollectorConfig(budget=10, top_k=1, candidates_per_task=20, seed=0)
        calls = []
        monkeypatch.setattr(collector, "sample_orders", lambda *a: calls.append(a) or sample_orders(*a))
        monkeypatch.setattr(collector, "MAX_OCCURRENCES", 40)
        _, stats = collect_supervision(tasks, load_default_pool(), cfg, make_planted_evaluator())
        assert stats.graphs_scored == 40 and len(calls) == 1
        monkeypatch.setattr(collector, "MAX_OCCURRENCES", 39)
        with pytest.raises(ConfigError, match=r"budget 10 graphs x 4 target tasks each = 40 .* more than 39"):
            collect_supervision(tasks, load_default_pool(), cfg, make_planted_evaluator())
        assert len(calls) == 1

    def test_a_collect_past_the_cap_exits_1_in_one_line_under_a_memory_limit(self, tmp_path):
        # candidates_per_task past the budget scores every graph on every task: 20,000 x 200
        # occurrences, which ran out of a 2 GB address space in the merge after about 14 s
        (tmp_path / "tasks.jsonl").write_text(write_tasks(make_planted_suite(seed=2).train_tasks[:200]))
        (tmp_path / "huge.ini").write_text("[collector]\ncandidates_per_task = 1000000000\n")
        argv = [sys.executable, "-m", "commtopo.cli", "--config", "huge.ini", "collect",
                "--tasks", "tasks.jsonl", "--budget", "20000", "--out", "corpus.jsonl"]
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(collector.__file__))}
        out = subprocess.run(["sh", "-c", 'ulimit -v 2000000 && exec "$@"', "sh", *argv], cwd=tmp_path,
                             env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 1, out.stderr
        assert out.stderr.splitlines() == [
            "error: budget 20000 graphs x 200 target tasks each = 4000000 (graph, task) pairs, "
            "more than 1000000; lower budget or candidates_per_task"
        ]


def sequential_collect(tasks, pool, cfg, evaluator):
    """The one-key-at-a-time loop the concurrent schedule replaced, kept as
    the reference: a key's utility, or its failure, stands for each of its
    occurrences, and the first skipped occurrence is the first skip."""
    cfg.validate(pool.n_max)
    rng = np.random.default_rng(cfg.seed)
    orders = sample_orders(cfg, pool.n_max, rng)
    n_tasks = len(tasks)
    stride = min(n_tasks, max(1, round(cfg.candidates_per_task * n_tasks / cfg.budget)))
    gap = max(1, n_tasks // stride)
    scored = {t: [] for t in tasks}
    cache = {}
    stats = collector.CollectStats(tasks=n_tasks)
    for i, order in enumerate(orders):
        graph = sample_subset(order, pool, rng)
        targets = sorted({(i + s * gap) % n_tasks for s in range(stride)})
        for t in (tasks[j] for j in targets):
            key = (graph.members, t.task_id)
            if key not in cache:
                try:
                    cache[key] = score_graph(graph, t, evaluator)
                except ScoreUnavailable as exc:
                    cache[key] = exc
            utility = cache[key]
            if isinstance(utility, ScoreUnavailable):
                stats.graphs_skipped += 1
                stats.first_skip = stats.first_skip or f"graph {graph.members} on task {t.task_id}: {utility}"
                continue
            scored[t].append((graph, utility))
            stats.graphs_scored += 1
    pairs = mine_supervision(scored, cfg, pool.n_max, stats.first_skip)
    stats.pairs = len(pairs)
    for p in pairs:
        stats.category_histogram[p.category] = stats.category_histogram.get(p.category, 0) + 1
    return pairs, stats


class FlakyEvaluator:
    """Utility from a checksum of (members, task id): some keys fail,
    by a backend error or as unavailable, some are NaN or out of [0, 1].
    Like every `Evaluator`, it depends on (graph, task) alone.  Records
    the calls made for each key."""

    def __init__(self, modulus):
        self.modulus = modulus
        self.calls = {}
        self._lock = threading.Lock()

    def __call__(self, g, t):
        key = (g.members, t.task_id)
        with self._lock:
            self.calls.setdefault(key, []).append(t.task_text)
        r = zlib.crc32(repr(key).encode()) % self.modulus
        if r == 0:
            raise RuntimeError("backend down")
        if r == 1:
            raise ScoreUnavailable("busy")
        if r == 2:
            return float("nan")
        if r == 3:
            return 1.5
        return r / self.modulus


class ConstantEvaluator(FlakyEvaluator):
    """One utility for every key, so mining ranks by its tie-breaks alone.
    Records the calls made for each key."""

    def __call__(self, g, t):
        with self._lock:
            self.calls.setdefault((g.members, t.task_id), []).append(t.task_text)
        return 0.5


def collect_outcome(run, tasks, pool, cfg, evaluator):
    """The corpus lines and stats, whose first skip and skip count are
    compared too, or the MineUnderflow message; and the evaluator's calls."""
    try:
        pairs, stats = run(tasks, pool, cfg, evaluator)
        result = ([p.to_json_line() for p in pairs], stats)
    except MineUnderflow as exc:
        result = str(exc)
    return result, evaluator.calls


class TestConcurrentCollect:
    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_equals_the_sequential_collect(self, data):
        # keys repeat when a member set is drawn again for the same task,
        # which a small pool makes common
        pool = AgentPool(load_default_pool().agents[: data.draw(st.sampled_from([5, 15]))])
        n_tasks = data.draw(st.integers(1, 8))
        tasks = [TaskSpec(f"t{j}", f"question {j}", "math_reasoning", "42") for j in range(n_tasks)]
        cfg = CollectorConfig(
            budget=data.draw(st.integers(1, 40)),
            mu=data.draw(st.sampled_from([2.0, 3.0, 5.0])),
            sigma=data.draw(st.sampled_from([0.5, 1.5])),
            top_k=data.draw(st.integers(1, 3)),
            candidates_per_task=data.draw(st.integers(1, 8)),
            seed=data.draw(st.integers(0, 2**16)),
        )
        # a constant utility leaves every rank to the tie-breaks: member
        # count, then members, then first occurrence
        make, modulus = data.draw(st.sampled_from(
            [(FlakyEvaluator, 4), (FlakyEvaluator, 7), (FlakyEvaluator, 50), (ConstantEvaluator, None)]
        ))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, so a lost update would show
        try:
            got = collect_outcome(collect_supervision, tasks, pool, cfg, make(modulus))
        finally:
            sys.setswitchinterval(interval)
        want = collect_outcome(sequential_collect, tasks, pool, cfg, make(modulus))
        assert got == want

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_submission_order_equals_the_sequential_collect(self, data):
        # the merge, not the order the units run in, fixes the corpus, the stats and the first skip
        n_agents = data.draw(st.sampled_from([3, 5, 15]))
        pool = AgentPool(load_default_pool().agents[:n_agents])
        n_tasks = data.draw(st.integers(1, 8))
        tasks = [TaskSpec(f"t{j}", f"question {j}", "math_reasoning", "42") for j in range(n_tasks)]
        cfg = CollectorConfig(
            budget=data.draw(st.integers(1, 60)),
            mu=data.draw(st.sampled_from([mu for mu in (2.0, 3.0, 5.0) if mu <= n_agents])),
            sigma=data.draw(st.sampled_from([0.5, 1.5])),
            top_k=data.draw(st.integers(1, 2)),
            candidates_per_task=data.draw(st.integers(1, 8)),
            seed=data.draw(st.integers(0, 2**16)),
        )
        modulus = data.draw(st.sampled_from([4, 7, 50]))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(collector, "_longest_first", lambda units, *rest: data.draw(st.permutations(units)))
            got = collect_outcome(collect_supervision, tasks, pool, cfg, FlakyEvaluator(modulus))
        want = collect_outcome(sequential_collect, tasks, pool, cfg, FlakyEvaluator(modulus))
        assert got == want

    @pytest.mark.parametrize("n_agents", [3, 4, 5])
    def test_each_key_reaches_the_evaluator_once_where_keys_repeat(self, n_agents):
        # at most 26 member sets for 3 tasks: many (member set, task) keys
        # occur more than once, and scoring each occurrence made 1.5 to 9
        # times the calls
        pool = AgentPool(load_default_pool().agents[:n_agents])
        tasks = [task(f"t{i}") for i in range(3)]
        cfg = CollectorConfig(budget=60, mu=3.0, sigma=1.0, top_k=1, candidates_per_task=60, seed=n_agents)
        evaluator = ConstantEvaluator(None)
        _, stats = collect_supervision(tasks, pool, cfg, evaluator)
        assert stats.graphs_scored == 60 * 3
        assert set(map(len, evaluator.calls.values())) == {1}
        assert len(evaluator.calls) < 60 * 3 * 2 / 3

    def test_a_failed_key_is_scored_once_and_skips_each_of_its_occurrences(self):
        # 4 member sets of 3 agents on 2 tasks: at most 8 keys in 40 occurrences
        pool = AgentPool(load_default_pool().agents[:3])
        tasks = [task(f"t{i}") for i in range(2)]
        cfg = CollectorConfig(budget=20, mu=2.0, top_k=1, candidates_per_task=20, seed=1)
        evaluator = FlakyEvaluator(4)
        _, stats = collect_supervision(tasks, pool, cfg, evaluator)
        failing = {key for key in evaluator.calls if zlib.crc32(repr(key).encode()) % 4 < 3}
        assert failing and set(map(len, evaluator.calls.values())) == {1}
        assert stats.graphs_skipped > len(failing)

    def test_a_collect_whose_every_key_fails_logs_and_warns_nothing_and_names_its_first_skip(self, caplog, recwarn):
        # it used to log one warning per skipped occurrence, 24 here, each a bare stderr line under the CLI
        tasks = [task(f"t{i}") for i in range(3)]
        cfg = CollectorConfig(budget=8, candidates_per_task=8, seed=3)

        def evaluator(g, t):
            raise ConnectionRefusedError(111, "Connection refused")

        with pytest.raises(MineUnderflow) as raised:
            collect_supervision(tasks, load_default_pool(), cfg, evaluator)
        rng = np.random.default_rng(cfg.seed)
        first = sample_subset(sample_orders(cfg, 15, rng)[0], load_default_pool(), rng)  # graph 0, on tasks 0-2
        assert str(raised.value) == (
            f"task t0: 0 scored graphs < top_k=2; first skip: graph {first.members} on task t0: "
            "[Errno 111] Connection refused"
        )
        assert caplog.records == [] and len(recwarn) == 0

    def test_scorings_are_in_flight_at_once(self):
        barrier = threading.Barrier(4, timeout=5)
        lock = threading.Lock()
        calls = [0]

        def evaluator(g, t):
            with lock:
                calls[0] += 1
                first = calls[0] <= 4
            if first:
                barrier.wait()  # breaks after 5 s unless four scorings run together
            return 0.5

        tasks = [task(f"t{i}") for i in range(8)]
        cfg = CollectorConfig(budget=40, candidates_per_task=5, seed=1)
        _, stats = collect_supervision(tasks, load_default_pool(), cfg, evaluator)
        assert stats.graphs_skipped == 0

    def test_raising_merge_cancels_queued_units(self, monkeypatch):
        class Interrupt(BaseException):
            pass

        pool = load_default_pool()
        tasks = [task(f"t{i}") for i in range(40)]
        cfg = CollectorConfig(budget=40, candidates_per_task=20, seed=4)  # 800 keys in 67 units: 66 of 12, 1 of 8
        units, calls = [], []
        lock = threading.Lock()

        score_unit = collector._score_unit
        monkeypatch.setattr(collector, "_score_unit", lambda unit, *rest: units.append(unit) or score_unit(unit, *rest))

        def evaluator(g, t):
            with lock:
                calls.append(g.members)
                first = len(calls) == 1
            if first:
                raise Interrupt
            time.sleep(0.02)
            return 0.5

        threads = threading.active_count()
        with pytest.raises(Interrupt):
            collect_supervision(tasks, pool, cfg, evaluator)
        assert threading.active_count() == threads
        made = len(calls)
        time.sleep(0.05)
        assert len(calls) == made  # nothing runs after the call returns
        assert len(units) < 67  # queued units never start
        assert made < 100  # running units stop before their next scoring (300 if they ran out)

    def test_orchestrator_scorings_share_one_bounded_pool(self, monkeypatch):
        pools = {"collector": [], "orchestrator": []}  # max_workers of each pool made
        submits = {"collector": [], "orchestrator": []}  # one item per submit
        for name, module in (("collector", collector), ("orchestrator", orchestrator)):

            class Recording(module.ThreadPoolExecutor):
                def __init__(self, *args, _made=pools[name], **kwargs):
                    _made.append(kwargs.get("max_workers", args[0] if args else None))
                    super().__init__(*args, **kwargs)

                def submit(self, *args, _submitted=submits[name], **kwargs):
                    _submitted.append(None)
                    return super().submit(*args, **kwargs)

            monkeypatch.setattr(module, "ThreadPoolExecutor", Recording)
        suite = make_planted_suite(4, 0, seed=5)
        pool = load_default_pool()
        backends = planted_backends(suite.train_tasks, pool)
        lock = threading.Lock()
        threads, in_flight = set(), [0, 0]  # now, peak

        class Counting:
            def __init__(self, inner):
                self.inner = inner

            def complete(self, system, user):
                with lock:
                    threads.add(threading.get_ident())
                    in_flight[0] += 1
                    in_flight[1] = max(in_flight)
                time.sleep(0.0005)
                try:
                    return self.inner.complete(system, user)
                finally:
                    with lock:
                        in_flight[0] -= 1

        counted = type(backends)(default=Counting(backends.default), decision=Counting(backends.decision))
        cfg = CollectorConfig(budget=60, mu=5.0, sigma=1.5, candidates_per_task=4, seed=2)
        got, _ = collect_supervision(suite.train_tasks, pool, cfg, make_orchestrator_evaluator(pool, counted))
        want, _ = sequential_collect(suite.train_tasks, pool, cfg, make_orchestrator_evaluator(pool, backends))
        assert write_corpus(got) == write_corpus(want)
        # a scoring runs a complete graph, whose one-agent waves start no thread of their run's pool
        assert pools["collector"] == [MAX_IN_FLIGHT] and submits["orchestrator"] == []
        assert 1 < len(threads) <= MAX_IN_FLIGHT
        assert 1 < in_flight[1] <= MAX_IN_FLIGHT

    def test_nan_utility_is_skipped_and_named_as_the_first_skip(self):
        # a NaN used to pass the clip and abort mining with "score must lie in [0, 1]"
        pool = load_default_pool()
        tasks = [task(f"t{i}", team=(1, 2, 3)) for i in range(5)]
        cfg = CollectorConfig(budget=60, seed=9)
        planted = make_planted_evaluator()

        def evaluator(g, t):
            return float("nan") if len(g.members) == 4 else planted(g, t)

        pairs, stats = collect_supervision(tasks, pool, cfg, evaluator)
        assert stats.graphs_skipped > 0
        assert len(pairs) == 10
        assert re.fullmatch(r"graph \(\d+(, \d+){3}\) on task t\d: utility is NaN", stats.first_skip)


def recording_units(monkeypatch):
    """The units `collect_supervision` scores, each as the list of its
    (members, task id) keys."""
    units = []
    score_unit = collector._score_unit

    def record(unit, graphs, tasks, stride, target, *rest):
        units.append([(graphs[p // stride].members, tasks[target[p]].task_id) for p in unit])
        return score_unit(unit, graphs, tasks, stride, target, *rest)

    monkeypatch.setattr(collector, "_score_unit", record)
    return units


class TestCollectUnits:
    def test_orchestrator_scorings_at_benchmark_sizes_take_one_key_per_unit(self, monkeypatch):
        # 10 tasks per family, budget 60, 4 candidates per task: 120 scorings of 2 tasks per graph
        suite = make_planted_suite(10, 0, seed=3)
        pool = load_default_pool()
        cfg = CollectorConfig(budget=60, mu=5.0, sigma=1.5, candidates_per_task=4, seed=8)
        units = recording_units(monkeypatch)
        evaluator = make_orchestrator_evaluator(pool, planted_backends(suite.train_tasks, pool))
        got, _ = collect_supervision(suite.train_tasks, pool, cfg, evaluator)
        want, _ = sequential_collect(suite.train_tasks, pool, cfg, evaluator)
        assert write_corpus(got) == write_corpus(want)
        assert len(units) > 100 and all(len(unit) == 1 for unit in units)

    def test_orchestrator_scorings_at_benchmark_sizes_start_longest_first(self, monkeypatch):
        suite = make_planted_suite(10, 0, seed=3)
        pool = load_default_pool()
        cfg = CollectorConfig(budget=60, mu=5.0, sigma=1.5, candidates_per_task=4, seed=8)
        evaluator = make_orchestrator_evaluator(pool, planted_backends(suite.train_tasks, pool))
        sampled = []  # each occurrence's key, in sampling order
        sequential_collect(
            suite.train_tasks, pool, cfg, lambda g, t: sampled.append((g.members, t.task_id)) or evaluator(g, t)
        )
        monkeypatch.setattr(collector, "MAX_IN_FLIGHT", 1)  # one worker starts the units as submitted
        units = recording_units(monkeypatch)
        collect_supervision(suite.train_tasks, pool, cfg, evaluator)
        members = [len(unit[0][0]) for unit in units]
        assert members == sorted(members, reverse=True) and len(set(members)) > 1
        assert [unit[0] for unit in units] == sorted(sampled, key=lambda key: len(key[0]), reverse=True)

    def test_many_keys_go_into_at_most_one_unit_more_than_the_unit_count(self, monkeypatch):
        # 300 graphs on 20 of 300 tasks each: 6,000 occurrences, each of its own key
        tasks = [task(f"t{i}", team=(1, 2, 3)) for i in range(300)]
        pool = load_default_pool()
        cfg = CollectorConfig(budget=300, candidates_per_task=20, seed=6)
        units = recording_units(monkeypatch)
        got, stats = collect_supervision(tasks, pool, cfg, make_planted_evaluator())
        want, _ = sequential_collect(tasks, pool, cfg, make_planted_evaluator())
        assert write_corpus(got) == write_corpus(want)
        keys = [key for unit in units for key in unit]
        assert len(set(keys)) == len(keys) == stats.graphs_scored == 6000
        assert len(units) <= 4 * MAX_IN_FLIGHT + 1
        # units are recorded as pool threads start them, so the short remainder need not come last
        sizes = sorted(len(unit) for unit in units)
        assert set(sizes[1:]) == {len(keys) // (4 * MAX_IN_FLIGHT)}


class TestCollectMemory:
    def test_traced_peak_stays_within_the_sequential_collect(self):
        # 1,500 tasks, 20 candidates each from 300 graphs: 30,000
        # occurrences.  The sequential loop keeps every scored graph and a
        # dict entry per key; the concurrent one keeps flat columns and a
        # running top-k per task, and peaks at about 0.26 times its memory
        tasks = make_planted_suite(500, 0, seed=100).train_tasks
        pool = load_default_pool()
        cfg = CollectorConfig(budget=300, mu=5.0, sigma=1.5, candidates_per_task=20, seed=1)
        peaks = []
        for collect in (sequential_collect, collect_supervision):
            tracemalloc.start()
            try:
                collect(tasks, pool, cfg, make_planted_evaluator())
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0]

    def test_a_collect_of_200000_occurrences_traces_at_most_60_bytes_each(self):
        # 600 tasks at stride 100 from 2,000 graphs.  A key -> id dict over
        # every key in pass 1 and every scored (graph, utility) in pass 2
        # traced 163 bytes per occurrence; a target, a first-occurrence
        # and a utility column and a running top-k per task trace about 26
        tasks = make_planted_suite(200, 0, seed=2).train_tasks
        cfg = CollectorConfig(budget=2_000, candidates_per_task=333, seed=0)
        (_, stats), peak = traced_peak(collect_supervision, tasks, load_default_pool(), cfg, make_planted_evaluator())
        assert stats.graphs_scored == 200_000
        assert peak / stats.graphs_scored <= 60

    def test_a_collect_whose_member_sets_mostly_repeat_traces_at_most_40_bytes_per_occurrence(self):
        # 2,000 graphs of 2 to 4 of 15 agents on 30 of 600 tasks each: 84% of
        # the graphs share their member set with another, yet nearly every
        # (member set, task) key occurs once.  A key -> id dict over the
        # repeated sets' keys traced 131 bytes per occurrence; a dict per
        # repeated set, dropped after it, traces about 32
        tasks = make_planted_suite(200, 0, seed=2).train_tasks
        cfg = CollectorConfig(budget=2_000, mu=3.0, sigma=0.5, candidates_per_task=100, seed=0)
        (_, stats), peak = traced_peak(collect_supervision, tasks, load_default_pool(), cfg, lambda g, t: 0.5)
        assert stats.graphs_scored == 60_000
        assert peak / stats.graphs_scored <= 40

    def test_graphs_of_one_order_share_one_complete_topology(self):
        # each graph held its own complete adjacency: 1,174 traced bytes per graph at the peak
        tasks = make_planted_suite(2, 0, seed=100).train_tasks[:1]
        budget = 10_000
        tracemalloc.start()
        try:
            collect_supervision(tasks, load_default_pool(), CollectorConfig(budget=budget, seed=0),
                                make_planted_evaluator())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / budget <= 700


class TestPlantedUtility:
    def test_superset_scores_one_in_overlap_mode(self):
        assert planted_utility((1, 2, 3, 7), (1, 2, 3), "overlap") == 1.0

    def test_partial_overlap_fraction(self):
        assert planted_utility((1, 2, 8), (1, 2, 3), "overlap") == pytest.approx(2 / 3)

    def test_jaccard_maximized_only_by_exact_team(self):
        team = (1, 2, 3)
        exact = planted_utility(team, team, "jaccard")
        assert exact == 1.0
        assert planted_utility((1, 2, 3, 4), team, "jaccard") < 1.0
        assert planted_utility((1, 2), team, "jaccard") < 1.0


def reference_planted_utility(members, team, mode):
    """The int-converting scorer that ``planted_utility`` replaced, kept as the reference."""
    members = set(int(v) for v in members)
    team = set(int(v) for v in team)
    inter = len(members & team)
    if mode == "overlap":
        return 1.0 if team <= members else inter / len(team)
    return inter / len(members | team)


IDS = st.lists(st.integers(0, 14), unique=True, max_size=15)
KINDS = st.sampled_from([list, tuple, lambda ids: np.array(ids, dtype=np.int64)])


class TestPlantedUtilityInputs:
    @settings(max_examples=200, deadline=None)
    @given(members=IDS, team=IDS.filter(bool), kinds=st.tuples(KINDS, KINDS),
           mode=st.sampled_from(["overlap", "jaccard"]))
    def test_equals_the_int_converting_reference(self, members, team, kinds, mode):
        members, team = kinds[0](members), kinds[1](team)
        assert planted_utility(members, team, mode) == reference_planted_utility(members, team, mode)


class TestTaskIO:
    def test_round_trip(self):
        tasks = [task("a", team=(0, 1, 2)), task("b")]
        back = read_tasks(write_tasks(tasks))
        assert back == tasks

    def test_answer_matching_rules(self):
        exact = TaskSpec("t", "q", "math_reasoning", "42", "exact")
        assert answer_matches(exact, " 42 ")
        assert not answer_matches(exact, "43")
        contains = TaskSpec("t", "q", "math_reasoning", "42", "contains")
        assert answer_matches(contains, "the answer is 42, final")
        numeric = TaskSpec("t", "q", "math_reasoning", "6.0", "numeric")
        assert answer_matches(numeric, "after solving we get 6")
        assert not answer_matches(numeric, "after solving we get 7")

    @pytest.mark.parametrize(
        "expected, answer, matches",
        [
            ("1,000", "7,000", False),  # both used to read as 0
            ("1000", "the total is 1,000", True),
            ("1,000,000", "so 1000000.", True),
            ("1234.5", "1,234.5", True),
            ("3", "x = 1, 2, 3", True),  # a comma before other than three digits separates
            ("0", "1,0000", True),
            ("12", "12,34", False),
            ("12", "The answer is 12, not infinity", True),  # words and Python-only literals are no numbers
            ("12", "12; inf", True),
            ("12", "12 or nan", True),
            ("12", "1_2", False),
        ],
    )
    def test_numeric_answers_group_thousands(self, expected, answer, matches):
        assert answer_matches(TaskSpec("t", "q", "math_reasoning", expected, "numeric"), answer) is matches


class TestPlantedSuite:
    def test_families_and_counts(self):
        suite = make_planted_suite(20, 5, seed=3)
        assert len(suite.train_tasks) == 60
        assert len(suite.heldout_tasks) == 15
        assert set(suite.teams) == {"general", "math", "code"}

    def test_teams_are_disjoint(self):
        suite = make_planted_suite(5, 2, seed=0)
        all_members = [m for team in suite.teams.values() for m in team]
        assert len(all_members) == len(set(all_members))

    def test_heldout_texts_differ_from_train(self):
        suite = make_planted_suite(5, 5, seed=0)
        train_texts = {t.task_text for t in suite.train_tasks}
        assert not any(t.task_text in train_texts for t in suite.heldout_tasks)
