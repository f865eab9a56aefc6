import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from commtopo.backends import BackendSet, EchoBackend, PlantedDecisionBackend
from commtopo.bench import (
    STATIC_SHAPES,
    BenchReport,
    BenchRow,
    make_static,
    run_bench,
)
from commtopo.collector import TaskSpec
from commtopo.errors import ConfigError
from commtopo.graphs import CommTopology, NodeMask, WeightMatrix
from commtopo.pool import load_default_pool
from analysis import FitDegenerate, fit_node_count_gaussian

N = 15


def edge_count(t):
    return int((t.weights.w > 0).sum())


class TestMakeStatic:
    @pytest.mark.parametrize("m", [2, 3, 5, 8])
    def test_edge_count_formulas(self, m):
        members = list(range(m))
        assert edge_count(make_static("chain", members, N)) == m - 1
        assert edge_count(make_static("star", members, N)) == 2 * (m - 1)
        assert edge_count(make_static("tree", members, N)) == m - 1
        assert edge_count(make_static("complete", members, N)) == m * (m - 1)

    def test_chain_follows_member_order(self):
        t = make_static("chain", [9, 2, 5], N)
        assert t.weights.w[2, 5] == 1.0 and t.weights.w[5, 9] == 1.0
        assert t.weights.w[2, 9] == 0.0

    def test_star_hub_is_lowest_id(self):
        t = make_static("star", [4, 1, 7], N)
        assert t.weights.w[1, 4] == 1.0 and t.weights.w[4, 1] == 1.0
        assert t.weights.w[4, 7] == 0.0

    def test_random_probability_boundaries(self):
        rng = np.random.default_rng(0)
        empty = make_static("random", range(4), N, p=0.0, rng=rng)
        full = make_static("random", range(4), N, p=1.0, rng=rng)
        assert edge_count(empty) == 0
        assert edge_count(full) == 4 * 3

    def test_random_probability_out_of_range(self):
        with pytest.raises(ConfigError):
            make_static("random", range(4), N, p=1.5, rng=np.random.default_rng(0))

    def test_random_without_rng_rejected(self):
        with pytest.raises(ConfigError):
            make_static("random", range(4), N)

    def test_mask_matches_members(self):
        t = make_static("complete", [3, 7, 11], N)
        assert t.mask.active_ids() == [3, 7, 11]

    def test_invalid_inputs(self):
        with pytest.raises(ConfigError):
            make_static("chain", [0], N)
        with pytest.raises(ConfigError):
            make_static("chain", [0, N], N)
        with pytest.raises(ConfigError):
            make_static("moebius", [0, 1], N)


def static_edges(shape, members, p, rng):
    """Reference for ``make_static``: its (source, target) member pairs as an explicit list."""
    ms = sorted(members)
    if shape == "chain":
        return list(zip(ms, ms[1:]))
    if shape == "star":
        return [(ms[0], b) for b in ms[1:]] + [(b, ms[0]) for b in ms[1:]]
    if shape == "tree":
        return [(ms[(k - 1) // 2], ms[k]) for k in range(1, len(ms))]
    pairs = [(a, b) for a in ms for b in ms if a != b]
    if shape == "complete":
        return pairs
    return [pair for pair in pairs if rng.uniform() < p]  # one draw per ordered pair, row order


@settings(max_examples=300, deadline=None)
@given(
    shape=st.sampled_from(STATIC_SHAPES),
    members=st.lists(st.integers(0, N - 1), min_size=2, max_size=N, unique=True),
    p=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_make_static_equals_the_edge_list_reference(shape, members, p, seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    t = make_static(shape, members, N, p=p, rng=rng)
    w, mask = np.zeros((N, N)), np.zeros(N)
    for a, b in static_edges(shape, members, p, ref_rng):
        w[a, b] = 1.0
    mask[members] = 1.0
    assert t.weights.w.tobytes() == w.tobytes()
    assert t.mask.m.tobytes() == mask.tobytes()
    assert rng.uniform() == ref_rng.uniform()  # the same number of draws


class TestRunBench:
    def suite(self):
        return [
            TaskSpec(f"t{i}", f"question {i}", "math_reasoning", "42", "exact")
            for i in range(3)
        ]

    def test_runs_equals_tasks_times_repeats(self):
        pool = load_default_pool()
        backends = BackendSet(default=EchoBackend(), decision=EchoBackend())
        methods = [
            ("chain", lambda t: make_static("chain", [0, 1, 2], N)),
            ("complete", lambda t: make_static("complete", [0, 1, 2], N)),
        ]
        report = run_bench(self.suite(), methods, pool, backends, repeats=2, k=1)
        assert all(r.runs == 6 for r in report.rows)
        assert [r.method for r in report.rows] == ["chain", "complete"]

    def test_planted_decision_accuracy(self):
        pool = load_default_pool()
        team = (2, 5, 9)
        tasks = [
            TaskSpec(f"t{i}", f"planted question {i}", "math_reasoning", "42", "exact", team)
            for i in range(2)
        ]
        backends = BackendSet(
            default=EchoBackend(), decision=PlantedDecisionBackend(tasks, pool)
        )
        methods = [
            ("team", lambda t: make_static("complete", team, N)),
            ("off-team", lambda t: make_static("complete", [0, 1, 3], N)),
        ]
        report = run_bench(tasks, methods, pool, backends, repeats=1, k=1)
        assert report.row("team").accuracy == 1.0
        assert report.row("off-team").accuracy == 0.0

    def test_each_source_designs_each_task_once_whatever_the_repeats(self):
        # the source was called once per repeat; the report's bytes are those it gave then
        pool = load_default_pool()
        tasks = [
            TaskSpec(f"t{i}", f"planted question {i}", "math_reasoning", "42", "exact", (2, 5, 9))
            for i in range(3)
        ]
        backends = BackendSet(default=EchoBackend(), decision=PlantedDecisionBackend(tasks, pool))
        calls = []

        def counted(name, source):
            return name, lambda t: calls.append((name, t.task_id)) or source(t)

        methods = [
            counted("random", lambda t: make_static(
                "random", range(6), N, p=0.5, rng=np.random.default_rng(int(t.task_id[1:])))),
            counted("star", lambda t: make_static("star", [2, 5, 9, 10 + int(t.task_id[1:])], N)),
        ]
        report = run_bench(tasks, methods, pool, backends, repeats=3, k=2, seed=7, suite_id="pin")
        assert calls == [(name, t.task_id) for name in ("random", "star") for t in tasks]
        assert report.to_markdown() == (
            "Benchmark suite: pin (seed 7)\n\n| Method | Accuracy | Mean tokens | Runs |\n"
            "| --- | --- | --- | --- |\n| random | 0.0000 | 1738.0 | 9 |\n| star | 1.0000 | 973.7 | 9 |\n"
        )
        assert report.to_csv() == "method,accuracy,mean_tokens,runs\r\nrandom,0.0000,1738.0,9\r\nstar,1.0000,973.7,9\r\n"

    def test_empty_suite_rejected(self):
        pool = load_default_pool()
        backends = BackendSet(default=EchoBackend(), decision=EchoBackend())
        with pytest.raises(ConfigError):
            run_bench([], [("chain", lambda t: make_static("chain", [0, 1], N))], pool, backends)

    def test_report_formats(self):
        report = BenchReport(
            (BenchRow("chain", 0.5, 120.0, 4),), suite_id="s", seed=0
        )
        csv_text = report.to_csv()
        assert csv_text.splitlines()[0] == "method,accuracy,mean_tokens,runs"
        assert "chain,0.5000,120.0,4" in csv_text
        assert "| chain | 0.5000 | 120.0 | 4 |" in report.to_markdown()
        with pytest.raises(KeyError):
            report.row("nope")


class TestGaussianFit:
    def topo_with_count(self, m):
        mask = np.zeros(N)
        mask[:m] = 1.0
        return CommTopology(NodeMask(N, mask), WeightMatrix(N, np.zeros((N, N))))

    def test_recovers_planted_moments(self):
        rng = np.random.default_rng(0)
        counts = np.clip(np.rint(rng.normal(8.0, 1.3, size=500)), 2, N).astype(int)
        topologies = [self.topo_with_count(m) for m in counts]
        _, mu, sigma = fit_node_count_gaussian(topologies)
        assert abs(mu - 8.0) <= 0.5
        assert 1.0 <= sigma <= 1.6

    def test_too_few_topologies(self):
        with pytest.raises(FitDegenerate):
            fit_node_count_gaussian([self.topo_with_count(5)] * 4)

    def test_constant_counts_degenerate(self):
        with pytest.raises(FitDegenerate):
            fit_node_count_gaussian([self.topo_with_count(6)] * 10)

    def test_sigma_reported_positive(self):
        rng = np.random.default_rng(3)
        counts = np.clip(np.rint(rng.normal(7.0, 2.0, size=300)), 2, N).astype(int)
        _, _, sigma = fit_node_count_gaussian([self.topo_with_count(m) for m in counts])
        assert sigma > 0
