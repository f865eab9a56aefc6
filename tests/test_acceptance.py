"""End-to-end acceptance checks. Each test prints one PASS/FAIL line."""
import json
import math
import time

import numpy as np
import pytest

from commtopo import prunenet
from commtopo.cli import main
from commtopo.collector import CollectorConfig, order_ks_statistic, sample_orders, write_tasks
from commtopo.embed import HashingBackend
from commtopo.graphs import (
    NodeMask,
    Topology,
    WeightMatrix,
    lift_subgraph,
    restrict,
)
from commtopo.pool import load_default_pool
from commtopo.prunenet import (
    NetConfig,
    PruneNetParams,
    TrainConfig,
    _apply_tensors,
    design_topology,
    edge_loss,
    forward,
    load_checkpoint,
    loss_and_grads,
    node_loss,
    total_loss,
)
from commtopo.synth import make_planted_suite

# root seed used for the pipeline criteria; split deterministically by the CLI
PIPELINE_SEED = "2"
TASKS_PER_FAMILY = 500


def report(num, ok, detail):
    from conftest import record_criterion

    line = f"{'PASS' if ok else 'FAIL'}: criterion {num} — {detail}"
    print(f"\n{line}")
    record_criterion(line)
    assert ok, detail


class TestCriterion1Gradients:
    def test_gradients_match_finite_differences(self):
        start = time.time()
        net = NetConfig(d=8, h=6, h_m=4, n_max=5)
        rng = np.random.default_rng(0)
        cfg = TrainConfig()
        worst = 0.0
        for _ in range(20):
            params = PruneNetParams.init(net, np.random.default_rng(int(rng.integers(1 << 30))))
            x = rng.normal(size=(net.n_max + 1, net.d))
            y = np.zeros(net.n_max)
            y[rng.choice(net.n_max, 3, replace=False)] = 1.0
            a = np.outer(y, y)
            np.fill_diagonal(a, 0.0)
            _, grads = loss_and_grads(params, forward(params, x), a, y, cfg, tau=0.7)
            tensors = {k: v.copy() for k, v in params.tensors().items()}
            eps = 1e-5
            for name, t in tensors.items():
                flat = t.ravel()
                for i in rng.choice(flat.size, min(4, flat.size), replace=False):
                    orig = flat[i]
                    flat[i] = orig + eps
                    _apply_tensors(params, tensors)
                    up = loss_and_grads(params, forward(params, x), a, y, cfg, tau=0.7)[0][2]
                    flat[i] = orig - eps
                    _apply_tensors(params, tensors)
                    down = loss_and_grads(params, forward(params, x), a, y, cfg, tau=0.7)[0][2]
                    flat[i] = orig
                    _apply_tensors(params, tensors)
                    fd = (up - down) / (2 * eps)
                    an = np.asarray(grads[name]).ravel()[i]
                    worst = max(worst, abs(fd - an))
        elapsed = time.time() - start
        report(
            1,
            worst < 1e-4 and elapsed < 10.0,
            f"max |analytic - finite difference| {worst:.2e} (<1e-4) in {elapsed:.1f}s (<10s)",
        )


class TestCriterion2LossReferenceValues:
    def test_hand_computed_losses(self):
        y_edges = np.array([1.0, 1.0, 0.0])
        a_gt = np.zeros((3, 3))
        a_gt[0, 1] = 1.0
        w = np.full((3, 3), 0.5)
        np.fill_diagonal(w, 0.0)
        e = edge_loss(w, a_gt, y_edges, 0.5)

        y_nodes = np.array([1.0, 0.0])
        y_hat = np.array([0.5, 0.5])
        w2 = np.zeros((2, 2))
        w2[1, 0] = 0.8
        nl = node_loss(y_hat, y_nodes, w2, 0.1, 0.05)

        expected_node = math.log(2.0) + 0.05 + 0.01
        tot = total_loss(e, nl, 1.0)
        ok = (
            abs(e - 0.375) < 1e-9
            and abs(nl - expected_node) < 1e-9
            and abs(tot - (0.375 + expected_node)) < 1e-9
        )
        report(
            2,
            ok,
            f"edge loss {e:.12f} vs 0.375, node loss {nl:.12f} vs {expected_node:.12f} (tol 1e-9)",
        )


class TestCriterion3LiftRestrictRoundTrip:
    def test_thousand_round_trips(self):
        rng = np.random.default_rng(7)
        n_max = 16
        failures = 0
        for _ in range(1000):
            m = int(rng.integers(2, n_max + 1))
            members = sorted(rng.choice(n_max, size=m, replace=False).tolist())
            adj = (rng.uniform(size=(m, m)) < 0.4).astype(float)
            np.fill_diagonal(adj, 0.0)
            sub = Topology(m, adj)
            weights, mask = lift_subgraph(sub, members, n_max)
            back = restrict(weights, members)
            if mask.active_ids() != members or not np.array_equal(back, sub.adj):
                failures += 1
        report(3, failures == 0, f"{1000 - failures}/1000 lift-restrict round trips exact")


class TestCriterion4OrderDistribution:
    def test_ks_statistic(self):
        start = time.time()
        stats = []
        for seed in range(5):
            cfg = CollectorConfig(budget=2000, sigma=2.0, seed=seed)
            orders = sample_orders(cfg, 16)
            assert len(orders) == 2000
            stats.append(order_ks_statistic(orders, cfg, 16))
        elapsed = time.time() - start
        ok = all(s < 0.05 for s in stats) and elapsed < 5.0
        report(
            4,
            ok,
            f"KS statistics {['%.3f' % s for s in stats]} all <0.05 in {elapsed:.1f}s (<5s)",
        )


@pytest.fixture(scope="session")
def trained_pipeline(tmp_path_factory):
    """Run collect + train once through the CLI; shared by criteria 5, 6, 8."""
    workdir = tmp_path_factory.mktemp("pipeline")
    suite = make_planted_suite(tasks_per_family=TASKS_PER_FAMILY, seed=0)
    tasks_file = workdir / "tasks.jsonl"
    tasks_file.write_text(write_tasks(suite.train_tasks))
    corpus = workdir / "corpus.jsonl"
    checkpoint = workdir / "checkpoint.json"
    log = workdir / "train_log.csv"
    start = time.time()
    rc = main(
        ["--seed", PIPELINE_SEED, "collect", "--tasks", str(tasks_file),
         "--out", str(corpus), "--budget", "300", "--mu", "5", "--sigma", "1.5"]
    )
    assert rc == 0, "collect failed"
    rc = main(
        ["--seed", PIPELINE_SEED, "train", "--corpus", str(corpus),
         "--checkpoint", str(checkpoint), "--log", str(log)]
    )
    assert rc == 0, "train failed"
    elapsed = time.time() - start
    params, _ = load_checkpoint(checkpoint.read_bytes())
    return suite, params, elapsed, workdir, corpus, checkpoint


class TestCriterion5PlantedRecovery:
    def test_heldout_team_recovery(self, trained_pipeline):
        suite, params, elapsed = trained_pipeline[:3]
        pool = load_default_pool()
        backend = HashingBackend()
        hits = 0
        for task in suite.heldout_tasks:
            topo = design_topology(task.task_text, pool, backend, params)
            if tuple(topo.mask.active_ids()) == task.planted_team:
                hits += 1
        ok = hits >= 27 and elapsed < 300.0
        report(
            5,
            ok,
            f"exact planted-team recovery {hits}/30 (need >=27), pipeline {elapsed:.0f}s (<300s)",
        )


class TestCriterion6TokenSavings:
    def test_designed_cheaper_than_complete(self, trained_pipeline, monkeypatch):
        import csv as csv_mod

        suite, _, _, workdir, _, checkpoint = trained_pipeline
        monkeypatch.chdir(workdir)
        heldout_file = workdir / "heldout.jsonl"
        heldout_file.write_text(write_tasks(suite.heldout_tasks))
        ini = workdir / "bench.ini"
        ini.write_text("[agents]\nagent_backend = planted\n")
        rc = main(
            ["--config", str(ini), "bench", "--suite", str(heldout_file),
             "--methods", "designed,complete", "--checkpoint", str(checkpoint),
             "--repeats", "1", "--out-prefix", str(workdir / "bench")]
        )
        assert rc == 0, "bench failed"
        rows = {
            r["method"]: r
            for r in csv_mod.DictReader((workdir / "bench.csv").read_text().splitlines())
        }
        designed_tokens = float(rows["designed"]["mean_tokens"])
        complete_tokens = float(rows["complete"]["mean_tokens"])
        designed_acc = float(rows["designed"]["accuracy"])
        complete_acc = float(rows["complete"]["accuracy"])
        ratio = designed_tokens / complete_tokens
        ok = ratio <= 0.40 and designed_acc >= complete_acc
        report(
            6,
            ok,
            f"designed tokens {designed_tokens:.0f} = {100 * ratio:.1f}% of complete "
            f"{complete_tokens:.0f} (need <=40%), accuracy {designed_acc:.2f} vs "
            f"{complete_acc:.2f} (cmd_bench report)",
        )


class TestCriterion7TranscriptReplay:
    def test_shape_and_byte_identical_replay(self):
        from commtopo.backends import BackendSet, EchoBackend
        from commtopo.bench import make_static
        from commtopo.collector import TaskSpec
        from commtopo.orchestrator import run_topology

        pool = load_default_pool()
        task = TaskSpec("t", "compare two policies", "general_reasoning", "42", "contains")
        backends = BackendSet(default=EchoBackend(), decision=EchoBackend())
        members = [0, 3, 6, 9]
        topo = make_static("complete", members, pool.n_max)
        k = 3
        results = [
            run_topology(
                topo, task, pool, backends, k=k, rng=np.random.default_rng(11)
            ).to_json()
            for _ in range(2)
        ]
        entries = len(json.loads(results[0])["transcript"])
        expected = k * len(members) + 1
        ok = entries == expected and results[0].encode() == results[1].encode()
        report(
            7,
            ok,
            f"transcript has {entries} entries (= 3m+1 = {expected}); replay byte-identical",
        )


class TestCriterion8BetaSweep:
    def test_beta_variants_train_distinctly(self, trained_pipeline):
        import csv as csv_mod

        _, _, _, workdir, corpus, _ = trained_pipeline
        trajectories = []
        for beta in (0.75, 1.0, 1.333):
            tag = str(beta).replace(".", "_")
            ckpt = workdir / f"ckpt_beta_{tag}.json"
            log_path = workdir / f"log_beta_{tag}.csv"
            rc = main(
                ["--seed", PIPELINE_SEED, "train", "--corpus", str(corpus),
                 "--beta", str(beta), "--epochs", "2",
                 "--checkpoint", str(ckpt), "--log", str(log_path)]
            )
            assert rc == 0, f"cmd_train diverged or failed at beta={beta}"
            totals = [
                float(r["total"])
                for r in csv_mod.DictReader(log_path.read_text().splitlines())
            ]
            assert all(np.isfinite(totals))
            trajectories.append(totals)
        distinct = all(
            trajectories[i] != trajectories[j]
            for i in range(3)
            for j in range(i + 1, 3)
        )
        report(
            8,
            distinct,
            f"cmd_train at beta in (0.75, 1.0, 1.333) completed without divergence; "
            f"final losses {['%.4f' % t[-1] for t in trajectories]} pairwise distinct",
        )


class TestCriterion9GaussianFit:
    def test_recovers_planted_parameters(self):
        from commtopo.bench import fit_node_count_gaussian
        from commtopo.graphs import CommTopology

        rng = np.random.default_rng(2)
        n = 16
        counts = np.clip(np.rint(rng.normal(8.0, 1.3, size=500)), 2, n).astype(int)
        topologies = []
        for m in counts:
            mask = np.zeros(n)
            mask[:m] = 1.0
            topologies.append(
                CommTopology(NodeMask(n, mask), WeightMatrix(n, np.zeros((n, n))))
            )
        _, mu, sigma = fit_node_count_gaussian(topologies)
        ok = abs(mu - 8.0) <= 0.5 and 1.0 <= sigma <= 1.6
        report(
            9,
            ok,
            f"fit mu {mu:.3f} (target 8.0 +/- 0.5), sigma {sigma:.3f} (target in [1.0, 1.6])",
        )
