import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commtopo.embed import HashingBackend, node_features
from commtopo.errors import CheckpointError, ConfigError, DimensionError, TrainingDiverged
from commtopo.graphs import NodeMask, Topology, WeightMatrix, lift_subgraph
from commtopo.graphs import SupervisionPair
from commtopo.pool import load_default_pool
from commtopo.prunenet import (
    NetConfig,
    PruneNetParams,
    TrainConfig,
    design_topology,
    edge_loss,
    forward,
    gumbel_noise,
    Labels,
    forward_losses,
    heads,
    labels,
    load_checkpoint,
    loss_and_grads,
    node_loss,
    save_checkpoint,
    total_loss,
    train,
    write_training_log,
)

SMALL = NetConfig(d=8, h=6, h_m=4, n_max=5)


def small_params(seed=0):
    return PruneNetParams.init(SMALL, np.random.default_rng(seed))


def random_instance(rng):
    x = rng.normal(size=(SMALL.n_max + 1, SMALL.d))
    y = np.zeros(SMALL.n_max)
    y[rng.choice(SMALL.n_max, int(rng.integers(2, 5)), replace=False)] = 1.0
    a = np.outer(y, y)
    np.fill_diagonal(a, 0.0)
    return x, a, y


def fwd(params, x):
    """A batch of one from a full feature matrix (agent rows, then the query row)."""
    return forward(params, x[:-1], x[-1:])


def logits_only(s):
    """A forward pass whose node logits are replaced by ``s``."""
    return fwd(small_params(), np.zeros((6, 8)))._replace(s=np.asarray(s, dtype=float))


class TestGcnForward:
    def test_zero_features_give_zero_latents(self):
        f = fwd(small_params(), np.zeros((6, 8)))
        assert np.allclose(f.z, 0.0)

    def test_output_shape(self):
        pool = load_default_pool()
        params = PruneNetParams.init(NetConfig(), np.random.default_rng(0))
        pool_x, query_x = node_features(pool, ["question", "another"], HashingBackend())
        f = forward(params, pool_x, query_x)
        assert f.z.shape == (2, 15, 64)
        assert f.lmat.shape == (2, 15, 15) and f.s.shape == (2, 15)

    def test_agent_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        params = small_params()
        x = rng.normal(size=(6, 8))
        z = fwd(params, x).z[0]
        perm = x.copy()
        perm[[0, 3]] = perm[[3, 0]]
        z_perm = fwd(params, perm).z[0]
        expect = z.copy()
        expect[[0, 3]] = expect[[3, 0]]
        assert np.allclose(z_perm, expect, atol=1e-9)

    def test_rejects_wrong_feature_width(self):
        with pytest.raises(DimensionError):
            fwd(small_params(), np.zeros((6, 9)))


class TestEdgeHead:
    def test_zero_bilinear_form_gives_half(self):
        params = small_params()
        params.b_edge = np.zeros_like(params.b_edge)
        x = np.random.default_rng(0).normal(size=(6, 8))
        w, _ = heads(fwd(params, x))
        off = w[0][~np.eye(5, dtype=bool)]
        assert np.allclose(off, 0.5)

    def test_diagonal_forced_zero(self):
        x = np.random.default_rng(1).normal(size=(6, 8))
        assert np.diag(heads(fwd(small_params(), x))[0][0]).sum() == 0.0

    def test_directedness(self):
        x = np.random.default_rng(2).normal(size=(6, 8))
        w = heads(fwd(small_params(), x))[0][0]
        asym = np.abs(w - w.T)
        np.fill_diagonal(asym, 0.0)
        assert asym.max() > 1e-6


class TestNodeHead:
    def test_zero_latents_give_half(self):
        params = small_params()
        params.mlp_b1 = np.zeros_like(params.mlp_b1)
        params.mlp_b2 = 0.0
        f = fwd(params, np.zeros((6, 8)))
        _, y_hat = heads(f)
        assert np.allclose(f.s, 0.0)
        assert np.allclose(y_hat, 0.5)

    def test_large_bias_saturates(self):
        params = small_params()
        params.mlp_w1 = np.zeros_like(params.mlp_w1)
        params.mlp_b1 = np.zeros_like(params.mlp_b1)
        params.mlp_b2 = 10.0
        _, y_hat = heads(fwd(params, np.zeros((6, 8))))
        assert np.all(y_hat > 0.9999)

    def test_open_interval(self):
        x = np.random.default_rng(3).normal(size=(6, 8)) * 5
        _, y_hat = heads(fwd(small_params(), x))
        assert np.all(y_hat > 0.0) and np.all(y_hat < 1.0)


class TestGumbelSigmoid:
    def test_deterministic_zero_logit(self):
        assert heads(logits_only(np.zeros(3)), 0.5)[1][0] == 0.5

    def test_temperature_sharpens(self):
        f = logits_only([2.0])
        soft = heads(f, 1.0)[1][0]
        sharp = heads(f, 0.1)[1][0]
        assert abs(soft - 0.8808) < 1e-4
        assert sharp > 0.9999

    def test_stochastic_hard_mean(self):
        rng = np.random.default_rng(0)
        noise = gumbel_noise(rng, (100000,))
        _, soft = heads(logits_only(np.zeros(100000)), 1.0, node_noise=noise)
        assert abs((soft >= 0.5).mean() - 0.5) < 0.01

    def test_batch_draw_is_successive_single_draws(self):
        ref = np.random.default_rng(9)
        singles = []
        for _ in range(4):
            g1 = -np.log(-np.log(ref.uniform(size=5)))
            g2 = -np.log(-np.log(ref.uniform(size=5)))
            singles.append(g1 - g2)
        g = -np.log(-np.log(np.random.default_rng(9).uniform(size=(4, 2, 5))))
        assert np.array_equal(g[:, 0] - g[:, 1], np.stack(singles))
        assert np.array_equal(gumbel_noise(np.random.default_rng(9), (4, 5)), np.stack(singles))

    def test_noise_is_a_gumbel_difference(self):
        a, b = np.random.default_rng(4), np.random.default_rng(4)
        g1 = -np.log(-np.log(b.uniform(size=4)))
        g2 = -np.log(-np.log(b.uniform(size=4)))
        assert np.array_equal(gumbel_noise(a, (4,)), g1 - g2)


class TestLosses:
    def test_edge_loss_hand_case(self):
        y = np.array([1.0, 1.0, 0.0])
        a = np.zeros((3, 3))
        a[0, 1] = 1.0
        w = np.full((3, 3), 0.5)
        np.fill_diagonal(w, 0.0)
        assert edge_loss(w, a, y, 0.5) == pytest.approx(0.375, abs=1e-9)

    def test_edge_loss_zero_at_perfect_prediction(self):
        y = np.array([1.0, 1.0, 0.0])
        a = np.zeros((3, 3))
        a[0, 1] = 1.0
        assert edge_loss(a, a, y, 0.5) == 0.0

    def test_edge_loss_full_mask_drops_second_term(self):
        y = np.ones(3)
        a = np.zeros((3, 3))
        w = np.full((3, 3), 0.9)
        np.fill_diagonal(w, 0.0)
        # only the supervised term survives; lambda_off is irrelevant
        assert edge_loss(w, a, y, 0.5) == edge_loss(w, a, y, 99.0)

    def test_node_loss_hand_case(self):
        y = np.array([1.0, 0.0])
        y_hat = np.array([0.5, 0.5])
        w = np.zeros((2, 2))
        w[1, 0] = 0.8
        expected = math.log(2) + 0.05 + 0.01
        assert node_loss(y_hat, y, w, 0.1, 0.05) == pytest.approx(expected, abs=1e-9)

    def test_node_loss_perfect_mask(self):
        y = np.array([1.0, 0.0])
        y_hat = np.array([1.0, 0.0])
        w = np.zeros((2, 2))
        loss = node_loss(y_hat, y, w, 0.1, 0.05)
        assert loss == pytest.approx(0.1 * 0.5, abs=1e-5)

    def test_node_loss_all_active_no_coherence(self):
        y = np.ones(3)
        y_hat = np.full(3, 0.8)
        w = np.full((3, 3), 0.9)
        np.fill_diagonal(w, 0.0)
        assert node_loss(y_hat, y, w, 0.0, 5.0) == node_loss(y_hat, y, w, 0.0, 0.0)

    def test_total_loss_hand_case(self):
        assert total_loss(0.375, 0.7531471805599453, 1.0) == pytest.approx(
            1.1281471805599453, abs=1e-9
        )

    def test_total_loss_linear_in_beta(self):
        for beta in (0.0, 0.75, 1.0, 1.333):
            assert total_loss(0.4, 0.6, beta) == pytest.approx(0.4 + beta * 0.6)

    def test_losses_nonnegative(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = 4
            y = np.zeros(n)
            y[rng.choice(n, 2, replace=False)] = 1.0
            a = np.outer(y, y)
            np.fill_diagonal(a, 0.0)
            w = rng.uniform(size=(n, n))
            np.fill_diagonal(w, 0.0)
            y_hat = rng.uniform(0.01, 0.99, size=n)
            assert edge_loss(w, a, y, 0.5) >= 0.0
            assert node_loss(y_hat, y, w, 0.1, 0.05) >= 0.0


def random_batch(rng, size):
    """One pool, then one query row and one target per pair."""
    xs, a, y = zip(*(random_instance(rng) for _ in range(size)))
    return xs[0][:-1], np.stack([x[-1] for x in xs]), labels(np.stack(a), np.stack(y))


class TestGradients:
    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(0)
        cfg = TrainConfig()
        start = time.time()
        worst = 0.0
        for _ in range(20):
            params = small_params(int(rng.integers(1 << 30)))
            pool_x, query_x, lab = random_batch(rng, 1)
            focal = bool(rng.uniform() < 0.5)

            def run():
                f = forward(params, pool_x, query_x)
                return loss_and_grads(params, f, lab, cfg, tau=0.7, focal=focal)

            _, grads, _ = run()
            eps = 1e-5
            for name, t in params.tensors().items():
                flat = t.ravel()
                for i in rng.choice(flat.size, min(4, flat.size), replace=False):
                    orig = flat[i]
                    flat[i] = orig + eps
                    up = run()[0][2]
                    flat[i] = orig - eps
                    down = run()[0][2]
                    flat[i] = orig
                    fd = (up - down) / (2 * eps)
                    an = np.asarray(grads[name]).ravel()[i]
                    rel = abs(fd - an) / max(abs(fd), abs(an), 1e-6)
                    worst = max(worst, rel)
        assert worst < 1e-4
        assert time.time() - start < 10.0

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31), batch=st.integers(2, 6), focal=st.booleans(),
        tau=st.floats(0.1, 1.0),
    )
    def test_batch_is_mean_of_batches_of_one(self, seed, batch, focal, tau):
        rng = np.random.default_rng(seed)
        params = small_params(seed)
        pool_x, query_x, lab = random_batch(rng, batch)
        noise = rng.normal(size=(batch, SMALL.n_max))
        cfg = TrainConfig()
        losses, grads, _ = loss_and_grads(
            params, forward(params, pool_x, query_x), lab, cfg, tau, noise, focal
        )
        ones = [
            loss_and_grads(
                params, forward(params, pool_x, query_x[i : i + 1]),
                Labels(*(v[i : i + 1] for v in lab)), cfg, tau, noise[i : i + 1], focal,
            )
            for i in range(batch)
        ]
        assert np.allclose(losses, np.mean([o[0] for o in ones], axis=0), rtol=1e-12, atol=1e-12)
        for name, g in grads.items():
            mean = np.mean([o[1][name] for o in ones], axis=0)
            assert np.allclose(g, mean, rtol=1e-12, atol=1e-12), name

    def test_log_half_equals_noise_free_kernel(self):
        rng = np.random.default_rng(6)
        params = small_params(6)
        pool_x, query_x, lab = random_batch(rng, 5)
        f = forward(params, pool_x, query_x)
        cfg = TrainConfig()
        for focal in (False, True):
            noise = rng.normal(size=(5, SMALL.n_max))
            _, _, terms = loss_and_grads(params, f, lab, cfg, 0.4, noise, focal)
            noise_free = loss_and_grads(params, f, lab, cfg, 0.4, None, focal)[0]
            assert forward_losses(f, lab, terms, cfg, 0.4, focal) == pytest.approx(
                noise_free, rel=1e-15, abs=0
            )


def memorization_fixture():
    pool = load_default_pool()
    backend = HashingBackend()
    members = [2, 7, 11]
    a_gt, y = lift_subgraph(Topology.complete(3), members, pool.n_max)
    pair = SupervisionPair("solo", "the one training question", "math_reasoning", a_gt, y, 1.0)
    return pool, backend, pair, members


class TestTrain:
    def test_single_pair_memorization(self):
        pool, backend, pair, members = memorization_fixture()
        cfg = TrainConfig(seed=3, epochs=200)
        params, _ = train([pair], pool, backend, cfg)
        topo = design_topology(pair.task_text, pool, backend, params)
        assert list(topo.mask.active_ids()) == members

    def test_zero_lr_leaves_params_unchanged(self):
        pool, backend, pair, _ = memorization_fixture()
        cfg = TrainConfig(lr=0.0, weight_decay=0.0, seed=3, epochs=5)
        init = PruneNetParams.init(
            NetConfig(d=backend.dim, n_max=pool.n_max), np.random.default_rng(3)
        )
        params, _ = train([pair], pool, backend, cfg)
        for name, t in params.tensors().items():
            assert np.allclose(t, init.tensors()[name])

    def test_tau_anneal_monotone(self):
        pool, backend, pair, _ = memorization_fixture()
        params, log = train([pair], pool, backend, TrainConfig(seed=1, epochs=50))
        taus = [row.tau for row in log]
        assert taus[0] == pytest.approx(1.0)
        assert taus[-1] == pytest.approx(0.1)
        assert all(a >= b for a, b in zip(taus, taus[1:]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_with_step(self):
        pool, backend, pair, _ = memorization_fixture()
        cfg = TrainConfig(lr=1e12, seed=0, epochs=200)
        with pytest.raises(TrainingDiverged):
            train([pair], pool, backend, cfg)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_parameters_raise_although_loss_is_finite(self):
        # the step's loss is taken before the Adam update that overflows
        pool, backend, pair, _ = memorization_fixture()
        with pytest.raises(TrainingDiverged, match="diverged at step 0: non-finite") as info:
            train([pair], pool, backend, TrainConfig(lr=1e308, epochs=1))
        assert info.value.step == 0

    def test_tail_averaging_returns_mean_of_final_iterates(self):
        pool, backend, pair, _ = memorization_fixture()
        last = train(
            [pair], pool, backend, TrainConfig(seed=5, avg_tail=0.0, epochs=30)
        )[0]
        averaged = train(
            [pair], pool, backend, TrainConfig(seed=5, avg_tail=0.5, epochs=30)
        )[0]
        # same noise stream, different returned weights
        assert not np.allclose(last.mlp_w2, averaged.mlp_w2)

    def test_full_tail_average_includes_first_step(self):
        pool, backend, pair, _ = memorization_fixture()
        params, log = train(
            [pair], pool, backend, TrainConfig(seed=5, avg_tail=1.0, epochs=10)
        )
        assert len(log) == 10
        assert all(np.isfinite(t).all() for t in params.tensors().values())

    def test_avg_tail_out_of_range_rejected(self):
        pool, backend, pair, _ = memorization_fixture()
        with pytest.raises(ConfigError):
            train([pair], pool, backend, TrainConfig(avg_tail=1.5, epochs=2))

    @pytest.mark.parametrize(
        "bad", [{"batch": 0}, {"epochs": 0}, {"tau_end": 0.0}], ids=["batch", "epochs", "tau_end"]
    )
    def test_invalid_config_is_config_error(self, bad):
        pool, backend, pair, _ = memorization_fixture()
        with pytest.raises(ConfigError):
            train([pair], pool, backend, TrainConfig(seed=3, **bad))

    def test_logged_trajectory_pinned(self):
        # totals logged by the implementation before the forward pass was
        # shared between training and logging; any change to the forward
        # pass, the heads or the noise stream moves them
        pool, backend, pair, _ = memorization_fixture()
        _, log = train([pair], pool, backend, TrainConfig(seed=3, epochs=200))
        expected = [2.8080350801274125, 0.03761111630935393, 0.020170466962619184]
        assert [log[i].total for i in (0, 99, 199)] == pytest.approx(expected, rel=1e-9, abs=0)

    def test_training_log_csv(self):
        pool, backend, pair, _ = memorization_fixture()
        _, log = train([pair], pool, backend, TrainConfig(seed=1, epochs=3))
        text = write_training_log(log)
        lines = text.strip().splitlines()
        assert lines[0] == "step,edge_loss,node_loss,total,tau"
        assert len(lines) == 4


class TestDesignTopology:
    def test_theta_zero_keeps_all_agents(self):
        pool, backend, pair, _ = memorization_fixture()
        params, _ = train([pair], pool, backend, TrainConfig(seed=3, epochs=20))
        topo = design_topology("anything", pool, backend, params, theta=0.0)
        assert topo.mask.active_count() == pool.n_max

    def test_deterministic(self):
        pool, backend, pair, _ = memorization_fixture()
        params, _ = train([pair], pool, backend, TrainConfig(seed=3, epochs=20))
        a = design_topology("q", pool, backend, params)
        b = design_topology("q", pool, backend, params)
        assert np.array_equal(a.mask.m, b.mask.m)
        assert np.array_equal(a.weights.w, b.weights.w)

    def test_fallback_keeps_top_two(self):
        pool = load_default_pool()
        backend = HashingBackend()
        params = PruneNetParams.init(
            NetConfig(d=backend.dim, n_max=pool.n_max), np.random.default_rng(0)
        )
        params.mlp_b2 = -50.0  # push every mask probability toward 0
        topo = design_topology("q", pool, backend, params, theta=0.5)
        assert topo.mask.active_count() == 2

    def test_output_satisfies_invariants(self):
        pool, backend, pair, _ = memorization_fixture()
        params, _ = train([pair], pool, backend, TrainConfig(seed=3, epochs=20))
        topo = design_topology("q", pool, backend, params)
        inactive = np.flatnonzero(topo.mask.m == 0)
        assert topo.weights.w[inactive, :].sum() == 0.0
        assert np.diag(topo.weights.w).sum() == 0.0


class TestCheckpoint:
    def test_round_trip(self):
        params = small_params(4)
        blob = save_checkpoint(params, SMALL)
        loaded, net = load_checkpoint(blob)
        assert net == SMALL
        for name, t in params.tensors().items():
            assert np.allclose(t, loaded.tensors()[name])

    def test_rejects_shape_mismatch(self):
        params = small_params(4)
        blob = save_checkpoint(params, NetConfig(d=9, h=6, h_m=4, n_max=5))
        with pytest.raises(CheckpointError):
            load_checkpoint(blob)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_tensor(self, bad):
        params = small_params(4)
        params.b_edge[1, 2] = bad
        with pytest.raises(CheckpointError, match="b_edge"):
            load_checkpoint(save_checkpoint(params, SMALL))

    def test_rejects_garbage(self):
        with pytest.raises(CheckpointError):
            load_checkpoint(b"{not json")
        with pytest.raises(CheckpointError):
            load_checkpoint(b'{"version": 9}')

    @pytest.mark.parametrize(
        "blob",
        [b"[]", b"5", b'{"version": 1, "config": {}, "tensors": []}', b"\xff{}"],
        ids=["list", "number", "tensors-list", "not-utf8"],
    )
    def test_rejects_malformed_document(self, blob):
        with pytest.raises(CheckpointError, match="malformed checkpoint"):
            load_checkpoint(blob)
