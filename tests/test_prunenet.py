import json
import math
import time
import zlib
from dataclasses import asdict, dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from commtopo import prunenet
from commtopo.embed import HashingBackend, node_features
from commtopo.errors import CheckpointError, ConfigError, DimensionError, TrainingDiverged
from commtopo.graphs import NodeMask, Topology, WeightMatrix, lift_subgraph
from commtopo.graphs import SupervisionPair
from commtopo.pool import load_default_pool
from commtopo.prunenet import (
    NetConfig,
    PruneNetParams,
    TrainConfig,
    _Adam,
    _sigmoid,
    _views,
    design_topology,
    edge_loss,
    forward,
    gumbel_noise,
    Labels,
    TrainLogRow,
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
from memory import traced_peak, train_workload_pairs

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

    def test_sigmoid_is_expit_to_round_off(self):
        # scipy's expit is the reference: a few ulps apart, and 0 where
        # exp(-x) overflows (x < -709) against expit's subnormal
        from scipy.special import expit

        x = np.concatenate([np.linspace(-800.0, 800.0, 200_001), [0.0, -np.inf, np.inf]])
        np.testing.assert_allclose(_sigmoid(x), expit(x), rtol=4 * np.finfo(float).eps, atol=1e-300)


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

    @given(st.data(), st.integers(1, 50), st.integers(1, 15), st.integers(0, 2**32 - 1))
    def test_batch_draws_stack_to_one_whole_draw(self, data, rows, n, seed):
        # train draws each minibatch's noise at its step, the last one short
        batch = data.draw(st.integers(1, rows))
        rng = np.random.default_rng(seed)
        chunks = [range(rows)[start : start + batch] for start in range(0, rows, batch)]
        stacked = np.concatenate([gumbel_noise(rng, (len(chunk), n)) for chunk in chunks])
        whole = gumbel_noise(np.random.default_rng(seed), (rows, n))
        assert stacked.tobytes() == whole.tobytes()

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

    def test_a_non_finite_loss_ends_training_at_its_step_with_the_default_message(self, monkeypatch):
        # NaN node noise at step 3 makes the noisy loss NaN; the noise-free
        # loss is still taken on that step, and as the suite makes every
        # warning an error, it must warn of nothing
        calls = []

        def noise(rng, shape):
            calls.append(shape)
            return np.full(shape, np.nan) if len(calls) == 4 else gumbel_noise(rng, shape)

        monkeypatch.setattr(prunenet, "gumbel_noise", noise)
        pool, backend, pair, _ = memorization_fixture()
        with pytest.raises(TrainingDiverged) as info:
            train([pair], pool, backend, TrainConfig(seed=0, epochs=10))
        assert info.value.step == 3
        assert str(info.value) == "training diverged at step 3: non-finite loss"

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
        "bad",
        [{"batch": 0}, {"epochs": 0}, {"tau_end": 0.0}, {"tau_start": 0.05}],
        ids=["batch", "epochs", "tau_end", "tau_start-below-tau_end"],
    )
    def test_invalid_config_is_config_error(self, bad):
        pool, backend, pair, _ = memorization_fixture()
        with pytest.raises(ConfigError):
            train([pair], pool, backend, TrainConfig(seed=3, **bad))

    @pytest.mark.parametrize("n", [5, 16])
    def test_corpus_that_does_not_fit_the_pool_is_dimension_error(self, n):
        pool, backend, pair, _ = memorization_fixture()
        a_gt, y = lift_subgraph(Topology.complete(3), [0, 1, 2], n)
        other = SupervisionPair("other", "another question", "math_reasoning", a_gt, y, 1.0)
        with pytest.raises(DimensionError, match=f"corpus pairs have {n} agents but the pool has 15"):
            train([pair, other], pool, backend, TrainConfig(epochs=1))

    def test_logged_trajectory_pinned(self):
        # totals logged by the implementation before the forward pass was
        # shared between training and logging; any change to the forward
        # pass, the heads or the noise stream moves them
        pool, backend, pair, _ = memorization_fixture()
        _, log = train([pair], pool, backend, TrainConfig(seed=3, epochs=200))
        expected = [2.8080350801274125, 0.03761111630935393, 0.020170466962619184]
        assert [log[i].total for i in (0, 99, 199)] == pytest.approx(expected, rel=1e-9, abs=0)

    def test_train_on_the_train_workload_peaks_under_5_mb(self, monkeypatch):
        # one epoch-wide Gumbel draw, read a batch at a time, peaked at 6.06 MB
        pairs, pool, cfg = train_workload_pairs(monkeypatch)
        _, peak = traced_peak(train, pairs, pool, HashingBackend(), cfg.train)
        assert peak < 5.0e6

    def test_training_log_csv(self):
        pool, backend, pair, _ = memorization_fixture()
        _, log = train([pair], pool, backend, TrainConfig(seed=1, epochs=3))
        text = write_training_log(log)
        lines = text.strip().splitlines()
        assert lines[0] == "step,edge_loss,node_loss,total,tau"
        assert len(lines) == 4


def reference_adam_step(cfg, t, tensors, m, v, grads):
    """The allocating Adam step the in-place one replaced, kept as the reference."""
    for name, g in grads.items():
        m[name] = cfg.adam_beta1 * m[name] + (1 - cfg.adam_beta1) * g
        v[name] = cfg.adam_beta2 * v[name] + (1 - cfg.adam_beta2) * g**2
        m_hat = m[name] / (1 - cfg.adam_beta1**t)
        v_hat = v[name] / (1 - cfg.adam_beta2**t)
        tensors[name] -= cfg.lr * m_hat / (np.sqrt(v_hat) + 1e-8)
        if name in _Adam.DECAYED:
            tensors[name] -= cfg.lr * cfg.weight_decay * tensors[name]


class TestAdam:
    def assert_steps_are_bitwise_the_reference(self, dead_rows):
        """50 steps on SMALL's buffer whose first ``dead_rows`` rows of w_gcn1
        get no gradient: those only decay, the rest take the reference step."""
        rng = np.random.default_rng(5)
        cfg = TrainConfig(lr=3e-2, weight_decay=1e-2)
        shapes = PruneNetParams.shapes(SMALL)
        skip = dead_rows * SMALL.h
        live_shapes = {**shapes, "w_gcn1": (SMALL.d - dead_rows, SMALL.h)}
        flat = np.concatenate([v.ravel() for v in small_params().tensors().values()])
        dead = flat[:skip].copy()
        ref = {k: v.copy() for k, v in _views(flat[skip:], live_shapes).items()}
        ref_m = {k: np.zeros_like(v) for k, v in ref.items()}
        ref_v = {k: np.zeros_like(v) for k, v in ref.items()}
        grad = np.empty(flat.size - skip)
        tensors, grads = _views(flat[skip:], live_shapes), _views(grad, live_shapes)
        opt = _Adam(cfg, shapes, skip)
        m, v = _views(opt.m, live_shapes), _views(opt.v, live_shapes)
        for t in range(1, 51):
            for g in grads.values():
                g[...] = rng.normal(scale=10.0 ** rng.integers(-6, 2), size=g.shape)
            opt.step(flat, grad)
            reference_adam_step(cfg, t, ref, ref_m, ref_v, grads)
            dead -= cfg.lr * cfg.weight_decay * dead
            assert flat[:skip].tobytes() == dead.tobytes(), t
            for k in ref:
                assert tensors[k].tobytes() == ref[k].tobytes(), (t, k)
                assert m[k].tobytes() == ref_m[k].tobytes(), (t, k)
                assert v[k].tobytes() == ref_v[k].tobytes(), (t, k)

    def test_in_place_step_is_bitwise_the_reference(self):
        self.assert_steps_are_bitwise_the_reference(0)

    def test_entries_before_skip_only_decay_and_the_rest_take_the_reference_step(self):
        self.assert_steps_are_bitwise_the_reference(3)


def reference_train(corpus, pool, backend, cfg, net):
    """The full-width training loop that ``train`` replaced: every row of
    w_gcn1 goes through forward, backward and Adam.  Kept as the reference."""
    rng = np.random.default_rng(cfg.seed)
    params = PruneNetParams.init(net, rng)
    texts = list(dict.fromkeys(pair.task_text for pair in corpus))
    pool_x, query_x = node_features(pool, texts, backend)
    row = {text: i for i, text in enumerate(texts)}
    query_row = np.array([row[pair.task_text] for pair in corpus])
    a_all = np.stack([pair.a_gt.w for pair in corpus])
    y_all = np.stack([pair.y.m for pair in corpus])
    n_batches = -(-len(corpus) // cfg.batch)
    total_steps = cfg.epochs * n_batches
    tensors = params.tensors()
    m = {k: np.zeros_like(v) for k, v in tensors.items()}
    v = {k: np.zeros_like(t) for k, t in tensors.items()}
    tail_start = int(np.ceil(total_steps * (1.0 - cfg.avg_tail)))
    tail = {k: np.zeros_like(t) for k, t in tensors.items()}
    log = []
    for step in range(total_steps):
        b = step % n_batches
        if b == 0:
            order = rng.permutation(len(corpus))
        batch = order[b * cfg.batch : (b + 1) * cfg.batch]
        tau = cfg.tau_start + (cfg.tau_end - cfg.tau_start) * step / max(1, total_steps - 1)
        focal = float(np.mean(y_all[batch].mean(axis=1))) < cfg.focal_threshold
        noise = gumbel_noise(rng, (len(batch), pool.n_max))
        f = forward(params, pool_x, query_x[query_row[batch]])
        lab = labels(a_all[batch], y_all[batch])
        _, grads, terms = loss_and_grads(params, f, lab, cfg, tau, noise, focal)
        losses = forward_losses(f, lab, terms, cfg, tau, focal)
        reference_adam_step(cfg, step + 1, tensors, m, v, grads)
        bad = [k for k, t in tensors.items() if not np.isfinite(t).all()]
        if bad:
            raise TrainingDiverged(step, f"training diverged at step {step}: non-finite {', '.join(bad)}")
        if step >= tail_start:
            for k in tail:
                tail[k] += tensors[k]
        log.append(TrainLogRow(step, *losses, tau))
    if total_steps > tail_start:
        params = PruneNetParams(**{k: t / (total_steps - tail_start) for k, t in tail.items()})
    return params, log


class ZeroColumnBackend:
    """A random vector per text (seeded by its crc32), zero in the columns
    where ``live`` is False."""

    def __init__(self, live):
        self.live = np.asarray(live, dtype=bool)
        self.dim = self.live.size

    def embed(self, text):
        v = np.random.default_rng(zlib.crc32(text.encode())).normal(size=self.dim)
        return np.where(self.live, v, 0.0)


def pair_corpus(rng, pool, size):
    pairs = []
    for i in range(size):
        members = sorted(rng.choice(pool.n_max, int(rng.integers(2, 6)), replace=False).tolist())
        a_gt, y = lift_subgraph(Topology.complete(len(members)), members, pool.n_max)
        pairs.append(SupervisionPair(f"t{i}", f"question {i % 3}", "math_reasoning", a_gt, y, 1.0))
    return pairs


def copied(pair):
    """``pair`` with label objects of its own."""
    a_gt, y = WeightMatrix(pair.a_gt.n, pair.a_gt.w), NodeMask(pair.y.n, pair.y.m)
    return SupervisionPair(pair.task_id, pair.task_text, pair.category, a_gt, y, pair.score)


class TestSharedLabels:
    NET = NetConfig(d=12, h=8, h_m=4, n_max=15)

    def assert_trains_bitwise_as_copies(self, corpus, batch):
        pool, backend = load_default_pool(), ZeroColumnBackend([True] * 12)
        cfg = TrainConfig(seed=4, epochs=3, batch=batch, lr=1e-2)
        got, got_log = train(corpus, pool, backend, cfg, self.NET)
        want, want_log = train([copied(p) for p in corpus], pool, backend, cfg, self.NET)
        for name, t in got.tensors().items():
            assert t.tobytes() == want.tensors()[name].tobytes(), name
        assert got_log == want_log

    def test_pairs_sharing_label_objects_train_as_copies(self):
        pool = load_default_pool()
        graphs = [lift_subgraph(Topology.complete(len(m)), m, pool.n_max) for m in ([0, 3, 6], [2, 5], [1, 8, 13, 14])]
        corpus = [
            SupervisionPair(f"t{i}", f"question {i % 4}", "math_reasoning", *graphs[i % 3], 1.0)
            for i in range(11)
        ]
        self.assert_trains_bitwise_as_copies(corpus, batch=4)

    def test_pairs_sharing_a_gt_but_not_y_keep_their_own_y(self):
        zero = WeightMatrix(15, np.zeros((15, 15)))
        masks = [NodeMask(15, np.isin(np.arange(15), m)) for m in ([0, 3, 6], [2, 5, 7, 9, 11])]
        corpus = [
            SupervisionPair(f"t{i}", f"question {i}", "math_reasoning", zero, masks[i % 2], 1.0)
            for i in range(6)
        ]
        self.assert_trains_bitwise_as_copies(corpus, batch=3)


class TestLiveRows:
    NET = NetConfig(d=12, h=8, h_m=4, n_max=15)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        live=st.one_of(st.just([True] * 12), st.lists(st.booleans(), min_size=12, max_size=12)),
        avg_tail=st.sampled_from([0.0, 1.0]),
        batch=st.integers(1, 4),
    )
    def test_train_equals_the_full_width_loop(self, seed, live, avg_tail, batch):
        pool = load_default_pool()
        corpus = pair_corpus(np.random.default_rng(seed), pool, 5)
        cfg = TrainConfig(seed=seed, epochs=3, batch=batch, avg_tail=avg_tail, lr=1e-2, weight_decay=0.1)
        got, got_log = train(corpus, pool, ZeroColumnBackend(live), cfg, self.NET)
        want, want_log = reference_train(corpus, pool, ZeroColumnBackend(live), cfg, self.NET)
        # a column is dead when every text embeds to 0 there; an all-zero
        # text embeds to the first basis vector, so column 0 may be live anyway
        pool_x, query_x = node_features(pool, list({p.task_text for p in corpus}), ZeroColumnBackend(live))
        dead = ~((pool_x != 0).any(axis=0) | (query_x != 0).any(axis=0))
        assert got.w_gcn1[dead].tobytes() == want.w_gcn1[dead].tobytes()
        for name, t in got.tensors().items():
            ref = want.tensors()[name]
            assert t.shape == ref.shape
            # relative to the tensor's scale: an entry near 0 keeps the
            # absolute round-off of the larger ones
            scale = np.abs(ref).max()
            np.testing.assert_allclose(t, ref, rtol=1e-12, atol=1e-12 * scale, err_msg=name)
        assert len(got_log) == len(want_log)
        for g, w in zip(got_log, want_log):
            assert (g.step, g.tau) == (w.step, w.tau)
            np.testing.assert_allclose(
                [g.edge_loss, g.node_loss, g.total], [w.edge_loss, w.node_loss, w.total], rtol=1e-12
            )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_in_a_dead_row_is_named_as_the_full_width_loop_names_it(self):
        # d = 2 with only column 0 live.  At step 0 the decay overflows the
        # dead row's largest entry but no entry of the live row, which Adam
        # moves by at most lr.
        pool = load_default_pool()
        net = NetConfig(d=2, h=8, h_m=4, n_max=15)
        lr = 0.5
        w = PruneNetParams.init(net, np.random.default_rng(0)).w_gcn1
        live_max, dead_max = np.abs(w[0]).max() + lr, np.abs(w[1]).max()
        assert dead_max > 1.5 * live_max
        decay = np.finfo(float).max / np.sqrt(live_max * dead_max)
        cfg = TrainConfig(seed=0, epochs=2, lr=lr, weight_decay=decay / lr)
        corpus = pair_corpus(np.random.default_rng(0), pool, 3)
        backend = ZeroColumnBackend([True, False])
        with pytest.raises(TrainingDiverged) as want:
            reference_train(corpus, pool, backend, cfg, net)
        with pytest.raises(TrainingDiverged) as got:
            train(corpus, pool, backend, cfg, net)
        assert "w_gcn1" in str(want.value)
        assert (got.value.step, str(got.value)) == (want.value.step, str(want.value))


class CountingZeroColumnBackend(ZeroColumnBackend):
    """Records each text it embeds; ``widths`` maps a text to a width of its own."""

    def __init__(self, live, widths=None):
        super().__init__(live)
        self.widths = widths or {}
        self.texts = []

    def embed(self, text):
        self.texts.append(text)
        return super().embed(text)[: self.widths.get(text, self.dim)]


class TestTrainingEmbeds:
    NET = NetConfig(d=12, h=8, h_m=4, n_max=15)

    def test_each_distinct_text_is_embedded_once_and_kept_out_of_the_memo(self):
        pool = load_default_pool()
        corpus = pair_corpus(np.random.default_rng(1), pool, 7)  # 7 pairs on 3 texts
        backend = CountingZeroColumnBackend([True] * 12)
        params, _ = train(corpus, pool, backend, TrainConfig(seed=1, epochs=1), self.NET)
        pool_texts = list(dict.fromkeys(f"{a.role} {a.expertise}" for a in pool.agents))
        assert sorted(backend.texts) == sorted([*pool_texts, "question 0", "question 1", "question 2"])
        # each later design of a training text reaches the backend again; the memo keeps the pool's texts
        for _ in range(2):
            design_topology("question 1", pool, backend, params)
        assert backend.texts[len(pool_texts) + 3 :] == ["question 1", "question 1"]

    def test_a_text_of_another_width_is_a_dimension_error(self):
        pool = load_default_pool()
        corpus = pair_corpus(np.random.default_rng(1), pool, 7)
        backend = CountingZeroColumnBackend([True] * 12, widths={"question 2": 11})
        with pytest.raises(DimensionError, match=r"feature shape \(11,\) of 'question 2' does not match d=12"):
            train(corpus, pool, backend, TrainConfig(seed=1, epochs=1), self.NET)
        with pytest.raises(DimensionError, match="feature width 12 does not match d=13"):
            train(corpus, pool, backend, TrainConfig(seed=1, epochs=1), NetConfig(d=13, h=8, h_m=4, n_max=15))


class SparseColumnBackend:
    """A random vector per text (seeded by its crc32) on a drawn third of the
    columns, so blocks of texts have columns of their own; the last column
    is zero for every text."""

    def __init__(self, dim):
        self.dim = dim
        self.texts = []

    def embed(self, text):
        self.texts.append(text)
        rng = np.random.default_rng(zlib.crc32(text.encode()))
        v = rng.normal(size=self.dim) * (rng.random(self.dim) < 1 / 3)
        v[-1] = 0.0
        return v


class TestTrainingFeatureBlocks:
    NET = NetConfig(d=12, h=8, h_m=4, n_max=15)

    def test_any_block_size_trains_bitwise_as_one_block(self, monkeypatch):
        pool = load_default_pool()
        rng = np.random.default_rng(5)
        corpus = [
            SupervisionPair(p.task_id, f"question {rng.integers(40)}", p.category, p.a_gt, p.y, p.score)
            for p in pair_corpus(rng, pool, 60)
        ]
        runs = []
        for block in (10**9, 7, 1):
            monkeypatch.setattr(prunenet, "_EMBED_BLOCK", block)
            backend = SparseColumnBackend(12)
            params, log = train(corpus, pool, backend, TrainConfig(seed=2, epochs=2), self.NET)
            runs.append((backend.texts, params.tensors(), log))
        for texts, tensors, log in runs[1:]:
            assert texts == runs[0][0]  # the same embedding calls in the same order
            assert log == runs[0][2]
            for name, t in tensors.items():
                assert np.array_equal(t, runs[0][1][name]), name

    def test_a_backend_that_cannot_be_a_weak_key_gets_each_text_once(self, monkeypatch):
        # it got a fresh pool memo per block: on the train workload's inputs, 180 calls for the 15 pool texts
        @dataclass
        class Unhashable:  # a dataclass with eq and no hash cannot be a weak key
            inner: SparseColumnBackend
            dim: int = 12

            def embed(self, text):
                return self.inner.embed(text)

        monkeypatch.setattr(prunenet, "_EMBED_BLOCK", 7)
        pool = load_default_pool()
        corpus = [
            SupervisionPair(p.task_id, f"question {i}", p.category, p.a_gt, p.y, p.score)
            for i, p in enumerate(pair_corpus(np.random.default_rng(5), pool, 30))
        ]
        backend, hashable = Unhashable(SparseColumnBackend(12)), SparseColumnBackend(12)
        got, want = (train(corpus, pool, b, TrainConfig(seed=2, epochs=1), self.NET) for b in (backend, hashable))
        texts = [f"{a.role} {a.expertise}" for a in pool.agents] + [p.task_text for p in corpus]
        assert backend.inner.texts == hashable.texts == texts
        assert got[1] == want[1]
        for name, t in got[0].tensors().items():
            assert np.array_equal(t, want[0].tensors()[name]), name
        pool_x, query_x, used = prunenet._live_features(pool, texts[pool.n_max :], Unhashable(SparseColumnBackend(12)))
        all_pool, all_query = node_features(pool, texts[pool.n_max :], SparseColumnBackend(12))
        assert np.array_equal(pool_x, all_pool[:, used]) and np.array_equal(query_x, all_query[:, used])
        assert not (all_pool[:, ~used].any() or all_query[:, ~used].any())

    def test_no_matrix_holds_every_texts_full_feature_row(self):
        # 1,024 texts on 2,048 features, 64 of them live: node_features of every
        # text built a 16.8 MB matrix whose other 1,984 columns were zero
        pool, dim = load_default_pool(), 2048
        labelled = pair_corpus(np.random.default_rng(6), pool, 8)  # few label objects: small labels
        corpus = [
            SupervisionPair(f"t{i}", f"question number {i}", "math_reasoning", p.a_gt, p.y, 1.0)
            for i, p in enumerate(labelled * 128)
        ]
        net = NetConfig(d=dim, h=4, h_m=2, n_max=pool.n_max)
        _, peak = traced_peak(train, corpus, pool, HashingBackend(dim), TrainConfig(seed=0, epochs=1), net)
        assert peak < len(corpus) * dim * 8 / 2


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

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_equals_json_dumps_of_the_whole_checkpoint(self, data):
        net = NetConfig(*(data.draw(st.integers(0, 4)) for _ in range(4)))
        values = st.floats() | st.sampled_from([np.nan, np.inf, -np.inf, -0.0])
        tensors = {k: data.draw(arrays(float, shape, elements=values)) for k, shape in PruneNetParams.shapes(net).items()}
        params = PruneNetParams(**tensors)
        whole = {"version": 1, "config": asdict(net), "tensors": {k: v.tolist() for k, v in tensors.items()}}
        assert save_checkpoint(params, net) == json.dumps(whole)

    def test_peaks_under_2_5_times_its_text(self):
        # json.dumps held one string per float of every tensor's tolist(): 6.6 times the text
        net = NetConfig()
        text, peak = traced_peak(save_checkpoint, PruneNetParams.init(net, np.random.default_rng(0)), net)
        assert peak < 2.5 * len(text)

    def test_rejects_garbage(self):
        with pytest.raises(CheckpointError):
            load_checkpoint("{not json")
        with pytest.raises(CheckpointError):
            load_checkpoint('{"version": 9}')

    @pytest.mark.parametrize(
        "blob",
        ["[]", "5", '{"version": 1, "config": {}, "tensors": []}', "\ufeff{}"],
        ids=["list", "number", "tensors-list", "utf-8-bom"],
    )
    def test_rejects_malformed_document(self, blob):
        with pytest.raises(CheckpointError, match="malformed checkpoint"):
            load_checkpoint(blob)
