"""Stage II: the dual-pruning network.

A two-layer graph convolution over the max-complete graph (agents plus a
virtual query node) feeds two heads: a bilinear edge-weight head and a
node-mask MLP.  Training couples an edge loss and a node loss through a
Gumbel-Sigmoid bridge and optimizes with Adam plus decoupled weight
decay.  Gradients are hand-written reverse-mode over this fixed
computation graph; no general autodiff engine is involved.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, asdict
from typing import NamedTuple, Sequence

import numpy as np

from .embed import DEFAULT_DIM, EmbeddingBackend, build_node_features
from .errors import CheckpointError, ConfigError, DimensionError, TrainingDiverged
from .graphs import CommTopology, NodeMask, SupervisionPair, WeightMatrix, induce
from .pool import AgentPool

_CLAMP = 1e-7


@dataclass
class NetConfig:
    d: int = DEFAULT_DIM
    h: int = 64
    h_m: int = 32
    n_max: int = 15


@dataclass
class PruneNetParams:
    """All trainable tensors; shapes fixed by a NetConfig."""

    w_gcn1: np.ndarray  # d x h
    w_gcn2: np.ndarray  # h x h
    b_edge: np.ndarray  # h x h bilinear form
    mlp_w1: np.ndarray  # h x h_m
    mlp_b1: np.ndarray  # h_m
    mlp_w2: np.ndarray  # h_m
    mlp_b2: float

    # Init gain: unit-norm embedding rows through two averaging layers
    # leave latents tiny, and at lr 1e-3 the heads cannot recover the
    # scale within a short training budget, so the fan-in stds carry an
    # extra gain factor.
    INIT_GAIN = 3.0

    @classmethod
    def init(cls, cfg: NetConfig, rng: np.random.Generator) -> "PruneNetParams":
        d, h, hm = cfg.d, cfg.h, cfg.h_m
        g = cls.INIT_GAIN
        return cls(
            w_gcn1=rng.normal(0.0, g * np.sqrt(2.0 / d), size=(d, h)),
            w_gcn2=rng.normal(0.0, g * np.sqrt(2.0 / h), size=(h, h)),
            b_edge=rng.normal(0.0, 1.0 / np.sqrt(h), size=(h, h)),
            mlp_w1=rng.normal(0.0, g * np.sqrt(2.0 / h), size=(h, hm)),
            mlp_b1=np.zeros(hm),
            mlp_w2=rng.normal(0.0, g * np.sqrt(2.0 / hm), size=hm),
            mlp_b2=0.0,
        )

    def tensors(self) -> dict[str, np.ndarray]:
        return {
            "w_gcn1": self.w_gcn1,
            "w_gcn2": self.w_gcn2,
            "b_edge": self.b_edge,
            "mlp_w1": self.mlp_w1,
            "mlp_b1": self.mlp_b1,
            "mlp_w2": self.mlp_w2,
            "mlp_b2": np.atleast_1d(np.asarray(self.mlp_b2, dtype=float)),
        }

    def net_config(self) -> NetConfig:
        d, h = self.w_gcn1.shape
        return NetConfig(d=d, h=h, h_m=self.mlp_w1.shape[1], n_max=-1)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


_SELF_WEIGHT = 0.4
_MEAN_WEIGHT = 0.4
_QUERY_WEIGHT = 0.2


def _prop_matrix(n_full: int) -> np.ndarray:
    """Propagation operator over the complete graph with self-loops.

    Each row mixes the node itself, the graph mean, and the virtual
    query node (last row).  A plain symmetric-normalized complete
    adjacency is the uniform averaging matrix, which maps every node to
    the same latent and destroys node identity, so the self term is kept
    explicit; the query term is re-weighted because its 1/n share of the
    mean would otherwise drown the task signal in pool size.
    """
    a = _SELF_WEIGHT * np.eye(n_full) + _MEAN_WEIGHT * np.full(
        (n_full, n_full), 1.0 / n_full
    )
    a[:, -1] += _QUERY_WEIGHT
    return a


class Forward(NamedTuple):
    """One forward pass: head logits plus what the backward pass reuses."""

    a_hat: np.ndarray  # propagation operator, agents plus query row
    p: np.ndarray  # propagated features
    u: np.ndarray  # layer-1 pre-activation
    q: np.ndarray  # propagated relu(u)
    z: np.ndarray  # agent latents (query row dropped)
    t: np.ndarray  # node-MLP hidden pre-activation
    lmat: np.ndarray  # edge logits z_i . (B z_j)
    s: np.ndarray  # node logits


def forward(params: PruneNetParams, x: np.ndarray) -> Forward:
    """Two propagation layers (relu after the first only), then both heads' logits."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != params.w_gcn1.shape[0]:
        raise DimensionError(f"feature matrix shape {x.shape} does not match d={params.w_gcn1.shape[0]}")
    a_hat = _prop_matrix(x.shape[0])
    p = a_hat @ x
    u = p @ params.w_gcn1
    q = a_hat @ np.maximum(u, 0.0)
    z = (q @ params.w_gcn2)[:-1]
    t = z @ params.mlp_w1 + params.mlp_b1
    lmat = z @ params.b_edge @ z.T
    s = np.maximum(t, 0.0) @ params.mlp_w2 + params.mlp_b2
    return Forward(a_hat, p, u, q, z, t, lmat, s)


def heads(
    f: Forward,
    tau: float = 1.0,
    edge_noise: np.ndarray | None = None,
    node_noise: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Edge weights and mask probabilities: sigmoid((logit + noise) / tau).

    The edge diagonal is forced to 0.  With Gumbel-difference noise this
    is the Gumbel-Sigmoid relaxation; without noise it is the
    deterministic head used for logging and design.
    """
    e = f.lmat if edge_noise is None else f.lmat + edge_noise
    w_pred = _sigmoid(e / tau)
    np.fill_diagonal(w_pred, 0.0)
    s = f.s if node_noise is None else f.s + node_noise
    return w_pred, _sigmoid(s / tau)


def gumbel_noise(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """g1 - g2 for iid standard Gumbel draws; g1 is drawn first."""
    g1 = -np.log(-np.log(rng.uniform(size=shape)))
    g2 = -np.log(-np.log(rng.uniform(size=shape)))
    return g1 - g2


def _as_array(v) -> np.ndarray:
    return np.asarray(getattr(v, "w", getattr(v, "m", v)), dtype=float)


def edge_loss(w_pred, a_gt, y, lambda_off: float) -> float:
    """Masked MSE on supervised pairs plus a push-to-zero term off-mask."""
    w = _as_array(w_pred)
    a = _as_array(a_gt)
    yv = _as_array(y)
    if w.shape != a.shape or w.shape[0] != yv.shape[0]:
        raise DimensionError("edge_loss shapes disagree")
    n = w.shape[0]
    off_diag = 1.0 - np.eye(n)
    m = np.outer(yv, yv) * off_diag
    m1 = m.sum()
    first = float((m * (w - a) ** 2).sum() / m1) if m1 > 0 else 0.0
    off_count = n * (n - 1) - m1
    anti = (1.0 - m) * off_diag
    second = float(lambda_off * (anti * w**2).sum() / off_count) if off_count > 0 else 0.0
    return first + second


def node_loss(
    y_hat,
    y,
    w_pred,
    lambda_s: float,
    lambda_c: float,
    focal: bool = False,
    focal_gamma: float = 2.0,
) -> float:
    """BCE (or focal) mask loss plus sparsity and coherence penalties."""
    yh = _as_array(y_hat)
    yv = _as_array(y)
    w = _as_array(w_pred)
    n = yh.shape[0]
    yc = np.clip(yh, _CLAMP, 1.0 - _CLAMP)
    if focal:
        bce = -(
            yv * (1.0 - yc) ** focal_gamma * np.log(yc)
            + (1.0 - yv) * yc**focal_gamma * np.log(1.0 - yc)
        ).mean()
    else:
        bce = -(yv * np.log(yc) + (1.0 - yv) * np.log(1.0 - yc)).mean()
    sparsity = lambda_s * yh.mean()
    absent = yv == 0
    coherence = lambda_c * np.abs(w[absent, :]).sum() / n**2
    return float(bce + sparsity + coherence)


def total_loss(edge: float, node: float, beta: float) -> float:
    return edge + beta * node


@dataclass
class TrainConfig:
    lr: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.95
    weight_decay: float = 1e-5
    epochs: int = 20
    batch: int = 10
    lambda_off: float = 0.5
    lambda_s: float = 0.1
    lambda_c: float = 0.05
    beta: float = 1.0
    tau_start: float = 1.0
    tau_end: float = 0.1
    focal_gamma: float = 2.0
    focal_threshold: float = 0.20
    # Gumbel noise placement is per head: node-head noise regularizes the
    # mask decision, while edge-head noise feeds back into the mask loss
    # through the coherence term and destabilizes borderline members, so
    # it is off by default.
    gumbel_edges: bool = False
    gumbel_nodes: bool = True
    # fraction of final steps whose parameters are averaged into the
    # returned weights; late low-temperature updates are high-variance,
    # and the tail mean is far more stable than the last iterate
    avg_tail: float = 0.25
    seed: int = 0

    def validate(self) -> None:
        if self.lr < 0:
            raise ConfigError("lr must be non-negative")
        if self.batch < 1 or self.epochs < 1:
            raise ConfigError("batch and epochs must be >= 1")
        if not self.tau_start >= self.tau_end > 0:
            raise ConfigError("temperatures must satisfy tau_start >= tau_end > 0")
        if not 0.0 <= self.avg_tail <= 1.0:
            raise ConfigError("avg_tail must lie in [0, 1]")


def loss_and_grads(
    params: PruneNetParams,
    f: Forward,
    a_gt: np.ndarray,
    y: np.ndarray,
    cfg: TrainConfig,
    tau: float = 1.0,
    edge_noise: np.ndarray | None = None,
    node_noise: np.ndarray | None = None,
    focal: bool = False,
) -> tuple[tuple[float, float, float], dict[str, np.ndarray]]:
    """One supervision pair: losses plus gradients of the total loss.

    ``f`` is ``forward(params, x)`` for the pair's features.
    ``edge_noise`` / ``node_noise`` are additive logit perturbations
    (Gumbel differences during training, None for the deterministic
    path); tau rescales logits before the sigmoid in both heads.
    """
    a = _as_array(a_gt)
    yv = _as_array(y)
    z = f.z
    n = z.shape[0]
    w_pred, y_hat = heads(f, tau, edge_noise, node_noise)

    e_loss = edge_loss(w_pred, a, yv, cfg.lambda_off)
    n_loss = node_loss(y_hat, yv, w_pred, cfg.lambda_s, cfg.lambda_c, focal, cfg.focal_gamma)
    t_loss = total_loss(e_loss, n_loss, cfg.beta)

    # backward: d total / d w_pred
    off_diag = 1.0 - np.eye(n)
    m = np.outer(yv, yv) * off_diag
    m1 = m.sum()
    off_count = n * (n - 1) - m1
    d_wp = np.zeros((n, n))
    if m1 > 0:
        d_wp += 2.0 / m1 * m * (w_pred - a)
    if off_count > 0:
        d_wp += 2.0 * cfg.lambda_off / off_count * (1.0 - m) * off_diag * w_pred
    # coherence term of the node loss also reaches w_pred
    absent = (yv == 0).astype(float)
    d_wp += cfg.beta * cfg.lambda_c / n**2 * absent[:, None] * np.sign(w_pred)

    # d total / d y_hat
    yc = np.clip(y_hat, _CLAMP, 1.0 - _CLAMP)
    inside = ((y_hat > _CLAMP) & (y_hat < 1.0 - _CLAMP)).astype(float)
    if focal:
        g = cfg.focal_gamma
        d_bce = (
            yv * (g * (1.0 - yc) ** (g - 1.0) * np.log(yc) - (1.0 - yc) ** g / yc)
            + (1.0 - yv) * (-g * yc ** (g - 1.0) * np.log(1.0 - yc) + yc**g / (1.0 - yc))
        ) / n
    else:
        d_bce = (-yv / yc + (1.0 - yv) / (1.0 - yc)) / n
    d_yh = cfg.beta * (d_bce * inside + cfg.lambda_s / n)

    # back through the two sigmoid bridges
    ge = d_wp * w_pred * (1.0 - w_pred) / tau
    np.fill_diagonal(ge, 0.0)
    ds = d_yh * y_hat * (1.0 - y_hat) / tau

    # edge head
    d_b_edge = z.T @ ge @ z
    dz = ge @ z @ params.b_edge.T + ge.T @ z @ params.b_edge

    # node head
    d_mlp_w2 = np.maximum(f.t, 0.0).T @ ds
    d_mlp_b2 = float(ds.sum())
    dr = np.outer(ds, params.mlp_w2)
    dt = dr * (f.t > 0)
    d_mlp_w1 = z.T @ dt
    d_mlp_b1 = dt.sum(axis=0)
    dz += dt @ params.mlp_w1.T

    # GCN backbone (virtual query row receives no head gradient)
    dz_full = np.vstack([dz, np.zeros((1, z.shape[1]))])
    d_w_gcn2 = f.q.T @ dz_full
    dq = dz_full @ params.w_gcn2.T
    dh1 = f.a_hat.T @ dq
    du = dh1 * (f.u > 0)
    d_w_gcn1 = f.p.T @ du

    grads = {
        "w_gcn1": d_w_gcn1,
        "w_gcn2": d_w_gcn2,
        "b_edge": d_b_edge,
        "mlp_w1": d_mlp_w1,
        "mlp_b1": d_mlp_b1,
        "mlp_w2": d_mlp_w2,
        "mlp_b2": np.atleast_1d(d_mlp_b2),
    }
    return (e_loss, n_loss, t_loss), grads


def forward_losses(
    f: Forward,
    a_gt: np.ndarray,
    y: np.ndarray,
    cfg: TrainConfig,
    tau: float = 1.0,
    focal: bool = False,
) -> tuple[float, float, float]:
    """Noise-free losses of a forward pass at temperature tau (no gradients)."""
    w_pred, y_hat = heads(f, tau)
    e = edge_loss(w_pred, a_gt, y, cfg.lambda_off)
    n = node_loss(y_hat, y, w_pred, cfg.lambda_s, cfg.lambda_c, focal, cfg.focal_gamma)
    return e, n, total_loss(e, n, cfg.beta)


@dataclass
class TrainLogRow:
    step: int
    edge_loss: float
    node_loss: float
    total: float
    tau: float


def write_training_log(rows: Sequence[TrainLogRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["step", "edge_loss", "node_loss", "total", "tau"])
    for r in rows:
        writer.writerow([r.step, f"{r.edge_loss:.6f}", f"{r.node_loss:.6f}", f"{r.total:.6f}", f"{r.tau:.4f}"])
    return buf.getvalue()


class _Adam:
    """Adam with decoupled weight decay; biases are not decayed."""

    DECAYED = {"w_gcn1", "w_gcn2", "b_edge", "mlp_w1", "mlp_w2"}

    def __init__(self, cfg: TrainConfig, shapes: dict[str, tuple]):
        self.cfg = cfg
        self.t = 0
        self.m = {k: np.zeros(s) for k, s in shapes.items()}
        self.v = {k: np.zeros(s) for k, s in shapes.items()}

    def step(self, tensors: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        c = self.cfg
        self.t += 1
        for name, g in grads.items():
            self.m[name] = c.adam_beta1 * self.m[name] + (1 - c.adam_beta1) * g
            self.v[name] = c.adam_beta2 * self.v[name] + (1 - c.adam_beta2) * g**2
            m_hat = self.m[name] / (1 - c.adam_beta1**self.t)
            v_hat = self.v[name] / (1 - c.adam_beta2**self.t)
            tensors[name] -= c.lr * m_hat / (np.sqrt(v_hat) + 1e-8)
            if name in self.DECAYED:
                tensors[name] -= c.lr * c.weight_decay * tensors[name]


def _apply_tensors(params: PruneNetParams, tensors: dict[str, np.ndarray]) -> None:
    params.w_gcn1 = tensors["w_gcn1"]
    params.w_gcn2 = tensors["w_gcn2"]
    params.b_edge = tensors["b_edge"]
    params.mlp_w1 = tensors["mlp_w1"]
    params.mlp_b1 = tensors["mlp_b1"]
    params.mlp_w2 = tensors["mlp_w2"]
    params.mlp_b2 = float(tensors["mlp_b2"][0])


def train(
    corpus: Sequence[SupervisionPair],
    pool: AgentPool,
    backend: EmbeddingBackend,
    cfg: TrainConfig,
    net: NetConfig | None = None,
    steps_override: int | None = None,
) -> tuple[PruneNetParams, list[TrainLogRow]]:
    """Adam training over minibatches with a linear tau anneal.

    ``steps_override`` runs a fixed number of updates instead of
    epochs * batches (used by overfitting checks).
    """
    if not corpus:
        raise ValueError("corpus is empty")
    cfg.validate()
    net = net or NetConfig(d=backend.dim, n_max=pool.n_max)
    rng = np.random.default_rng(cfg.seed)
    params = PruneNetParams.init(net, rng)

    features = {}
    for pair in corpus:
        if pair.task_text not in features:
            features[pair.task_text] = build_node_features(pool, pair.task_text, backend)

    n_batches = max(1, (len(corpus) + cfg.batch - 1) // cfg.batch)
    total_steps = steps_override if steps_override is not None else cfg.epochs * n_batches
    tensors = params.tensors()
    tensors = {k: v.copy() for k, v in tensors.items()}
    opt = _Adam(cfg, {k: v.shape for k, v in tensors.items()})
    log: list[TrainLogRow] = []
    tail_start = int(np.ceil(total_steps * (1.0 - cfg.avg_tail)))
    tail_sum = {k: np.zeros_like(v) for k, v in tensors.items()}
    tail_count = 0

    step = 0
    while step < total_steps:
        order = rng.permutation(len(corpus))
        for b in range(n_batches):
            if step >= total_steps:
                break
            batch_idx = order[b * cfg.batch : (b + 1) * cfg.batch]
            if len(batch_idx) == 0:
                continue
            tau = cfg.tau_start
            if total_steps > 1:
                tau += (cfg.tau_end - cfg.tau_start) * step / (total_steps - 1)
            batch = [corpus[i] for i in batch_idx]
            active_frac = float(np.mean([p.y.m.mean() for p in batch]))
            focal = active_frac < cfg.focal_threshold
            _apply_tensors(params, tensors)
            sums = np.zeros(3)
            acc = {k: np.zeros_like(v) for k, v in tensors.items()}
            for pair in batch:
                n = pool.n_max
                e_noise = gumbel_noise(rng, (n, n)) if cfg.gumbel_edges else None
                n_noise = gumbel_noise(rng, (n,)) if cfg.gumbel_nodes else None
                f = forward(params, features[pair.task_text])
                noisy, grads = loss_and_grads(
                    params, f, pair.a_gt.w, pair.y.m, cfg,
                    tau=tau, edge_noise=e_noise, node_noise=n_noise, focal=focal,
                )
                if not np.isfinite(noisy[2]):
                    raise TrainingDiverged(step)
                # log the noise-free objective at the current temperature
                losses = forward_losses(f, pair.a_gt.w, pair.y.m, cfg, tau=tau, focal=focal)
                sums += np.array(losses)
                for k in acc:
                    acc[k] += grads[k]
            mean_losses = sums / len(batch)
            if not np.isfinite(mean_losses).all():
                raise TrainingDiverged(step)
            for k in acc:
                acc[k] /= len(batch)
            opt.step(tensors, acc)
            if step >= tail_start:
                for k in tail_sum:
                    tail_sum[k] += tensors[k]
                tail_count += 1
            log.append(TrainLogRow(step, mean_losses[0], mean_losses[1], mean_losses[2], tau))
            step += 1
    if tail_count > 0:
        tensors = {k: v / tail_count for k, v in tail_sum.items()}
    _apply_tensors(params, tensors)
    return params, log


def design_topology(
    query: str,
    pool: AgentPool,
    backend: EmbeddingBackend,
    params: PruneNetParams,
    theta: float = 0.5,
) -> CommTopology:
    """Deterministic inference: threshold the mask head, induce the weights.

    If fewer than two agents pass the threshold, the top-2 mask
    probabilities are kept instead (lower id wins ties).
    """
    w_pred, y_hat = heads(forward(params, build_node_features(pool, query, backend)))
    m = (y_hat >= theta).astype(float)
    if m.sum() < 2:
        top2 = np.argsort(-y_hat, kind="stable")[:2]
        m = np.zeros_like(m)
        m[top2] = 1.0
    return induce(WeightMatrix(pool.n_max, w_pred), NodeMask(pool.n_max, m))


def save_checkpoint(params: PruneNetParams, net: NetConfig) -> bytes:
    obj = {
        "version": 1,
        "config": asdict(net),
        "tensors": {k: v.tolist() for k, v in params.tensors().items()},
    }
    return json.dumps(obj).encode()


def load_checkpoint(data: bytes | str) -> tuple[PruneNetParams, NetConfig]:
    if isinstance(data, bytes):
        data = data.decode()
    try:
        obj = json.loads(data)
        if obj.get("version") != 1:
            raise CheckpointError(f"unsupported checkpoint version {obj.get('version')}")
        net = NetConfig(**obj["config"])
        t = {k: np.array(v, dtype=float) for k, v in obj["tensors"].items()}
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"malformed checkpoint: {exc}") from exc
    expected = {
        "w_gcn1": (net.d, net.h),
        "w_gcn2": (net.h, net.h),
        "b_edge": (net.h, net.h),
        "mlp_w1": (net.h, net.h_m),
        "mlp_b1": (net.h_m,),
        "mlp_w2": (net.h_m,),
        "mlp_b2": (1,),
    }
    for name, shape in expected.items():
        if name not in t or t[name].shape != shape:
            raise CheckpointError(
                f"tensor {name}: expected shape {shape}, got {t.get(name, np.empty(0)).shape}"
            )
        if not np.isfinite(t[name]).all():
            raise CheckpointError(f"tensor {name} has non-finite values")
    params = PruneNetParams(
        w_gcn1=t["w_gcn1"],
        w_gcn2=t["w_gcn2"],
        b_edge=t["b_edge"],
        mlp_w1=t["mlp_w1"],
        mlp_b1=t["mlp_b1"],
        mlp_w2=t["mlp_w2"],
        mlp_b2=float(t["mlp_b2"][0]),
    )
    return params, net
