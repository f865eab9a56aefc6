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
import math
from dataclasses import asdict, dataclass, fields
from typing import NamedTuple, Sequence

import numpy as np

from .embed import DEFAULT_DIM, EmbeddingBackend, node_features
from .errors import CheckpointError, ConfigError, DimensionError, TrainingDiverged
from .errors import check_numbers, check_types, check_within, reading, within
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
    """All trainable tensors, shaped by ``shapes``; training updates them in place."""

    w_gcn1: np.ndarray
    w_gcn2: np.ndarray
    b_edge: np.ndarray  # bilinear form
    mlp_w1: np.ndarray
    mlp_b1: np.ndarray
    mlp_w2: np.ndarray
    mlp_b2: np.ndarray

    # Init gain: unit-norm embedding rows through two averaging layers
    # leave latents tiny, and at lr 1e-3 the heads cannot recover the
    # scale within a short training budget, so the fan-in stds carry an
    # extra gain factor.
    INIT_GAIN = 3.0

    @staticmethod
    def shapes(cfg: NetConfig) -> dict[str, tuple]:
        d, h, hm = cfg.d, cfg.h, cfg.h_m
        return dict(w_gcn1=(d, h), w_gcn2=(h, h), b_edge=(h, h), mlp_w1=(h, hm),
                    mlp_b1=(hm,), mlp_w2=(hm,), mlp_b2=(1,))

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
            mlp_b2=np.zeros(1),
        )

    def tensors(self) -> dict[str, np.ndarray]:
        """The live arrays by field name; writing to them changes the net."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _slices(shapes: dict[str, tuple]) -> dict[str, slice]:
    """Where each tensor lies in one flat buffer that holds them in order."""
    slices, start = {}, 0
    for name, shape in shapes.items():
        slices[name] = slice(start, start + math.prod(shape))
        start = slices[name].stop
    return slices


def _views(buf: np.ndarray, shapes: dict[str, tuple]) -> dict[str, np.ndarray]:
    """The tensors of the flat ``buf``, shaped by ``shapes``."""
    return {name: buf[s].reshape(shapes[name]) for name, s in _slices(shapes).items()}


_SELF_WEIGHT = 0.4
_MEAN_WEIGHT = 0.4
_QUERY_WEIGHT = 0.2

# Propagation over the complete graph with self-loops, agents plus the
# virtual query node (last row): row i of A X is
#     _SELF_WEIGHT x_i + _MEAN_WEIGHT mean_j x_j + _QUERY_WEIGHT x_query.
# A plain symmetric-normalized complete adjacency is the uniform averaging
# matrix, which maps every node to the same latent and destroys node
# identity, so the self term is kept explicit; the query term is
# re-weighted because its 1/n share of the mean would otherwise drown the
# task signal in pool size.


class Forward(NamedTuple):
    """A batch of forward passes over one pool: head logits plus what the backward pass reuses.

    Layer 1 is factored as ``A X = c0 + c x_query``: ``c0`` comes from the
    pool rows alone and is shared by the batch.
    """

    c0: np.ndarray  # (n+1, d) pool part of the layer-1 propagation
    c: np.ndarray  # (n+1,) weight of the query row in each propagated row
    xq: np.ndarray  # (B, d) query rows
    u: np.ndarray  # (B, n+1, h) layer-1 pre-activation
    q: np.ndarray  # (B, n, h) propagated relu(u), agent rows
    z: np.ndarray  # (B, n, h) agent latents
    zb: np.ndarray  # (B, n, h) z @ b_edge
    t: np.ndarray  # (B, n, h_m) node-MLP hidden pre-activation
    lmat: np.ndarray  # (B, n, n) edge logits z_i . (b_edge z_j)
    s: np.ndarray  # (B, n) node logits


def pool_rows(pool_x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``Forward.c0`` and ``Forward.c``: the layer-1 propagation of the pool rows."""
    n_full = pool_x.shape[0] + 1
    pool_mean = _MEAN_WEIGHT / n_full * pool_x.sum(axis=0)
    c = np.full(n_full, _MEAN_WEIGHT / n_full + _QUERY_WEIGHT)
    c[-1] += _SELF_WEIGHT
    return np.vstack([_SELF_WEIGHT * pool_x + pool_mean, pool_mean]), c


def forward(
    params: PruneNetParams,
    pool_x: np.ndarray,
    query_x: np.ndarray,
    pool_part: tuple[np.ndarray, np.ndarray] | None = None,
) -> Forward:
    """Two propagation layers (relu after the first only), then both heads' logits.

    ``pool_x`` holds one row per agent, ``query_x`` one row per query of
    the batch; every query is propagated over the same pool.  ``pool_part``
    is ``pool_rows(pool_x)``, computed here when not given.
    """
    pool_x = np.asarray(pool_x, dtype=float)
    xq = np.asarray(query_x, dtype=float)
    d = params.w_gcn1.shape[0]
    if pool_x.ndim != 2 or xq.ndim != 2 or pool_x.shape[1] != d or xq.shape[1] != d:
        raise DimensionError(
            f"feature shapes {pool_x.shape} and {xq.shape} do not match d={d}"
        )
    c0, c = pool_rows(pool_x) if pool_part is None else pool_part
    mean_w = _MEAN_WEIGHT / (pool_x.shape[0] + 1)
    u = (c0 @ params.w_gcn1) + c[:, None] * (xq @ params.w_gcn1)[:, None, :]
    r = np.maximum(u, 0.0)
    q = _SELF_WEIGHT * r[:, :-1] + (mean_w * r.sum(axis=1) + _QUERY_WEIGHT * r[:, -1])[:, None]
    z = q @ params.w_gcn2
    t = z @ params.mlp_w1 + params.mlp_b1
    zb = z @ params.b_edge
    lmat = zb @ z.transpose(0, 2, 1)
    s = np.maximum(t, 0.0) @ params.mlp_w2 + params.mlp_b2
    return Forward(c0, c, xq, u, q, z, zb, t, lmat, s)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):  # exp overflows to inf for x < -709, giving 0
        return 1 / (1 + np.exp(-x))


def heads(
    f: Forward, tau: float = 1.0, node_noise: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Edge weights sigmoid(logit / tau) and mask probabilities sigmoid((logit + noise) / tau).

    The edge diagonal is forced to 0.  With Gumbel-difference noise on the
    node logits this is the Gumbel-Sigmoid relaxation; without noise it is
    the deterministic head used for logging and design.
    """
    w_pred = _sigmoid(f.lmat / tau)
    diag = np.arange(w_pred.shape[-1])
    w_pred[..., diag, diag] = 0.0
    s = f.s if node_noise is None else f.s + node_noise
    return w_pred, _sigmoid(s / tau)


def gumbel_noise(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """g1 - g2 for iid standard Gumbel draws along the last axis; g1 is drawn first.

    The draw for shape (B, n) equals B successive draws of shape (n,).
    """
    *lead, n = shape
    g = -np.log(-np.log(rng.uniform(size=(*lead, 2, n))))
    return g[..., 0, :] - g[..., 1, :]


class Labels(NamedTuple):
    """Supervision targets and the masks the losses read; a leading batch axis is optional."""

    a: np.ndarray  # (B, n, n) target edge weights
    y: np.ndarray  # (B, n) target node mask
    m: np.ndarray  # (B, n, n) supervised pairs: y_i y_j, i != j
    anti: np.ndarray  # (B, n, n) the other off-diagonal pairs
    absent: np.ndarray  # (B, n) 1 where y_i = 0
    m1: np.ndarray  # (B,) supervised pair count, at least 1
    off_count: np.ndarray  # (B,) other off-diagonal pair count, at least 1


def labels(a_gt: np.ndarray, y: np.ndarray) -> Labels:
    """Labels of targets a_gt (..., n, n) and y (..., n).

    A count of 0 is stored as 1: its mask is all zero, so its loss term
    is 0 either way.
    """
    a = np.asarray(a_gt, dtype=float)
    yv = np.asarray(y, dtype=float)
    if yv.ndim < 1 or a.shape != yv.shape + yv.shape[-1:]:
        raise DimensionError(f"label shapes {a.shape} and {yv.shape} disagree")
    n = yv.shape[-1]
    off_diag = 1.0 - np.eye(n)
    m = yv[..., :, None] * yv[..., None, :] * off_diag
    m1 = m.sum(axis=(-2, -1))
    return Labels(
        a, yv, m, (1.0 - m) * off_diag, (yv == 0).astype(float),
        np.maximum(m1, 1.0), np.maximum(n * (n - 1) - m1, 1.0),
    )


def _edge_losses(w_pred: np.ndarray, lab: Labels, lambda_off: float) -> np.ndarray:
    """Per pair: masked MSE on supervised pairs plus a push-to-zero term off-mask."""
    first = (lab.m * (w_pred - lab.a) ** 2).sum(axis=(-2, -1)) / lab.m1
    return first + lambda_off * (lab.anti * w_pred**2).sum(axis=(-2, -1)) / lab.off_count


def _coherence(w_pred: np.ndarray, absent: np.ndarray, lambda_c: float) -> np.ndarray:
    """Per pair: weight mass leaving agents outside the target team."""
    n = absent.shape[-1]
    return lambda_c * (absent[..., :, None] * np.abs(w_pred)).sum(axis=(-2, -1)) / n**2


def _mask_losses(
    y_hat: np.ndarray, y: np.ndarray, lambda_s: float, focal: bool, focal_gamma: float
) -> np.ndarray:
    """Per pair: BCE (or focal) mask loss plus the sparsity penalty."""
    yc = np.clip(y_hat, _CLAMP, 1.0 - _CLAMP)
    if focal:
        g = focal_gamma
        terms = y * (1.0 - yc) ** g * np.log(yc) + (1.0 - y) * yc**g * np.log(1.0 - yc)
    else:
        terms = y * np.log(yc) + (1.0 - y) * np.log(1.0 - yc)
    n = y.shape[-1]  # sums over n, not .mean: the same values without mean's overhead
    return -terms.sum(axis=-1) / n + lambda_s * (y_hat.sum(axis=-1) / n)


def edge_loss(w_pred, a_gt, y, lambda_off: float) -> float:
    """Masked MSE on supervised pairs plus a push-to-zero term off-mask."""
    w = np.asarray(w_pred, dtype=float)
    lab = labels(a_gt, y)
    if w.shape != lab.a.shape:
        raise DimensionError("edge_loss shapes disagree")
    return float(_edge_losses(w, lab, lambda_off))


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
    yv = np.asarray(y, dtype=float)
    mask = _mask_losses(np.asarray(y_hat, dtype=float), yv, lambda_s, focal, focal_gamma)
    coherence = _coherence(np.asarray(w_pred, dtype=float), (yv == 0).astype(float), lambda_c)
    return float(mask + coherence)


def total_loss(edge, node, beta: float):
    return edge + beta * node


@dataclass
class TrainConfig:
    lr: float = within(1e-3, "[0, inf)")
    adam_beta1: float = within(0.9, "[0, 1)")
    adam_beta2: float = within(0.95, "[0, 1)")
    weight_decay: float = within(1e-5, "[0, inf)")
    epochs: int = within(20, "[0, inf)")  # 0 suits a config that never trains
    batch: int = within(10, "[1, inf)")
    lambda_off: float = within(0.5, "[0, inf)")
    lambda_s: float = within(0.1, "[0, inf)")
    lambda_c: float = within(0.05, "[0, inf)")
    beta: float = within(1.0, "[0, inf)")
    tau_start: float = within(1.0, "(0, inf)")
    tau_end: float = within(0.1, "(0, inf)")
    focal_gamma: float = within(2.0, "[0, inf)")
    focal_threshold: float = within(0.20, "[0, 1]")
    # fraction of final steps whose parameters are averaged into the
    # returned weights; late low-temperature updates are high-variance,
    # and the tail mean is far more stable than the last iterate
    avg_tail: float = within(0.25, "[0, 1]")
    seed: int = 0

    def validate(self) -> None:
        check_within(self)
        if self.epochs < 1:
            raise ConfigError(f"training needs epochs >= 1, got {self.epochs}")
        if self.tau_start < self.tau_end:
            raise ConfigError(f"tau_start={self.tau_start} must be >= tau_end={self.tau_end}")


class EdgeTerms(NamedTuple):
    """The per-pair loss terms that read only the edge head, which draws no noise."""

    edge: np.ndarray  # (B,) edge loss
    coherence: np.ndarray  # (B,) coherence term of the node loss


def loss_and_grads(
    params: PruneNetParams,
    f: Forward,
    lab: Labels,
    cfg: TrainConfig,
    tau: float = 1.0,
    node_noise: np.ndarray | None = None,
    focal: bool = False,
    out: tuple[np.ndarray, dict[str, np.ndarray]] | None = None,
) -> tuple[tuple[float, float, float], dict[str, np.ndarray], EdgeTerms]:
    """A batch of supervision pairs: mean losses and the gradients of the mean total loss.

    ``f`` is ``forward`` over the batch's query rows and ``lab`` its
    ``labels``.  ``node_noise`` (B, n) is an additive node-logit
    perturbation (Gumbel differences during training, None for the
    deterministic path); tau rescales logits before the sigmoid in both
    heads.  The gradients are views, in ``params`` order, of one flat
    buffer: ``out`` if given, as the buffer and its ``_views``, else a
    new one.  The edge terms are returned for ``forward_losses``.
    """
    b, n = f.s.shape
    h = f.z.shape[2]
    w_pred, y_hat = heads(f, tau, node_noise)
    terms = EdgeTerms(
        _edge_losses(w_pred, lab, cfg.lambda_off), _coherence(w_pred, lab.absent, cfg.lambda_c)
    )
    node = _mask_losses(y_hat, lab.y, cfg.lambda_s, focal, cfg.focal_gamma) + terms.coherence
    losses = _means(terms.edge, node, cfg.beta)

    # backward: d total / d w_pred
    d_wp = (2.0 / lab.m1)[:, None, None] * lab.m * (w_pred - lab.a)
    d_wp += (2.0 * cfg.lambda_off / lab.off_count)[:, None, None] * lab.anti * w_pred
    # coherence term of the node loss also reaches w_pred
    d_wp += cfg.beta * cfg.lambda_c / n**2 * lab.absent[:, :, None] * np.sign(w_pred)

    # d total / d y_hat
    yv = lab.y
    yc = np.clip(y_hat, _CLAMP, 1.0 - _CLAMP)
    inside = (y_hat > _CLAMP) & (y_hat < 1.0 - _CLAMP)
    if focal:
        g = cfg.focal_gamma
        d_bce = (
            yv * (g * (1.0 - yc) ** (g - 1.0) * np.log(yc) - (1.0 - yc) ** g / yc)
            + (1.0 - yv) * (-g * yc ** (g - 1.0) * np.log(1.0 - yc) + yc**g / (1.0 - yc))
        ) / n
    else:
        d_bce = (-yv / yc + (1.0 - yv) / (1.0 - yc)) / n
    d_yh = cfg.beta * (d_bce * inside + cfg.lambda_s / n)

    # back through the two sigmoid bridges (w_pred's diagonal is 0, so is ge's)
    ge = d_wp * w_pred * (1.0 - w_pred) / tau
    ds = d_yh * y_hat * (1.0 - y_hat) / tau

    if out is None:
        tensors = params.tensors()
        flat = np.empty(sum(v.size for v in tensors.values()))
        out = flat, _views(flat, {k: v.shape for k, v in tensors.items()})
    flat, grads = out

    # edge head: lmat = z B z^T, so dz = ge z B^T + ge^T (z B)
    z = f.z
    ge_z = ge @ z
    np.matmul(z.reshape(-1, h).T, ge_z.reshape(-1, h), out=grads["b_edge"])
    dz = ge_z @ params.b_edge.T + ge.transpose(0, 2, 1) @ f.zb

    # node head
    np.matmul(np.maximum(f.t, 0.0).reshape(b * n, -1).T, ds.reshape(-1), out=grads["mlp_w2"])
    grads["mlp_b2"][0] = ds.sum()
    dt = ds[:, :, None] * params.mlp_w2 * (f.t > 0)
    np.matmul(z.reshape(-1, h).T, dt.reshape(b * n, -1), out=grads["mlp_w1"])
    dt.sum(axis=(0, 1), out=grads["mlp_b1"])
    dz += dt @ params.mlp_w1.T

    # GCN backbone: the virtual query row receives no head gradient, so in
    # the transposed propagation it takes only the shares of the agent rows
    np.matmul(f.q.reshape(-1, h).T, dz.reshape(-1, h), out=grads["w_gcn2"])
    dq = dz @ params.w_gcn2.T
    n_full = n + 1
    dq_sum = dq.sum(axis=1, keepdims=True)
    du = np.empty_like(f.u)
    np.multiply(dq, _SELF_WEIGHT, out=du[:, :-1])
    du[:, :-1] += _MEAN_WEIGHT / n_full * dq_sum
    np.multiply(dq_sum, _MEAN_WEIGHT / n_full + _QUERY_WEIGHT, out=du[:, -1:])
    du *= f.u > 0  # relu
    d_w_gcn1 = grads["w_gcn1"]
    np.matmul(f.c0.T, du.sum(axis=0), out=d_w_gcn1)
    d_w_gcn1 += f.xq.T @ (f.c @ du)

    flat /= b
    return losses, grads, terms


def _means(edge: np.ndarray, node: np.ndarray, beta: float) -> tuple[float, float, float]:
    """Batch means of the edge, node and total losses."""
    b = edge.size
    return float(edge.sum() / b), float(node.sum() / b), float(total_loss(edge, node, beta).sum() / b)


def forward_losses(
    f: Forward,
    lab: Labels,
    terms: EdgeTerms,
    cfg: TrainConfig,
    tau: float = 1.0,
    focal: bool = False,
) -> tuple[float, float, float]:
    """Noise-free mean losses at temperature tau (no gradients).

    The edge head draws no noise, so its terms are the noisy pass's
    ``terms``; only the mask loss needs the noise-free node head.
    """
    y_hat = _sigmoid(f.s / tau)
    node = _mask_losses(y_hat, lab.y, cfg.lambda_s, focal, cfg.focal_gamma) + terms.coherence
    return _means(terms.edge, node, cfg.beta)


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
    """Adam with decoupled weight decay over one flat parameter buffer laid
    out by ``shapes``, updating it and the moments in place; biases are not
    decayed."""

    DECAYED = {"w_gcn1", "w_gcn2", "b_edge", "mlp_w1", "mlp_w2"}

    def __init__(self, cfg: TrainConfig, shapes: dict[str, tuple]):
        self.cfg = cfg
        self.t = 0
        slices = _slices(shapes)
        size = sum(s.stop - s.start for s in slices.values())
        self.m, self.v = np.zeros(size), np.zeros(size)
        self._a, self._b = np.empty(size), np.empty(size)
        self._decayed = [s for name, s in slices.items() if name in self.DECAYED]

    def step(self, w: np.ndarray, g: np.ndarray) -> None:
        c, m, v, a, b = self.cfg, self.m, self.v, self._a, self._b
        self.t += 1
        bias1, bias2 = 1 - c.adam_beta1**self.t, 1 - c.adam_beta2**self.t
        # same operations in the same order as m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g**2,
        # w -= lr*m_hat / (sqrt(v_hat) + eps), so the result is bitwise that of those lines
        m *= c.adam_beta1
        np.multiply(g, 1 - c.adam_beta1, out=a)
        m += a
        v *= c.adam_beta2
        np.multiply(g, g, out=a)
        a *= 1 - c.adam_beta2
        v += a
        np.divide(m, bias1, out=a)
        a *= c.lr
        np.divide(v, bias2, out=b)
        np.sqrt(b, out=b)
        b += 1e-8
        a /= b
        w -= a
        for s in self._decayed:
            _decay(w[s], c, a[s])


def _decay(w: np.ndarray, cfg: TrainConfig, buf: np.ndarray) -> None:
    """Decoupled weight decay in place: w -= w * lr*wd, through ``buf``."""
    np.multiply(w, cfg.lr * cfg.weight_decay, out=buf)
    w -= buf


def train(
    corpus: Sequence[SupervisionPair],
    pool: AgentPool,
    backend: EmbeddingBackend,
    cfg: TrainConfig,
    net: NetConfig | None = None,
) -> tuple[PruneNetParams, list[TrainLogRow]]:
    """Adam training over minibatches with a linear tau anneal.

    A feature column that is zero in the pool rows and in every query row
    gives its ``w_gcn1`` row exactly zero gradient, so forward, backward
    and Adam run on the live rows only, held with every other tensor in
    one flat buffer.  The other rows sit in front of them in that buffer,
    and each step only decays them, as Adam would; the finiteness check
    and the tail average cover the whole buffer.
    """
    if not corpus:
        raise ConfigError("corpus is empty")
    cfg.validate()
    # (id(a_gt), id(y)) -> (label row, pair): pairs that carry the same
    # label objects, as mined or read corpora do, share one row of labels
    groups: dict = {}
    label_row = np.array([groups.setdefault((id(p.a_gt), id(p.y)), (len(groups), p))[0] for p in corpus])
    distinct = [pair for _, pair in groups.values()]
    sizes = {pair.y.n for pair in distinct} - {pool.n_max}
    if sizes:
        raise DimensionError(f"corpus pairs have {min(sizes)} agents but the pool has {pool.n_max}")
    net = net or NetConfig(d=backend.dim, n_max=pool.n_max)
    if backend.dim != net.d:
        raise DimensionError(f"feature width {backend.dim} does not match d={net.d}")
    rng = np.random.default_rng(cfg.seed)
    init = PruneNetParams.init(net, rng)

    # text -> query row, numbered at first occurrence; each distinct text is embedded once
    text_row: dict[str, int] = {}
    query_row = np.array([text_row.setdefault(p.task_text, len(text_row)) for p in corpus])
    pool_x, query_x = node_features(pool, list(text_row), backend)
    used = (pool_x != 0).any(axis=0) | (query_x != 0).any(axis=0)
    live_ids, dead_ids = np.flatnonzero(used), np.flatnonzero(~used)
    pool_x, query_x = pool_x[:, live_ids], query_x[:, live_ids]
    lab_all = labels(np.stack([p.a_gt.w for p in distinct]), np.stack([p.y.m for p in distinct]))
    active = lab_all.y.mean(axis=1)[label_row]

    n_batches = max(1, (len(corpus) + cfg.batch - 1) // cfg.batch)
    total_steps = cfg.epochs * n_batches
    tail_start = int(np.ceil(total_steps * (1.0 - cfg.avg_tail)))
    dead = init.w_gcn1[dead_ids].ravel()
    init.w_gcn1 = init.w_gcn1[live_ids]
    shapes = {k: v.shape for k, v in init.tensors().items()}
    flat = np.concatenate([dead, *(v.ravel() for v in init.tensors().values())])
    dead, live = flat[: dead.size], flat[dead.size :]
    params = PruneNetParams(**_views(live, shapes))
    grad, tail, buf = np.empty_like(live), np.zeros_like(flat), np.empty_like(dead)
    # built once: the gradient views of grad and the pool rows' layer-1 propagation
    grads, pool_part = (grad, _views(grad, shapes)), pool_rows(pool_x)
    opt = _Adam(cfg, shapes)
    log: list[TrainLogRow] = []

    for step in range(total_steps):
        b = step % n_batches
        if b == 0:
            order = rng.permutation(len(corpus))
            # node logits only: edge noise destabilizes borderline members
            noise = gumbel_noise(rng, (len(corpus), pool.n_max))
        rows = slice(b * cfg.batch, (b + 1) * cfg.batch)
        batch = order[rows]
        tau = cfg.tau_start + (cfg.tau_end - cfg.tau_start) * step / max(1, total_steps - 1)
        focal = active[batch].sum() / batch.size < cfg.focal_threshold
        f = forward(params, pool_x, query_x[query_row[batch]], pool_part)
        picked = label_row[batch]
        lab = Labels(*(v[picked] for v in lab_all))
        noisy, _, terms = loss_and_grads(
            params, f, lab, cfg, tau=tau, node_noise=noise[rows], focal=focal, out=grads
        )
        if not np.isfinite(noisy[2]):
            raise TrainingDiverged(step)
        # log the noise-free objective at the current temperature
        mean_losses = forward_losses(f, lab, terms, cfg, tau=tau, focal=focal)
        if not np.isfinite(mean_losses).all():
            raise TrainingDiverged(step)
        opt.step(live, grad)
        _decay(dead, cfg, buf)
        if not np.isfinite(flat).all():
            bad = [
                k for k, v in params.tensors().items()
                if not np.isfinite(v).all() or (k == "w_gcn1" and not np.isfinite(dead).all())
            ]
            raise TrainingDiverged(
                step, f"training diverged at step {step}: non-finite {', '.join(bad)}"
            )
        if step >= tail_start:
            tail += flat
        log.append(TrainLogRow(step, mean_losses[0], mean_losses[1], mean_losses[2], tau))
    if total_steps > tail_start:
        flat = tail / (total_steps - tail_start)
    out = _views(flat[dead.size :], shapes)
    w_gcn1 = np.empty((net.d, net.h))
    w_gcn1[live_ids], w_gcn1[dead_ids] = out["w_gcn1"], flat[: dead.size].reshape(-1, net.h)
    return PruneNetParams(**{**out, "w_gcn1": w_gcn1}), log


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
    w_pred, y_hat = (v[0] for v in heads(forward(params, *node_features(pool, [query], backend))))
    m = (y_hat >= theta).astype(float)
    if m.sum() < 2:
        top2 = np.argsort(-y_hat, kind="stable")[:2]
        m = np.zeros_like(m)
        m[top2] = 1.0
    return induce(WeightMatrix(pool.n_max, w_pred), NodeMask(pool.n_max, m))


def save_checkpoint(params: PruneNetParams, net: NetConfig) -> str:
    """The parameters and the network config as the JSON text ``load_checkpoint`` reads."""
    obj = {
        "version": 1,
        "config": asdict(net),
        "tensors": {k: v.tolist() for k, v in params.tensors().items()},
    }
    return json.dumps(obj)


def load_checkpoint(text: str) -> tuple[PruneNetParams, NetConfig]:
    """The parameters and network config of the JSON text ``save_checkpoint`` writes."""
    with reading("malformed checkpoint", CheckpointError):
        obj = json.loads(text)
        if not isinstance(obj, dict) or not isinstance(obj.get("tensors", {}), dict):
            raise CheckpointError('malformed checkpoint: expected an object with a "tensors" object')
        check_types(obj, version=int)
        if obj.get("version") != 1:
            raise CheckpointError(f"unsupported checkpoint version {obj.get('version')}")
        net = NetConfig(**obj["config"])
        for k, v in obj["tensors"].items():
            check_numbers(v, k)
        t = {k: np.array(v, dtype=float) for k, v in obj["tensors"].items()}
    shapes = PruneNetParams.shapes(net)
    for name, shape in shapes.items():
        if name not in t or t[name].shape != shape:
            raise CheckpointError(
                f"tensor {name}: expected shape {shape}, got {t.get(name, np.empty(0)).shape}"
            )
        if not np.isfinite(t[name]).all():
            raise CheckpointError(f"tensor {name} has non-finite values")
    return PruneNetParams(**{name: t[name] for name in shapes}), net
