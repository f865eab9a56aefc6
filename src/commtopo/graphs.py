"""Graph value types shared by every stage: adjacency, weights, masks,
supervision pairs, plus the lifting / induction algebra and serialization.

Orientation convention: ``w[i][j]`` is the weight of the directed edge
``i -> j``.  All types are immutable after construction.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DegenerateTopology,
    DimensionError,
    FormatError,
    InvalidMembers,
    ValidationError,
)

CATEGORIES = ("general_reasoning", "math_reasoning", "code_generation")

# Threshold comparisons are inclusive (>=) everywhere so the 0.5 node
# cutoff and the 0.5 edge cutoff behave symmetrically.


def _frozen(a: np.ndarray) -> np.ndarray:
    """A read-only copy, so freezing never touches the caller's array."""
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Topology:
    """Binary directed graph on ``n`` nodes with zero diagonal."""

    n: int
    adj: np.ndarray

    def __post_init__(self):
        adj = _frozen(self.adj)
        if adj.shape != (self.n, self.n):
            raise DimensionError(f"adj shape {adj.shape} != ({self.n}, {self.n})")
        if not ((adj == 0) | (adj == 1)).all():
            raise ValidationError("adjacency entries must be 0 or 1")
        if adj.diagonal().any():
            raise ValidationError("adjacency diagonal must be zero")
        object.__setattr__(self, "adj", adj)

    @classmethod
    def complete(cls, n: int) -> "Topology":
        adj = np.ones((n, n)) - np.eye(n)
        return cls(n, adj)

    @classmethod
    def empty(cls, n: int) -> "Topology":
        return cls(n, np.zeros((n, n)))

    def edge_count(self) -> int:
        return int(self.adj.sum())


@dataclass(frozen=True)
class WeightMatrix:
    """Real edge weights in [0, 1] with zero diagonal."""

    n: int
    w: np.ndarray

    def __post_init__(self):
        w = _frozen(self.w)
        if w.shape != (self.n, self.n):
            raise DimensionError(f"weights shape {w.shape} != ({self.n}, {self.n})")
        if w.diagonal().any():
            raise ValidationError("weight diagonal must be zero")
        if not ((w >= 0) & (w <= 1)).all():  # NaN fails both comparisons
            raise ValidationError("weights must lie in [0, 1]")
        object.__setattr__(self, "w", w)


@dataclass(frozen=True)
class NodeMask:
    """Binary keep/drop vector over nodes."""

    n: int
    m: np.ndarray

    def __post_init__(self):
        m = _frozen(self.m)
        if m.shape != (self.n,):
            raise DimensionError(f"mask shape {m.shape} != ({self.n},)")
        if not ((m == 0) | (m == 1)).all():
            raise ValidationError("mask entries must be 0 or 1")
        object.__setattr__(self, "m", m)

    def active_ids(self) -> list[int]:
        return [int(i) for i in np.flatnonzero(self.m)]

    def active_count(self) -> int:
        return int(self.m.sum())


@dataclass(frozen=True)
class SupervisionPair:
    """One mined training label: task text plus its lifted graph labels."""

    task_id: str
    task_text: str
    category: str
    a_gt: WeightMatrix
    y: NodeMask
    score: float

    def __post_init__(self):
        if self.category not in CATEGORIES:
            raise ValidationError(f"unknown category {self.category!r}")
        if self.a_gt.n != self.y.n:
            raise DimensionError("a_gt and y sizes differ")
        if not 0.0 <= self.score <= 1.0:
            raise ValidationError("score must lie in [0, 1]")
        if self.y.active_count() < 2:
            raise ValidationError("supervision mask needs at least 2 active nodes")
        m = self.y.m
        if (self.a_gt.w * (1 - m[:, None] * m)).any():
            raise ValidationError("a_gt has weight on edges outside the mask")

    def to_json_line(self) -> str:
        return json.dumps(
            {
                "task_id": self.task_id,
                "task_text": self.task_text,
                "category": self.category,
                "score": self.score,
                "y": self.y.m.astype(int).tolist(),
                "a_gt": self.a_gt.w.tolist(),
            },
            sort_keys=True,
        )

    @classmethod
    def from_json_line(cls, line: str) -> "SupervisionPair":
        try:
            obj = json.loads(line)
            y = NodeMask(len(obj["y"]), obj["y"])
            return cls(
                task_id=obj["task_id"],
                task_text=obj["task_text"],
                category=obj["category"],
                a_gt=WeightMatrix(y.n, obj["a_gt"]),
                y=y,
                score=float(obj["score"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bad supervision pair line: {exc}") from exc


@dataclass(frozen=True)
class CommTopology:
    """Inference output: node mask plus weighted adjacency."""

    mask: NodeMask
    weights: WeightMatrix

    def __post_init__(self):
        if self.mask.n != self.weights.n:
            raise DimensionError("mask and weights sizes differ")
        outside = (1 - np.outer(self.mask.m, self.mask.m)) * self.weights.w
        if outside.any():
            raise ValidationError("weights present on edges of masked-out nodes")

    @property
    def n(self) -> int:
        return self.mask.n


def lift_subgraph(
    sub: Topology, members: Sequence[int], n_max: int
) -> tuple[WeightMatrix, NodeMask]:
    """Re-index a subgraph's adjacency into the fixed n_max frame.

    ``members`` maps local node k to global id ``members[k]``; everything
    outside the member set stays zero.
    """
    members = [int(v) for v in members]
    if len(members) != sub.n:
        raise InvalidMembers(f"{len(members)} members for a {sub.n}-node graph")
    if any(b <= a for a, b in zip(members, members[1:])):
        raise InvalidMembers("members must be strictly ascending")
    if members and (members[0] < 0 or members[-1] >= n_max):
        raise InvalidMembers(f"member ids must lie in [0, {n_max})")
    w = np.zeros((n_max, n_max))
    idx = np.array(members, dtype=int)
    w[np.ix_(idx, idx)] = sub.adj
    m = np.zeros(n_max)
    m[idx] = 1.0
    return WeightMatrix(n_max, w), NodeMask(n_max, m)


def restrict(weights: WeightMatrix, members: Sequence[int]) -> np.ndarray:
    """Inverse of lifting: pull the members' submatrix back out."""
    idx = np.array([int(v) for v in members], dtype=int)
    return weights.w[np.ix_(idx, idx)].copy()


def induce(weights: WeightMatrix, mask: NodeMask) -> CommTopology:
    """Zero every row/column of masked-out nodes and bundle the result."""
    if weights.n != mask.n:
        raise DimensionError("weights and mask sizes differ")
    if mask.active_count() < 2:
        raise DegenerateTopology("fewer than 2 active nodes")
    keep = np.outer(mask.m, mask.m)
    return CommTopology(mask, WeightMatrix(weights.n, weights.w * keep))


def binarize(weights: WeightMatrix, theta: float) -> Topology:
    """Gate edges at the threshold; comparison is inclusive."""
    adj = (weights.w >= theta).astype(float)
    np.fill_diagonal(adj, 0.0)
    return Topology(weights.n, adj)


def serialize_topology(t: CommTopology, format: str = "json") -> bytes:
    if format == "json":
        obj = {
            "n_max": t.n,
            "mask": [int(v) for v in t.mask.m],
            "weights": [[float(v) for v in row] for row in t.weights.w],
        }
        return json.dumps(obj, sort_keys=True).encode()
    if format == "dot":
        lines = ["digraph comm {"]
        for i in t.mask.active_ids():
            lines.append(f'  {i} [label="{i}"];')
        for i in t.mask.active_ids():
            for j in t.mask.active_ids():
                wij = t.weights.w[i, j]
                if i != j and wij >= 0.5:
                    lines.append(f'  {i} -> {j} [label="{wij:.3f}"];')
        lines.append("}")
        return ("\n".join(lines) + "\n").encode()
    raise ValidationError(f"unknown format {format!r}")


def parse_topology(data: bytes | str) -> CommTopology:
    if isinstance(data, bytes):
        data = data.decode()
    try:
        obj = json.loads(data)
        n = int(obj["n_max"])
        mask = NodeMask(n, np.array(obj["mask"], dtype=float))
        weights = WeightMatrix(n, np.array(obj["weights"], dtype=float))
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise FormatError(f"bad topology document: {exc}") from exc
    return CommTopology(mask, weights)


def write_corpus(pairs: Iterable[SupervisionPair]) -> str:
    return "".join(p.to_json_line() + "\n" for p in pairs)


def read_corpus(text: str) -> list[SupervisionPair]:
    return [
        SupervisionPair.from_json_line(line)
        for line in text.splitlines()
        if line.strip()
    ]
