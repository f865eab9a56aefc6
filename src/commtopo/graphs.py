"""Graph value types shared by every stage: adjacency, weights, masks,
supervision pairs, plus the lifting / induction algebra and serialization.

Orientation convention: ``w[i][j]`` is the weight of the directed edge
``i -> j``.  All types are immutable after construction.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    MALFORMED_JSON,
    CommTopoError,
    DimensionError,
    ValidationError,
    check_numbers,
    check_types,
    reading,
)

CATEGORIES = ("general_reasoning", "math_reasoning", "code_generation")

# a corpus line in ``to_json_line``'s layout starts with _A_GT and has _Y before its last label
_A_GT, _Y = '{"a_gt": ', ', "y": '

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
        """The pair as ``json.dumps(..., sort_keys=True)`` writes it."""
        return "".join(self._json_pieces({}))

    def _json_pieces(self, rendered: dict) -> tuple[str, ...]:
        """The pieces that ``to_json_line`` joins; the label pieces are the
        texts held in ``rendered``, so lines that share a label share them."""
        fields = json.dumps(
            {"category": self.category, "score": self.score,
             "task_id": self.task_id, "task_text": self.task_text},
            sort_keys=True,
        )
        # "a_gt" sorts before the other keys and "y" after them
        a_gt, y = _label_json(self.a_gt, rendered), _label_json(self.y, rendered)
        return _A_GT, a_gt, f", {fields[1:-1]}{_Y}", y, "}"

    @classmethod
    def from_json_line(cls, line: str, interned: dict | None = None) -> "SupervisionPair":
        """Parse one corpus line.

        ``interned`` holds the label objects already read, keyed on their
        float64 bytes, so that lines with equal labels share one object;
        bytes rather than values keep ``0.0`` and ``-0.0`` apart.
        """
        interned = {} if interned is None else interned
        with reading("bad supervision pair line"):
            obj = json.loads(line)
            check_types(obj, task_id=str, task_text=str, category=str, score=float)
            n = len(obj["y"])
            return cls(
                task_id=obj["task_id"],
                task_text=obj["task_text"],
                category=obj["category"],
                a_gt=_interned(WeightMatrix, n, obj["a_gt"], interned),
                y=_interned(NodeMask, n, obj["y"], interned),
                score=float(obj["score"]),
            )


def _label_json(label: WeightMatrix | NodeMask, rendered: dict) -> str:
    """The JSON text of a label, rendered once per object in ``rendered``."""
    hit = rendered.get(id(label))
    if hit is None:
        values = label.w if isinstance(label, WeightMatrix) else label.m.astype(int)
        # the object is kept with its text, so its id cannot be reused
        hit = rendered[id(label)] = (label, json.dumps(values.tolist()))
    return hit[1]


def _interned(kind, n: int, values, interned: dict):
    """``kind(n, values)``, or the one in ``interned`` with the same float64 bytes."""
    check_numbers(values, "a_gt" if kind is WeightMatrix else "y")
    a = np.array(values, dtype=float)
    key = (kind, n, a.shape, a.tobytes())
    label = interned.get(key)
    if label is None:
        label = interned[key] = kind(n, a)
    return label


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
        raise ValidationError(f"{len(members)} members for a {sub.n}-node graph")
    if any(b <= a for a, b in zip(members, members[1:])):
        raise ValidationError("members must be strictly ascending")
    if members and (members[0] < 0 or members[-1] >= n_max):
        raise ValidationError(f"member ids must lie in [0, {n_max})")
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
        raise ValidationError("fewer than 2 active nodes")
    keep = np.outer(mask.m, mask.m)
    return CommTopology(mask, WeightMatrix(weights.n, weights.w * keep))


def binarize(weights: WeightMatrix, theta: float) -> Topology:
    """Gate edges at the threshold; comparison is inclusive."""
    adj = (weights.w >= theta).astype(float)
    np.fill_diagonal(adj, 0.0)
    return Topology(weights.n, adj)


def topology_dict(t: CommTopology) -> dict:
    """The topology as the JSON object ``parse_topology`` reads."""
    return {
        "n_max": t.n,
        "mask": [int(v) for v in t.mask.m],
        "weights": [[float(v) for v in row] for row in t.weights.w],
    }


def serialize_topology(t: CommTopology, format: str = "json") -> str:
    """The topology as JSON text that ``parse_topology`` reads, or as DOT text."""
    if format == "json":
        return json.dumps(topology_dict(t), sort_keys=True)
    if format == "dot":
        lines = ["digraph comm {"]
        lines += [f'  {i} [label="{i}"];' for i in t.mask.active_ids()]
        # row-major; the types keep the diagonal and masked-out nodes' rows and columns zero
        w = t.weights.w
        lines += [f'  {i} -> {j} [label="{w[i, j]:.3f}"];' for i, j in np.argwhere(w >= 0.5)]
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise ValidationError(f"unknown format {format!r}")


def parse_topology(text: str) -> CommTopology:
    """The topology of the JSON text ``serialize_topology`` writes."""
    with reading("bad topology document"):
        obj = json.loads(text)
        check_types(obj, n_max=int)
        n = obj["n_max"]
        check_numbers(obj["mask"], "mask")
        check_numbers(obj["weights"], "weights")
        mask = NodeMask(n, np.array(obj["mask"], dtype=float))
        weights = WeightMatrix(n, np.array(obj["weights"], dtype=float))
    return CommTopology(mask, weights)


def write_corpus(pairs: Iterable[SupervisionPair]) -> str:
    """One ``to_json_line`` line per pair, each ended by ``"\\n"``.

    The text is joined once from the pieces of every line, with no line
    string built: each label object is rendered once, so the pieces held
    beside the text are shared label texts and one short text of the
    other fields per pair.
    """
    rendered: dict = {}
    return "".join(piece for p in pairs for piece in (*p._json_pieces(rendered), "\n"))


def read_corpus(text: str) -> list[SupervisionPair]:
    """The pairs of a corpus; lines with equal labels share one label object.

    Lines are those of ``text.splitlines()``, taken one at a time, so no
    list of every line is held.  A blank line is skipped.  A line in
    ``to_json_line``'s layout (``a_gt`` first, then the other fields, then
    ``y``) has its two label texts cut out: only the fields between them
    are parsed per line, and each distinct label text is parsed, checked
    and interned once.  Any other line, and one that fails there, goes
    through ``from_json_line``, which words the error.
    """
    interned: dict = {}
    return [
        _writer_line(line, interned) or SupervisionPair.from_json_line(line, interned)
        for line in _lines(text)
        if line.strip()
    ]


def _lines(text: str) -> Iterator[str]:
    """The lines of ``text.splitlines()``, one at a time.

    The text is cut after each ``"\\n"`` and each piece is split on its
    own: a piece keeps its ``"\\n"``, so ``"\\r\\n"`` stays one break, and
    every other boundary lies inside a piece.
    """
    start = 0
    while start < len(text):
        end = text.find("\n", start) + 1 or len(text)
        yield from text[start:end].splitlines()
        start = end


def _writer_line(line: str, interned: dict) -> SupervisionPair | None:
    """The pair of a line in ``to_json_line``'s layout, or None.

    A label of numbers holds no '"', so the first ', "' ends ``a_gt`` and
    the last ', "y": ' starts ``y``.  When the three cut texts parse on
    their own, the line parses to the same object, so the pair equals
    ``from_json_line``'s.
    """
    cut, y_at = line.find(', "', len(_A_GT)), line.rfind(_Y)
    if not (line.startswith(_A_GT) and line.endswith("}") and 0 < cut <= y_at):
        return None
    try:
        obj = json.loads("{" + line[cut + 2 : y_at] + "}")
        if "a_gt" in obj or "y" in obj:
            return None
        check_types(obj, task_id=str, task_text=str, category=str, score=float)
        y = _parsed(NodeMask, None, line[y_at + len(_Y) : -1], interned)
        a_gt = _parsed(WeightMatrix, y.n, line[len(_A_GT) : cut], interned)
        # a missing or an unknown field fails here, and from_json_line decides
        return SupervisionPair(**{**obj, "score": float(obj["score"]), "a_gt": a_gt, "y": y})
    except (*MALFORMED_JSON, CommTopoError):
        return None


def _parsed(kind, n: int | None, text: str, interned: dict):
    """The label of JSON ``text`` on ``n`` nodes (None: as many as it has values),
    parsed and interned once per distinct text."""
    key = (kind, n, text)
    label = interned.get(key)
    if label is None:
        values = json.loads(text)
        label = interned[key] = _interned(kind, len(values) if n is None else n, values, interned)
    return label
