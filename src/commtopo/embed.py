"""Node feature construction behind a pluggable text-embedding backend.

Every backend returns L2-normalized vectors of a fixed dimension.  The
feature-hash backend is fully deterministic and needs no network; the
HTTP backend posts to a generic embedding endpoint.  ``node_features``
is the one path from text to feature rows: it keeps one memo per backend
object that holds the pool's texts only, so the pool rows reach the
backend once however often a design needs them, and it embeds query
texts into one matrix that it keeps nowhere.
"""
from __future__ import annotations

import weakref
import zlib
from typing import Protocol, Sequence

import numpy as np

from .backends import JsonTransport
from .errors import DimensionError, EmbeddingUnavailable, check_numbers
from .pool import AgentPool

DEFAULT_DIM = 384


class EmbeddingBackend(Protocol):
    dim: int

    def embed(self, text: str) -> np.ndarray: ...


# below this norm the squared norm is subnormal, too coarse to divide by
_MIN_NORM = float(np.sqrt(np.finfo(float).tiny))


def _normalize(v: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(v))
    if not _MIN_NORM <= norm < np.inf:
        # the norm under- or overflowed, or v is zero: divide by the largest magnitude first
        top = float(np.abs(v).max())
        if top == 0.0:
            # empty-text vector: a fixed unit basis vector keeps the contract total
            v = np.zeros_like(v)
            v[0] = 1.0
            return v
        v = v / top
        norm = float(np.linalg.norm(v))
    return v / norm


class HashingBackend:
    """Feature hashing of lowercase character 3-grams into 64 bins.

    Trigrams are taken per word with boundary markers, hashed with crc32
    (stable across processes), counted, L2-normalized, and zero-padded to
    the configured dimension.  Each word's bins are hashed once per
    backend and kept.
    """

    def __init__(self, dim: int = DEFAULT_DIM, bins: int = 64):
        if bins > dim:
            raise ValueError("bins must not exceed dim")
        self.dim = dim
        self.bins = bins
        self._word_bins: dict[str, list[int]] = {}

    def embed(self, text: str) -> np.ndarray:
        bins = []
        for word in text.lower().split():
            hit = self._word_bins.get(word)
            if hit is None:
                padded = f"#{word}#"
                hit = self._word_bins[word] = [
                    zlib.crc32(padded[k : k + 3].encode()) % self.bins for k in range(len(padded) - 2)
                ]
            bins += hit
        v = np.zeros(self.dim)
        v[: self.bins] = np.bincount(np.array(bins, dtype=int), minlength=self.bins)
        return _normalize(v)


class HttpBackend:
    """POST {"input": text} to an embedding endpoint, expect {"embedding": [...]}."""

    def __init__(self, endpoint: str, api_key: str = "", dim: int = DEFAULT_DIM):
        self.dim = dim
        self._transport = JsonTransport(endpoint, api_key, timeout=60)

    def embed(self, text: str) -> np.ndarray:
        try:
            status, obj = self._transport.post({"input": text})
            if not 200 <= status < 300:
                raise ValueError(f"embedding endpoint answered HTTP {status}")
            embedding = obj["embedding"]
            check_numbers(embedding, "embedding")
            values = np.array(embedding, dtype=float)
            if not np.isfinite(values).all():  # the JSON decoder takes NaN and Infinity
                raise ValueError("embedding holds a non-finite value")
        except Exception as exc:  # network / schema failures are one error to callers
            raise EmbeddingUnavailable(str(exc)) from exc
        if values.shape != (self.dim,):
            raise EmbeddingUnavailable(
                f"endpoint returned {values.shape}, expected ({self.dim},)"
            )
        return _normalize(values)


def embed_text(backend: EmbeddingBackend, text: str) -> np.ndarray:
    """Embed one string; output always has unit L2 norm.  A vector whose
    shape is not ``(backend.dim,)`` is a DimensionError naming the text; a
    non-finite element is EmbeddingUnavailable, named after the backend's type."""
    v = np.asarray(backend.embed(text), dtype=float)
    if v.shape != (backend.dim,):
        raise DimensionError(f"feature shape {v.shape} of {text!r} does not match d={backend.dim}")
    if not np.isfinite(v).all():
        raise EmbeddingUnavailable(f"{type(backend).__name__} returned a non-finite embedding")
    return _normalize(v)


# One pool text -> unit-vector memo per live backend object: training's pool rows and
# every later design on the same backend share it, and it goes when the backend does.
_CACHES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def node_features(
    pool: AgentPool, queries: Sequence[str], backend: EmbeddingBackend
) -> tuple[np.ndarray, np.ndarray]:
    """The pool rows (n_max x d) and one query row per text (len(queries) x d).

    Pool rows come from the backend's memo, which holds the pool's texts
    only, each vector read-only, and no failure; a backend that cannot be a
    weak key gets a fresh memo.  Queries are embedded in order into one
    matrix and kept nowhere.
    Every vector goes through ``embed_text``, so one of another width is a
    DimensionError naming its text.
    """
    try:
        memo = _CACHES.setdefault(backend, {})
    except TypeError:
        memo = {}
    texts = [f"{a.role} {a.expertise}" for a in pool.agents]
    for text in texts:
        if text not in memo:
            memo[text] = v = embed_text(backend, text)
            v.flags.writeable = False
    query_x = np.empty((len(queries), backend.dim))
    for i, text in enumerate(queries):
        query_x[i] = embed_text(backend, text)
    return np.vstack([memo[t] for t in texts]), query_x
