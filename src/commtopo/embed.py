"""Node feature construction behind a pluggable text-embedding backend.

Every backend returns L2-normalized vectors of a fixed dimension.  The
feature-hash backend is fully deterministic and needs no network; the
HTTP backend posts to a generic embedding endpoint.  Node features go
through one cache per backend object, so each text reaches the backend
once however often it is trained on or designed for.
"""
from __future__ import annotations

import weakref
import zlib
from typing import Protocol, Sequence

import numpy as np

from .errors import EmbeddingUnavailable
from .pool import AgentPool

DEFAULT_DIM = 384


class EmbeddingBackend(Protocol):
    dim: int

    def embed(self, text: str) -> np.ndarray: ...


def _normalize(v: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        # empty-text vector: a fixed unit basis vector keeps the contract total
        v = np.zeros_like(v)
        v[0] = 1.0
        return v
    return v / norm


class HashingBackend:
    """Feature hashing of lowercase character 3-grams into 64 bins.

    Trigrams are taken per word with boundary markers, hashed with crc32
    (stable across processes), counted, L2-normalized, and zero-padded to
    the configured dimension.
    """

    def __init__(self, dim: int = DEFAULT_DIM, bins: int = 64):
        if bins > dim:
            raise ValueError("bins must not exceed dim")
        self.dim = dim
        self.bins = bins

    def embed(self, text: str) -> np.ndarray:
        bins = [
            zlib.crc32(padded[k : k + 3].encode()) % self.bins
            for padded in (f"#{word}#" for word in text.lower().split())
            for k in range(len(padded) - 2)
        ]
        v = np.zeros(self.dim)
        v[: self.bins] = np.bincount(np.array(bins, dtype=int), minlength=self.bins)
        return _normalize(v)


class HttpBackend:
    """POST {"input": text} to an embedding endpoint, expect {"embedding": [...]}."""

    def __init__(self, endpoint: str, api_key: str = "", dim: int = DEFAULT_DIM, session=None):
        import requests

        self.endpoint = endpoint
        self.api_key = api_key
        self.dim = dim
        self._session = session or requests.Session()

    def embed(self, text: str) -> np.ndarray:
        headers = {}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        try:
            resp = self._session.post(
                self.endpoint, json={"input": text}, headers=headers, timeout=60
            )
            resp.raise_for_status()
            values = np.array(resp.json()["embedding"], dtype=float)
        except Exception as exc:  # network / schema failures are one error to callers
            raise EmbeddingUnavailable(str(exc)) from exc
        if values.shape != (self.dim,):
            raise EmbeddingUnavailable(
                f"endpoint returned {values.shape}, expected ({self.dim},)"
            )
        return _normalize(values)


def embed_text(backend: EmbeddingBackend, text: str) -> np.ndarray:
    """Embed one string; output always has unit L2 norm."""
    return _normalize(np.asarray(backend.embed(text), dtype=float))


class CachedEmbedding:
    """An ``EmbeddingBackend`` behind a text -> unit-vector cache; cached vectors are read-only."""

    def __init__(self, inner: EmbeddingBackend, cache: dict[str, np.ndarray]):
        self.inner = inner
        self.dim = inner.dim
        self._cache = cache

    def embed(self, text: str) -> np.ndarray:
        v = self._cache.get(text)
        if v is None:
            v = embed_text(self.inner, text)
            v.flags.writeable = False
            self._cache[text] = v
        return v


# One cache per live backend object: training and every later design on
# the same backend share it, and it goes when the backend does.
_CACHES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def cached(backend: EmbeddingBackend) -> CachedEmbedding:
    """``backend`` behind its cache; a backend that cannot be a weak key gets a fresh one."""
    if isinstance(backend, CachedEmbedding):
        return backend
    try:
        cache = _CACHES.setdefault(backend, {})
    except TypeError:
        cache = {}
    return CachedEmbedding(backend, cache)


def node_features(
    pool: AgentPool, queries: Sequence[str], backend: EmbeddingBackend
) -> tuple[np.ndarray, np.ndarray]:
    """The pool rows (n_max x d) and one query row per text (len(queries) x d)."""
    emb = cached(backend)
    pool_x = np.vstack([emb.embed(f"{a.role} {a.expertise}") for a in pool.agents])
    query_x = np.vstack([emb.embed(q) for q in queries])
    return pool_x, query_x
