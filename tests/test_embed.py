import json
import sys
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commtopo.embed import (
    HashingBackend,
    HttpBackend,
    _normalize,
    cached,
    embed_text,
    node_features,
)
from commtopo.errors import EmbeddingUnavailable
from commtopo.pool import load_default_pool


class TestHashingBackend:
    def test_same_text_same_vector(self):
        b = HashingBackend()
        assert np.array_equal(embed_text(b, "hello world"), embed_text(b, "hello world"))

    def test_unit_norm(self):
        b = HashingBackend()
        for text in ("a", "some longer sentence", "prime polynomial proof"):
            assert abs(np.linalg.norm(embed_text(b, text)) - 1.0) < 1e-6

    def test_different_texts_not_identical(self):
        b = HashingBackend()
        cos = float(embed_text(b, "a") @ embed_text(b, "b"))
        assert cos < 1.0 - 1e-9

    def test_empty_text_is_unit_vector(self):
        v = embed_text(HashingBackend(), "")
        assert abs(np.linalg.norm(v) - 1.0) < 1e-6

    def test_dimension(self):
        assert embed_text(HashingBackend(), "x").shape == (384,)

    @settings(max_examples=200, deadline=None)
    @given(text=st.text(), dims=st.sampled_from([(384, 64), (16, 16), (10, 3)]))
    def test_equals_the_per_trigram_loop(self, text, dims):
        b = HashingBackend(*dims)
        assert b.embed(text).tobytes() == reference_embed(b, text).tobytes()


# one backend per width for every example, so that later texts read the
# word bins that earlier ones left in its memo
SHARED = {dims: HashingBackend(*dims) for dims in [(384, 64), (10, 3)]}
WORDS = st.one_of(st.sampled_from(["math", "MATH", "Math.", "über", "中文", "x", "ab"]), st.text(max_size=5))


class TestWordMemo:
    @settings(max_examples=200, deadline=None)
    @given(text=st.lists(WORDS, max_size=8).map(" ".join), dims=st.sampled_from(sorted(SHARED)))
    @example(text="", dims=(384, 64))
    @example(text="math math MATH math", dims=(384, 64))
    @example(text="über 中文 über naïve 中文", dims=(10, 3))
    def test_equals_the_per_trigram_loop_on_a_reused_backend(self, text, dims):
        b = SHARED[dims]
        assert b.embed(text).tobytes() == reference_embed(b, text).tobytes()

    def test_threads_filling_one_memo_get_the_reference_vectors(self):
        b = HashingBackend()
        texts = [f"word{i % 7} shared über {i % 3} word{i % 5}" for i in range(300)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as workers:
                got = list(workers.map(b.embed, texts, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert all(v.tobytes() == reference_embed(b, t).tobytes() for v, t in zip(got, texts))


def reference_embed(backend, text):
    """The per-trigram counting loop that the bincount replaced, kept as the reference."""
    counts = np.zeros(backend.bins)
    for word in text.lower().split():
        padded = f"#{word}#"
        for k in range(len(padded) - 2):
            counts[zlib.crc32(padded[k : k + 3].encode()) % backend.bins] += 1.0
    v = np.zeros(backend.dim)
    v[: backend.bins] = counts
    return _normalize(v)


class TestHttpBackend:
    def test_wraps_network_failure(self):
        class FailingSession:
            def post(self, *a, **k):
                raise OSError("connection refused")

        b = HttpBackend("http://localhost:1/embed", "key", session=FailingSession())
        with pytest.raises(EmbeddingUnavailable):
            embed_text(b, "text")

    def test_parses_embedding_payload(self):
        class FakeResponse:
            status_code = 200

            def raise_for_status(self):
                pass

            def json(self):
                return {"embedding": [3.0, 4.0]}

        class FakeSession:
            def post(self, url, json=None, headers=None, timeout=None):
                assert json == {"input": "text"}
                return FakeResponse()

        b = HttpBackend("http://x/embed", "key", session=FakeSession(), dim=2)
        v = embed_text(b, "text")
        assert np.allclose(v, [0.6, 0.8])

    @pytest.mark.parametrize(
        "body",
        ['{"embedding": [NaN, 1.0]}', '{"embedding": [Infinity, 1.0]}',
         '{"embedding": [true, 1.0]}', '{"embedding": ["3", 4]}'],
        ids=["nan", "infinity", "bool", "string"],
    )
    def test_vector_of_other_than_finite_numbers_is_unavailable(self, body):
        class FakeResponse:
            def raise_for_status(self):
                pass

            def json(self):
                return json.loads(body)  # like requests, this decodes NaN and Infinity

        class FakeSession:
            def post(self, *args, **kwargs):
                return FakeResponse()

        b = HttpBackend("http://x/embed", "key", session=FakeSession(), dim=2)
        with pytest.raises(EmbeddingUnavailable):
            b.embed("text")


class TestBuildNodeFeatures:
    def test_shape_is_pool_plus_query(self):
        pool = load_default_pool()
        pool_x, query_x = node_features(pool, ["a question", "another"], HashingBackend())
        assert pool_x.shape == (15, 384) and query_x.shape == (2, 384)

    def test_query_only_changes_last_row(self):
        pool = load_default_pool()
        b = HashingBackend()
        pool1, x1 = node_features(pool, ["first query"], b)
        pool2, x2 = node_features(pool, ["second query"], b)
        assert np.array_equal(pool1, pool2)
        assert not np.array_equal(x1, x2)

    def test_rows_are_the_unit_embeddings(self):
        pool = load_default_pool()
        b = HashingBackend()
        pool_x, query_x = node_features(pool, ["first query"], b)
        a = pool.agents[3]
        assert np.array_equal(pool_x[3], embed_text(b, f"{a.role} {a.expertise}"))
        assert np.array_equal(query_x[0], embed_text(b, "first query"))

    def test_bit_stable_across_calls(self):
        pool = load_default_pool()
        b = HashingBackend()
        first, second = node_features(pool, ["q"], b), node_features(pool, ["q"], b)
        assert all(np.array_equal(x, y) for x, y in zip(first, second))

    def test_empty_query_allowed(self):
        pool = load_default_pool()
        _, query_x = node_features(pool, [""], HashingBackend())
        assert np.isfinite(query_x).all()


class CountingBackend:
    dim = 4

    def __init__(self):
        self.texts = []

    def embed(self, text):
        self.texts.append(text)
        return np.arange(1.0, 5.0) * (len(text) + 1)


class TestCache:
    def test_each_text_reaches_the_backend_once(self):
        pool = load_default_pool()
        inner = CountingBackend()
        node_features(pool, ["q1", "q2", "q1"], inner)
        node_features(pool, ["q2", "q3"], inner)
        assert sorted(inner.texts) == sorted(set(inner.texts))
        assert len(inner.texts) == pool.n_max + 3

    def test_cache_is_per_backend_object(self):
        pool = load_default_pool()
        first, second = CountingBackend(), CountingBackend()
        node_features(pool, ["q"], first)
        node_features(pool, ["q"], second)
        assert len(first.texts) == len(second.texts) == pool.n_max + 1

    def test_unhashable_backend_is_embedded_uncached(self):
        @dataclass
        class ValueBackend:  # eq=True makes instances unhashable
            dim: int = 4

            def embed(self, text):
                return np.arange(1.0, 5.0)

        _, query_x = node_features(load_default_pool(), ["q"], ValueBackend())
        assert np.allclose(query_x[0], np.arange(1.0, 5.0) / np.sqrt(30.0))

    def test_cached_vectors_are_unit_and_read_only(self):
        v = cached(CountingBackend()).embed("abc")
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        with pytest.raises(ValueError):
            v[0] = 0.0

    def test_failures_are_not_cached(self):
        class Flaky(CountingBackend):
            def embed(self, text):
                if not self.texts:
                    self.texts.append(None)
                    raise EmbeddingUnavailable("down")
                return super().embed(text)

        backend = Flaky()
        with pytest.raises(EmbeddingUnavailable):
            cached(backend).embed("x")
        assert np.isfinite(cached(backend).embed("x")).all()
