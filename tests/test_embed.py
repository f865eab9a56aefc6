import gc
import json
import re
import sys
import tracemalloc
import warnings
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commtopo.embed import (
    _CACHES,
    HashingBackend,
    HttpBackend,
    _normalize,
    embed_text,
    node_features,
)
from commtopo.errors import DimensionError, EmbeddingUnavailable
from commtopo.pool import load_default_pool
from commtopo.prunenet import NetConfig, PruneNetParams, design_topology
from httpstub import HANG_UP, refused_url


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "v, want",
    [([1e308, 1e308], [np.sqrt(0.5), np.sqrt(0.5)]), ([0.0, 1e-320], [0.0, 1.0]),
     ([-1e308, 1e308], [-np.sqrt(0.5), np.sqrt(0.5)]), ([0.0, 3e-162], [0.0, 1.0]),
     ([0.0, 0.0], [1.0, 0.0])],
    ids=["overflow", "underflow", "overflow-signed", "subnormal-square", "zero"],
)
def test_normalize_keeps_the_direction_when_the_norm_under_or_overflows(v, want):
    assert np.allclose(embed_text(FixedBackend(v), "text"), want, rtol=0.0, atol=1e-15)


@settings(max_examples=200, deadline=None)
@given(v=st.lists(st.floats(-1e150, 1e150), min_size=1, max_size=8).filter(lambda v: np.linalg.norm(v) >= 1e-150))
def test_normalize_divides_by_the_norm_when_it_is_finite_and_not_tiny(v):
    v = np.array(v)
    assert _normalize(v).tobytes() == (v / np.linalg.norm(v)).tobytes()


@dataclass
class FixedBackend:
    vector: list
    dim: int = 2

    def embed(self, text):
        return np.array(self.vector)


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
    def test_wraps_network_failure(self, no_proxy_env):
        with refused_url("/embed") as url:
            with pytest.raises(EmbeddingUnavailable, match="ConnectionRefusedError"):
                embed_text(HttpBackend(url, "key"), "text")

    def test_parses_embedding_payload(self, http_stub):
        http_stub.script((200, {"embedding": [3.0, 4.0]}))
        b = HttpBackend(f"{http_stub.url}/embed", "key", dim=2)
        v = embed_text(b, "text")
        assert np.allclose(v, [0.6, 0.8])
        (request,) = http_stub.requests
        assert json.loads(request.body) == {"input": "text"}
        assert (request.target, request.headers["Authorization"]) == ("/embed", "Bearer key")

    def test_no_key_sends_no_authorization(self, http_stub):
        http_stub.script((200, {"embedding": [3.0, 4.0]}))
        HttpBackend(f"{http_stub.url}/embed", dim=2).embed("text")
        assert "Authorization" not in http_stub.requests[0].headers

    @pytest.mark.parametrize(
        "body",
        ['{"embedding": [NaN, 1.0]}', '{"embedding": [Infinity, 1.0]}',
         '{"embedding": [true, 1.0]}', '{"embedding": ["3", 4]}'],
        ids=["nan", "infinity", "bool", "string"],
    )
    def test_vector_of_other_than_finite_numbers_is_unavailable(self, http_stub, body):
        http_stub.script((200, body))  # the JSON decoder takes NaN and Infinity
        b = HttpBackend(f"{http_stub.url}/embed", "key", dim=2)
        with pytest.raises(EmbeddingUnavailable):
            b.embed("text")

    @pytest.mark.parametrize(
        "outcome, needle",
        [((404, {}), "HTTP 404"), ((503, {}), "HTTP 503"), ((302, {"embedding": [3.0, 4.0]}), "HTTP 302"),
         ((200, b'{"embedding": [3.0, 4.0], "x": "\xff"}'), "utf-8"), (HANG_UP, "RemoteDisconnected")],
        ids=["http-404", "http-503", "redirect-not-followed", "body-not-utf8", "connection-error"],
    )
    def test_a_failed_answer_is_unavailable_at_once(self, http_stub, outcome, needle):
        http_stub.script(outcome, (200, {"embedding": [3.0, 4.0]}))
        b = HttpBackend(f"{http_stub.url}/embed", "key", dim=2)
        with pytest.raises(EmbeddingUnavailable, match=needle):
            b.embed("text")
        assert len(http_stub.requests) == 1

    def test_a_url_that_is_not_http_is_unavailable(self):
        with pytest.raises(EmbeddingUnavailable, match="not an http"):
            HttpBackend("file:///etc/embed", dim=2).embed("text")

    def test_a_connection_the_server_closed_while_idle_is_replaced(self, http_stub):
        # reusing it failed each second embedding with "[Errno 32] Broken pipe"
        http_stub.script((200, {"embedding": [3.0, 4.0]}))
        http_stub.close_idle = True
        b = HttpBackend(f"{http_stub.url}/embed", "key", dim=2)
        for i in range(6):
            assert np.allclose(b.embed(f"text {i}"), [0.6, 0.8])
            assert http_stub.closed.acquire(timeout=10)
        assert len(http_stub.requests) == 6

    def test_dropping_a_used_backend_leaves_no_socket_open(self, http_stub):
        http_stub.script((200, {"embedding": [3.0, 4.0]}))
        b = HttpBackend(f"{http_stub.url}/embed", "key", dim=2)
        node_features(load_default_pool(), ["q"], b)  # the feature memo holds the backend weakly
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            del b
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


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

    def test_no_queries_give_the_pool_rows_and_no_query_rows(self):
        # np.vstack of no rows used to raise "need at least one array to concatenate"
        pool = load_default_pool()
        b = HashingBackend()
        pool_x, query_x = node_features(pool, [], b)
        assert np.array_equal(pool_x, node_features(pool, ["q"], b)[0])
        assert query_x.shape == (0, 384) and query_x.dtype == pool_x.dtype


class CountingBackend:
    dim = 4

    def __init__(self):
        self.texts = []

    def embed(self, text):
        self.texts.append(text)
        return np.arange(1.0, 5.0) * (len(text) + 1)


class TestCache:
    def test_each_pool_text_reaches_the_backend_once_and_each_query_every_time(self):
        pool = load_default_pool()
        inner = CountingBackend()
        node_features(pool, ["q1", "q2", "q1"], inner)
        node_features(pool, ["q2", "q3"], inner)
        pool_texts = list(dict.fromkeys(f"{a.role} {a.expertise}" for a in pool.agents))
        assert inner.texts == [*pool_texts, "q1", "q2", "q1", "q2", "q3"]

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
        pool, backend = load_default_pool(), CountingBackend()
        first = node_features(pool, ["abc"], backend)
        want = [rows.copy() for rows in first]
        assert np.allclose(np.linalg.norm(np.vstack(first), axis=1), 1.0, rtol=0.0, atol=1e-12)
        assert not any(v.flags.writeable for v in _CACHES[backend].values())
        for rows in first:
            rows[:] = 0.0
        assert all(np.array_equal(a, b) for a, b in zip(node_features(pool, ["abc"], backend), want))

    def test_failures_are_not_cached(self):
        class Flaky(CountingBackend):
            def embed(self, text):
                if not self.texts:
                    self.texts.append(None)
                    raise EmbeddingUnavailable("down")
                return super().embed(text)

        pool, backend = load_default_pool(), Flaky()
        with pytest.raises(EmbeddingUnavailable):
            node_features(pool, ["x"], backend)
        assert all(np.isfinite(rows).all() for rows in node_features(pool, ["x"], backend))
        assert len(backend.texts) == 1 + pool.n_max + 1

    @settings(max_examples=50, deadline=None)
    @given(
        first=st.lists(st.text(alphabet="ab ", max_size=3), min_size=1, max_size=8),
        second=st.lists(st.text(alphabet="ab ", max_size=3), min_size=1, max_size=8),
    )
    def test_rows_are_the_unit_embeddings_and_the_memo_holds_the_pool_texts_only(self, first, second):
        pool, backend = load_default_pool(), CountingHashBackend()
        pool_texts = [f"{a.role} {a.expertise}" for a in pool.agents]
        for queries in (first, second):
            rows = np.vstack(node_features(pool, queries, backend))
            want = [embed_text(HashingBackend(16, 16), text) for text in pool_texts + queries]
            assert np.array_equal(rows, np.vstack(want))
        assert backend.texts == [*dict.fromkeys(pool_texts), *first, *second]
        assert list(_CACHES[backend]) == list(dict.fromkeys(pool_texts))

    def test_designs_keep_no_query_rows(self):
        # the memo kept every designed query: 3,442 traced bytes per design
        pool, backend = load_default_pool(), HashingBackend()
        params = PruneNetParams.init(NetConfig(d=backend.dim, n_max=pool.n_max), np.random.default_rng(0))
        design_topology("warm up", pool, backend, params)
        n = 2000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(n):
                design_topology(f"distinct query {i}", pool, backend, params)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept / n <= 500  # what stays is the hashing backend's word bins
        assert len(_CACHES[backend]) == len({f"{a.role} {a.expertise}" for a in pool.agents})

    def test_a_pool_vector_of_another_width_is_a_dimension_error(self):
        # it ended in numpy's ValueError from vstack
        pool = load_default_pool()
        first = f"{pool.agents[0].role} {pool.agents[0].expertise}"

        class Short(CountingBackend):
            def embed(self, text):
                v = super().embed(text)
                return v[:3] if text == first else v

        with pytest.raises(DimensionError, match=re.escape(f"feature shape (3,) of {first!r} does not match d=4")):
            node_features(pool, ["q"], Short())


class CountingHashBackend(HashingBackend):
    """A small hashing backend that records each text it embeds."""

    def __init__(self):
        super().__init__(dim=16, bins=16)
        self.texts = []

    def embed(self, text):
        self.texts.append(text)
        return super().embed(text)


class InfiniteOnce(CountingBackend):
    """Returns inf in element 0 for its first text, then finite vectors."""

    def embed(self, text):
        v = super().embed(text)
        if len(self.texts) == 1:
            v[0] = np.inf
        return v


class TestNonFiniteEmbedding:
    # a non-finite element used to give an all-NaN row without an error
    def test_embed_text_names_the_backend(self):
        with pytest.raises(EmbeddingUnavailable, match="InfiniteOnce returned a non-finite embedding"):
            embed_text(InfiniteOnce(), "q")

    def test_failure_is_not_memoized(self):
        pool, backend = load_default_pool(), InfiniteOnce()
        with pytest.raises(EmbeddingUnavailable):
            node_features(pool, ["q"], backend)
        rows = np.vstack(node_features(pool, ["q"], backend))
        assert np.isfinite(rows).all()
        assert backend.texts.count(backend.texts[0]) == 2

    def test_design_topology_fails_where_the_embedding_does(self):
        # it used to fail later with "ValidationError: weights must lie in [0, 1]"
        pool = load_default_pool()
        params = PruneNetParams.init(NetConfig(d=CountingBackend.dim, n_max=pool.n_max), np.random.default_rng(0))
        with pytest.raises(EmbeddingUnavailable, match="InfiniteOnce"):
            design_topology("a question", pool, InfiniteOnce(), params)
