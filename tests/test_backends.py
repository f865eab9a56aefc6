import base64
import gc
import json
import ssl
import sys
import sysconfig
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from commtopo.backends import MAX_IN_FLIGHT, HttpChatBackend, MajorityVoteDecision, PlantedDecisionBackend
from commtopo.collector import TaskSpec
from commtopo.errors import BackendError, ConfigError
from commtopo.pool import DECISION_PROFILE, load_default_pool, render_system_prompt, render_user_prompt
from doubles import ScriptedBackend
from httpstub import HANG_UP, RESET, STALL, HttpStub, refused_url

OK_BODY = {
    "choices": [{"message": {"content": "four"}}],
    "usage": {"prompt_tokens": 9, "completion_tokens": 1},
}
NOT_HTTP = "a URL that is not http(s)"


def backend(stub, *outcomes, url=None):
    """An HTTP chat backend posting to ``url`` (the stub's by default),
    whose backoff sleeps are recorded instead of slept."""
    stub.script(*outcomes)
    sleeps = []
    return HttpChatBackend(url or f"{stub.url}/v1", "key", "m", sleep=sleeps.append), sleeps


class TestHttpChatBackend:
    @pytest.mark.parametrize(
        "transient",
        [HANG_UP, STALL, (429, {}), (503, {}), RESET],
        ids=["connection-error", "timeout", "http-429", "http-503", "connection-reset"],
    )
    def test_transient_failure_is_retried_with_backoff(self, http_stub, transient):
        b, sleeps = backend(http_stub, transient, transient, (200, OK_BODY))
        b._transport.timeout = 0.2
        assert b.complete("sys", "user") == ("four", 9, 1)
        assert len(http_stub.requests) == 3
        assert sleeps == [1.0, 2.0]

    def test_persistent_transient_failure_gives_up_after_retries(self, http_stub):
        b, sleeps = backend(http_stub, (502, {}))
        with pytest.raises(BackendError, match="after 3 attempts: HTTP 502"):
            b.complete("sys", "user")
        assert len(http_stub.requests) == 3
        assert sleeps == [1.0, 2.0]

    def test_refused_connection_is_retried_and_named(self, http_stub):
        with refused_url() as url:
            b, sleeps = backend(http_stub, url=url)
            with pytest.raises(BackendError, match="after 3 attempts: ConnectionRefusedError"):
                b.complete("sys", "user")
        assert sleeps == [1.0, 2.0]

    @pytest.mark.parametrize(
        "outcome",
        [
            (400, {}),
            (401, OK_BODY),
            (200, {"choices": []}),
            (200, {"choices": [{"message": {}}]}),
            (200, {"choices": [{"message": {"content": None}}]}),
            (200, "not json"),
            NOT_HTTP,
            (200, {**OK_BODY, "usage": {"prompt_tokens": "12", "completion_tokens": 1}}),
            (200, {**OK_BODY, "usage": {"prompt_tokens": -5, "completion_tokens": -5}}),
            (200, {**OK_BODY, "usage": {"prompt_tokens": 9, "completion_tokens": 2.5}}),
            (200, {**OK_BODY, "usage": {"prompt_tokens": True, "completion_tokens": 1}}),
            (301, OK_BODY),
            (200, b'{"choices": [{"message": {"content": "f\xf6ur"}}]}'),
        ],
        ids=["http-400", "http-401", "no-choices", "no-content", "null-content",
             "not-json", "invalid-url",
             "usage-string", "usage-negative", "usage-float", "usage-bool",
             "http-301-not-followed", "body-not-utf8"],
    )
    def test_permanent_failure_fails_on_first_attempt(self, http_stub, outcome):
        url = "ftp://127.0.0.1/v1" if outcome == NOT_HTTP else None
        b, sleeps = backend(http_stub, outcome, (200, OK_BODY), url=url)
        with pytest.raises(BackendError):
            b.complete("sys", "user")
        assert len(http_stub.requests) == (url is None)
        assert sleeps == []

    def test_missing_usage_leaves_token_counts_to_the_caller(self, http_stub):
        b, _ = backend(http_stub, (200, {"choices": [{"message": {"content": "x"}}]}))
        assert b.complete("sys", "user") == ("x", None, None)

    def test_posts_the_payload_with_the_key(self, http_stub):
        b, _ = backend(http_stub, (200, OK_BODY))
        b.complete("sys", "user")
        (request,) = http_stub.requests
        assert (request.method, request.target) == ("POST", "/v1")
        assert request.headers["Authorization"] == "Bearer key"
        assert request.headers["Content-Type"] == "application/json"
        assert request.headers["Accept-Encoding"] == "identity"
        assert json.loads(request.body) == b.payload("sys", "user")

    def test_one_connection_serves_sequential_calls(self, http_stub):
        b, _ = backend(http_stub, (200, OK_BODY))
        for _ in range(5):
            b.complete("sys", "user")
        assert len({r.connection for r in http_stub.requests}) == 1

    def test_a_connection_the_server_closed_while_idle_is_replaced_without_a_retry(self, http_stub):
        # reusing it lost each second call to a refused write or a dropped answer
        b, sleeps = backend(http_stub, (200, OK_BODY))
        http_stub.close_idle = True
        for _ in range(6):
            assert b.complete("sys", "user") == ("four", 9, 1)
            assert http_stub.closed.acquire(timeout=10)
        assert sleeps == []
        assert len(http_stub.requests) == 6

    def test_keeps_at_most_max_in_flight_connections_idle(self, http_stub):
        n = 2 * MAX_IN_FLIGHT
        b, _ = backend(http_stub, (200, OK_BODY))
        http_stub.barrier = threading.Barrier(n)
        with ThreadPoolExecutor(n) as pool:
            outs = list(pool.map(lambda _: b.complete("sys", "user"), range(n), timeout=30))
        assert outs == [("four", 9, 1)] * n
        assert len({r.connection for r in http_stub.requests}) == n
        assert len(b._transport._idle) == MAX_IN_FLIGHT

    def test_dropping_a_used_backend_leaves_no_socket_open(self, http_stub):
        b, _ = backend(http_stub, (200, OK_BODY))
        b.complete("sys", "user")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            del b
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


class TestProxies:
    @pytest.mark.parametrize("scheme", ["http://", "https://", ""], ids=["http", "https-spoken-plain", "no-scheme"])
    def test_http_goes_to_the_proxy_with_the_whole_url(self, http_stub, monkeypatch, scheme):
        monkeypatch.setenv("HTTP_PROXY", http_stub.url.replace("http://", scheme))
        b, _ = backend(http_stub, (200, OK_BODY), url="http://chat.invalid/v1?version=2")
        assert b.complete("sys", "user") == ("four", 9, 1)
        (request,) = http_stub.requests
        assert request.target == "http://chat.invalid/v1?version=2"
        assert request.headers["Host"] == "chat.invalid"
        assert "Proxy-Authorization" not in request.headers

    def test_a_proxy_user_is_sent_as_basic_credentials(self, http_stub, monkeypatch):
        monkeypatch.setenv("http_proxy", http_stub.url.replace("//", "//us%40er:p%3Ass@"))
        b, _ = backend(http_stub, (200, OK_BODY), url="http://chat.invalid/v1")
        b.complete("sys", "user")
        want = "Basic " + base64.b64encode(b"us@er:p:ss").decode()
        assert http_stub.requests[0].headers["Proxy-Authorization"] == want

    def test_no_proxy_names_hosts_reached_directly(self, http_stub, monkeypatch):
        with refused_url() as url:
            monkeypatch.setenv("HTTP_PROXY", url)
            monkeypatch.setenv("NO_PROXY", "example.invalid,127.0.0.1")
            b, _ = backend(http_stub, (200, OK_BODY))
            assert b.complete("sys", "user") == ("four", 9, 1)
        assert http_stub.requests[0].target == "/v1"

    def test_https_is_tunnelled_with_connect(self, http_stub, monkeypatch):
        monkeypatch.setenv("HTTPS_PROXY", http_stub.url.replace("//", "//user:pw@"))
        b, sleeps = backend(http_stub, (403, ""), url="https://chat.invalid:8443/v1")
        with pytest.raises(BackendError, match="Tunnel connection failed: 403"):
            b.complete("sys", "user")
        assert [(r.method, r.target) for r in http_stub.requests] == [("CONNECT", "chat.invalid:8443")] * 3
        assert http_stub.requests[0].headers["Proxy-Authorization"] == "Basic " + base64.b64encode(b"user:pw").decode()
        assert sleeps == [1.0, 2.0]


CERTDATA = Path(sysconfig.get_paths()["stdlib"]) / "test" / "certdata"


@pytest.mark.skipif(not (CERTDATA / "keycert3.pem").exists(), reason="CPython's test certificates are not installed")
def test_https_verifies_the_server_against_the_ca_file_named_by_ssl_cert_file(no_proxy_env, monkeypatch):
    server = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    server.load_cert_chain(CERTDATA / "keycert3.pem")  # localhost, signed by pycacert.pem
    monkeypatch.delenv("SSL_CERT_DIR", raising=False)
    with HttpStub(tls=server) as stub:
        monkeypatch.setenv("SSL_CERT_FILE", str(CERTDATA / "pycacert.pem"))
        b, _ = backend(stub, (200, OK_BODY))
        assert b.complete("sys", "user") == ("four", 9, 1)
        monkeypatch.setenv("SSL_CERT_FILE", str(CERTDATA / "keycert.pem"))  # a self-signed certificate of another name
        b, sleeps = backend(stub, (200, OK_BODY))
        with pytest.raises(BackendError, match="CERTIFICATE_VERIFY_FAILED"):
            b.complete("sys", "user")
        assert sleeps == [1.0, 2.0]  # as a failed connection is
        assert len(stub.requests) == 1


class TestMajorityVoteDecision:
    @staticmethod
    def vote(*outputs):
        entries = [{"id": str(i), "role": "r", "output": o} for i, o in enumerate(outputs)]
        return MajorityVoteDecision().complete("decide", render_user_prompt(entries))

    def test_the_most_common_output_wins(self):
        assert self.vote("a", "b", "b", "c") == ("b", None, None)

    def test_a_tie_goes_to_the_first_seen_output(self):
        assert self.vote("x", "y", "y", "x", "z") == ("x", None, None)
        assert self.vote("y", "x", "x", "y") == ("y", None, None)

    def test_an_empty_transcript_answers_the_empty_string(self):
        assert self.vote() == ("", None, None)
        assert MajorityVoteDecision().complete("decide", "no transcript here") == ("", None, None)


class TestScriptedBackend:
    def test_counter_survives_concurrent_calls(self):
        n = 500
        b = ScriptedBackend([str(i) for i in range(n)])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                outs = list(pool.map(lambda _: b.complete("s", "u")[0], range(n), timeout=30))
        finally:
            sys.setswitchinterval(interval)
        assert sorted(outs, key=int) == [str(i) for i in range(n)]
        assert b.calls == n
        with pytest.raises(BackendError, match="exhausted"):
            b.complete("s", "u")


@pytest.mark.parametrize("team, bad", [((0, 15), 15), ((-1, 2), -1)], ids=["past-the-pool", "negative"])
def test_planted_decision_backend_rejects_a_team_outside_the_pool(team, bad):
    tasks = [
        TaskSpec("ok", "q", "math_reasoning", planted_team=(0, 1)),
        TaskSpec("bad", "r", "math_reasoning", planted_team=team),
    ]
    with pytest.raises(ConfigError, match=rf"task 'bad': planted_team id {bad} is not in the pool \(ids 0..14\)"):
        PlantedDecisionBackend(tasks, load_default_pool())


def test_planted_decision_backend_answers_the_task_of_its_prompt():
    # "What is 2+2" lies inside b's prompt too: matching any substring answered "four" for b
    pool = load_default_pool()
    a = TaskSpec("a", "What is 2+2", "math_reasoning", "four", planted_team=(0, 1))
    b = TaskSpec("b", "What is 2+2+2", "math_reasoning", "six", planted_team=(0, 1))
    backend = PlantedDecisionBackend([a, b], pool)
    team = render_user_prompt([{"id": str(i), "role": pool[i].role, "output": "x"} for i in (0, 1)])
    for task in (a, b):
        system = render_system_prompt(DECISION_PROFILE, task.task_text)
        assert backend.complete(system, team)[0] == task.expected_answer
