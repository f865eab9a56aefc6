import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
import requests

from commtopo.backends import MAX_IN_FLIGHT, HttpChatBackend, PlantedDecisionBackend
from commtopo.collector import TaskSpec
from commtopo.errors import BackendError, ConfigError
from commtopo.pool import DECISION_PROFILE, load_default_pool, render_system_prompt, render_user_prompt
from doubles import ScriptedBackend

OK_BODY = {
    "choices": [{"message": {"content": "four"}}],
    "usage": {"prompt_tokens": 9, "completion_tokens": 1},
}


class FakeResponse:
    def __init__(self, status_code, body):
        self.status_code = status_code
        self.body = body

    def raise_for_status(self):
        if self.status_code >= 400:
            raise requests.HTTPError(f"HTTP {self.status_code}")

    def json(self):
        if isinstance(self.body, Exception):
            raise self.body
        return self.body


class FakeSession:
    """Plays one scripted outcome per POST: a response or an exception."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.attempts = 0

    def post(self, url, json=None, headers=None, timeout=None):
        outcome = self.outcomes[min(self.attempts, len(self.outcomes) - 1)]
        self.attempts += 1
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def backend(outcomes, sleeps):
    session = FakeSession(outcomes)
    b = HttpChatBackend("http://chat.invalid/v1", "key", "m", session=session, sleep=sleeps.append)
    return b, session


class TestHttpChatBackend:
    @pytest.mark.parametrize(
        "transient",
        [
            requests.ConnectionError("refused"),
            requests.Timeout("slow"),
            FakeResponse(429, {}),
            FakeResponse(503, {}),
        ],
        ids=["connection-error", "timeout", "http-429", "http-503"],
    )
    def test_transient_failure_is_retried_with_backoff(self, transient):
        sleeps = []
        b, session = backend([transient, transient, FakeResponse(200, OK_BODY)], sleeps)
        assert b.complete("sys", "user") == ("four", 9, 1)
        assert session.attempts == 3
        assert sleeps == [1.0, 2.0]

    def test_persistent_transient_failure_gives_up_after_retries(self):
        sleeps = []
        b, session = backend([FakeResponse(502, {})], sleeps)
        with pytest.raises(BackendError, match="after 3 attempts: HTTP 502"):
            b.complete("sys", "user")
        assert session.attempts == 3
        assert sleeps == [1.0, 2.0]

    @pytest.mark.parametrize(
        "outcome",
        [
            FakeResponse(400, {}),
            FakeResponse(401, OK_BODY),
            FakeResponse(200, {"choices": []}),
            FakeResponse(200, {"choices": [{"message": {}}]}),
            FakeResponse(200, {"choices": [{"message": {"content": None}}]}),
            FakeResponse(200, ValueError("not json")),
            requests.exceptions.InvalidURL("bad url"),
            FakeResponse(200, {**OK_BODY, "usage": {"prompt_tokens": "12", "completion_tokens": 1}}),
            FakeResponse(200, {**OK_BODY, "usage": {"prompt_tokens": -5, "completion_tokens": -5}}),
            FakeResponse(200, {**OK_BODY, "usage": {"prompt_tokens": 9, "completion_tokens": 2.5}}),
            FakeResponse(200, {**OK_BODY, "usage": {"prompt_tokens": True, "completion_tokens": 1}}),
        ],
        ids=["http-400", "http-401", "no-choices", "no-content", "null-content",
             "not-json", "invalid-url",
             "usage-string", "usage-negative", "usage-float", "usage-bool"],
    )
    def test_permanent_failure_fails_on_first_attempt(self, outcome):
        sleeps = []
        b, session = backend([outcome, FakeResponse(200, OK_BODY)], sleeps)
        with pytest.raises(BackendError):
            b.complete("sys", "user")
        assert session.attempts == 1
        assert sleeps == []

    def test_missing_usage_leaves_token_counts_to_the_caller(self):
        b, _ = backend([FakeResponse(200, {"choices": [{"message": {"content": "x"}}]})], [])
        assert b.complete("sys", "user") == ("x", None, None)

    def test_own_session_pools_one_connection_per_call_in_flight(self):
        b = HttpChatBackend("https://chat.invalid/v1", "key", "m")
        for url in ("https://chat.invalid/v1", "http://chat.invalid/v1"):
            adapter = b._session.get_adapter(url)
            assert adapter.poolmanager.connection_pool_kw["maxsize"] == MAX_IN_FLIGHT

    def test_callers_session_is_left_alone(self):
        session = requests.Session()
        before = dict(session.adapters)
        b = HttpChatBackend("https://chat.invalid/v1", "key", "m", session=session)
        assert b._session is session and session.adapters == before


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
