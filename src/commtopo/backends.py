"""Chat backends: deterministic mocks for the CLI, tests and benchmarks,
and an OpenAI-compatible HTTP client with retries, which posts, as the
HTTP embedding client does, through one keep-alive JSON transport.

A backend maps (system prompt, user prompt) to (output text,
prompt_tokens, completion_tokens); token counts may be None, in which
case the orchestrator falls back to whitespace counting.  One
orchestrator run calls a backend from its calling thread and up to
`MAX_IN_FLIGHT - 1` threads of its pool at once: the calling thread
makes each wave's first call, so a wave of one agent is called from no
other thread.  A collect submits all its units, runs of keys, up front,
longest first, and runs up to `MAX_IN_FLIGHT` of them at once; each unit
scores its keys one at a time.  Scored by orchestrator runs on complete
graphs, whose waves have one agent each, a collect thus keeps at most
`MAX_IN_FLIGHT` backend calls in flight.
"""
from __future__ import annotations

import json
import time
import weakref
import zlib
from collections import Counter
from dataclasses import dataclass
from typing import Protocol

from .errors import BackendError, ConfigError
from .pool import DECISION_PROFILE, AgentPool, render_system_prompt

Completion = tuple[str, int | None, int | None]

MAX_IN_FLIGHT = 16
"""Most backend calls one orchestrator run, and most graph scorings one
collect, keeps in flight at once.  A run makes its calls on the calling
thread plus up to `MAX_IN_FLIGHT - 1` pool threads."""


class ChatBackend(Protocol):
    def complete(self, system: str, user: str) -> Completion:
        """May be called from several threads at once."""
        ...


@dataclass
class BackendSet:
    """Backends for pool agents plus the distinguished decision agent."""

    default: ChatBackend
    decision: ChatBackend


class EchoBackend:
    """Pure function of its prompts; output carries a stable digest."""

    def complete(self, system: str, user: str) -> Completion:
        digest = zlib.crc32((system + "\x00" + user).encode()) % 10000
        text = (
            "In my opinion, I think the prompt points one way. "
            f"And my answer to the <Task> is {digest}."
        )
        return text, None, None


def _transcript_entries(user: str) -> list[dict]:
    start = user.find("[")
    if start < 0:
        return []
    try:
        return json.loads(user[start:])
    except json.JSONDecodeError:
        return []


class MajorityVoteDecision:
    """Returns the most common entry output (first seen wins ties)."""

    def complete(self, system: str, user: str) -> Completion:
        entries = _transcript_entries(user)
        if not entries:
            return "", None, None
        counts = Counter(e["output"] for e in entries)
        best = max(counts, key=counts.get)  # a Counter keeps first-seen order, and max the first maximum
        return best, None, None


def check_planted_teams(tasks, pool: AgentPool) -> None:
    """Raise ``ConfigError`` for the first task whose planted team names an agent the pool lacks."""
    for task in tasks:
        bad = [v for v in task.planted_team or () if not 0 <= v < pool.n_max]
        if bad:
            raise ConfigError(
                f"task {task.task_id!r}: planted_team id {bad[0]} is not in the pool (ids 0..{pool.n_max - 1})"
            )


class PlantedDecisionBackend:
    """Decision mock for planted suites.

    Locates the task whose decision prompt is the system prompt (the
    first such task, if texts repeat), then answers correctly iff every
    planted-team role appears in the transcript.
    """

    def __init__(self, tasks, pool: AgentPool):
        tasks = list(tasks)
        check_planted_teams(tasks, pool)
        # keyed on the whole prompt: one task's text can lie inside another's
        self.by_prompt = {}
        for t in tasks:
            self.by_prompt.setdefault(render_system_prompt(DECISION_PROFILE, t.task_text), t)
        self.role_to_id = {a.role: a.id for a in pool.agents}

    def complete(self, system: str, user: str) -> Completion:
        task = self.by_prompt.get(system)
        if task is None or task.planted_team is None:
            return "unknown task", None, None
        present = {
            self.role_to_id[e["role"]]
            for e in _transcript_entries(user)
            if e.get("role") in self.role_to_id
        }
        if set(task.planted_team) <= present:
            return task.expected_answer, None, None
        return "no consensus", None, None


class JsonTransport:
    """POSTs JSON to one URL over reused ``http.client`` keep-alive connections.

    Safe to call from several threads: each post takes an idle connection,
    or opens one, and puts it back once the answer is read; at most
    `MAX_IN_FLIGHT` stay idle, and they close when the transport goes.
    Proxies come from ``HTTP(S)_PROXY`` and ``NO_PROXY``; https is verified
    against ``ssl.create_default_context()``; a 3xx answer is returned, not
    followed.  The standard-library modules are imported on first use, so
    importing this module loads none of them.
    """

    def __init__(self, url: str, api_key: str, timeout: float):
        self.url = url
        self.timeout = timeout  # seconds, for connecting and for each read
        self._headers = {"Content-Type": "application/json"}
        if api_key:
            self._headers["Authorization"] = f"Bearer {api_key}"
        self._idle: list = []  # (connection, request target, headers); list.pop and append are atomic
        weakref.finalize(self, _close_idle, self._idle)

    def post(self, payload: dict) -> tuple[int, object]:
        """The answer's status and, for a 2xx answer, its JSON body (else
        None).  Raises OSError on a network failure or timeout, and
        ValueError on a URL that is not http(s) or a 2xx body that is not
        UTF-8 JSON."""
        import http.client

        try:
            conn, target, headers = self._idle.pop()
        except IndexError:
            conn, target, headers = self._open()
        if conn.sock is not None and _readable(conn.sock):
            conn.close()  # the server closed it while idle: the request reconnects
        try:
            conn.request("POST", target, json.dumps(payload).encode(), headers)
            resp = conn.getresponse()
            status, body = resp.status, resp.read()
        except (OSError, http.client.HTTPException) as exc:  # a cut or garbled answer among them
            conn.close()
            raise ConnectionError(f"{type(exc).__name__}: {exc}") from exc
        if len(self._idle) < MAX_IN_FLIGHT:
            self._idle.append((conn, target, headers))
        else:
            conn.close()
        return status, (json.loads(body.decode()) if 200 <= status < 300 else None)

    def _open(self):
        """A new connection to the URL or its proxy, with the request target
        and the headers to send on it."""
        import base64
        import http.client
        from urllib.parse import unquote, urlsplit
        from urllib.request import getproxies, proxy_bypass

        url = urlsplit(self.url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"not an http(s) URL: {self.url!r}")
        target = (url.path or "/") + (f"?{url.query}" if url.query else "")
        # https verifies against ssl.create_default_context(), which reads SSL_CERT_FILE and SSL_CERT_DIR
        connection = http.client.HTTPSConnection if url.scheme == "https" else http.client.HTTPConnection
        proxy = getproxies().get(url.scheme)
        if not proxy or proxy_bypass(url.hostname):
            return connection(url.hostname, url.port, timeout=self.timeout), target, self._headers
        # spoken to in plain HTTP whatever its scheme, as urllib does
        proxy = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
        auth = {}
        if proxy.username is not None:
            user = f"{unquote(proxy.username)}:{unquote(proxy.password or '')}"
            auth["Proxy-Authorization"] = "Basic " + base64.b64encode(user.encode()).decode()
        conn = connection(proxy.hostname, proxy.port or 80, timeout=self.timeout)
        if url.scheme == "http":  # the proxy takes the whole URL as the target
            return conn, self.url, {**self._headers, **auth}
        conn.set_tunnel(url.hostname, url.port, auth)  # CONNECT host:port, then TLS to the host
        return conn, target, self._headers


def _readable(sock) -> bool:
    """Whether an idle socket has something to read: the server closed it,
    or sent what no request asked for.  Either way it cannot be reused."""
    import selectors

    with selectors.DefaultSelector() as selector:
        selector.register(sock, selectors.EVENT_READ)
        return bool(selector.select(0))


def _close_idle(idle: list) -> None:
    for conn, _, _ in idle:
        conn.close()


class HttpChatBackend:
    """OpenAI-compatible chat-completions client with retry and backoff."""

    retries = 3  # attempts per call
    backoff = 1.0  # seconds before the second attempt, doubled before each later one

    def __init__(self, endpoint: str, api_key: str, model: str, sleep=time.sleep):
        self.model = model
        self._transport = JsonTransport(endpoint, api_key, timeout=120)
        self._sleep = sleep

    def payload(self, system: str, user: str) -> dict:
        return {
            "model": self.model,
            "messages": [
                {"role": "system", "content": system},
                {"role": "user", "content": user},
            ],
            "temperature": 1.0,
        }

    def complete(self, system: str, user: str) -> Completion:
        """Retry timeouts, connection errors, HTTP 429 and 5xx with
        exponential backoff; fail at once on any other error, a 3xx among them."""
        error: Exception | str | None = None
        for attempt in range(self.retries):
            try:
                status, obj = self._transport.post(self.payload(system, user))
            except OSError as exc:  # timeouts among them
                error = exc
            except ValueError as exc:
                raise BackendError(f"chat request failed: {exc}") from exc
            else:
                if status == 429 or status >= 500:
                    error = f"HTTP {status}"
                elif status >= 300:
                    raise BackendError(f"chat endpoint answered HTTP {status}")
                else:
                    return _parse_completion(obj)
            if attempt < self.retries - 1:
                self._sleep(self.backoff * 2**attempt)
        raise BackendError(f"chat backend failed after {self.retries} attempts: {error}")


def _parse_completion(obj) -> Completion:
    try:
        text = obj["choices"][0]["message"]["content"]
        usage = obj.get("usage") or {}
        tokens = usage.get("prompt_tokens"), usage.get("completion_tokens")
    except (LookupError, TypeError, AttributeError) as exc:
        raise BackendError(f"malformed chat response: {exc!r}") from exc
    if not isinstance(text, str):
        raise BackendError("malformed chat response: content is not a string")
    for name, count in zip(("prompt_tokens", "completion_tokens"), tokens):
        if count is not None and (type(count) is not int or count < 0):  # a bool is not of type int
            raise BackendError(f"malformed chat response: usage.{name} is {count!r}, not a count")
    return (text, *tokens)
