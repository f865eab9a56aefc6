"""Shared test plumbing: surface acceptance-criterion verdicts in the
terminal summary even though pytest captures per-test stdout, and the
loopback HTTP stub that the HTTP backends' tests post to."""
import pytest

from httpstub import HttpStub

CRITERION_LINES: list[str] = []

PROXY_VARIABLES = [
    case(name) for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy") for case in (str.lower, str.upper)
]


def record_criterion(line: str) -> None:
    CRITERION_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def no_proxy_env(monkeypatch):
    """Clears every proxy variable, so that requests go straight to their
    host unless the test sets one."""
    for name in PROXY_VARIABLES:
        monkeypatch.delenv(name, raising=False)


@pytest.fixture
def http_stub(no_proxy_env):
    """A running `HttpStub` that requests reach directly."""
    with HttpStub() as stub:
        yield stub
