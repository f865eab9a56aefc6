"""Guards on the test configuration and on what importing the package loads."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_PROPERTY = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
"""


def test_a_failing_hypothesis_property_fails_one_test_and_ends_no_session(tmp_path):
    # hypothesis touches the deprecated mypy_extensions.TypedDict while it reports
    # a failure, and "error" in filterwarnings turned that into INTERNALERROR
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in out.stdout + out.stderr, out.stdout + out.stderr
    assert "1 failed, 1 passed" in out.stdout.splitlines()[-1], out.stdout


def loaded_after(code: str) -> set[str]:
    """The modules loaded in a fresh interpreter after running ``code``."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint(' '.join(sys.modules))"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    return set(out.stdout.split())


def test_the_http_backends_load_no_third_party_http_client():
    loaded = loaded_after(
        "import commtopo.cli\n"
        "from commtopo.backends import HttpChatBackend\n"
        "from commtopo.embed import HttpBackend\n"
        "HttpChatBackend('http://127.0.0.1:1/v1', 'key', 'm'), HttpBackend('http://127.0.0.1:1/embed')"
    )
    assert {m for m in loaded if m.split(".")[0] in ("requests", "urllib3")} == set()


def test_importing_the_cli_loads_no_http_or_tls_module():
    # they cost about 25 ms of cold start, so the HTTP backends import them when they post
    loaded = loaded_after("import commtopo.cli")
    assert loaded & {"http.client", "urllib.request", "ssl"} == set()
