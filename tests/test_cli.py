import argparse
import ast
import contextlib
import copy
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import fields
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import commtopo
from commtopo.cli import EXIT_CHECKPOINT, EXIT_CODES, _build_parser, _config, main
from commtopo.collector import TaskSpec
from commtopo.config import AppConfig, options
from commtopo.embed import HashingBackend
from commtopo.graphs import (
    SupervisionPair,
    Topology,
    induce,
    lift_subgraph,
    parse_topology,
    read_corpus,
    serialize_topology,
    write_corpus,
)
from commtopo.prunenet import NetConfig, PruneNetParams, save_checkpoint
from taskfiles import write_tasks


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("COMMTOPO_API_KEY", raising=False)
    monkeypatch.delenv("COMMTOPO_CHAT_ENDPOINT", raising=False)
    monkeypatch.delenv("COMMTOPO_EMBED_ENDPOINT", raising=False)
    return tmp_path


def write_suite(path, n=10, team=(1, 2, 3)):
    tasks = [
        TaskSpec(f"t{i}", f"question number {i}", "math_reasoning", "42", "exact", team)
        for i in range(n)
    ]
    path.write_text(write_tasks(tasks))
    return tasks


def make_checkpoint(workdir, name="checkpoint.json", d=None):
    from commtopo.embed import HashingBackend
    from commtopo.pool import load_default_pool
    from commtopo.prunenet import NetConfig, PruneNetParams, save_checkpoint

    pool = load_default_pool()
    net = NetConfig(d=d or HashingBackend().dim, n_max=pool.n_max)
    params = PruneNetParams.init(net, np.random.default_rng(0))
    path = workdir / name
    path.write_text(save_checkpoint(params, net))
    return path


class TestCollect:
    def test_writes_topk_pairs_per_task(self, workdir, capsys):
        write_suite(workdir / "tasks.jsonl", n=10)
        code = main(
            ["collect", "--tasks", "tasks.jsonl", "--out", "corpus.jsonl", "--budget", "100"]
        )
        assert code == 0
        pairs = read_corpus((workdir / "corpus.jsonl").read_text())
        assert len(pairs) == 20
        out = capsys.readouterr().out
        assert "pairs=20" in out and "tasks=10" in out

    def test_same_seed_reruns_byte_identical(self, workdir):
        write_suite(workdir / "tasks.jsonl", n=5)
        blobs = []
        for name in ("a.jsonl", "b.jsonl"):
            assert (
                main(
                    ["--seed", "9", "collect", "--tasks", "tasks.jsonl",
                     "--out", name, "--budget", "60"]
                )
                == 0
            )
            blobs.append((workdir / name).read_bytes())
        assert blobs[0] == blobs[1]

    def test_missing_tasks_file_is_usage_error(self, workdir, capsys):
        assert main(["collect", "--tasks", "nope.jsonl"]) == 1
        assert "not found" in capsys.readouterr().err

    def test_empty_tasks_file_is_usage_error(self, workdir, capsys):
        (workdir / "tasks.jsonl").write_text("")
        assert main(["collect", "--tasks", "tasks.jsonl"]) == 1
        assert "no tasks" in capsys.readouterr().err

    def test_http_backend_without_credentials_is_external_error(self, workdir, capsys):
        write_suite(workdir / "tasks.jsonl", n=2)
        (workdir / "cfg.ini").write_text(
            "[agents]\nagent_backend = http\nchat_endpoint = http://localhost:1/v1\n"
            "evaluator = orchestrator\n"
        )
        code = main(["--config", "cfg.ini", "collect", "--tasks", "tasks.jsonl"])
        assert code == 2
        assert "credentials missing" in capsys.readouterr().err


class TestTrain:
    def test_missing_corpus_is_usage_error(self, workdir, capsys):
        assert main(["train", "--corpus", "missing.jsonl"]) == 1
        assert "corpus not found" in capsys.readouterr().err

    def test_trains_and_reports_beta(self, workdir, capsys):
        write_suite(workdir / "tasks.jsonl", n=5)
        assert main(["collect", "--tasks", "tasks.jsonl", "--out", "c.jsonl",
                     "--budget", "60"]) == 0
        capsys.readouterr()
        code = main(["train", "--corpus", "c.jsonl", "--beta", "1.333", "--epochs", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "beta=1.333" in out and "epochs=2" in out
        assert (workdir / "checkpoint.json").exists()
        assert (workdir / "train_log.csv").read_text().startswith(
            "step,edge_loss,node_loss,total,tau"
        )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_is_training_error(self, workdir, capsys):
        write_suite(workdir / "tasks.jsonl", n=5)
        assert main(["collect", "--tasks", "tasks.jsonl", "--out", "c.jsonl",
                     "--budget", "60"]) == 0
        (workdir / "cfg.ini").write_text("[train]\nlr = 1e12\nepochs = 200\n")
        capsys.readouterr()
        assert main(["--config", "cfg.ini", "train", "--corpus", "c.jsonl"]) == 3
        assert "diverged" in capsys.readouterr().err


    def test_zero_epochs_is_usage_error(self, workdir, capsys):
        write_suite(workdir / "tasks.jsonl", n=5)
        assert main(["collect", "--tasks", "tasks.jsonl", "--out", "c.jsonl",
                     "--budget", "60"]) == 0
        capsys.readouterr()
        assert main(["train", "--corpus", "c.jsonl", "--epochs", "0"]) == 1
        assert "epochs" in capsys.readouterr().err
        assert not (workdir / "checkpoint.json").exists()

    def test_avg_tail_out_of_range_in_config_is_usage_error(self, workdir, capsys):
        write_suite(workdir / "tasks.jsonl", n=5)
        assert main(["collect", "--tasks", "tasks.jsonl", "--out", "c.jsonl",
                     "--budget", "60"]) == 0
        (workdir / "cfg.ini").write_text("[train]\navg_tail = 1.5\n")
        capsys.readouterr()
        assert main(["--config", "cfg.ini", "train", "--corpus", "c.jsonl"]) == 1
        err = capsys.readouterr().err
        assert "avg_tail" in err and len(err.strip().splitlines()) == 1


class TestDesign:
    def test_missing_checkpoint_is_checkpoint_error(self, workdir, capsys):
        assert main(["design", "--query", "q", "--checkpoint", "none.json"]) == 4
        assert "checkpoint not found" in capsys.readouterr().err

    def test_json_output_parses(self, workdir, capsys):
        make_checkpoint(workdir)
        assert main(["design", "--query", "solve 2+2"]) == 0
        out, err = capsys.readouterr()
        topo = parse_topology(out)
        assert topo.mask.n == 15
        assert "active agents:" in err

    def test_dot_output_is_graphviz(self, workdir, capsys):
        make_checkpoint(workdir)
        assert main(["design", "--query", "solve 2+2", "--format", "dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")

    def test_theta_zero_keeps_all_agents(self, workdir, capsys):
        make_checkpoint(workdir)
        assert main(["design", "--query", "q", "--theta", "0"]) == 0
        topo = parse_topology(capsys.readouterr().out)
        assert topo.mask.active_count() == 15


class TestRun:
    def test_echo_run_writes_transcript(self, workdir, capsys):
        make_checkpoint(workdir)
        code = main(["run", "--query", "what is 2+2", "--k", "2"])
        assert code == 0
        obj = json.loads((workdir / "transcript.json").read_text())
        agents = {e["agent_id"] for e in obj["transcript"] if e["agent_id"] >= 0}
        assert len(obj["transcript"]) == 2 * len(agents) + 1
        assert "answer:" in capsys.readouterr().out

    def test_aborted_run_writes_partial_transcript(self, workdir, capsys, monkeypatch):
        make_checkpoint(workdir)
        (workdir / "cfg.ini").write_text(
            "[agents]\nagent_backend = http\n"
            "chat_endpoint = http://localhost:1/v1\napi_key = k\n"
        )
        import commtopo.backends as backends_mod

        monkeypatch.setattr(
            backends_mod.HttpChatBackend,
            "complete",
            lambda self, s, u: (_ for _ in ()).throw(
                backends_mod.BackendError("connection refused")
            ),
        )
        code = main(["--config", "cfg.ini", "run", "--query", "q"])
        assert code == 5
        assert (workdir / "transcript.json").exists()
        assert "aborted" in capsys.readouterr().err


class TestBench:
    def test_unknown_method_lists_valid(self, workdir, capsys):
        write_suite(workdir / "suite.jsonl", n=2)
        assert main(["bench", "--suite", "suite.jsonl", "--methods", "torus"]) == 1
        err = capsys.readouterr().err
        assert "torus" in err and "complete" in err and "designed" in err

    def test_static_methods_produce_report(self, workdir, capsys):
        write_suite(workdir / "suite.jsonl", n=2)
        code = main(
            ["bench", "--suite", "suite.jsonl", "--methods", "chain,complete",
             "--repeats", "1", "--out-prefix", "rep"]
        )
        assert code == 0
        csv_text = (workdir / "rep.csv").read_text()
        assert csv_text.startswith("method,accuracy,mean_tokens,runs")
        assert "chain" in csv_text and "complete" in csv_text
        assert (workdir / "rep.md").exists()

    def test_designed_without_checkpoint_is_checkpoint_error(self, workdir, capsys):
        write_suite(workdir / "suite.jsonl", n=1)
        assert main(["bench", "--suite", "suite.jsonl", "--methods", "designed"]) == 4


class TestExport:
    def test_json_to_dot(self, workdir, capsys):
        make_checkpoint(workdir)
        assert main(["design", "--query", "q", "--out", "topo.json"]) == 0
        capsys.readouterr()
        assert main(["export", "--topology", "topo.json", "--format", "dot"]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_missing_file_is_usage_error(self, workdir, capsys):
        assert main(["export", "--topology", "ghost.json"]) == 1

    def test_garbage_file_is_usage_error(self, workdir, capsys):
        (workdir / "bad.json").write_text("{not json")
        assert main(["export", "--topology", "bad.json"]) == 1


class TestParser:
    def test_no_command_is_usage_error(self, workdir, capsys):
        assert main([]) == 1

    def test_missing_config_file_is_usage_error(self, workdir, capsys):
        assert main(["--config", "ghost.ini", "design", "--query", "q"]) == 1
        assert "config file not found" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["collect", "--tasks", "t", "--budget", "abc"],
            ["design", "--query", "q", "--format", "xml"],
            ["design"],
            ["frob"],
            [],
            ["bench", "--suite", "s", "--repeats", "x"],
        ],
        ids=["bad-budget", "bad-format", "no-query", "unknown-command", "no-arguments", "bad-repeats"],
    )
    def test_usage_error_is_one_line_without_usage_text(self, workdir, capsys, argv):
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        if "--budget" in argv:
            assert "budget" in err[0], err

    def test_help_exits_0(self, workdir, capsys):
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: commtopo")


def test_no_flag_that_names_an_option_declares_a_type():
    """An option's type is declared once, on its dataclass field; ``_config``
    parses a flag's text the way the INI reader parses the option's value."""
    names = {name for _, names in options(AppConfig()).values() for name in names}
    parser = _build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    typed = [
        f"{prog} {action.option_strings[0]}"
        for prog, p in [("commtopo", parser), *commands.choices.items()]
        for action in p._actions
        if action.dest in names and action.type is not None
    ]
    assert typed == []


def test_no_stage_loads_scipy(tmp_path):
    # importing scipy.special cost every collect about 23 MB of RSS and a quarter second
    write_suite(tmp_path / "suite.jsonl", n=6)
    (tmp_path / "orch.ini").write_text("[agents]\nevaluator = orchestrator\n")
    runs = [
        ["collect", "--tasks", "suite.jsonl", "--budget", "10"],
        ["--config", "orch.ini", "collect", "--tasks", "suite.jsonl", "--budget", "10", "--out", "o.jsonl"],
        ["train", "--epochs", "1"],
        ["design", "--query", "question number 1"],
        ["run", "--query", "question number 1"],
        ["bench", "--suite", "suite.jsonl", "--methods", "designed,complete", "--repeats", "1"],
    ]
    code = (
        "import os, sys\n"
        "from commtopo.cli import main\n"
        f"os.chdir({str(tmp_path)!r})\n"
        f"for argv in {runs!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith("COMMTOPO_")}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[]"


def test_the_config_file_is_read_as_utf8_whatever_the_locale(tmp_path):
    # every other input is read as UTF-8; the INI file was read in the locale's encoding
    (tmp_path / "cfg.ini").write_text("[agents]\nmodel = mod\u00e8le\n", encoding="utf-8")
    (tmp_path / "t.json").write_text(serialize_topology(induce(*lift_subgraph(Topology.complete(3), [0, 1, 2], 3))))
    code = (
        "import os, sys\n"
        "from commtopo.cli import main\n"
        f"os.chdir({str(tmp_path)!r})\n"
        "sys.exit(main(['--config', 'cfg.ini', 'export', '--topology', 't.json']))\n"
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith("COMMTOPO_")}
    env.update(LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr


def run_under_the_c_locale(tmp_path, *argv):
    """``commtopo argv`` in a subprocess whose locale encodes ASCII only."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("COMMTOPO_")}
    env.update(LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    env["PYTHONPATH"] = str(Path(commtopo.__file__).parents[1])
    return subprocess.run(
        [sys.executable, "-m", "commtopo.cli", *argv], cwd=tmp_path, capture_output=True, env=env,
        encoding="utf-8", errors="surrogateescape", timeout=60,
    )


def test_a_report_named_after_a_non_ascii_suite_is_written_as_utf8_whatever_the_locale(tmp_path):
    # the report's first line holds the suite's stem: writing it in the locale's encoding raised
    write_suite(tmp_path / "t\u00e2ches.jsonl", n=2)
    out = run_under_the_c_locale(
        tmp_path, "bench", "--suite", "t\u00e2ches.jsonl", "--methods", "complete", "--repeats", "1",
        "--out-prefix", "rep",
    )
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "rep.md").read_bytes().decode("utf-8").startswith("Benchmark suite: t\u00e2ches (seed 0)\n")


def test_stdout_prints_the_bytes_typed_in_an_argument_the_locale_could_not_decode(tmp_path):
    # the suite's stem printed as t\udcc3\udca2ches: the surrogates left by decoding argv were escaped
    write_suite(tmp_path / "t\u00e2ches.jsonl", n=2)
    out = run_under_the_c_locale(
        tmp_path, "bench", "--suite", "t\u00e2ches.jsonl", "--methods", "complete", "--repeats", "1",
        "--out-prefix", "rep",
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[0] == "Benchmark suite: t\u00e2ches (seed 0)"


def test_stdout_escapes_what_the_locale_cannot_encode(tmp_path):
    # printing the answer "caf\u00e9" raised UnicodeEncodeError under an ASCII locale
    make_checkpoint(tmp_path)
    tasks = [TaskSpec("t0", "question 0", "math_reasoning", "caf\u00e9", "exact", (1, 2, 3))]
    (tmp_path / "suite.jsonl").write_text(write_tasks(tasks), encoding="utf-8")
    (tmp_path / "planted.ini").write_text("[agents]\nagent_backend = planted\n")
    out = run_under_the_c_locale(
        tmp_path, "--config", "planted.ini", "run", "--suite", "suite.jsonl", "--query", "question 0", "--theta", "0",
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[0] == "answer: caf\\xe9"


def test_runtime_dependencies_are_the_packages_the_source_imports():
    # reads imports that no stage runs, which the test above cannot see: one such kept scipy a dependency
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).parents[1]
    imported = set()
    for path in (root / "src" / "commtopo").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"commtopo"}
    pyproject = tomllib.loads((root / "pyproject.toml").read_text())
    declared = {re.match(r"[\w.-]+", dep)[0] for dep in pyproject["project"]["dependencies"]}
    assert third_party == declared


# benchmarks/workloads.py TRACE_TARGETS wraps orchestrator.render_user_prompt by this
# name, so it stays in the package until the trace target names what run_topology calls
UNCALLED_BUT_TRACED = {"pool.render_user_prompt"}


def test_every_top_level_definition_is_used_in_the_package_or_exported():
    # a helper that only tests call belongs under tests/, as analysis.py and taskfiles.py do
    loads, defs = [], []  # the names each top-level statement loads; (module.name, name, its statement)
    for path in sorted((Path(__file__).parents[1] / "src" / "commtopo").rglob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            loads.append({
                node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(stmt)
                if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
            })
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((f"{path.stem}.{stmt.name}", stmt.name, len(loads) - 1))
    unused = {
        qual for qual, name, own in defs
        if name not in commtopo.__all__ and not any(name in names for i, names in enumerate(loads) if i != own)
    }
    assert unused == UNCALLED_BUT_TRACED


EMBED_HTTP = "[embedding]\nembed_backend = http\nembed_endpoint = http://localhost:1/v1\n"
POOL3 = "[paths]\npool_path = pool3.jsonl\n"


@pytest.mark.parametrize(
    "ini, argv, code, needle",
    [
        ("", ["collect", "--tasks", "suite.jsonl", "--mu", "99"], 1, "mu=99"),
        (EMBED_HTTP, ["design", "--query", "q"], 2, "connection refused"),
        ("[embedding]\nembed_backend = http\n", ["design", "--query", "q"], 2, "endpoint"),
        ("[agents]\nagent_backend = bogus\n", ["run", "--query", "q"], 1, "bogus"),
        ("[paths]\npool_path = ghost.jsonl\n", ["design", "--query", "q"], 1, "ghost.jsonl"),
        ("", ["design", "--query", "q", "--out", "ghost/t.json"], 1, "ghost/t.json"),
        ("[run]\nk_rounds = abc\n", ["design", "--query", "q"], 1, "[run] k_rounds"),
        ("", ["bench", "--suite", "suite.jsonl", "--methods", "complete", "--repeats", "0"],
         1, "repeats"),
        ("", ["run", "--query", "q", "--k", "0"], 1, "k_rounds must be finite and lie in [1, 1000]"),
        ("", ["design", "--query", "q", "--checkpoint", "list.json"], 4, "malformed checkpoint"),
        ("api_key = x\n", ["design", "--query", "q"], 1, "cfg.ini: File contains no section"),
        ("[agents]\nmodel = a\nmodel = b\n", ["design", "--query", "q"], 1, "'model'"),
        ("", ["collect", "--tasks", "bad_team.jsonl"], 1, "bad task line"),
        ("", ["train", "--corpus", "bad_score.jsonl"], 1, "bad supervision pair line"),
        ("", ["train", "--corpus", "bad_y.jsonl"], 1, "bad supervision pair line"),
        ("[collector]\ntop_k = -1\n", ["collect", "--tasks", "suite.jsonl"], 1, "top_k"),
        ("[collector]\ntop_k = 0\n", ["collect", "--tasks", "suite.jsonl"], 1, "top_k"),
        ("[collector]\ncandidates_per_task = 0\n", ["collect", "--tasks", "suite.jsonl"], 1,
         "candidates_per_task"),
        ("[DEFAULT]\nseed = 7\n", ["design", "--query", "q"], 1, "unknown section [DEFAULT]"),
        ("[trian]\nlr = 0.1\n", ["design", "--query", "q"], 1, "unknown section [trian]"),
        ("[run]\nk_round = 5\n", ["design", "--query", "q"], 1, "unknown option 'k_round'"),
        ("[run]\nparallelism = 4\n", ["design", "--query", "q"], 1, "'parallelism'"),
        ("[train]\nseed = 5\n", ["design", "--query", "q"], 1, "[run] seed"),
        ("[train]\nlr = nan\n", ["train", "--corpus", "good.jsonl"], 1, "lr must be finite"),
        ("[train]\nbeta = nan\n", ["train", "--corpus", "good.jsonl"], 1, "beta must be finite"),
        ("[train]\nlambda_s = inf\n", ["train", "--corpus", "good.jsonl"], 1, "lambda_s"),
        ("[train]\nweight_decay = nan\n", ["train", "--corpus", "good.jsonl"], 1, "weight_decay"),
        ("[run]\ntheta = nan\n", ["design", "--query", "q"], 1,
         "theta must be finite and lie in [0, 1]"),
        ("", ["design", "--query", "q", "--theta", "1.5"], 1,
         "theta must be finite and lie in [0, 1]"),
        ("", ["run", "--query", "q", "--theta", "-0.1"], 1,
         "theta must be finite and lie in [0, 1]"),
        ("", ["collect", "--tasks", "duplicate_ids.jsonl"], 1, "duplicate task id 't'"),
        ("[agents]\nplanted_mode = foo\n", ["collect", "--tasks", "suite.jsonl"], 1, "planted_mode"),
        ("[agents]\nevaluator = orchestrator\n[run]\nk_rounds = 0\n",
         ["collect", "--tasks", "suite.jsonl"], 1, "k_rounds"),
        ("", ["--seed", "-1", "design", "--query", "q"], 1, "seed must be finite and lie in [0, inf)"),
        ("[train]\nadam_beta2 = 1.0\n", ["train", "--corpus", "good.jsonl"], 1, "adam_beta2"),
        ("[train]\nadam_beta1 = 1.5\n", ["train", "--corpus", "good.jsonl"], 1, "adam_beta1"),
        ("[train]\nweight_decay = -1\n", ["train", "--corpus", "good.jsonl"], 1, "weight_decay"),
        ("[train]\nlambda_s = -5\n", ["train", "--corpus", "good.jsonl"], 1, "lambda_s"),
        (POOL3, ["design", "--query", "q"], 4, "checkpoint (n_max, d) (15, 384) does not fit"),
        (POOL3, ["run", "--query", "q"], 4, "does not fit the pool and embedder (3, 384)"),
        (POOL3, ["bench", "--suite", "suite.jsonl", "--methods", "designed"], 4, "does not fit"),
        ("", ["design", "--query", "q", "--checkpoint", "d8.json"], 4,
         "checkpoint (n_max, d) (15, 8) does not fit the pool and embedder (15, 384)"),
        (POOL3, ["train", "--corpus", "good.jsonl"], 1,
         "corpus pairs have 15 agents but the pool has 3"),
        ("", ["train", "--corpus", "five_agents.jsonl"], 1,
         "corpus pairs have 5 agents but the pool has 15"),
        ("", ["collect", "--tasks", "team99.jsonl", "--budget", "30"], 1,
         "task 't0': planted_team id 99 is not in the pool (ids 0..14)"),
        ("[agents]\nevaluator = orchestrator\n", ["collect", "--tasks", "team99.jsonl", "--budget", "30"],
         1, "task 't0': planted_team id 99"),
        ("[agents]\nagent_backend = planted\n",
         ["bench", "--suite", "team99.jsonl", "--methods", "complete", "--repeats", "1"], 1,
         "task 't0': planted_team id 99"),
        ("", ["collect", "--tasks", "list_id.jsonl"], 1, "bad task line: task_id must be a string, got list"),
        ("", ["collect", "--tasks", "list_answer.jsonl"], 1, "expected_answer must be a string, got list"),
        ("", ["train", "--corpus", "int_text.jsonl"], 1,
         "bad supervision pair line: task_text must be a string, got int"),
        ("", ["collect", "--tasks", "latin.bin"], 1, "tasks file latin.bin is not UTF-8"),
        ("", ["run", "--query", "q", "--suite", "latin.bin"], 1, "tasks file latin.bin is not UTF-8"),
        ("", ["bench", "--suite", "latin.bin", "--methods", "complete"], 1,
         "tasks file latin.bin is not UTF-8"),
        ("", ["train", "--corpus", "latin.bin"], 1, "corpus latin.bin is not UTF-8"),
        ("[paths]\npool_path = latin.bin\n", ["design", "--query", "q"], 1, "pool latin.bin is not UTF-8"),
        ("", ["export", "--topology", "latin.bin"], 1, "topology latin.bin is not UTF-8"),
        ("", ["collect", "--tasks", "team_text.jsonl"], 1,
         "bad task line: planted_team must be a list, got str"),
        ("", ["collect", "--tasks", "team_float_bool.jsonl"], 1,
         "bad task line: planted_team[0] must be an integer, got float"),
        ("", ["collect", "--tasks", "team_bool.jsonl"], 1,
         "bad task line: planted_team[1] must be an integer, got bool"),
        ("", ["train", "--corpus", "score_text.jsonl"], 1,
         "bad supervision pair line: score must be a number, got str"),
        ("", ["train", "--corpus", "score_bool.jsonl"], 1,
         "bad supervision pair line: score must be a number, got bool"),
        ("[paths]\npool_path = id_bool.jsonl\n", ["design", "--query", "q"], 1,
         "bad profile line: id must be an integer, got bool"),
        ("[paths]\npool_path = id_float.jsonl\n", ["design", "--query", "q"], 1,
         "bad profile line: id must be an integer, got float"),
        ("[paths]\npool_path = role_int.jsonl\n", ["design", "--query", "q"], 1,
         "bad profile line: role must be a string, got int"),
        ("[paths]\npool_path = expertise_null.jsonl\n", ["design", "--query", "q"], 1,
         "bad profile line: expertise must be a string, got NoneType"),
        ("", ["export", "--topology", "n_max_text.json"], 1,
         "bad topology document: n_max must be an integer, got str"),
        ("", ["export", "--topology", "n_max_float.json"], 1,
         "bad topology document: n_max must be an integer, got float"),
        ("", ["design", "--query", "q", "--checkpoint", "w_gcn1_text.json"], 4,
         "malformed checkpoint: w_gcn1[0][0] must be a number, got str"),
        ("", ["design", "--query", "q", "--checkpoint", "w_gcn2_bool.json"], 4,
         "malformed checkpoint: w_gcn2[0][0] must be a number, got bool"),
        ("", ["design", "--query", "q", "--checkpoint", "b_edge_text.json"], 4,
         "malformed checkpoint: b_edge[0][0] must be a number, got str"),
        ("", ["design", "--query", "q", "--checkpoint", "mlp_w1_bool.json"], 4,
         "malformed checkpoint: mlp_w1[0][0] must be a number, got bool"),
        ("", ["design", "--query", "q", "--checkpoint", "version_bool.json"], 4,
         "malformed checkpoint: version must be an integer, got bool"),
        ("", ["export", "--topology", "mask_text.json"], 1,
         "bad topology document: mask[1] must be a number, got str"),
        ("", ["export", "--topology", "mask_bool.json"], 1,
         "bad topology document: mask[0] must be a number, got bool"),
        ("", ["export", "--topology", "weights_null.json"], 1,
         "bad topology document: weights[0][1] must be a number, got NoneType"),
        ("", ["train", "--corpus", "y_text_bool.jsonl"], 1,
         "bad supervision pair line: y[0] must be a number, got str"),
        ("", ["train", "--corpus", "y_null.jsonl"], 1,
         "bad supervision pair line: y[2] must be a number, got NoneType"),
        ("", ["train", "--corpus", "a_gt_bool.jsonl"], 1,
         "bad supervision pair line: a_gt[0][4] must be a number, got bool"),
        ("", ["train", "--corpus", "y_bool_unsorted.jsonl"], 1,
         "bad supervision pair line: y[1] must be a number, got bool"),
        ("", ["collect", "--tasks", "deep_tasks.jsonl"], 1, "bad task line: maximum recursion depth exceeded"),
        ("", ["train", "--corpus", "deep_corpus.jsonl"], 1,
         "bad supervision pair line: maximum recursion depth exceeded"),
        ("[paths]\npool_path = deep_pool.jsonl\n", ["design", "--query", "q"], 1,
         "bad profile line: maximum recursion depth exceeded"),
        ("", ["export", "--topology", "deep_topology.json"], 1,
         "bad topology document: maximum recursion depth exceeded"),
        ("", ["design", "--query", "q", "--checkpoint", "deep_checkpoint.json"], 4,
         "malformed checkpoint: maximum recursion depth exceeded"),
        ("", ["design", "--query", "q", "--checkpoint", "config_key_newline.json"], 4,
         "malformed checkpoint: NetConfig.__init__() got an unexpected keyword argument 'a b'"),
    ],
    ids=[
        "collect-mu-out-of-range", "design-embedding-unreachable", "design-embedding-no-endpoint",
        "run-unknown-agent-backend", "design-missing-pool", "design-out-in-missing-dir",
        "design-unparsable-config-value", "bench-zero-repeats", "run-zero-rounds",
        "design-checkpoint-not-an-object", "config-without-section-header",
        "config-duplicate-option", "collect-task-team-not-integers", "train-score-not-a-number",
        "train-mask-not-numbers", "collect-negative-top-k", "collect-zero-top-k",
        "collect-zero-candidates", "config-default-section", "config-unknown-section",
        "config-unknown-option", "config-parallelism", "config-seed-in-train",
        "train-nan-lr", "train-nan-beta", "train-inf-lambda-s", "train-nan-weight-decay",
        "design-nan-theta", "design-theta-above-one", "run-negative-theta",
        "collect-duplicate-task-ids", "collect-unknown-planted-mode", "collect-orchestrator-zero-rounds",
        "negative-seed", "train-adam-beta2-one", "train-adam-beta1-above-one",
        "train-negative-weight-decay", "train-negative-lambda-s", "design-checkpoint-larger-than-pool",
        "run-checkpoint-larger-than-pool", "bench-checkpoint-larger-than-pool",
        "design-checkpoint-narrower-than-embedder", "train-corpus-larger-than-pool",
        "train-corpus-smaller-than-pool", "collect-planted-team-outside-pool",
        "collect-orchestrator-planted-team-outside-pool", "bench-planted-backend-team-outside-pool",
        "collect-task-id-not-a-string", "collect-answer-not-a-string", "train-task-text-not-a-string",
        "collect-tasks-not-utf8", "run-suite-not-utf8", "bench-suite-not-utf8", "train-corpus-not-utf8",
        "design-pool-not-utf8", "export-topology-not-utf8", "collect-team-a-string",
        "collect-team-float-and-bool", "collect-team-bool", "train-score-a-string", "train-score-a-bool", "design-pool-id-bool",
        "design-pool-id-float", "design-pool-role-int", "design-pool-expertise-null",
        "export-n-max-a-string", "export-n-max-a-float", "design-checkpoint-w-gcn1-a-string",
        "design-checkpoint-w-gcn2-a-bool", "design-checkpoint-b-edge-a-string",
        "design-checkpoint-mlp-w1-a-bool", "design-checkpoint-version-a-bool", "export-mask-a-string",
        "export-mask-a-bool", "export-weights-null", "train-y-a-string-and-bool", "train-y-null",
        "train-a-gt-bool", "train-y-bool-in-another-layout", "collect-tasks-nested-too-deep",
        "train-corpus-nested-too-deep", "design-pool-nested-too-deep", "export-topology-nested-too-deep",
        "design-checkpoint-nested-too-deep", "design-checkpoint-config-key-with-a-line-break",
    ],
)
def test_bad_input_exits_with_table_code_and_one_line(
    workdir, capsys, monkeypatch, ini, argv, code, needle
):
    import commtopo.embed as embed_mod
    from commtopo.errors import EmbeddingUnavailable

    def unreachable(self, text):
        raise EmbeddingUnavailable("connection refused")

    monkeypatch.setattr(embed_mod.HttpBackend, "embed", unreachable)
    make_checkpoint(workdir)
    make_checkpoint(workdir, "d8.json", d=8)
    (workdir / "pool3.jsonl").write_text(
        "".join(json.dumps({"id": i, "role": f"r{i}"}) + "\n" for i in range(3))
    )
    (workdir / "list.json").write_text("[]")
    task = {"task_id": "t", "task_text": "q", "category": "math_reasoning"}
    pair = {**task, "score": 1.0, "y": [1, 1, 0], "a_gt": [[0, 1, 0], [1, 0, 0], [0, 0, 0]]}
    (workdir / "bad_team.jsonl").write_text(json.dumps({**task, "planted_team": ["a"]}))
    (workdir / "duplicate_ids.jsonl").write_text(f"{json.dumps(task)}\n{json.dumps({**task, 'task_text': 'r'})}\n")
    (workdir / "bad_score.jsonl").write_text(json.dumps({**pair, "score": "high"}))
    (workdir / "bad_y.jsonl").write_text(json.dumps({**pair, "y": ["a", 1, 0]}))
    (workdir / "list_id.jsonl").write_text(json.dumps({**task, "task_id": []}))
    (workdir / "list_answer.jsonl").write_text(json.dumps({**task, "expected_answer": ["42"]}))
    a_gt, y = lift_subgraph(Topology.complete(3), [0, 4, 9], 15)
    (workdir / "good.jsonl").write_text(
        write_corpus([SupervisionPair("t", "q", "math_reasoning", a_gt, y, 1.0)])
    )
    a_gt, y = lift_subgraph(Topology.complete(3), [0, 1, 4], 5)
    (workdir / "five_agents.jsonl").write_text(
        write_corpus([SupervisionPair("t", "q", "math_reasoning", a_gt, y, 1.0)])
    )
    good = json.loads((workdir / "good.jsonl").read_text())
    (workdir / "int_text.jsonl").write_text(json.dumps({**good, "task_text": 7}))
    (workdir / "latin.bin").write_bytes(b"\xff\xfe" + json.dumps(task).encode())
    (workdir / "team_text.jsonl").write_text(json.dumps({**task, "planted_team": "12"}))
    (workdir / "team_float_bool.jsonl").write_text(json.dumps({**task, "planted_team": [1.9, True]}))
    (workdir / "team_bool.jsonl").write_text(json.dumps({**task, "planted_team": [1, True]}))
    (workdir / "score_text.jsonl").write_text(json.dumps({**good, "score": "0.5"}))
    (workdir / "score_bool.jsonl").write_text(json.dumps({**good, "score": True}))
    profile = {"id": 0, "role": "r", "expertise": "e"}
    for name, bad in [("id_bool", {"id": False}), ("id_float", {"id": 1.9}), ("role_int", {"role": 5}),
                      ("expertise_null", {"expertise": None})]:
        (workdir / f"{name}.jsonl").write_text(json.dumps({**profile, **bad}))
    topology = json.loads(serialize_topology(induce(*lift_subgraph(Topology.complete(2), [0, 1], 2))))
    (workdir / "n_max_text.json").write_text(json.dumps({**topology, "n_max": "2"}))
    (workdir / "n_max_float.json").write_text(json.dumps({**topology, "n_max": 2.7}))
    (workdir / "mask_text.json").write_text(json.dumps({**topology, "mask": [1, "1"]}))
    (workdir / "mask_bool.json").write_text(json.dumps({**topology, "mask": [True, 1]}))
    (workdir / "weights_null.json").write_text(json.dumps({**topology, "weights": [[0, None], [1, 0]]}))
    checkpoint = (workdir / "checkpoint.json").read_text()
    for name, old, new in [("w_gcn1_text", '"w_gcn1": [[', '"w_gcn1": [["1", '),
                           ("w_gcn2_bool", '"w_gcn2": [[', '"w_gcn2": [[true, '),
                           ("b_edge_text", '"b_edge": [[', '"b_edge": [["1", '),
                           ("mlp_w1_bool", '"mlp_w1": [[', '"mlp_w1": [[true, '),
                           ("version_bool", '"version": 1', '"version": true')]:
        (workdir / f"{name}.json").write_text(checkpoint.replace(old, new, 1))
    # good keeps the writer's key order, so these lines take the reader's fast path
    (workdir / "y_text_bool.jsonl").write_text(json.dumps({**good, "y": ["1", True, *good["y"][2:]]}))
    (workdir / "y_null.jsonl").write_text(json.dumps({**good, "y": [1, 0, None, *good["y"][3:]]}))
    a_gt_bool = copy.deepcopy(good["a_gt"])
    a_gt_bool[0][4] = True
    (workdir / "a_gt_bool.jsonl").write_text(json.dumps({**good, "a_gt": a_gt_bool}))
    (workdir / "y_bool_unsorted.jsonl").write_text(
        json.dumps({**good, "y": [1, True, *good["y"][2:]]}, sort_keys=True, separators=(",", ":"))
    )
    # a list nested deeper than any JSON decoder's recursion limit, in each kind of input file
    deep = "[" * 100_000 + "]" * 100_000
    (workdir / "deep_tasks.jsonl").write_text(json.dumps(task)[:-1] + f', "planted_team": {deep}}}')
    good_line = (workdir / "good.jsonl").read_text()
    (workdir / "deep_corpus.jsonl").write_text(good_line[: good_line.rindex('"y": ')] + f'"y": {deep}}}')
    (workdir / "deep_pool.jsonl").write_text(f'{{"id": 0, "role": {deep}}}')
    (workdir / "deep_topology.json").write_text(f'{{"n_max": 2, "mask": {deep}, "weights": [[0, 1], [1, 0]]}}')
    (workdir / "deep_checkpoint.json").write_text(f'{{"version": 1, "config": {{}}, "tensors": {{"w_gcn1": {deep}}}}}')
    (workdir / "config_key_newline.json").write_text(checkpoint.replace('"config": {', '"config": {"a\\nb": 1, ', 1))
    write_suite(workdir / "suite.jsonl", n=2)
    write_suite(workdir / "team99.jsonl", n=3, team=(99,))
    (workdir / "cfg.ini").write_text(ini)
    assert main(["--config", "cfg.ini", *argv]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and needle in err[0]


# Every option, its default and the values its field declares ``within``.
OPTIONS = [
    (section, name, getattr(target, name),
     next(f.metadata.get("within") for f in fields(target) if f.name == name))
    for section, (target, names) in options(AppConfig()).items()
    for name in names
]
# every option but the str ones that take any text: paths, endpoints, the model name and the key
DECLARED = [
    row for row in OPTIONS
    if not isinstance(row[2], str)
    or (row[1] not in ("model", "api_key") and not row[1].endswith(("_path", "_endpoint")))
]


def just_outside(current, allowed) -> list[str]:
    """INI values that ``allowed`` rejects: an unlisted choice, or for an interval
    the nearest value past each finite end, and NaN and +-inf for a float."""
    if isinstance(allowed, tuple):
        return ["unlisted"]
    lo, hi = (float(end) for end in allowed[1:-1].split(","))
    is_int = isinstance(current, int)  # None marks an optional float
    values = [] if is_int else ["nan", "inf", "-inf"]
    for end, closed, away in ((lo, allowed[0] == "[", -1), (hi, allowed[-1] == "]", 1)):
        if np.isinf(end):
            continue
        if not closed:
            past = end
        else:
            past = end + away if is_int else np.nextafter(end, away * np.inf)
        values.append(str(int(past)) if is_int else repr(float(past)))
    return values


@pytest.mark.parametrize(
    "section, name, current, allowed", DECLARED, ids=[f"{row[0]}.{row[1]}" for row in DECLARED]
)
def test_every_value_outside_an_options_declaration_exits_1_naming_it(
    workdir, capsys, section, name, current, allowed
):
    if isinstance(current, str):
        assert isinstance(allowed, tuple), f"[{section}] {name} declares no choices"
    else:
        assert isinstance(allowed, str), f"[{section}] {name} declares no interval"
    # export reads no option, so only the check of the values can fail it
    topo = induce(*lift_subgraph(Topology.complete(3), [0, 1, 2], 3))
    (workdir / "t.json").write_text(serialize_topology(topo))
    assert main(["export", "--topology", "t.json"]) == 0
    for value in just_outside(current, allowed):
        (workdir / "cfg.ini").write_text(f"[{section}]\n{name} = {value}\n")
        capsys.readouterr()
        assert main(["--config", "cfg.ini", "export", "--topology", "t.json"]) == 1, value
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {name} must be "), (value, err)


# (argv, the flag under test, section, option its dest names, file value, flag value)
FLAG_OVERRIDES = [
    (["--seed", "7", "export", "--topology", "t.json"], "--seed", "run", "seed", 3, 7),
    (["collect", "--tasks", "t", "--budget", "9"], "--budget", "collector", "budget", 5, 9),
    (["collect", "--tasks", "t", "--sigma", "0.5"], "--sigma", "collector", "sigma", 2.5, 0.5),
    (["collect", "--tasks", "t", "--mu", "4"], "--mu", "collector", "mu", 6.0, 4.0),
    (["train", "--corpus", "f.jsonl"], "--corpus", "paths", "corpus_path", "c.jsonl", "f.jsonl"),
    (["train", "--checkpoint", "f.json"], "--checkpoint", "paths", "checkpoint_path", "c.json",
     "f.json"),
    (["train", "--log", "f.csv"], "--log", "paths", "train_log_path", "c.csv", "f.csv"),
    (["train", "--beta", "2.5"], "--beta", "train", "beta", 0.5, 2.5),
    (["train", "--epochs", "4"], "--epochs", "train", "epochs", 9, 4),
    (["design", "--query", "q", "--checkpoint", "f.json"], "--checkpoint", "paths",
     "checkpoint_path", "c.json", "f.json"),
    (["design", "--query", "q", "--theta", "0.25"], "--theta", "run", "theta", 0.75, 0.25),
    (["run", "--query", "q", "--checkpoint", "f.json"], "--checkpoint", "paths",
     "checkpoint_path", "c.json", "f.json"),
    (["run", "--query", "q", "--theta", "0.25"], "--theta", "run", "theta", 0.75, 0.25),
    (["run", "--query", "q", "--k", "2"], "--k", "run", "k_rounds", 5, 2),
    (["run", "--query", "q", "--transcript", "f.json"], "--transcript", "paths",
     "transcript_path", "c.json", "f.json"),
    (["bench", "--suite", "s", "--checkpoint", "f.json"], "--checkpoint", "paths",
     "checkpoint_path", "c.json", "f.json"),
]


@pytest.mark.parametrize(
    "argv, flag, section, name, in_file, from_flag",
    FLAG_OVERRIDES,
    ids=[" ".join(row[0]) for row in FLAG_OVERRIDES],
)
def test_flag_overrides_config_file(tmp_path, argv, flag, section, name, in_file, from_flag):
    ini = tmp_path / "cfg.ini"
    ini.write_text(f"[{section}]\n{name} = {in_file}\n")
    parser = _build_parser()

    def value(args):
        cfg = _config(parser.parse_args(["--config", str(ini), *args]))
        return getattr(options(cfg)[section][0], name)

    at = argv.index(flag)
    assert value(argv[:at] + argv[at + 2:]) == in_file
    assert value(argv) == from_flag


# Valid inputs of collect and train, for the mutation strategy below to break.
FUZZ_TASKS = [
    {"task_id": f"t{i}", "task_text": f"question number {i}", "category": "math_reasoning",
     "expected_answer": "42", "check": "exact", "planted_team": [1, 2, 3]}
    for i in range(3)
]
FUZZ_CORPUS = [
    json.loads(line)
    for line in write_corpus(
        SupervisionPair(f"t{i}", f"question number {i}", "math_reasoning",
                        *lift_subgraph(Topology.complete(3), members, 15), 1.0)
        for i, members in enumerate([(0, 4, 9), (1, 2, 3)])
    ).splitlines()
]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 20) | st.floats() | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids, max_size=2),
    max_leaves=4,
)


@st.composite
def mutated(draw, lines):
    """``lines`` with one defect at a drawn depth: a key or element dropped, a list
    grown, or a value replaced by another JSON value, a NaN or an id outside the pool."""
    lines = copy.deepcopy(lines)
    node, key = lines, draw(st.integers(0, len(lines) - 1))
    while isinstance(node[key], (dict, list)) and node[key] and draw(st.booleans()):
        node = node[key]
        key = draw(st.sampled_from(sorted(node)) if isinstance(node, dict) else st.integers(0, len(node) - 1))
    edit = draw(st.sampled_from(["drop", "grow", "retype", "nan", "id"]))
    if edit == "drop":
        del node[key]
    elif edit == "grow" and isinstance(node[key], list):
        node[key].append(copy.deepcopy(node[key][-1]) if node[key] else 0)
    elif edit == "nan":
        node[key] = float("nan")
    elif edit == "id":
        node[key] = draw(st.sampled_from([-1, 15, 99, 0.5, 2]))
    else:
        node[key] = draw(JSON_VALUES)
    return lines


def exits_in_one_line(argv, name, lines):
    """Run ``main`` on ``lines`` written to ``name``; a failure must be one ``error:`` line."""
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, name).write_text("".join(json.dumps(line) + "\n" for line in lines))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([arg.replace("{dir}", tmp) for arg in argv])
    errors = err.getvalue().splitlines()
    if code == 0:
        assert not any(line.startswith("error:") for line in errors), errors
    else:
        assert code in {c for _, c in EXIT_CODES}, code
        assert len(errors) == 1 and errors[0].startswith("error:"), errors


@settings(max_examples=150, deadline=None)
@given(lines=mutated(FUZZ_TASKS))
def test_a_mutated_tasks_file_fails_collect_in_one_line(lines):
    argv = ["collect", "--tasks", "{dir}/tasks.jsonl", "--out", "{dir}/corpus.jsonl", "--budget", "30"]
    exits_in_one_line(argv, "tasks.jsonl", lines)


@settings(max_examples=150, deadline=None)
@given(lines=mutated(FUZZ_CORPUS))
def test_a_mutated_corpus_fails_train_in_one_line(lines):
    argv = ["train", "--corpus", "{dir}/corpus.jsonl", "--checkpoint", "{dir}/c.json",
            "--log", "{dir}/log.csv", "--epochs", "1"]
    exits_in_one_line(argv, "corpus.jsonl", lines)


# Valid pool and topology files for the mutation strategy, and bytes that are not UTF-8.
FUZZ_POOL = [
    json.loads(line)
    for line in resources.files("commtopo.data").joinpath("default_pool.jsonl").read_text().splitlines()
]
FUZZ_TOPOLOGY = [json.loads(serialize_topology(induce(*lift_subgraph(Topology.complete(3), [0, 4, 9], 15))))]
# a checkpoint that fits the shipped pool and embedder, with narrow hidden layers to keep it small
FUZZ_NET = NetConfig(d=HashingBackend().dim, h=4, h_m=2, n_max=15)
FUZZ_CHECKPOINT = [json.loads(save_checkpoint(PruneNetParams.init(FUZZ_NET, np.random.default_rng(0)), FUZZ_NET))]
NOT_UTF8 = [b"\xff\xfe", b"\x80", b"\xc3(", b"\xed\xa0\x80"]


@pytest.mark.parametrize("bad", NOT_UTF8)
@pytest.mark.parametrize(
    "name, argv, code",
    [
        ("topology.json", ["export", "--topology", "topology.json"], 1),
        ("pool.jsonl", ["--config", "cfg.ini", "design", "--query", "q"], 1),
        ("checkpoint.json", ["design", "--query", "q"], EXIT_CHECKPOINT),
    ],
    ids=["topology", "pool", "checkpoint"],
)
def test_bytes_that_are_not_utf8_raise_the_parsers_error(workdir, capsys, name, argv, code, bad):
    # the CLI decodes every input file, so the parsers only ever see text
    for file, lines in [("topology.json", FUZZ_TOPOLOGY), ("pool.jsonl", FUZZ_POOL),
                        ("checkpoint.json", FUZZ_CHECKPOINT)]:
        (workdir / file).write_text("".join(json.dumps(line) + "\n" for line in lines))
    (workdir / "cfg.ini").write_text("[paths]\npool_path = pool.jsonl\n")
    (workdir / name).write_bytes(bad + (workdir / name).read_bytes())
    assert main(argv) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and f"{name} is not UTF-8: " in err[0], err


def test_no_library_function_takes_or_returns_bytes():
    # files are read and written as bytes by the CLI alone; every parser takes text
    package = Path(commtopo.__file__).parent
    named = sorted(
        node.name
        for path in package.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for annotation in [node.returns, *(a.annotation for a in ast.walk(node.args) if isinstance(a, ast.arg))]
        if annotation is not None and re.search(r"\bbytes\b", ast.unparse(annotation))
    )
    assert named == [], named


@pytest.mark.parametrize("encoding", ["utf-16", "utf-32", "utf-8-sig"])
def test_a_checkpoint_that_is_not_plain_utf8_fails_design_run_and_bench_in_one_line(workdir, capsys, encoding):
    # UTF-16 and UTF-32 fail decoding as every other input file does; a BOM fails the JSON parse
    path = make_checkpoint(workdir)
    path.write_bytes(path.read_text().encode(encoding))
    prefix = (
        "malformed checkpoint: Unexpected UTF-8 BOM" if encoding == "utf-8-sig"
        else "checkpoint checkpoint.json is not UTF-8: "
    )
    write_suite(workdir / "suite.jsonl", n=1)
    capsys.readouterr()
    for argv in (["design", "--query", "q"], ["run", "--query", "q"],
                 ["bench", "--suite", "suite.jsonl", "--methods", "designed", "--repeats", "1"]):
        assert main(argv) == EXIT_CHECKPOINT, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: " + prefix), err


@st.composite
def mutated_bytes(draw, lines):
    """The JSON lines of ``mutated(lines)``, or of ``lines`` with bytes that
    are not UTF-8 put in at a drawn offset."""
    if draw(st.booleans()):
        return "".join(json.dumps(line) + "\n" for line in draw(mutated(lines))).encode()
    data = "".join(json.dumps(line) + "\n" for line in lines).encode()
    at = draw(st.integers(0, len(data)))
    return data[:at] + draw(st.sampled_from(NOT_UTF8)) + data[at:]


def main_exits_in_one_line(argv) -> int:
    """Run ``main`` and return its code; a failure must be one ``error:`` line with an ``EXIT_CODES`` code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    errors = err.getvalue().splitlines()
    if code == 0:
        assert not any(line.startswith("error:") for line in errors), errors
    else:
        assert code in {c for _, c in EXIT_CODES}, code
        assert len(errors) == 1 and errors[0].startswith("error:"), errors
    return code


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A checkpoint that fits the shipped pool, and a config whose pool is ``pool.jsonl`` beside it."""
    path = tmp_path_factory.mktemp("fuzz")
    make_checkpoint(path)
    (path / "cfg.ini").write_text(f"[paths]\npool_path = {path / 'pool.jsonl'}\n")
    return path


@settings(max_examples=100, deadline=None)
@given(data=mutated_bytes(FUZZ_POOL))
def test_a_mutated_pool_fails_design_in_one_line(fuzz_dir, data):
    (fuzz_dir / "pool.jsonl").write_bytes(data)
    main_exits_in_one_line(["--config", str(fuzz_dir / "cfg.ini"), "design", "--query", "q",
                            "--checkpoint", str(fuzz_dir / "checkpoint.json")])


@settings(max_examples=150, deadline=None)
@given(data=mutated_bytes(FUZZ_TOPOLOGY))
def test_a_mutated_topology_fails_export_in_one_line(fuzz_dir, data):
    (fuzz_dir / "topology.json").write_bytes(data)
    main_exits_in_one_line(["export", "--topology", str(fuzz_dir / "topology.json")])


@settings(max_examples=100, deadline=None)
@given(data=mutated_bytes(FUZZ_CHECKPOINT))
def test_a_mutated_checkpoint_fails_design_in_one_line(fuzz_dir, data):
    (fuzz_dir / "mutated.json").write_bytes(data)
    code = main_exits_in_one_line(["design", "--query", "q", "--checkpoint", str(fuzz_dir / "mutated.json")])
    assert code in (0, EXIT_CHECKPOINT)
    if code == 0:  # then the version is the integer 1 and every tensor element a number
        obj = json.loads(data)
        assert type(obj["version"]) is int
        for tensor in obj["tensors"].values():
            assert all(type(v) in (int, float) for v in np.array(tensor, dtype=object).ravel())


# A valid config for every command, with no option that sizes a run: those come from flags.
FUZZ_INI = [
    "[embedding]", "embed_backend = hash",
    "[agents]", "agent_backend = echo", "evaluator = planted", "planted_mode = jaccard", "model = m",
    "[run]", "theta = 0.5", "seed = 3",
    "[collector]", "sigma = 2.0", "mu = 4.0", "top_k = 1", "candidates_per_task = 20",
    "[train]", "lr = 0.001", "batch = 4", "beta = 1.0", "avg_tail = 0.25",
]
INI_COMMANDS = {
    "collect": ["collect", "--tasks", "{dir}/suite.jsonl", "--out", "{dir}/mined.jsonl", "--budget", "30"],
    "train": ["train", "--corpus", "{dir}/corpus.jsonl", "--checkpoint", "{dir}/trained.json",
              "--log", "{dir}/log.csv", "--epochs", "1"],
    "design": ["design", "--query", "q", "--checkpoint", "{dir}/checkpoint.json"],
    "run": ["run", "--query", "q", "--checkpoint", "{dir}/checkpoint.json", "--k", "1",
            "--transcript", "{dir}/transcript.json"],
    "bench": ["bench", "--suite", "{dir}/suite.jsonl", "--methods", "designed,star", "--repeats", "1",
              "--checkpoint", "{dir}/checkpoint.json", "--out-prefix", "{dir}/bench"],
    "export": ["export", "--topology", "{dir}/topology.json"],
}


@st.composite
def mutated_ini(draw):
    """``FUZZ_INI`` with a line dropped or its value (a header: the whole line)
    replaced by drawn text, or with bytes that are not UTF-8 put in at a drawn offset."""
    lines = list(FUZZ_INI)
    at = draw(st.integers(0, len(lines) - 1))
    edit = draw(st.sampled_from(["drop", "retype", "not-utf8"]))
    if edit == "drop":
        del lines[at]
    elif edit == "retype":
        lines[at] = lines[at].split("=")[0] + "= " * ("=" in lines[at]) + draw(st.text(max_size=4))
    data = "".join(line + "\n" for line in lines).encode()
    if edit == "not-utf8":
        offset = draw(st.integers(0, len(data)))
        data = data[:offset] + draw(st.sampled_from(NOT_UTF8)) + data[offset:]
    return data


@pytest.fixture(scope="module")
def ini_dir(tmp_path_factory):
    """Valid inputs for every command of ``INI_COMMANDS``."""
    path = tmp_path_factory.mktemp("ini")
    write_suite(path / "suite.jsonl", n=2)
    (path / "corpus.jsonl").write_text("".join(json.dumps(line) + "\n" for line in FUZZ_CORPUS))
    make_checkpoint(path)
    (path / "topology.json").write_text(json.dumps(FUZZ_TOPOLOGY[0]))
    return path


@pytest.mark.parametrize("command", sorted(INI_COMMANDS))
@settings(max_examples=25, deadline=None)
@given(data=mutated_ini())
def test_a_mutated_config_fails_every_command_in_one_line(ini_dir, command, data):
    (ini_dir / "cfg.ini").write_bytes(data)
    argv = [arg.replace("{dir}", str(ini_dir)) for arg in INI_COMMANDS[command]]
    main_exits_in_one_line(["--config", str(ini_dir / "cfg.ini"), *argv])
