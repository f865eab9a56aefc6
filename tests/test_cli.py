import json

import numpy as np
import pytest

from commtopo.cli import _build_parser, _config, main
from commtopo.collector import TaskSpec, write_tasks
from commtopo.config import options
from commtopo.graphs import (
    SupervisionPair,
    Topology,
    lift_subgraph,
    parse_topology,
    read_corpus,
    write_corpus,
)


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


def make_checkpoint(workdir, name="checkpoint.json"):
    from commtopo.embed import HashingBackend
    from commtopo.pool import load_default_pool
    from commtopo.prunenet import NetConfig, PruneNetParams, save_checkpoint

    pool = load_default_pool()
    net = NetConfig(d=HashingBackend().dim, n_max=pool.n_max)
    params = PruneNetParams.init(net, np.random.default_rng(0))
    path = workdir / name
    path.write_bytes(save_checkpoint(params, net))
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
        topo = parse_topology(out.encode())
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
        topo = parse_topology(capsys.readouterr().out.encode())
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


EMBED_HTTP = "[embedding]\nembed_backend = http\nembed_endpoint = http://localhost:1/v1\n"


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
        ("", ["run", "--query", "q", "--k", "0"], 1, "k must be"),
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
        ("[run]\ntheta = nan\n", ["design", "--query", "q"], 1, "theta must lie in [0, 1]"),
        ("", ["design", "--query", "q", "--theta", "1.5"], 1, "theta must lie in [0, 1]"),
        ("", ["run", "--query", "q", "--theta", "-0.1"], 1, "theta must lie in [0, 1]"),
        ("", ["collect", "--tasks", "duplicate_ids.jsonl"], 1, "duplicate task id 't'"),
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
        "collect-duplicate-task-ids",
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
    (workdir / "list.json").write_text("[]")
    task = {"task_id": "t", "task_text": "q", "category": "math_reasoning"}
    pair = {**task, "score": 1.0, "y": [1, 1, 0], "a_gt": [[0, 1, 0], [1, 0, 0], [0, 0, 0]]}
    (workdir / "bad_team.jsonl").write_text(json.dumps({**task, "planted_team": ["a"]}))
    (workdir / "duplicate_ids.jsonl").write_text(f"{json.dumps(task)}\n{json.dumps({**task, 'task_text': 'r'})}\n")
    (workdir / "bad_score.jsonl").write_text(json.dumps({**pair, "score": "high"}))
    (workdir / "bad_y.jsonl").write_text(json.dumps({**pair, "y": ["a", 1, 0]}))
    a_gt, y = lift_subgraph(Topology.complete(3), [0, 4, 9], 15)
    (workdir / "good.jsonl").write_text(
        write_corpus([SupervisionPair("t", "q", "math_reasoning", a_gt, y, 1.0)])
    )
    write_suite(workdir / "suite.jsonl", n=2)
    (workdir / "cfg.ini").write_text(ini)
    assert main(["--config", "cfg.ini", *argv]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and needle in err[0]


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
