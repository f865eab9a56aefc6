import json

import numpy as np
import pytest

from commtopo.cli import main
from commtopo.collector import TaskSpec, write_tasks
from commtopo.graphs import parse_topology, read_corpus


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
