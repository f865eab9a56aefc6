import json

import numpy as np
import pytest

from commtopo.backends import (
    BackendSet,
    EchoBackend,
    ScriptedBackend,
    StaticBackend,
)
from commtopo.collector import TaskSpec
from commtopo.errors import DegenerateTopology, RunAborted
from commtopo.graphs import CommTopology, NodeMask, Topology, WeightMatrix
from commtopo.orchestrator import (
    DialogueEntry,
    count_tokens,
    run_topology,
    visible_history,
)
from commtopo.pool import load_default_pool, render_user_prompt

N = 15


def topo(members, weights=None):
    mask = np.zeros(N)
    mask[list(members)] = 1.0
    w = np.zeros((N, N))
    if weights is None:
        for a in members:
            for b in members:
                if a != b:
                    w[a, b] = 1.0
    else:
        for (a, b), v in weights.items():
            w[a, b] = v
    return CommTopology(NodeMask(N, mask), WeightMatrix(N, w))


def task(tid="t0"):
    return TaskSpec(tid, f"question {tid}", "math_reasoning", "42", "exact")


def echo_backends():
    return BackendSet(default=EchoBackend(), decision=EchoBackend())


class TestRunTopology:
    def test_transcript_length_rounds_times_agents_plus_decision(self):
        pool = load_default_pool()
        for k, members in [(3, [2, 5, 9]), (1, [0, 1]), (2, [3, 4, 6, 7])]:
            result = run_topology(topo(members), task(), pool, echo_backends(), k=k)
            assert len(result.transcript) == k * len(members) + 1

    def test_replay_is_byte_identical(self):
        pool = load_default_pool()
        runs = [
            run_topology(
                topo([1, 4, 8]),
                task(),
                pool,
                echo_backends(),
                k=3,
                rng=np.random.default_rng(7),
            ).to_json()
            for _ in range(2)
        ]
        assert runs[0].encode() == runs[1].encode()

    def test_agents_execute_in_ascending_id_order(self):
        pool = load_default_pool()
        result = run_topology(topo([9, 2, 5]), task(), pool, echo_backends(), k=2)
        round1 = [e.agent_id for e in result.transcript if e.round == 1 and e.agent_id >= 0]
        assert round1 == [2, 5, 9]

    def test_final_entry_is_decision(self):
        pool = load_default_pool()
        result = run_topology(topo([0, 1]), task(), pool, echo_backends())
        assert result.transcript[-1].agent_id == -1
        assert result.transcript[-1].role == "Decision Maker"
        assert result.answer == result.transcript[-1].output

    def test_masked_agents_never_appear(self):
        pool = load_default_pool()
        members = [2, 5, 9]
        result = run_topology(topo(members), task(), pool, echo_backends(), k=3)
        spoke = {e.agent_id for e in result.transcript if e.agent_id >= 0}
        assert spoke == set(members)
        assert set(result.per_agent_tokens) == set(members)

    def test_single_active_agent_rejected(self):
        pool = load_default_pool()
        with pytest.raises(DegenerateTopology):
            run_topology(topo([3]), task(), pool, echo_backends())

    def test_total_tokens_is_sum_over_entries(self):
        pool = load_default_pool()
        result = run_topology(topo([0, 1, 2]), task(), pool, echo_backends(), k=2)
        assert result.total_tokens == sum(e.tokens() for e in result.transcript)
        assert result.total_tokens > 0

    def test_backend_reported_usage_wins_over_fallback(self):
        pool = load_default_pool()
        backends = BackendSet(
            default=StaticBackend("fine", prompt_tokens=100, completion_tokens=7),
            decision=StaticBackend("done", prompt_tokens=3, completion_tokens=2),
        )
        result = run_topology(topo([0, 1]), task(), pool, backends, k=1)
        agent_entries = [e for e in result.transcript if e.agent_id >= 0]
        assert all(e.prompt_tokens == 100 and e.completion_tokens == 7 for e in agent_entries)
        assert result.total_tokens == 2 * 107 + 5

    def test_sparser_graph_never_costs_more_tokens(self):
        # with echo agents, fewer visible entries means shorter prompts
        pool = load_default_pool()
        members = [1, 4, 8, 12]
        dense = run_topology(topo(members), task(), pool, echo_backends(), k=3)
        sparse_w = {(1, 4): 1.0, (4, 8): 1.0, (8, 12): 1.0}
        sparse = run_topology(topo(members, sparse_w), task(), pool, echo_backends(), k=3)
        assert sparse.total_tokens <= dense.total_tokens

    def test_abort_carries_partial_transcript(self):
        pool = load_default_pool()
        backends = BackendSet(
            default=ScriptedBackend(["a", "b", "c"]), decision=EchoBackend()
        )
        with pytest.raises(RunAborted) as info:
            run_topology(topo([0, 1]), task(), pool, backends, k=2)
        assert len(info.value.transcript) == 3

    def test_result_json_is_parseable_and_sorted(self):
        pool = load_default_pool()
        result = run_topology(topo([0, 1]), task(), pool, echo_backends(), k=1)
        obj = json.loads(result.to_json())
        assert set(obj) == {
            "answer",
            "total_tokens",
            "per_agent_tokens",
            "transcript",
            "topology",
        }
        assert len(obj["transcript"]) == 3


class TestVisibleHistory:
    def entry(self, agent_id, output, rnd=1):
        return DialogueEntry(f"E{agent_id}{len(output)}", rnd, agent_id, "r", output, 1, 1)

    def test_only_in_neighbors_visible(self):
        adj = topo([0, 1, 2], {(0, 2): 1.0}).weights
        binary = Topology(N, np.ceil(adj.w))
        hist = [self.entry(0, "from0"), self.entry(1, "from1")]
        seen = visible_history(hist, 2, binary, adj)
        assert [e.output for e in seen] == ["from0"]

    def test_never_sees_own_output(self):
        adj = topo([0, 1]).weights
        binary = Topology(N, np.ceil(adj.w))
        hist = [self.entry(1, "mine"), self.entry(0, "theirs")]
        seen = visible_history(hist, 1, binary, adj)
        assert [e.output for e in seen] == ["theirs"]

    def test_ordered_by_weight_then_arrival(self):
        w = {(0, 3): 0.4, (1, 3): 0.9, (2, 3): 0.9}
        weights = topo([0, 1, 2, 3], w).weights
        binary = Topology(N, (weights.w >= 0.3).astype(float))
        hist = [self.entry(0, "low"), self.entry(1, "hi-first"), self.entry(2, "hi-second")]
        seen = visible_history(hist, 3, binary, weights)
        assert [e.output for e in seen] == ["hi-first", "hi-second", "low"]

    def test_decision_entries_invisible_to_agents(self):
        adj = topo([0, 1]).weights
        binary = Topology(N, np.ceil(adj.w))
        hist = [self.entry(-1, "verdict")]
        assert visible_history(hist, 0, binary, adj) == []


class TestDecisionAggregate:
    def test_reads_full_transcript(self):
        captured = {}

        class Capture:
            def complete(self, system, user):
                captured["user"] = user
                return "42", None, None

        backends = BackendSet(default=EchoBackend(), decision=Capture())
        result = run_topology(topo([0, 1]), task(), load_default_pool(), backends, k=2)
        assert result.answer == "42"
        dialogue = result.transcript[:-1]
        assert len(dialogue) == 4
        assert captured["user"] == render_user_prompt([e.as_history_item() for e in dialogue])


class TestCountTokens:
    def test_whitespace_rule(self):
        assert count_tokens("one two  three\nfour") == 4
        assert count_tokens("") == 0
        assert count_tokens("   ") == 0
