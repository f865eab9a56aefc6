import importlib
import itertools
import json
import string
import threading
import time
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from commtopo.backends import MAX_IN_FLIGHT, BackendSet, EchoBackend
from commtopo.collector import TaskSpec
from commtopo.bench import make_static
from commtopo.errors import BackendError, RunAborted, ValidationError
from commtopo.graphs import CommTopology, NodeMask, Topology, WeightMatrix, binarize
from commtopo.orchestrator import (
    DECISION_PROFILE,
    DialogueEntry,
    RunResult,
    _new_tags,
    _waves,
    count_tokens,
    run_topology,
    visible_history,
)
from commtopo import orchestrator
from commtopo.pool import load_default_pool, load_pool, render_system_prompt, render_user_prompt
from doubles import ScriptedBackend, StaticBackend

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
        with pytest.raises(ValidationError, match="run needs at least 2 active agents"):
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


def _new_tag(rng):
    """The per-character tag draw the one-array draw replaced, kept as the reference."""
    return "".join(rng.choice(list(string.ascii_uppercase + string.digits)) for _ in range(4))


class TestTags:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 60))
    @settings(max_examples=100, deadline=None)
    def test_one_array_draw_equals_per_character_draws(self, seed, n):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert _new_tags(got_rng, n) == [_new_tag(want_rng) for _ in range(n)]
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def sequential_run(t, task, pool, backends, k=3, theta=0.5, rng=None):
    """The one-call-at-a-time loop the wave schedule replaced, kept as the reference."""
    active = t.mask.active_ids()
    rng = rng if rng is not None else np.random.default_rng(0)
    adj = binarize(t.weights, theta)
    transcript = []

    def record(agent_id, role, rnd, system, user, backend):
        try:
            output, p_tok, c_tok = backend.complete(system, user)
        except BackendError as exc:
            raise RunAborted(
                f"run aborted: agent {agent_id} failed in round {rnd}: {exc}", transcript
            ) from exc
        if p_tok is None:
            p_tok = count_tokens(system) + count_tokens(user)
        if c_tok is None:
            c_tok = count_tokens(output)
        entry = DialogueEntry(_new_tag(rng), rnd, agent_id, role, output, p_tok, c_tok)
        transcript.append(entry)
        return entry

    for rnd in range(1, k + 1):
        for agent_id in active:
            profile = pool[agent_id]
            seen = visible_history(transcript, agent_id, adj, t.weights)
            system = render_system_prompt(profile, task.task_text)
            user = render_user_prompt([e.as_history_item() for e in seen])
            record(agent_id, profile.role, rnd, system, user, backends.default)
    system = render_system_prompt(DECISION_PROFILE, task.task_text)
    user = render_user_prompt([e.as_history_item() for e in transcript])
    decision = record(-1, DECISION_PROFILE.role, k, system, user, backends.decision)
    per_agent = {}
    for e in transcript[:-1]:
        per_agent[e.agent_id] = per_agent.get(e.agent_id, 0) + e.tokens()
    return RunResult(decision.output, tuple(transcript), sum(per_agent.values()) + decision.tokens(), per_agent, t)


class FailingEcho(EchoBackend):
    """Pure: fails on every prompt whose checksum falls in 1/`every` of the range."""

    def __init__(self, every):
        self.every = every

    def complete(self, system, user):
        if self.every and zlib.crc32((system + user).encode()) % self.every == 0:
            raise BackendError("refused")
        return super().complete(system, user)


def outcome(run, *args, **kwargs):
    try:
        return run(*args, **kwargs).to_json()
    except RunAborted as exc:
        return str(exc), [e.as_history_item() for e in exc.transcript]


def refusing(roles):
    """Echo agents, except that an agent whose role is in `roles` fails."""

    class Backend(EchoBackend):
        def complete(self, system, user):
            if any(role in system for role in roles):
                raise BackendError("refused")
            return super().complete(system, user)

    return BackendSet(default=Backend(), decision=EchoBackend())


class TestWaveSchedule:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_equals_the_sequential_run(self, data):
        members = data.draw(st.lists(st.integers(0, N - 1), min_size=2, max_size=N, unique=True))
        w = np.zeros((N, N))
        for a in members:
            for b in members:
                if a != b:
                    w[a, b] = data.draw(st.sampled_from([0.0, 0.0, 0.3, 0.5, 0.8, 1.0]))
        t = topo(members, {(a, b): w[a, b] for a in members for b in members if a != b})
        theta = data.draw(st.sampled_from([0.25, 0.5, 0.9]))
        k = data.draw(st.integers(1, 3))
        every = data.draw(st.sampled_from([0, 7, 40]))
        seed = data.draw(st.integers(0, 2**16))
        backends = BackendSet(default=FailingEcho(every), decision=FailingEcho(every))
        args = (t, task(), load_default_pool(), backends)
        kwargs = dict(k=k, theta=theta)
        got = outcome(run_topology, *args, rng=np.random.default_rng(seed), **kwargs)
        want = outcome(sequential_run, *args, rng=np.random.default_rng(seed), **kwargs)
        assert got == want

    def test_star_leaves_are_all_in_flight_at_once(self):
        pool = load_default_pool()
        hub_role = pool[0].role
        barrier = threading.Barrier(N - 1, timeout=5)
        lock = threading.Lock()
        in_flight = [0, 0]  # now, peak

        class Backend(EchoBackend):
            def complete(self, system, user):
                if hub_role not in system:
                    with lock:
                        in_flight[0] += 1
                        in_flight[1] = max(in_flight)
                    barrier.wait()
                    with lock:
                        in_flight[0] -= 1
                return super().complete(system, user)

        threads = threading.active_count()
        t = make_static("star", list(range(N)), N)
        backends = BackendSet(default=Backend(), decision=EchoBackend())
        result = run_topology(t, task(), pool, backends, k=2)
        assert in_flight == [0, N - 1]
        assert len(result.transcript) == 2 * N + 1
        assert threading.active_count() == threads

    def test_a_wave_wider_than_the_bound_keeps_it(self):
        # a star over 20 agents has a wave of 19 leaves; each leaf call holds until
        # MAX_IN_FLIGHT calls are in flight, and a while longer, so a call past the bound is counted
        n = 20
        pool = load_pool("".join(json.dumps({"id": i, "role": f"agent-{i:02d}"}) + "\n" for i in range(n)))
        hub_role = pool[0].role
        lock = threading.Lock()
        full = threading.Event()
        in_flight = [0, 0]  # now, peak

        class Counting(EchoBackend):
            def complete(self, system, user):
                with lock:
                    in_flight[0] += 1
                    in_flight[1] = max(in_flight)
                    if in_flight[0] >= MAX_IN_FLIGHT:
                        full.set()
                if hub_role not in system:
                    full.wait(timeout=5)
                    time.sleep(0.05)
                with lock:
                    in_flight[0] -= 1
                return super().complete(system, user)

        t = make_static("star", list(range(n)), n)
        got = run_topology(t, task(), pool, BackendSet(Counting(), Counting()), k=1, rng=np.random.default_rng(4))
        want = sequential_run(t, task(), pool, echo_backends(), k=1, rng=np.random.default_rng(4))
        assert got.to_json() == want.to_json()
        assert in_flight == [0, MAX_IN_FLIGHT]

    @pytest.mark.parametrize("shape", ["complete", "chain"])
    def test_one_agent_waves_stay_on_the_calling_thread(self, shape):
        callers = set()

        class Recording(EchoBackend):
            def complete(self, system, user):
                callers.add(threading.get_ident())
                return super().complete(system, user)

        t = make_static(shape, list(range(N)), N)
        assert wave_count(t) == N
        threads = threading.active_count()
        run_topology(t, task(), load_default_pool(), BackendSet(Recording(), Recording()))
        assert callers == {threading.get_ident()}
        assert threading.active_count() == threads

    def test_lowest_failing_leaf_is_reported_with_sequential_transcript(self):
        # leaves 2 and 4 fail in the same wave; leaf 1 precedes 2 and must still be committed
        members = [0, 1, 2, 3, 4]
        t = make_static("star", members, N)
        pool = load_default_pool()
        backends = refusing([pool[2].role, pool[4].role])
        threads = threading.active_count()
        with pytest.raises(RunAborted) as got:
            run_topology(t, task(), pool, backends, rng=np.random.default_rng(3))
        with pytest.raises(RunAborted) as want:
            sequential_run(t, task(), pool, backends, rng=np.random.default_rng(3))
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("run aborted: agent 2 failed in round 1")
        assert [e.agent_id for e in got.value.transcript] == [0, 1]
        assert list(got.value.transcript) == list(want.value.transcript)
        assert threading.active_count() == threads

    def test_deeper_lower_id_agent_runs_before_the_abort(self):
        # 0 -> 1 puts agent 1 in the second wave; agent 2 fails in the first
        t = topo([0, 1, 2], {(0, 1): 1.0})
        pool = load_default_pool()
        backends = refusing([pool[2].role])
        with pytest.raises(RunAborted) as got:
            run_topology(t, task(), pool, backends, rng=np.random.default_rng(1))
        assert [e.agent_id for e in got.value.transcript] == [0, 1]
        assert outcome(run_topology, t, task(), pool, backends, rng=np.random.default_rng(1)) == outcome(
            sequential_run, t, task(), pool, backends, rng=np.random.default_rng(1)
        )


BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def critical_path_calls(monkeypatch):
    """The benchmark's longest chain of dependent calls, by the depth rule."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    return importlib.import_module("workloads").critical_path_calls


def wave_count(t):
    return len(_waves(t.mask.active_ids(), binarize(t.weights, 0.5)))


class TestWaves:
    @pytest.mark.parametrize("shape", ["chain", "star", "tree", "complete"])
    def test_static_shapes_wait_on_the_critical_path(self, monkeypatch, shape):
        depth_rule = critical_path_calls(monkeypatch)
        for m in range(2, N + 1):
            t = make_static(shape, list(range(m)), N)
            for k in (1, 3):
                assert k * wave_count(t) + 1 == depth_rule(t, k, 0.5), (m, k)

    def test_every_team_of_at_most_three_waits_on_the_critical_path(self, monkeypatch):
        # the paper's designed teams have three agents
        depth_rule = critical_path_calls(monkeypatch)
        for members in [(0, 1), (4, 11), (0, 1, 2), (2, 7, 13)]:
            forward = list(itertools.combinations(members, 2))  # every lower -> higher edge
            for n_edges in range(len(forward) + 1):
                for edges in itertools.combinations(forward, n_edges):
                    t = topo(members, dict.fromkeys(edges, 1.0))
                    for k in (1, 3):
                        assert k * wave_count(t) + 1 == depth_rule(t, k, 0.5), (members, edges, k)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_waves_cut_the_active_ids_in_order_and_hold_no_forward_edge(self, data):
        members = sorted(data.draw(st.lists(st.integers(0, N - 1), min_size=2, max_size=N, unique=True)))
        w = {(a, b): data.draw(st.sampled_from([0.0, 0.0, 0.4, 1.0])) for a in members for b in members if a != b}
        adj = binarize(topo(members, w).weights, 0.5)
        waves = _waves(members, adj)
        assert [j for wave in waves for j in wave] == members
        # an agent waits on its lower-id in-neighbors only: it sees their entries of the same round
        assert all(adj.adj[i, j] < 1.0 for wave in waves for i in wave for j in wave if i < j)


def test_traced_functions_are_called_through_the_module(monkeypatch):
    # the benchmark times visibility and prompt rendering by wrapping these module attributes;
    # a reference taken at import would skip the wrappers and its per-layer metrics would read zero
    calls = {"visible_history": 0, "render_system_prompt": 0}
    for name in calls:
        real = getattr(orchestrator, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(orchestrator, name, counting)
    members = [0, 3, 5, 8, 12]
    result = run_topology(make_static("star", members, N), task(), load_default_pool(), echo_backends(), k=2)
    assert len(result.transcript) == 2 * len(members) + 1
    assert calls == {"visible_history": 2 * len(members), "render_system_prompt": len(members) + 1}


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

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_visibility_properties(self, data):
        n = data.draw(st.integers(2, 6))
        flags = data.draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
        adj = np.array(flags, dtype=float).reshape(n, n)
        np.fill_diagonal(adj, 0.0)
        # few distinct weights, so ties in the ordering are common
        levels = data.draw(
            st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=n * n, max_size=n * n)
        )
        w = np.array(levels).reshape(n, n)
        np.fill_diagonal(w, 0.0)
        authors = data.draw(st.lists(st.integers(-1, n - 1), max_size=12))
        history = [
            DialogueEntry(f"E{i}", 1, a, "r", f"out{i}", 1, 1) for i, a in enumerate(authors)
        ]
        agent = data.draw(st.integers(0, n - 1))

        seen = visible_history(history, agent, Topology(n, adj), WeightMatrix(n, w))
        arrival = {e.entry_id: i for i, e in enumerate(history)}

        assert all(e.agent_id not in (agent, -1) for e in seen)
        expected = {e.entry_id for e in history if e.agent_id >= 0 and adj[e.agent_id, agent]}
        assert {e.entry_id for e in seen} == expected and len(seen) == len(expected)
        for a, b in zip(seen, seen[1:]):
            wa, wb = w[a.agent_id, agent], w[b.agent_id, agent]
            assert wa > wb or (wa == wb and arrival[a.entry_id] < arrival[b.entry_id])


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


# Outputs whose whitespace and escapes a rendering could get wrong: str.split()
# splits on \xa0, \x85, \u2028 and \x1c, and JSON escapes only the last of them.
AWKWARD_OUTPUTS = ["", " ", "  lead", "trail  ", '""', 'say "hi"', "back\\slash\\", "a\xa0b", "c\x85d",
                   "e\u2028f", "g\x1ch", "\U0001f600 \U00010348", "{[, ]}"]


class Speaking:
    """Answers with one of `outputs`, chosen by a checksum of the prompts, and
    reports no usage; records every prompt pair it was sent."""

    def __init__(self, outputs):
        self.outputs = outputs
        self.prompts = []
        self._lock = threading.Lock()

    def complete(self, system, user):
        with self._lock:
            self.prompts.append((system, user))
        return self.outputs[zlib.crc32((system + "\x00" + user).encode()) % len(self.outputs)], None, None


class TestArbitraryOutputs:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_equals_the_sequential_run(self, data):
        members = data.draw(st.lists(st.integers(0, N - 1), min_size=2, max_size=8, unique=True))
        w = {(a, b): data.draw(st.sampled_from([0.0, 0.4, 0.6, 1.0])) for a in members for b in members if a != b}
        k = data.draw(st.integers(1, 3))
        outputs = data.draw(st.lists(st.sampled_from(AWKWARD_OUTPUTS) | st.text(max_size=12), min_size=1, max_size=5))
        seed = data.draw(st.integers(0, 2**16))
        sides = []
        for run in (run_topology, sequential_run):
            backends = BackendSet(default=Speaking(outputs), decision=Speaking(outputs))
            result = run(topo(members, w), task(), load_default_pool(), backends, k=k, rng=np.random.default_rng(seed))
            sides.append((result.to_json(), sorted(backends.default.prompts), backends.decision.prompts))
        assert sides[0] == sides[1]
