import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from commtopo.errors import (
    DegenerateTopology,
    DimensionError,
    InvalidMembers,
    ValidationError,
)
from commtopo.graphs import (
    CommTopology,
    NodeMask,
    SupervisionPair,
    Topology,
    WeightMatrix,
    binarize,
    induce,
    lift_subgraph,
    parse_topology,
    read_corpus,
    restrict,
    serialize_topology,
    write_corpus,
)


def complete_weights(n, value=1.0):
    w = np.full((n, n), value)
    np.fill_diagonal(w, 0.0)
    return WeightMatrix(n, w)


class TestTopology:
    def test_complete_has_zero_diagonal(self):
        t = Topology.complete(4)
        assert np.diag(t.adj).sum() == 0
        assert t.adj.sum() == 12

    def test_rejects_diagonal_entry(self):
        adj = np.zeros((3, 3))
        adj[1, 1] = 1
        with pytest.raises(ValidationError):
            Topology(3, adj)

    def test_rejects_non_binary(self):
        adj = np.zeros((3, 3))
        adj[0, 1] = 0.5
        with pytest.raises(ValidationError):
            Topology(3, adj)


class TestWeightMatrix:
    def test_rejects_out_of_range(self):
        w = np.zeros((2, 2))
        w[0, 1] = 1.5
        with pytest.raises(ValidationError):
            WeightMatrix(2, w)

    def test_rejects_nonzero_diagonal(self):
        w = np.full((2, 2), 0.5)
        with pytest.raises(ValidationError):
            WeightMatrix(2, w)


class TestCallerArrays:
    def test_construction_leaves_caller_array_writable_and_detached(self):
        adj = np.ones((3, 3)) - np.eye(3)
        w = np.full((3, 3), 0.5)
        np.fill_diagonal(w, 0.0)
        m = np.array([1.0, 0.0, 1.0])
        values = [Topology(3, adj), WeightMatrix(3, w), NodeMask(3, m)]
        adj[0, 1] = 0.0
        w[0, 1] = 0.25
        m[1] = 1.0
        assert values[0].adj[0, 1] == 1.0
        assert values[1].w[0, 1] == 0.5
        assert values[2].m[1] == 0.0
        assert not any(v.flags.writeable for v in (values[0].adj, values[1].w, values[2].m))


class TestLiftSubgraph:
    def test_two_node_edge_relabels(self):
        sub = Topology(2, np.array([[0.0, 1.0], [0.0, 0.0]]))
        weights, mask = lift_subgraph(sub, [3, 7], 16)
        assert mask.m[3] == 1 and mask.m[7] == 1 and mask.m.sum() == 2
        assert weights.w[3, 7] == 1.0
        assert weights.w.sum() == 1.0

    def test_empty_subgraph_lifts_to_zero_weights(self):
        sub = Topology(2, np.zeros((2, 2)))
        weights, mask = lift_subgraph(sub, [0, 1], 16)
        assert mask.m[:2].sum() == 2
        assert weights.w.sum() == 0.0

    def test_complete_k3_produces_six_ordered_pairs(self):
        weights, mask = lift_subgraph(Topology.complete(3), [2, 5, 9], 16)
        expected = {(2, 5), (5, 2), (2, 9), (9, 2), (5, 9), (9, 5)}
        got = {(i, j) for i in range(16) for j in range(16) if weights.w[i, j] == 1.0}
        assert got == expected
        assert weights.w.sum() == 6.0

    def test_duplicate_members_rejected(self):
        with pytest.raises(InvalidMembers):
            lift_subgraph(Topology.complete(2), [3, 3], 16)

    def test_out_of_range_members_rejected(self):
        with pytest.raises(InvalidMembers):
            lift_subgraph(Topology.complete(2), [3, 16], 16)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_lift_then_restrict_round_trips(self, data):
        n_max = data.draw(st.integers(4, 12))
        size = data.draw(st.integers(2, n_max))
        members = sorted(
            data.draw(
                st.lists(
                    st.integers(0, n_max - 1), min_size=size, max_size=size, unique=True
                )
            )
        )
        bits = data.draw(
            st.lists(st.booleans(), min_size=size * size, max_size=size * size)
        )
        adj = np.array(bits, dtype=float).reshape(size, size)
        np.fill_diagonal(adj, 0.0)
        sub = Topology(size, adj)
        weights, mask = lift_subgraph(sub, members, n_max)
        assert np.array_equal(restrict(weights, members), sub.adj)
        # zero outside the member block
        outside = np.ones(n_max, dtype=bool)
        outside[members] = False
        assert weights.w[outside, :].sum() == 0.0
        assert weights.w[:, outside].sum() == 0.0


class TestInduce:
    def test_masked_node_rows_and_columns_zeroed(self):
        t = induce(complete_weights(3, 0.8), NodeMask(3, np.array([1.0, 1.0, 0.0])))
        assert t.weights.w[0, 1] == 0.8 and t.weights.w[1, 0] == 0.8
        assert t.weights.w[2, :].sum() == 0.0
        assert t.weights.w[:, 2].sum() == 0.0

    def test_full_mask_is_identity(self):
        w = complete_weights(4, 0.3)
        t = induce(w, NodeMask(4, np.ones(4)))
        assert np.array_equal(t.weights.w, w.w)

    def test_lifted_k3_restricted_to_two_members(self):
        weights, _ = lift_subgraph(Topology.complete(3), [2, 5, 9], 16)
        m = np.zeros(16)
        m[[2, 5]] = 1.0
        t = induce(weights, NodeMask(16, m))
        assert t.weights.w[2, 5] == 1.0 and t.weights.w[5, 2] == 1.0
        assert t.weights.w.sum() == 2.0

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        w = rng.uniform(size=(6, 6))
        np.fill_diagonal(w, 0.0)
        m = np.array([1.0, 0, 1, 1, 0, 1])
        once = induce(WeightMatrix(6, w), NodeMask(6, m))
        twice = induce(once.weights, NodeMask(6, m))
        assert np.array_equal(once.weights.w, twice.weights.w)

    def test_size_mismatch(self):
        with pytest.raises(DimensionError):
            induce(complete_weights(3), NodeMask(4, np.ones(4)))

    def test_degenerate_mask(self):
        with pytest.raises(DegenerateTopology):
            induce(complete_weights(3), NodeMask(3, np.array([1.0, 0.0, 0.0])))


class TestBinarize:
    def test_boundary_is_inclusive(self):
        w = np.zeros((2, 2))
        w[0, 1] = 0.5
        assert binarize(WeightMatrix(2, w), 0.5).adj[0, 1] == 1

    def test_all_zero_weights(self):
        assert binarize(WeightMatrix(3, np.zeros((3, 3))), 0.5).adj.sum() == 0

    def test_threshold_separates(self):
        w = np.zeros((2, 2))
        w[0, 1] = 0.49
        w[1, 0] = 0.51
        adj = binarize(WeightMatrix(2, w), 0.5).adj
        assert adj[0, 1] == 0 and adj[1, 0] == 1

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_edge_count_non_increasing_in_theta(self, seed):
        rng = np.random.default_rng(seed)
        w = rng.uniform(size=(5, 5))
        np.fill_diagonal(w, 0.0)
        wm = WeightMatrix(5, w)
        counts = [binarize(wm, th).adj.sum() for th in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert counts == sorted(counts, reverse=True)


class TestSerialization:
    def topo(self):
        w = np.zeros((3, 3))
        w[0, 1] = 1.0
        m = np.array([1.0, 1.0, 0.0])
        return CommTopology(NodeMask(3, m), WeightMatrix(3, w))

    def test_dot_contains_edge_and_label(self):
        out = serialize_topology(self.topo(), "dot").decode()
        assert "0 -> 1" in out
        assert "1.000" in out

    def test_dot_excludes_masked_node(self):
        out = serialize_topology(self.topo(), "dot").decode()
        for line in out.splitlines():
            assert not line.strip().startswith("2 ")

    def test_json_round_trip(self):
        t = self.topo()
        back = parse_topology(serialize_topology(t, "json"))
        assert np.array_equal(back.mask.m, t.mask.m)
        assert np.allclose(back.weights.w, t.weights.w)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_json_round_trip_random(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        m = np.zeros(n)
        m[rng.choice(n, 2, replace=False)] = 1.0
        w = rng.uniform(size=(n, n))
        np.fill_diagonal(w, 0.0)
        t = induce(WeightMatrix(n, w), NodeMask(n, m))
        back = parse_topology(serialize_topology(t, "json"))
        assert np.array_equal(back.mask.m, t.mask.m)
        assert np.allclose(back.weights.w, t.weights.w)


class TestSupervisionPair:
    def make_pair(self):
        weights, mask = lift_subgraph(Topology.complete(3), [1, 4, 6], 15)
        return SupervisionPair("t1", "text", "math_reasoning", weights, mask, 0.9)

    def test_valid_pair_constructs(self):
        p = self.make_pair()
        assert p.score == 0.9

    def test_rejects_edge_outside_mask(self):
        w = np.zeros((15, 15))
        w[0, 1] = 1.0
        m = np.zeros(15)
        m[[1, 4]] = 1.0
        with pytest.raises(ValidationError):
            SupervisionPair(
                "t", "x", "math_reasoning", WeightMatrix(15, w), NodeMask(15, m), 1.0
            )

    def test_rejects_single_active_node(self):
        m = np.zeros(15)
        m[3] = 1.0
        with pytest.raises(ValidationError):
            SupervisionPair(
                "t", "x", "math_reasoning",
                WeightMatrix(15, np.zeros((15, 15))), NodeMask(15, m), 1.0,
            )

    def test_json_line_round_trip(self):
        p = self.make_pair()
        q = SupervisionPair.from_json_line(p.to_json_line())
        assert q.task_id == p.task_id
        assert np.array_equal(q.y.m, p.y.m)
        assert np.array_equal(q.a_gt.w, p.a_gt.w)
        assert q.score == p.score

    def test_corpus_round_trip(self):
        pairs = [self.make_pair(), self.make_pair()]
        text = write_corpus(pairs)
        back = read_corpus(text)
        assert len(back) == 2
        assert back[0].task_text == "text"

    def test_json_line_is_stable(self):
        p = self.make_pair()
        obj = json.loads(p.to_json_line())
        assert set(obj) == {"task_id", "task_text", "category", "score", "y", "a_gt"}
