import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from commtopo import graphs
from commtopo.errors import (
    CommTopoError,
    DimensionError,
    ValidationError,
)
from commtopo.graphs import (
    CATEGORIES,
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
from memory import traced_peak, train_workload_pairs
from test_cli import FUZZ_CORPUS, mutated


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
        with pytest.raises(ValidationError, match="members must be strictly ascending"):
            lift_subgraph(Topology.complete(2), [3, 3], 16)

    def test_out_of_range_members_rejected(self):
        with pytest.raises(ValidationError, match=re.escape("member ids must lie in [0, 16)")):
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


@st.composite
def lifted_subgraphs(draw):
    """(sub-topology, ascending member ids, n_max, another mask) with 0..n_max members."""
    n_max = draw(st.integers(1, 12))
    members = sorted(draw(st.sets(st.integers(0, n_max - 1), max_size=n_max)))
    size = len(members)
    bits = draw(st.lists(st.booleans(), min_size=size * size, max_size=size * size))
    adj = np.array(bits, dtype=float).reshape(size, size)
    if size:
        np.fill_diagonal(adj, 0.0)
    other = draw(st.lists(st.booleans(), min_size=n_max, max_size=n_max))
    return Topology(size, adj), members, n_max, NodeMask(n_max, np.array(other, dtype=float))


class TestLiftRestrictInduceProperties:
    @given(lifted_subgraphs())
    @settings(max_examples=150, deadline=None)
    def test_invariants(self, case):
        sub, members, n_max, other = case
        weights, mask = lift_subgraph(sub, members, n_max)
        assert mask.active_ids() == members
        assert np.array_equal(restrict(weights, members), sub.adj)
        block = np.zeros((n_max, n_max), dtype=bool)
        block[np.ix_(members, members)] = True
        assert not weights.w[~block].any()
        if len(members) >= 2:
            induced = induce(weights, mask)
            assert np.array_equal(induced.weights.w, weights.w)
            assert np.array_equal(induced.mask.m, mask.m)
        if other.active_count() >= 2:
            once = induce(weights, other)
            twice = induce(once.weights, once.mask)
            assert np.array_equal(twice.weights.w, once.weights.w)
            assert np.array_equal(twice.mask.m, once.mask.m)


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
        with pytest.raises(ValidationError, match="fewer than 2 active nodes"):
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
        out = serialize_topology(self.topo(), "dot")
        assert "0 -> 1" in out
        assert "1.000" in out

    def test_dot_excludes_masked_node(self):
        out = serialize_topology(self.topo(), "dot")
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


def dot_loop(t: CommTopology) -> str:
    """Reference for ``serialize_topology(t, "dot")``: the edges by a loop over active pairs."""
    lines = ["digraph comm {"]
    for i in t.mask.active_ids():
        lines.append(f'  {i} [label="{i}"];')
    for i in t.mask.active_ids():
        for j in t.mask.active_ids():
            wij = t.weights.w[i, j]
            if i != j and wij >= 0.5:
                lines.append(f'  {i} -> {j} [label="{wij:.3f}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


@st.composite
def comm_topologies(draw):
    """A topology on up to 15 nodes whose weights sit at, just below and away from the 0.5 cutoff."""
    n = draw(st.integers(2, 15))
    m = np.zeros(n)
    m[draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=n, unique=True))] = 1.0
    weight = st.one_of(st.sampled_from([0.0, 0.5, np.nextafter(0.5, 0.0), 1.0]), st.floats(0.0, 1.0))
    w = np.array(draw(st.lists(weight, min_size=n * n, max_size=n * n))).reshape(n, n)
    np.fill_diagonal(w, 0.0)
    return induce(WeightMatrix(n, w), NodeMask(n, m))


@settings(max_examples=300, deadline=None)
@given(comm_topologies())
def test_dot_equals_the_loop_over_active_pairs(t):
    assert serialize_topology(t, "dot") == dot_loop(t)


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


def reference_json_line(p):
    """The per-element writer that ``to_json_line`` replaced, kept as the reference."""
    return json.dumps(
        {
            "task_id": p.task_id,
            "task_text": p.task_text,
            "category": p.category,
            "score": p.score,
            "y": [int(v) for v in p.y.m],
            "a_gt": [[float(v) for v in row] for row in p.a_gt.w],
        },
        sort_keys=True,
    )


@st.composite
def supervision_pairs(draw):
    n = draw(st.integers(2, 6))
    members = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=n, unique=True))
    zero = st.sampled_from([0.0, -0.0])
    weight = st.one_of(zero, st.just(1.0), st.floats(0.0, 1.0))
    w = np.array([[draw(weight if i != j and i in members and j in members else zero)
                   for j in range(n)] for i in range(n)])
    m = np.zeros(n)
    m[members] = 1.0
    text = st.text(max_size=12)
    return SupervisionPair(
        draw(text), draw(text), draw(st.sampled_from(CATEGORIES)),
        WeightMatrix(n, w), NodeMask(n, m), draw(st.floats(0.0, 1.0)),
    )


class TestCorpusWriter:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(supervision_pairs(), max_size=4))
    def test_equals_the_per_element_writer(self, pairs):
        assert write_corpus(pairs) == "".join(reference_json_line(p) + "\n" for p in pairs)
        back = read_corpus(write_corpus(pairs))
        assert [q.to_json_line() for q in back] == [p.to_json_line() for p in pairs]

    def test_negative_zero_and_non_ascii_text(self):
        w = np.zeros((3, 3))
        w[0, 1], w[1, 0], w[2, 2] = 0.25, -0.0, -0.0
        p = SupervisionPair(
            "t\u00e9", "\u4e2d\u6587 \u00fcber", "math_reasoning",
            WeightMatrix(3, w), NodeMask(3, np.array([1.0, 1.0, 0.0])), 0.5,
        )
        line = p.to_json_line()
        assert line == reference_json_line(p)
        assert "-0.0" in line and "0.25" in line and "\\u4e2d" in line


class TestSharedLabels:
    def test_labels_that_differ_in_the_sign_of_a_zero_stay_apart(self):
        w = np.zeros((3, 3))
        w[0, 1] = 1.0
        negative = w.copy()
        negative[1, 0] = -0.0
        y = NodeMask(3, np.array([1.0, 1.0, 0.0]))
        pairs = [SupervisionPair("t", "q", "math_reasoning", WeightMatrix(3, a), y, 1.0) for a in (w, negative)]
        text = write_corpus(pairs)
        assert text == "".join(reference_json_line(p) + "\n" for p in pairs)
        back = read_corpus(text)
        assert write_corpus(back) == text
        assert back[0].a_gt is not back[1].a_gt and back[0].y is back[1].y

    def test_the_train_workload_corpus_reads_one_object_per_distinct_label(self, monkeypatch):
        back = read_corpus(write_corpus(train_workload_pairs(monkeypatch)[0]))
        for label, values in (("a_gt", "w"), ("y", "m")):
            objects = {id(getattr(p, label)) for p in back}
            contents = {getattr(getattr(p, label), values).tobytes() for p in back}
            assert len(objects) == len(contents) < len(back), label


def label_sharing(pairs):
    """For each pair, the index of the first pair holding its ``a_gt`` object, and its ``y`` object."""
    first_a, first_y = {}, {}
    return [(first_a.setdefault(id(p.a_gt), i), first_y.setdefault(id(p.y), i)) for i, p in enumerate(pairs)]


def outcome(read):
    """What ``read()`` gives: the pairs' lines and label sharing, or the error it raises."""
    try:
        pairs = read()
    except CommTopoError as exc:
        return type(exc).__name__, str(exc)
    return [p.to_json_line() for p in pairs], label_sharing(pairs)


def assert_reads_as_from_json_line(text):
    interned = {}
    lines = [line for line in text.splitlines() if line.strip()]
    expected = outcome(lambda: [SupervisionPair.from_json_line(line, interned) for line in lines])
    assert outcome(lambda: read_corpus(text)) == expected


@st.composite
def corpora(draw):
    """``write_corpus`` of drawn pairs, some of them repeated, so that lines share labels."""
    pairs = draw(st.lists(supervision_pairs(), min_size=1, max_size=3))
    return write_corpus([pairs[i] for i in draw(st.lists(st.integers(0, len(pairs) - 1), max_size=6))])


WRITER_KEYS = ["a_gt", "category", "score", "task_id", "task_text", "y"]
SPACINGS = [(", ", ": "), (",", ":"), (" , ", " : ")]


@st.composite
def relaid_corpora(draw):
    """The lines of ``corpora()`` with drawn key orders and spacing, inside the labels too."""
    lines = []
    for line in draw(corpora()).splitlines():
        obj = json.loads(line)
        keys = draw(st.just(WRITER_KEYS) | st.permutations(WRITER_KEYS))
        (comma, colon), label = draw(st.sampled_from(SPACINGS)), draw(st.sampled_from(SPACINGS))
        fields = (json.dumps(k) + colon + json.dumps(obj[k], separators=label if k in ("a_gt", "y") else None)
                  for k in keys)
        pad = draw(st.sampled_from(["", " "]))
        lines.append(pad + "{" + comma.join(fields) + "}" + pad)
    return "".join(line + "\n" for line in lines)


class TestCorpusReader:
    """``read_corpus`` parses the labels of a line in the writer's layout once per
    distinct text; it must read every line as ``from_json_line`` does."""

    @settings(max_examples=60, deadline=None)
    @given(corpora())
    def test_the_writers_lines(self, text):
        assert_reads_as_from_json_line(text)

    @settings(max_examples=100, deadline=None)
    @given(relaid_corpora())
    def test_lines_in_other_key_orders_and_spacing(self, text):
        assert_reads_as_from_json_line(text)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_mutated_lines(self, data):
        lines = data.draw(mutated(FUZZ_CORPUS + FUZZ_CORPUS[:1]))  # lines 0 and 2 share labels
        assert_reads_as_from_json_line("".join(json.dumps(line) + "\n" for line in lines))

    def test_a_label_key_among_the_middle_fields_is_read_as_json_reads_it(self):
        a_gt, y = lift_subgraph(Topology.complete(3), [0, 1, 2], 4)
        line = write_corpus([SupervisionPair("t", "q", "math_reasoning", a_gt, y, 1.0)])
        other_a_gt = json.dumps(lift_subgraph(Topology(3, np.eye(3, k=1)), [0, 1, 2], 4)[0].w.tolist())
        for key, value in (("a_gt", other_a_gt), ("y", "[1, 1, 0, 0]")):
            edited = line.replace('"category": ', f'"{key}": {value}, "category": ', 1)
            assert_reads_as_from_json_line(edited)
            # the last of two equal keys wins, as in json.loads
            assert read_corpus(edited)[0].a_gt.w.tolist() == (json.loads(value) if key == "a_gt" else a_gt.w.tolist())

    def test_parses_each_distinct_label_text_once(self, monkeypatch):
        teams = [(0, 1), (1, 2, 3), (0, 2)] * 10
        pairs = [
            SupervisionPair(f"t{i}", f"q{i}", "math_reasoning", *lift_subgraph(Topology.complete(len(team)), team, 5), 1.0)
            for i, team in enumerate(teams)
        ]
        text = write_corpus(pairs)
        labels = {json.dumps(p.a_gt.w.tolist()) for p in pairs} | {json.dumps(p.y.m.astype(int).tolist()) for p in pairs}
        parsed, loads = [], json.loads
        monkeypatch.setattr(json, "loads", lambda s, *args, **kw: parsed.append(s) or loads(s, *args, **kw))
        assert write_corpus(read_corpus(text)) == text
        assert len(parsed) <= len(pairs) + len(labels) == 36
        assert sorted(s for s in parsed if s.startswith("[")) == sorted(labels)


def splitlines_read_corpus(text):
    """``read_corpus`` as it was over a list of every line, ``text.splitlines()``, kept as the reference."""
    interned = {}
    return [
        graphs._writer_line(line, interned) or SupervisionPair.from_json_line(line, interned)
        for line in text.splitlines()
        if line.strip()
    ]


# every boundary of str.splitlines, and blank lines that line.strip() empties
BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
BLANKS = ["", " ", "\t", " \t ", "\xa0", "\x1f"]


@st.composite
def broken_corpora(draw):
    """The lines of ``corpora()`` among blank lines, each ended by a drawn line
    break, the last one maybe by none; at times one more break cuts a line."""
    lines = draw(st.permutations(draw(corpora()).splitlines() + draw(st.lists(st.sampled_from(BLANKS), max_size=4))))
    ends = [draw(st.sampled_from(BREAKS)) for _ in lines]
    if ends and draw(st.booleans()):
        ends[-1] = ""
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(BREAKS)) + text[at:]
    return text


class TestCorpusTextWithoutCopies:
    """``write_corpus`` joins the text from line pieces and ``read_corpus`` walks
    it a line at a time; both keep the bytes and errors of whole-text versions."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(supervision_pairs(), min_size=1, max_size=3), st.data())
    def test_write_corpus_equals_the_joined_lines_of_to_json_line(self, pairs, data):
        # repeats share label objects, whose texts the writer renders once
        pairs = [pairs[i] for i in data.draw(st.lists(st.integers(0, len(pairs) - 1), max_size=6))]
        assert write_corpus(pairs) == "".join(p.to_json_line() + "\n" for p in pairs)

    @settings(max_examples=150, deadline=None)
    @given(broken_corpora())
    def test_read_corpus_equals_the_splitlines_reader(self, text):
        assert outcome(lambda: read_corpus(text)) == outcome(lambda: splitlines_read_corpus(text))

    def test_write_corpus_on_the_train_workload_peaks_under_1_3_times_its_text(self, monkeypatch):
        # every line string was built before the join: 2.07 times the text
        pairs = train_workload_pairs(monkeypatch)[0]
        text, peak = traced_peak(write_corpus, pairs)
        assert peak < 1.3 * len(text)

    def test_read_corpus_on_the_train_workload_peaks_under_1_3_times_its_text(self, monkeypatch):
        # text.splitlines() copied every line into one list: 1.48 times the text
        text = write_corpus(train_workload_pairs(monkeypatch)[0])
        _, peak = traced_peak(read_corpus, text)
        assert peak < 1.3 * len(text)


class TestNanWeights:
    """NaN fails both range comparisons, so it is reported as out of range,
    not as weight outside the mask."""

    NAN_ROWS = [[0.0, float("nan"), 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]

    def test_weight_matrix(self):
        with pytest.raises(ValidationError, match=r"weights must lie in \[0, 1\]"):
            WeightMatrix(3, np.array(self.NAN_ROWS))

    def test_topology_document(self):
        doc = json.dumps({"n_max": 3, "mask": [1, 1, 0], "weights": self.NAN_ROWS})
        with pytest.raises(ValidationError, match=r"weights must lie in \[0, 1\]"):
            parse_topology(doc)

    def test_corpus_line(self):
        line = json.dumps({
            "task_id": "t", "task_text": "q", "category": "math_reasoning", "score": 1.0,
            "y": [1, 1, 0], "a_gt": self.NAN_ROWS,
        })
        with pytest.raises(ValidationError, match=r"weights must lie in \[0, 1\]"):
            read_corpus(line)
