import json

import pytest
from hypothesis import example, given, settings, strategies as st

from commtopo.errors import AnchoringError, FormatError
from commtopo.pool import (
    USER_PROMPT_PREFIX,
    AgentProfile,
    join_user_prompt,
    load_default_pool,
    load_pool,
    render_entry,
    render_system_prompt,
    render_user_prompt,
)

EXPECTED_ROLES = [
    "Knowledgeable Expert",
    "Critic",
    "Psychologist",
    "Historian",
    "Doctor",
    "Lawyer",
    "Economist",
    "Project Manager",
    "Algorithm Designer",
    "Test Analyst",
    "Bug Fixer",
    "Math Solver",
    "Mathematical Analyst",
    "Programming Expert",
    "Inspector",
]


def profile_line(i, role="Agent"):
    return json.dumps(
        {
            "id": i,
            "role": role,
            "expertise": "do things",
            "backbone": "test",
            "tools": [],
            "system_template": "<Profile>. And your task is to solve the question: <Task>. ",
        }
    )


class TestLoadPool:
    def test_default_roster_has_fifteen_roles(self):
        pool = load_default_pool()
        assert pool.n_max == 15
        assert [p.role for p in pool] == EXPECTED_ROLES

    def test_default_roster_id_11_is_math_solver(self):
        assert load_default_pool()[11].role == "Math Solver"

    def test_anchoring_position_equals_id(self):
        pool = load_default_pool()
        for k, p in enumerate(pool):
            assert p.id == k

    def test_gap_in_ids_rejected(self):
        data = "\n".join([profile_line(0), profile_line(2)]).encode()
        with pytest.raises(AnchoringError):
            load_pool(data)

    def test_duplicate_ids_rejected(self):
        data = "\n".join([profile_line(0), profile_line(0)]).encode()
        with pytest.raises(AnchoringError):
            load_pool(data)

    def test_empty_file_rejected(self):
        with pytest.raises(FormatError):
            load_pool(b"")

    def test_malformed_line_rejected(self):
        with pytest.raises(FormatError):
            load_pool(b"not json\n")


class TestSystemPrompt:
    def test_exact_format(self):
        p = AgentProfile(
            id=0,
            role="math expert",
            expertise="",
            system_template="<Profile>. And your task is to solve the question: <Task>. ",
        )
        out = render_system_prompt(p, "1+1=?")
        assert out == "You are a math expert. And your task is to solve the question: 1+1=?. "

    def test_empty_profile_yields_leading_separator(self):
        p = AgentProfile(
            id=0,
            role="",
            expertise="",
            system_template="<Profile>. And your task is to solve the question: <Task>. ",
        )
        with pytest.warns(UserWarning):
            out = render_system_prompt(p, "q")
        assert out.startswith(". And your task")

    def test_newline_in_task_preserved(self):
        p = load_default_pool()[0]
        out = render_system_prompt(p, "line1\nline2")
        assert "line1\nline2" in out

    def test_deterministic(self):
        p = load_default_pool()[3]
        assert render_system_prompt(p, "q") == render_system_prompt(p, "q")


class TestUserPrompt:
    PREFIX = (
        "At the same time, there are the following responses to the same "
        "question for your reference: "
    )

    def test_empty_history(self):
        assert render_user_prompt([]) == self.PREFIX + "[]"

    def test_single_entry_keys(self):
        out = render_user_prompt(
            [{"id": "A8MK", "role": "Math Solver", "output": "x"}]
        )
        arr = json.loads(out[len(self.PREFIX):])
        assert arr == [{"id": "A8MK", "role": "Math Solver", "output": "x"}]
        assert list(arr[0].keys()) == ["id", "role", "output"]

    def test_order_preserved(self):
        hist = [
            {"id": "AAAA", "role": "Critic", "output": "first"},
            {"id": "BBBB", "role": "Doctor", "output": "second"},
        ]
        arr = json.loads(render_user_prompt(hist)[len(self.PREFIX):])
        assert [e["output"] for e in arr] == ["first", "second"]


AWKWARD = ["", " ", " lead", "trail ", '""', '"q"', "back\\slash", "\xa0", "\x85", "\u2028", "\x1c", "\U0001f600"]
TEXTS = st.one_of(st.sampled_from(AWKWARD), st.text(max_size=8))
HISTORIES = st.lists(st.fixed_dictionaries({"id": TEXTS, "role": TEXTS, "output": TEXTS}), max_size=5)


@settings(max_examples=200, deadline=None)
@given(HISTORIES)
@example([])
def test_user_prompt_is_the_join_of_its_rendered_entries(history):
    want = USER_PROMPT_PREFIX + json.dumps(
        [{"id": h["id"], "role": h["role"], "output": h["output"]} for h in history], ensure_ascii=False
    )
    assert render_user_prompt(history) == join_user_prompt([render_entry(h) for h in history]) == want
