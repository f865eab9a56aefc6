"""The task-file writer that only tests use: the layout ``read_tasks`` parses."""
from __future__ import annotations

import json
from typing import Iterable

from commtopo.collector import TaskSpec


def task_json_line(task: TaskSpec) -> str:
    obj = {
        "task_id": task.task_id,
        "task_text": task.task_text,
        "category": task.category,
        "expected_answer": task.expected_answer,
        "check": task.check,
    }
    if task.planted_team is not None:
        obj["planted_team"] = list(task.planted_team)
    return json.dumps(obj, sort_keys=True)


def write_tasks(tasks: Iterable[TaskSpec]) -> str:
    return "".join(task_json_line(t) + "\n" for t in tasks)
