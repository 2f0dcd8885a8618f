"""The trajectory script folds a benchmark run's output into its record."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench_trajectory.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_trajectory", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BT = load_script()
END_TO_END = ["verdicts_per_s", "correct_share"]
HEADER = 'guardbench query_mix seed=1 trace=0 {"schema": "guardbench/1"}\n'
RESULT = (
    '{"correct": true, "attempted": 72, "failed": 0, "metrics": '
    '{"verdicts_per_s": {"value": 56.7, "unit": "1/s"}, '
    '"correct_share": {"value": 1.0, "unit": "share"}, '
    '"setup_s": {"value": 0.12, "unit": "s"}}}\n'
)


def test_fold_keeps_the_end_to_end_metrics_of_the_last_line():
    got = BT.fold("query_mix", HEADER + "verdicts_per_s 56.7 1/s\n" + RESULT, END_TO_END)
    assert got == {
        "attempted": 72,
        "metrics": {
            "verdicts_per_s": {"value": 56.7, "unit": "1/s"},
            "correct_share": {"value": 1.0, "unit": "share"},
        },
    }


@pytest.mark.parametrize(
    "stdout",
    [
        "",
        HEADER,
        RESULT.replace('"correct": true', '"correct": false'),
        RESULT.replace('"failed": 0', '"failed": 2'),
        RESULT.replace('"correct_share"', '"other_share"'),
    ],
)
def test_fold_refuses_a_failed_run(stdout):
    with pytest.raises(BT.RunFailed):
        BT.fold("query_mix", stdout, END_TO_END)
