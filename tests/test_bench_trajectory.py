"""The trajectory script folds a benchmark run's output into its record."""

from __future__ import annotations

import importlib.util
import json
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


def test_median_takes_each_metric_over_the_runs():
    runs = [
        BT.fold("query_mix", RESULT.replace("56.7", str(v)).replace("72", str(n)), END_TO_END)
        for v, n in ((60.0, 80), (50.0, 70), (56.7, 72))
    ]
    assert BT.median(runs) == {
        "verdicts_per_s": {"value": 56.7, "unit": "1/s"},
        "correct_share": {"value": 1.0, "unit": "share"},
    }
    assert BT.median(runs[:2])["verdicts_per_s"]["value"] == 55.0


def test_a_trajectory_runs_each_workload_at_three_seeds(monkeypatch, tmp_path):
    calls = []

    def fake_run(workload, seed, seconds, end_to_end):
        calls.append((workload, seed))
        return BT.fold(workload, RESULT.replace("56.7", str(50.0 + seed)), END_TO_END)

    bench = tmp_path / "BENCHMARK.json"
    bench.write_text(
        '{"run_seconds": 2, "workloads": [{"name": "query_mix"}],'
        ' "end_to_end": [{"name": "verdicts_per_s"}, {"name": "correct_share"}]}'
    )
    monkeypatch.setattr(BT, "ROOT", tmp_path)
    monkeypatch.setattr(BT, "run", fake_run)
    monkeypatch.setattr(BT, "counters", lambda: {"sim1+0": {"pruned_roots": 8}})
    monkeypatch.setattr(BT, "timings", lambda: {"parse_scenario": {"sim1+0": 0.5}})
    assert BT.main(["--pr", "0"]) == 0
    assert calls == [("query_mix", 1), ("query_mix", 2), ("query_mix", 3)]
    record = json.loads((tmp_path / "BENCH_0.json").read_text())
    assert record["schema"] == "bench-trajectory/7"
    assert record["counters"] == {"sim1+0": {"pruned_roots": 8}}
    assert record["timings"] == {"parse_scenario": {"sim1+0": 0.5}}
    assert record["seeds"] == [1, 2, 3]
    got = record["workloads"]["query_mix"]
    assert [r["seed"] for r in got["runs"]] == [1, 2, 3]
    assert got["median"]["verdicts_per_s"] == {"value": 52.0, "unit": "1/s"}


def test_the_counters_are_the_same_over_two_runs():
    first = BT.counters()
    assert first == BT.counters()
    assert list(first) == [f"{family}+{n}" for family, n in BT.COUNTED]
    for counts in first.values():
        assert counts["searches"]
        assert set(BT.SUMMED) <= set(counts)
        # an adjudication leaves nothing for the cyclic collector
        assert counts["cyclic_garbage"] == 0
    # the obligation search and the two C3 searches that prove nothing
    # ground and expand the same closure whatever sim2's extra effects
    sim2 = [first[f"sim2+{m}"] for m in (0, 8, 32)]
    assert len({(c["grounding_instances"], c["expansion_size"]) for c in sim2}) == 1


def test_cyclic_garbage_counts_the_cycles_a_call_leaves_and_restores_the_collector():
    import gc

    def cycles(n):
        for _ in range(n):
            box: list = []
            box.append(box)

    assert gc.isenabled()
    assert BT.cyclic_garbage(lambda: cycles(3)) == 3
    assert BT.cyclic_garbage(lambda: [[] for _ in range(3)]) == 0
    assert gc.isenabled()
    gc.disable()
    try:
        assert BT.cyclic_garbage(lambda: cycles(1)) == 1
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_the_timings_time_every_counted_point_and_leave_the_counters_alone(monkeypatch):
    monkeypatch.setattr(BT, "TIMED_CALLS", 2)
    before = BT.counters()
    got = BT.timings()
    assert got["calls"] == 2
    assert got["reference_loop"] > 0
    for timed in ("parse_scenario", "adjudicate"):
        assert list(got[timed]) == list(before)
        assert all(ms > 0 for ms in got[timed].values())
    assert list(got["entails"]) == ["sim1_guilty", "shooter-ai"]
    assert all(ms > 0 for ms in got["entails"].values())
    assert BT.counters() == before


def test_each_timing_pass_calls_every_entry_once_in_order(monkeypatch):
    monkeypatch.setattr(BT, "TIMED_CALLS", 3)
    order = []
    calls = {name: (lambda name=name: order.append(name)) for name in ("a", "b", "c")}
    got = BT.least_cpu_ms(calls)
    assert order == ["a", "b", "c"] * 3
    assert list(got) == ["a", "b", "c"] and all(ms >= 0 for ms in got.values())


def test_each_timed_oracle_query_has_a_countermodel():
    from modalguard.models import entails

    for name, (assumptions, goal, sig) in BT.entailed_queries().items():
        entailed, countermodel = entails(assumptions, goal, sig)
        assert not entailed and countermodel, name
