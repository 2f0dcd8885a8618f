"""Record one point of the benchmark trajectory: BENCH_<pr>.json.

Run from the root of a checkout:

    python3 tools/bench_trajectory.py --pr 8

For each workload that BENCHMARK.json declares, the script runs
guardbench/run.py --trace 0 once per seed in SEEDS, each for
BENCHMARK.json's run_seconds, and keeps the end-to-end metrics from
each run's last line.  One run cannot tell a change of a few percent
from the host's drift, so the file keeps every run and, per workload,
the median of each metric over the runs.  Every trajectory file is made
with the same run length and seeds, so that each compares with the one
before.  The file it writes holds a schema version, the Python version,
the CPU count, the seconds and the seeds of the runs, and each
workload's runs and medians; later changes compare against the latest
such file.  Exit status is 0 when every run succeeded and answered
correctly, 1 otherwise (no file is written then).

The file also holds a counters section, taken in-process apart from the
timed runs: for one adjudication of each scenario in COUNTED, the
searches the guard and the double-effect check run, by route (or by
status, for a search that proves nothing), and the sums of their
pruned roots, grounding instances, expansion sizes, shadowed and
clausified formulas and generated clauses, and its cyclic garbage:
what gc.collect() finds unreachable after the adjudication, run with the
collector off.  The counts do not depend on the host, so two files
compare them directly.  Cyclic garbage needs a count of its own: the
collector's pauses fall on whichever call crosses its threshold, and a
least-of-N CPU timing keeps the calls that paid for no pause, so the
timings below cannot show what a request leaves to collect.

A timings section, kept apart from the counters, holds CPU times in ms,
each the least of TIMED_CALLS calls: parse_scenario on the text of each
scenario in COUNTED, adjudicate on each of those scenarios, parsed
once, the finite-model oracle's entails on sim1_guilty's obligation
query and on query_mix's shooter->ai prevention query, and a fixed
reference loop.  The calls run in TIMED_CALLS passes, each
calling the reference loop and every entry once, so a slow spell of
the host falls on every entry alike.  Times depend on the host, so
read each file's times against its own reference loop.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

SCHEMA = "bench-trajectory/7"
SEEDS = (1, 2, 3)
ROOT = Path(__file__).resolve().parent.parent
# the counted scenarios: sim2 plus m extra effects, and sim1 plus k idle
# agents and goals
COUNTED = (
    ("sim2", 0), ("sim2", 8), ("sim2", 32), ("sim2", 64), ("sim1", 0), ("sim1", 16), ("sim1", 64)
)
# the ProveResult.stats entries the counters sum
SUMMED = (
    "pruned_roots",
    "grounding_instances",
    "expansion_size",
    "shadowed_formulas",
    "clausified_formulas",
    "generated_clauses",
)
# each timing is the least CPU time of this many calls
TIMED_CALLS = 20


class RunFailed(Exception):
    """A benchmark run exited non-zero, printed no result or answered wrongly."""


def fold(workload: str, stdout: str, end_to_end: list[str]) -> dict:
    """The entry of one workload: its end-to-end metrics, read from the
    JSON object on the run's last line of output."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if not isinstance(result, dict):
        raise RunFailed(f"{workload}: the run printed no result line")
    if not result.get("correct") or result.get("failed"):
        wrong = f"{result.get('failed')} of {result.get('attempted')} answers wrong"
        raise RunFailed(f"{workload}: {wrong}")
    metrics = result.get("metrics", {})
    missing = [m for m in end_to_end if m not in metrics]
    if missing:
        raise RunFailed(f"{workload}: no {', '.join(missing)} in the result")
    return {
        "attempted": result["attempted"],
        "metrics": {m: metrics[m] for m in end_to_end},
    }


def median(runs: list[dict]) -> dict:
    """Each metric's median value over the runs, with its unit."""
    return {
        m: {
            "value": statistics.median(r["metrics"][m]["value"] for r in runs),
            "unit": first["unit"],
        }
        for m, first in runs[0]["metrics"].items()
    }


def run(workload: str, seed: int, seconds: float, end_to_end: list[str]) -> dict:
    cmd = [
        sys.executable, str(ROOT / "guardbench" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RunFailed(f"{workload}: exit status {proc.returncode}: {proc.stderr.strip()}")
    return fold(workload, proc.stdout, end_to_end)


def guardbench_texts(root: Path = ROOT):
    """guardbench/texts.py of the checkout at root, with its src/ on the
    import path."""
    if str(root / "src") not in sys.path:
        sys.path.insert(0, str(root / "src"))
    path = root / "guardbench" / "texts.py"
    spec = importlib.util.spec_from_file_location("guardbench_texts", path)
    texts = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(texts)
    return texts


def counted_texts(root: Path = ROOT) -> dict[str, str]:
    """The text of each scenario in COUNTED, by its name family+n, from
    the checkout at root."""
    texts = guardbench_texts(root)
    out = {}
    for family, n in COUNTED:
        # the m = 0 and k = 0 edits leave the bundled text as it is
        edit = texts.sim2_extra_effects if family == "sim2" else texts.sim1_idle
        out[f"{family}+{n}"] = edit(texts.bundled_text(family), n)
    return out


def counters(root: Path = ROOT) -> dict:
    """The counters section (see the module docstring), from the
    checkout at root: the searches are read from ProveResult.stats
    through the guard's and the double-effect check's prove bindings."""
    texts = counted_texts(root)
    from modalguard import ethics, guard
    from modalguard.scenario import parse_scenario

    prove = guard.prove
    results: list = []

    def recording(*args, **kwargs):
        results.append(prove(*args, **kwargs))
        return results[-1]

    section = {}
    guard.prove = ethics.prove = recording
    try:
        for name, text in texts.items():
            sc = parse_scenario(text, name)
            results.clear()
            garbage = cyclic_garbage(partial(guard.adjudicate, sc))
            routes: dict[str, int] = {}
            for r in results:
                route = r.stats.get("route", r.status)
                routes[route] = routes.get(route, 0) + 1
            section[name] = {
                "searches": dict(sorted(routes.items())),
                **{k: sum(r.stats.get(k, 0) for r in results) for k in SUMMED},
                "cyclic_garbage": garbage,
            }
    finally:
        guard.prove = ethics.prove = prove
    return section


def cyclic_garbage(call) -> int:
    """What gc.collect() finds unreachable after call, run with the
    collector off: the objects on the reference cycles it left."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def least_cpu_ms(calls: dict) -> dict:
    """The least CPU time of each of the named calls, in ms, over
    TIMED_CALLS passes that each call every one once, in order."""
    best = dict.fromkeys(calls, float("inf"))
    for _ in range(TIMED_CALLS):
        for name, call in calls.items():
            start = time.process_time()
            call()
            best[name] = min(best[name], time.process_time() - start)
    return {name: round(t * 1e3, 4) for name, t in best.items()}


def entailed_queries(root: Path = ROOT) -> dict[str, tuple]:
    """(assumptions, goal, signature) of each timed oracle query, from
    the checkout at root: sim1_guilty's obligation query over its
    adjudication theory, and query_mix's shooter->ai prevention query
    over sim1's facts and trace."""
    texts = guardbench_texts(root)
    from modalguard.guard import (
        adjudication_theory,
        obligation_goal,
        prevents_body,
        projected_facts,
    )
    from modalguard.scenario import parse_scenario
    from modalguard.syntax import Const, moment

    sim1 = texts.bundled_text("sim1")
    guilty = parse_scenario(texts.sim1_guilty(sim1), "sim1_guilty")
    sc = parse_scenario(sim1, "sim1")
    c = {name: Const(name, sort) for name, sort in sc.sig.constants.items()}
    return {
        "sim1_guilty": (
            list(adjudication_theory(guilty)[0]), obligation_goal(guilty), guilty.sig
        ),
        "shooter-ai": (
            projected_facts(sc, sc.theory)[0],
            prevents_body(c["shooter"], c["ai"], c["g_live"], c["fire"], moment(1)),
            sc.sig,
        ),
    }


def reference_loop() -> int:
    """A fixed loop of plain Python arithmetic, timed as the host's pace."""
    return sum(i * i % 7 for i in range(100_000))


def timings(root: Path = ROOT) -> dict:
    """The timings section (see the module docstring), from the checkout
    at root."""
    texts = counted_texts(root)
    queries = entailed_queries(root)
    from modalguard.guard import adjudicate
    from modalguard.models import entails
    from modalguard.scenario import parse_scenario

    scenarios = {name: parse_scenario(text, name) for name, text in texts.items()}
    calls = {("reference_loop", None): reference_loop}
    for name, text in texts.items():
        calls["parse_scenario", name] = partial(parse_scenario, text, name)
    for name, sc in scenarios.items():
        calls["adjudicate", name] = partial(adjudicate, sc)
    for name, query in queries.items():
        calls["entails", name] = partial(entails, *query)
    out: dict = {"unit": "ms", "calls": TIMED_CALLS}
    for (section, name), ms in least_cpu_ms(calls).items():
        if name is None:
            out[section] = ms
        else:
            out.setdefault(section, {})[name] = ms
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pr", required=True, help="number in the file name BENCH_<pr>.json")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in bench["end_to_end"]]
    seconds = bench["run_seconds"]
    workloads = {}
    try:
        for w in bench["workloads"]:
            runs = []
            for seed in SEEDS:
                runs.append({"seed": seed, **run(w["name"], seed, seconds, end_to_end)})
                print(f"{w['name']} seed {seed}: {json.dumps(runs[-1]['metrics'])}")
            workloads[w["name"]] = {"runs": runs, "median": median(runs)}
    except RunFailed as e:
        print(f"bench_trajectory: {e}", file=sys.stderr)
        return 1
    out = ROOT / f"BENCH_{args.pr}.json"
    record = {
        "schema": SCHEMA,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "seconds": seconds,
        "seeds": list(SEEDS),
        "workloads": workloads,
        "counters": counters(),
        "timings": timings(),
    }
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
