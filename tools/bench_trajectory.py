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
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SCHEMA = "bench-trajectory/2"
SEEDS = (1, 2, 3)
ROOT = Path(__file__).resolve().parent.parent


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
    }
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
