"""Guard benchmark: one closed-loop client, verdict-checked requests.

Run from the root of a checkout:

    python3 guardbench/run.py --workload guard_bundled --seed 1 --seconds 30 --trace 0

One process, one client, no threads: each request is sent only after
the previous answer arrived and was checked.  The program receives
only generated scenario text.  Times are read on a clock corrected
for processor contention (see reference_loop).  With --trace 0 the run
times requests untraced and prints the end-to-end metrics; with
--trace 1 it prints
per-layer metrics from spans recorded around modalguard's layers (see
tracing.py).  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  Exit status is 0
when every answer was right, 1 when one was not or the run could not
be made, 2 when no modalguard source tree is found.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional

SCHEMA = "guardbench/1"
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
# set-up is repeated and its median reported, so one slow repetition
# does not read as a set-up regression
SETUP_REPS = 5
# The reference loop of the corrected clock (see reference_loop): its
# iteration count, and the time it takes on an uncontended core of the
# host the benchmark was defined on (an Intel Xeon virtual machine).
REF_ITERATIONS = 30000
REF_NOMINAL_S = 0.001


def _fail(message: str, code: int = 1) -> None:
    print(f"guardbench: {message}", file=sys.stderr)
    raise SystemExit(code)


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def reference_loop() -> float:
    """Wall time of a fixed pure-Python loop.

    On a shared host, other tenants slow the processor two- to
    threefold, for spells from a fraction of a second to minutes, so a
    wall-clock time says as much about the neighbours as about the
    program.  Every time the benchmark reports is therefore read on a
    corrected clock: the wall time of a piece of work, times
    REF_NOMINAL_S over the mean of this loop's time just before and just
    after the work.  That is the time the work would take with the
    processor running the loop at its nominal speed."""
    t0 = perf_counter()
    x = 0
    for i in range(REF_ITERATIONS):
        x += i
    return perf_counter() - t0


def corrected(wall: float, before: float, after: float) -> float:
    return wall * REF_NOMINAL_S * 2.0 / (before + after)


@dataclass
class Loop:
    """What one closed-loop pass measured."""

    times: dict[str, list[float]] = field(default_factory=dict)  # label -> corrected s per send
    walls: dict[str, list[float]] = field(default_factory=dict)  # label -> wall s per send
    order: list[str] = field(default_factory=list)  # labels in the order sent
    correction: list[float] = field(default_factory=list)  # corrected over wall time, per send
    errors: list[str] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def sends(self) -> int:
        return len(self.order)

    def verdict_ms(self) -> list[float]:
        """Time of every send, each taken at the median corrected time of
        its request in this pass."""
        med = {label: statistics.median(ts) for label, ts in self.times.items()}
        return [med[label] * 1000.0 for label in self.order]

    def verdicts_per_s(self) -> float:
        return 1000.0 * self.sends / sum(self.verdict_ms())


def send(req, tracer=None):
    """One request and its verdict check; (seconds, error or None)."""
    t0 = perf_counter()
    try:
        if tracer is None:
            answer = req.send(req)
        else:
            with tracer.request(req.label):
                answer = req.send(req)
    except Exception:
        took = perf_counter() - t0
        return took, f"{req.label} raised:\n{traceback.format_exc()}"
    took = perf_counter() - t0
    error = req.check(answer)
    return took, None if error is None else f"{req.label}: {error}"


def closed_loop(pool, rng: random.Random, seconds: float, tracer=None) -> Loop:
    """Whole cycles, each a seeded shuffle of the pool, until the time
    is used up; whole cycles keep the mix equal on every run.  The
    reference loop runs between sends, outside their timing."""
    out = Loop()
    gc.collect()
    start = perf_counter()
    before = reference_loop()
    while True:
        for req in rng.sample(pool, len(pool)):
            took, error = send(req, tracer)
            after = reference_loop()
            fixed = corrected(took, before, after)
            before = after
            out.times.setdefault(req.label, []).append(fixed)
            out.walls.setdefault(req.label, []).append(took)
            out.correction.append(fixed / took)
            out.order.append(req.label)
            if error is not None:
                out.errors.append(error)
        out.elapsed = perf_counter() - start
        if out.elapsed >= seconds:
            return out


def set_up(name: str):
    """Import modalguard, generate and check every scenario text, send
    one warm-up request.  Each call imports afresh, so repeating it
    repeats the import too."""
    for mod in list(sys.modules):
        if mod.split(".")[0] in ("modalguard", "workloads", "texts"):
            del sys.modules[mod]
    t0 = perf_counter()
    workloads = importlib.import_module("workloads")
    if name not in workloads.WORKLOADS:
        _fail(f"unknown workload {name}; one of {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[name]()
    workloads.check_texts(wl)
    _, error = send(wl.warmup)
    took = perf_counter() - t0
    if error is not None:
        _fail(f"warm-up request failed: {error}")
    return workloads, wl, took


def end_to_end(loop: Loop, setup_s: float) -> dict:
    lat_ms = loop.verdict_ms()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "verdicts_per_s": (loop.verdicts_per_s(), "1/s"),
        "verdict_ms.p50": (statistics.median(lat_ms), "ms"),
        "verdict_ms.p90": (statistics.quantiles(lat_ms, n=10, method="inclusive")[8], "ms"),
        "correct_share": ((loop.sends - len(loop.errors)) / loop.sends, "share"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }


# layers whose busy time, self time or call count is reported
BUSY = (
    "resolution.saturate",
    "schemata.expand_modal",
    "schemata.harvest_join_targets",
    "shadow.shadow",
    "clauses.clausify",
    "models.entails",
    "proofs.verify_proof",
    "eventcalc.project",
    "eventcalc.effects_of",
    "scenario.parse_scenario",
    "report.render_json",
)
SELF = ("prover.prove", "guard.adjudicate", "guard.prevents_holds", "ethics.check_dde")
CALLS = ("prover.prove", "shadow.shadow", "models.entails", "proofs.verify_proof", "eventcalc.project")


def per_layer(profiles, traced: Loop, untraced: Loop) -> dict:
    """Per-send means over the traced pass, plus tracing overhead.  Layer
    times are read on the corrected clock of their send."""
    n = len(profiles)
    if n != traced.sends:
        raise RuntimeError(f"{n} traced requests for {traced.sends} sends")

    def mean(f) -> float:
        return sum(f(p) for p in profiles) / n

    def mean_ms(f) -> float:
        return sum(f(p) * k for p, k in zip(profiles, traced.correction)) * 1000.0 / n

    def counter(layer: str, key: str) -> float:
        return mean(lambda p: p.counters.get(layer, {}).get(key, 0))

    m: dict = {}
    for layer in BUSY:
        m[f"{layer}.busy_ms"] = (mean_ms(lambda p: p.busy.get(layer, 0.0)), "ms")
    for layer in SELF:
        m[f"{layer}.self_ms"] = (mean_ms(lambda p: p.self_time.get(layer, 0.0)), "ms")
    for layer in CALLS:
        m[f"{layer}.calls"] = (mean(lambda p: p.calls.get(layer, 0)), "count")
    proves = sum(p.calls.get("prover.prove", 0) for p in profiles)
    assumptions = sum(p.counters.get("prover.prove", {}).get("assumptions", 0) for p in profiles)
    nodes = sum(p.counters.get("resolution.saturate", {}).get("nodes", 0) for p in profiles)
    used = sum(p.counters.get("resolution.saturate", {}).get("used", 0) for p in profiles)
    m["prover.prove.assumptions"] = (assumptions / proves if proves else 0.0, "count")
    m["prover.grounding_instances"] = (counter("prover.prove", "grounding_instances"), "count")
    m["schemata.expansion_size"] = (counter("prover.prove", "expansion_size"), "count")
    m["clauses.input_clauses"] = (counter("clauses.clausify", "clauses"), "count")
    m["resolution.generated_clauses"] = (counter("resolution.saturate", "generated"), "count")
    m["resolution.useful_ratio"] = (used / nodes if nodes else 0.0, "ratio")
    m["ethics.c3_prove_calls"] = (mean(lambda p: p.sites.get("ethics.prove", 0)), "count")
    m["trace.request_ms"] = (mean_ms(lambda p: p.duration), "ms")
    m["trace.verdicts_per_s"] = (traced.verdicts_per_s(), "1/s")
    m["trace.untraced_verdicts_per_s"] = (untraced.verdicts_per_s(), "1/s")
    m["trace.overhead_ratio"] = (untraced.verdicts_per_s() / traced.verdicts_per_s(), "ratio")
    return m


def traced_run(workloads, tracing, wl, rng, seconds: float, report: dict) -> tuple[list[Loop], dict]:
    """Untraced and traced passes of half the time each, a traced
    replay of the pool that must repeat every counter, and the
    workload's k-curve if it has one."""
    untraced = closed_loop(wl.pool, rng, seconds / 2)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = closed_loop(wl.pool, rng, seconds / 2, tracer)
    profiles = tracing.profiles(tracer)
    spans = {"traced": tracer.dump()}

    for p in profiles:
        gap = abs(sum(p.self_time.values()) - p.duration)
        if gap > 1e-6:
            _fail(f"self times of a {p.label} request miss its duration by {gap} s")
    called = {name for p in profiles for name in p.calls}
    stale = [layer for layer in wl.layers if layer not in called]
    if stale:
        _fail(f"traced layers never called: {', '.join(stale)}; a hook in tracing.py is stale")

    replay = tracing.Tracer()
    with tracing.installed(replay):
        replayed = closed_loop(wl.pool, random.Random(0), 0.0, replay)
    spans["replay"] = replay.dump()
    first = {}
    for p in profiles:
        first.setdefault(p.label, p)
    mismatched = [
        p.label for p in tracing.profiles(replay) if p.deterministic() != first[p.label].deterministic()
    ]
    report["determinism"] = {"replayed": len(wl.pool), "mismatched": mismatched}
    for label in mismatched:
        replayed.errors.append(f"{label}: per-layer counters differ on replay (nondeterminism)")

    if wl.kcurve:
        report["kcurve"], spans["kcurve"] = kcurve(workloads, tracing, wl.kcurve)

    write_spans(spans, report)
    return [untraced, traced, replayed], per_layer(profiles, traced, untraced)


def kcurve(workloads, tracing, ks: tuple[int, ...]) -> tuple[list, dict]:
    """One traced adjudication of sim1 + k idle agents and goals per k.
    Informational: answers are recorded, not checked, and the largest k
    may end in a budget LOCK."""
    sim1 = workloads.texts.bundled_text("sim1")
    tracer = tracing.Tracer()
    reports = []
    with tracing.installed(tracer):
        for k in ks:
            req = workloads.scaled_request(sim1, k)
            with tracer.request(req.label):
                reports.append(json.loads(req.send(req)))
    rows = []
    for k, out, p in zip(ks, reports, tracing.profiles(tracer)):
        rows.append(
            {
                "k": k,
                "ms": p.duration * 1000.0,
                "decision": out["decision"],
                "prove_status": out["prove_status"],
                "busy_ms": {name: s * 1000.0 for name, s in sorted(p.busy.items())},
                "self_ms": {name: s * 1000.0 for name, s in sorted(p.self_time.items())},
                "counters": p.counters,
            }
        )
        print(f"kcurve k={k} {p.duration * 1000.0:.1f} ms {out['decision']} {out['prove_status']}")
    return rows, tracer.dump()


def write_spans(spans: dict, report: dict) -> None:
    RESULTS.mkdir(exist_ok=True)
    name = f"{report['workload']}-seed{report['seed']}.spans.json.gz"
    with gzip.open(RESULTS / name, "wt") as f:
        json.dump({"meta": report["meta"], **spans}, f)
    report["spans_file"] = str((RESULTS / name).relative_to(ROOT))


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "modalguard" / "__init__.py").is_file():
        _fail(f"no modalguard source tree under {SRC}", 2)
    sys.path.insert(0, str(SRC))
    setups = []
    before = reference_loop()
    for _ in range(SETUP_REPS):
        workloads, wl, took = set_up(args.workload)
        after = reference_loop()
        setups.append(corrected(took, before, after))
        before = after
    setup_s = statistics.median(setups)
    imported = Path(sys.modules["modalguard"].__file__).resolve()
    if not imported.is_relative_to(SRC):
        _fail(f"imported modalguard from {imported}, not from {SRC}", 2)
    import tracing

    report = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "meta": {
            "schema": SCHEMA,
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
            "seed": args.seed,
            "commit": git_commit(),
        },
    }
    print(f"guardbench {wl.name} seed={args.seed} trace={args.trace} " + json.dumps(report["meta"]))
    rng = random.Random(args.seed)
    try:
        if args.trace:
            loops, metrics = traced_run(workloads, tracing, wl, rng, args.seconds, report)
        else:
            loop = closed_loop(wl.pool, rng, args.seconds)
            loops, metrics = [loop], end_to_end(loop, setup_s)
    except tracing.HookMissing as e:
        _fail(str(e))

    attempted = sum(lp.sends for lp in loops)
    errors = [e for lp in loops for e in lp.errors]
    passes = ("untraced pass", "traced pass", "traced replay") if args.trace else ("timed loop",)
    for what, lp in zip(passes, loops):
        print(
            f"{what}: {lp.sends} requests in {lp.elapsed:.2f} s, {len(lp.errors)} failed, "
            f"corrected/wall time {statistics.median(lp.correction):.3f}"
        )
    if not args.trace:
        print(f"failed_share {len(errors) / attempted} share")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    for e in errors[:5]:
        print(f"guardbench: failed request: {e}", file=sys.stderr)
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report["requests_ms"] = {
        label: {
            "sends": len(ts),
            "corrected_median": statistics.median(ts) * 1000.0,
            "wall_median": statistics.median(loops[0].walls[label]) * 1000.0,
            "wall_fastest": min(loops[0].walls[label]) * 1000.0,
        }
        for label, ts in sorted(loops[0].times.items())
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1))

    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": attempted,
                "failed": len(errors),
                "metrics": report["metrics"],
            }
        )
    )
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
