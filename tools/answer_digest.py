"""Print one digest per benchmark request, to show that answers are unchanged.

Run from the root of a checkout:

    python3 tools/answer_digest.py [workload ...]

For every request of each named workload (default: every workload in
guardbench/workloads.py, in its order) the script prints

    <workload> <label> <sha256>

where the hash is over what the request answers, with the wall clock
left out:

  - a guard request: its JSON report without elapsed_ms;
  - a prevention query: the answer, the proof's serialization, the
    countermodel and the reason;
  - a double-effect check: each clause's status and detail, the
    effects and the net utility.

The script imports guardbench/workloads.py and changes nothing there.
It runs against the src/ of the checkout it sits in, so two checkouts'
outputs can be compared line by line with diff.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "guardbench")]

import workloads  # noqa: E402
from modalguard.syntax import print_term  # noqa: E402


def answer(req) -> object:
    """What the request answers, as plain data without timings."""
    got = req.send(req)
    if req.send is workloads.send_guard:
        report = json.loads(got)
        del report["elapsed_ms"]
        return report
    if req.send is workloads.send_dde:
        return {
            "clauses": {k: [c.status, c.detail] for k, c in sorted(got.clauses.items())},
            "effects": [
                [e.kind, print_term(e.fluent), print_term(e.event), e.moment] for e in got.effects
            ],
            "net_utility": got.net_utility,
        }
    res, _ = got
    return {
        "answer": res.answer,
        "proof": res.proof.serialize() if res.proof else None,
        "countermodel": res.countermodel,
        "reason": res.reason,
    }


def digest_lines(names: list[str]) -> list[str]:
    out = []
    for name in names:
        for req in workloads.WORKLOADS[name]().pool:
            blob = json.dumps(answer(req), sort_keys=True).encode()
            out.append(f"{name} {req.label} {hashlib.sha256(blob).hexdigest()}")
    return out


def main(argv: list[str] | None = None) -> int:
    names = list(sys.argv[1:] if argv is None else argv) or list(workloads.WORKLOADS)
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print(f"answer_digest: unknown workload {', '.join(unknown)}", file=sys.stderr)
        return 2
    for line in digest_lines(names):
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
