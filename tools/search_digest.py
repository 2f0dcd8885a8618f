"""Print one line per proof search of the relevance suite, to show that
searches are unchanged.

Run from the root of a checkout:

    python3 tools/search_digest.py

The searches are those of tests/test_relevance.py's every_result: every
search the guard runs on the sim1 and sim2 families, ablated sim1
included, the benchmark's prevention queries, and every corpus
problem's.  The script loads that file by path, so the searches stay
defined there.  For each search, in order, it prints

    <index> <status> <proof> pruned_roots=<n> grounding_instances=<n>
        pure_instances=<n> expansion_size=<n> generated_clauses=<n>

on one line, where <proof> is the sha256 of the proof's serialization,
or "-" when there is none, and a counter the search did not reach
prints as "-".  It runs against the src/ of the checkout it sits in, so
two checkouts' outputs can be compared line by line with diff.
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = ROOT / "tests"
sys.path[:0] = [str(ROOT / "src"), str(TESTS)]

COUNTERS = (
    "pruned_roots",
    "grounding_instances",
    "pure_instances",
    "expansion_size",
    "generated_clauses",
)


def load_relevance():
    path = TESTS / "test_relevance.py"
    spec = importlib.util.spec_from_file_location("test_relevance", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def digest_lines() -> list[str]:
    out = []
    for i, r in enumerate(load_relevance().every_result()):
        proof = "-"
        if r.proof is not None:
            proof = hashlib.sha256(r.proof.serialize().encode()).hexdigest()
        counters = " ".join(f"{name}={r.stats.get(name, '-')}" for name in COUNTERS)
        out.append(f"{i} {r.status} {proof} {counters}")
    return out


def main() -> int:
    for line in digest_lines():
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
