"""The search digest prints one stable line per relevance-suite search."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "search_digest.py"
LINE = re.compile(
    r"(\d+) (proof|no_proof|incomplete|timeout) ([0-9a-f]{64}|-)"
    r" pruned_roots=(\d+|-) grounding_instances=(\d+|-) pure_instances=(\d+|-)"
    r" expansion_size=(\d+|-) generated_clauses=(\d+|-)"
)


def run() -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT)], capture_output=True, text=True, timeout=300
    )


def test_two_runs_print_identical_lines():
    first, second = run(), run()
    assert first.returncode == second.returncode == 0, first.stderr + second.stderr
    assert first.stdout == second.stdout
    lines = first.stdout.splitlines()
    assert len(lines) > 180
    for i, line in enumerate(lines):
        got = LINE.fullmatch(line)
        assert got, line
        assert int(got[1]) == i
        assert (got[3] == "-") == (got[2] != "proof")
