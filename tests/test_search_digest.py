"""The search digest prints one stable line per relevance-suite search,
and each search's status and proof hash are the ones recorded in
digests/search_digest.txt.

The counters are not compared: a change may move them.  A change that
means to change a status or a proof re-records that file, from the root
of the checkout:

    python3 tools/search_digest.py > tests/digests/search_digest.txt
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "search_digest.py"
RECORDED = Path(__file__).resolve().parent / "digests" / "search_digest.txt"
LINE = re.compile(
    r"(\d+) (proof|no_proof|incomplete|timeout) ([0-9a-f]{64}|-)"
    r" pruned_roots=(\d+|-) grounding_instances=(\d+|-) pure_instances=(\d+|-)"
    r" expansion_size=(\d+|-) generated_clauses=(\d+|-)"
)


def run() -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT)], capture_output=True, text=True, timeout=300
    )


@pytest.fixture(scope="module")
def two_runs() -> tuple[subprocess.CompletedProcess, subprocess.CompletedProcess]:
    return run(), run()


def held_fixed(text: str) -> list[list[str]]:
    """Each line's index, status and proof hash."""
    return [line.split(" ")[:3] for line in text.splitlines()]


def test_two_runs_print_identical_lines(two_runs):
    first, second = two_runs
    assert first.returncode == second.returncode == 0, first.stderr + second.stderr
    assert first.stdout == second.stdout
    lines = first.stdout.splitlines()
    assert len(lines) > 180
    for i, line in enumerate(lines):
        got = LINE.fullmatch(line)
        assert got, line
        assert int(got[1]) == i
        assert (got[3] == "-") == (got[2] != "proof")


def test_each_status_and_proof_is_the_recorded_one(two_runs):
    first, _ = two_runs
    assert first.returncode == 0, first.stderr
    assert held_fixed(first.stdout) == held_fixed(RECORDED.read_text())
