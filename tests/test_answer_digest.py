"""The answer digest prints one stable line per benchmark request, and
every line is the one recorded in digests/answer_digest.txt.

A change that means to change an answer re-records that file, from the
root of the checkout:

    python3 tools/answer_digest.py > tests/digests/answer_digest.txt
"""

from __future__ import annotations

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "answer_digest.py"
RECORDED = Path(__file__).resolve().parent / "digests" / "answer_digest.txt"


def load_script():
    spec = importlib.util.spec_from_file_location("answer_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args], capture_output=True, text=True, timeout=300
    )


def test_two_runs_print_identical_lines():
    first, second = run("guard_bundled"), run("guard_bundled")
    assert first.returncode == second.returncode == 0, first.stderr + second.stderr
    assert first.stdout == second.stdout
    lines = first.stdout.splitlines()
    assert len(lines) == 3
    for line in lines:
        workload, _, digest = line.split(" ")
        assert workload == "guard_bundled"
        assert re.fullmatch("[0-9a-f]{64}", digest)


@pytest.fixture(scope="module")
def every_workload() -> subprocess.CompletedProcess:
    done = run()
    assert done.returncode == 0, done.stderr
    return done


def test_each_pool_label_appears_exactly_once(every_workload):
    workloads = load_script().workloads
    done = every_workload
    got = [tuple(line.split(" ")[:2]) for line in done.stdout.splitlines()]
    want = [(name, req.label) for name, make in workloads.WORKLOADS.items() for req in make().pool]
    assert got == want
    assert len(set(got)) == len(got)


def test_every_answer_is_the_recorded_one(every_workload):
    assert every_workload.stdout.splitlines() == RECORDED.read_text().splitlines()


def test_an_unknown_workload_is_refused():
    done = run("no_such_workload")
    assert done.returncode == 2
    assert "unknown workload no_such_workload" in done.stderr
    assert done.stdout == ""
