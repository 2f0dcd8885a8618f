"""End-to-end checks of the command line interface.

Every test drives a real subprocess so exit codes, stream routing,
and argument handling are observed exactly as a shell would see them.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from modalguard import cli
from modalguard.cli import main
from modalguard.prover import Budget

OBLIGATION_GOAL = (
    "(obligated shooter 1 sigma_default"
    " (not (happens (action shooter fire) 1)))"
)


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "modalguard.cli", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


# --- parse ---------------------------------------------------------------


def test_parse_list_names_bundled_scenarios():
    r = run_cli("parse", "--list")
    assert r.returncode == 0
    assert r.stdout.splitlines() == ["sim1", "sim2"]


def test_parse_summarises_the_scenario():
    r = run_cli("parse", "sim1")
    assert r.returncode == 0
    assert r.stdout.startswith("sim1: ok")
    assert "horizon 3" in r.stdout
    assert "request shooter fire at 1" in r.stdout


def test_parse_accepts_a_file_path():
    r = run_cli("parse", "src/modalguard/scenarios/sim2.scn")
    assert r.returncode == 0
    assert r.stdout.startswith("sim2: ok")


def test_parse_without_scenario_is_a_usage_error():
    r = run_cli("parse")
    assert r.returncode == 64


# --- simulate ------------------------------------------------------------


def test_simulate_locks_the_malevolent_request():
    r = run_cli("simulate", "sim1")
    assert r.returncode == 2
    assert "decision: LOCK" in r.stdout
    assert "C1, C2, C3" in r.stdout
    assert "verified" in r.stdout
    assert "NOT VERIFIED" not in r.stdout


def test_simulate_reports_deep_nesting_as_a_parse_error(tmp_path):
    text = (Path(cli.__file__).parent / "scenarios" / "sim1.scn").read_text()
    deep = "(not " * 600 + "(innocent victim)" + ")" * 600
    path = tmp_path / "deep.scn"
    path.write_text(text.replace("  (innocent victim)\n", f"  (innocent victim)\n  {deep}\n"))
    r = run_cli("simulate", str(path))
    assert r.returncode == 1
    assert "nest deeper than" in r.stderr
    assert "Traceback" not in r.stderr


def test_simulate_refuses_a_reserved_name(tmp_path):
    # b0 is how an identity key prints a binder: declared, it would let
    # (forall x (Friend x b0)) and (forall x (Friend x x)) share a key
    text = (Path(cli.__file__).parent / "scenarios" / "sim1.scn").read_text()
    text = text.replace("(ai Agent)", "(ai Agent) (b0 Agent)")
    text = text.replace("(functions", "(predicates (Friend Agent Agent))\n\n(functions")
    text = text.replace(
        "  (innocent victim)\n",
        "  (forall x : Agent (Friend x b0))\n"
        "  (forall x : Agent (Friend x x))\n"
        "  (forall p : Agent (implies (Friend p p) (innocent p)))\n",
    )
    path = tmp_path / "b0.scn"
    path.write_text(text)
    r = run_cli("simulate", str(path))
    assert r.returncode == 1
    assert "b0 has the reserved shape b<digits>" in r.stderr
    assert "Traceback" not in r.stderr
    # under a free name the same facts oblige the shooter to refrain
    path.write_text(text.replace("b0", "zed"))
    r = run_cli("simulate", str(path))
    assert r.returncode == 2
    assert "decision: LOCK" in r.stdout


def test_conflicting_effects_lock_simulate_and_fail_prove(tmp_path):
    text = (Path(cli.__file__).parent / "scenarios" / "sim1.scn").read_text()
    path = tmp_path / "conflict.scn"
    path.write_text(text.replace(
        "((pos (alive victim)))))",
        "((pos (alive victim))))\n  ((action shooter fire) initiates (alive victim)))",
    ))
    r = run_cli("simulate", str(path))
    assert r.returncode == 2
    assert "decision: LOCK" in r.stdout
    assert "ProjectionConflict" in r.stdout
    assert "Traceback" not in r.stderr
    # prove builds the same theory, and reports the conflict as an error
    r = run_cli("prove", str(path), "(holds (alive victim) 0)")
    assert r.returncode == 1
    assert "both initiated" in r.stderr
    assert "Traceback" not in r.stderr


def test_simulate_allows_the_defensive_request():
    r = run_cli("simulate", "sim2")
    assert r.returncode == 0
    assert "decision: ALLOW" in r.stdout
    assert "overridden" in r.stdout


def test_simulate_json_report_is_well_formed():
    r = run_cli("--format", "json", "simulate", "sim1")
    assert r.returncode == 2
    data = json.loads(r.stdout)
    assert data["decision"] == "LOCK"
    assert data["proof_verified"] is True
    assert sorted(data["double_effect"]["clauses"]) == ["C1", "C2", "C3", "C4"]


def test_global_flags_work_before_or_after_the_subcommand():
    # a regression trap: subparser defaults must not clobber flags that
    # were given before the subcommand
    before = run_cli("--format", "json", "simulate", "sim2")
    after = run_cli("simulate", "sim2", "--format", "json")
    assert before.returncode == after.returncode == 0
    a, b = json.loads(before.stdout), json.loads(after.stdout)
    a.pop("elapsed_ms"), b.pop("elapsed_ms")
    assert a == b


def test_starved_budget_fails_safe_to_lock():
    r = run_cli("--timeout", "1", "simulate", "sim1")
    assert r.returncode == 2
    assert "failing safe" in r.stdout
    assert "obligation proof: none (timeout)" in r.stdout


def test_unknown_scenario_is_an_error():
    r = run_cli("simulate", "nosuch")
    assert r.returncode == 1
    assert "no scenario file" in r.stderr


# --- prove ---------------------------------------------------------------


def test_prove_reports_a_verified_proof():
    r = run_cli("prove", "sim1", "(holds (alive victim) 0)")
    assert r.returncode == 0
    assert "verified" in r.stdout
    assert "NOT VERIFIED" not in r.stdout


def test_prove_trace_prints_the_steps():
    r = run_cli("--trace", "prove", "sim1", "(holds (alive victim) 0)")
    assert r.returncode == 0
    assert "1. (holds (alive victim) 0) [assumption]" in r.stdout


def test_prove_unprovable_goal_exits_three():
    r = run_cli("prove", "sim1", "(happens (action shooter fire) 2)")
    assert r.returncode == 3
    assert r.stdout.startswith("no_proof:")


def test_prove_exhausted_clause_budget_exits_four():
    r = run_cli("--clauses", "1", "prove", "sim1", OBLIGATION_GOAL)
    assert r.returncode == 4
    assert r.stdout.startswith("timeout:")


def test_prove_bad_formula_is_an_error():
    r = run_cli("prove", "sim1", "(rains)")
    assert r.returncode == 1
    assert "unknown predicate" in r.stderr


# --- check-dde -----------------------------------------------------------


def test_check_dde_noncompliant_scenario():
    r = run_cli("check-dde", "sim1")
    assert r.returncode == 2
    assert "C1: fail" in r.stdout
    assert "C4: pass" in r.stdout
    assert r.stdout.rstrip().endswith("non-compliant")


def test_check_dde_compliant_scenario():
    r = run_cli("check-dde", "sim2")
    assert r.returncode == 0
    assert "net utility: 3" in r.stdout
    assert r.stdout.rstrip().endswith("compliant")


# --- plumbing ------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("frobnicate", "sim1"),  # unknown subcommand
        ("simulate",),  # missing positional
        ("--depth", "x", "simulate", "sim1"),  # non-integer flag
    ],
)
def test_usage_errors_exit_sixty_four(argv):
    r = run_cli(*argv)
    assert r.returncode == 64
    assert "usage:" in r.stderr


def test_console_script_is_installed():
    path = shutil.which("modalguard")
    assert path is not None
    r = subprocess.run(
        [path, "parse", "--list"], capture_output=True, text=True, timeout=60
    )
    assert r.returncode == 0
    assert "sim1" in r.stdout


def test_main_is_importable_and_returns_the_exit_code(capsys):
    assert main(["parse", "sim1"]) == 0
    assert main(["simulate", "nosuch"]) == 1
    out = capsys.readouterr()
    assert "sim1: ok" in out.out
    assert "no scenario file" in out.err


def test_budget_flags_default_to_the_prover_budget(monkeypatch):
    seen = []

    def capture(args):
        seen.append(cli._budget(args))
        return 0

    monkeypatch.setattr(cli, "_cmd_simulate", capture)
    assert main(["simulate", "sim1"]) == 0
    assert seen == [Budget()]
