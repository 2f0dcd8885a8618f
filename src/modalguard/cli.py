"""Command line entry points.

  modalguard parse <scenario>            validate a scenario file
  modalguard prove <scenario> <formula>  prove a goal from the scenario theory
  modalguard check-dde <scenario>        run the double-effect clauses
  modalguard simulate <scenario>         full adjudication

A scenario argument is a path, or the name of a bundled scenario
(see modalguard parse --list).  Exit codes: 0 success or ALLOW,
2 LOCK or non-compliant, 3 no proof, 4 budget exhausted, grounding
cap reached or modal depth limit reached, 1 error, 64 usage.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .eventcalc import ProjectionConflict
from .guard import ALLOW, adjudicate, adjudication_theory
from .parser import ParseError, parse_formula
from .proofs import verify_proof
from .prover import Budget, prove
from .report import render_json, render_text, report_data
from .scenario import Scenario, bundled_scenario_names, load_bundled_scenario, load_scenario
from .syntax import SortError, print_formula

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_LOCK = 2
EXIT_NO_PROOF = 3
EXIT_BUDGET = 4
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _budget(args: argparse.Namespace) -> Budget:
    return Budget(timeout_ms=args.timeout, depth=args.depth, max_clauses=args.clauses)


def _load(name: str) -> Scenario:
    p = Path(name)
    if p.exists():
        return load_scenario(p)
    if name in bundled_scenario_names():
        return load_bundled_scenario(name)
    raise FileNotFoundError(f"no scenario file or bundled scenario named {name}")


def _cmd_parse(args: argparse.Namespace) -> int:
    if args.list:
        for n in bundled_scenario_names():
            print(n)
        return EXIT_OK
    if args.scenario is None:
        print("parse: a scenario is required unless --list is given", file=sys.stderr)
        return EXIT_USAGE
    sc = _load(args.scenario)
    th = sc.theory
    print(
        f"{sc.name}: ok"
        f" ({len(sc.facts)} facts, {len(th.axioms)} effect axioms,"
        f" {len(th.occurrences)} occurrences, horizon {th.horizon},"
        f" request {sc.request.agent.name} {sc.request.atype.name}"
        f" at {sc.request.moment})"
    )
    return EXIT_OK


def _cmd_prove(args: argparse.Namespace) -> int:
    sc = _load(args.scenario)
    goal = parse_formula(args.goal, sc.sig)
    assumptions, _ = adjudication_theory(sc)
    res = prove(assumptions, goal, _budget(args), sc.sig)
    if res.status == "proof":
        ok = verify_proof(res.proof, assumptions, goal, sc.sig)
        print(f"proof of {print_formula(goal)} ({len(res.proof.steps)} steps, "
              f"{'verified' if ok else 'NOT VERIFIED'})")
        if args.trace:
            print(res.proof.serialize())
        return EXIT_OK if ok else EXIT_ERROR
    print(f"{res.status}: {print_formula(goal)}")
    return EXIT_NO_PROOF if res.status == "no_proof" else EXIT_BUDGET


def _cmd_check_dde(args: argparse.Namespace) -> int:
    sc = _load(args.scenario)
    verdict = adjudicate(sc, _budget(args))
    if verdict.dde is None:
        print(
            "double effect not evaluated: "
            + ("no obligation applies" if verdict.prove_status == "no_proof"
               else verdict.reason)
        )
        return EXIT_OK if verdict.decision == ALLOW else EXIT_LOCK
    if args.format == "json":
        print(render_json(sc, verdict))
    else:
        d = report_data(sc, verdict)["double_effect"]
        for k, c in d["clauses"].items():
            print(f"{k}: {c['status']}  {c['detail']}")
        print(f"net utility: {d['net_utility']}")
        print("compliant" if d["compliant"] else "non-compliant")
    return EXIT_OK if verdict.dde.compliant else EXIT_LOCK


def _cmd_simulate(args: argparse.Namespace) -> int:
    sc = _load(args.scenario)
    verdict = adjudicate(sc, _budget(args))
    if args.format == "json":
        print(render_json(sc, verdict))
    else:
        print(render_text(sc, verdict, include_proof=args.trace))
    return EXIT_OK if verdict.decision == ALLOW else EXIT_LOCK


def build_parser() -> _Parser:
    # The shared flags live on a parent parser with SUPPRESS defaults so they
    # can be given before or after the subcommand without the subparser's
    # defaults clobbering values parsed at the top level.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--timeout", type=int, default=argparse.SUPPRESS,
                        help="prover budget in ms")
    common.add_argument("--depth", type=int, default=argparse.SUPPRESS,
                        help="modal closure depth")
    common.add_argument("--clauses", type=int, default=argparse.SUPPRESS,
                        help="clause budget")
    common.add_argument("--format", choices=("text", "json"),
                        default=argparse.SUPPRESS)
    common.add_argument("--trace", action="store_true",
                        default=argparse.SUPPRESS, help="include proof steps")

    p = _Parser(prog="modalguard", description=__doc__.splitlines()[0],
                parents=[common])
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("parse", help="validate a scenario file",
                        parents=[common])
    sp.add_argument("scenario", nargs="?")
    sp.add_argument("--list", action="store_true", help="list bundled scenarios")
    sp.set_defaults(fn=_cmd_parse)

    sp = sub.add_parser("prove", help="prove a goal from the scenario theory",
                        parents=[common])
    sp.add_argument("scenario")
    sp.add_argument("goal")
    sp.set_defaults(fn=_cmd_prove)

    sp = sub.add_parser("check-dde", help="run the double-effect clauses",
                        parents=[common])
    sp.add_argument("scenario")
    sp.set_defaults(fn=_cmd_check_dde)

    sp = sub.add_parser("simulate", help="full adjudication",
                        parents=[common])
    sp.add_argument("scenario")
    sp.set_defaults(fn=_cmd_simulate)
    return p


_DEFAULT_BUDGET = Budget()
_FLAG_DEFAULTS = {
    "timeout": _DEFAULT_BUDGET.timeout_ms,
    "depth": _DEFAULT_BUDGET.depth,
    "clauses": _DEFAULT_BUDGET.max_clauses,
    "format": "text",
    "trace": False,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for k, v in _FLAG_DEFAULTS.items():
        if not hasattr(args, k):
            setattr(args, k, v)
    try:
        return args.fn(args)
    except (ParseError, SortError, ProjectionConflict, OSError, KeyError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
