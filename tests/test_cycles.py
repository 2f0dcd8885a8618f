"""A request leaves no reference cycle behind.

Reference counting frees what a request allocates as soon as it is
dead, unless it lies on a cycle: then only the interpreter's cyclic
collector reclaims it, in pauses that fall on later requests.  A nested
function that loads its own name is such a cycle (function -> closure
cell -> function), and it keeps alive everything it captured.

The runtime tests switch the collector off, run one entry point, and
ask gc.collect() how many unreachable objects it found: none.  The
static test reads src/ for nested functions that call themselves, or
each other, through their closure cells, so that paths the runtime
tests do not take are covered too.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from modalguard import ethics, guard, proofs
from modalguard.scenario import parse_scenario
from modalguard.syntax import Const

from test_bench_trajectory import BT
from test_prover import load_guardbench_texts

SRC = Path(__file__).resolve().parent.parent / "src" / "modalguard"
TEXTS = load_guardbench_texts()
SIM1_TEXT = TEXTS.bundled_text("sim1")
SIM2_TEXT = TEXTS.bundled_text("sim2")
SIM1 = parse_scenario(SIM1_TEXT, "sim1")
SIM2 = parse_scenario(SIM2_TEXT, "sim2")
SIM1_GUILTY = parse_scenario(TEXTS.sim1_guilty(SIM1_TEXT), "sim1_guilty")
# gc.collect()'s count of what a call leaves on reference cycles, the
# collector off during the call
cyclic_garbage = BT.cyclic_garbage


def prevention(y: str):
    a = {n: Const(n, s) for n, s in SIM1.sig.constants.items()}
    return lambda: guard.prevents_holds(SIM1, a["shooter"], a[y], a["g_live"], a["fire"], 1)


def dde_on_sim2():
    assumptions, _ = guard.base_theory(SIM2)
    r = SIM2.request
    return ethics.check_dde(
        SIM2.theory, r.agent, r.atype, r.moment, SIM2.hierarchy, SIM2.utilities, assumptions, SIM2.sig
    )


def verify_sim1_proof():
    proof = guard.adjudicate(SIM1).proof
    assumptions, _ = guard.adjudication_theory(SIM1)
    return lambda: proofs.verify_proof(proof, assumptions, guard.obligation_goal(SIM1), SIM1.sig)


# report.render_json is left out: json.dumps(indent=2) runs the
# standard library's pure-Python encoder, whose own nested functions
# leave a cycle per call
ENTRIES = {
    "parse_scenario sim1": lambda: parse_scenario(SIM1_TEXT, "sim1"),
    "parse_scenario sim2": lambda: parse_scenario(SIM2_TEXT, "sim2"),
    "adjudicate sim1": lambda: guard.adjudicate(SIM1),
    "adjudicate sim2": lambda: guard.adjudicate(SIM2),
    "adjudicate sim1_guilty": lambda: guard.adjudicate(SIM1_GUILTY),
    "prevents_holds shooter->victim": prevention("victim"),
    "prevents_holds shooter->ai": prevention("ai"),
    "check_dde sim2": dde_on_sim2,
}


@pytest.mark.parametrize("name", list(ENTRIES))
def test_an_entry_point_leaves_no_cyclic_garbage(name):
    assert cyclic_garbage(ENTRIES[name]) == 0


def test_the_answers_checked_are_the_expected_ones():
    assert guard.adjudicate(SIM1).decision == "LOCK"
    assert guard.adjudicate(SIM2).decision == "ALLOW"
    assert guard.adjudicate(SIM1_GUILTY).prove_status == "no_proof"
    assert prevention("victim")().answer == "yes"
    # "no" comes from the finite-model oracle
    assert prevention("ai")().answer == "no"
    assert dde_on_sim2().compliant


def test_verifying_a_proof_leaves_no_cyclic_garbage():
    verify = verify_sim1_proof()
    assert verify()
    assert cyclic_garbage(verify) == 0


# ---------------------------------------------------------------------------
# static: no nested function reaches itself through closure cells

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def nested_functions(scope: ast.AST) -> dict[str, ast.AST]:
    """The functions defined directly in scope's body, by the name they
    are bound to: a def's own, or the name a lambda is assigned to."""
    out: dict[str, ast.AST] = {}
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out[node.name] = node
            continue
        if isinstance(node, ast.ClassDef):
            continue
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    out[target.id] = node.value
        if not isinstance(node, ast.Lambda):
            stack.extend(ast.iter_child_nodes(node))
    return out


def loaded_names(fn: ast.AST) -> set[str]:
    """The names fn or a function inside it loads, but its parameters."""
    args = fn.args
    params = {a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]}
    params |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
    loads = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return loads - params


def closure_cycles(tree: ast.AST) -> list[str]:
    """Each nested function that reaches its own name through the names
    its siblings, the functions defined in the same scope, load: itself,
    or a sibling that loads it back, or a longer such chain."""
    found = []
    for scope in ast.walk(tree):
        if not isinstance(scope, FUNCTIONS):
            continue
        siblings = nested_functions(scope)
        loads = {name: loaded_names(fn) & siblings.keys() for name, fn in siblings.items()}
        for name in siblings:
            seen, stack = set(), list(loads[name])
            while stack:
                other = stack.pop()
                if other == name:
                    found.append(f"{getattr(scope, 'name', 'lambda')}.{name}")
                    break
                if other not in seen:
                    seen.add(other)
                    stack.extend(loads[other])
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_nested_function_reaches_itself(path):
    assert closure_cycles(ast.parse(path.read_text())) == []


@pytest.mark.parametrize(
    "source, found",
    [
        ("def f():\n    def walk(g):\n        walk(g)\n    walk(1)\n", ["f.walk"]),
        (
            "def f():\n    def a():\n        b()\n    def b():\n        a()\n    a()\n",
            ["f.a", "f.b"],
        ),
        ("def f():\n    g = lambda n: g(n - 1)\n    return g\n", ["f.g"]),
        ("def f():\n    def a():\n        def b():\n            a()\n        b()\n", ["f.a"]),
        ("def f():\n    def a(a):\n        return a\n    def b():\n        a(1)\n", []),
        ("def walk(g):\n    walk(g)\n", []),
    ],
)
def test_the_static_check_finds_closure_cycles(source, found):
    assert closure_cycles(ast.parse(source)) == found
