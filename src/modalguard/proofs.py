"""Proof objects, serialization, and the independent proof checker.

A proof is an ordered list of steps; each step carries a formula, a
rule name, and the indices of its premise steps.  Clause-level steps
encode clauses as universally closed disjunctions (the empty clause is
the nullary atom (false)).  verify_proof re-derives every step from
its premises alone, one way per rule family: it recomputes what the
rule derives from the cited premises and compares the step with that.
A modal rule's conclusions (_modal_conclusions) are compared by the
prover's canonical key; a quantifier rule's instance is found by
keying what the rule derives (quantifier_rule, the table the prover
grounds with) with each candidate constant put for the bound variable,
and an existential antecedent whose variable is free in the consequent
is opened by no rule; a clause rule's clauses (_clause_conclusions) are
compared by canonical clause.  No comparison takes a free variable for
a constant of its name, nor one name for another.  A witness must be a
constant fresh for the names of the assumptions, the goal and the
earlier steps (syntax.symbol_names, binders' names included, as the
prover names its witnesses), which are read only at a step that
introduces one, and not spelled like a skolem symbol, which a later
clausify step could name.  Assumptions or a goal that hold a name
spelled like a shadow atom or a skolem symbol are refused
(syntax.unspoofed), as is a name that is a constant of two sorts in the
problem or the proof, which a step's key comparison would take for one
(syntax.constant_sorts).  The checker shares no state with the
prover's search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .clauses import Clause, Literal, canonical_clause, clause_vars, clausify
from .resolution import factors, resolvents
from .shadow import ShadowMap, shadow
from .syntax import (
    And,
    Atom,
    Const,
    Exists,
    FALSUM,
    Forall,
    Formula,
    Implies,
    Modal,
    Not,
    Or,
    SKOLEM_NAME,
    Signature,
    Term,
    Var,
    alpha_equivalent,
    canonical_key,
    constant_occurrences,
    constant_sorts,
    constants_in_formula,
    disj,
    free_vars,
    print_formula,
    symbol_names,
    unspoofed,
    BELIEVES,
    EPISTEMIC_OPS,
    KNOWS,
)

RULE_NEGATED_GOAL = "negated-goal"
RULE_FORALL_ELIM = "forall-elim"
RULE_EXISTS_ELIM = "exists-elim"
RULE_EXISTS_ANTECEDENT = "exists-antecedent-elim"
RULE_NEG_EXISTS_ELIM = "neg-exists-elim"
RULE_NEG_FORALL_ELIM = "neg-forall-elim"
RULE_CLAUSIFY = "clausify"
RULE_RESOLVE = "resolve"
RULE_FACTOR = "factor"
RULE_REDUCTIO = "reductio"


@dataclass(frozen=True)
class ProofStep:
    formula: Formula
    rule: str
    premises: tuple[int, ...] = ()


@dataclass(frozen=True)
class Proof:
    steps: tuple[ProofStep, ...]

    def serialize(self) -> str:
        lines = []
        for i, s in enumerate(self.steps, start=1):
            refs = " ".join(str(p + 1) for p in s.premises)
            tag = f"[{s.rule} {refs}]" if refs else f"[{s.rule}]"
            lines.append(f"{i}. {print_formula(s.formula)} {tag}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.steps)


# ---------------------------------------------------------------------------
# Clause <-> formula encoding


def literal_to_formula(l: Literal) -> Formula:
    return l.atom if l.positive else Not(l.atom)


def clause_to_formula(c: Clause) -> Formula:
    if c.empty:
        return FALSUM
    body = disj([literal_to_formula(l) for l in c.literals])
    for v in reversed(clause_vars(c)):
        body = Forall(v, body)
    return body


def formula_to_clause(f: Formula) -> Optional[Clause]:
    """Strip a clause encoding back to a Clause; None when malformed."""
    while isinstance(f, Forall):
        f = f.body
    if f == FALSUM:
        return Clause(())
    lits = []
    for p in f.parts if isinstance(f, Or) else (f,):
        if isinstance(p, Atom):
            lits.append(Literal(True, p))
        elif isinstance(p, Not) and isinstance(p.body, Atom):
            lits.append(Literal(False, p.body))
        else:
            return None
    return Clause(tuple(lits))


# ---------------------------------------------------------------------------
# Verification

MODAL_RULES = ("S1", "S2", "S3", "S4-split", "S4-join")
QUANTIFIER_RULES = (RULE_FORALL_ELIM, RULE_EXISTS_ELIM, RULE_NEG_EXISTS_ELIM,
                    RULE_NEG_FORALL_ELIM, RULE_EXISTS_ANTECEDENT)
# the quantifier rules that open a binder with one fresh witness; the
# others instantiate it at any constant
WITNESS_RULES = (RULE_EXISTS_ELIM, RULE_NEG_FORALL_ELIM)
CLAUSE_RULES = (RULE_CLAUSIFY, RULE_RESOLVE, RULE_FACTOR)


def _among(got: Clause, expected: Sequence[Clause]) -> bool:
    """got's canonical clause is that of one of the expected clauses.
    Both sides are canonicalized, because canonical_clause may renumber
    the variables of a clause it returned."""
    return canonical_clause(got.literals) in {canonical_clause(c.literals) for c in expected}


def _instance_candidates(conclusion: Formula, sort: str, sig: Signature) -> list[Const]:
    return [c for c in constants_in_formula(conclusion) if sig.widens(c.sort, sort)]


def _is_instance(
    var: Var, body: Formula, conclusion: Formula, sig: Signature
) -> Optional[Term]:
    """Find a term t with body[var := t] alpha-equal to conclusion: var
    itself when body already is (a vacuous binder, or var left free),
    otherwise a constant.  body is keyed with each candidate put for var
    (canonical_key's names), which keys the instance without building
    it."""
    want = canonical_key(conclusion)
    if canonical_key(body) == want:
        return var
    for c in _instance_candidates(conclusion, var.sort, sig):
        if canonical_key(body, {var: c}) == want:
            return c
    return None


def _modal_conclusions(rule: str, prem: Sequence[Formula]) -> Optional[list[Formula]]:
    """The formulas the modal rule derives from the premises, every one
    an epistemic modal; None when they do not have the shape it needs."""
    if not prem or not all(isinstance(p, Modal) and p.op in EPISTEMIC_OPS for p in prem):
        return None
    m = prem[0]

    def under(body: Formula) -> Modal:
        return Modal(m.op, m.agent, m.time, body)

    if rule in ("S1", "S2"):
        if len(prem) != 1 or m.op != KNOWS:
            return None
        return [m.body if rule == "S1" else Modal(BELIEVES, m.agent, m.time, m.body)]
    if rule == "S3":
        # the second premise is the first one's antecedent, in its context
        implication = len(prem) == 2 and isinstance(m.body, Implies)
        if not implication or not alpha_equivalent(prem[1], under(m.body.left)):
            return None
        return [under(m.body.right)]
    if rule == "S4-split":
        if len(prem) != 1 or not isinstance(m.body, And):
            return None
        return [under(p) for p in m.body.parts]
    # S4-join: the bodies, in order, of premises in one context
    context = (m.op, m.agent, m.time)
    if len(prem) < 2 or any((p.op, p.agent, p.time) != context for p in prem):
        return None
    return [under(And(tuple(p.body for p in prem)))]


def _same(f: Formula) -> Formula:
    return f


def quantifier_rule(
    f: Formula,
) -> Optional[tuple[str, Var, Formula, Callable[[Formula], Formula]]]:
    """(rule, var, body, wrap) for a formula a quantifier rule takes
    apart: f is wrap(Q var body), and the rule derives wrap(body) with a
    constant put for var.  None when no quantifier rule takes f apart,
    and for an existential antecedent whose variable is free in the
    consequent, where a constant put for var would be put there too."""
    if isinstance(f, Forall):
        return RULE_FORALL_ELIM, f.var, f.body, _same
    if isinstance(f, Exists):
        return RULE_EXISTS_ELIM, f.var, f.body, _same
    if isinstance(f, Not) and isinstance(f.body, Exists):
        return RULE_NEG_EXISTS_ELIM, f.body.var, f.body.body, Not
    if isinstance(f, Not) and isinstance(f.body, Forall):
        return RULE_NEG_FORALL_ELIM, f.body.var, f.body.body, Not
    if isinstance(f, Implies) and isinstance(f.left, Exists):
        rhs = f.right
        if f.left.var in free_vars(rhs):
            return None
        return RULE_EXISTS_ANTECEDENT, f.left.var, f.left.body, lambda g: Implies(g, rhs)
    return None


def _clause_conclusions(
    rule: str, prem: Sequence[Formula], sig: Signature
) -> Optional[list[Clause]]:
    """The clauses the clause rule derives from the premises; None when
    they are not what it takes."""
    if rule == RULE_CLAUSIFY:
        return clausify(shadow(prem[0], ShadowMap())) if len(prem) == 1 else None
    clauses = [formula_to_clause(p) for p in prem]
    if any(c is None for c in clauses):
        return None
    if rule == RULE_RESOLVE and len(clauses) == 2:
        c1, c2 = clauses
        return resolvents(c1, c2, sig) + resolvents(c2, c1, sig)
    if rule == RULE_FACTOR and len(clauses) == 1:
        return factors(clauses[0], sig)
    return None


def verify_proof_detailed(
    proof: Proof,
    assumptions: Sequence[Formula],
    goal: Formula,
    sig: Optional[Signature] = None,
) -> tuple[bool, str]:
    """Check every step; returns (accepted, reason)."""
    sig = sig if sig is not None else Signature()
    if not proof.steps:
        return False, "empty proof"
    assumed = {canonical_key(a) for a in assumptions}
    goal_key = canonical_key(goal)
    try:
        for key in (*assumed, goal_key):
            unspoofed(key)
        formulas = (*assumptions, goal, *(s.formula for s in proof.steps))
        constant_sorts([constant_occurrences(formulas)], sig.constants)
    except ValueError as e:
        return False, str(e)
    negated_goal_key = canonical_key(Not(goal))

    def fail(i: int, why: str) -> tuple[bool, str]:
        return False, f"step {i + 1}: {why}"

    for i, step in enumerate(proof.steps):
        for p in step.premises:
            if not (0 <= p < i):
                return fail(i, f"premise index {p + 1} out of range")
        prem = [proof.steps[p].formula for p in step.premises]
        f = step.formula
        r = step.rule

        if r == "assumption":
            if step.premises:
                return fail(i, "assumption takes no premises")
            if canonical_key(f) not in assumed:
                return fail(i, "formula is not a declared assumption")
        elif r == RULE_NEGATED_GOAL:
            if step.premises:
                return fail(i, "negated-goal takes no premises")
            if canonical_key(f) != negated_goal_key:
                return fail(i, "negated-goal formula is not the goal's negation")
        elif r in MODAL_RULES:
            expected = _modal_conclusions(r, prem)
            if expected is None:
                return fail(i, f"premises do not have the shape {r} needs")
            key = canonical_key(f)
            if not any(canonical_key(e) == key for e in expected):
                return fail(i, f"conclusion is not what {r} derives from the premises")
        elif r in QUANTIFIER_RULES:
            q = quantifier_rule(prem[0]) if len(prem) == 1 else None
            if q is None or q[0] != r:
                return fail(i, f"{r} needs one premise of its shape")
            _, var, body, wrap = q
            witness = _is_instance(var, wrap(body), f, sig)
            if witness is None:
                return fail(i, "conclusion is not an instance of the premise")
            # only a binder that binds something needs a fresh constant
            if r in WITNESS_RULES and var in free_vars(body):
                if not isinstance(witness, Const):
                    return fail(i, "witness is not a constant")
                if witness.sort != var.sort:
                    return fail(i, "witness sort mismatch")
                # a later clausify step could name a skolem symbol alike
                if SKOLEM_NAME.fullmatch(witness.name):
                    return fail(i, f"witness {witness.name} has a skolem symbol's shape")
                earlier = (*assumptions, goal, *(s.formula for s in proof.steps[:i]))
                if any(witness.name in symbol_names(g) for g in earlier):
                    return fail(i, f"witness {witness.name} is not fresh")
        elif r in CLAUSE_RULES:
            got = formula_to_clause(f)
            if got is None:
                return fail(i, "conclusion is not a clause")
            expected = _clause_conclusions(r, prem, sig)
            if expected is None:
                return fail(i, f"premises are not what {r} takes")
            if not _among(got, expected):
                return fail(i, f"clause is not what {r} derives from the premises")
        elif r == RULE_REDUCTIO:
            if len(prem) != 2:
                return fail(i, "reductio needs two premises")
            if prem[0] != FALSUM:
                return fail(i, "reductio needs the empty clause first")
            if canonical_key(prem[1]) != negated_goal_key:
                return fail(i, "reductio needs the negated goal second")
            if canonical_key(f) != goal_key:
                return fail(i, "reductio must conclude the goal")
        else:
            return fail(i, f"unknown rule {r}")

    if canonical_key(proof.steps[-1].formula) != goal_key:
        return False, "last step is not the goal"
    return True, "ok"


def verify_proof(
    proof: Proof,
    assumptions: Sequence[Formula],
    goal: Formula,
    sig: Optional[Signature] = None,
) -> bool:
    ok, _ = verify_proof_detailed(proof, assumptions, goal, sig)
    return ok
