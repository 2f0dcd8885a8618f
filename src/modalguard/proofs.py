"""Proof objects, serialization, and the independent proof checker.

A proof is an ordered list of steps; each step carries a formula, a
rule name, and the indices of its premise steps.  Clause-level steps
encode clauses as universally closed disjunctions (the empty clause is
the nullary atom (false)).  verify_proof re-derives every step from
its premises alone: schema instances are checked structurally,
instantiation steps by keying the premise body with the bound variable
named as each candidate constant, clausification and resolution steps
by recomputation.  Formulas are compared by the prover's canonical key
and clauses by canonical clause; neither takes a free variable for a
constant of its name, nor one name for another.  A witness must be a
constant fresh for the names of the assumptions, the goal and the
earlier steps, which are read only at a step that introduces one, and
not spelled like a skolem symbol, which a later clausify step could
name.  Assumptions or a goal that hold a name spelled like a shadow
atom or a skolem symbol are refused (syntax.unspoofed), as is a name
that is a constant of two sorts in the problem or the proof, which a
step's key comparison would take for one (syntax.constant_sorts).  The
checker shares no state with the prover's search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

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
    if isinstance(f, Atom):
        if f == FALSUM:
            return Clause(())
        return Clause((Literal(True, f),))
    if isinstance(f, Not) and isinstance(f.body, Atom):
        return Clause((Literal(False, f.body),))
    if isinstance(f, Or):
        lits = []
        for p in f.parts:
            if isinstance(p, Atom):
                lits.append(Literal(True, p))
            elif isinstance(p, Not) and isinstance(p.body, Atom):
                lits.append(Literal(False, p.body))
            else:
                return None
        return Clause(tuple(lits))
    return None


# ---------------------------------------------------------------------------
# Verification


def _among(got: Clause, expected: Sequence[Clause]) -> bool:
    """got's canonical clause is that of one of the expected clauses.
    Both sides are canonicalized, because canonical_clause may renumber
    the variables of a clause it returned."""
    return canonical_clause(got.literals) in {canonical_clause(c.literals) for c in expected}


def _instance_candidates(conclusion: Formula, sort: str, sig: Signature) -> list[Const]:
    out: list[Const] = []
    for c in constants_in_formula(conclusion):
        if sig.widens(c.sort, sort) and c not in out:
            out.append(c)
    return out


def _is_instance(
    var: Var, body: Formula, conclusion: Formula, sig: Signature
) -> Optional[Term]:
    """Find a term t with body[var := t] alpha-equal to conclusion: var
    itself when body already is (a vacuous binder, or var left free),
    otherwise a constant.

    body is keyed with var named as each candidate: binders key by
    position whatever their names and capture-avoiding renaming moves
    only binders, so that is the key of body[var := candidate], found
    without building it."""
    want = canonical_key(conclusion)
    if canonical_key(body) == want:
        return var
    for c in _instance_candidates(conclusion, var.sort, sig):
        if canonical_key(body, {var: c.name}) == want:
            return c
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
        elif r == "S1":
            if len(prem) != 1 or not isinstance(prem[0], Modal) or prem[0].op != KNOWS:
                return fail(i, "S1 needs one knows premise")
            if not alpha_equivalent(prem[0].body, f):
                return fail(i, "S1 conclusion is not the premise body")
        elif r == "S2":
            if len(prem) != 1 or not isinstance(prem[0], Modal) or prem[0].op != KNOWS:
                return fail(i, "S2 needs one knows premise")
            want = Modal(BELIEVES, prem[0].agent, prem[0].time, prem[0].body)
            if not alpha_equivalent(want, f):
                return fail(i, "S2 conclusion mismatch")
        elif r == "S3":
            if len(prem) != 2:
                return fail(i, "S3 needs two premises")
            imp, ante = prem
            if (
                not isinstance(imp, Modal)
                or imp.op not in EPISTEMIC_OPS
                or not isinstance(imp.body, Implies)
            ):
                return fail(i, "S3 first premise must be a modal implication")
            if not isinstance(ante, Modal) or ante.op != imp.op:
                return fail(i, "S3 premises use different operators")
            if not alpha_equivalent(
                ante, Modal(imp.op, imp.agent, imp.time, imp.body.left)
            ):
                return fail(i, "S3 second premise is not the antecedent")
            want = Modal(imp.op, imp.agent, imp.time, imp.body.right)
            if not alpha_equivalent(want, f):
                return fail(i, "S3 conclusion mismatch")
        elif r == "S4-split":
            if (
                len(prem) != 1
                or not isinstance(prem[0], Modal)
                or prem[0].op not in EPISTEMIC_OPS
                or not isinstance(prem[0].body, And)
            ):
                return fail(i, "S4-split needs a modal conjunction premise")
            m = prem[0]
            if not any(
                alpha_equivalent(Modal(m.op, m.agent, m.time, p), f)
                for p in m.body.parts
            ):
                return fail(i, "S4-split conclusion is not a conjunct")
        elif r == "S4-join":
            if not isinstance(f, Modal) or f.op not in EPISTEMIC_OPS or not isinstance(f.body, And):
                return fail(i, "S4-join concludes a modal conjunction")
            if len(prem) != len(f.body.parts):
                return fail(i, "S4-join premise count mismatch")
            for p, part in zip(prem, f.body.parts):
                if not alpha_equivalent(p, Modal(f.op, f.agent, f.time, part)):
                    return fail(i, "S4-join premise does not match conjunct")
        elif r == RULE_NEGATED_GOAL:
            if step.premises:
                return fail(i, "negated-goal takes no premises")
            if not alpha_equivalent(f, Not(goal)):
                return fail(i, "negated-goal formula is not the goal's negation")
        elif r == RULE_FORALL_ELIM:
            if len(prem) != 1 or not isinstance(prem[0], Forall):
                return fail(i, "forall-elim needs one universal premise")
            if _is_instance(prem[0].var, prem[0].body, f, sig) is None:
                return fail(i, "conclusion is not an instance of the premise")
        elif r == RULE_NEG_EXISTS_ELIM:
            if (
                len(prem) != 1
                or not isinstance(prem[0], Not)
                or not isinstance(prem[0].body, Exists)
            ):
                return fail(i, "neg-exists-elim needs a negated existential premise")
            ex = prem[0].body
            if not isinstance(f, Not):
                return fail(i, "conclusion must be a negation")
            if _is_instance(ex.var, ex.body, f.body, sig) is None:
                return fail(i, "conclusion is not a negated instance")
        elif r == RULE_EXISTS_ANTECEDENT:
            if (
                len(prem) != 1
                or not isinstance(prem[0], Implies)
                or not isinstance(prem[0].left, Exists)
            ):
                return fail(i, "exists-antecedent-elim premise shape mismatch")
            if not isinstance(f, Implies):
                return fail(i, "conclusion must be an implication")
            if not alpha_equivalent(prem[0].right, f.right):
                return fail(i, "consequent changed")
            ex = prem[0].left
            if _is_instance(ex.var, ex.body, f.left, sig) is None:
                return fail(i, "antecedent is not an instance")
        elif r in (RULE_EXISTS_ELIM, RULE_NEG_FORALL_ELIM):
            if r == RULE_EXISTS_ELIM:
                if len(prem) != 1 or not isinstance(prem[0], Exists):
                    return fail(i, "exists-elim needs one existential premise")
                var, body, target = prem[0].var, prem[0].body, f
            else:
                if (
                    len(prem) != 1
                    or not isinstance(prem[0], Not)
                    or not isinstance(prem[0].body, Forall)
                ):
                    return fail(i, "neg-forall-elim needs a negated universal premise")
                if not isinstance(f, Not):
                    return fail(i, "conclusion must be a negation")
                var, body, target = prem[0].body.var, prem[0].body.body, f.body
            witness = _is_instance(var, body, target, sig)
            if witness is None:
                return fail(i, "conclusion is not an instance of the premise")
            # only a binder that binds something needs a fresh constant
            if var in free_vars(body):
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
        elif r == RULE_CLAUSIFY:
            if len(prem) != 1:
                return fail(i, "clausify needs one premise")
            got = formula_to_clause(f)
            if got is None:
                return fail(i, "conclusion is not a clause")
            if not _among(got, clausify(shadow(prem[0], ShadowMap()))):
                return fail(i, "clause does not arise from the premise")
        elif r == RULE_RESOLVE:
            if len(prem) != 2:
                return fail(i, "resolve needs two premises")
            c1, c2 = formula_to_clause(prem[0]), formula_to_clause(prem[1])
            got = formula_to_clause(f)
            if c1 is None or c2 is None or got is None:
                return fail(i, "resolve premises must be clauses")
            if not _among(got, resolvents(c1, c2, sig) + resolvents(c2, c1, sig)):
                return fail(i, "not a resolvent of the premises")
        elif r == RULE_FACTOR:
            if len(prem) != 1:
                return fail(i, "factor needs one premise")
            c1 = formula_to_clause(prem[0])
            got = formula_to_clause(f)
            if c1 is None or got is None:
                return fail(i, "factor premises must be clauses")
            if not _among(got, factors(c1, sig)):
                return fail(i, "not a factor of the premise")
        elif r == RULE_REDUCTIO:
            if len(prem) != 2:
                return fail(i, "reductio needs two premises")
            if prem[0] != FALSUM:
                return fail(i, "reductio needs the empty clause first")
            if not alpha_equivalent(prem[1], Not(goal)):
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
