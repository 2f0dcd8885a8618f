"""Shadowing of modal subformulas into content-addressed atoms."""

from __future__ import annotations

import re

from hypothesis import given, settings, strategies as st
from test_parser import RandomFormulas

from modalguard import shadow as shadow_module
from modalguard.parser import parse_formula
from modalguard.shadow import ShadowMap, shadow
from modalguard.syntax import AGENT, Signature, canonical_key, print_formula

NAME_RE = re.compile(r"^sh_[0-9a-f]{12}$")


def make_sig() -> Signature:
    sig = Signature()
    sig.declare_constant("a", AGENT)
    sig.declare_constant("b", AGENT)
    sig.declare_predicate("p", ())
    sig.declare_predicate("q", ())
    sig.declare_predicate("P", (AGENT,))
    return sig


SIG = make_sig()


def sh(text: str, smap: ShadowMap | None = None):
    return shadow(parse_formula(text, SIG), smap if smap is not None else ShadowMap())


def test_ground_modal_becomes_nullary_atom():
    smap = ShadowMap()
    got = shadow(parse_formula("(knows a 1 (p))", SIG), smap)
    assert got.args == ()
    assert NAME_RE.match(got.pred)
    entry = smap.entries[got.pred]
    assert entry.pattern == "(knows a 1 (p))"


def test_non_modal_content_is_untouched():
    f = parse_formula("(implies (and (p) (q)) (P a))", SIG)
    assert shadow(f, ShadowMap()) == f


def test_same_subformula_shares_one_atom():
    smap = ShadowMap()
    f = sh("(implies (knows a 1 (p)) (knows a 1 (p)))", smap)
    assert f.left == f.right
    assert len(smap.entries) == 1


def test_names_are_content_addressed_across_maps():
    a = sh("(knows a 1 (p))")
    b = sh("(knows a 1 (p))")
    assert a.pred == b.pred


def test_alpha_variants_share_a_name():
    a = sh("(forall x : Agent (implies (P x) (knows x 1 (P x))))")
    b = sh("(forall y : Agent (implies (P y) (knows y 1 (P y))))")
    assert print_formula(a) != print_formula(b)  # binder names differ
    assert a.body.right.pred == b.body.right.pred


def test_different_bodies_get_different_names():
    names = {
        sh("(knows a 1 (p))").pred,
        sh("(knows a 1 (q))").pred,
        sh("(knows b 1 (p))").pred,
        sh("(knows a 2 (p))").pred,
        sh("(believes a 1 (p))").pred,
    }
    assert len(names) == 5


def test_free_variables_become_holes():
    smap = ShadowMap()
    f = sh("(forall x : Agent (knows x 1 (P x)))", smap)
    atom = f.body
    assert [v.name for v in atom.args] == ["x"]
    assert atom.args[0].sort == AGENT
    entry = smap.entries[atom.pred]
    assert entry.pattern == "(knows h0 1 (P h0))"


def test_nested_modal_shadows_only_the_outermost():
    smap = ShadowMap()
    got = sh("(knows a 1 (believes b 1 (p)))", smap)
    assert len(smap.entries) == 1
    assert next(iter(smap.entries.values())).pattern \
        == "(knows a 1 (believes b 1 (p)))"
    assert NAME_RE.match(got.pred)


def test_all_operators_are_shadowed():
    for text in (
        "(obligated a 1 (p))",
        "(desires a 1 (p))",
        "(intends a 1 (p))",
        "(perceives a 1 (p))",
    ):
        got = sh(text)
        assert NAME_RE.match(got.pred), text


def test_shadowing_is_idempotent_per_map():
    smap = ShadowMap()
    f = parse_formula("(implies (knows a 1 (p)) (q))", SIG)
    once = shadow(f, smap)
    twice = shadow(f, smap)
    assert once == twice
    assert len(smap.entries) == 1


def test_each_distinct_modal_is_keyed_once(monkeypatch):
    calls = []

    def counting(f, names=None):
        calls.append(f)
        return canonical_key(f, names)

    monkeypatch.setattr(shadow_module, "canonical_key", counting)
    smap = ShadowMap()
    for text in (
        "(and (knows a 1 (p)) (knows a 1 (p)))",
        "(or (knows a 1 (p)) (believes b 2 (q)))",
        "(forall x : Agent (implies (knows x 1 (P x)) (believes b 2 (q))))",
        "(forall y : Agent (knows y 1 (P y)))",
    ):
        sh(text, smap)
    # (knows a 1 (p)), (believes b 2 (q)), (knows x 1 (P x)), (knows y 1 (P y))
    assert len(calls) == 4
    # the last two share a generalization, hence an atom name
    assert len(smap.entries) == 3


@st.composite
def formula_sequences(draw):
    """A few random formulas, then a sequence that repeats them."""
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4))
    depths = draw(st.lists(st.integers(1, 4), min_size=len(seeds), max_size=len(seeds)))
    pool = [RandomFormulas(s).formula([], d) for s, d in zip(seeds, depths)]
    order = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=8))
    return [pool[i] for i in order]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(formula_sequences())
def test_a_shared_map_shadows_as_a_fresh_map_does(formulas):
    shared = ShadowMap()
    for f in formulas:
        fresh = ShadowMap()
        assert shadow(f, shared) == shadow(f, fresh)
        for name, entry in fresh.entries.items():
            assert shared.entries[name] == entry
