"""Derivations: signature construction, conc/ass, synthesis, witnesses."""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indkernel.errors import ArityMismatch, UnknownElement
from indkernel.finite import Carrier, Subset
from indkernel.inddef import InductiveDefinition, Rule, closure, closure_stages, naive_closure_oracle
from indkernel.proofs import (
    ass,
    build_proof_signature,
    characterize,
    compactness_basis,
    conc,
    is_proof,
    proof_from_json,
    proof_to_dot,
    proof_to_json,
    render_proof,
    synthesize_proof,
    witness,
)
from indkernel.wtree import WTree, depth, fold, random_tree, subtrees
from oracles import (
    enumerate_proof_shapes,
    shape_ass,
    shape_conc,
    shape_depth,
    shape_to_tree,
    well_formed_everywhere,
)

AB = Carrier.of("a", "b")
ABC = Carrier.of("a", "b", "c")


def defn(carrier, *rules):
    return InductiveDefinition(carrier, tuple(Rule(Subset.from_names(carrier, ps), c) for ps, c in rules))


ONE_RULE = defn(AB, (["a"], "b"))
CHAIN = defn(ABC, (["a"], "b"), (["b"], "c"))


@st.composite
def systems(draw, max_size=5, max_rules=8):
    n = draw(st.integers(1, max_size))
    carrier = Carrier.of(*(f"s{i}" for i in range(n)))
    rules = []
    seen = set()
    for _ in range(draw(st.integers(0, max_rules))):
        bits = draw(st.integers(0, 2**n - 1))
        conclusion = draw(st.integers(0, n - 1))
        if (bits, conclusion) in seen:
            continue
        seen.add((bits, conclusion))
        rules.append(Rule(Subset(carrier, bits), carrier.name(conclusion)))
    return InductiveDefinition(carrier, tuple(rules))


@st.composite
def seeded_systems(draw, max_size=5, max_rules=8):
    phi = draw(systems(max_size, max_rules))
    bits = draw(st.integers(0, 2 ** len(phi.carrier) - 1))
    return phi, Subset(phi.carrier, bits)


class TestBuildProofSignature:
    def test_no_rules_one_label_per_element(self):
        s = Carrier.of("s")
        psig = build_proof_signature(defn(s))
        assert psig.sig.labels.names == ("s",)
        assert psig.sig.nullary_labels() == ("s",)

    def test_one_rule_gets_one_slot(self):
        psig = build_proof_signature(ONE_RULE)
        assert set(psig.sig.labels.names) == {"rule0", "a", "b"}
        slots = psig.sig.arity("rule0")
        assert len(slots) == 1
        assert psig.slot_target(slots.names[0]) == "a"

    def test_two_premises_give_two_slots(self):
        phi = defn(ABC, (["a", "b"], "c"))
        psig = build_proof_signature(phi)
        slots = psig.sig.arity(psig.rule_labels[0])
        assert len(slots) == 2
        assert {psig.slot_target(s) for s in slots.names} == {"a", "b"}

    def test_rule_labels_dodge_carrier_names(self):
        clash = Carrier.of("rule0", "x")
        psig = build_proof_signature(defn(clash, (["x"], "rule0")))
        assert psig.rule_labels == ("rule0_",)
        assert len(set(psig.sig.labels.names)) == 3


class TestConc:
    def test_assumption(self):
        psig = build_proof_signature(ONE_RULE)
        assert conc(psig, psig.assumption("a")) == "a"

    def test_nullary_rule_app(self):
        phi = defn(AB, ([], "a"))
        psig = build_proof_signature(phi)
        assert conc(psig, psig.rule_app(0, {})) == "a"

    def test_unary_rule_app(self):
        psig = build_proof_signature(ONE_RULE)
        w = psig.rule_app(0, {"a": psig.assumption("a")})
        assert conc(psig, w) == "b"


class TestAss:
    def test_assumption(self):
        psig = build_proof_signature(ONE_RULE)
        assert ass(psig, psig.assumption("a")) == Subset.from_names(AB, ["a"])

    def test_nullary_rule_app_has_no_assumptions(self):
        phi = defn(AB, ([], "a"))
        psig = build_proof_signature(phi)
        assert ass(psig, psig.rule_app(0, {})) == Subset.empty(AB)

    def test_unary_rule_app(self):
        psig = build_proof_signature(ONE_RULE)
        w = psig.rule_app(0, {"a": psig.assumption("a")})
        assert ass(psig, w) == Subset.from_names(AB, ["a"])


class TestIsProof:
    def test_assumption_is_a_proof(self):
        psig = build_proof_signature(ONE_RULE)
        assert is_proof(psig, psig.assumption("a"))

    def test_well_formed_rule_app(self):
        psig = build_proof_signature(ONE_RULE)
        assert is_proof(psig, psig.rule_app(0, {"a": psig.assumption("a")}))

    def test_child_concluding_wrong_element(self):
        psig = build_proof_signature(ONE_RULE)
        assert not is_proof(psig, psig.rule_app(0, {"a": psig.assumption("b")}))

    def test_structurally_invalid_tree(self):
        psig = build_proof_signature(ONE_RULE)
        assert not is_proof(psig, WTree("a", (WTree("b", ()),)))

    def test_rule_app_checks_premise_names(self):
        psig = build_proof_signature(ONE_RULE)
        with pytest.raises(ArityMismatch, match="missing premises"):
            psig.rule_app(0, {})
        with pytest.raises(ArityMismatch, match="unexpected premises"):
            psig.rule_app(0, {"a": psig.assumption("a"), "b": psig.assumption("b")})


class TestSynthesizeProof:
    def test_goal_already_assumed(self):
        phi = defn(AB)
        psig = build_proof_signature(phi)
        got = synthesize_proof(phi, Subset.from_names(AB, ["a"]), "a")
        assert got == psig.assumption("a")

    def test_one_rule_application(self):
        psig = build_proof_signature(ONE_RULE)
        got = synthesize_proof(ONE_RULE, Subset.from_names(AB, ["a"]), "b")
        want = psig.rule_app(0, {"a": psig.assumption("a")})
        assert got == want
        # exhaustive check: that tree is the only depth<=2 derivation of b from {a}
        candidates = {
            s
            for s in enumerate_proof_shapes(ONE_RULE, 2)
            if shape_conc(ONE_RULE, s) == "b" and shape_ass(ONE_RULE, s) <= {"a"}
        }
        assert candidates == {("rule", 0, (("assume", "a"),))}
        assert shape_to_tree(psig, candidates.pop()) == got

    def test_unreachable_goal(self):
        u = Subset.empty(AB)
        assert naive_closure_oracle(ONE_RULE, u) == u
        assert synthesize_proof(ONE_RULE, u, "b") is None

    def test_goal_outside_carrier(self):
        with pytest.raises(UnknownElement):
            synthesize_proof(ONE_RULE, Subset.empty(AB), "zz")


class TestCharacterize:
    def test_depth_zero_is_empty(self):
        assert characterize(CHAIN, Subset.full(ABC), 0) == Subset.empty(ABC)

    def test_depth_one_is_the_seed_without_nullary_rules(self):
        u = Subset.from_names(ABC, ["a"])
        assert characterize(CHAIN, u, 1) == u

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            characterize(CHAIN, Subset.empty(ABC), -1)

    def test_depth_grows_the_chain_one_link_per_level(self):
        u = Subset.from_names(ABC, ["a"])
        assert characterize(CHAIN, u, 2) == Subset.from_names(ABC, ["a", "b"])
        assert characterize(CHAIN, u, 3) == Subset.full(ABC)


class TestWitness:
    def test_declaration_order_breaks_ties(self):
        phi = defn(ABC, (["a"], "c"), (["b"], "c"))
        u = Subset.from_names(ABC, ["a", "b"])
        got = witness(phi, u, "c")
        assert got == Subset.from_names(ABC, ["a"])
        # both singletons would do; the oracle confirms each reaches c
        for alt in (["a"], ["b"]):
            assert "c" in naive_closure_oracle(phi, Subset.from_names(ABC, alt))

    def test_nullary_proof_needs_nothing(self):
        phi = defn(AB, ([], "a"))
        assert witness(phi, Subset.empty(AB), "a") == Subset.empty(AB)

    def test_assumed_goal_witnessed_by_itself(self):
        phi = defn(AB)
        u = Subset.from_names(AB, ["a"])
        assert witness(phi, u, "a") == u

    def test_unprovable_goal(self):
        assert witness(ONE_RULE, Subset.empty(AB), "b") is None


class TestCompactnessBasis:
    def test_no_rules_single_element(self):
        phi = defn(Carrier.of("a"))
        assert compactness_basis(phi) == frozenset({Subset.from_names(phi.carrier, ["a"])})

    def test_one_rule_collapses_to_singletons(self):
        got = compactness_basis(ONE_RULE)
        want = frozenset({Subset.from_names(AB, ["a"]), Subset.from_names(AB, ["b"])})
        assert got == want
        by_enumeration = {shape_ass(ONE_RULE, s) for s in enumerate_proof_shapes(ONE_RULE, 3)}
        assert {frozenset(v.names()) for v in got} == by_enumeration

    def test_nullary_rule_contributes_empty_set(self):
        phi = defn(Carrier.of("a"), ([], "a"))
        want = frozenset({Subset.empty(phi.carrier), Subset.from_names(phi.carrier, ["a"])})
        assert compactness_basis(phi) == want
        by_enumeration = {shape_ass(phi, s) for s in enumerate_proof_shapes(phi, 2)}
        assert {frozenset(v.names()) for v in compactness_basis(phi)} == by_enumeration


@settings(max_examples=60)
@given(systems(max_size=3, max_rules=3))
def test_soundness_of_every_enumerated_derivation(phi):
    """conc(w) is reachable from ass(w), for every derivation to depth 3."""
    for shape in enumerate_proof_shapes(phi, 3):
        assumptions = Subset.from_names(phi.carrier, shape_ass(phi, shape))
        assert shape_conc(phi, shape) in closure(phi, assumptions)


@settings(max_examples=100)
@given(seeded_systems())
def test_bounded_depth_reaches_the_closure(case):
    phi, u = case
    assert characterize(phi, u, len(phi.carrier) + 1) == closure(phi, u)


def test_bounded_depth_reaches_the_closure_all_seeds_small():
    for phi in (CHAIN, ONE_RULE, defn(ABC, ([], "a"), (["a", "b"], "c"))):
        n = len(phi.carrier)
        for bits in range(2**n):
            u = Subset(phi.carrier, bits)
            assert characterize(phi, u, n + 1) == closure(phi, u)


def test_characterize_matches_enumerated_derivations_with_premise_free_rules():
    """At every depth 0..|S|+2, characterize is the set of conclusions of
    enumerated derivations of that depth with assumptions inside u. Every
    system has a premise-free rule, whose node is a depth-1 leaf."""
    rng = Random(2)
    for _ in range(300):
        n = rng.randint(1, 3)
        carrier = Carrier.of(*(f"s{i}" for i in range(n)))
        keys = {(0, rng.randrange(n))}
        for _ in range(rng.randint(0, 3)):
            bits = 0
            for _ in range(rng.randint(0, 2)):
                bits |= 1 << rng.randrange(n)
            keys.add((bits, rng.randrange(n)))
        phi = InductiveDefinition(
            carrier, tuple(Rule(Subset(carrier, b), carrier.name(c)) for b, c in sorted(keys))
        )
        shapes = [
            (shape_conc(phi, s), shape_depth(s), shape_ass(phi, s))
            for s in enumerate_proof_shapes(phi, n + 2)
        ]
        for _ in range(3):
            u = Subset(carrier, rng.randrange(2**n))
            inside = frozenset(u.names())
            for d in range(n + 3):
                want = {c for c, k, a in shapes if k <= d and a <= inside}
                assert characterize(phi, u, d) == Subset.from_names(carrier, want), (str(phi), str(u), d)


@settings(max_examples=60)
@given(seeded_systems(max_size=4, max_rules=5))
def test_witnesses_are_small_correct_and_in_the_basis(case):
    phi, u = case
    basis = compactness_basis(phi)
    for goal in closure(phi, u).names():
        v = witness(phi, u, goal)
        assert v is not None
        assert v <= u
        assert goal in closure(phi, v)
        assert v in basis


@settings(max_examples=80)
@given(seeded_systems())
def test_synthesized_proofs_check_out(case):
    phi, u = case
    psig = build_proof_signature(phi)
    stages = closure_stages(phi, u)
    for goal in closure(phi, u).names():
        w = synthesize_proof(phi, u, goal)
        assert w is not None
        assert conc(psig, w) == goal
        assert ass(psig, w) <= u
        assert is_proof(psig, w)
        for sub in subtrees(w):
            assert is_proof(psig, sub)
        entered = next(k for k, stage in enumerate(stages) if goal in stage)
        assert depth(w) <= entered + 1


@settings(max_examples=80)
@given(systems(max_size=4, max_rules=4), st.integers(0, 2**32))
def test_conc_and_ass_match_fold_codings(phi, seed):
    psig = build_proof_signature(phi)
    tree = random_tree(psig.sig, Random(seed))

    def conc_step(label, kids):
        kind, payload = psig.kind_of(label)
        return payload if kind == "assume" else phi.rules[payload].conclusion

    def ass_step(label, kids):
        kind, payload = psig.kind_of(label)
        if kind == "assume":
            return frozenset((payload,))
        return frozenset().union(*kids.values()) if kids else frozenset()

    assert conc(psig, tree) == fold(psig.sig, tree, conc_step)
    assert frozenset(ass(psig, tree).names()) == fold(psig.sig, tree, ass_step)


@settings(max_examples=80)
@given(systems(max_size=4, max_rules=4), st.integers(0, 2**32))
def test_is_proof_matches_recursive_reference(phi, seed):
    psig = build_proof_signature(phi)
    tree = random_tree(psig.sig, Random(seed))
    assert is_proof(psig, tree) == well_formed_everywhere(psig, tree)


@settings(max_examples=60)
@given(seeded_systems(max_size=4, max_rules=5))
def test_proof_json_round_trip(case):
    phi, u = case
    psig = build_proof_signature(phi)
    for goal in closure(phi, u).names():
        w = synthesize_proof(phi, u, goal)
        data = proof_to_json(psig, w)
        assert proof_from_json(psig, data) == w


class TestRendering:
    def test_text_rendering_of_the_chain_proof(self):
        psig = build_proof_signature(CHAIN)
        w = synthesize_proof(CHAIN, Subset.from_names(ABC, ["a"]), "c")
        text = render_proof(psig, w)
        assert text.splitlines() == [
            "c  [rule1: {b} -> c]",
            "  b  [rule0: {a} -> b]",
            "    a  [assumed]",
        ]

    def test_dot_marks_leaves_and_conclusions(self):
        psig = build_proof_signature(ONE_RULE)
        w = psig.rule_app(0, {"a": psig.assumption("a")})
        dot = proof_to_dot(psig, w)
        assert dot == proof_to_dot(psig, w)
        assert 'n0 [label="rule0 => b"];' in dot
        assert 'n1 [shape=box, label="a"];' in dot
        assert 'n0 -> n1 [label="a"];' in dot

    def test_json_schema_shape(self):
        psig = build_proof_signature(ONE_RULE)
        w = psig.rule_app(0, {"a": psig.assumption("a")})
        assert proof_to_json(psig, w) == {
            "kind": "rule",
            "rule": 0,
            "children": {"a": {"kind": "assume", "element": "a"}},
        }
