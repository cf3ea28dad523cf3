"""Derivations: signature construction, conc/ass, synthesis, witnesses."""

from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indkernel.cli import run_command
from indkernel.errors import ArityMismatch, SchemaError, UnknownElement
from indkernel.finite import Carrier, Subset
from indkernel.inddef import InductiveDefinition, Rule, closure, closure_stages, naive_closure_oracle
from indkernel.gen import InstanceSpec, random_definition
from indkernel.proofs import (
    ASSUME,
    RULE,
    ProofSignature,
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
    basis_by_full_rounds,
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

    def test_signature_labels_slots_and_targets(self):
        """One label per rule, freshened past element names, then one per
        element; a rule's slots are "<label>.<premise>" in carrier order."""
        carrier = Carrier.of("rule1", "b", "a")
        phi = defn(carrier, (["a", "b"], "rule1"), ([], "a"), (["rule1"], "b"))
        psig = ProofSignature(phi)
        assert psig.sig.labels.names == ("rule0", "rule1_", "rule2", "rule1", "b", "a")
        arity = {label: psig.sig.arity(label).names for label in psig.sig.labels.names}
        assert arity == {
            "rule0": ("rule0.b", "rule0.a"),
            "rule1_": (),
            "rule2": ("rule2.rule1",),
            "rule1": (),
            "b": (),
            "a": (),
        }
        targets = {slot: psig.slot_target(slot) for slots in arity.values() for slot in slots}
        assert targets == {"rule0.b": "b", "rule0.a": "a", "rule2.rule1": "rule1"}

    def test_equal_systems_built_apart_share_one_cache_entry(self):
        spec = ((["a", "c"], "b"), (["b"], "c"), ([], "a"))
        phi = defn(Carrier.of("a", "b", "c"), *spec)
        twin = defn(Carrier.of("a", "b", "c"), *spec)
        assert phi == twin and phi is not twin
        assert hash(phi) == hash(twin)
        psig = build_proof_signature(phi)
        hits = build_proof_signature.cache_info().hits
        assert build_proof_signature(twin) is psig
        assert build_proof_signature.cache_info().hits == hits + 1

    def test_large_system_is_built_once_then_looked_up_without_rehashing(self, monkeypatch):
        """A seeded 2000-element, 10000-rule system: one rule label per
        rule, and a second lookup is a cache hit that hashes no rule."""
        rng = Random(2000)
        carrier = Carrier(tuple(f"e{i}" for i in range(2000)))
        rules = {}
        while len(rules) < 10000:
            bits = sum(1 << i for i in rng.sample(range(2000), rng.randint(0, 3)))
            rules.setdefault((bits, rng.randrange(2000)), None)
        phi = InductiveDefinition(
            carrier, tuple(Rule(Subset(carrier, bits), carrier.name(c)) for bits, c in rules)
        )
        psig = build_proof_signature(phi)
        assert len(psig.rule_labels) == len(phi.rules) == 10000
        assert psig.sig.labels.names[:2] == ("rule0", "rule1")

        def rehash(rule):
            raise AssertionError("a cached lookup rehashed the rules")

        monkeypatch.setattr(Rule, "__hash__", rehash)
        before = build_proof_signature.cache_info()
        assert build_proof_signature(phi) is psig
        after = build_proof_signature.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def reference_labels(phi):
    """The labels and kinds of the signature, tabulated: each rule label
    freshened past the element names and every earlier rule label."""
    kinds = {name: (ASSUME, name) for name in phi.carrier.names}
    labels = []
    for i in range(len(phi.rules)):
        label = f"rule{i}"
        while label in kinds:
            label += "_"
        kinds[label] = (RULE, i)
        labels.append(label)
    return tuple(labels), kinds


class TestSignatureReadsTheColumns:
    def test_labels_and_kinds_match_a_table_on_500_systems(self):
        """Elements named like rule labels (rule0, rule1_, rule12, ...):
        rule_labels and kind_of agree with the tabulated labels and
        kinds, and every other probe near a label is unknown."""
        rng = Random(9)
        pool = [f"rule{i}{'_' * k}" for i in (*range(13), 100) for k in range(3)] + ["rule", "rule_", "x"]
        clashes = 0
        for _ in range(500):
            carrier = Carrier(tuple(rng.sample(pool, rng.randint(0, 8))))
            n = len(carrier)
            rules = {}
            for _ in range(rng.randint(0, 14) if n else 0):
                bits = sum(1 << i for i in rng.sample(range(n), rng.randint(0, min(2, n))))
                rules.setdefault((bits, rng.randrange(n)))
            phi = InductiveDefinition._from_columns(carrier, [b for b, _ in rules], [c for _, c in rules])
            labels, kinds = reference_labels(phi)
            psig = ProofSignature(phi)
            assert psig.rule_labels == labels
            assert [psig.rule_label(i) for i in range(len(labels))] == list(labels)
            clashes += any(label.endswith("_") for label in labels)
            probes = {*kinds, *pool, "rule00", "rule01", "rule-1", "rule+1", "rule 1"}
            probes |= {label + "_" for label in kinds} | {label.rstrip("_") for label in kinds}
            for probe in probes:
                if probe in kinds:
                    assert psig.kind_of(probe) == kinds[probe]
                else:
                    with pytest.raises(UnknownElement, match="is not a label of this signature"):
                        psig.kind_of(probe)
        assert clashes > 50

    @pytest.mark.parametrize(
        "label",
        ["rule" + "1" * 5000, "rule" + "0" * 5000, "rule\u0661", "rule\u00b2", "rule\uff11", "rule01", "rule5_",
         "rule6", "rule-1", "rule1_0", "rule", "rule_", "Rule0", 5, None],
        ids=["5000-digits", "5000-zeros", "arabic-indic-digit", "superscript-digit", "fullwidth-digit",
             "leading-zero", "needless-underscore", "past-the-last", "negative", "inner-underscore", "no-digits",
             "underscore-only", "capital", "int", "none"],
    )
    def test_labels_that_no_rule_encodes_are_unknown(self, label):
        phi = defn(Carrier(tuple(f"e{i}" for i in range(7))), *(([f"e{i}"], f"e{i + 1}") for i in range(6)))
        psig = ProofSignature(phi)
        assert psig.kind_of("rule5") == (RULE, 5)
        with pytest.raises(UnknownElement):
            psig.kind_of(label)
        assert not is_proof(psig, WTree(label))

    def test_the_signature_stores_only_its_definition(self):
        assert vars(ProofSignature(PAIR)) == {"phi": PAIR}

    @pytest.mark.parametrize("index", [-1, 2, 10**30])
    def test_rule_indices_outside_the_rules_are_unknown(self, index):
        """Rule -1 is not read as the last rule, nor rule 2 of two rules
        as an IndexError."""
        psig = build_proof_signature(PAIR)
        leaf = {"kind": "assume", "element": "a"}
        with pytest.raises(UnknownElement, match=f"rule {index} is not a rule of this signature"):
            psig.rule_app(index, {"a": psig.assumption("a")})
        with pytest.raises(UnknownElement, match=f"rule {index} is not a rule of this signature"):
            proof_from_json(psig, {"kind": "rule", "rule": index, "children": {"a": leaf}})

    def test_checking_reading_and_proving_never_build_the_slots(self, tmp_path, capsys, monkeypatch):
        """is_proof, proof_from_json and prove (text, JSON, DOT) give the
        same results with the slot table made to raise."""
        rng = Random(11)
        cases = []
        for _ in range(40):
            phi = random_definition(rng, InstanceSpec(6, 10, 3))
            u = Subset(phi.carrier, rng.getrandbits(len(phi.carrier)))
            psig = ProofSignature(phi)
            trees = [random_tree(psig.sig, rng) for _ in range(5)]
            trees += [synthesize_proof(phi, u, goal) for goal in closure(phi, u).names()]
            cases.append((phi, trees))
        rule_files = sorted((Path(__file__).resolve().parent / "golden").glob("*.rules"))
        dot = tmp_path / "proof.dot"

        def results():
            got = []
            for phi, trees in cases:
                psig = ProofSignature(phi)
                for tree in trees:
                    ok = is_proof(psig, tree)
                    got.append(ok)
                    if ok:
                        got.append(proof_from_json(psig, proof_to_json(psig, tree)) == tree)
            for path in rule_files:
                for flags in ([], ["--json"], ["--dot", str(dot)]):
                    build_proof_signature.cache_clear()
                    dot.unlink(missing_ok=True)
                    code = run_command(["prove", str(path), *flags])
                    got.append((code, capsys.readouterr(), dot.exists() and dot.read_text()))
            return got

        want = results()
        assert True in want and False in want

        def refuse(self):
            raise AssertionError("the slot table was built")

        with monkeypatch.context() as patch:
            patch.setattr(ProofSignature, "_slots", property(refuse))
            assert results() == want
        build_proof_signature.cache_clear()


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


class TestTotality:
    @pytest.mark.parametrize("label", [["a"], {"rule0": 0}, ["rule0"]], ids=["list", "dict", "rule-list"])
    def test_a_label_that_is_not_a_string_is_unknown(self, label):
        """kind_of, conc and ass raise UnknownElement for it, not the
        TypeError of using it as a key, and is_proof says False."""
        psig = ProofSignature(ONE_RULE)
        for read in (psig.kind_of, lambda x: conc(psig, WTree(x)), lambda x: ass(psig, WTree(x))):
            with pytest.raises(UnknownElement, match="is not a label of this signature"):
                read(label)
        assert not is_proof(psig, WTree(label))
        assert not is_proof(psig, WTree("rule0", (WTree(label),)))

    @pytest.mark.parametrize(
        "child", ["a", None, ("a",), {"kind": "assume", "element": "a"}], ids=["str", "none", "tuple", "dict"]
    )
    def test_a_child_that_is_not_a_tree_is_no_proof(self, child):
        psig = ProofSignature(ONE_RULE)
        assert is_proof(psig, WTree("rule0", (WTree("a"),)))
        assert not is_proof(psig, WTree("rule0", (child,)))
        assert not is_proof(psig, child)


    @pytest.mark.parametrize("walk", [ass, proof_to_json, proof_to_dot, render_proof], ids=lambda f: f.__name__)
    def test_a_child_that_is_not_a_tree_is_unknown_to_every_walk(self, walk):
        psig = ProofSignature(ONE_RULE)
        walk(psig, WTree("rule0", (WTree("a"),)))
        with pytest.raises(UnknownElement, match="'a' is not a tree"):
            walk(psig, WTree("rule0", ("a",)))


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


    @pytest.mark.parametrize("n", [1, 2, 5, 150])
    def test_chain_basis_is_the_singletons(self, n):
        """Every derivation on a chain has exactly one leaf."""
        carrier = Carrier(tuple(f"c{i}" for i in range(n)))
        phi = defn(carrier, *(([f"c{i}"], f"c{i + 1}") for i in range(n - 1)))
        assert compactness_basis(phi) == frozenset(Subset.from_names(carrier, [x]) for x in carrier)

    @pytest.mark.parametrize("levels", [1, 2, 4, 7])
    def test_ladder_basis_by_its_recursion(self, levels):
        """Rung j is x_j or y_j, each derived from {x_(j-1), y_(j-1)}: a
        rung-j set is a rung-j element alone or a union of one set for
        x_(j-1) and one for y_(j-1)."""
        carrier = Carrier(tuple(f"{s}{j}" for j in range(levels) for s in "xy"))
        rules = [([f"x{j - 1}", f"y{j - 1}"], f"{s}{j}") for j in range(1, levels) for s in "xy"]
        want, below = set(), set()
        for j in range(levels):
            x, y = frozenset([f"x{j}"]), frozenset([f"y{j}"])
            want |= {x, y} | below
            below = {a | b for a in {x} | below for b in {y} | below}
        got = compactness_basis(defn(carrier, *rules))
        assert {frozenset(v.names()) for v in got} == want

    def test_rounds_stop_at_depth_carrier_plus_one(self):
        """Going round the loop x -> w1 -> w2 -> x twice, once through z1
        and once through z2, assumes {x, z1, z2} at depth 7; the basis of
        these 5 elements stops at depth 6, one round too early for it."""
        carrier = Carrier.of("x", "w1", "w2", "z1", "z2")
        phi = defn(carrier, (["x"], "w1"), (["w1"], "w2"), (["w2", "z1"], "x"), (["w2", "z2"], "x"))
        got = {frozenset(v.names()) for v in compactness_basis(phi)}
        assert got == {shape_ass(phi, s) for s in enumerate_proof_shapes(phi, 6)}
        assert frozenset({"x", "z1", "z2"}) not in got
        assert frozenset({"x", "z1", "z2"}) in {shape_ass(phi, s) for s in enumerate_proof_shapes(phi, 7)}

    def test_matches_recombining_every_rule_every_round(self):
        """On 400 seeded systems of up to 7 elements, the basis that
        recombines only new masks equals the one that recombines all."""
        rng = Random(7070)
        for _ in range(400):
            spec = InstanceSpec(rng.randint(1, 7), rng.randint(0, 12), rng.randint(0, 4))
            phi = random_definition(rng, spec)
            got = {frozenset(v.names()) for v in compactness_basis(phi)}
            assert got == basis_by_full_rounds(phi), str(phi)


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


PAIR = defn(ABC, (["a", "b"], "c"), (["a"], "b"))
BOGUS = {"kind": "bogus"}
ZZ = {"kind": "assume", "element": "zz"}
SHORT = {"kind": "rule", "rule": 1, "children": {}}


@pytest.mark.parametrize(
    "doc, error, message",
    [
        ({"kind": "rule", "rule": 0, "children": {"a": BOGUS, "b": ZZ}}, UnknownElement, "unknown node kind 'bogus'"),
        ({"kind": "rule", "rule": 0, "children": {"a": ZZ, "b": BOGUS}}, UnknownElement,
         "'zz' is not an element of {a, b, c}"),
        ({"kind": "rule", "rule": 0, "children": {"a": SHORT, "b": BOGUS}}, ArityMismatch,
         "rule 1: missing premises ['a']"),
        ({"kind": "rule", "rule": 0, "children": {"a": BOGUS}}, UnknownElement, "unknown node kind 'bogus'"),
        ({"kind": "rul", "rule": 0, "children": {"a": ZZ}}, UnknownElement, "unknown node kind 'rul'"),
    ],
    ids=["kind-then-element", "element-then-kind", "rule-then-kind", "child-then-rule", "kind-then-child"],
)
def test_proof_from_json_reports_the_first_of_two_faults(doc, error, message):
    """Kinds are checked on the way down, rule applications once the
    children are built, in depth-first order."""
    with pytest.raises(error) as caught:
        proof_from_json(build_proof_signature(PAIR), doc)
    assert str(caught.value) == message


A_LEAF = {"kind": "assume", "element": "a"}


@pytest.mark.parametrize(
    "doc",
    [
        {"kind": "rule", "rule": 1.9, "children": {"a": A_LEAF}},
        {"kind": "rule", "rule": "1", "children": {"a": A_LEAF}},
        {"kind": "rule", "rule": True, "children": {"a": A_LEAF}},
        {"kind": "rule", "children": {"a": A_LEAF}},
        [A_LEAF],
        {"kind": "rule", "rule": 1, "children": {"a": [A_LEAF]}},
        {"kind": "rule", "rule": 1, "children": [A_LEAF]},
        {"kind": "assume", "element": ["a"]},
        {"kind": "assume", "element": 5},
        {"kind": "assume"},
    ],
    ids=["float-index", "string-index", "bool-index", "no-index", "list-node", "list-child", "list-children",
         "list-element", "int-element", "no-element"],
)
def test_proof_from_json_reads_only_its_own_schema(doc):
    """Each of these is well-formed but for one field of the wrong type,
    or missing; rule 1 of PAIR concludes b from a."""
    with pytest.raises(SchemaError):
        proof_from_json(build_proof_signature(PAIR), doc)
    fixed = {"kind": "rule", "rule": 1, "children": {"a": A_LEAF}}
    assert is_proof(build_proof_signature(PAIR), proof_from_json(build_proof_signature(PAIR), fixed))


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
