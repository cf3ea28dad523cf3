"""Rule systems and their least closures."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import indkernel
from indkernel.finite import Carrier, Subset
from indkernel.inddef import (
    InductiveDefinition,
    Rule,
    closure,
    closure_stages,
    is_phi_closed,
    naive_closure_oracle,
)
from oracles import closed_supersets

AB = Carrier.of("a", "b")
ABC = Carrier.of("a", "b", "c")


def defn(carrier, *rules):
    return InductiveDefinition(carrier, tuple(Rule(Subset.from_names(carrier, ps), c) for ps, c in rules))


CHAIN = defn(ABC, (["a"], "b"), (["b"], "c"))


@st.composite
def definitions(draw, max_size=6, max_rules=12):
    n = draw(st.integers(1, max_size))
    carrier = Carrier.of(*(f"s{i}" for i in range(n)))
    count = draw(st.integers(0, max_rules))
    rules = []
    seen = set()
    for _ in range(count):
        bits = draw(st.integers(0, 2**n - 1))
        conclusion = draw(st.integers(0, n - 1))
        if (bits, conclusion) in seen:
            continue
        seen.add((bits, conclusion))
        rules.append(Rule(Subset(carrier, bits), carrier.name(conclusion)))
    return InductiveDefinition(carrier, tuple(rules))


@st.composite
def seeded_definitions(draw, max_size=6, max_rules=12):
    phi = draw(definitions(max_size, max_rules))
    bits = draw(st.integers(0, 2 ** len(phi.carrier) - 1))
    return phi, Subset(phi.carrier, bits)


class TestIsPhiClosed:
    def test_no_rules_everything_closed(self):
        phi = defn(AB)
        for bits in range(4):
            assert is_phi_closed(phi, Subset(AB, bits))

    def test_firing_rule_with_missing_conclusion(self):
        phi = defn(AB, (["a"], "b"))
        assert not is_phi_closed(phi, Subset.from_names(AB, ["a"]))

    def test_satisfied_rule(self):
        phi = defn(AB, (["a"], "b"))
        assert is_phi_closed(phi, Subset.from_names(AB, ["a", "b"]))


class TestClosure:
    def test_no_rules_returns_seed(self):
        phi = defn(AB)
        u = Subset.from_names(AB, ["b"])
        assert closure(phi, u) == u

    def test_nullary_rule_forces_conclusion(self):
        phi = defn(AB, ([], "a"))
        assert closure(phi, Subset.empty(AB)) == Subset.from_names(AB, ["a"])

    def test_two_step_chain(self):
        got = closure(CHAIN, Subset.from_names(ABC, ["a"]))
        assert got == naive_closure_oracle(CHAIN, Subset.from_names(ABC, ["a"]))
        assert got == Subset.full(ABC)

    def test_foreign_seed_rejected(self):
        with pytest.raises(ValueError):
            closure(CHAIN, Subset.empty(AB))


class TestClosureStages:
    def test_no_rules(self):
        u = Subset.from_names(AB, ["a"])
        assert closure_stages(defn(AB), u) == [u]

    def test_chain_stages(self):
        got = closure_stages(CHAIN, Subset.from_names(ABC, ["a"]))
        want = [["a"], ["a", "b"], ["a", "b", "c"]]
        assert got == [Subset.from_names(ABC, w) for w in want]

    def test_already_closed_seed(self):
        phi = defn(AB, ([], "a"))
        u = Subset.from_names(AB, ["a"])
        assert closure_stages(phi, u) == [u]


class TestNaiveOracle:
    def test_matches_closure_on_named_cases(self):
        cases = [
            (defn(AB), Subset.from_names(AB, ["b"])),
            (defn(AB, ([], "a")), Subset.empty(AB)),
            (CHAIN, Subset.from_names(ABC, ["a"])),
        ]
        for phi, u in cases:
            assert naive_closure_oracle(phi, u) == closure(phi, u)

    def test_conclusions_already_present(self):
        phi = defn(ABC, (["a"], "b"), (["c"], "b"))
        u = Subset.from_names(ABC, ["a", "b"])
        assert naive_closure_oracle(phi, u) == u

    def test_complete_singleton_rules(self):
        xy = Carrier.of("x", "y")
        phi = defn(xy, (["x"], "x"), (["x"], "y"), (["y"], "x"), (["y"], "y"))
        assert naive_closure_oracle(phi, Subset.from_names(xy, ["x"])) == Subset.full(xy)


class TestConstruction:
    def test_duplicate_rules_dropped_with_warning(self):
        rule = Rule(Subset.from_names(AB, ["a"]), "b")
        with pytest.warns(UserWarning, match="duplicate rule"):
            phi = InductiveDefinition(AB, (rule, rule))
        assert len(phi.rules) == 1

    def test_pickled_in_another_process_hashes_like_one_built_here(self):
        """Carrier and InductiveDefinition keep their hashes; unpickling
        must not bring back hashes of strings from another process."""
        code = (
            "import pickle, sys\n"
            "from indkernel.finite import Carrier, Subset\n"
            "from indkernel.inddef import InductiveDefinition, Rule\n"
            "c = Carrier.of('a', 'b')\n"
            "phi = InductiveDefinition(c, (Rule(Subset.from_names(c, ['a']), 'b'),))\n"
            "hash(phi)\n"
            "sys.stdout.buffer.write(pickle.dumps(phi))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(indkernel.__file__).parents[1]))
        env["PYTHONHASHSEED"] = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True)
        phi = pickle.loads(out.stdout)
        here = defn(AB, (["a"], "b"))
        assert phi == here and hash(phi) == hash(here)
        assert hash(phi.carrier) == hash(AB)

    def test_duplicate_rule_warning_names_the_rule_and_keeps_the_first(self):
        first = Rule(Subset.from_names(ABC, ["c", "a"]), "b")
        other = Rule(Subset.from_names(ABC, ["a"]), "c")
        again = Rule(Subset.from_names(ABC, ["a", "c"]), "b")
        with pytest.warns(UserWarning) as record:
            phi = InductiveDefinition(ABC, (first, other, again))
        assert [str(w.message) for w in record] == ["dropping duplicate rule {a, c} -> b"]
        assert phi.rules == (first, other)
        assert phi._premise_index == ((0, 2), (0,))
        assert phi._conclusion_index == (1, 2)

    def test_rule_over_other_carrier_rejected(self):
        rule = Rule(Subset.from_names(ABC, ["a"]), "b")
        with pytest.raises(ValueError, match="different carrier"):
            InductiveDefinition(AB, (rule,))

    def test_conclusion_must_be_in_carrier(self):
        from indkernel.errors import UnknownElement

        with pytest.raises(UnknownElement):
            Rule(Subset.from_names(AB, ["a"]), "zz")

    def test_rule_order_never_changes_closure(self):
        r1 = Rule(Subset.from_names(ABC, ["a"]), "b")
        r2 = Rule(Subset.from_names(ABC, ["b"]), "c")
        u = Subset.from_names(ABC, ["a"])
        fwd = closure(InductiveDefinition(ABC, (r1, r2)), u)
        rev = closure(InductiveDefinition(ABC, (r2, r1)), u)
        assert fwd == rev


@settings(max_examples=100)
@given(seeded_definitions())
def test_closure_is_extensive(case):
    phi, u = case
    assert u <= closure(phi, u)


@settings(max_examples=100)
@given(seeded_definitions(), st.integers(0, 2**6 - 1))
def test_closure_is_monotone(case, extra_bits):
    phi, u = case
    bigger = u | Subset(phi.carrier, extra_bits & (2 ** len(phi.carrier) - 1))
    assert closure(phi, u) <= closure(phi, bigger)


@settings(max_examples=100)
@given(seeded_definitions())
def test_closure_is_idempotent(case):
    phi, u = case
    once = closure(phi, u)
    assert closure(phi, once) == once


@settings(max_examples=100)
@given(seeded_definitions())
def test_closure_is_closed_and_least(case):
    phi, u = case
    got = closure(phi, u)
    assert is_phi_closed(phi, got)
    # brute force: least element of all closed supersets, 2^|S| scan
    assert got == min(closed_supersets(phi, u), key=lambda s: s.bits.bit_count())
    for superset in closed_supersets(phi, u):
        assert got <= superset


@settings(max_examples=100)
@given(seeded_definitions())
def test_closure_matches_naive_oracle(case):
    phi, u = case
    assert closure(phi, u) == naive_closure_oracle(phi, u)


@settings(max_examples=100)
@given(seeded_definitions())
def test_stage_chain_shape(case):
    phi, u = case
    stages = closure_stages(phi, u)
    assert len(stages) <= len(phi.carrier) + 1
    assert stages[0] == u
    assert stages[-1] == closure(phi, u)
    for early, late in zip(stages, stages[1:]):
        assert early < late
