"""Rule systems and their least closures."""

import os
import pickle
import subprocess
import sys
import warnings
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import indkernel
from indkernel.cli import run_command
from indkernel.dsl import definition_from_ast, parse_rule_file
from indkernel.finite import Carrier, Subset
from indkernel.inddef import (
    InductiveDefinition,
    Rule,
    closure,
    closure_stages,
    is_phi_closed,
    naive_closure_oracle,
)
from indkernel.proofs import ProofSignature, build_proof_signature
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
        assert phi._masks == (0b101, 0b001)
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


def built_both_ways(carrier, rules):
    """(definition, warning texts) from the public constructor and from
    the columns constructor, on the same rules."""
    masks = [r.premises.bits for r in rules]
    conclusions = [carrier.index(r.conclusion) for r in rules]
    results = []
    for build in (
        lambda: InductiveDefinition(carrier, rules),
        lambda: InductiveDefinition._from_columns(carrier, masks, conclusions),
    ):
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            phi = build()
        results.append((phi, [str(w.message) for w in record]))
    return results


class TestColumnStore:
    def test_columns_constructor_agrees_with_rule_constructor_on_500_systems(self):
        """Duplicates, premise-free rules, empty and one-element carriers:
        both constructors give equal definitions, hashes, rules, warnings
        and pickles, and keep the first copy of each rule in order."""
        rng = Random(8)
        shapes = {"empty": 0, "one": 0, "duplicates": 0, "premise-free": 0}
        for case in range(500):
            n = (0, 1, 1, 2, 3, 5, 8)[case % 7]
            carrier = Carrier(tuple(f"s{i}" for i in range(n)))
            rules = []
            for _ in range(rng.randint(0, 12) if n else 0):
                if rules and rng.random() < 0.25:
                    rules.append(rng.choice(rules))
                else:
                    bits = sum(1 << i for i in rng.sample(range(n), rng.randint(0, min(3, n))))
                    rules.append(Rule(Subset(carrier, bits), carrier.name(rng.randrange(n))))
            kept, texts = [], []
            for rule in rules:
                if rule in kept:
                    texts.append(f"dropping duplicate rule {rule}")
                else:
                    kept.append(rule)
            shapes["empty"] += n == 0
            shapes["one"] += n == 1
            shapes["duplicates"] += bool(texts)
            shapes["premise-free"] += any(not r.premises.bits for r in rules)

            (by_rules, warned_rules), (by_columns, warned_columns) = built_both_ways(carrier, rules)
            assert warned_rules == warned_columns == texts
            assert by_rules == by_columns and hash(by_rules) == hash(by_columns)
            assert by_rules.rules == by_columns.rules == tuple(kept)
            assert by_rules.carrier == by_columns.carrier == carrier
            for phi, twin in ((by_rules, by_columns), (by_columns, by_rules)):
                again = pickle.loads(pickle.dumps(phi))
                assert again == twin and hash(again) == hash(twin)
                assert again.rules == tuple(kept)
        assert all(shapes.values()), shapes

    def test_rules_are_built_on_first_read_and_kept(self):
        phi = InductiveDefinition._from_columns(ABC, [0b101, 0b001], [1, 2])
        assert "rules" not in vars(phi)
        assert phi.rules == (
            Rule(Subset.from_names(ABC, ["a", "c"]), "b"),
            Rule(Subset.from_names(ABC, ["a"]), "c"),
        )
        assert phi.rules is phi.rules
        assert str(phi) == "<2 rules over {a, b, c}: {a, c} -> b; {a} -> c>"

    def test_one_shot_commands_build_no_rule_and_no_premise_index(self, tmp_path, capsys, monkeypatch):
        """close, prove (text and JSON), witness and cover on a seeded
        1000-element file print the same with Rule construction and the
        proof signature's slot table made to raise: they read only the columns."""
        rng = Random(1000)
        names = [f"v{i}" for i in range(1000)]
        rules = {}
        while len(rules) < 5000:
            premises = tuple(sorted(rng.sample(range(1000), rng.randint(0, 3))))
            rules.setdefault((premises, rng.randrange(1000)))
        seed = sorted(rng.sample(range(1000), 20))
        lines = ["set " + " ".join(names)]
        lines += [" ".join(["rule", *(names[b] for b in p), "->", names[c]]) for p, c in rules]
        lines.append("seed " + " ".join(names[i] for i in seed))
        path = tmp_path / "big.rules"
        path.write_text("\n".join(lines) + "\n")

        phi, u, _ = definition_from_ast(parse_rule_file(path.read_text()))
        stages = closure_stages(phi, u)
        assert len(stages) > 3
        goal = (stages[-1] - stages[-2]).names()[0]
        outside = (Subset.full(phi.carrier) - stages[-1]).names()[0]
        commands = [
            ["close", path],
            *(
                [*command, path, flag, point]
                for point in (goal, outside)
                for command, flag in ((["prove"], "--goal"), (["prove", "--json"], "--goal"),
                                      (["witness"], "--goal"), (["cover"], "--point"))
            ),
        ]

        def outputs():
            got = []
            for argv in commands:
                build_proof_signature.cache_clear()
                code = run_command([str(a) for a in argv])
                got.append((code, capsys.readouterr().out))
            return got

        want = outputs()
        assert [code for code, _ in want] == [0, 0, 0, 0, 0, 1, 1, 1, 1]

        def refuse(*args, **kwargs):
            raise AssertionError("a one-shot command read the API edge")

        with monkeypatch.context() as patch:
            patch.setattr(Rule, "__init__", refuse)
            patch.setattr(ProofSignature, "_slots", property(refuse))
            assert outputs() == want
        build_proof_signature.cache_clear()


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
