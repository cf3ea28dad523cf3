"""Rule-file parsing, canonical printing, and AST translation."""

import re
import sys
import warnings
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indkernel.dsl import (
    AstRule,
    RuleFileAST,
    _plain_columns,
    _read_problem,
    _tokenize,
    definition_from_ast,
    emit,
    parse_rule_file,
    presentation_from_ast,
)
from indkernel.errors import DslError, DuplicateName, ParseError, UndeclaredName, UnknownElement
from indkernel.finite import Subset
from indkernel.gen import random_ast
from indkernel.inddef import closure
from oracles import RefParseFailure, TokenError, reference_parse, reference_tokenize


class TestParsing:
    def test_minimal_file(self):
        ast = parse_rule_file("set a b\nrule a -> b")
        assert ast.names == ("a", "b")
        assert ast.rules == (AstRule(("a",), "b"),)
        assert ast.seed is None and ast.goal is None

    def test_use_before_declaration(self):
        with pytest.raises(UndeclaredName) as exc:
            parse_rule_file("rule -> a")
        assert (exc.value.line, exc.value.column) == (1, 9)

    def test_axiom_flips_the_arrow(self):
        ast = parse_rule_file("set a b c\naxiom a <- b c")
        assert ast.rules == (AstRule(("b", "c"), "a", as_axiom=True),)

    def test_axiom_with_empty_cover(self):
        ast = parse_rule_file("set a\naxiom a <-")
        assert ast.rules == (AstRule((), "a", as_axiom=True),)

    def test_comments_and_blank_lines_skipped(self):
        text = "# heading\n\nset a  # trailing\n   \nseed a\n"
        ast = parse_rule_file(text)
        assert ast.names == ("a",)
        assert ast.seed == ("a",)

    def test_seed_lines_accumulate(self):
        ast = parse_rule_file("set a b c\nseed a\nseed b c")
        assert ast.seed == ("a", "b", "c")

    def test_empty_seed_line_declares_empty_seed(self):
        ast = parse_rule_file("set a\nseed")
        assert ast.seed == ()

    def test_duplicate_declaration_positions(self):
        with pytest.raises(DuplicateName) as exc:
            parse_rule_file("set a b\nset a")
        assert (exc.value.line, exc.value.column) == (2, 5)

    def test_duplicate_goal(self):
        with pytest.raises(ParseError, match="goal already declared on line 2"):
            parse_rule_file("set a\ngoal a\ngoal a")

    def test_keywords_are_reserved(self):
        with pytest.raises(ParseError, match="keyword 'rule'"):
            parse_rule_file("set rule")

    def test_unknown_directive_lists_the_keywords(self):
        with pytest.raises(ParseError) as exc:
            parse_rule_file("sets a b")
        assert "expected set or rule or axiom or seed or goal" in str(exc.value)

    def test_missing_arrow(self):
        with pytest.raises(ParseError, match="rule needs '->'"):
            parse_rule_file("set a\nrule a")

    def test_missing_conclusion(self):
        with pytest.raises(ParseError) as exc:
            parse_rule_file("set a\nrule a ->")
        assert (exc.value.line, exc.value.column) == (2, 8)

    def test_two_conclusions(self):
        with pytest.raises(ParseError, match="after the conclusion"):
            parse_rule_file("set a b\nrule -> a b")

    def test_stray_character_position(self):
        with pytest.raises(ParseError) as exc:
            parse_rule_file("set a\nseed a $")
        assert (exc.value.line, exc.value.column) == (2, 8)
        assert "unexpected character" in str(exc.value)


class TestEmit:
    def test_canonical_form(self):
        ast = RuleFileAST(
            ("a", "b", "c"),
            (AstRule(("a",), "b"), AstRule(("b", "c"), "a", as_axiom=True), AstRule((), "c")),
            ("a",),
            "b",
        )
        assert emit(ast) == (
            "set a b c\n"
            "rule a -> b\n"
            "axiom a <- b c\n"
            "rule -> c\n"
            "seed a\n"
            "goal b\n"
        )

    def test_no_trailing_spaces_on_empty_lists(self):
        ast = RuleFileAST(("a",), (AstRule((), "a"), AstRule((), "a", as_axiom=True)), (), None)
        text = emit(ast)
        assert text == "set a\nrule -> a\naxiom a <-\nseed\n"
        assert not any(line != line.rstrip() for line in text.splitlines())

    def test_emit_is_a_parse_fixpoint(self):
        messy = "# intro\nset a b   c\n\nrule a->b  # squeezed arrows\nseed a\nseed b"
        canonical = emit(parse_rule_file(messy))
        assert emit(parse_rule_file(canonical)) == canonical


class TestTranslation:
    @pytest.mark.parametrize("rule", [AstRule(("zz",), "a"), AstRule(("a",), "zz")], ids=["premise", "conclusion"])
    def test_a_hand_built_ast_naming_an_undeclared_element(self, rule):
        with pytest.raises(UnknownElement, match="'zz' is not an element of"):
            definition_from_ast(RuleFileAST(("a",), (rule,), None, None))

    def test_definition_from_ast(self):
        ast = parse_rule_file("set a b\nrule a -> b\nseed a\ngoal b")
        phi, seed, goal = definition_from_ast(ast)
        assert phi.carrier.names == ("a", "b")
        assert len(phi.rules) == 1
        assert seed == Subset.from_names(phi.carrier, ["a"])
        assert goal == "b"
        assert closure(phi, seed) == Subset.full(phi.carrier)

    def test_missing_seed_becomes_empty_subset(self):
        ast = parse_rule_file("set a")
        _, seed, goal = definition_from_ast(ast)
        assert seed == Subset.empty(seed.of)
        assert goal is None

    def test_presentation_from_ast(self):
        ast = parse_rule_file("set a b c\naxiom a <- b c\nseed b c")
        cp, seed, _ = presentation_from_ast(ast)
        ((opened, covering),) = cp.axioms
        assert opened == "a"
        assert covering == Subset.from_names(cp.base, ["b", "c"])
        assert seed == covering


@settings(max_examples=100)
@given(st.integers(0, 2**32))
def test_round_trip_is_identity_on_asts(seed):
    ast = random_ast(Random(seed))
    assert parse_rule_file(emit(ast)) == ast


@settings(max_examples=100)
@given(st.integers(0, 2**32))
def test_canonical_files_round_trip_byte_identically(seed):
    text = emit(random_ast(Random(seed)))
    assert emit(parse_rule_file(text)) == text


FUZZ_ALPHABET = "abc xyz_01\n\t#->&<-set rule axiom seed goal$(é"


@settings(max_examples=400)
@given(st.text(alphabet=FUZZ_ALPHABET, max_size=120))
def test_parser_is_total(text):
    """Any input either parses or raises one positioned dsl error."""
    try:
        parse_rule_file(text)
    except DslError as err:
        assert err.line >= 1
        assert err.column >= 1
    except DuplicateName as err:
        assert err.line is not None


def test_error_positions_are_one_based():
    with pytest.raises(ParseError) as exc:
        parse_rule_file("$")
    assert (exc.value.line, exc.value.column) == (1, 1)


TOKEN_PIECES = (
    "a", "b1", "_x", "Zed", "set", "rule", "axiom", "seed", "goal",
    "->", "<-", "a->b", "x<-y", "->->", "<->", "a-b", "-", "<", ">",
    "#", "# note", "a#b", "#->", "!", "1", "9a", "é", "$", ".",
)
TOKEN_GAPS = ("", " ", "  ", "\t", " \t ", "\u00a0", "\x0b", "\x0c")


def random_line(rng):
    parts = [rng.choice(TOKEN_GAPS)]
    for _ in range(rng.randint(0, 7)):
        parts += [rng.choice(TOKEN_PIECES), rng.choice(TOKEN_GAPS)]
    return "".join(parts)


def test_tokenizer_matches_the_per_character_reference():
    """The one-pass tokenizer yields the reference's tokens, and fails
    with the reference's message, line, column and expected tokens."""
    rng = Random(20260)
    errors = 0
    for lineno in range(1, 4001):
        line = random_line(rng)
        try:
            want = reference_tokenize(line, lineno)
        except TokenError as ref:
            message, ref_line, column, expected = ref.args
            with pytest.raises(ParseError) as exc:
                _tokenize(line, lineno)
            got = exc.value
            assert (got.line, got.column, got.expected) == (ref_line, column, expected), line
            assert str(got) == f"{ref_line}:{column}: {message} (expected {' or '.join(expected)})"
            errors += 1
        else:
            assert [(t.text, t.column) for t in _tokenize(line, lineno)] == want, line
    assert 500 < errors < 3500  # both outcomes are exercised


def random_rule_text(rng):
    """A valid rule file over e0..e{n-1}, one directive per line."""
    names = [f"e{i}" for i in range(rng.randint(1, 6))]
    cut = rng.randint(1, len(names))
    lines = ["set " + " ".join(names[:cut])]
    if cut < len(names):
        lines.append("set " + " ".join(names[cut:]))
    for _ in range(rng.randint(0, 5)):
        premises = rng.sample(names, rng.randint(0, min(3, len(names))))
        conclusion = rng.choice(names)
        if rng.random() < 0.3:
            lines.append(f"axiom {conclusion} <- {' '.join(premises)}".rstrip())
        else:
            lines.append(f"rule {' '.join(premises)} -> {conclusion}".replace("rule  ", "rule "))
    for _ in range(rng.randint(0, 2)):
        lines.append("seed " + " ".join(rng.sample(names, rng.randint(0, len(names)))))
    if rng.random() < 0.7:
        lines.append("goal " + rng.choice(names))
    return lines


def mutate(rng, lines):
    """One edit of the kinds a hand-written rule file gets wrong or
    writes differently; some keep the file valid."""
    i = rng.randrange(len(lines))
    words = lines[i].split(" ")
    kind = rng.randrange(12)
    if kind == 0:  # glued arrows
        lines[i] = lines[i].replace(" -> ", "->").replace(" <- ", "<-")
    elif kind == 1:  # a comment from mid-line on
        at = rng.randint(0, len(lines[i]))
        lines[i] = lines[i][:at] + rng.choice(["#", " # note", "#->$"]) + lines[i][at:]
    elif kind == 2:  # other blanks between the tokens
        blanks = [" ", "\t", "\u00a0", "  ", " \t"]
        lines[i] = "".join(rng.choice(blanks) if c == " " else c for c in lines[i])
    elif kind == 3:  # a keyword where a name belongs
        words[rng.randrange(len(words))] = rng.choice(["set", "rule", "axiom", "seed", "goal"])
        lines[i] = " ".join(words)
    elif kind == 4 and len(words) > 2:  # an undeclared name, not first on the line
        words[rng.randrange(2, len(words))] = "zz"
        lines[i] = " ".join(words)
    elif kind == 5:  # a duplicate declaration
        lines.insert(rng.randint(1, len(lines)), "set " + rng.choice(["e0", "e1", "zz zz"]))
    elif kind == 6:  # a missing arrow
        lines[i] = lines[i].replace("->", "").replace("<-", "")
    elif kind == 7:  # a missing conclusion, open or covering set
        lines[i] = " ".join(words[:-1])
    elif kind == 8:  # a repeated goal
        lines.append("goal " + rng.choice(["e0", "zz", ""]))
    elif kind == 9:  # a stray character
        at = rng.randint(0, len(lines[i]))
        lines[i] = lines[i][:at] + rng.choice("$-<>!9é.") + lines[i][at:]
    elif kind == 10:  # a use before the declaration
        lines.insert(0, lines.pop(i))
    else:  # a blank line, an unknown directive, a line cut short or one token too many
        extra = ["", "   ", "sets e0", "rule", "axiom", "goal e0 e1", "seed e0 ->", "rule -> e0 e1"]
        lines.insert(i, rng.choice(extra))
    return lines


def test_parser_matches_the_whole_file_reference():
    """parse_rule_file gives the reference's AST on valid files and the
    reference's error class, message, line, column and expected tokens
    on the others, over seeded mutations of random rule files."""
    rng = Random(40404)
    valid = 0
    for _ in range(3000):
        lines = random_rule_text(rng)
        for _ in range(rng.choice([0, 1, 1, 2, 3])):
            lines = mutate(rng, lines)
        text = "\n".join(lines)
        try:
            want = reference_parse(text)
        except RefParseFailure as ref:
            with pytest.raises((DslError, DuplicateName)) as exc:
                parse_rule_file(text)
            err = exc.value
            got = (type(err).__name__, str(err), err.line, err.column, getattr(err, "expected", ()))
            assert got == ref.args, text
        else:
            ast = parse_rule_file(text)
            rules = tuple((r.premises, r.conclusion, r.as_axiom) for r in ast.rules)
            assert (ast.names, rules, ast.seed, ast.goal) == want, text
            valid += 1
    assert 600 < valid < 2400  # both outcomes are exercised


def bench_shaped_text(rng):
    """A file shaped like the benchmark's: one set line over v0..v{n-1},
    rules of 0-3 distinct premises, some repeated, then a seed line
    (sometimes empty or missing) and usually a goal."""
    names = [f"v{i}" for i in range(rng.randint(1, 40))]
    rules = []
    for _ in range(rng.randint(0, 5 * len(names))):
        if rules and rng.random() < 0.05:
            rules.append(rng.choice(rules))
        else:
            premises = rng.sample(names, rng.randint(0, min(3, len(names))))
            rules.append(("rule " + " ".join(premises)).rstrip() + " -> " + rng.choice(names))
    lines = ["set " + " ".join(names), *rules]
    if rng.random() < 0.8:
        lines.append(("seed " + " ".join(rng.sample(names, rng.randint(0, min(3, len(names)))))).rstrip())
    if rng.random() < 0.8:
        lines.append("goal " + rng.choice(names))
    return lines


def read_both(text):
    """The fused reader's and parse + build's outcome on text: the
    (definition, seed, goal) with the warning texts in order, or the
    error's class, message, line, column and expected tokens."""
    outcomes = []
    for read in (_read_problem, lambda t: definition_from_ast(parse_rule_file(t))):
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            try:
                got = read(text)
            except (DslError, DuplicateName) as err:
                got = (type(err).__name__, str(err), err.line, err.column, getattr(err, "expected", ()))
        outcomes.append((got, [str(w.message) for w in record]))
    return outcomes


def test_fused_reader_matches_parse_and_build():
    """On bench-shaped files and on the seeded mutations of random rule
    files (axiom lines, files with no seed line), the fused reader gives
    parse + build's definition, seed, goal and duplicate-rule warnings,
    or its error; both its plain path and its fallback are exercised."""
    rng = Random(1111)
    plain = fallback = warned = failed = 0
    for case in range(3000):
        lines = bench_shaped_text(rng) if case % 3 == 0 else random_rule_text(rng)
        for _ in range(rng.choice([0, 0, 1, 2])):
            lines = mutate(rng, lines)
        text = "\n".join(lines)
        fused, reference = read_both(text)
        assert fused == reference, text
        if _plain_columns(text) is None:
            fallback += 1
        else:
            plain += 1
        warned += bool(fused[1])
        failed += isinstance(fused[0][0], str)  # an error's class name, not a definition
    assert plain > 1200 and fallback > 800 and warned > 300 and failed > 700, (plain, fallback, warned, failed)


def test_str_split_and_the_tokenizer_agree_on_blanks():
    """The fused reader splits a line with str.split, the tokenizer skips
    what \\S does not match: the same code points, every one of them."""
    chars = "".join(map(chr, range(sys.maxunicode + 1)))
    assert {c for c in chars if c.isspace()} == set(chars) - set(re.findall(r"\S", chars))
