"""Line-oriented rule files: parsing, canonical printing, translation.

Grammar, one directive per line, '#' starts a comment anywhere:

    set NAME+              declare elements (repeatable, order kept)
    rule NAME* -> NAME     premises -> conclusion
    axiom NAME <- NAME*    open <- covering set (same rule, flipped)
    seed NAME*             the starting subset (repeatable, unioned)
    goal NAME              at most one per file

Names are [A-Za-z_][A-Za-z0-9_]* and must be declared by a set line
before use; keywords are reserved. Errors carry 1-based line and
column. emit() prints the canonical form (one set line, rules in
declaration order, seed then goal last); parsing it back yields an
identical AST, and on canonical files the round trip is the identity
on bytes as well.

The CLI loads a file with _read_problem. A file whose every line has
a plain shape goes straight into the rule store's columns, one
str.split per line and one dict lookup per name, with no AST. Any
other file (a comment, a glued arrow, an undeclared name or keyword,
a repeated goal, a stray character) goes whole to parse_rule_file, so
every error is the parser's own, with its message, line, column and
expected tokens; the two read a plain file into the same rules.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DuplicateName, ParseError, UndeclaredName
from .finite import Carrier, Subset
from .inddef import InductiveDefinition
from .topology import CoverPresentation

KEYWORDS = ("set", "rule", "axiom", "seed", "goal")

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# A name or an arrow (group 1), else one stray non-space character,
# which is either the start of a comment or an error.
_TOKEN = re.compile(rf"({_NAME.pattern}|->|<-)|\S")


@dataclass(frozen=True)
class AstRule:
    """One rule line; premises keep their written order."""

    premises: tuple[str, ...]
    conclusion: str
    as_axiom: bool = False


@dataclass(frozen=True)
class RuleFileAST:
    names: tuple[str, ...]
    rules: tuple[AstRule, ...]
    seed: tuple[str, ...] | None
    goal: str | None


class _Token(NamedTuple):
    text: str
    column: int


def _tokenize(line: str, lineno: int) -> list[_Token]:
    """The tokens of one line, in one regex pass; '#' ends the line."""
    tokens: list[_Token] = []
    for m in _TOKEN.finditer(line):
        if m.lastindex is None:
            if m.group() == "#":
                break
            raise ParseError(
                f"unexpected character {m.group()!r}", lineno, m.start() + 1, ("NAME", "->", "<-")
            )
        tokens.append(_Token(m.group(), m.start() + 1))
    return tokens


def _column(line: str, lineno: int, i: int) -> int:
    """The 1-based column of token i of a line, for an error message."""
    return _tokenize(line, lineno)[i].column


def _not_a_name(line: str, lineno: int, i: int) -> DslError:
    """The error for token i of a line, where a declared name belongs."""
    text, column = _tokenize(line, lineno)[i]
    if text in KEYWORDS:
        return ParseError(f"keyword {text!r} cannot be used as a name", lineno, column, ("NAME",))
    if text in ("->", "<-"):
        return ParseError(f"expected a name, got {text!r}", lineno, column, ("NAME",))
    return UndeclaredName(f"name {text!r} was never declared", lineno, column)


def parse_rule_file(text: str) -> RuleFileAST:
    """The AST of a rule file, or the first DslError/DuplicateName in it.

    Each line becomes plain string tokens in one findall, a stray
    character becoming the empty string. Only a line that is about to
    raise is tokenized again with columns, by _tokenize, which also
    raises for the first stray character of the line.
    """
    declared: dict[str, int] = {}  # name -> index, in declaration order
    rules: list[AstRule] = []
    seed: list[str] | None = None
    goal: str | None = None
    goal_line = 0

    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = _TOKEN.findall(line.partition("#")[0])
        if not tokens:
            continue
        if "" in tokens:
            _tokenize(line, lineno)  # raises at the first stray character
        head = tokens[0]
        body = tokens[1:]
        if head == "rule":
            if "->" not in body:
                at = _column(line, lineno, len(body)) if body else _column(line, lineno, 0) + len(head)
                raise ParseError("rule needs '->'", lineno, at, ("->",))
            arrow = body.index("->")
            premises = body[:arrow]
            for name in premises:
                if name not in declared:
                    raise _not_a_name(line, lineno, 1 + premises.index(name))
            if len(body) != arrow + 2:
                if len(body) == arrow + 1:
                    raise ParseError(
                        "rule needs a conclusion", lineno, _column(line, lineno, arrow + 1), ("NAME",)
                    )
                raise ParseError(
                    f"unexpected {body[arrow + 2]!r} after the conclusion", lineno,
                    _column(line, lineno, arrow + 3), ("end of line",),
                )
            conclusion = body[-1]
            if conclusion not in declared:
                raise _not_a_name(line, lineno, arrow + 2)
            rules.append(AstRule(tuple(premises), conclusion, False))
        elif head == "set":
            if not body:
                at = _column(line, lineno, 0) + len(head)
                raise ParseError("set needs at least one name", lineno, at, ("NAME",))
            for i, name in enumerate(body, start=1):
                if name in declared:
                    at = _column(line, lineno, i)
                    raise DuplicateName(f"element {name!r} declared twice", lineno, at)
                if name in KEYWORDS or name in ("->", "<-"):
                    raise _not_a_name(line, lineno, i)
                declared[name] = len(declared)
        elif head == "axiom":
            if not body:
                at = _column(line, lineno, 0) + len(head)
                raise ParseError("axiom needs an open", lineno, at, ("NAME",))
            if body[0] not in declared:
                raise _not_a_name(line, lineno, 1)
            if len(body) < 2 or body[1] != "<-":
                at = _column(line, lineno, 2) if len(body) > 1 else _column(line, lineno, 1) + len(body[0])
                raise ParseError("axiom needs '<-'", lineno, at, ("<-",))
            covering = body[2:]
            for name in covering:
                if name not in declared:
                    raise _not_a_name(line, lineno, 3 + covering.index(name))
            rules.append(AstRule(tuple(covering), body[0], True))
        elif head == "seed":
            for name in body:
                if name not in declared:
                    raise _not_a_name(line, lineno, 1 + body.index(name))
            if seed is None:
                seed = []
            seed += body
        elif head == "goal":
            if goal is not None:
                raise ParseError(
                    f"goal already declared on line {goal_line}", lineno, _column(line, lineno, 0)
                )
            if not body:
                at = _column(line, lineno, 0) + len(head)
                raise ParseError("goal needs a name", lineno, at, ("NAME",))
            if len(body) > 1:
                raise ParseError(
                    f"unexpected {body[1]!r} after the goal", lineno, _column(line, lineno, 2),
                    ("end of line",),
                )
            if body[0] not in declared:
                raise _not_a_name(line, lineno, 1)
            goal = body[0]
            goal_line = lineno
        else:
            raise ParseError(
                f"unknown directive {head!r}", lineno, _column(line, lineno, 0), KEYWORDS
            )
    return RuleFileAST(
        tuple(declared),
        tuple(rules),
        tuple(seed) if seed is not None else None,
        goal,
    )


def emit(ast: RuleFileAST) -> str:
    """Canonical text: parse(emit(ast)) == ast, and emit is a fixpoint
    of parse-then-emit on its own output."""
    lines: list[str] = []
    if ast.names:
        lines.append("set " + " ".join(ast.names))
    for rule in ast.rules:
        if rule.as_axiom:
            lines.append(("axiom " + rule.conclusion + " <- " + " ".join(rule.premises)).rstrip())
        else:
            lines.append(("rule " + " ".join(rule.premises)).rstrip() + " -> " + rule.conclusion)
    if ast.seed is not None:
        lines.append(("seed " + " ".join(ast.seed)).rstrip())
    if ast.goal is not None:
        lines.append("goal " + ast.goal)
    return "".join(line + "\n" for line in lines)


def _columns(ast: RuleFileAST) -> tuple[Carrier, list[int], list[int], Subset]:
    """The carrier, each rule's premise mask and conclusion index (one
    dict lookup per name), and the seed subset."""
    carrier = Carrier(ast.names)
    index = carrier._index
    bit = {name: 1 << i for name, i in index.items()}
    masks, conclusions = [], []
    try:
        for r in ast.rules:
            bits = 0
            for name in r.premises:
                bits |= bit[name]
            masks.append(bits)
            conclusions.append(index[r.conclusion])
    except KeyError as exc:  # a name no set line declared, in a hand-built AST
        carrier.index(exc.args[0])
    return carrier, masks, conclusions, Subset.from_names(carrier, ast.seed or ())


def definition_from_ast(ast: RuleFileAST) -> tuple[InductiveDefinition, Subset, str | None]:
    """The rule system, built from its columns with no Subset or Rule per
    rule, the seed subset (empty if no seed line), and the goal."""
    carrier, masks, conclusions, seed = _columns(ast)
    return InductiveDefinition._from_columns(carrier, masks, conclusions), seed, ast.goal


def _plain_columns(text: str) -> tuple[Carrier, list[int], list[int], Subset, str | None] | None:
    """_columns of the file and its goal, read with one str.split per
    line and one dict lookup per name, if every line has a plain shape;
    None at the first line that has not.

    Plain: a blank line; set with new names that are not keywords; rule
    with declared names and '->' second to last; axiom with a declared
    open and '<-' third; seed with declared names; the first goal, with
    one declared name. A word that is not a declared name (a comment, a
    glued arrow, a stray character) misses the lookup. str.split and
    the tokenizer's \\S agree on blanks, so parse_rule_file reads a
    plain file into the same rules.
    """
    names: list[str] = []
    index: dict[str, int] = {}
    bit: dict[str, int] = {}
    masks: list[int] = []
    conclusions: list[int] = []
    seed = 0
    goal = None
    try:
        for line in text.splitlines():
            words = line.split()
            if not words:
                continue
            head = words[0]
            if head == "rule" and len(words) > 2 and words[-2] == "->":
                premises, conclusion = words[1:-2], words[-1]
            elif head == "axiom" and len(words) > 2 and words[2] == "<-":
                premises, conclusion = words[3:], words[1]
            elif head == "set" and len(words) > 1:
                for name in words[1:]:
                    if name in index or name in KEYWORDS or not _NAME.fullmatch(name):
                        return None
                    bit[name] = 1 << len(names)
                    index[name] = len(names)
                    names.append(name)
                continue
            elif head == "seed":
                for name in words[1:]:
                    seed |= bit[name]
                continue
            elif head == "goal" and len(words) == 2 and goal is None and words[1] in index:
                goal = words[1]
                continue
            else:
                return None
            mask = 0
            for name in premises:
                mask |= bit[name]
            masks.append(mask)
            conclusions.append(index[conclusion])
    except KeyError:  # an undeclared name, or a word that is no name
        return None
    carrier = Carrier(tuple(names))
    return carrier, masks, conclusions, Subset(carrier, seed), goal


def _read_problem(text: str) -> tuple[InductiveDefinition, Subset, str | None]:
    """definition_from_ast(parse_rule_file(text)), with the same result,
    warnings and errors, and no AST when every line is plain. Any other
    file goes whole to parse_rule_file, so every error is its error."""
    read = _plain_columns(text)
    if read is None:
        ast = parse_rule_file(text)
        read = *_columns(ast), ast.goal
    carrier, masks, conclusions, seed, goal = read
    # called here, so a duplicate-rule warning names this function's caller
    return InductiveDefinition._from_columns(carrier, masks, conclusions), seed, goal


def presentation_from_ast(ast: RuleFileAST) -> tuple[CoverPresentation, Subset, str | None]:
    """Read every rule as a cover axiom (conclusion covered by premises)."""
    base, masks, conclusions, seed = _columns(ast)
    axioms = tuple((base.names[c], Subset(base, m)) for m, c in zip(masks, conclusions))
    return CoverPresentation(base, axioms), seed, ast.goal
