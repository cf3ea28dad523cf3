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
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DuplicateName, ParseError, UndeclaredName
from .finite import Carrier, Subset
from .inddef import InductiveDefinition, Rule
from .topology import CoverPresentation

KEYWORDS = ("set", "rule", "axiom", "seed", "goal")

# A name or an arrow (group 1), else one stray non-space character,
# which is either the start of a comment or an error.
_TOKEN = re.compile(r"([A-Za-z_][A-Za-z0-9_]*|->|<-)|\S")


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


def parse_rule_file(text: str) -> RuleFileAST:
    names: list[str] = []
    declared: set[str] = set()
    rules: list[AstRule] = []
    seed: list[str] | None = None
    goal: str | None = None
    goal_line = 0

    def expect_name(tok: _Token, lineno: int) -> str:
        if tok.text in KEYWORDS:
            raise ParseError(
                f"keyword {tok.text!r} cannot be used as a name", lineno, tok.column, ("NAME",)
            )
        if tok.text in ("->", "<-"):  # every other token is a name
            raise ParseError(f"expected a name, got {tok.text!r}", lineno, tok.column, ("NAME",))
        return tok.text

    def expect_declared(tok: _Token, lineno: int) -> str:
        name = expect_name(tok, lineno)
        if name not in declared:
            raise UndeclaredName(f"name {name!r} was never declared", lineno, tok.column)
        return name

    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(line, lineno)
        if not tokens:
            continue
        head = tokens[0]
        body = tokens[1:]
        if head.text == "set":
            if not body:
                raise ParseError("set needs at least one name", lineno, head.column + len("set"), ("NAME",))
            for tok in body:
                name = expect_name(tok, lineno)
                if name in declared:
                    raise DuplicateName(f"element {name!r} declared twice", lineno, tok.column)
                declared.add(name)
                names.append(name)
        elif head.text == "rule":
            arrow = next((i for i, t in enumerate(body) if t.text == "->"), None)
            if arrow is None:
                column = body[-1].column if body else head.column + len("rule")
                raise ParseError("rule needs '->'", lineno, column, ("->",))
            premises = tuple(expect_declared(t, lineno) for t in body[:arrow])
            rest = body[arrow + 1 :]
            if not rest:
                raise ParseError("rule needs a conclusion", lineno, body[arrow].column, ("NAME",))
            if len(rest) > 1:
                raise ParseError(
                    f"unexpected {rest[1].text!r} after the conclusion", lineno, rest[1].column,
                    ("end of line",),
                )
            conclusion = expect_declared(rest[0], lineno)
            rules.append(AstRule(premises, conclusion, as_axiom=False))
        elif head.text == "axiom":
            if not body:
                raise ParseError("axiom needs an open", lineno, head.column + len("axiom"), ("NAME",))
            opened = expect_declared(body[0], lineno)
            if len(body) < 2 or body[1].text != "<-":
                column = body[1].column if len(body) > 1 else body[0].column + len(body[0].text)
                raise ParseError("axiom needs '<-'", lineno, column, ("<-",))
            covering = tuple(expect_declared(t, lineno) for t in body[2:])
            rules.append(AstRule(covering, opened, as_axiom=True))
        elif head.text == "seed":
            if seed is None:
                seed = []
            for tok in body:
                seed.append(expect_declared(tok, lineno))
        elif head.text == "goal":
            if goal is not None:
                raise ParseError(
                    f"goal already declared on line {goal_line}", lineno, head.column
                )
            if not body:
                raise ParseError("goal needs a name", lineno, head.column + len("goal"), ("NAME",))
            if len(body) > 1:
                raise ParseError(
                    f"unexpected {body[1].text!r} after the goal", lineno, body[1].column,
                    ("end of line",),
                )
            goal = expect_declared(body[0], lineno)
            goal_line = lineno
        else:
            raise ParseError(
                f"unknown directive {head.text!r}", lineno, head.column, KEYWORDS
            )
    return RuleFileAST(
        tuple(names),
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


def definition_from_ast(ast: RuleFileAST) -> tuple[InductiveDefinition, Subset, str | None]:
    """The rule system, the seed subset (empty if no seed line), and goal."""
    carrier = Carrier(ast.names)
    rules = tuple(
        Rule(Subset.from_names(carrier, r.premises), r.conclusion) for r in ast.rules
    )
    phi = InductiveDefinition(carrier, rules)
    seed = Subset.from_names(carrier, ast.seed or ())
    return phi, seed, ast.goal


def presentation_from_ast(ast: RuleFileAST) -> tuple[CoverPresentation, Subset, str | None]:
    """Read every rule as a cover axiom (conclusion covered by premises)."""
    base = Carrier(ast.names)
    axioms = tuple(
        (r.conclusion, Subset.from_names(base, r.premises)) for r in ast.rules
    )
    seed = Subset.from_names(base, ast.seed or ())
    return CoverPresentation(base, axioms), seed, ast.goal
