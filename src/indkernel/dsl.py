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

parse_rule_file and the CLI's _read_problem read through one reader,
_Reader, which tokenizes by regex only the lines str.split cannot read.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DslError, DuplicateName, ParseError, UndeclaredName
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


class _Fault(NamedTuple):
    """Why the words of a line make no directive: token at fails a check,
    at its column or (past) just after it. No message means a declared
    name belongs there."""

    at: int
    past: bool = False
    message: str | None = None
    expected: tuple[str, ...] = ()
    duplicate: bool = False

    def error(self, tokens: list[str], line: str, lineno: int) -> DslError | DuplicateName:
        # a stray character, which findall gives as '', fails a check and
        # makes _tokenize raise before any other error
        word = tokens[self.at]
        column = _tokenize(line, lineno)[self.at].column + (len(word) if self.past else 0)
        if self.duplicate:
            return DuplicateName(f"element {word!r} declared twice", lineno, column)
        if self.message is not None:
            return ParseError(self.message, lineno, column, self.expected)
        if word in KEYWORDS:
            return ParseError(f"keyword {word!r} cannot be used as a name", lineno, column, ("NAME",))
        if word in ("->", "<-"):
            return ParseError(f"expected a name, got {word!r}", lineno, column, ("NAME",))
        return UndeclaredName(f"name {word!r} was never declared", lineno, column)


class _Reader:
    """A rule file read line by line: index gives each declared name's
    position; per rule, a premise mask, a conclusion index and a line
    'rule|axiom premises -> conclusion' (a rule line as written).

    Each line's str.split words are checked as a directive. A word with a
    comment, a glued arrow or a stray character fails a check; only then
    is the line tokenized, by one findall, and checked again, and only
    that check raises. A line changes nothing until it passes.
    """

    def __init__(self, text: str):
        self.index: dict[str, int] = {}
        self.bit: dict[str, int] = {}  # name -> 1 << index
        self.lines, self.masks, self.conclusions = [], [], []
        self.seed: list[str] | None = None
        self.goal, self.goal_line = None, 0
        index, bit, lines, masks, conclusions = self.index, self.bit, self.lines, self.masks, self.conclusions
        for lineno, line in enumerate(text.splitlines(), start=1):
            words = line.split()
            # a rule line with declared names is taken inline (a call per
            # rule cost 5-8% of a load at n=1k), changing nothing until its end
            if len(words) > 2 and words[0] == "rule" and words[-2] == "->":
                try:
                    mask = 0
                    for name in words[1:-2]:
                        mask |= bit[name]
                    conclusions.append(index[words[-1]])
                    masks.append(mask)
                    lines.append(line)
                    continue
                except KeyError:
                    pass
            if words and self._take(words, lineno):
                tokens = _TOKEN.findall(line.partition("#")[0])
                if tokens and (fault := self._take(tokens, lineno)):
                    raise fault.error(tokens, line, lineno)

    def _undeclared(self, words: list[str], start: int, stop: int) -> _Fault | None:
        """The fault of the first of words[start:stop] no set line declared."""
        return next((_Fault(i) for i in range(start, stop) if words[i] not in self.index), None)

    def _take(self, words: list[str], lineno: int) -> _Fault | None:
        """Take in the directive the words of line lineno make, or say why
        they make none."""
        head, last = words[0], len(words) - 1
        if head == "rule":
            if "->" not in words:
                return _Fault(last, not last, "rule needs '->'", ("->",))
            arrow = words.index("->")
            if fault := self._undeclared(words, 1, arrow):
                return fault
            if last == arrow:
                return _Fault(arrow, False, "rule needs a conclusion", ("NAME",))
            if last > arrow + 1:
                message = f"unexpected {words[arrow + 2]!r} after the conclusion"
                return _Fault(arrow + 2, False, message, ("end of line",))
            if fault := self._undeclared(words, last, last + 1):
                return fault
            self._rule(" ".join(words), words[1:arrow], words[last])
        elif head == "axiom":
            if not last:
                return _Fault(0, True, "axiom needs an open", ("NAME",))
            if fault := self._undeclared(words, 1, 2):
                return fault
            if last < 2 or words[2] != "<-":
                return _Fault(2 if last > 1 else 1, last == 1, "axiom needs '<-'", ("<-",))
            if fault := self._undeclared(words, 3, last + 1):
                return fault
            self._rule(" ".join([head, *words[3:], "->", words[1]]), words[3:], words[1])
        elif head == "set":
            if not last:
                return _Fault(0, True, "set needs at least one name", ("NAME",))
            new: dict[str, int] = {}  # the line's names, so a repeat is found in O(1)
            for i, name in enumerate(words[1:], start=1):
                if name in self.index or name in new:
                    return _Fault(i, duplicate=True)
                if name in KEYWORDS or not _NAME.fullmatch(name):
                    return _Fault(i)
                new[name] = len(self.index) + len(new)
            self.index.update(new)
            self.bit.update((name, 1 << i) for name, i in new.items())
        elif head == "seed":
            if fault := self._undeclared(words, 1, last + 1):
                return fault
            self.seed = self.seed or []
            self.seed += words[1:]
        elif head == "goal":
            if self.goal is not None:
                return _Fault(0, False, f"goal already declared on line {self.goal_line}")
            if not last:
                return _Fault(0, True, "goal needs a name", ("NAME",))
            if last > 1:
                return _Fault(2, False, f"unexpected {words[2]!r} after the goal", ("end of line",))
            if fault := self._undeclared(words, 1, 2):
                return fault
            self.goal, self.goal_line = words[1], lineno
        else:
            return _Fault(0, False, f"unknown directive {head!r}", KEYWORDS)
        return None

    def _rule(self, line: str, premises: list[str], conclusion: str) -> None:
        """Append a rule whose names _take has checked."""
        mask = 0
        for name in premises:
            mask |= self.bit[name]
        self.lines.append(line)
        self.masks.append(mask)
        self.conclusions.append(self.index[conclusion])


def parse_rule_file(text: str) -> RuleFileAST:
    """The AST of a rule file, or the first DslError/DuplicateName in it."""
    read = _Reader(text)
    rules = tuple(AstRule(tuple(w[1:-2]), w[-1], w[0] == "axiom") for w in map(str.split, read.lines))
    return RuleFileAST(tuple(read.index), rules, None if read.seed is None else tuple(read.seed), read.goal)


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


def _read_problem(text: str) -> tuple[InductiveDefinition, Subset, str | None]:
    """definition_from_ast(parse_rule_file(text)), with the same result,
    warnings and errors, built from the reader's columns with no AST."""
    read = _Reader(text)
    carrier = Carrier(tuple(read.index))
    # called here, so a duplicate-rule warning names this function's caller
    phi = InductiveDefinition._from_columns(carrier, read.masks, read.conclusions)
    return phi, Subset.from_names(carrier, read.seed or ()), read.goal


def presentation_from_ast(ast: RuleFileAST) -> tuple[CoverPresentation, Subset, str | None]:
    """Read every rule as a cover axiom (conclusion covered by premises)."""
    base, masks, conclusions, seed = _columns(ast)
    axioms = tuple((base.names[c], Subset(base, m)) for m, c in zip(masks, conclusions))
    return CoverPresentation(base, axioms), seed, ast.goal
