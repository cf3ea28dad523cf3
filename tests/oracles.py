"""Independent reference implementations used to check derived values.

Everything here is deliberately brute force and shares no code with
the engine paths it checks: proofs are enumerated as plain nested
tuples, least fixed points are found by scanning all subsets,
surjections are enumerated as raw tables and quotiented afterwards,
subset members are read by scanning the whole carrier, and rule-file
lines are tokenized one character at a time. Only usable at tiny
sizes.
"""

from __future__ import annotations

import re
from itertools import product

from indkernel.finite import Carrier, FinMap, Subset
from indkernel.inddef import InductiveDefinition
from indkernel.proofs import ProofSignature
from indkernel.wtree import WTree


def enumerate_proof_shapes(phi: InductiveDefinition, max_depth: int) -> set[tuple]:
    """All derivations of depth <= max_depth, as nested tuples.

    A shape is ("assume", s) or ("rule", i, (child per premise, in
    premise declaration order)). S(d) = assumptions plus every rule
    application over S(d-1). Grows explosively; keep phi tiny.
    """
    names = phi.carrier.names
    prev: set[tuple] = set()
    for _ in range(max_depth):
        cur: set[tuple] = {("assume", s) for s in names}
        for i, rule in enumerate(phi.rules):
            pools = [
                [s for s in prev if shape_conc(phi, s) == b]
                for b in rule.premises.names()
            ]
            for combo in product(*pools):
                cur.add(("rule", i, tuple(combo)))
        prev = cur
    return prev


def shape_conc(phi: InductiveDefinition, shape: tuple) -> str:
    if shape[0] == "assume":
        return shape[1]
    return phi.rules[shape[1]].conclusion


def shape_ass(phi: InductiveDefinition, shape: tuple) -> frozenset[str]:
    if shape[0] == "assume":
        return frozenset((shape[1],))
    out: frozenset[str] = frozenset()
    for child in shape[2]:
        out |= shape_ass(phi, child)
    return out


def shape_depth(shape: tuple) -> int:
    if shape[0] == "assume":
        return 1
    return 1 + max((shape_depth(c) for c in shape[2]), default=0)


def shape_to_tree(psig: ProofSignature, shape: tuple) -> WTree:
    if shape[0] == "assume":
        return psig.assumption(shape[1])
    i = shape[1]
    premises = psig.phi.rules[i].premises.names()
    return psig.rule_app(
        i, {b: shape_to_tree(psig, c) for b, c in zip(premises, shape[2])}
    )


def closed_supersets(phi: InductiveDefinition, u: Subset) -> list[Subset]:
    """Every closed superset of u, by scanning all 2^|S| subsets."""
    n = len(phi.carrier)
    out = []
    for bits in range(1 << n):
        if u.bits & ~bits:
            continue
        candidate = Subset(phi.carrier, bits)
        ok = True
        for rule in phi.rules:
            if rule.premises.bits & ~bits == 0:
                if not (bits >> phi.carrier.index(rule.conclusion)) & 1:
                    ok = False
                    break
        if ok:
            out.append(candidate)
    return out


def all_surjections(domain_size: int, target: Carrier) -> list[FinMap]:
    """Every surjection from a fresh domain of the given size, raw."""
    dom = Carrier(tuple(f"e{i}" for i in range(domain_size)))
    out = []
    for table in product(range(len(target)), repeat=domain_size):
        if set(table) == set(range(len(target))):
            out.append(FinMap(dom, target, table))
    return out


def surjection_classes(domain_size: int, target: Carrier) -> set[tuple[int, ...]]:
    """Orbits of surjections under domain renaming: fiber-size tuples."""
    classes = set()
    for f in all_surjections(domain_size, target):
        sizes = tuple(f.table.count(t) for t in range(len(target)))
        classes.add(sizes)
    return classes


def tree_nodes_by_recursion(tree: WTree) -> list[WTree]:
    """Subtree enumeration written recursively, preorder."""
    out = [tree]
    for child in tree.children:
        out.extend(tree_nodes_by_recursion(child))
    return out


def tree_depth_by_recursion(tree: WTree) -> int:
    """Height written recursively over tree positions; a leaf has depth 1."""
    return 1 + max((tree_depth_by_recursion(c) for c in tree.children), default=0)


def well_formed_everywhere(psig: ProofSignature, tree: WTree) -> bool:
    """Direct recursive reading of 'it and all its subtrees are
    well-formed', independent of is_proof's single-pass scan."""
    from indkernel.proofs import RULE, conc

    kind, payload = psig.kind_of(tree.label)
    if kind == RULE:
        slots = psig.sig.arity(tree.label).names
        if len(slots) != len(tree.children):
            return False
        for slot, child in zip(slots, tree.children):
            if conc(psig, child) != psig.slot_target(slot):
                return False
    elif tree.children:
        return False
    return all(well_formed_everywhere(psig, child) for child in tree.children)


def subset_names_by_scan(carrier: Carrier, bits: int) -> tuple[str, ...]:
    """The members of a bitmask, by testing every carrier position."""
    return tuple(name for i, name in enumerate(carrier.names) if (bits >> i) & 1)


class TokenError(Exception):
    """Where reference_tokenize stopped: message, line, column, expected."""


_REF_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|->|<-|\S")
_REF_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def reference_tokenize(line: str, lineno: int) -> list[tuple[str, int]]:
    """Rule-file tokens as (text, 1-based column), stepping through the
    line one character at a time: whitespace is skipped, '#' at a token
    start ends the line, and a character that starts no name or arrow
    raises TokenError("unexpected character ...", line, column,
    ("NAME", "->", "<-"))."""
    tokens: list[tuple[str, int]] = []
    pos = 0
    while pos < len(line):
        ch = line[pos]
        if ch == "#":
            break
        if ch.isspace():
            pos += 1
            continue
        m = _REF_TOKEN.match(line, pos)
        text = m.group()
        if not _REF_NAME.match(text) and text not in ("->", "<-"):
            raise TokenError(
                f"unexpected character {text!r}", lineno, pos + 1, ("NAME", "->", "<-")
            )
        tokens.append((text, pos + 1))
        pos = m.end()
    return tokens
