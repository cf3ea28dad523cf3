"""Seeded random instance generators for tests and the selftest suites.

Everything takes an explicit random.Random so runs are reproducible
from a single seed. Generated squares always commute: q is chosen
fiberwise inside f's preimage of p(g(d)), read off f's preimage table.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from random import Random
from typing import Iterator

from .dsl import AstRule, RuleFileAST
from .finite import Carrier, FinMap, Subset
from .inddef import InductiveDefinition
from .squares import Square, SurjectionFamily
from .topology import CoverPresentation
from .wtree import Signature


@dataclass(frozen=True)
class InstanceSpec:
    """Size knobs for random rule systems."""

    max_elements: int = 6
    max_rules: int = 12
    max_premises: int = 3


def named_carrier(size: int, prefix: str = "x") -> Carrier:
    return Carrier(tuple(f"{prefix}{i}" for i in range(size)))


def random_subset(rng: Random, carrier: Carrier) -> Subset:
    return Subset(carrier, rng.randrange(1 << len(carrier)))


def random_definition(rng: Random, spec: InstanceSpec = InstanceSpec()) -> InductiveDefinition:
    n = rng.randint(1, spec.max_elements)
    carrier = named_carrier(n)
    rules: dict[tuple[int, int], None] = {}  # (premise mask, conclusion index), first kept
    for _ in range(rng.randint(0, spec.max_rules)):
        k = rng.randint(0, min(spec.max_premises, n))
        bits = 0
        for i in rng.sample(range(n), k):
            bits |= 1 << i
        rules.setdefault((bits, rng.randrange(n)))
    return InductiveDefinition._from_columns(carrier, [m for m, _ in rules], [c for _, c in rules])


def random_finmap(rng: Random, dom: Carrier, cod: Carrier) -> FinMap:
    if len(cod) == 0 and len(dom) > 0:
        raise ValueError("no map into an empty carrier from a nonempty one")
    return FinMap(dom, cod, tuple(rng.randrange(len(cod)) for _ in dom.names))


def random_surjection(rng: Random, target: Carrier, max_extra: int = 3, prefix: str = "y") -> FinMap:
    """A surjection onto target whose domain has up to max_extra spare elements."""
    # an empty target admits only the empty surjection
    size = len(target) + rng.randint(0, max_extra) if len(target) else 0
    dom = Carrier(tuple(f"{prefix}{i}" for i in range(size)))
    table = list(range(len(target)))  # one preimage per target, then noise
    table.extend(rng.randrange(len(target)) for _ in range(size - len(target)))
    rng.shuffle(table)
    return FinMap(dom, target, tuple(table))


def random_square(rng: Random, max_size: int = 5) -> Square:
    """A random commuting square; covering may or may not hold."""
    na = rng.randint(0, max_size)
    nb = rng.randint(0, max_size) if na else 0
    nc = rng.randint(0, max_size) if na else 0
    A = named_carrier(na, "a")
    B = named_carrier(nb, "b")
    C = named_carrier(nc, "c")
    f = random_finmap(rng, B, A)
    p = random_finmap(rng, C, A)
    # d is placed over a c whose corner has at least one compatible b
    usable = [ci for ci in range(nc) if f._fibers[p.table[ci]]]
    nd = rng.randint(0, max_size) if usable else 0
    D = named_carrier(nd, "d")
    g_table = []
    q_table = []
    for _ in range(nd):
        ci = rng.choice(usable)
        g_table.append(ci)
        q_table.append(rng.choice(f._fibers[p.table[ci]]))
    return Square(
        f=f,
        p=p,
        g=FinMap(D, C, tuple(g_table)),
        q=FinMap(D, B, tuple(q_table)),
    )


def all_squares(max_size: int) -> Iterator[Square]:
    """Every commuting square whose four carriers have at most max_size
    elements. (g, q) range jointly over the matched pairs of (f, p),
    read off p's preimage table, so commutation holds by construction
    and nothing is filtered out.

    Counts grow steeply: 74112 squares at max_size 3; max_size 4 is
    out of desk range.
    """
    for na in range(max_size + 1):
        for nb in range(max_size + 1):
            for nc in range(max_size + 1):
                if na == 0 and (nb or nc):
                    continue  # no map from a nonempty carrier into an empty one
                A = named_carrier(na, "a")
                B = named_carrier(nb, "b")
                C = named_carrier(nc, "c")
                for f_table in product(range(na), repeat=nb) if nb else [()]:
                    f = FinMap(B, A, tuple(f_table))
                    for p_table in product(range(na), repeat=nc) if nc else [()]:
                        p = FinMap(C, A, tuple(p_table))
                        pairs = [(bi, ci) for bi, t in enumerate(f_table) for ci in p._fibers[t]]
                        for nd in range(max_size + 1):
                            if nd > 0 and not pairs:
                                break
                            D = named_carrier(nd, "d")
                            for combo in product(range(len(pairs)), repeat=nd):
                                yield Square(
                                    f=f,
                                    p=p,
                                    g=FinMap(D, C, tuple(pairs[k][1] for k in combo)),
                                    q=FinMap(D, B, tuple(pairs[k][0] for k in combo)),
                                )


def random_surjection_family(rng: Random, max_base: int = 4, max_members: int = 3) -> SurjectionFamily:
    base = named_carrier(rng.randint(0, max_base), "x")
    members = tuple(
        random_surjection(rng, base, prefix=f"y{i}_")
        for i in range(rng.randint(0, max_members))
    )
    return SurjectionFamily(base, members)


def random_cover_presentation(rng: Random, max_base: int = 6, max_axioms: int = 8) -> CoverPresentation:
    base = named_carrier(rng.randint(1, max_base), "o")
    axioms: dict[tuple[str, Subset], None] = {}  # distinct axioms, first kept
    for _ in range(rng.randint(0, max_axioms)):
        a = base.name(rng.randrange(len(base)))
        axioms.setdefault((a, random_subset(rng, base)))
    return CoverPresentation(base, tuple(axioms))


def random_signature(rng: Random, max_labels: int = 5, max_slots: int = 3) -> Signature:
    """A signature with at least one nullary label."""
    n = rng.randint(1, max_labels)
    arity: dict[str, tuple[str, ...]] = {}
    for i in range(n):
        k = 0 if i == 0 else rng.randint(0, max_slots)
        arity[f"L{i}"] = tuple(f"L{i}s{j}" for j in range(k))
    return Signature.of(arity)


def random_ast(rng: Random, max_elements: int = 6, max_rules: int = 6) -> RuleFileAST:
    """A random rule-file AST, exercising every directive form."""
    n = rng.randint(1, max_elements)
    names = tuple(f"n{i}" for i in range(n))
    rules = []
    for _ in range(rng.randint(0, max_rules)):
        k = rng.randint(0, min(3, n))
        premises = tuple(rng.sample(names, k))
        rules.append(
            AstRule(premises, rng.choice(names), as_axiom=rng.random() < 0.4)
        )
    seed: tuple[str, ...] | None = None
    if rng.random() < 0.7:
        seed = tuple(rng.sample(names, rng.randint(0, n)))
    goal = rng.choice(names) if rng.random() < 0.5 else None
    return RuleFileAST(names, tuple(rules), seed, goal)
