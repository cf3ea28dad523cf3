"""Inductively generated covers over a finite base of opens.

A presentation lists cover axioms (a, X), read "X covers a". Each
axiom becomes the rule (X, a) of a rule system over the base, read
straight into the rule store's columns (X's mask, a's index) with no
Rule per axiom, and a ◁ U becomes membership of a in the closure of U.
compact_subcover then extracts a finite V ⊆ U that already covers a,
via the derivation-witness machinery.

This is the minimal inductive reading of a cover presentation: there
is no positivity predicate and no localization of axioms along an
order on opens; axioms are applied verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass

from .finite import Carrier, Subset
from .inddef import InductiveDefinition, closure
from .proofs import witness


@dataclass(frozen=True)
class CoverPresentation:
    """Basic opens plus axioms (a, X) meaning "X covers a"."""

    base: Carrier
    axioms: tuple[tuple[str, Subset], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "axioms", tuple(self.axioms))
        for a, x in self.axioms:
            self.base.index(a)
            if x.of != self.base:
                raise ValueError(f"axiom for {a!r} ranges over a different carrier")


def to_inductive_definition(cp: CoverPresentation) -> InductiveDefinition:
    """One rule (X, a) per axiom (a, X), over the base."""
    conclusions = [cp.base._index[a] for a, _ in cp.axioms]
    return InductiveDefinition._from_columns(cp.base, [x.bits for _, x in cp.axioms], conclusions)


def covers(cp: CoverPresentation, a: str, u: Subset) -> bool:
    """The generated cover relation: a ◁ U."""
    cp.base.index(a)
    return a in closure(to_inductive_definition(cp), u)


def compact_subcover(cp: CoverPresentation, a: str, u: Subset) -> Subset | None:
    """A finite V ⊆ U with a ◁ V, or None when a is not covered by U."""
    return witness(to_inductive_definition(cp), u, a)
