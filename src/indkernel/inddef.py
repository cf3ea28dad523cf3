"""Finitary rule systems over a finite carrier and their least closures.

A rule is a finite premise set together with a conclusion drawn from
the same carrier. A subset is closed when it contains the conclusion
of every rule whose premises it contains; the closure of a seed is the
least closed superset of the seed. On a finite carrier the closure is
reached after at most one stage per element.

A rule system stores its rules as columns of premise masks and
conclusion indices; Rule and Subset live only at the API edge.
closure() and closure_stages() read one staged counting pass: a rule
is revisited only when one of its missing premises arrives, and the
pass records the round (stage) in which each element arrives.
naive_closure_oracle() recomputes the full one-step consequence set
until it stabilizes; it exists to cross-check the engine and is kept
deliberately simple.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .finite import Carrier, Subset, members


@dataclass(frozen=True)
class Rule:
    """Finitely many premises and one conclusion over a shared carrier."""

    premises: Subset
    conclusion: str

    def __post_init__(self) -> None:
        self.premises.of.index(self.conclusion)  # conclusion must live in the carrier

    def __str__(self) -> str:
        return f"{self.premises} -> {self.conclusion}"


@dataclass(frozen=True, init=False)
class InductiveDefinition:
    """An ordered list of rules over one carrier, stored as two columns:
    each rule's premise bitmask (_masks) and its conclusion's index
    (_conclusion_index). Every engine reads only these, decoding a
    rule's premise indices from its mask (members) where it needs them.

    Duplicate rules add nothing to any closure; they are dropped at
    construction with a warning, the first one kept, so that downstream
    indexing by rule position stays unambiguous. rules (the Rule
    objects), _by_conclusion and the hash are built on first read.
    """

    carrier: Carrier
    _masks: tuple[int, ...]
    _conclusion_index: tuple[int, ...]

    def __new__(cls, carrier: Carrier, rules: Iterable[Rule]) -> InductiveDefinition:
        rules = tuple(rules)
        for rule in rules:
            if rule.premises.of != carrier:
                raise ValueError(f"rule {rule} ranges over a different carrier")
        conclusions = [carrier._index[r.conclusion] for r in rules]  # Rule checked each one
        return cls._from_columns(carrier, [r.premises.bits for r in rules], conclusions)

    @classmethod
    def _from_columns(cls, carrier: Carrier, masks: Sequence[int], conclusions: Sequence[int]) -> InductiveDefinition:
        """The definition of the rules (masks[i], conclusions[i]); the
        caller has checked them against the carrier."""
        kept: dict[tuple[int, int], bool | None] = dict.fromkeys(zip(masks, conclusions))
        if len(kept) < len(masks):
            for key in zip(masks, conclusions):
                if kept[key]:  # a copy of this rule came earlier
                    rule = f"{Subset(carrier, key[0])} -> {carrier.names[key[1]]}"
                    warnings.warn(f"dropping duplicate rule {rule}", stacklevel=3)
                kept[key] = True
            masks, conclusions = zip(*kept)
        phi = object.__new__(cls)
        phi.__dict__.update(carrier=carrier, _masks=tuple(masks), _conclusion_index=tuple(conclusions))
        return phi

    @cached_property
    def rules(self) -> tuple[Rule, ...]:
        names = self.carrier.names
        return tuple(Rule(Subset(self.carrier, m), names[c]) for m, c in zip(self._masks, self._conclusion_index))

    @cached_property
    def _by_conclusion(self) -> list[list[int]]:
        """Per element, the indices of the rules concluding it, in order."""
        by_conclusion: list[list[int]] = [[] for _ in self.carrier.names]
        for ri, ci in enumerate(self._conclusion_index):
            by_conclusion[ci].append(ri)
        return by_conclusion

    @cached_property
    def _hash(self) -> int:
        return hash((self.carrier, self._masks, self._conclusion_index))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuild on unpickling: string hashes differ between processes
        return InductiveDefinition._from_columns, (self.carrier, self._masks, self._conclusion_index)

    def __str__(self) -> str:
        body = "; ".join(str(r) for r in self.rules)
        return f"<{len(self._masks)} rules over {self.carrier}: {body}>"


def _check_seed(phi: InductiveDefinition, u: Subset) -> None:
    if u.of != phi.carrier:
        raise ValueError("seed ranges over a different carrier than the rules")


def is_phi_closed(phi: InductiveDefinition, a: Subset) -> bool:
    """True when a contains the conclusion of every rule it satisfies."""
    _check_seed(phi, a)
    for mask, ci in zip(phi._masks, phi._conclusion_index):
        if mask & ~a.bits == 0 and not (a.bits >> ci) & 1:
            return False
    return True


def _staged_pass(phi: InductiveDefinition, seed: int) -> tuple[int, list[list[int]]]:
    """Counting evaluation in rounds: (closure bits, arrivals per round).

    rounds[k - 1] lists the elements that enter at stage k. The rules
    whose premises lie in the seed fire first and give stage 1; every
    other rule counts its premises missing from stage 1, not from the
    set that grows as rules fire (which would put some arrivals a round
    early), and each arrival decrements exactly the rules watching it.
    """
    masks, conclusion = phi._masks, phi._conclusion_index
    current, arrived, pending = seed, [], []
    outside = ~seed
    for ri, mask in enumerate(masks):
        if mask & outside:
            pending.append(ri)
        elif not (current >> conclusion[ri]) & 1:
            current |= 1 << conclusion[ri]
            arrived.append(conclusion[ri])
    if not arrived:
        return current, []

    rounds, arrived, outside = [arrived], [], ~current  # outside stage 1
    missing = [0] * len(masks)
    watchers: list[list[int]] = [[] for _ in range(len(phi.carrier))]
    for ri in pending:
        rem = masks[ri] & outside
        if rem:
            missing[ri] = rem.bit_count()
            for b in members(rem):
                watchers[b].append(ri)
        elif not (current >> conclusion[ri]) & 1:
            current |= 1 << conclusion[ri]
            arrived.append(conclusion[ri])
    while arrived:
        rounds.append(arrived)
        arrived = []
        for b in rounds[-1]:
            for ri in watchers[b]:
                missing[ri] -= 1
                if missing[ri] == 0 and not (current >> conclusion[ri]) & 1:
                    current |= 1 << conclusion[ri]
                    arrived.append(conclusion[ri])
    return current, rounds


def closure(phi: InductiveDefinition, u: Subset) -> Subset:
    """The least subset containing u that is closed under the rules."""
    _check_seed(phi, u)
    return Subset(phi.carrier, _staged_pass(phi, u.bits)[0])


def closure_stages(phi: InductiveDefinition, u: Subset) -> list[Subset]:
    """The stage chain from u to the first fixpoint, inclusive.

    stages[0] is u; each later stage adds every conclusion whose
    premises the previous stage contains. The last stage equals
    closure(phi, u), and the list has at most |carrier| + 1 entries.
    """
    _check_seed(phi, u)
    stages = [u]
    for arrived in _staged_pass(phi, u.bits)[1]:
        stages.append(Subset(phi.carrier, stages[-1].bits | sum(1 << x for x in arrived)))
    return stages


def naive_closure_oracle(phi: InductiveDefinition, u: Subset) -> Subset:
    """Reference closure: iterate the one-step consequence set to a fixpoint."""
    _check_seed(phi, u)
    current = set(u.names())
    while True:
        step = {
            rule.conclusion
            for rule in phi.rules
            if set(rule.premises.names()) <= current
        }
        if step <= current:
            return Subset.from_names(phi.carrier, current)
        current |= step
