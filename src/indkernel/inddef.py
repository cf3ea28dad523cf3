"""Finitary rule systems over a finite carrier and their least closures.

A rule is a finite premise set together with a conclusion drawn from
the same carrier. A subset is closed when it contains the conclusion
of every rule whose premises it contains; the closure of a seed is the
least closed superset of the seed. On a finite carrier the closure is
reached after at most one stage per element.

closure() and closure_stages() read one staged counting pass: a rule
is revisited only when one of its missing premises arrives, and the
pass records the round (stage) in which each element arrives.
naive_closure_oracle() recomputes the full one-step consequence set
until it stabilizes; it exists to cross-check the engine and is kept
deliberately simple.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

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


@dataclass(frozen=True)
class InductiveDefinition:
    """An ordered list of rules over one carrier.

    Duplicate rules add nothing to any closure; they are dropped at
    construction with a warning so that downstream indexing by rule
    position stays unambiguous. The engines read the rules through
    _premise_index (each rule's premise indices, lowest first) and
    _conclusion_index, not through the Subset of each rule. The premise
    indices and the hash are computed on first use and kept.
    """

    carrier: Carrier
    rules: tuple[Rule, ...]
    _conclusion_index: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        index = self.carrier._index
        kept: list[Rule] = []
        conclusions: list[int] = []
        seen: set[tuple[int, int]] = set()
        for rule in self.rules:
            if rule.premises.of != self.carrier:
                raise ValueError(f"rule {rule} ranges over a different carrier")
            key = (rule.premises.bits, index[rule.conclusion])  # Rule checked the conclusion
            if key in seen:
                warnings.warn(f"dropping duplicate rule {rule}", stacklevel=2)
                continue
            seen.add(key)
            kept.append(rule)
            conclusions.append(key[1])
        object.__setattr__(self, "rules", tuple(kept))
        object.__setattr__(self, "_conclusion_index", tuple(conclusions))

    @cached_property
    def _premise_index(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(members(rule.premises.bits)) for rule in self.rules)

    @cached_property
    def _hash(self) -> int:
        # equal definitions have equal carriers, premise masks and
        # conclusions; hashing those skips a Rule and Subset hash per rule
        return hash((self.carrier, tuple(r.premises.bits for r in self.rules), self._conclusion_index))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuild on unpickling: string hashes differ between processes
        return InductiveDefinition, (self.carrier, self.rules)

    def __str__(self) -> str:
        body = "; ".join(str(r) for r in self.rules)
        return f"<{len(self.rules)} rules over {self.carrier}: {body}>"


def _check_seed(phi: InductiveDefinition, u: Subset) -> None:
    if u.of != phi.carrier:
        raise ValueError("seed ranges over a different carrier than the rules")


def is_phi_closed(phi: InductiveDefinition, a: Subset) -> bool:
    """True when a contains the conclusion of every rule it satisfies."""
    _check_seed(phi, a)
    for rule, ci in zip(phi.rules, phi._conclusion_index):
        if rule.premises.bits & ~a.bits == 0 and not (a.bits >> ci) & 1:
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
    conclusion = phi._conclusion_index
    current, arrived, pending = seed, [], []
    outside = ~seed
    for ri, rule in enumerate(phi.rules):
        if rule.premises.bits & outside:
            pending.append(ri)
        elif not (current >> conclusion[ri]) & 1:
            current |= 1 << conclusion[ri]
            arrived.append(conclusion[ri])
    if not arrived:
        return current, []

    stage1, rounds, arrived = current, [arrived], []
    missing = [0] * len(phi.rules)
    watchers: list[list[int]] = [[] for _ in range(len(phi.carrier))]
    outside = ~stage1
    for ri in pending:
        rem = phi.rules[ri].premises.bits & outside
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
        bits = stages[-1].bits
        for x in arrived:
            bits |= 1 << x
        stages.append(Subset(phi.carrier, bits))
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
