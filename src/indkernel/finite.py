"""Finite named carriers, subsets as bitmasks, and total maps.

Everything downstream (rule systems, tree signatures, square checkers)
is phrased over these three types. All values are immutable after
construction and therefore safe to share and hash. Every question
about which domain elements lie over which codomain element (image,
fiber, missed, is_surjection, pullback, and the square and family
checks) reads a map's one preimage table, FinMap._fibers.

Elements are referred to by name at the API surface; indices are an
internal representation detail. The order in which names were declared
is significant: it fixes iteration order, printing order, and the
canonical order of derived constructions such as pullbacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping

from .errors import CodomainMismatch, DuplicateName, UnknownElement


def members(bits: int) -> list[int]:
    """The indices of the set bits, lowest first.

    Walks down from the highest set bit, whose index bit_length gives
    directly, so the loop runs once per member, not once per carrier
    element.
    """
    out = []
    while bits:
        top = bits.bit_length() - 1
        out.append(top)
        bits ^= 1 << top
    out.reverse()
    return out


@dataclass(frozen=True)
class Carrier:
    """An ordered finite set of distinct element names."""

    names: tuple[str, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        index: dict[str, int] = {}
        for i, name in enumerate(names):
            if name in index:
                raise DuplicateName(f"element {name!r} declared twice")
            index[name] = i
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_hash", hash(names))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuild on unpickling: string hashes differ between processes
        return Carrier, (self.names,)

    @classmethod
    def of(cls, *names: str) -> "Carrier":
        return cls(tuple(names))

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownElement(f"{name!r} is not an element of {self}") from None

    def name(self, i: int) -> str:
        return self.names[i]

    def __str__(self) -> str:
        return "{" + ", ".join(self.names) + "}"


@dataclass(frozen=True)
class Subset:
    """A subset of a carrier, stored as a bitmask over element indices."""

    of: Carrier
    bits: int

    def __post_init__(self) -> None:
        if self.bits < 0 or self.bits >> len(self.of):
            raise UnknownElement(f"bitmask {self.bits:#x} does not fit carrier {self.of}")

    @classmethod
    def from_names(cls, carrier: Carrier, names: Iterable[str]) -> "Subset":
        bits = 0
        for name in names:
            bits |= 1 << carrier.index(name)
        return cls(carrier, bits)

    @classmethod
    def empty(cls, carrier: Carrier) -> "Subset":
        return cls(carrier, 0)

    @classmethod
    def full(cls, carrier: Carrier) -> "Subset":
        return cls(carrier, (1 << len(carrier)) - 1)

    def names(self) -> tuple[str, ...]:
        names = self.of.names
        return tuple(names[i] for i in members(self.bits))

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __contains__(self, name: object) -> bool:
        if not isinstance(name, str) or name not in self.of:
            return False
        return (self.bits >> self.of.index(name)) & 1 == 1

    def _check_same(self, other: "Subset") -> None:
        if self.of != other.of:
            raise ValueError("subsets range over different carriers")

    def __le__(self, other: "Subset") -> bool:
        self._check_same(other)
        return self.bits & ~other.bits == 0

    def __lt__(self, other: "Subset") -> bool:
        return self <= other and self.bits != other.bits

    def __or__(self, other: "Subset") -> "Subset":
        self._check_same(other)
        return Subset(self.of, self.bits | other.bits)

    def __and__(self, other: "Subset") -> "Subset":
        self._check_same(other)
        return Subset(self.of, self.bits & other.bits)

    def __sub__(self, other: "Subset") -> "Subset":
        self._check_same(other)
        return Subset(self.of, self.bits & ~other.bits)

    def __str__(self) -> str:
        return "{" + ", ".join(self.names()) + "}"


@dataclass(frozen=True)
class FinMap:
    """A total map between carriers, tabulated by element index.

    table[i] is the codomain index of the image of the i-th domain
    element. Use from_mapping to build one from names. The preimage
    table _fibers[j] lists the domain indices over codomain index j, in
    domain order; it is built from table on first use and kept, and is
    not a field, so equality, hashing, repr and pickles ignore it.
    """

    dom: Carrier
    cod: Carrier
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "table", tuple(self.table))
        if len(self.table) != len(self.dom):
            raise ValueError(
                f"table has {len(self.table)} entries for a domain of size {len(self.dom)}"
            )
        for i, t in enumerate(self.table):
            if not 0 <= t < len(self.cod):
                raise UnknownElement(
                    f"table entry {t} for {self.dom.name(i)!r} is outside the codomain"
                )

    @classmethod
    def from_mapping(cls, dom: Carrier, cod: Carrier, mapping: Mapping[str, str]) -> "FinMap":
        table = []
        for name in dom.names:
            if name not in mapping:
                raise UnknownElement(f"no image given for {name!r}")
            table.append(cod.index(mapping[name]))
        for name in mapping:
            dom.index(name)  # reject stray keys
        return cls(dom, cod, tuple(table))

    def __getstate__(self) -> dict:
        # the fields only: a pickle never carries the preimage table
        return {"dom": self.dom, "cod": self.cod, "table": self.table}

    @cached_property
    def _fibers(self) -> tuple[tuple[int, ...], ...]:
        fibers: list[list[int]] = [[] for _ in self.cod.names]
        for i, t in enumerate(self.table):
            fibers[t].append(i)
        return tuple(map(tuple, fibers))

    def __call__(self, name: str) -> str:
        return self.cod.names[self.table[self.dom.index(name)]]

    def to_mapping(self) -> dict[str, str]:
        return {b: self.cod.names[t] for b, t in zip(self.dom.names, self.table)}

    def __str__(self) -> str:
        pairs = ", ".join(f"{b}->{self.cod.names[t]}" for b, t in zip(self.dom.names, self.table))
        return "[" + pairs + "]"


def identity(carrier: Carrier) -> FinMap:
    """The identity map on a carrier."""
    return FinMap(carrier, carrier, tuple(range(len(carrier))))


def compose(outer: FinMap, inner: FinMap) -> FinMap:
    """The map sending x to outer(inner(x))."""
    if inner.cod != outer.dom:
        raise CodomainMismatch(
            f"cannot compose: inner map lands in {inner.cod}, outer map starts at {outer.dom}"
        )
    return FinMap(inner.dom, outer.cod, tuple(outer.table[t] for t in inner.table))


def image(f: FinMap) -> Subset:
    """The image of f as a subset of its codomain."""
    return Subset(f.cod, sum(1 << j for j, over in enumerate(f._fibers) if over))


def fiber(f: FinMap, name: str) -> Subset:
    """The preimage of a codomain element, as a subset of the domain."""
    return Subset(f.dom, sum(1 << i for i in f._fibers[f.cod.index(name)]))


def missed(f: FinMap) -> list[str]:
    """The codomain elements without a preimage, in declaration order."""
    return [a for a, over in zip(f.cod.names, f._fibers) if not over]


def is_surjection(f: FinMap) -> bool:
    """True when every codomain element has a preimage."""
    return all(f._fibers)


def pullback(f: FinMap, p: FinMap) -> tuple[Carrier, FinMap, FinMap]:
    """The pullback of two maps with a common codomain.

    Returns (T, pr1, pr2) where T consists of the pairs (b, c) with
    f(b) = p(c), named "(b,c)" and ordered lexicographically by the
    declaration orders of dom(f) and dom(p). pr1 and pr2 are the two
    projections; f o pr1 = p o pr2 by construction.
    """
    if f.cod != p.cod:
        raise CodomainMismatch(
            f"pullback needs a common codomain, got {f.cod} and {p.cod}"
        )
    pairs = [(bi, ci) for bi, t in enumerate(f.table) for ci in p._fibers[t]]
    apex = Carrier(tuple(f"({f.dom.names[bi]},{p.dom.names[ci]})" for bi, ci in pairs))
    pr1 = FinMap(apex, f.dom, tuple(bi for bi, _ in pairs))
    return apex, pr1, FinMap(apex, p.dom, tuple(ci for _, ci in pairs))
