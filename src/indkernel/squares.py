"""Finite commuting squares and surjection families, with checkers.

A Square is four carriers and four maps

        q
    D ----> B
    |       |
  g |       | f
    v       v
    C ----> A
        p

commuting (f o q = p o g). check_covering_square asks that p is onto
and that D reaches every matched pair (b, c) with f(b) = p(c).
check_collection_square asks, for every a and every surjection
e: E ->> B_a with |E| up to a bound, for some c over a whose leg
q|D_c factors through e. Surjections are taken up to renaming of E
(one per tuple of fiber sizes, lexicographically, all from one
enumerator), which is sound because the condition never inspects E's
element names. Every fiber, image and first preimage is read off the
maps' preimage tables (finite.FinMap._fibers), built once per map.

The reports decide in closed form and list their witnesses rather
than search for them (tests/oracles.py keeps the searches, and the
tests check every report against them). collection_report fails
exactly at an a whose fiber fits the bound and has no c over it:
commutation puts q(D_c) inside B_a, so the first c over a serves
every e. amc_family_report (every surjection onto the base factors a
member through it) holds exactly when the family has a member.
collection_family_report (the indexed variant, refining maps taken
from the family itself) always holds, since each carrier refines
itself. A counterexample is always the first surjection, every fiber
of size 1.

Each report is a scan, which gives the report with a _Plan of its
witnesses in their place (the c, member or refining index, and the
block each h or factor entry maps to). The CLI prints that report with
jsonio.dumps, which writes the plan as text where it sits; the public
reports swap it for its witness dicts under record, or for [].

refines computes least factorizations; build_amc_square assembles the
explicit square whose D is the disjoint union of the graphs of a
chosen family of fiber covers; strong_amc_factor upgrades a witness
family to the factor-through form: it pulls the first member back
along the given surjection and factors that member through the result,
so the index it returns is always 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from typing import Iterator, Mapping, Sequence

from .errors import (
    CodomainMismatch,
    EmptyFamily,
    InvalidSquare,
    InvalidValue,
    NoFactorization,
    NotASurjection,
)
from .finite import Carrier, FinMap, compose, fiber, identity, image, missed, pullback


@dataclass(frozen=True)
class Square:
    """A commuting square f o q = p o g; corners are read off the maps."""

    f: FinMap
    p: FinMap
    g: FinMap
    q: FinMap

    def __post_init__(self) -> None:
        if self.f.cod != self.p.cod:
            raise CodomainMismatch("f and p must share their codomain")
        if self.g.cod != self.p.dom:
            raise CodomainMismatch("g must land in the domain of p")
        if self.q.cod != self.f.dom:
            raise CodomainMismatch("q must land in the domain of f")
        if self.g.dom != self.q.dom:
            raise CodomainMismatch("g and q must share their domain")
        for di in range(len(self.g.dom)):
            if self.f.table[self.q.table[di]] != self.p.table[self.g.table[di]]:
                d = self.g.dom.name(di)
                raise InvalidSquare(
                    f"square does not commute at {d!r}: "
                    f"f(q({d})) = {self.f.cod.name(self.f.table[self.q.table[di]])!r} "
                    f"but p(g({d})) = {self.p.cod.name(self.p.table[self.g.table[di]])!r}"
                )

    @property
    def A(self) -> Carrier:
        return self.f.cod

    @property
    def B(self) -> Carrier:
        return self.f.dom

    @property
    def C(self) -> Carrier:
        return self.p.dom

    @property
    def D(self) -> Carrier:
        return self.g.dom


@dataclass(frozen=True)
class SurjectionFamily:
    """An indexed list of surjections onto one base carrier."""

    base: Carrier
    members: tuple[FinMap, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", tuple(self.members))
        for i, member in enumerate(self.members):
            if member.cod != self.base:
                raise CodomainMismatch(f"member {i} does not land in the base")
            if missing := missed(member):
                raise NotASurjection(f"member {i} misses {missing} of the base")


def covering_report(sq: Square) -> dict:
    """Is p onto, and does D reach every pair (b, c) with f(b) = p(c)?

    The counterexample names either an element of A outside the image
    of p, or an uncovered matched pair.
    """
    if p_missed := missed(sq.p):
        return {
            "holds": False,
            "p_surjective": False,
            "pairs_surjective": None,
            "counterexample": {"kind": "p-misses", "element": p_missed[0]},
        }
    reached = set(zip(sq.q.table, sq.g.table))
    for bi, ai in enumerate(sq.f.table):
        for ci in sq.p._fibers[ai]:
            if (bi, ci) not in reached:
                return {
                    "holds": False,
                    "p_surjective": True,
                    "pairs_surjective": False,
                    "counterexample": {
                        "kind": "pair-not-covered",
                        "pair": [sq.B.name(bi), sq.C.name(ci)],
                    },
                }
    return {"holds": True, "p_surjective": True, "pairs_surjective": True, "counterexample": None}


def check_covering_square(sq: Square) -> bool:
    return covering_report(sq)["holds"]


def _surjection_blocks(targets: int, bound: int, names: list[str], prefix: str) -> Iterator[tuple[tuple, list[int]]]:
    """The canonical surjections onto targets elements with at most bound
    domain elements: their fiber sizes (k_1 .. k_targets), every k >= 1,
    in lexicographic order (the last entry grows first; once the sum
    reaches the bound, trailing entries fall back to 1 and the entry to
    their left grows), then each block's first domain index and the
    domain size. names, one list per report, is grown in place to
    prefix0, prefix1, ... as far as the largest domain so far; its first
    (domain size) names fill the blocks."""
    if targets > bound:
        return
    sizes = [1] * targets
    total = targets
    while True:
        while total > len(names):
            names.append(f"{prefix}{len(names)}")
        yield tuple(sizes), list(accumulate(sizes, initial=0))
        i = targets - 1
        while i >= 0 and total == bound:
            total -= sizes[i] - 1
            sizes[i] = 1
            i -= 1
        if i < 0:
            return
        sizes[i] += 1
        total += 1


def _surjection_doc(targets: Sequence, sizes: tuple[int, ...], starts: list[int], names: list[str]) -> dict:
    """The {"domain", "map"} document of a canonical surjection whose
    domain is the first starts[-1] of names, each block sent to its target."""
    domain = names[: starts[-1]]
    return {"domain": domain, "map": dict(zip(domain, chain.from_iterable(map(repeat, targets, sizes))))}


def surjections_onto(target: Carrier, bound: int) -> Iterator[FinMap]:
    """Canonical surjections E ->> target with |E| <= bound, one per
    fiber-size tuple; E is e0, e1, ..., assigned in blocks."""
    names: list[str] = []
    for sizes, starts in _surjection_blocks(len(target), bound, names, "e"):
        doc = _surjection_doc(range(len(target)), sizes, starts, names)
        yield FinMap(Carrier(tuple(doc["domain"])), target, tuple(doc["map"].values()))


_SIZES, _ONTO, _LIFT = "sizes", "onto", "lift"


@dataclass(slots=True)
class _Plan:
    """A report's witnesses, one group (n, template) per fiber, member or
    carrier: one witness per canonical surjection onto n elements within
    bound, its domain prefix0, prefix1, ... The template holds the
    witness fields in order; those named in varying hold a tuple:
    (_SIZES,) the fiber sizes, (_ONTO, targets) the surjection, block j
    sent to targets[j], or (_LIFT, keys, blocks) the map sending keys[k]
    to the first domain element of block blocks[k]."""

    bound: int
    prefix: str
    varying: tuple[str, ...]
    groups: list


def _witness_dicts(plan: _Plan) -> list[dict]:
    names: list[str] = []
    witnesses = []
    for n, template in plan.groups:
        for sizes, starts in _surjection_blocks(n, plan.bound, names, plan.prefix):
            witness = template.copy()
            for key in plan.varying:
                value = template[key]
                if value[0] == _LIFT:
                    witness[key] = dict(zip(value[1], map(names.__getitem__, map(starts.__getitem__, value[2]))))
                elif value[0] == _ONTO:
                    witness[key] = _surjection_doc(value[1], sizes, starts, names)
                else:
                    witness[key] = list(sizes)
            witnesses.append(witness)
    return witnesses


def _recorded(report: dict, record: bool) -> dict:
    """report with its plan swapped for the witness dicts, or for []."""
    report["witnesses"] = _witness_dicts(report["witnesses"]) if record else []
    return report


def default_square_bound(sq: Square) -> int:
    """Largest fiber of f, plus two."""
    return max(map(len, sq.f._fibers), default=0) + 2


def collection_report(sq: Square, bound: int | None = None, record: bool = False) -> dict:
    """For every a and every surjection e: E ->> B_a with |E| <= bound,
    is there a c over a and h: D_c -> E with e o h = q restricted to D_c?

    The first c over a and h(d) = the first element of e's block over
    q(d) serve every e. Fibers larger than the bound admit no surjection
    within the budget and are reported as skipped. With record, each e
    is listed with that c and h, and whether q restricted to D_c is
    itself onto B_a, which the covering condition implies but this
    check does not require.
    """
    return _recorded(_collection_scan(sq, bound), record)


def _collection_scan(sq: Square, bound: int | None = None) -> dict:
    """collection_report with the plan of its witnesses in their place."""
    if bound is None:
        bound = default_square_bound(sq)
    if bound < 1:
        raise InvalidValue("bound must be at least 1")
    plan = _Plan(bound, "e", ("fiber_sizes", "h"), [])
    skipped: list[dict] = []
    for a, fiber_b, over_a in zip(sq.A.names, sq.f._fibers, sq.p._fibers):
        if len(fiber_b) > bound:
            skipped.append({"a": a, "reason": f"fiber has {len(fiber_b)} elements, bound is {bound}"})
            continue
        if not over_a:
            return {
                "holds": False,
                "bound": bound,
                "counterexample": {
                    "a": a,
                    "fiber": [sq.B.name(bi) for bi in fiber_b],
                    "fiber_sizes": [1] * len(fiber_b),
                    "domain_size": len(fiber_b),
                },
                "witnesses": plan,
                "skipped": skipped,
            }
        d_over = sq.g._fibers[over_a[0]]
        blocks = list(map(fiber_b.index, map(sq.q.table.__getitem__, d_over)))
        template = {
            "a": a,
            "fiber_sizes": (_SIZES,),
            "c": sq.C.name(over_a[0]),
            "h": (_LIFT, list(map(sq.D.names.__getitem__, d_over)), blocks),
            "q_restriction_onto_fiber": len(set(blocks)) == len(fiber_b),
        }
        plan.groups.append((len(fiber_b), template))
    return {"holds": True, "bound": bound, "counterexample": None, "witnesses": plan, "skipped": skipped}


def check_collection_square(sq: Square, bound: int | None = None) -> bool:
    return collection_report(sq, bound)["holds"]


def build_amc_square(f: FinMap, families: Mapping[str, Sequence[FinMap]]) -> Square:
    """The explicit square over f from a choice of fiber covers.

    For each a in cod(f), families[a] must be a nonempty list of maps
    into dom(f) whose image is exactly the fiber over a. The square
    has C = A with p the identity, and

        D = { (a, t, x) : t in families[a], x in dom(t) }

    with g the first projection and q(a, t, x) = t(x). The result
    passes both square checks at every bound.
    """
    A = f.cod
    B = f.dom
    for a in families:
        A.index(a)  # reject stray keys
    d_names: list[str] = []
    g_table: list[int] = []
    q_table: list[int] = []
    for ai, a in enumerate(A.names):
        fam = tuple(families.get(a, ()))
        if not fam:
            raise EmptyFamily(f"no surjections given for fiber over {a!r}")
        want = fiber(f, a).bits
        for ti, t in enumerate(fam):
            if t.cod != B:
                raise CodomainMismatch(f"cover t{ti} over {a!r} does not land in dom(f)")
            if image(t).bits != want:
                raise NotASurjection(f"cover t{ti} over {a!r} is not onto the fiber of {a!r}")
            d_names.extend(f"({a},t{ti},{x})" for x in t.dom.names)
            g_table.extend([ai] * len(t.table))
            q_table.extend(t.table)
    D = Carrier(tuple(d_names))
    return Square(
        f=f,
        p=identity(A),
        g=FinMap(D, A, tuple(g_table)),
        q=FinMap(D, B, tuple(q_table)),
    )


def refines(p: FinMap, q: FinMap) -> FinMap | None:
    """The least f with q o f = p, or None when image(p) ⊄ image(q).

    Least means pointwise: f(y) is the first element of q's fiber over
    p(y) in declaration order.
    """
    if p.cod != q.cod:
        raise CodomainMismatch("refinement needs a common codomain")
    over = [q._fibers[t] for t in p.table]
    if not all(over):
        return None
    return FinMap(p.dom, q.dom, tuple(z[0] for z in over))


def default_family_bound(base_size: int) -> int:
    return base_size + 2


def amc_family_report(fam: SurjectionFamily, bound: int | None = None, record: bool = False) -> dict:
    """Does every surjection onto the base factor some member through it?

    For each canonical surjection p: Y ->> base with |Y| <= bound, is
    there an index i and f: Y_i -> Y with p o f = p_i? Member 0 always
    serves, with f(y) the first element of p's block over p_0(y).
    """
    return _recorded(_amc_family_scan(fam, bound), record)


def _amc_family_scan(fam: SurjectionFamily, bound: int | None = None) -> dict:
    """amc_family_report with the plan of its witnesses in their place."""
    if bound is None:
        bound = default_family_bound(len(fam.base))
    if bound < len(fam.base):
        raise InvalidValue("bound must be at least the size of the base")
    base = fam.base.names
    plan = _Plan(bound, "y", ("surjection", "factor"), [])
    if not fam.members:
        names: list[str] = []
        first = next(_surjection_blocks(len(base), len(base), names, "y"))
        counterexample = _surjection_doc(base, *first, names)
        return {"holds": False, "bound": bound, "counterexample": counterexample, "witnesses": plan}
    factor = (_LIFT, fam.members[0].dom.names, fam.members[0].table)
    plan.groups.append((len(base), {"surjection": (_ONTO, base), "member": 0, "factor": factor}))
    return {"holds": True, "bound": bound, "counterexample": None, "witnesses": plan}


def is_amc_witness_family(fam: SurjectionFamily, bound: int | None = None) -> bool:
    return amc_family_report(fam, bound)["holds"]


def collection_family_report(
    ys: Sequence[Carrier], bound: int | None = None, record: bool = False
) -> dict:
    """Is every surjection onto any member refined from within the family?

    For each index i and canonical surjection p: E ->> Y_i with
    |E| <= bound, is there an i' and f: Y_{i'} -> E whose composite
    with p is onto Y_i? Witnesses take the first i' with at least |Y_i|
    elements (none when Y_i is empty), and f sends its k-th element to
    the first element of p's block over the k-th element of Y_i, any
    further element to e0.
    """
    return _recorded(_collection_family_scan(ys, bound), record)


def _collection_family_scan(ys: Sequence[Carrier], bound: int | None = None) -> dict:
    """collection_family_report with the plan of its witnesses in their place."""
    if bound is None:
        bound = default_family_bound(max((len(y) for y in ys), default=0))
    if bound < 1:
        raise InvalidValue("bound must be at least 1")
    plan = _Plan(bound, "e", ("surjection", "factor"), [])
    refining: dict[int, int] = {}
    for i, target in enumerate(ys):
        n = len(target)
        if n not in refining:
            refining[n] = next(j for j, y in enumerate(ys) if (len(y) >= n if n else not len(y)))
        source = ys[refining[n]]
        # block 0 starts at e0, which takes every element past the n-th
        factor = (_LIFT, source.names, [*range(n), *[0] * (len(source) - n)])
        template = {"index": i, "surjection": (_ONTO, target.names), "refining_index": refining[n], "factor": factor}
        plan.groups.append((n, template))
    return {"holds": True, "bound": bound, "counterexample": None, "witnesses": plan}


def is_collection_family(ys: Sequence[Carrier], bound: int | None = None) -> bool:
    return collection_family_report(ys, bound)["holds"]


def strong_amc_factor(fam: SurjectionFamily, f: FinMap) -> tuple[int, FinMap]:
    """An index j and g: Y_j -> dom(f) with f o g = p_j.

    Route: pull the first member back along f, giving a surjection
    u: T ->> base; then factor p_0 through u (p_0 = u o k, which exists
    since u is onto) and push k through the pullback projection. So j is
    always 0, and the maps are the least ones.
    """
    if f.cod != fam.base:
        raise CodomainMismatch("f must land in the family's base")
    if missing := missed(f):
        raise NotASurjection(f"f misses {missing} of the base")
    if not fam.members:
        raise NoFactorization("the family has no members")
    first = fam.members[0]
    _, pr_z, _ = pullback(f, first)
    u = compose(f, pr_z)  # onto: f is onto and the pullback hits every fiber pair
    return 0, compose(pr_z, refines(first, u))
