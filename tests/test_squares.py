"""Commuting squares, surjection families, and their checkers."""

from itertools import product
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indkernel.errors import (
    CodomainMismatch,
    EmptyFamily,
    InvalidSquare,
    NoFactorization,
    NotASurjection,
    UnknownElement,
)
from indkernel.finite import Carrier, FinMap, compose, fiber, identity, image, is_surjection, pullback
from indkernel.gen import all_squares, named_carrier, random_square, random_surjection, random_surjection_family
from indkernel.squares import (
    Square,
    SurjectionFamily,
    amc_family_report,
    build_amc_square,
    check_collection_square,
    check_covering_square,
    collection_family_report,
    collection_report,
    covering_report,
    default_family_bound,
    default_square_bound,
    is_amc_witness_family,
    is_collection_family,
    refines,
    strong_amc_factor,
    surjections_onto,
)
from oracles import (
    all_surjections,
    amc_family_report_by_search,
    collection_family_report_by_search,
    collection_report_by_search,
    fiber_size_tuples_by_product,
    surjection_classes,
)

A2 = Carrier.of("a0", "a1")
B3 = Carrier.of("b0", "b1", "b2")
C2 = Carrier.of("c0", "c1")

F = FinMap.from_mapping(B3, A2, {"b0": "a0", "b1": "a0", "b2": "a1"})
P = FinMap.from_mapping(C2, A2, {"c0": "a0", "c1": "a1"})


def pullback_square(f: FinMap, p: FinMap) -> Square:
    apex, to_b, to_c = pullback(f, p)
    return Square(f=f, p=p, g=to_c, q=to_b)


def matched_pairs(f: FinMap, p: FinMap) -> set[tuple[str, str]]:
    return {
        (b, c)
        for b in f.dom.names
        for c in p.dom.names
        if f(b) == p(c)
    }


def collection_by_brute_force(sq: Square, bound: int) -> bool:
    """Literal quantifier sweep: all raw surjections e, all maps h."""
    for a in sq.A.names:
        fiber_b = [b for b in sq.B.names if sq.f(b) == a]
        cs = [c for c in sq.C.names if sq.p(c) == a]
        if len(fiber_b) > bound:
            continue
        sub_b = Carrier(tuple(fiber_b))
        for size in range(0, bound + 1):  # size 0 covers the empty fiber's empty surjection
            for e in all_surjections(size, sub_b):
                good = False
                for c in cs:
                    ds = [d for d in sq.D.names if sq.g(d) == c]
                    for h_table in product(range(size), repeat=len(ds)):
                        if all(
                            e(e.dom.name(h_table[k])) == sq.q(d)
                            for k, d in enumerate(ds)
                        ):
                            good = True
                            break
                    if good:
                        break
                if not good:
                    return False
    return True


class TestSquareValidation:
    def test_corners_read_off_the_maps(self):
        sq = pullback_square(F, P)
        assert (sq.A, sq.B, sq.C) == (A2, B3, C2)
        assert len(sq.D) == 3  # (b0,c0), (b1,c0), (b2,c1)

    def test_non_commuting_square_rejected(self):
        d = Carrier.of("d0")
        with pytest.raises(InvalidSquare, match="does not commute at 'd0'"):
            Square(
                f=F,
                p=P,
                g=FinMap.from_mapping(d, C2, {"d0": "c1"}),
                q=FinMap.from_mapping(d, B3, {"d0": "b0"}),
            )

    def test_mismatched_wiring_rejected(self):
        with pytest.raises(CodomainMismatch):
            Square(f=F, p=FinMap.from_mapping(C2, B3, {"c0": "b0", "c1": "b1"}), g=identity(C2), q=identity(B3))


class TestCoveringCheck:
    def test_pullback_of_a_surjection_covers(self):
        assert check_covering_square(pullback_square(F, P))

    def test_p_missing_an_element(self):
        p_gap = FinMap.from_mapping(C2, A2, {"c0": "a0", "c1": "a0"})
        sq = pullback_square(F, p_gap)
        report = covering_report(sq)
        assert not report["holds"]
        assert report["counterexample"] == {"kind": "p-misses", "element": "a1"}

    def test_dropping_a_matched_pair(self):
        apex, to_b, to_c = pullback(F, P)
        keep = [d for d in apex.names if d != "(b1,c0)"]
        D = Carrier(tuple(keep))
        sq = Square(
            f=F,
            p=P,
            g=FinMap(D, C2, tuple(to_c.table[apex.index(d)] for d in keep)),
            q=FinMap(D, B3, tuple(to_b.table[apex.index(d)] for d in keep)),
        )
        report = covering_report(sq)
        assert not report["holds"]
        assert report["counterexample"]["kind"] == "pair-not-covered"
        assert tuple(report["counterexample"]["pair"]) == ("b1", "c0")
        # oracle: the reported pair is matched but unreached
        reached = {(sq.q(d), sq.g(d)) for d in sq.D.names}
        assert ("b1", "c0") in matched_pairs(F, P) - reached


class TestCollectionCheck:
    def test_covering_squares_pass_at_small_bounds(self):
        sq = pullback_square(F, P)
        for bound in range(1, 6):
            assert check_collection_square(sq, bound)
            assert collection_by_brute_force(sq, bound)

    def test_empty_p_fiber_fails(self):
        # only an a with no c above it can fail: commutation forces
        # q(D_c) into B_a, so a lift exists whenever a candidate c does
        b = Carrier.of("b0", "b1", "b2")
        f = FinMap.from_mapping(b, A2, {"b0": "a0", "b1": "a1", "b2": "a1"})
        c = Carrier.of("c0")
        p = FinMap.from_mapping(c, A2, {"c0": "a0"})
        d = Carrier.of("d0")
        sq = Square(
            f=f,
            p=p,
            g=FinMap.from_mapping(d, c, {"d0": "c0"}),
            q=FinMap.from_mapping(d, b, {"d0": "b0"}),
        )
        report = collection_report(sq, 3)
        assert not report["holds"]
        assert report["counterexample"]["a"] == "a1"
        assert report["counterexample"]["fiber"] == ["b1", "b2"]
        # the first failing surjection is the identity on the 2-element fiber
        assert report["counterexample"]["fiber_sizes"] == [1, 1]
        assert not collection_by_brute_force(sq, 3)

    def test_oversized_fibers_are_skipped_not_failed(self):
        sq = pullback_square(F, P)
        report = collection_report(sq, 1)
        assert report["holds"]
        assert [entry["a"] for entry in report["skipped"]] == ["a0"]

    def test_witness_recording_flags_fiber_surjectivity(self):
        report = collection_report(pullback_square(F, P), 3, record=True)
        assert report["holds"]
        assert report["witnesses"]
        assert all(w["q_restriction_onto_fiber"] for w in report["witnesses"])

    def test_bound_must_be_positive(self):
        with pytest.raises(ValueError):
            collection_report(pullback_square(F, P), 0)

    def test_default_bound_is_largest_fiber_plus_two(self):
        assert default_square_bound(pullback_square(F, P)) == 4


class TestBuildAmcSquare:
    def test_identity_family_gives_a_copy_of_b(self):
        a = Carrier.of("s")
        b = Carrier.of("b0", "b1")
        f = FinMap(b, a, (0, 0))
        sq = build_amc_square(f, {"s": [identity(b)]})
        assert sq.D.names == ("(s,t0,b0)", "(s,t0,b1)")
        assert sq.q.table == (0, 1)
        assert sq.p == identity(a)

    def test_domain_sizes_add_up(self):
        a = Carrier.of("s")
        b = Carrier.of("b0", "b1")
        f = FinMap(b, a, (0, 0))
        three = Carrier.of("t0", "t1", "t2")
        collapse = FinMap(three, b, (0, 1, 1))
        sq = build_amc_square(f, {"s": [identity(b), collapse]})
        assert len(sq.D) == 2 + 3

    def test_empty_family_reported_with_its_element(self):
        onto_a0_fiber = FinMap.from_mapping(C2, B3, {"c0": "b0", "c1": "b1"})
        with pytest.raises(EmptyFamily, match="'a1'"):
            build_amc_square(F, {"a0": [onto_a0_fiber]})

    def test_cover_must_hit_the_fiber_exactly(self):
        wide = FinMap.from_mapping(B3, B3, {"b0": "b0", "b1": "b1", "b2": "b2"})
        with pytest.raises(NotASurjection):
            build_amc_square(F, {"a0": [wide], "a1": [wide]})

    def test_stray_family_key_rejected(self):
        with pytest.raises(UnknownElement):
            build_amc_square(F, {"zz": []})

    def test_output_passes_both_checks_at_every_bound(self):
        fam_a0 = FinMap.from_mapping(C2, B3, {"c0": "b0", "c1": "b1"})
        fam_a1 = FinMap.from_mapping(Carrier.of("u0"), B3, {"u0": "b2"})
        sq = build_amc_square(F, {"a0": [fam_a0], "a1": [fam_a1]})
        assert check_covering_square(sq)
        for bound in range(1, 6):
            assert check_collection_square(sq, bound)


class TestRefines:
    def test_self_refinement_picks_least_preimages(self):
        y = Carrier.of("y0", "y1", "y2")
        x = Carrier.of("x0", "x1")
        p = FinMap(y, x, (0, 1, 0))
        f = refines(p, p)
        assert compose(p, f) == p
        assert f.to_mapping() == {"y0": "y0", "y1": "y1", "y2": "y0"}

    def test_any_map_refines_through_a_surjection(self):
        rng = Random(7)
        x = named_carrier(3, "x")
        for _ in range(50):
            q = random_surjection(rng, x, prefix="z")
            p = FinMap(named_carrier(4, "y"), x, tuple(rng.randrange(3) for _ in range(4)))
            f = refines(p, q)
            assert f is not None
            assert compose(q, f) == p

    def test_no_refinement_when_images_do_not_nest(self):
        x = Carrier.of("x0", "x1")
        p = FinMap(Carrier.of("y0"), x, (1,))
        q = FinMap(Carrier.of("z0"), x, (0,))
        assert refines(p, q) is None

    def test_codomains_must_agree(self):
        with pytest.raises(CodomainMismatch):
            refines(identity(A2), identity(B3))


class TestAmcWitnessFamily:
    def test_identity_member_suffices(self):
        x = Carrier.of("x0", "x1")
        fam = SurjectionFamily(x, (identity(x),))
        for bound in range(2, 6):
            assert is_amc_witness_family(fam, bound)

    def test_empty_family_fails_on_nonempty_base(self):
        fam = SurjectionFamily(Carrier.of("x0"), ())
        assert not is_amc_witness_family(fam, 2)

    def test_non_surjective_member_rejected_at_construction(self):
        x = Carrier.of("x0", "x1")
        with pytest.raises(NotASurjection, match="misses"):
            SurjectionFamily(x, (FinMap(Carrier.of("y0"), x, (0,)),))

    def test_bound_below_base_size_rejected(self):
        x = Carrier.of("x0", "x1")
        with pytest.raises(ValueError):
            is_amc_witness_family(SurjectionFamily(x, (identity(x),)), 1)

    def test_default_bound(self):
        assert default_family_bound(3) == 5


class TestCollectionFamily:
    def test_singleton_base_at_bound_one(self):
        assert is_collection_family([Carrier.of("y0")], 1)

    def test_empty_index_set_vacuously_holds(self):
        assert is_collection_family([], 3)

    def test_families_always_refine_themselves(self):
        # i' = i always works: send the first |Y_i| elements onto
        # distinct e-values, so no finite instance can fail
        rng = Random(13)
        for _ in range(40):
            ys = [named_carrier(rng.randint(0, 3), f"y{i}_") for i in range(rng.randint(1, 3))]
            assert is_collection_family(ys, rng.randint(1, 4))


class TestStrongAmcFactor:
    def test_identity_surjection_uses_the_first_member(self):
        x = Carrier.of("x0", "x1")
        fam = SurjectionFamily(x, (random_surjection(Random(3), x), identity(x)))
        j, g = strong_amc_factor(fam, identity(x))
        assert j == 0
        assert compose(identity(x), g) == fam.members[0]

    def test_identity_family_yields_least_sections(self):
        x = Carrier.of("x0", "x1")
        z = Carrier.of("z0", "z1", "z2")
        f = FinMap(z, x, (1, 0, 0))
        fam = SurjectionFamily(x, (identity(x),))
        j, g = strong_amc_factor(fam, f)
        assert j == 0
        assert compose(f, g) == identity(x)
        # least preimages: x0 -> z1 (first over x0), x1 -> z0
        assert g.to_mapping() == {"x0": "z1", "x1": "z0"}

    def test_non_surjective_map_rejected(self):
        x = Carrier.of("x0", "x1")
        f = FinMap(Carrier.of("z0"), x, (0,))
        with pytest.raises(NotASurjection, match="misses"):
            strong_amc_factor(SurjectionFamily(x, (identity(x),)), f)

    def test_empty_family_cannot_factor(self):
        x = Carrier.of("x0")
        with pytest.raises(NoFactorization):
            strong_amc_factor(SurjectionFamily(x, ()), identity(x))

    def test_wrong_base_rejected(self):
        with pytest.raises(CodomainMismatch):
            strong_amc_factor(SurjectionFamily(A2, (identity(A2),)), identity(B3))


class TestExhaustiveSquares:
    def test_counts_at_tiny_sizes(self):
        # size 0: the all-empty square; size 1: one extra corner at a
        # time plus the full singleton square
        assert sum(1 for _ in all_squares(0)) == 1
        assert sum(1 for _ in all_squares(1)) == 6
        assert sum(1 for _ in all_squares(2)) == 249

    def test_enumeration_is_deterministic_and_well_formed(self):
        first = [(sq.f.table, sq.p.table, sq.g.table, sq.q.table) for sq in all_squares(2)]
        second = [(sq.f.table, sq.p.table, sq.g.table, sq.q.table) for sq in all_squares(2)]
        assert first == second
        assert len(set(first)) < len(first)  # tables repeat only across carrier shapes
        assert len({(len(sq.A), len(sq.B), len(sq.C), len(sq.D), sq.f.table, sq.p.table, sq.g.table, sq.q.table) for sq in all_squares(2)}) == 249


class TestReportsMatchTheSearch:
    """The closed-form reports equal, field for field and witness for
    witness, the reports of the search over every canonical surjection."""

    def test_every_square_of_size_two(self):
        for sq in all_squares(2):
            for bound in range(1, 6):
                for record in (False, True):
                    assert collection_report(sq, bound, record) == collection_report_by_search(sq, bound, record)

    def test_seeded_squares_of_size_three(self):
        total = 74112  # squares with every corner of size at most 3
        picks = set(Random(17).sample(range(total), 2000))
        for k, sq in enumerate(all_squares(3)):
            if k in picks:
                for bound in range(1, 5):
                    for record in (False, True):
                        assert collection_report(sq, bound, record) == collection_report_by_search(sq, bound, record)
        assert k + 1 == total

    def test_random_surjection_families(self):
        rng = Random(19)
        for _ in range(150):
            base = named_carrier(rng.randint(0, 3), "x")
            if len(base):
                members = tuple(random_surjection(rng, base, prefix=f"m{i}_") for i in range(rng.choice([0, 1, 2, 3])))
            else:
                members = (FinMap(Carrier(()), base, ()),) * rng.randint(0, 1)
            fam = SurjectionFamily(base, members)
            for bound in range(len(base), len(base) + 6):
                for record in (False, True):
                    assert amc_family_report(fam, bound, record) == amc_family_report_by_search(fam, bound, record)

    def test_random_carrier_families(self):
        rng = Random(23)
        for _ in range(150):
            ys = [named_carrier(rng.randint(0, 8), f"y{i}_") for i in range(rng.randint(0, 4))]
            for bound in range(1, 8):
                for record in (False, True):
                    assert collection_family_report(ys, bound, record) == collection_family_report_by_search(ys, bound, record)

    def test_verdicts_without_witnesses_at_large_bounds(self):
        sq = pullback_square(F, P)
        huge = 10**9
        assert collection_report(sq, huge) == {
            "holds": True, "bound": huge, "counterexample": None, "witnesses": [], "skipped": []
        }
        empty = amc_family_report(SurjectionFamily(A2, ()), huge)
        assert empty["counterexample"] == {"domain": ["y0", "y1"], "map": {"y0": "a0", "y1": "a1"}}
        assert collection_family_report([A2, B3], huge)["holds"]


class TestSurjectionEnumeration:
    def test_the_oracle_enumeration_is_the_union_of_surjection_classes(self):
        for tsize in range(0, 4):
            target = named_carrier(tsize, "t")
            for bound in range(0, 6):
                want = set()
                for size in range(tsize, bound + 1):
                    want |= surjection_classes(size, target)
                got = fiber_size_tuples_by_product(tsize, bound)
                assert got == sorted(want)

    def test_every_yield_is_a_canonical_surjection(self):
        target = Carrier.of("t0", "t1")
        for e in surjections_onto(target, 4):
            assert is_surjection(e)
            # block assignment: tables are sorted
            assert list(e.table) == sorted(e.table)

    def test_one_representative_per_fiber_class(self):
        for tsize in range(1, 4):
            target = named_carrier(tsize, "t")
            for bound in range(tsize, 5):
                seen = [tuple(len(fiber(e, t)) for t in target.names) for e in surjections_onto(target, bound)]
                assert len(seen) == len(set(seen))
                want = set()
                for size in range(tsize, bound + 1):
                    want |= surjection_classes(size, target)
                assert set(seen) == want

    def test_empty_target_has_the_empty_surjection(self):
        out = list(surjections_onto(Carrier(()), 3))
        assert len(out) == 1
        assert len(out[0].dom) == 0


@settings(max_examples=120)
@given(st.integers(0, 2**32))
def test_random_covering_squares_pass_collection(seed):
    sq = random_square(Random(seed), max_size=4)
    if check_covering_square(sq):
        for bound in range(1, 5):
            assert check_collection_square(sq, bound)


@settings(max_examples=60)
@given(st.integers(0, 2**32))
def test_collection_check_matches_brute_force(seed):
    sq = random_square(Random(seed), max_size=3)
    for bound in range(1, 4):
        assert check_collection_square(sq, bound) == collection_by_brute_force(sq, bound)


@settings(max_examples=80)
@given(st.integers(0, 2**32))
def test_random_amc_squares_pass_both_checks(seed):
    rng = Random(seed)
    na = rng.randint(1, 3)
    A = named_carrier(na, "a")
    nb = rng.randint(na, na + 2)
    B = named_carrier(nb, "b")
    table = list(range(na)) + [rng.randrange(na) for _ in range(nb - na)]
    rng.shuffle(table)
    f = FinMap(B, A, tuple(table))
    families = {}
    total = 0
    for a in A.names:
        fiber_names = fiber(f, a).names()
        covers = []
        for _ in range(rng.randint(1, 2)):
            size = len(fiber_names) + rng.randint(0, 2)
            dom = named_carrier(size, f"u{a}_")
            cover_table = [B.index(x) for x in fiber_names]
            cover_table.extend(B.index(rng.choice(fiber_names)) for _ in range(size - len(fiber_names)))
            rng.shuffle(cover_table)
            covers.append(FinMap(dom, B, tuple(cover_table)))
            total += size
        families[a] = covers
    sq = build_amc_square(f, families)
    assert len(sq.D) == total
    assert check_covering_square(sq)
    for bound in range(1, 5):
        assert check_collection_square(sq, bound)


@settings(max_examples=100)
@given(st.integers(0, 2**32))
def test_refinement_is_a_preorder(seed):
    rng = Random(seed)
    x = named_carrier(rng.randint(1, 4), "x")
    p = random_surjection(rng, x, prefix="p")
    q = random_surjection(rng, x, prefix="q")
    r = random_surjection(rng, x, prefix="r")
    assert compose(p, refines(p, p)) == p
    f1 = refines(p, q)
    f2 = refines(q, r)
    assert f1 is not None and f2 is not None
    assert compose(r, compose(f2, f1)) == p


@settings(max_examples=80)
@given(st.integers(0, 2**32))
def test_random_families_with_identity_pass_amc(seed):
    rng = Random(seed)
    fam = random_surjection_family(rng, max_base=3, max_members=2)
    with_id = SurjectionFamily(fam.base, fam.members + (identity(fam.base),))
    assert is_amc_witness_family(with_id)


@settings(max_examples=60)
@given(st.integers(0, 2**32))
def test_strong_factor_satisfies_its_equation(seed):
    rng = Random(seed)
    base = named_carrier(rng.randint(1, 3), "x")
    fam = SurjectionFamily(
        base,
        tuple(random_surjection(rng, base, prefix=f"m{i}_") for i in range(rng.randint(1, 3))),
    )
    f = random_surjection(rng, base, prefix="z")
    j, g = strong_amc_factor(fam, f)
    assert compose(f, g) == fam.members[j]


class TestReportsHoldNoPlan:
    """The public reports hold a list of witnesses, never the plan the
    scans carry in its place: [] without record, the dicts with it."""

    @staticmethod
    def check(report: dict, record: bool) -> None:
        witnesses = report["witnesses"]
        assert type(witnesses) is list
        assert all(type(w) is dict for w in witnesses) if record else witnesses == []

    def test_every_report_kind(self):
        rng = Random(31)
        for _ in range(30):
            sq = random_square(rng, 4)
            fam = random_surjection_family(rng)
            ys = [named_carrier(rng.randint(0, 4), f"y{i}_") for i in range(rng.randint(0, 3))]
            for extra in range(4):
                for record in (False, True):
                    self.check(collection_report(sq, 1 + extra, record), record)
                    self.check(amc_family_report(fam, len(fam.base) + extra, record), record)
                    self.check(collection_family_report(ys, 1 + extra, record), record)
        empty = SurjectionFamily(named_carrier(2), ())
        for record in (False, True):
            self.check(amc_family_report(empty, 3, record), record)
