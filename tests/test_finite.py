"""Carriers, subsets, maps: examples and algebraic properties."""

import pickle
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indkernel.errors import CodomainMismatch, DuplicateName, UnknownElement
from indkernel.finite import (
    Carrier,
    FinMap,
    Subset,
    compose,
    fiber,
    identity,
    image,
    is_surjection,
    members,
    missed,
    pullback,
)
from indkernel.squares import refines
from oracles import least_lift, preimages_by_scan, pullback_pairs_by_scan, subset_names_by_scan


def carriers(max_size=5, prefix="x"):
    return st.integers(0, max_size).map(
        lambda n: Carrier(tuple(f"{prefix}{i}" for i in range(n)))
    )


@st.composite
def finmaps(draw, max_dom=5, max_cod=4):
    cod = draw(carriers(max_cod, "a"))
    dom = draw(carriers(max_dom, "b")) if len(cod) else Carrier(())
    table = tuple(draw(st.integers(0, len(cod) - 1)) for _ in dom.names)
    return FinMap(dom, cod, table)


@st.composite
def cospans(draw, max_size=4):
    cod = draw(carriers(max_size, "a"))

    def leg(prefix):
        dom = draw(carriers(max_size, prefix)) if len(cod) else Carrier(())
        table = tuple(draw(st.integers(0, len(cod) - 1)) for _ in dom.names)
        return FinMap(dom, cod, table)

    return leg("b"), leg("c")


class TestCarrier:
    def test_order_is_declaration_order(self):
        c = Carrier.of("z", "a", "m")
        assert list(c) == ["z", "a", "m"]
        assert c.index("m") == 2
        assert c.name(0) == "z"

    def test_duplicate_names_rejected(self):
        with pytest.raises(DuplicateName):
            Carrier.of("a", "b", "a")

    def test_unknown_element(self):
        with pytest.raises(UnknownElement):
            Carrier.of("a").index("b")


class TestSubset:
    def test_names_round_trip(self):
        c = Carrier.of("a", "b", "c")
        s = Subset.from_names(c, ["c", "a"])
        assert s.names() == ("a", "c")
        assert "b" not in s and "a" in s
        assert str(s) == "{a, c}"

    def test_set_algebra(self):
        c = Carrier.of("a", "b", "c")
        x = Subset.from_names(c, ["a", "b"])
        y = Subset.from_names(c, ["b", "c"])
        assert (x & y).names() == ("b",)
        assert (x | y) == Subset.full(c)
        assert (x - y).names() == ("a",)
        assert Subset.empty(c) <= x < Subset.full(c)

    def test_mixed_carriers_rejected(self):
        with pytest.raises(ValueError):
            Subset.full(Carrier.of("a")) | Subset.full(Carrier.of("b"))

    def test_members_names_iteration_and_text_match_a_carrier_scan(self):
        rng = Random(4045)
        for _ in range(400):
            n = rng.choice([0, 1, 2, 7, 31, 64, 65, 300])
            carrier = Carrier(tuple(f"e{i}" for i in range(n)))
            density = rng.random()
            bits = sum(1 << i for i in range(n) if rng.random() < density)
            s = Subset(carrier, bits)
            want = subset_names_by_scan(carrier, bits)
            assert s.names() == want
            assert list(s) == list(want)
            assert str(s) == "{" + ", ".join(want) + "}"
            assert [carrier.names[i] for i in members(bits)] == list(want)


class TestCarrierHash:
    def test_equal_carriers_built_apart_hash_alike(self):
        a, b = Carrier.of("x", "y"), Carrier(tuple(["x", "y"]))
        assert a == b and a is not b and hash(a) == hash(b)
        assert hash(Subset.full(a)) == hash(Subset.full(b))


class TestFiber:
    def test_identity_fiber(self):
        f = identity(Carrier.of("x", "y"))
        assert fiber(f, "x").names() == ("x",)

    def test_constant_map_fiber(self):
        b = Carrier.of("b0", "b1")
        f = FinMap(b, Carrier.of("a"), (0, 0))
        assert fiber(f, "a").names() == ("b0", "b1")

    def test_fiber_by_table_scan(self):
        b = Carrier.of("b0", "b1", "b2")
        a = Carrier.of("a0", "a1")
        f = FinMap(b, a, (0, 0, 1))
        assert fiber(f, "a1").names() == ("b2",)

    def test_unknown_codomain_element(self):
        f = identity(Carrier.of("x"))
        with pytest.raises(UnknownElement):
            fiber(f, "nope")


class TestSurjection:
    def test_identity_is_onto(self):
        assert is_surjection(identity(Carrier.of("x", "y")))

    def test_inclusion_is_not_onto(self):
        f = FinMap(Carrier.of("x"), Carrier.of("x", "y"), (0,))
        assert not is_surjection(f)

    def test_constant_onto_singleton(self):
        f = FinMap(Carrier.of("b0", "b1"), Carrier.of("a"), (0, 0))
        assert is_surjection(f)


class TestPullback:
    def test_identity_corner(self):
        i = identity(Carrier.of("a"))
        apex, pr1, pr2 = pullback(i, i)
        assert apex.names == ("(a,a)",)
        assert pr1("(a,a)") == "a" == pr2("(a,a)")

    def test_pair_enumeration(self):
        a = Carrier.of("a")
        f = FinMap(Carrier.of("b0", "b1"), a, (0, 0))
        p = FinMap(Carrier.of("c0"), a, (0,))
        apex, _, _ = pullback(f, p)
        assert apex.names == ("(b0,c0)", "(b1,c0)")

    def test_disjoint_images_give_empty_apex(self):
        a = Carrier.of("a0", "a1")
        f = FinMap(Carrier.of("b"), a, (0,))
        p = FinMap(Carrier.of("c"), a, (1,))
        apex, _, _ = pullback(f, p)
        assert len(apex) == 0

    def test_codomain_mismatch(self):
        with pytest.raises(CodomainMismatch):
            pullback(identity(Carrier.of("a")), identity(Carrier.of("b")))


class TestMapAlgebra:
    def test_compose_and_identity(self):
        a = Carrier.of("a0", "a1")
        b = Carrier.of("b0", "b1", "b2")
        f = FinMap(b, a, (0, 1, 1))
        assert compose(f, identity(b)).table == f.table
        assert compose(identity(a), f).table == f.table

    def test_from_mapping_rejects_partial_and_stray(self):
        b = Carrier.of("b0", "b1")
        a = Carrier.of("a")
        with pytest.raises(UnknownElement):
            FinMap.from_mapping(b, a, {"b0": "a"})
        with pytest.raises(UnknownElement):
            FinMap.from_mapping(b, a, {"b0": "a", "b1": "a", "zz": "a"})


@settings(max_examples=100)
@given(finmaps())
def test_fibers_partition_domain(f):
    """Fibers are pairwise disjoint and union to the whole domain."""
    union = 0
    for a in f.cod.names:
        bits = fiber(f, a).bits
        assert union & bits == 0
        union |= bits
    assert union == (1 << len(f.dom)) - 1


@settings(max_examples=100)
@given(finmaps())
def test_surjection_iff_fibers_nonempty(f):
    assert is_surjection(f) == all(len(fiber(f, a)) > 0 for a in f.cod.names)


@settings(max_examples=100)
@given(cospans())
def test_pullback_projections_commute(legs):
    """f o pr1 = p o pr2 on the constructed apex."""
    f, p = legs
    apex, pr1, pr2 = pullback(f, p)
    for name in apex.names:
        assert f(pr1(name)) == p(pr2(name))


@settings(max_examples=100)
@given(finmaps())
def test_image_is_union_of_singleton_fibers(f):
    im = image(f)
    for a in f.cod.names:
        assert (a in im) == (len(fiber(f, a)) > 0)


def random_map_pair(rng: Random) -> tuple[FinMap, FinMap]:
    """Two maps into one codomain of 0-4 elements, from domains of 0-5
    elements (both empty when the codomain is)."""
    cod = Carrier(tuple(f"a{i}" for i in range(rng.randint(0, 4))))
    maps = []
    for prefix in ("b", "c"):
        dom = Carrier(tuple(f"{prefix}{i}" for i in range(rng.randint(0, 5) if len(cod) else 0)))
        maps.append(FinMap(dom, cod, tuple(rng.randrange(len(cod)) for _ in dom.names)))
    return maps[0], maps[1]


class TestPreimageTable:
    def test_every_reader_matches_a_plain_scan(self):
        rng = Random(2027)
        shapes = set()
        for _ in range(500):
            f, p = random_map_pair(rng)
            shapes.add((len(f.dom) > 0, len(f.cod) > 0))
            scan = preimages_by_scan(f)
            assert [[f.dom.name(i) for i in over] for over in f._fibers] == list(scan.values())
            assert image(f).names() == tuple(a for a, bs in scan.items() if bs)
            for a, bs in scan.items():
                assert fiber(f, a).names() == tuple(bs)
            assert missed(f) == [a for a, bs in scan.items() if not bs]
            assert is_surjection(f) == all(scan.values())
            apex, pr1, pr2 = pullback(f, p)
            pairs = pullback_pairs_by_scan(f, p)
            assert apex.names == tuple(f"({b},{c})" for b, c in pairs)
            assert [(pr1(t), pr2(t)) for t in apex.names] == pairs
            assert refines(p, f) == least_lift(p, f)
        assert shapes == {(False, False), (False, True), (True, True)}

    def test_the_table_is_built_once_and_kept(self):
        f = FinMap(Carrier.of("b0", "b1", "b2"), Carrier.of("a0", "a1"), (1, 0, 1))
        assert "_fibers" not in vars(f)
        table = f._fibers
        assert table == ((1,), (0, 2))
        assert f._fibers is table

    def test_equality_hashing_repr_and_pickles_ignore_the_table(self):
        dom, cod = Carrier.of("b0", "b1", "b2"), Carrier.of("a0", "a1")
        used = FinMap(dom, cod, (1, 0, 1))
        fresh = FinMap(dom, cod, (1, 0, 1))
        used._fibers
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)
        assert pickle.dumps(used) == pickle.dumps(fresh)
        back = pickle.loads(pickle.dumps(used))
        assert "_fibers" not in vars(back)
        assert back == fresh and hash(back) == hash(fresh)
        assert back._fibers == used._fibers
