"""Trees over a signature: constructors, recursion, enumeration."""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indkernel.errors import ArityMismatch, DuplicateName, EmptyWType, UnknownElement
from indkernel.wtree import (
    Signature,
    WTree,
    depth,
    distinct_nodes,
    fold,
    node_count,
    random_tree,
    signature_from_json,
    signature_to_json,
    subtrees,
    sup,
    tree_from_json,
    tree_to_dot,
    tree_to_json,
    validate,
)
from oracles import tree_depth_by_recursion, tree_nodes_by_recursion

BINARY = Signature.of({"leaf": (), "node": ("lft", "rgt")})
UNARY = Signature.of({"b": (), "a": ("s0",)})


def complete(sig, levels):
    if levels == 1:
        return sup(sig, "leaf", {})
    child = complete(sig, levels - 1)
    return sup(sig, "node", {"lft": child, "rgt": child})


class TestSup:
    def test_nullary_label_is_leaf(self):
        leaf = sup(UNARY, "b", {})
        assert leaf.children == ()

    def test_depth_two_tree(self):
        t = sup(UNARY, "a", {"s0": sup(UNARY, "b", {})})
        assert depth(t) == 2
        assert t.children[0].label == "b"

    def test_missing_slot_reported(self):
        with pytest.raises(ArityMismatch, match="missing"):
            sup(BINARY, "node", {"lft": sup(BINARY, "leaf", {})})

    def test_extra_slot_reported(self):
        with pytest.raises(ArityMismatch, match="unexpected"):
            sup(UNARY, "b", {"s0": sup(UNARY, "b", {})})

    def test_unknown_label(self):
        with pytest.raises(UnknownElement):
            sup(UNARY, "zz", {})


class TestSignature:
    def test_slot_namespaces_must_be_disjoint(self):
        with pytest.raises(DuplicateName):
            Signature.of({"a": ("s",), "b": ("s",)})

    def test_nullary_labels(self):
        assert BINARY.nullary_labels() == ("leaf",)


class TestFold:
    def test_size_of_leaf(self):
        size = fold(BINARY, sup(BINARY, "leaf", {}), lambda l, kids: 1 + sum(kids.values()))
        assert size == 1

    def test_height_of_depth_two_tree(self):
        t = sup(UNARY, "a", {"s0": sup(UNARY, "b", {})})
        height = fold(UNARY, t, lambda l, kids: 1 + max(kids.values(), default=0))
        assert height == 2

    def test_label_set_against_explicit_traversal(self):
        rng = Random(3)
        for _ in range(50):
            sig = _random_sig(rng)
            t = random_tree(sig, rng)
            got = fold(sig, t, lambda l, kids: frozenset((l,)).union(*kids.values()) if kids else frozenset((l,)))
            explicit = set()
            queue = [t]
            while queue:
                node = queue.pop()
                explicit.add(node.label)
                queue.extend(node.children)
            assert got == frozenset(explicit)

    def test_step_called_once_per_node(self):
        t = complete(BINARY, 3)
        calls = []
        fold(BINARY, t, lambda l, kids: calls.append(l))
        assert len(calls) == node_count(t) == 7

    def test_deep_chain_does_not_recurse(self):
        t = sup(UNARY, "b", {})
        for _ in range(5000):
            t = sup(UNARY, "a", {"s0": t})
        assert fold(UNARY, t, lambda l, kids: 1 + sum(kids.values())) == 5001


class TestSubtrees:
    def test_leaf(self):
        leaf = sup(BINARY, "leaf", {})
        assert subtrees(leaf) == [leaf]

    def test_depth_two(self):
        child = sup(UNARY, "b", {})
        t = sup(UNARY, "a", {"s0": child})
        assert subtrees(t) == [t, child]

    def test_complete_binary_depth_three(self):
        assert len(subtrees(complete(BINARY, 3))) == 7


def _random_sig(rng: Random) -> Signature:
    n = rng.randint(1, 4)
    return Signature.of(
        {
            f"L{i}": tuple(f"L{i}s{j}" for j in range(0 if i == 0 else rng.randint(0, 3)))
            for i in range(n)
        }
    )


class TestRandomTrees:
    def test_generated_trees_are_valid(self):
        rng = Random(11)
        for _ in range(200):
            sig = _random_sig(rng)
            t = random_tree(sig, rng)
            assert validate(sig, t)

    def test_empty_type_reported(self):
        sig = Signature.of({"a": ("s0",)})
        with pytest.raises(EmptyWType):
            random_tree(sig, Random(0))

    def test_fold_sup_identity(self):
        rng = Random(5)
        for _ in range(100):
            sig = _random_sig(rng)
            t = random_tree(sig, rng)
            assert fold(sig, t, lambda l, kids: sup(sig, l, kids)) == t

    def test_subtree_count_matches_fold(self):
        rng = Random(9)
        for _ in range(100):
            sig = _random_sig(rng)
            t = random_tree(sig, rng)
            assert len(subtrees(t)) == fold(sig, t, lambda l, kids: 1 + sum(kids.values()))

    def test_depth_and_node_count_match_recursive_readings(self):
        rng = Random(11)
        for _ in range(200):
            sig = _random_sig(rng)
            t = random_tree(sig, rng)
            assert depth(t) == tree_depth_by_recursion(t)
            assert node_count(t) == len(tree_nodes_by_recursion(t))

    def test_shared_unbalanced_dag(self):
        """One node object under two parents: counted once per position,
        visited once, and the deeper branch sets the depth."""
        leaf = sup(BINARY, "leaf", {})
        shared = sup(BINARY, "node", {"lft": leaf, "rgt": leaf})
        t = sup(BINARY, "node", {"lft": leaf, "rgt": sup(BINARY, "node", {"lft": shared, "rgt": shared})})
        assert depth(t) == tree_depth_by_recursion(t) == 4
        assert node_count(t) == len(subtrees(t)) == 9
        assert [id(n) for n in distinct_nodes(t)] == [id(leaf), id(shared), id(t.children[1]), id(t)]
        assert validate(BINARY, t)


class TestEquality:
    def test_structural_equality(self):
        a = sup(BINARY, "node", {"lft": sup(BINARY, "leaf", {}), "rgt": sup(BINARY, "leaf", {})})
        b = sup(BINARY, "node", {"lft": sup(BINARY, "leaf", {}), "rgt": sup(BINARY, "leaf", {})})
        assert a == b and a is not b
        assert a != sup(BINARY, "leaf", {})


class TestSerialization:
    def test_signature_json_round_trip(self):
        data = signature_to_json(BINARY)
        assert signature_from_json(data) == BINARY

    def test_tree_json_round_trip(self):
        rng = Random(2)
        for _ in range(50):
            sig = _random_sig(rng)
            t = random_tree(sig, rng)
            assert tree_from_json(sig, tree_to_json(sig, t)) == t

    def test_dot_is_stable_and_names_slots(self):
        t = sup(UNARY, "a", {"s0": sup(UNARY, "b", {})})
        dot = tree_to_dot(UNARY, t)
        assert dot == tree_to_dot(UNARY, t)
        assert 'n0 -> n1 [label="s0"]' in dot
        assert dot.startswith("digraph wtree {")


@settings(max_examples=60)
@given(st.integers(1, 6))
def test_complete_tree_node_count(levels):
    """A complete binary tree of d levels has 2^d - 1 subtrees."""
    assert len(subtrees(complete(BINARY, levels))) == 2**levels - 1
