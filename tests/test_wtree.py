"""Trees over a signature: constructors, recursion, enumeration."""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indkernel.dsl import definition_from_ast, parse_rule_file
from indkernel.errors import ArityMismatch, DuplicateName, EmptyWType, SchemaError, UnknownElement
from indkernel.proofs import synthesize_proof
from indkernel.wtree import (
    Signature,
    WTree,
    depth,
    distinct_nodes,
    fold,
    node_count,
    random_tree,
    share_fold,
    signature_from_json,
    signature_to_json,
    subtrees,
    sup,
    tree_from_json,
    tree_to_dot,
    tree_to_json,
    validate,
)
from oracles import fold_by_recursion, tree_depth_by_recursion, tree_nodes_by_recursion

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


def ladder_proof(rungs):
    """The proof of x_{rungs-1} from {x0, y0} when both x_{k+1} and y_{k+1}
    follow from {x_k, y_k}: 2 * rungs - 1 nodes, 2 ** rungs - 1 positions."""
    text = "set " + " ".join(f"x{k} y{k}" for k in range(rungs)) + "\n"
    text += "".join(f"rule x{k} y{k} -> x{k + 1}\nrule x{k} y{k} -> y{k + 1}\n" for k in range(rungs - 1))
    phi, seed, goal = definition_from_ast(parse_rule_file(text + f"seed x0 y0\ngoal x{rungs - 1}\n"))
    return synthesize_proof(phi, seed, goal)


PURE_STEPS = {
    "size": lambda node, sizes: 1 + sum(sizes),
    "height": lambda node, heights: 1 + max(heights, default=0),
    "shape": lambda node, shapes: (node.label, tuple(shapes)),
}


@pytest.mark.parametrize("step", PURE_STEPS.values(), ids=PURE_STEPS)
class TestShareFold:
    """With a pure step, folding each node object once gives what folding
    every tree position gives."""

    def test_random_trees(self, step):
        rng = Random(17)
        for _ in range(200):
            sig = _random_sig(rng)
            t = random_tree(sig, rng)
            assert share_fold(t, step) == fold_by_recursion(t, step)

    def test_shared_dags(self, step):
        for levels in range(1, 11):
            t = complete(BINARY, levels)
            assert share_fold(t, step) == fold_by_recursion(t, step)
        for rungs in range(1, 9):
            proof = ladder_proof(rungs)
            assert share_fold(proof, step) == fold_by_recursion(proof, step)


def test_share_fold_asks_each_node_object_once():
    """children runs in preorder of first occurrence, step children first."""
    leaf = sup(BINARY, "leaf", {})
    shared = sup(BINARY, "node", {"lft": leaf, "rgt": leaf})
    t = sup(BINARY, "node", {"lft": leaf, "rgt": sup(BINARY, "node", {"lft": shared, "rgt": shared})})
    asked, folded = [], []
    share_fold(t, lambda node, _: folded.append(id(node)), lambda node: asked.append(id(node)) or node.children)
    assert asked == list(dict.fromkeys(id(n) for n in tree_nodes_by_recursion(t)))
    assert folded == [id(leaf), id(shared), id(t.children[1]), id(t)]


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

    def test_shared_nodes_give_shared_dicts_and_back(self):
        t = complete(BINARY, 20)
        doc = tree_to_json(BINARY, t)
        assert doc["children"]["lft"] is doc["children"]["rgt"]
        back = tree_from_json(BINARY, doc)
        assert back.children[0] is back.children[1]
        assert node_count(back) == 2**20 - 1 and len(distinct_nodes(back)) == 20

    @pytest.mark.parametrize(
        "doc, error, message",
        [
            ({"label": "node", "children": {"lft": {"label": "zz"}, "rgt": {"label": "node", "children": {}}}},
             UnknownElement, "'zz' is not an element of {leaf, node}"),
            ({"label": "node", "children": {"lft": {"label": "node", "children": {}}, "rgt": {"label": "zz"}}},
             ArityMismatch, "node 'node': missing slots ['lft', 'rgt']"),
            ({"label": "node", "children": {"lft": {"children": {"lft": {"label": "zz"}}}}}, SchemaError,
             "a tree node must be an object with a string 'label' and an object 'children'"),
            ({"label": "node", "children": {"lft": {"label": "zz"}}}, UnknownElement,
             "'zz' is not an element of {leaf, node}"),
        ],
        ids=["unknown-label-first", "missing-slots-first", "no-label-first", "child-before-parent"],
    )
    def test_first_of_two_faults_in_depth_first_order(self, doc, error, message):
        with pytest.raises(error) as caught:
            tree_from_json(BINARY, doc)
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "doc",
        [
            [{"label": "leaf"}],
            {"label": "node", "children": [{"label": "leaf"}, {"label": "leaf"}]},
            {"label": ["leaf"]},
            {"label": "node", "children": {"lft": {"label": "leaf"}, "rgt": "leaf"}},
        ],
        ids=["list-node", "list-children", "unhashable-label", "string-child"],
    )
    def test_a_document_of_another_shape_is_a_schema_error(self, doc):
        with pytest.raises(SchemaError):
            tree_from_json(BINARY, doc)

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
