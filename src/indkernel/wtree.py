"""Well-founded trees over a branching signature.

A signature assigns to every label a carrier of slot names; a tree
node carries a label and one child per slot of that label. Because
children are finite tuples, every tree is finite and structural
recursion (fold) terminates. A signature with no nullary label has no
trees at all.

Slot names must be globally distinct across labels so that a slot name
alone identifies its position; consumers such as the derivation engine
rely on this to attach meaning to slots without parsing names.

A node object may have several parents. fold, subtrees and the DOT
writer give one result per tree position; share_fold, behind
distinct_nodes, depth, node_count and the JSON writer and reader,
visits each node object once. No walk recurses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import attrgetter
from random import Random
from typing import Callable, Collection, Iterable, Mapping, Sequence, TypeVar

from .errors import ArityMismatch, DuplicateName, EmptyWType, SchemaError, UnknownElement
from .finite import Carrier

N = TypeVar("N")
R = TypeVar("R")


@dataclass(frozen=True)
class Signature:
    """Labels plus, for each label, the carrier of its child slots."""

    labels: Carrier
    arities: tuple[Carrier, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "arities", tuple(self.arities))
        if len(self.arities) != len(self.labels):
            raise ValueError(
                f"{len(self.labels)} labels but {len(self.arities)} arity entries"
            )
        owner: dict[str, str] = {}
        for label, slots in zip(self.labels.names, self.arities):
            for slot in slots.names:
                if slot in owner:
                    raise DuplicateName(
                        f"slot {slot!r} appears under both {owner[slot]!r} and {label!r}"
                    )
                owner[slot] = label

    @classmethod
    def of(cls, arity: Mapping[str, Iterable[str]]) -> "Signature":
        """Build a signature from an ordered label -> slots mapping."""
        labels = Carrier(tuple(arity))
        return cls(labels, tuple(Carrier(tuple(slots)) for slots in arity.values()))

    def arity(self, label: str) -> Carrier:
        return self.arities[self.labels.index(label)]

    def nullary_labels(self) -> tuple[str, ...]:
        return tuple(l for l, a in zip(self.labels.names, self.arities) if len(a) == 0)


@dataclass(frozen=True, slots=True)
class WTree:
    """A tree node: a label and its children in slot order."""

    label: str
    children: tuple["WTree", ...] = ()


def check_keys(head: str, noun: str, expected: Collection[str], given: Mapping[str, object]) -> None:
    """Raise ArityMismatch("<head>: missing <noun> [...], unexpected
    <noun> [...]") unless given has exactly the keys in expected."""
    missing = [k for k in expected if k not in given]
    extra = [k for k in given if k not in expected]
    if missing or extra:
        parts = [f"{what} {noun} {keys}" for what, keys in (("missing", missing), ("unexpected", extra)) if keys]
        raise ArityMismatch(f"{head}: " + ", ".join(parts))


def sup(sig: Signature, label: str, children: Mapping[str, WTree]) -> WTree:
    """Build a node, checking the children against the label's slots."""
    slots = sig.arity(label)
    check_keys(f"node {label!r}", "slots", slots, children)
    return WTree(label, tuple(children[s] for s in slots.names))


def _checked_children(sig: Signature, node: WTree) -> tuple[WTree, ...]:
    slots = sig.arity(node.label)  # raises UnknownElement for foreign labels
    if len(node.children) != len(slots):
        raise ArityMismatch(
            f"node {node.label!r} has {len(node.children)} children, expects {len(slots)}"
        )
    return node.children


def share_fold(
    root: N, step: Callable[[N, list[R]], R], children: Callable[[N], Sequence[N]] = attrgetter("children")
) -> R:
    """step(x, results of x's children) once per node object x, by
    identity, children first, so a shared node is folded once.
    children(x), whose nodes must live as long as root, is called once
    per node in preorder of first occurrence: a check it makes fires
    where a positional walk would fire it first."""
    done: dict[int, R] = {}
    stack: list[tuple[N, Sequence[N] | None]] = [(root, None)]
    while stack:
        x, kids = stack.pop()
        if kids is not None:  # every child is done
            done[id(x)] = step(x, [done[id(c)] for c in kids])
        elif id(x) not in done:
            kids = children(x)
            stack.append((x, kids))
            for c in reversed(kids):
                stack.append((c, None))
    return done[id(root)]


def fold(sig: Signature, tree: WTree, step: Callable[[str, dict[str, R]], R]) -> R:
    """Structural recursion: combine each node from its children's results.

    step receives the node label and a dict mapping slot names to the
    results already computed for the children. It is called exactly
    once per tree position, bottom-up: a shared node once per position.
    """
    stack = [(tree, False)]
    results: list[R] = []
    while stack:
        node, ready = stack.pop()
        if ready:  # its children's results are the last ones
            k = len(results) - len(node.children)
            child_results = results[k:]
            del results[k:]
            slots = sig.arity(node.label).names
            results.append(step(node.label, dict(zip(slots, child_results))))
        else:
            stack.append((node, True))
            stack.extend((child, False) for child in reversed(_checked_children(sig, node)))
    return results[0]


def subtrees(tree: WTree) -> list[WTree]:
    """All subtrees in preorder, the tree itself first.

    One entry per tree position, so a node shared by several parents
    appears once per position; see distinct_nodes for the shared form.
    """
    out: list[WTree] = []
    stack = [tree]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(reversed(node.children))
    return out


def distinct_nodes(tree: WTree) -> list[WTree]:
    """Each node object of the tree once, by identity, children first."""
    out: list[WTree] = []
    share_fold(tree, lambda node, _: out.append(node))
    return out


def node_count(tree: WTree) -> int:
    """The number of tree positions, shared nodes counted once per position."""
    return share_fold(tree, lambda _, sizes: 1 + sum(sizes))


def depth(tree: WTree) -> int:
    """Height of the tree; a leaf has depth 1."""
    return share_fold(tree, lambda _, heights: 1 + max(heights, default=0))


def validate(sig: Signature, tree: WTree) -> bool:
    """True when every node's label exists and its child count matches."""
    for node in distinct_nodes(tree):
        if node.label not in sig.labels or len(node.children) != len(sig.arity(node.label)):
            return False
    return True


def random_tree(sig: Signature, rng: Random, max_depth: int = 6) -> WTree:
    """Sample a tree, biasing toward nullary labels as depth grows."""
    nullary = sig.nullary_labels()
    if not nullary:
        raise EmptyWType("every label has child slots, so there are no trees")

    def gen(d: int) -> WTree:
        if d + 1 >= max_depth or rng.random() < d / max_depth:
            label = nullary[rng.randrange(len(nullary))]
        else:
            label = sig.labels.names[rng.randrange(len(sig.labels))]
        slots = sig.arity(label)
        return WTree(label, tuple(gen(d + 1) for _ in slots.names))

    return gen(0)


def signature_to_json(sig: Signature) -> dict:
    return {
        "labels": list(sig.labels.names),
        "arity": {l: list(a.names) for l, a in zip(sig.labels.names, sig.arities)},
    }


def signature_from_json(data: dict) -> Signature:
    labels = Carrier(tuple(data["labels"]))
    arity = data["arity"]
    for label in labels.names:
        if label not in arity:
            raise UnknownElement(f"no arity entry for label {label!r}")
    return Signature(labels, tuple(Carrier(tuple(arity[l])) for l in labels.names))


def tree_to_json(sig: Signature, tree: WTree) -> dict:
    """{"label": l, "children": {slot: child}}, nodes checked in preorder.
    A node the tree shares gives one shared dict; the document is == to
    the expanded one and serializes to the same text."""

    def step(node: WTree, children: list[dict]) -> dict:
        return {"label": node.label, "children": dict(zip(sig.arity(node.label).names, children))}

    return share_fold(tree, step, partial(_checked_children, sig))


def tree_from_json(sig: Signature, data: dict) -> WTree:
    """The tree a tree_to_json document describes; each node is built
    with sup once its children are, as a recursive reading would. A
    node's shape is checked on the way down: a node or "children" that
    is not an object, or a "label" that is missing or not a string,
    raises SchemaError. A dict the document shares gives one shared node."""

    def children(node: dict) -> list[dict]:
        if not (
            isinstance(node, dict) and isinstance(node.get("label"), str) and isinstance(node.get("children", {}), dict)
        ):
            raise SchemaError("a tree node must be an object with a string 'label' and an object 'children'")
        return list(node.get("children", {}).values())

    def step(node: dict, trees: list[WTree]) -> WTree:
        return sup(sig, node["label"], dict(zip(node.get("children", {}), trees)))

    return share_fold(data, step, children)


def tree_to_dot(sig: Signature, tree: WTree) -> str:
    """Graphviz rendering with stable preorder node ids."""
    return _dot("wtree", tree, lambda n: ("", n.label, list(zip(sig.arity(n.label).names, n.children))))


def _dot(name: str, root: WTree, describe: Callable[[WTree], tuple[str, str, list[tuple[str, WTree]]]]) -> str:
    """A Graphviz digraph with one node per tree position, numbered in
    preorder. describe(node) gives the node's attributes before its
    label, its label text, and its (edge label, child) pairs in order."""
    nodes: list[str] = []
    edges: list[str] = []
    stack: list[tuple[WTree, int | None, str]] = [(root, None, "")]
    while stack:
        node, parent, via = stack.pop()
        me = len(nodes)
        attrs, text, out = describe(node)
        nodes.append(f'  n{me} [{attrs}label="{_dot_escape(text)}"];')
        if parent is not None:
            edges.append(f'  n{parent} -> n{me} [label="{_dot_escape(via)}"];')
        for edge, child in reversed(out):
            stack.append((child, me, edge))
    return "\n".join([f"digraph {name} {{", *nodes, *edges, "}"]) + "\n"


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


__all__ = [
    "Signature",
    "WTree",
    "sup",
    "fold",
    "subtrees",
    "share_fold",
    "distinct_nodes",
    "node_count",
    "depth",
    "validate",
    "random_tree",
    "signature_to_json",
    "signature_from_json",
    "tree_to_json",
    "tree_from_json",
    "tree_to_dot",
]
