"""Well-founded trees over a branching signature.

A signature assigns to every label a carrier of slot names; a tree
node carries a label and one child per slot of that label. Because
children are finite tuples, every tree is finite and structural
recursion (fold) terminates. A signature with no nullary label has no
trees at all.

Slot names must be globally distinct across labels so that a slot name
alone identifies its position; consumers such as the derivation engine
rely on this to attach meaning to slots without parsing names.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from random import Random
from typing import Callable, Iterable, Mapping, TypeVar

from .errors import ArityMismatch, DuplicateName, EmptyWType, UnknownElement
from .finite import Carrier

R = TypeVar("R")


@dataclass(frozen=True)
class Signature:
    """Labels plus, for each label, the carrier of its child slots."""

    labels: Carrier
    arities: tuple[Carrier, ...]
    _slot_owner: dict[str, str] = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_slot_owner", owner)

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


def sup(sig: Signature, label: str, children: Mapping[str, WTree]) -> WTree:
    """Build a node, checking the children against the label's slots."""
    slots = sig.arity(label)
    missing = [s for s in slots.names if s not in children]
    extra = [s for s in children if s not in slots]
    if missing or extra:
        parts = []
        if missing:
            parts.append(f"missing slots {missing}")
        if extra:
            parts.append(f"unexpected slots {extra}")
        raise ArityMismatch(f"node {label!r}: " + ", ".join(parts))
    return WTree(label, tuple(children[s] for s in slots.names))


def _check_node(sig: Signature, node: WTree) -> None:
    slots = sig.arity(node.label)  # raises UnknownElement for foreign labels
    if len(node.children) != len(slots):
        raise ArityMismatch(
            f"node {node.label!r} has {len(node.children)} children, expects {len(slots)}"
        )


_POST = object()


def fold(sig: Signature, tree: WTree, step: Callable[[str, dict[str, R]], R]) -> R:
    """Structural recursion: combine each node from its children's results.

    step receives the node label and a dict mapping slot names to the
    results already computed for the children. It is called exactly
    once per node, bottom-up. Iterative, so deep chains are fine.
    """
    stack: list[object] = [tree]
    results: list[R] = []
    while stack:
        item = stack.pop()
        if isinstance(item, WTree):
            _check_node(sig, item)
            stack.append((_POST, item))
            stack.extend(reversed(item.children))
        else:
            node = item[1]  # type: ignore[index]
            k = len(node.children)
            if k:
                child_results = results[-k:]
                del results[-k:]
            else:
                child_results = []
            slots = sig.arity(node.label).names
            results.append(step(node.label, dict(zip(slots, child_results))))
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
    """Each node object of the tree once, by identity, children first.

    A derivation may share one subtree object among several parents;
    walking the objects instead of the positions keeps every traversal
    built on this linear in the size of the shared form.
    """
    done: set[int] = set()
    out: list[WTree] = []
    stack = [tree]
    while stack:
        node = stack[-1]
        if id(node) in done:
            stack.pop()
            continue
        pending = [c for c in node.children if id(c) not in done]
        if pending:
            stack.extend(reversed(pending))
        else:
            stack.pop()
            done.add(id(node))
            out.append(node)
    return out


def node_count(tree: WTree) -> int:
    """The number of tree positions, shared nodes counted once per position."""
    size: dict[int, int] = {}
    for node in distinct_nodes(tree):
        size[id(node)] = 1 + sum(size[id(c)] for c in node.children)
    return size[id(tree)]


def depth(tree: WTree) -> int:
    """Height of the tree; a leaf has depth 1."""
    height: dict[int, int] = {}
    for node in distinct_nodes(tree):
        height[id(node)] = 1 + max((height[id(c)] for c in node.children), default=0)
    return height[id(tree)]


def validate(sig: Signature, tree: WTree) -> bool:
    """True when every node's label exists and its child count matches."""
    for node in distinct_nodes(tree):
        if node.label not in sig.labels:
            return False
        if len(node.children) != len(sig.arity(node.label)):
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
    """{"label": l, "children": {slot: child}}, nodes checked in preorder."""
    root: dict = {}
    stack = [(tree, root)]
    while stack:
        node, out = stack.pop()
        _check_node(sig, node)
        children: dict[str, dict] = {}
        out.update(label=node.label, children=children)
        pending = []
        for slot, child in zip(sig.arity(node.label).names, node.children):
            children[slot] = child_out = {}
            pending.append((child, child_out))
        stack.extend(reversed(pending))
    return root


def tree_from_json(sig: Signature, data: dict) -> WTree:
    """The tree a tree_to_json document describes; each node is built
    with sup once its children are, as a recursive reading would."""
    built: list[WTree] = []
    stack: list[tuple] = [(data, None)]  # (node, None), then (label, children)
    while stack:
        item, children = stack.pop()
        if children is not None:  # every child is built
            k = len(children)
            trees = built[len(built) - k :]
            del built[len(built) - k :]
            built.append(sup(sig, item, dict(zip(children, trees))))
            continue
        label = item["label"]
        children = item.get("children", {})
        stack.append((label, children))
        stack.extend((child, None) for child in reversed(list(children.values())))
    return built[0]


def tree_to_dot(sig: Signature, tree: WTree) -> str:
    """Graphviz rendering with stable preorder node ids."""
    nodes: list[str] = []
    edges: list[str] = []
    stack: list[tuple[WTree, int | None, str | None]] = [(tree, None, None)]
    count = 0
    while stack:
        node, parent, slot = stack.pop()
        me = count
        count += 1
        nodes.append(f'  n{me} [label="{_dot_escape(node.label)}"];')
        if parent is not None:
            edges.append(f'  n{parent} -> n{me} [label="{_dot_escape(str(slot))}"];')
        slots = sig.arity(node.label).names
        for s, c in reversed(list(zip(slots, node.children))):
            stack.append((c, me, s))
    return "\n".join(["digraph wtree {", *nodes, *edges, "}"]) + "\n"


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


__all__ = [
    "Signature",
    "WTree",
    "sup",
    "fold",
    "subtrees",
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
