"""Derivations for rule systems, as well-founded trees.

Every rule system gets a tree signature with one label per rule and
one label per carrier element. An element label is nullary and stands
for assuming that element outright. A rule label has one child slot
per premise, and a node with that label stands for applying the rule.

A tree over this signature is a derivation (a "proof") when it is
well-formed everywhere: each rule node's child for premise b must
conclude exactly b. conc reads off the conclusion at the root, ass
collects the assumed elements at the leaves. The payoff is finitary
compactness, made executable here:

  * goal ∈ closure(phi, u) iff some proof concludes goal from
    assumptions inside u (synthesize_proof / characterize);
  * the witness of that membership is the finite assumption set of
    one such proof (witness), and all witnesses live in one fixed
    finite family that depends only on phi (compactness_basis).

synthesize_proof, witness and characterize read the staged counting
pass behind closure (inddef). They, render_proof and proof_to_json use
explicit stacks, so proof depth is not bounded by the Python stack.

Depth conventions: a leaf has depth 1, and so has the node of a
premise-free rule. An element that first appears at stage k of the
closure has a proof of depth at most k + 1, so depth |carrier| + 1 is
always enough; depth d reaches stage d - 1 of u plus the conclusions
of the premise-free rules.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping

from .errors import ArityMismatch, UnknownElement
from .finite import Carrier, Subset
from .inddef import InductiveDefinition, _check_seed, _members, _staged_pass, closure_stages
from .wtree import Signature, WTree, subtrees, sup, validate

RULE = "rule"
ASSUME = "assume"


class ProofSignature:
    """The branching signature for derivations over one rule system.

    labels: one per rule (named "rule0", "rule1", ... and freshened if
    an element uses such a name), then one per carrier element, in
    declaration order. A rule label's slots are named
    "<rulelabel>.<premise>" and target that premise; an element label
    has no slots. kind_of and slot_target expose this structure so no
    caller ever parses a label or slot name.
    """

    def __init__(self, phi: InductiveDefinition):
        self.phi = phi
        carrier = phi.carrier
        taken = set(carrier.names)
        rule_labels = []
        for i in range(len(phi.rules)):
            label = f"rule{i}"
            while label in taken:
                label += "_"
            taken.add(label)
            rule_labels.append(label)
        self.rule_labels: tuple[str, ...] = tuple(rule_labels)

        labels = Carrier(self.rule_labels + carrier.names)
        arities = []
        slot_target: dict[str, str] = {}
        slot_of: list[dict[str, str]] = []
        for label, rule in zip(self.rule_labels, phi.rules):
            slots = []
            per_premise: dict[str, str] = {}
            for premise in rule.premises.names():
                slot = f"{label}.{premise}"
                slots.append(slot)
                slot_target[slot] = premise
                per_premise[premise] = slot
            arities.append(Carrier(tuple(slots)))
            slot_of.append(per_premise)
        empty = Carrier(())
        arities.extend(empty for _ in carrier.names)

        self.sig = Signature(labels, tuple(arities))
        self._slot_target = slot_target
        self._slot_of_rule = tuple(slot_of)
        self._kind: dict[str, tuple[str, object]] = {}
        for i, label in enumerate(self.rule_labels):
            self._kind[label] = (RULE, i)
        for name in carrier.names:
            self._kind[name] = (ASSUME, name)

    def kind_of(self, label: str) -> tuple[str, object]:
        """(RULE, rule index) or (ASSUME, element name) for a label."""
        try:
            return self._kind[label]
        except KeyError:
            raise UnknownElement(f"{label!r} is not a label of this signature") from None

    def slot_target(self, slot: str) -> str:
        """The premise element a rule node's slot must conclude."""
        return self._slot_target[slot]

    def assumption(self, element: str) -> WTree:
        """The leaf that assumes one carrier element."""
        self.phi.carrier.index(element)
        return WTree(element, ())

    def rule_app(self, index: int, children: Mapping[str, WTree]) -> WTree:
        """Apply rule #index to children keyed by premise name."""
        by_premise = self._slot_of_rule[index]
        extra = [p for p in children if p not in by_premise]
        missing = [p for p in by_premise if p not in children]
        if extra or missing:
            parts = []
            if missing:
                parts.append(f"missing premises {missing}")
            if extra:
                parts.append(f"unexpected premises {extra}")
            raise ArityMismatch(f"rule {index}: " + ", ".join(parts))
        return sup(
            self.sig,
            self.rule_labels[index],
            {by_premise[p]: t for p, t in children.items()},
        )


@lru_cache(maxsize=256)
def build_proof_signature(phi: InductiveDefinition) -> ProofSignature:
    """The derivation signature of a rule system (cached per system)."""
    return ProofSignature(phi)


def conc(psig: ProofSignature, w: WTree) -> str:
    """The conclusion of a derivation, by case distinction on the root."""
    kind, payload = psig.kind_of(w.label)
    if kind == ASSUME:
        return payload  # type: ignore[return-value]
    return psig.phi.rules[payload].conclusion  # type: ignore[index]


def ass(psig: ProofSignature, w: WTree) -> Subset:
    """The assumption set: the union of {s} over all assumption leaves.

    Rule nodes contribute nothing of their own, so the recursive union
    flattens to a scan over the tree's assumption-labeled nodes.
    """
    carrier = psig.phi.carrier
    bits = 0
    for node in subtrees(w):
        kind, payload = psig.kind_of(node.label)
        if kind == ASSUME:
            bits |= 1 << carrier.index(payload)  # type: ignore[arg-type]
    return Subset(carrier, bits)


def is_proof(psig: ProofSignature, w: WTree) -> bool:
    """True when the tree and all its subtrees are well-formed.

    Well-formed at a rule node: the child sitting in the slot for
    premise b concludes exactly b. Assumption leaves are always
    well-formed. Total: structurally invalid trees return False.
    """
    if not validate(psig.sig, w):
        return False
    for node in subtrees(w):
        kind, _ = psig.kind_of(node.label)
        if kind == RULE:
            slots = psig.sig.arity(node.label).names
            for slot, child in zip(slots, node.children):
                if conc(psig, child) != psig.slot_target(slot):
                    return False
    return True


def _derivation(
    phi: InductiveDefinition, u: Subset, goal: str
) -> dict[int, tuple[int, list[int]] | None] | None:
    """The choices behind the synthesized derivation of goal, or None.

    Maps each element the derivation uses to None when it is assumed
    from u, else to (rule index, premise indices) for the first rule in
    declaration order that concludes it from elements of earlier
    stages. Keys run in stage order: premises first, goal last.
    """
    gi = phi.carrier.index(goal)
    _check_seed(phi, u)
    bits, rounds = _staged_pass(phi, u.bits)
    if not (bits >> gi) & 1:
        return None
    n = len(phi.carrier)
    stage = [n + 1] * n  # n + 1: outside the closure
    for k, arrived in enumerate([_members(u.bits), *rounds]):
        for x in arrived:
            stage[x] = k
    by_conclusion: list[list[int]] = [[] for _ in range(n)]
    for ri, ci in enumerate(phi._conclusion_index):
        by_conclusion[ci].append(ri)

    chosen: dict[int, tuple[int, list[int]] | None] = {}
    todo = [gi]
    while todo:
        x = todo.pop()
        if x in chosen:
            continue
        chosen[x] = None  # stays None for the stage-0 elements, those of u
        for ri in by_conclusion[x] if stage[x] else ():
            premises = _members(phi.rules[ri].premises.bits)
            if all(stage[b] < stage[x] for b in premises):
                chosen[x] = (ri, premises)
                todo.extend(premises)
                break
    return {x: chosen[x] for x in sorted(chosen, key=stage.__getitem__)}


def synthesize_proof(phi: InductiveDefinition, u: Subset, goal: str) -> WTree | None:
    """A derivation of goal from assumptions within u, or None.

    Deterministic: elements assumed from u are proved by their leaf;
    anything else uses the first rule (in declaration order) whose
    premises are all present one stage earlier, and its node is shared
    wherever it is a premise. The result has depth at most 1 + the
    stage at which goal first appears.
    """
    chosen = _derivation(phi, u, goal)
    if chosen is None:
        return None
    labels = build_proof_signature(phi).rule_labels
    built: dict[int, WTree] = {}
    for x, choice in chosen.items():
        if choice is None:
            built[x] = WTree(phi.carrier.names[x])
        else:
            built[x] = WTree(labels[choice[0]], tuple(built[b] for b in choice[1]))
    return built[phi.carrier.index(goal)]


def characterize(phi: InductiveDefinition, u: Subset, depth: int) -> Subset:
    """Conclusions of derivations of bounded depth with assumptions in u.

    Depth d is stage d - 1 of u plus the conclusions of premise-free
    rules (whose nodes are depth-1 leaves). At depth |carrier| + 1 this
    equals closure(phi, u).
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    _check_seed(phi, u)
    if depth == 0:
        return Subset.empty(phi.carrier)
    level1 = u.bits
    for rule, ci in zip(phi.rules, phi._conclusion_index):
        if not rule.premises.bits:
            level1 |= 1 << ci
    stages = closure_stages(phi, Subset(phi.carrier, level1))
    return stages[min(depth, len(stages)) - 1]


def witness(phi: InductiveDefinition, u: Subset, goal: str) -> Subset | None:
    """The assumption set of the synthesized derivation, or None.

    When goal ∈ closure(phi, u) this returns V ⊆ u with
    goal ∈ closure(phi, V); V always belongs to compactness_basis(phi).
    """
    chosen = _derivation(phi, u, goal)
    if chosen is None:
        return None
    return Subset(phi.carrier, sum(1 << x for x, choice in chosen.items() if choice is None))


def compactness_basis(phi: InductiveDefinition) -> frozenset[Subset]:
    """All assumption sets of derivations of depth ≤ |carrier| + 1.

    Because every closure stabilizes within |carrier| stages, every
    witness(phi, u, goal) result is a member, whatever u and goal are.
    Computed by dynamic programming over depth: reachable[x] holds the
    assumption bitmasks of derivations concluding x. The sets only grow
    with depth, so a round that adds nothing is the fixpoint.
    """
    n = len(phi.carrier)
    premises = [_members(rule.premises.bits) for rule in phi.rules]
    prev: list[set[int]] = [set() for _ in range(n)]
    for _ in range(n + 1):
        cur: list[set[int]] = [{1 << x} for x in range(n)]
        for rule_premises, ci in zip(premises, phi._conclusion_index):
            combos = {0}
            for b in rule_premises:
                options = prev[b]
                if not options:
                    break
                combos = {c | o for c in combos for o in options}
            else:
                cur[ci] |= combos
        if cur == prev:
            break
        prev = cur
    masks: set[int] = set()
    for per_element in prev:
        masks |= per_element
    return frozenset(Subset(phi.carrier, m) for m in masks)


def proof_to_json(psig: ProofSignature, w: WTree) -> dict:
    """Schema: {"kind": "assume", "element": s} for leaves,
    {"kind": "rule", "rule": i, "children": {premise: node}} otherwise."""
    root: dict = {}
    stack = [(w, root)]
    while stack:
        node, out = stack.pop()
        kind, payload = psig.kind_of(node.label)
        if kind == ASSUME:
            out.update(kind="assume", element=payload)
            continue
        children: dict[str, dict] = {}
        out.update(kind="rule", rule=payload, children=children)
        for slot, child in zip(psig.sig.arity(node.label).names, node.children):
            children[psig.slot_target(slot)] = child_out = {}
            stack.append((child, child_out))
    return root


def proof_from_json(psig: ProofSignature, data: dict) -> WTree:
    kind = data.get("kind")
    if kind == "assume":
        return psig.assumption(data["element"])
    if kind == "rule":
        children = {
            premise: proof_from_json(psig, node)
            for premise, node in data.get("children", {}).items()
        }
        return psig.rule_app(int(data["rule"]), children)
    raise UnknownElement(f"unknown node kind {kind!r}")


def proof_to_dot(psig: ProofSignature, w: WTree) -> str:
    """Graphviz rendering: every node annotated with its conclusion,
    assumption leaves drawn as boxes."""
    nodes: list[str] = []
    edges: list[str] = []
    stack: list[tuple[WTree, int | None, str | None]] = [(w, None, None)]
    count = 0
    while stack:
        node, parent, via = stack.pop()
        me = count
        count += 1
        kind, payload = psig.kind_of(node.label)
        if kind == ASSUME:
            nodes.append(f'  n{me} [shape=box, label="{_esc(str(payload))}"];')
        else:
            text = f"{node.label} => {conc(psig, node)}"
            nodes.append(f'  n{me} [label="{_esc(text)}"];')
        if parent is not None:
            edges.append(f'  n{parent} -> n{me} [label="{_esc(str(via))}"];')
        if kind == RULE:
            slots = psig.sig.arity(node.label).names
            for slot, child in reversed(list(zip(slots, node.children))):
                stack.append((child, me, psig.slot_target(slot)))
    return "\n".join(["digraph proof {", *nodes, *edges, "}"]) + "\n"


def render_proof(psig: ProofSignature, w: WTree, indent: str = "") -> str:
    """Plain-text rendering for terminals, one node per line."""
    texts: dict[str, str] = {}  # label -> its line, built once per call
    lines: list[str] = []
    stack = [(w, indent)]
    while stack:
        node, pad = stack.pop()
        text = texts.get(node.label)
        if text is None:
            kind, payload = psig.kind_of(node.label)
            if kind == ASSUME:
                text = f"{payload}  [assumed]"
            else:
                rule = psig.phi.rules[payload]  # type: ignore[index]
                text = f"{rule.conclusion}  [{node.label}: {rule.premises} -> {rule.conclusion}]"
            texts[node.label] = text
        lines.append(pad + text)
        pad += "  "
        for child in reversed(node.children):
            stack.append((child, pad))
    return "\n".join(lines)


def _esc(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')
