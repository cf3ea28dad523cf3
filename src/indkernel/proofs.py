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
pass behind closure (inddef); a synthesized proof shares one node per
element. ass, is_proof and the JSON writer and reader visit each node
object once (wtree.share_fold); render_proof and proof_to_dot write one
line or node per tree position. No walk recurses. Every walk reads a
label's rule, conclusion and premises from the signature's decoder,
which reads them off the definition's columns once per label and
signature; compactness_basis decodes each mask once. Subset is the
type of arguments and results.

Depth conventions: a leaf has depth 1, and so has the node of a
premise-free rule. An element that first appears at stage k of the
closure has a proof of depth at most k + 1, so depth |carrier| + 1 is
always enough; depth d reaches stage d - 1 of u plus the conclusions
of the premise-free rules.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Mapping

from .errors import SchemaError, UnknownElement
from .finite import Carrier, Subset, members
from .inddef import InductiveDefinition, _check_seed, _staged_pass, closure_stages
from .wtree import Signature, WTree, _dot, check_keys, share_fold

RULE = "rule"
ASSUME = "assume"


class ProofSignature:
    """The branching signature for derivations over one rule system.

    labels: one per rule (named "rule0", "rule1", ... and freshened with
    underscores past the element names: rule labels differ in their
    digits), then one per carrier element, in declaration order. A rule
    label's slots are named "<rulelabel>.<premise>" and target that
    premise, in premise index order; an element label has no slots.
    kind_of and slot_target expose this structure so no caller ever
    parses a label or slot name.

    The signature stores only phi and reads the rest off its columns on
    demand: each label once (_decode), sig and the slots on first read.
    """

    def __init__(self, phi: InductiveDefinition):
        self.phi = phi

    def rule_label(self, index: int) -> str:
        """The label of rule #index."""
        label = f"rule{index}"
        while label in self.phi.carrier._index:
            label += "_"
        return label

    @cached_property
    def rule_labels(self) -> tuple[str, ...]:
        return tuple(map(self.rule_label, range(len(self.phi._masks))))

    def _premise_names(self, index: int) -> tuple[str, ...]:
        """The premises of rule #index, in slot order."""
        names = self.phi.carrier.names
        return tuple(names[b] for b in members(self.phi._masks[index]))

    _decoded = cached_property(lambda self: {})  # label -> what _decode read off it

    def _decode(self, label: str) -> tuple[int | None, str, tuple[str, ...]]:
        """(rule index, conclusion, premises) of a rule label, (None, element,
        ()) of an element label, kept once read; any other label is unknown."""
        entry = self._decoded.get(label) if isinstance(label, str) else None  # a non-str may be unhashable
        if entry is None:
            phi = self.phi
            digits = label[4:].rstrip("_") if isinstance(label, str) and label.startswith("rule") else ""
            # decimal digits no longer than the largest index before int() reads them
            i = int(digits) if digits.isdecimal() and len(digits) <= len(str(len(phi._masks))) else len(phi._masks)
            if isinstance(label, str) and label in phi.carrier._index:
                entry = None, label, ()
            elif i < len(phi._masks) and self.rule_label(i) == label:  # the inverse of rule_label
                entry = i, phi.carrier.names[phi._conclusion_index[i]], self._premise_names(i)
            else:
                raise UnknownElement(f"{label!r} is not a label of this signature")
            self._decoded[label] = entry
        return entry

    @cached_property
    def _slots(self) -> tuple[Signature, dict[str, str]]:
        """(signature, slot -> premise)."""
        arities = []
        slot_target: dict[str, str] = {}
        for i, label in enumerate(self.rule_labels):
            slots = {f"{label}.{premise}": premise for premise in self._premise_names(i)}
            slot_target.update(slots)
            arities.append(Carrier(tuple(slots)))
        arities += [Carrier(())] * len(self.phi.carrier)
        return Signature(Carrier(self.rule_labels + self.phi.carrier.names), tuple(arities)), slot_target

    @property
    def sig(self) -> Signature:
        """The tree signature: labels and, per label, its slot carrier."""
        return self._slots[0]

    def kind_of(self, label: str) -> tuple[str, object]:
        """(RULE, rule index) or (ASSUME, element name) for a label: the
        inverse of rule_label on rule labels."""
        index, conclusion, _ = self._decode(label)
        return (ASSUME, conclusion) if index is None else (RULE, index)

    def slot_target(self, slot: str) -> str:
        """The premise element a rule node's slot must conclude."""
        return self._slots[1][slot]

    def assumption(self, element: str) -> WTree:
        """The leaf that assumes one carrier element."""
        self.phi.carrier.index(element)
        return WTree(element, ())

    def rule_app(self, index: int, children: Mapping[str, WTree]) -> WTree:
        """Apply rule #index to children keyed by premise name."""
        if not 0 <= index < len(self.phi._masks):
            raise UnknownElement(f"rule {index} is not a rule of this signature")
        premises = self._premise_names(index)
        check_keys(f"rule {index}", "premises", premises, children)
        return WTree(self.rule_label(index), tuple(children[p] for p in premises))


@lru_cache(maxsize=256)
def build_proof_signature(phi: InductiveDefinition) -> ProofSignature:
    """The derivation signature of a rule system (cached per system)."""
    return ProofSignature(phi)


def _entry(psig: ProofSignature, node: object) -> tuple[int | None, str, tuple[str, ...]]:
    """psig._decode of a node's label; a node that is not a tree is unknown."""
    if not isinstance(node, WTree):
        raise UnknownElement(f"{node!r} is not a tree")
    return psig._decode(node.label)


def _children(node: object) -> tuple:
    """A node's children; one that is not a tree has none, and _entry rejects it."""
    return node.children if isinstance(node, WTree) else ()


def conc(psig: ProofSignature, w: WTree) -> str:
    """The conclusion of a derivation: the root's element, or its rule's."""
    return _entry(psig, w)[1]


def ass(psig: ProofSignature, w: WTree) -> Subset:
    """The assumption set: the union of {s} over all assumption leaves.

    Rule nodes contribute nothing of their own, so the recursive union
    flattens to a scan over the assumption-labeled nodes, each shared
    node visited once.
    """
    assumed: list[str] = []

    def step(node: WTree, _: list) -> None:
        index, element, _ = _entry(psig, node)
        if index is None:
            assumed.append(element)

    share_fold(w, step, _children)
    return Subset.from_names(psig.phi.carrier, assumed)


def is_proof(psig: ProofSignature, w: WTree) -> bool:
    """True when the tree and all its subtrees are well-formed.

    Well-formed at a rule node: the child sitting in the slot for
    premise b concludes exactly b. Assumption leaves are always
    well-formed. Total: any other tree, foreign labels and children that
    are not trees included, gives False. Each shared node is checked once.
    """

    def step(node: WTree, conclusions: list[str | None]) -> str | None:  # None: ill-formed here or below
        try:
            _, conclusion, premises = _entry(psig, node)
        except UnknownElement:
            return None
        return conclusion if tuple(conclusions) == premises else None

    return share_fold(w, step, _children) is not None


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
    for k, arrived in enumerate([members(u.bits), *rounds]):
        for x in arrived:
            stage[x] = k

    chosen: dict[int, tuple[int, list[int]] | None] = {}
    todo = [gi]
    while todo:
        x = todo.pop()
        if x in chosen:
            continue
        chosen[x] = None  # stays None for the stage-0 elements, those of u
        for ri in phi._by_conclusion[x] if stage[x] else ():
            premises = members(phi._masks[ri])
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
    label = build_proof_signature(phi).rule_label
    built: dict[int, WTree] = {}
    for x, choice in chosen.items():
        if choice is None:
            built[x] = WTree(phi.carrier.names[x])
        else:
            built[x] = WTree(label(choice[0]), tuple(built[b] for b in choice[1]))
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
    for mask, ci in zip(phi._masks, phi._conclusion_index):
        if not mask:
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
    Computed by dynamic programming over depth: reach[x] holds the
    assumption bitmasks of derivations concluding x. The sets only grow
    with depth, so each round is semi-naive: it recombines only the
    rules with a premise whose set grew in the round before, and only
    the combinations that take one of those new masks. A round that
    adds nothing is the fixpoint.
    """
    n = len(phi.carrier)
    reach: list[set[int]] = [{1 << x} for x in range(n)]  # depth 1: the leaves
    watchers: list[list[int]] = [[] for _ in range(n)]
    premise_index = [members(m) for m in phi._masks]
    for ri, (rule_premises, ci) in enumerate(zip(premise_index, phi._conclusion_index)):
        if not rule_premises:
            reach[ci].add(0)
        for b in rule_premises:
            watchers[b].append(ri)
    last: dict[int, set[int]] = {x: set(masks) for x, masks in enumerate(reach)}
    for _ in range(n):  # depths 2 .. n + 1
        gained: dict[int, set[int]] = {}
        for ri in {ri for b in last for ri in watchers[b]}:
            premises = premise_index[ri]
            ci = phi._conclusion_index[ri]
            for i, b in enumerate(premises):
                if b not in last:
                    continue
                # a new mask at premise i, any mask before it, an old one after it
                combos = {0}
                for j, other in enumerate(premises):
                    if j < i:
                        pool = reach[other]
                    elif j == i:
                        pool = last[other]
                    else:
                        pool = reach[other] - last.get(other, set())
                    combos = {c | o for c in combos for o in pool}
                combos -= reach[ci]
                if combos:
                    gained.setdefault(ci, set()).update(combos)
        if not gained:
            break
        for x, masks in gained.items():  # only now: depth d reads depth d - 1
            reach[x] |= masks
        last = gained
    return frozenset(Subset(phi.carrier, m) for m in set().union(*reach))


def proof_to_json(psig: ProofSignature, w: WTree) -> dict:
    """Schema: {"kind": "assume", "element": s} for leaves,
    {"kind": "rule", "rule": i, "children": {premise: node}} otherwise.
    A node the proof shares gives one shared dict; the document is ==
    to the expanded one and serializes to the same text."""

    def step(node: WTree, docs: list[dict]) -> dict:
        index, conclusion, premises = psig._decode(node.label)
        if index is None:
            return {"kind": "assume", "element": conclusion}
        return {"kind": "rule", "rule": index, "children": dict(zip(premises, docs))}

    return share_fold(w, step, lambda node: _children(node)[: len(_entry(psig, node)[2])])


def proof_from_json(psig: ProofSignature, data: dict) -> WTree:
    """The derivation a proof_to_json document describes, each node
    checked as a recursive reading would check it: its shape (else
    SchemaError) and kind on the way down, its rule application once
    its children are built. A dict the document shares gives one shared
    node."""

    def children(node: dict) -> list[dict]:
        if not isinstance(node, dict):
            raise SchemaError("a proof node must be an object")
        kind = node.get("kind")
        if kind not in ("rule", "assume"):
            raise UnknownElement(f"unknown node kind {kind!r}")
        if kind == "assume" and not isinstance(node.get("element"), str):
            raise SchemaError("an assume node's 'element' must be a string")
        if kind == "rule" and (type(node.get("rule")) is not int or not isinstance(node.get("children", {}), dict)):
            raise SchemaError("a rule node's 'rule' must be an integer (not a bool) and its 'children' an object")
        return list(node.get("children", {}).values()) if kind == "rule" else []

    def step(node: dict, trees: list[WTree]) -> WTree:
        if node["kind"] == "assume":
            return psig.assumption(node["element"])
        return psig.rule_app(node["rule"], dict(zip(node.get("children", {}), trees)))

    return share_fold(data, step, children)


def proof_to_dot(psig: ProofSignature, w: WTree) -> str:
    """Graphviz rendering: every node annotated with its conclusion,
    assumption leaves drawn as boxes."""

    def describe(node: WTree) -> tuple[str, str, list[tuple[str, WTree]]]:
        index, conclusion, premises = _entry(psig, node)
        if index is None:
            return "shape=box, ", conclusion, []
        return "", f"{node.label} => {conclusion}", list(zip(premises, node.children))

    return _dot("proof", w, describe)


def render_proof(psig: ProofSignature, w: WTree) -> str:
    """Plain-text rendering for terminals, one node per line, each
    child indented two spaces more than its parent."""
    texts: dict[str, str] = {}  # label -> its line, built once per call
    lines: list[str] = []
    stack = [(w, "")]
    while stack:
        node, pad = stack.pop()
        try:
            text = texts[node.label]
        except (AttributeError, KeyError, TypeError):  # a label not met yet, or no tree
            index, conclusion, premises = _entry(psig, node)
            how = "assumed" if index is None else f"{node.label}: {{{', '.join(premises)}}} -> {conclusion}"
            text = texts[node.label] = f"{conclusion}  [{how}]"
        lines.append(pad + text)
        pad += "  "
        for child in reversed(node.children):
            stack.append((child, pad))
    return "\n".join(lines)
