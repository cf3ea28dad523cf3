"""Independent reference implementations used to check derived values.

Everything here is deliberately brute force and shares no code with
the engine paths it checks: proofs are enumerated as plain nested
tuples, least fixed points are found by scanning all subsets,
surjections are enumerated as raw tables and quotiented afterwards
(or, canonically, by filtering every tuple of fiber sizes), square
and family conditions are decided by searching every canonical
surjection for a witness, subset members are read by scanning the
whole carrier, preimages, onto checks and pullback pairs by scanning
a map's whole table (once per codomain element or per pair), rule-file lines are tokenized one character at a time
and whole rule files are read from those tokens, assumption sets are
recombined from every rule in every round, and trees are folded by
plain recursion over every position. Only usable at tiny sizes.
"""

from __future__ import annotations

import re
from itertools import product

from indkernel.finite import Carrier, FinMap, Subset, compose
from indkernel.inddef import InductiveDefinition
from indkernel.proofs import ProofSignature
from indkernel.squares import Square, SurjectionFamily
from indkernel.wtree import WTree


def enumerate_proof_shapes(phi: InductiveDefinition, max_depth: int) -> set[tuple]:
    """All derivations of depth <= max_depth, as nested tuples.

    A shape is ("assume", s) or ("rule", i, (child per premise, in
    premise declaration order)). S(d) = assumptions plus every rule
    application over S(d-1). Grows explosively; keep phi tiny.
    """
    names = phi.carrier.names
    prev: set[tuple] = set()
    for _ in range(max_depth):
        cur: set[tuple] = {("assume", s) for s in names}
        for i, rule in enumerate(phi.rules):
            pools = [
                [s for s in prev if shape_conc(phi, s) == b]
                for b in rule.premises.names()
            ]
            for combo in product(*pools):
                cur.add(("rule", i, tuple(combo)))
        prev = cur
    return prev


def shape_conc(phi: InductiveDefinition, shape: tuple) -> str:
    if shape[0] == "assume":
        return shape[1]
    return phi.rules[shape[1]].conclusion


def shape_ass(phi: InductiveDefinition, shape: tuple) -> frozenset[str]:
    if shape[0] == "assume":
        return frozenset((shape[1],))
    out: frozenset[str] = frozenset()
    for child in shape[2]:
        out |= shape_ass(phi, child)
    return out


def shape_depth(shape: tuple) -> int:
    if shape[0] == "assume":
        return 1
    return 1 + max((shape_depth(c) for c in shape[2]), default=0)


def shape_to_tree(psig: ProofSignature, shape: tuple) -> WTree:
    if shape[0] == "assume":
        return psig.assumption(shape[1])
    i = shape[1]
    premises = psig.phi.rules[i].premises.names()
    return psig.rule_app(
        i, {b: shape_to_tree(psig, c) for b, c in zip(premises, shape[2])}
    )


def closed_supersets(phi: InductiveDefinition, u: Subset) -> list[Subset]:
    """Every closed superset of u, by scanning all 2^|S| subsets."""
    n = len(phi.carrier)
    out = []
    for bits in range(1 << n):
        if u.bits & ~bits:
            continue
        candidate = Subset(phi.carrier, bits)
        ok = True
        for rule in phi.rules:
            if rule.premises.bits & ~bits == 0:
                if not (bits >> phi.carrier.index(rule.conclusion)) & 1:
                    ok = False
                    break
        if ok:
            out.append(candidate)
    return out


def all_surjections(domain_size: int, target: Carrier) -> list[FinMap]:
    """Every surjection from a fresh domain of the given size, raw."""
    dom = Carrier(tuple(f"e{i}" for i in range(domain_size)))
    out = []
    for table in product(range(len(target)), repeat=domain_size):
        if set(table) == set(range(len(target))):
            out.append(FinMap(dom, target, table))
    return out


def surjection_classes(domain_size: int, target: Carrier) -> set[tuple[int, ...]]:
    """Orbits of surjections under domain renaming: fiber-size tuples."""
    classes = set()
    for f in all_surjections(domain_size, target):
        sizes = tuple(f.table.count(t) for t in range(len(target)))
        classes.add(sizes)
    return classes


def fiber_size_tuples_by_product(targets: int, bound: int) -> list[tuple[int, ...]]:
    """Every (k_1 .. k_targets) with each k >= 1 and sum <= bound, in
    lexicographic order, by filtering the whole product of sizes."""
    sizes = range(1, bound - targets + 2)
    return [s for s in product(sizes, repeat=targets) if sum(s) <= bound]


def canonical_surjections(target: Carrier, bound: int, prefix: str) -> list[FinMap]:
    """One surjection onto target per fiber-size tuple, the domain
    prefix0, prefix1, ... assigned to the targets in blocks."""
    out = []
    for sizes in fiber_size_tuples_by_product(len(target), bound):
        table = tuple(t for t, k in enumerate(sizes) for _ in range(k))
        dom = Carrier(tuple(f"{prefix}{i}" for i in range(len(table))))
        out.append(FinMap(dom, target, table))
    return out


def preimages_by_scan(f: FinMap) -> dict[str, list[str]]:
    """Each codomain name with the domain names over it, in declaration
    order, by scanning the whole table once per codomain element."""
    return {a: [b for bi, b in enumerate(f.dom.names) if f.table[bi] == j] for j, a in enumerate(f.cod.names)}


def pullback_pairs_by_scan(f: FinMap, p: FinMap) -> list[tuple[str, str]]:
    """The pairs (b, c) with f(b) = p(c), by testing every pair in
    lexicographic declaration order."""
    return [(b, c) for b in f.dom.names for c in p.dom.names if f(b) == p(c)]


def least_lift(p: FinMap, q: FinMap) -> FinMap | None:
    """f with q o f = p, sending each y to the first z with q(z) = p(y)."""
    table = []
    for t in p.table:
        hits = [zi for zi, u in enumerate(q.table) if u == t]
        if not hits:
            return None
        table.append(hits[0])
    return FinMap(p.dom, q.dom, tuple(table))


def collection_report_by_search(sq: Square, bound: int, record: bool = False) -> dict:
    """The collection-square report by search: for every a and every
    canonical surjection e onto B_a, try each c over a in turn for an h
    with e o h = q on D_c, h(d) the first element of e's block over q(d)."""
    witnesses: list[dict] = []
    skipped: list[dict] = []
    for a in sq.A.names:
        fiber_b = [bi for bi, b in enumerate(sq.B.names) if sq.f(b) == a]
        position = {bi: j for j, bi in enumerate(fiber_b)}
        if len(fiber_b) > bound:
            skipped.append({"a": a, "reason": f"fiber has {len(fiber_b)} elements, bound is {bound}"})
            continue
        cs = [ci for ci in range(len(sq.C)) if sq.p(sq.C.name(ci)) == a]
        for e in canonical_surjections(Carrier(tuple(sq.B.name(bi) for bi in fiber_b)), bound, "e"):
            sizes = [e.table.count(j) for j in range(len(fiber_b))]
            found = None
            for ci in cs:
                h = {}
                for di in range(len(sq.D)):
                    if sq.g.table[di] != ci:
                        continue
                    j = position.get(sq.q.table[di])
                    if j is None:
                        break
                    h[di] = e.table.index(j)
                else:
                    found = (ci, h)
                    break
            if found is None:
                return {
                    "holds": False,
                    "bound": bound,
                    "counterexample": {
                        "a": a,
                        "fiber": [sq.B.name(bi) for bi in fiber_b],
                        "fiber_sizes": sizes,
                        "domain_size": len(e.dom),
                    },
                    "witnesses": witnesses,
                    "skipped": skipped,
                }
            if record:
                ci, h = found
                hit = {sq.q.table[di] for di in h}
                witnesses.append(
                    {
                        "a": a,
                        "fiber_sizes": sizes,
                        "c": sq.C.name(ci),
                        "h": {sq.D.name(di): e.dom.name(x) for di, x in h.items()},
                        "q_restriction_onto_fiber": hit == set(fiber_b),
                    }
                )
    return {"holds": True, "bound": bound, "counterexample": None, "witnesses": witnesses, "skipped": skipped}


def amc_family_report_by_search(fam: SurjectionFamily, bound: int, record: bool = False) -> dict:
    """The every-surjection-factors report by search: for each
    canonical p onto the base, the first member that lifts through p."""
    witnesses: list[dict] = []
    for p in canonical_surjections(fam.base, bound, "y"):
        found = None
        for i, member in enumerate(fam.members):
            lift = least_lift(member, p)
            if lift is not None:
                found = (i, lift)
                break
        surjection = {"domain": list(p.dom.names), "map": p.to_mapping()}
        if found is None:
            return {"holds": False, "bound": bound, "counterexample": surjection, "witnesses": witnesses}
        if record:
            witnesses.append({"surjection": surjection, "member": found[0], "factor": found[1].to_mapping()})
    return {"holds": True, "bound": bound, "counterexample": None, "witnesses": witnesses}


def collection_family_report_by_search(ys: list[Carrier], bound: int, record: bool = False) -> dict:
    """The indexed-refinement report by search: for each carrier Y_i and
    canonical p onto it, the first Y_i' with an f whose composite with p
    is onto Y_i, f sending the k-th element of Y_i' to the first element
    of p's block over the k-th element of Y_i and the rest to e0."""
    witnesses: list[dict] = []
    for i, target in enumerate(ys):
        if len(target) > bound:
            continue
        for p in canonical_surjections(target, bound, "e"):
            found = None
            for i2, source in enumerate(ys):
                if len(source) < len(target) or (not len(target) and len(source)):
                    continue
                table = tuple(p.table.index(k) if k < len(target) else 0 for k in range(len(source)))
                f = FinMap(source, p.dom, table)
                if set(compose(p, f).table) == set(range(len(target))):
                    found = (i2, f)
                    break
            surjection = {"domain": list(p.dom.names), "map": p.to_mapping()}
            if found is None:
                return {
                    "holds": False,
                    "bound": bound,
                    "counterexample": {"index": i, **surjection},
                    "witnesses": witnesses,
                }
            if record:
                witnesses.append(
                    {"index": i, "surjection": surjection, "refining_index": found[0], "factor": found[1].to_mapping()}
                )
    return {"holds": True, "bound": bound, "counterexample": None, "witnesses": witnesses}


def tree_nodes_by_recursion(tree: WTree) -> list[WTree]:
    """Subtree enumeration written recursively, preorder."""
    out = [tree]
    for child in tree.children:
        out.extend(tree_nodes_by_recursion(child))
    return out


def fold_by_recursion(tree: WTree, step):
    """step(node, results of its children) at every tree position, by
    plain recursion, so a shared node is folded once per position."""
    return step(tree, [fold_by_recursion(child, step) for child in tree.children])


def tree_depth_by_recursion(tree: WTree) -> int:
    """Height written recursively over tree positions; a leaf has depth 1."""
    return 1 + max((tree_depth_by_recursion(c) for c in tree.children), default=0)


def well_formed_everywhere(psig: ProofSignature, tree: WTree) -> bool:
    """Direct recursive reading of 'it and all its subtrees are
    well-formed', independent of is_proof's single-pass scan and of the
    signature's label decoder: the labels are decoded here from the
    public rules and the documented scheme, rule i being "rule<i>" plus
    underscores until the label misses every element name."""
    phi = psig.phi
    rules = {}
    for i, rule in enumerate(phi.rules):
        label = f"rule{i}"
        while label in phi.carrier.names:
            label += "_"
        rules[label] = rule

    def conclusion(node) -> str | None:
        label = node.label if isinstance(node, WTree) and isinstance(node.label, str) else None
        if label in phi.carrier.names:
            return label
        return rules[label].conclusion if label in rules else None

    def well_formed(node) -> bool:
        if conclusion(node) is None:
            return False
        premises = rules[node.label].premises.names() if node.label in rules else ()  # in slot order
        if len(premises) != len(node.children):
            return False
        if any(conclusion(child) != premise for premise, child in zip(premises, node.children)):
            return False
        return all(well_formed(child) for child in node.children)

    return well_formed(tree)


def subset_names_by_scan(carrier: Carrier, bits: int) -> tuple[str, ...]:
    """The members of a bitmask, by testing every carrier position."""
    return tuple(name for i, name in enumerate(carrier.names) if (bits >> i) & 1)


class TokenError(Exception):
    """Where reference_tokenize stopped: message, line, column, expected."""


_REF_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|->|<-|\S")
_REF_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def reference_tokenize(line: str, lineno: int) -> list[tuple[str, int]]:
    """Rule-file tokens as (text, 1-based column), stepping through the
    line one character at a time: whitespace is skipped, '#' at a token
    start ends the line, and a character that starts no name or arrow
    raises TokenError("unexpected character ...", line, column,
    ("NAME", "->", "<-"))."""
    tokens: list[tuple[str, int]] = []
    pos = 0
    while pos < len(line):
        ch = line[pos]
        if ch == "#":
            break
        if ch.isspace():
            pos += 1
            continue
        m = _REF_TOKEN.match(line, pos)
        text = m.group()
        if not _REF_NAME.match(text) and text not in ("->", "<-"):
            raise TokenError(
                f"unexpected character {text!r}", lineno, pos + 1, ("NAME", "->", "<-")
            )
        tokens.append((text, pos + 1))
        pos = m.end()
    return tokens


REF_KEYWORDS = ("set", "rule", "axiom", "seed", "goal")


class RefParseFailure(Exception):
    """Where reference_parse stopped: (error class name, str of the
    error, line, column, expected tokens)."""


def reference_parse(text: str) -> tuple:
    """A rule file read token by token from reference_tokenize, as
    (names, rules, seed, goal) with each rule (premises, conclusion,
    as_axiom); seed is None without a seed line. Raises RefParseFailure
    for the first error, as the grammar in the README words it."""
    names: list[str] = []
    rules: list[tuple] = []
    seed: list[str] | None = None
    goal: str | None = None
    goal_line = 0

    def fail(kind, message, lineno, column, expected=()):
        shown = f"{lineno}:{column}: {message}"
        if expected:
            shown += f" (expected {' or '.join(expected)})"
        raise RefParseFailure(kind, shown, lineno, column, expected)

    def name_at(tokens, i, lineno, declared=True):
        word, column = tokens[i]
        if word in REF_KEYWORDS:
            fail("ParseError", f"keyword {word!r} cannot be used as a name", lineno, column, ("NAME",))
        if word in ("->", "<-"):
            fail("ParseError", f"expected a name, got {word!r}", lineno, column, ("NAME",))
        if declared and word not in names:
            fail("UndeclaredName", f"name {word!r} was never declared", lineno, column)
        return word

    for lineno, line in enumerate(text.splitlines(), start=1):
        try:
            tokens = reference_tokenize(line, lineno)
        except TokenError as err:
            fail("ParseError", *err.args)
        if not tokens:
            continue
        words = [word for word, _ in tokens]
        head, column = tokens[0]
        last = len(tokens) - 1
        if head == "set":
            if last == 0:
                fail("ParseError", "set needs at least one name", lineno, column + 3, ("NAME",))
            for i in range(1, last + 1):
                word = name_at(tokens, i, lineno, declared=False)
                if word in names:
                    fail("DuplicateName", f"element {word!r} declared twice", lineno, tokens[i][1])
                names.append(word)
        elif head == "rule":
            if "->" not in words[1:]:
                at = tokens[last][1] if last else column + 4
                fail("ParseError", "rule needs '->'", lineno, at, ("->",))
            arrow = words.index("->", 1)
            premises = tuple(name_at(tokens, i, lineno) for i in range(1, arrow))
            if arrow == last:
                fail("ParseError", "rule needs a conclusion", lineno, tokens[arrow][1], ("NAME",))
            if arrow + 1 < last:
                fail("ParseError", f"unexpected {words[arrow + 2]!r} after the conclusion",
                     lineno, tokens[arrow + 2][1], ("end of line",))
            rules.append((premises, name_at(tokens, arrow + 1, lineno), False))
        elif head == "axiom":
            if last == 0:
                fail("ParseError", "axiom needs an open", lineno, column + 5, ("NAME",))
            opened = name_at(tokens, 1, lineno)
            if last < 2 or words[2] != "<-":
                at = tokens[2][1] if last >= 2 else tokens[1][1] + len(words[1])
                fail("ParseError", "axiom needs '<-'", lineno, at, ("<-",))
            covering = tuple(name_at(tokens, i, lineno) for i in range(3, last + 1))
            rules.append((covering, opened, True))
        elif head == "seed":
            seed = (seed or []) + [name_at(tokens, i, lineno) for i in range(1, last + 1)]
        elif head == "goal":
            if goal is not None:
                fail("ParseError", f"goal already declared on line {goal_line}", lineno, column)
            if last == 0:
                fail("ParseError", "goal needs a name", lineno, column + 4, ("NAME",))
            if last > 1:
                fail("ParseError", f"unexpected {words[2]!r} after the goal", lineno, tokens[2][1],
                     ("end of line",))
            goal, goal_line = name_at(tokens, 1, lineno), lineno
        else:
            fail("ParseError", f"unknown directive {head!r}", lineno, column, REF_KEYWORDS)
    return tuple(names), tuple(rules), None if seed is None else tuple(seed), goal


def basis_by_full_rounds(phi: InductiveDefinition) -> set[frozenset[str]]:
    """Assumption sets of derivations of depth <= |S| + 1, as name sets.

    Round d recombines every rule from the sets of round d - 1, read
    through each rule's premise names, and the rounds stop at the first
    one that changes nothing.
    """
    names = phi.carrier.names
    prev: dict[str, set[frozenset[str]]] = {x: set() for x in names}
    for _ in range(len(names) + 1):
        cur = {x: {frozenset((x,))} for x in names}
        for rule in phi.rules:
            combos = {frozenset()}
            for b in rule.premises.names():
                combos = {c | o for c in combos for o in prev[b]}
            cur[rule.conclusion] |= combos
        if cur == prev:
            break
        prev = cur
    return set().union(*prev.values())
