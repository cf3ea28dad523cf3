"""Independent answer checker for the benchmark.

Nothing here imports indkernel. Rule systems arrive as plain data: a
tuple of element names in declaration order and a tuple of rules, each
(premises, conclusion) with premises as a tuple of names. Squares and
families arrive as the JSON documents the benchmark wrote. Every check
returns None when the answer is right and a one-line reason otherwise.

The references are deliberately naive: closures and stages iterate the
one-step consequence set over Python sets, proofs are walked node by
node, and the square and family verdicts use their definitions or the
closed forms noted beside each function.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from math import comb

RULE_LABEL = re.compile(r"rule(\d+)_*\Z")


# ---------------------------------------------------------------- rule systems


def step(rules, current: set) -> set:
    """Conclusions of every rule whose premises all lie in current."""
    return {c for prem, c in rules if all(p in current for p in prem)}


def stages(rules, seed) -> list[set]:
    """stages[0] is the seed; each later stage adds one step; stops at the fixpoint."""
    return [set(s) for s in _stages(tuple(rules), frozenset(seed))]


@lru_cache(maxsize=64)
def _stages(rules, seed) -> tuple:
    out = [set(seed)]
    while True:
        nxt = out[-1] | step(rules, out[-1])
        if nxt == out[-1]:
            return tuple(frozenset(s) for s in out)
        out.append(nxt)


def closure(rules, seed) -> set:
    return stages(rules, seed)[-1]


def bounded(rules, seed, depth: int) -> set:
    """Conclusions of derivations of depth <= depth: P_0 = {}, P_d = seed | step(P_{d-1})."""
    level: set = set()
    for _ in range(depth):
        level = set(seed) | step(rules, level)
    return level


def subset_text(names, members) -> str:
    """How the program prints a subset: declaration order, comma separated."""
    return "{" + ", ".join(n for n in names if n in members) + "}"


def parse_subset(text: str) -> list[str]:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError(f"not a subset: {text[:60]!r}")
    body = text[1:-1].strip()
    return [s.strip() for s in body.split(",")] if body else []


def _rule_index(label: str, rules) -> int | None:
    m = RULE_LABEL.match(label)
    if m is None:
        return None
    i = int(m.group(1))
    return i if i < len(rules) else None


def postorder(root, children) -> list:
    """Each node of a DAG once, every node after all of its children.
    Iterative, so deep proofs need no recursion."""
    order: list = []
    done: set = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif node not in done:
            done.add(node)
            stack.append((node, True))
            stack.extend((child, False) for child in children(node))
    return order


def check_proof_nodes(names, rules, seed, goal, root, nodes) -> str | None:
    """nodes maps a node id to (label, child ids in slot order).

    A rule node's children must conclude exactly the rule's premises,
    one child per premise; a leaf must assume an element of the seed;
    the root must conclude the goal. Each distinct node is checked once.
    """
    element = set(names)
    seed = set(seed)
    concl: dict = {}
    for nid in postorder(root, lambda n: nodes[n][1]):
        label, kids = nodes[nid]
        if label in element and not kids:
            if label not in seed:
                return f"leaf assumes {label!r}, which is not in the seed"
            concl[nid] = label
            continue
        ri = _rule_index(label, rules)
        if ri is None:
            return f"unknown node label {label!r}"
        prem, c = rules[ri]
        got = [concl[k] for k in kids]
        if sorted(got) != sorted(prem) or len(set(got)) != len(got):
            return f"{label} has children concluding {got}, premises are {list(prem)}"
        concl[nid] = c
    if concl[root] != goal:
        return f"proof concludes {concl[root]!r}, goal is {goal!r}"
    return None


def proof_depth(root, nodes) -> int:
    depth: dict = {}
    for nid in postorder(root, lambda n: nodes[n][1]):
        depth[nid] = 1 + max((depth[k] for k in nodes[nid][1]), default=0)
    return depth[root]


def json_to_nodes(data):
    """Turn the program's JSON proof tree into (root, nodes) without recursion."""
    nodes: dict = {}
    stack = [(data, 0)]
    count = 1
    while stack:
        node, nid = stack.pop()
        kind = node.get("kind")
        if kind == "assume":
            nodes[nid] = (node["element"], ())
        elif kind == "rule":
            kids = []
            for child in node["children"].values():
                kids.append(count)
                stack.append((child, count))
                count += 1
            nodes[nid] = (f"rule{node['rule']}", tuple(kids))
        else:
            raise ValueError(f"unknown node kind {kind!r}")
    return 0, nodes


def check_proof_json(names, rules, seed, goal, data) -> str | None:
    """The JSON form also keys every child by the premise it must conclude."""
    stack = [data]
    while stack:
        node = stack.pop()
        if node.get("kind") == "rule":
            prem = rules[node["rule"]][0] if node["rule"] < len(rules) else ()
            if sorted(node["children"]) != sorted(prem):
                return f"rule {node['rule']} keyed by {sorted(node['children'])}, premises {sorted(prem)}"
            for premise, child in node["children"].items():
                got = child["element"] if child["kind"] == "assume" else rules[child["rule"]][1]
                if got != premise:
                    return f"child under premise {premise!r} concludes {got!r}"
                stack.append(child)
    root, nodes = json_to_nodes(data)
    return check_proof_nodes(names, rules, seed, goal, root, nodes)


_TEXT_LINE = re.compile(r"( *)(\S+)  \[(.*)\]\Z")


def check_proof_text(names, rules, seed, goal, text: str) -> str | None:
    """The render_proof format: two spaces of indent per level, one node per line,
    "x  [assumed]" for leaves and "c  [ruleN: {premises} -> c]" for rule nodes."""
    nodes: dict = {}
    parents: list = []  # stack of (indent, node id)
    for nid, line in enumerate(text.split("\n")):
        m = _TEXT_LINE.match(line)
        if m is None:
            return f"line {nid + 1} is not a proof line: {line[:60]!r}"
        indent, head, note = len(m.group(1)), m.group(2), m.group(3)
        while parents and parents[-1][0] >= indent:
            parents.pop()
        if (parents[-1][0] + 2 if parents else 0) != indent:
            return f"line {nid + 1} is indented {indent}, expected one level below its parent"
        if note == "assumed":
            nodes[nid] = [head, []]
        else:
            label, _, body = note.partition(": ")
            ri = _rule_index(label, rules)
            if ri is None:
                return f"line {nid + 1} names unknown rule {label!r}"
            prem, c = rules[ri]
            if body != f"{subset_text(names, set(prem))} -> {c}" or head != c:
                return f"line {nid + 1} misstates {label}: {note!r}"
            nodes[nid] = [label, []]
        if parents:
            nodes[parents[-1][1]][1].append(nid)
        parents.append((indent, nid))
    frozen = {k: (v[0], tuple(v[1])) for k, v in nodes.items()}
    return check_proof_nodes(names, rules, seed, goal, 0, frozen)


def check_verdict(rules, seed, goal, code: int, text: str) -> str | None:
    """Exit 1 with "unprovable" exactly when the goal is outside the closure."""
    inside = goal in closure(rules, seed)
    if not inside:
        if code != 1 or text.strip() != "unprovable":
            return f"goal {goal!r} is outside the closure, got exit {code}"
        return None
    if code != 0:
        return f"goal {goal!r} is in the closure, got exit {code}"
    return None


def check_witness(rules, seed, goal, members) -> str | None:
    members = set(members)
    if not members <= set(seed):
        return f"witness has {sorted(members - set(seed))[:3]} outside the seed"
    if goal not in closure(rules, members):
        return f"goal {goal!r} is not in the closure of the witness"
    return None


def check_rule_command(command, system, seed, goal, code, text) -> str | None:
    """Check one `run_command` answer on a rule file (command is argv[0])."""
    names, rules = system
    if command == "close":
        want = subset_text(names, closure(rules, seed)) + "\n"
        return None if (code, text) == (0, want) else f"close printed {text[:60]!r}"
    if command == "cover":
        seed_text = subset_text(names, set(seed))
        if goal not in closure(rules, seed):
            want = f"{goal} is not covered by {seed_text}\n"
            return None if (code, text) == (1, want) else f"cover printed {text[:60]!r}"
        head, _, tail = text.partition("\n")
        if code != 0 or head != f"{goal} is covered by {seed_text}" or not tail.startswith("subcover: "):
            return f"cover printed {text[:60]!r}"
        return check_witness(rules, seed, goal, parse_subset(tail[len("subcover: "):]))
    bad = check_verdict(rules, seed, goal, code, text)
    if bad or code == 1:
        return bad
    if command == "witness":
        return check_witness(rules, seed, goal, parse_subset(text))
    if command == "prove":
        return check_proof_text(names, rules, seed, goal, text.rstrip("\n"))
    if command == "prove --json":
        return check_proof_json(names, rules, seed, goal, json.loads(text))
    return f"no check for {command!r}"


def chain_basis(names) -> set:
    """Closed form: on a chain every derivation has exactly one leaf."""
    return {frozenset([n]) for n in names}


def ladder_basis(levels: int) -> set:
    """Assumption sets of a ladder, by its own recursion.

    Rung j has x_j and y_j; both are derived from {x_{j-1}, y_{j-1}}.
    A derivation of a rung-j element either assumes it or combines one
    derivation of x_{j-1} with one of y_{j-1}, so the sets for x_j are
    {x_j} plus the pairwise unions P_j (the same for y_j by symmetry).
    """
    out: set = set()
    combined: set = set()  # P_j: unions from the rung below
    for j in range(levels):
        x, y = frozenset([f"x{j}"]), frozenset([f"y{j}"])
        out |= {x, y} | combined
        combined = {a | b for a in ({x} | combined) for b in ({y} | combined)}
    return out


# ---------------------------------------------------------------- squares


def _fibers(mapping: dict, codomain) -> dict:
    out = {a: [] for a in codomain}
    for x, a in mapping.items():
        out[a].append(x)
    return out


def covering_holds(sq: dict) -> bool:
    """By definition: p is onto A and every pair (b, c) with f(b) = p(c) is q, g of some d."""
    car, maps = sq["carriers"], sq["maps"]
    if set(maps["p"].values()) != set(car["A"]):
        return False
    reached = {(maps["q"][d], maps["g"][d]) for d in car["D"]}
    return all(
        (b, c) in reached
        for b in car["B"]
        for c in car["C"]
        if maps["f"][b] == maps["p"][c]
    )


def check_square_reports(sq: dict, bound: int, covering: dict, collection: dict) -> str | None:
    """Collection by the closed form: it holds at a bound iff every a whose
    f-fiber has at most bound elements has a nonempty p-fiber. The first
    failing a is the counterexample, with all fiber sizes 1. When it
    holds, every fiber within the bound contributes C(bound, |fiber|)
    witnesses, one per surjection, and every larger fiber is skipped."""
    car, maps = sq["carriers"], sq["maps"]
    if covering["holds"] != covering_holds(sq):
        return f"covering verdict {covering['holds']} is wrong"
    f_fib = _fibers(maps["f"], car["A"])
    p_fib = _fibers(maps["p"], car["A"])
    if collection["bound"] != bound:
        return f"report bound {collection['bound']}, asked {bound}"
    first_bad = next(
        (a for a in car["A"] if len(f_fib[a]) <= bound and not p_fib[a]), None
    )
    if collection["holds"] != (first_bad is None):
        return f"collection verdict {collection['holds']} is wrong at bound {bound}"
    if first_bad is not None:
        cex = collection["counterexample"]
        if cex["a"] != first_bad or cex["fiber_sizes"] != [1] * len(f_fib[first_bad]):
            return f"collection counterexample {cex} is not the first one"
        return None
    within = [a for a in car["A"] if len(f_fib[a]) <= bound]
    if len(collection["skipped"]) != len(car["A"]) - len(within):
        return "collection skipped the wrong fibers"
    want = sum(comb(bound, len(f_fib[a])) for a in within)
    if len(collection["witnesses"]) != want:
        return f"collection recorded {len(collection['witnesses'])} witnesses, expected {want}"
    return None


def check_square_command(sq: dict, bound: int, code: int, text: str) -> str | None:
    report = json.loads(text)
    bad = check_square_reports(sq, bound, report["covering"], report["collection"])
    if bad:
        return bad
    holds = report["covering"]["holds"] and report["collection"]["holds"]
    if report["holds"] != holds or code != (0 if holds else 1):
        return f"square verdict {report['holds']} with exit {code}"
    return None


def check_family_command(doc: dict, bound: int, code: int, text: str) -> str | None:
    """A surjection family holds iff it has a member, and then every one of
    the C(bound, |base|) surjections gets a witness; a carrier family
    always holds, with C(bound, |Y_i|) witnesses for each member that
    fits the bound. The exit code follows the verdict."""
    report = json.loads(text)
    if report["bound"] != bound:
        return f"report bound {report['bound']}, asked {bound}"
    if doc["kind"] == "surjection-family":
        holds = bool(doc["members"])
        want = comb(bound, len(doc["base"])) if holds else 0
    else:
        holds = True
        want = sum(comb(bound, len(c)) for c in doc["carriers"] if len(c) <= bound)
    if report["holds"] != holds or code != (0 if holds else 1):
        return f"family verdict {report['holds']} with exit {code}, expected {holds}"
    if len(report["witnesses"]) != want:
        return f"family recorded {len(report['witnesses'])} witnesses, expected {want}"
    if not holds and report["counterexample"]["domain"] != [f"y{i}" for i in range(len(doc["base"]))]:
        return "family counterexample is not the first surjection"
    return None
