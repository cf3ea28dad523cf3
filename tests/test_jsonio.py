"""jsonio.dumps writes byte for byte what json.dumps(obj, indent=2) writes."""

import json
import sys
from pathlib import Path
from random import Random

import pytest

from indkernel.cli import run_command
from indkernel.dsl import definition_from_ast, parse_rule_file
from indkernel.inddef import closure
from indkernel.gen import random_square
from indkernel.jsonio import dumps
from indkernel.proofs import build_proof_signature, proof_to_json, synthesize_proof
from indkernel.squares import _collection_scan, collection_report

ROOT = Path(__file__).resolve().parent.parent
RULE_FILES = sorted((ROOT / "tests" / "golden").glob("*.rules")) + sorted((ROOT / "rules").glob("*.rules"))

# quotes, backslashes, control characters, DEL, non-ASCII, line and
# paragraph separators, non-BMP characters and a lone surrogate
CHARS = ["a", "Z", "0", " ", "/", '"', "\\", "\n", "\r", "\t", "\b", "\f", "\x00", "\x1f", "\x7f",
         "é", "ß", "€", "中", "\u2028", "\u2029", "\U0001d11e", "\U0001f600", "\ud800"]


def random_text(rng: Random) -> str:
    return "".join(rng.choice(CHARS) for _ in range(rng.randint(0, 6)))


def random_scalar(rng: Random):
    kind = rng.randrange(5)
    if kind == 0:
        return random_text(rng)
    if kind == 1:
        return rng.choice([0, 1, -1, 2**63, -(2**63) - 1]) + rng.randint(-(10 ** rng.randint(0, 30)), 10 ** rng.randint(0, 30))
    return [True, False, None][kind - 2]


def random_document(rng: Random, depth: int):
    """A document nested at most depth containers deep."""
    if depth == 0 or rng.random() < 0.3:
        return random_scalar(rng)
    size = rng.randint(0, 4)
    only_text = rng.random() < 0.3  # the one-join case
    entry = (lambda: random_text(rng)) if only_text else (lambda: random_document(rng, depth - 1))
    kind = rng.randrange(3)
    if kind == 0:
        return {random_text(rng): entry() for _ in range(size)}
    items = [entry() for _ in range(size)]
    return items if kind == 1 else tuple(items)


def test_random_documents_match_the_stdlib():
    rng = Random(5)
    for _ in range(3000):
        doc = random_document(rng, 6)
        assert dumps(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize(
    "doc",
    [0, -7, 10**40, True, False, None, "", "\"\\\x00é\U0001d11e", [], {}, (), [[]], [{}], {"k": []},
     ["a", "b"], ("a",), {"a": "b", "c": "d"}, {"a": 1}, [True, "x"], {"": {"": [None]}}],
    ids=repr,
)
def test_small_documents_match_the_stdlib(doc):
    assert dumps(doc) == json.dumps(doc, indent=2)


def test_subclasses_are_written_as_their_base_type():
    class Name(str):
        pass

    class Count(int):
        def __repr__(self):
            return "Count()"

    doc = {Name("k"): [Name("v"), Count(3)], "m": {"x": Name("y")}}
    assert dumps(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("path", RULE_FILES, ids=lambda p: p.name)
def test_every_proof_of_the_bundled_rule_files(path, capsys):
    phi, seed, _ = definition_from_ast(parse_rule_file(path.read_text()))
    psig = build_proof_signature(phi)
    goals = closure(phi, seed).names()
    assert goals or path.name in {"bare.rules", "no_seed.rules"}
    for goal in goals:
        doc = proof_to_json(psig, synthesize_proof(phi, seed, goal))
        assert dumps(doc) == json.dumps(doc, indent=2)
        assert run_command(["prove", str(path), "--goal", goal, "--json"]) == 0
        assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"


def test_ladder_8_proof_with_shared_dicts():
    """The proof document shares one dict per shared subproof; each of its
    255 positions is still written in full."""
    text = "set " + " ".join(f"x{k} y{k}" for k in range(8)) + "\n"
    text += "".join(f"rule x{k} y{k} -> x{k + 1}\nrule x{k} y{k} -> y{k + 1}\n" for k in range(7))
    phi, seed, goal = definition_from_ast(parse_rule_file(text + "seed x0 y0\ngoal x7\n"))
    doc = proof_to_json(build_proof_signature(phi), synthesize_proof(phi, seed, goal))
    assert doc["children"]["x6"]["children"]["x5"] is doc["children"]["y6"]["children"]["x5"]
    assert dumps(doc) == json.dumps(doc, indent=2)


def test_chain_300_proof():
    n = 300
    text = "set " + " ".join(f"c{i}" for i in range(n)) + "\n"
    text += "".join(f"rule c{i} -> c{i + 1}\n" for i in range(n - 1)) + f"seed c0\ngoal c{n - 1}\n"
    phi, seed, goal = definition_from_ast(parse_rule_file(text))
    doc = proof_to_json(build_proof_signature(phi), synthesize_proof(phi, seed, goal))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 10 * n))  # the stdlib encoder recurses per level
    try:
        want = json.dumps(doc, indent=2)
    finally:
        sys.setrecursionlimit(limit)
    assert dumps(doc) == want


def test_nesting_deeper_than_the_recursion_limit():
    """Indent-2 text of d nested lists has about 2 d^2 characters, so
    three times the recursion limit (18 MB of text at the default limit)
    is as deep as the test goes."""
    depth = 3 * sys.getrecursionlimit()
    doc: list = []
    for _ in range(depth - 1):
        doc = [doc]
    lines = ["  " * k + "[" for k in range(depth - 1)] + ["  " * (depth - 1) + "[]"]
    lines += ["  " * k + "]" for k in reversed(range(depth - 1))]
    assert dumps(doc) == "\n".join(lines)


@pytest.mark.parametrize("doc", [1.5, {1, 2}, b"x", ["a", 0.5], {"a": {"b": float("nan")}}, {1: "a"}, {("k",): []}],
                         ids=repr)
def test_other_types_raise_type_error(doc):
    with pytest.raises(TypeError):
        dumps(doc)


def test_a_cycle_raises_like_the_stdlib():
    loop: list = ["x"]
    loop.append({"back": loop})
    with pytest.raises(ValueError, match="Circular reference detected"):
        dumps(loop)


def test_a_witness_plan_is_written_where_it_sits():
    """A report's plan reads as the recorded report's witness list at any
    depth: alone, as a list item, and as a value deep inside dicts."""
    rng = Random(29)
    for _ in range(20):
        sq = random_square(rng, 3)
        for bound in (1, 3, 5):
            scan, recorded = _collection_scan(sq, bound), collection_report(sq, bound, record=True)
            for wrap in (lambda r: r["witnesses"], lambda r: [r["witnesses"], 1], lambda r: {"x": [{"y": r}]}):
                assert dumps(wrap(scan)) == json.dumps(wrap(recorded), indent=2)
