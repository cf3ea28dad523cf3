"""The adversarial corpus: a chain of 2000, a ladder of 30 rungs, and
four square and family instances whose witnesses name no domain
element. The corpus also holds not_utf8.rules and not_utf8.json, each
with a 0xff byte, and deep_nesting.json, a valid square with an extra
key nested 1,100 lists deep; tests/test_cli.py reads them.

chain2000.rules derives c1999 from c0 through 1999 stages, deeper than
the Python stack allows recursion to go, so its proofs are compared by
their rendered text: == on trees or nested dicts would recurse. ladder30.rules derives both
x_{k+1} and y_{k+1} from {x_k, y_k}: the proof of x29 is a DAG of
2 * 30 - 1 nodes that expands to a tree of 2 ** 30 - 1 nodes, so every
measure of it must visit each shared node once.
"""

import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import indkernel
from indkernel.cli import run_command
from indkernel.dsl import definition_from_ast, parse_rule_file
from indkernel.finite import Subset
from indkernel.inddef import closure_stages
from indkernel.jsonio import dumps
from indkernel.proofs import (
    ProofSignature,
    ass,
    build_proof_signature,
    characterize,
    is_proof,
    proof_from_json,
    proof_to_dot,
    proof_to_json,
    render_proof,
    synthesize_proof,
    witness,
)
from indkernel.wtree import depth, node_count, tree_from_json, tree_to_json

CORPUS = Path(__file__).resolve().parent / "adversarial"
CHAIN = CORPUS / "chain2000.rules"
LADDER = CORPUS / "ladder30.rules"


def load(path):
    return definition_from_ast(parse_rule_file(path.read_text()))


def distinct_nodes(tree):
    """The node objects of a proof, each shared node counted once."""
    seen = {}
    stack = [tree]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node.children)
    return list(seen.values())


class TestChain2000:
    def test_every_engine_completes_and_depth_is_stage_plus_one(self):
        phi, seed, goal = load(CHAIN)
        stages = closure_stages(phi, seed)
        assert len(stages) == 2000
        stage = next(k for k, s in enumerate(stages) if goal in s)
        assert stage == 1999
        proof = synthesize_proof(phi, seed, goal)
        assert depth(proof) == stage + 1
        assert len(distinct_nodes(proof)) == 2000
        assert witness(phi, seed, goal) == seed
        assert characterize(phi, seed, stage + 1) == Subset.full(phi.carrier)
        assert characterize(phi, seed, stage) == stages[stage - 1]

    @pytest.mark.parametrize(
        "command, first_line",
        [("prove", "c1999  [rule1998: {c1998} -> c1999]"), ("witness", "{c0}")],
        ids=["prove", "witness"],
    )
    def test_cli_exits_zero(self, command, first_line, capsys):
        assert run_command([command, str(CHAIN)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == first_line

    def test_proof_json_reads_back(self):
        phi, seed, goal = load(CHAIN)
        proof = synthesize_proof(phi, seed, goal)
        psig = build_proof_signature(phi)
        back = proof_from_json(psig, proof_to_json(psig, proof))
        assert render_proof(psig, back) == render_proof(psig, proof)
        assert is_proof(psig, back)

    def test_tree_json_reads_back(self):
        phi, seed, goal = load(CHAIN)
        proof = synthesize_proof(phi, seed, goal)
        psig = build_proof_signature(phi)
        back = tree_from_json(psig.sig, tree_to_json(psig.sig, proof))
        assert render_proof(psig, back) == render_proof(psig, proof)

    def test_cli_prove_json_exits_zero(self, capsys):
        """The proof JSON nests one level per stage; the CLI writer keeps
        its open containers on a stack, so 2000 levels print."""
        phi, seed, goal = load(CHAIN)
        psig = build_proof_signature(phi)
        want = dumps(proof_to_json(psig, synthesize_proof(phi, seed, goal))) + "\n"
        assert run_command(["prove", str(CHAIN), "--json"]) == 0
        assert capsys.readouterr().out == want


class TestLadder30:
    def test_witness_is_the_bottom_rung(self):
        phi, seed, goal = load(LADDER)
        assert goal == "x29"
        assert witness(phi, seed, goal) == Subset.from_names(phi.carrier, ["x0", "y0"])

    def test_proof_has_one_node_per_element_used(self):
        phi, seed, goal = load(LADDER)
        proof = synthesize_proof(phi, seed, goal)
        count = len(distinct_nodes(proof))
        assert count == 2 * 30 - 1

    @pytest.mark.parametrize(
        "measure, expected",
        [
            (lambda psig, proof: depth(proof), 30),
            (lambda psig, proof: node_count(proof), 2**30 - 1),
            (lambda psig, proof: ass(psig, proof).names(), ("x0", "y0")),
            (lambda psig, proof: is_proof(psig, proof), True),
        ],
        ids=["depth", "node_count", "ass", "is_proof"],
    )
    def test_tree_measures_visit_each_shared_node_once(self, measure, expected):
        """The expanded tree has 2**30 - 1 positions; each measure walks
        the 59 distinct nodes instead, so it takes milliseconds."""
        phi, seed, goal = load(LADDER)
        proof = synthesize_proof(phi, seed, goal)
        psig = build_proof_signature(phi)
        start = time.perf_counter()
        got = measure(psig, proof)  # named, so a failure never prints the expanded proof
        assert got == expected
        assert time.perf_counter() - start < 1.0

    def test_proof_json_reads_back_shared(self):
        """The document shares a dict wherever the proof shares a node, so
        writing and reading it back visit 59 nodes, not 2**30 - 1."""
        phi, seed, goal = load(LADDER)
        proof = synthesize_proof(phi, seed, goal)
        psig = build_proof_signature(phi)
        start = time.perf_counter()
        back = proof_from_json(psig, proof_to_json(psig, proof))
        assert time.perf_counter() - start < 1.0
        count, size = len(distinct_nodes(back)), node_count(back)
        assert count == 2 * 30 - 1
        assert size == 2**30 - 1
        assert ass(psig, back).names() == ("x0", "y0")
        assert is_proof(psig, back)

    def test_cli_witness(self, capsys):
        assert run_command(["witness", str(LADDER)]) == 0
        assert capsys.readouterr().out == "{x0, y0}\n"


def ladder(rungs):
    """A ladder rule file like ladder30.rules, with the given number of rungs."""
    lines = ["set " + " ".join(f"x{k} y{k}" for k in range(rungs))]
    lines += [f"rule x{k} y{k} -> {v}{k + 1}" for k in range(rungs - 1) for v in "xy"]
    return definition_from_ast(parse_rule_file("\n".join([*lines, "seed x0 y0", f"goal x{rungs - 1}"]) + "\n"))


@pytest.mark.parametrize(
    "cases",
    [
        [(lambda: load(CHAIN), (ass, is_proof, proof_to_json, proof_to_dot, render_proof))],
        [(lambda: load(LADDER), (ass, is_proof, proof_to_json)), (lambda: ladder(6), (proof_to_dot, render_proof))],
    ],
    ids=["chain2000", "ladder30"],
)
def test_each_rule_label_is_decoded_once_per_signature(cases, monkeypatch):
    """On a fresh signature, running each walk twice over a synthesized
    proof reads each of its rules' premises once. The ladder's text and
    DOT renderings, one line or node per tree position, run on a ladder
    of 6 rungs instead: they double in size per rung."""
    decode = ProofSignature._premise_names
    for make, walks in cases:
        phi, seed, goal = make()
        proof = synthesize_proof(phi, seed, goal)
        rules = {node.label for node in distinct_nodes(proof)} - set(phi.carrier.names)
        psig = ProofSignature(phi)
        calls = []
        with monkeypatch.context() as patch:
            patch.setattr(ProofSignature, "_premise_names", lambda self, i: calls.append(i) or decode(self, i))
            for _ in range(2):
                for walk in walks:
                    walk(psig, proof)
        assert sorted(calls) == sorted(int(label.removeprefix("rule")) for label in rules)


def cap_address_space():
    """Run in the child before it starts: 1 GB of address space at most."""
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


@pytest.mark.parametrize(
    "command, name",
    [("check-square", "empty_square.json"), ("check-square", "empty_fiber_square.json"),
     ("check-family", "empty_base_family.json"), ("check-family", "empty_carrier_family.json")],
    ids=["empty-square", "empty-fiber", "empty-base", "empty-carrier"],
)
def test_reports_naming_no_element_cost_nothing_at_a_huge_bound(command, name, capsys):
    """An empty square, a square whose one fiber is empty, a surjection
    family over an empty base and the carrier family [[]] list
    witnesses whose domains are empty, so at
    --bound 10**9 they print the --bound 2 report but for the echoed
    bound, within a second. A child process capped at 1 GB runs it
    first, so that a report that allocates per bound fails instead of
    filling memory."""
    path = str(CORPUS / name)
    assert run_command([command, path, "--bound", "2"]) == 0
    want = capsys.readouterr().out.replace('"bound": 2,', '"bound": 1000000000,')
    argv = [command, path, "--bound", "1000000000"]
    env = dict(os.environ, PYTHONPATH=str(Path(indkernel.__file__).parents[1]))
    child = subprocess.run(
        [sys.executable, "-m", "indkernel", *argv], env=env, capture_output=True, text=True,
        timeout=60, preexec_fn=cap_address_space,
    )
    assert (child.returncode, child.stdout, child.stderr) == (0, want, "")
    start = time.perf_counter()
    assert run_command(argv) == 0
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out == want
