"""Tests for the benchmark itself: python3 -m pytest bench/test_bench.py

Tiny-size runs of every workload must report every metric that
BENCHMARK.json names, and the independent checker must reject
deliberately corrupted answers.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = run.Sizes(
    rule_files=((12, 1), (20, 1)),
    grid=(40, 200),
    chains=(8, 10, 12),
    ladders=(3, 4),
    basis_chains=(4, 5),
    basis_ladders=(2, 3),
    square_batches=4,
    square_batch=5,
    square_files=3,
    family_bases=(2, 3),
    family_extra_bound=(0, 2),
    setup_repeats=2,
)


@pytest.fixture(autouse=True)
def work_dir():
    run.WORK.mkdir(exist_ok=True)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_end_to_end_metric(workload):
    out = run.measure(workload, seed=7, seconds=0.3, trace=False, sizes=TINY)
    result = out["result"]
    assert result["correct"], out["reasons"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert out["wrong_outputs"] == 0
    assert out["digest"].startswith("sha256:")
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_reports_every_layer(workload):
    out = run.measure(workload, seed=7, seconds=0.3, trace=True, sizes=TINY)
    metrics = {k: v["value"] for k, v in out["result"]["metrics"].items()}
    assert out["result"]["correct"], out["reasons"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert 0 < metrics["trace.self_s_sum"] <= metrics["trace.wall_s"] + 1e-6
    spans = json.loads((run.WORK / f"spans-{workload}-7.json").read_text())["spans"]
    assert len(spans) == sum(v for k, v in metrics.items() if k.endswith(".calls"))


def test_same_seed_same_inputs_and_outputs():
    a = run.measure("derive-queries", seed=3, seconds=0.2, trace=False, sizes=TINY)
    b = run.measure("derive-queries", seed=3, seconds=0.2, trace=False, sizes=TINY)
    assert a["digest"] == b["digest"]


def test_deep_chain_probes_run_once_outside_the_timed_loop():
    sizes = dataclasses.replace(TINY, chains=(8, 10, 600))
    out = run.measure("derive-queries", seed=5, seconds=0.3, trace=False, sizes=sizes)
    assert out["probe"]["attempted"] == 2
    assert out["probe"]["failed"] == sum(out["probe"]["reasons"].values())
    assert out["result"]["failed"] == 0 and out["result"]["correct"], out["reasons"]
    assert out["digest"].startswith("sha256:")


def test_failures_are_counted_and_the_loop_goes_on(monkeypatch):
    import time

    monkeypatch.setattr(run, "OP_TIMEOUT_S", 0.2)

    def deep(n=0):
        return deep(n + 1)

    calls = [deep, lambda: sys.exit(3), lambda: time.sleep(5), lambda: (2, ""), lambda: (0, "ok")]
    ops = [run.Op("probe", c, run.cli_render, lambda code, text: None) for c in calls]
    ops[0].render = ops[1].render = ops[2].render = lambda r: (0, "")

    class NoCache:
        def cache_info(self):
            return SimpleNamespace(hits=0, misses=0)

    import signal

    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        tally = run.run_loop(ops, run.Slots(len(ops)), NoCache(), run.Speed(), count=5)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert tally.attempted == 5 and tally.failed == 4 and tally.wrong == 0
    assert set(tally.reasons) == {
        "probe: RecursionError",
        "probe: SystemExit",
        "probe: timeout",
        "probe: exit 2",
    }


def test_refuses_to_run_without_sources():
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "rules-cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


# ---------------------------------------------------------------- the checker

DIAMOND = (
    ("a", "b", "c", "d"),
    ((("a",), "b"), (("a",), "c"), (("b", "c"), "d")),
)


def test_checker_flags_a_wrong_closure_line():
    assert check.check_rule_command("close", DIAMOND, ("a",), "d", 0, "{a, b, c, d}\n") is None
    assert check.check_rule_command("close", DIAMOND, ("a",), "d", 0, "{a, b, d}\n")
    assert check.check_rule_command("close", DIAMOND, ("a",), "d", 0, "{a, c, b, d}\n")


def _diamond_proof(swap: bool) -> dict:
    leaf = {"kind": "assume", "element": "a"}
    b = {"kind": "rule", "rule": 0, "children": {"a": leaf}}
    c = {"kind": "rule", "rule": 1, "children": {"a": leaf}}
    kids = {"b": c, "c": b} if swap else {"b": b, "c": c}
    return {"kind": "rule", "rule": 2, "children": kids}


def test_checker_flags_a_proof_with_a_swapped_child():
    names, rules = DIAMOND
    assert check.check_proof_json(names, rules, ("a",), "d", _diamond_proof(False)) is None
    assert check.check_proof_json(names, rules, ("a",), "d", _diamond_proof(True))
    ok = {0: ("rule2", (1, 2)), 1: ("rule0", (3,)), 2: ("rule1", (3,)), 3: ("a", ())}
    swapped = {**ok, 0: ("rule2", (1, 1))}
    assert check.check_proof_nodes(names, rules, ("a",), "d", 0, ok) is None
    assert check.check_proof_nodes(names, rules, ("a",), "d", 0, swapped)


def test_checker_reads_the_text_proof_form():
    names, rules = DIAMOND
    text = "\n".join([
        "d  [rule2: {b, c} -> d]",
        "  b  [rule0: {a} -> b]",
        "    a  [assumed]",
        "  c  [rule1: {a} -> c]",
        "    a  [assumed]",
    ])
    assert check.check_proof_text(names, rules, ("a",), "d", text) is None
    assert check.check_proof_text(names, rules, ("a",), "d", text.replace("  c  [rule1", "  b  [rule1"))
    assert check.check_proof_text(names, rules, ("b",), "d", text)


def test_checker_flags_a_flipped_collection_verdict():
    # f: b0 -> a0, b1 -> a1; p: c0 -> a0 only, so a1 has no c over it
    sq = inputs.square_doc(2, (0, 1), (0,), [(0, 0)])
    covering = {"holds": False}
    collection = {"holds": False, "bound": 2, "counterexample": {"a": "a1", "fiber_sizes": [1]}, "witnesses": [], "skipped": []}
    assert check.check_square_reports(sq, 2, covering, collection) is None
    assert check.check_square_reports(sq, 2, covering, dict(collection, holds=True))
    assert check.check_square_reports(sq, 2, {"holds": True}, collection)


def test_checker_flags_a_flipped_family_verdict():
    empty = {"kind": "surjection-family", "base": ["x0"], "members": []}
    report = {"holds": False, "bound": 2, "witnesses": [], "counterexample": {"domain": ["y0"]}}
    assert check.check_family_command(empty, 2, 1, json.dumps(report)) is None
    assert check.check_family_command(empty, 2, 0, json.dumps(dict(report, holds=True)))
    assert check.check_family_command(empty, 2, 0, json.dumps(report))


def test_ladder_basis_matches_the_hand_written_sets():
    by_hand = [
        {"x0"}, {"y0"}, {"x1"}, {"y1"}, {"x2"}, {"y2"},
        {"x0", "y0"}, {"x1", "y1"}, {"x0", "y0", "x1"}, {"x0", "y0", "y1"},
    ]
    assert check.ladder_basis(3) == {frozenset(s) for s in by_hand}
    assert check.chain_basis(("c0", "c1")) == {frozenset(["c0"]), frozenset(["c1"])}
