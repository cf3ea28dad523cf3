"""End-to-end command tests: outputs, exit codes, file handling."""

import json
from pathlib import Path

import pytest

from indkernel import cli
from indkernel.cli import run_command
from indkernel.dsl import emit, parse_rule_file

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
RULES = ROOT / "rules"
INSTANCES = ROOT / "instances"


def run(capsys, *argv):
    code = run_command([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClose:
    def test_chain(self, capsys):
        code, out, _ = run(capsys, "close", GOLDEN / "chain.rules")
        assert code == 0
        assert out == "{a, b, c}\n"

    def test_without_a_seed_line_the_seed_is_empty(self, capsys):
        code, out, _ = run(capsys, "close", GOLDEN / "no_seed.rules")
        assert code == 0
        assert out == "{}\n"

    def test_runs_are_deterministic(self, capsys):
        first = run(capsys, "close", RULES / "cantor.rules")
        second = run(capsys, "close", RULES / "cantor.rules")
        assert first == second


class TestProve:
    def test_text_rendering(self, capsys):
        code, out, _ = run(capsys, "prove", GOLDEN / "chain.rules")
        assert code == 0
        assert out.splitlines() == [
            "c  [rule1: {b} -> c]",
            "  b  [rule0: {a} -> b]",
            "    a  [assumed]",
        ]

    def test_json_rendering(self, capsys):
        code, out, _ = run(capsys, "prove", GOLDEN / "chain.rules", "--json", "--goal", "b")
        assert code == 0
        assert json.loads(out) == {
            "kind": "rule",
            "rule": 0,
            "children": {"a": {"kind": "assume", "element": "a"}},
        }

    def test_dot_file_is_written_and_stable(self, capsys, tmp_path):
        target = tmp_path / "proof.dot"
        code, _, _ = run(capsys, "prove", GOLDEN / "chain.rules", "--dot", target)
        assert code == 0
        first = target.read_text()
        assert first.startswith("digraph proof {")
        run(capsys, "prove", GOLDEN / "chain.rules", "--dot", target)
        assert target.read_text() == first

    def test_unprovable_goal(self, capsys):
        code, out, _ = run(capsys, "prove", GOLDEN / "unprovable.rules")
        assert code == 1
        assert out == "unprovable\n"

    def test_flag_overrides_file_goal(self, capsys):
        code, out, _ = run(capsys, "prove", GOLDEN / "unprovable.rules", "--goal", "b")
        assert code == 0
        assert "b  [rule0" in out

    def test_no_goal_anywhere(self, capsys):
        code, _, err = run(capsys, "prove", GOLDEN / "bare.rules")
        assert code == 2
        assert "no goal" in err

    def test_goal_outside_carrier(self, capsys):
        code, _, err = run(capsys, "prove", GOLDEN / "chain.rules", "--goal", "zz")
        assert code == 2
        assert "error:" in err


class TestWitnessAndBasis:
    def test_witness_prefers_declaration_order(self, capsys):
        code, out, _ = run(capsys, "witness", GOLDEN / "alternatives.rules")
        assert code == 0
        assert out == "{a}\n"

    def test_witness_unprovable(self, capsys):
        code, out, _ = run(capsys, "witness", GOLDEN / "unprovable.rules")
        assert code == 1
        assert out == "unprovable\n"

    def test_basis_lists_sets_smallest_first(self, capsys):
        code, out, _ = run(capsys, "basis", GOLDEN / "nullary.rules")
        assert code == 0
        assert out.splitlines() == ["{}", "{a}", "{b}"]


class TestCover:
    def test_covered_point_gets_a_subcover(self, capsys):
        code, out, _ = run(capsys, "cover", RULES / "poset.rules", "--point", "top")
        assert code == 0
        assert "top is covered by {bottom}" in out
        assert "subcover: {bottom}" in out

    def test_uncovered_point(self, capsys):
        code, out, _ = run(capsys, "cover", GOLDEN / "no_seed.rules", "--point", "x")
        assert code == 1
        assert "not covered" in out

    def test_truncated_tree_subcover_uses_all_leaves(self, capsys):
        code, out, _ = run(capsys, "cover", RULES / "cantor.rules", "--point", "e")
        assert code == 0
        assert "subcover: {w00, w01, w10, w11}" in out


class TestCheckSquare:
    def test_pullback_square_holds(self, capsys):
        code, out, _ = run(capsys, "check-square", INSTANCES / "square_pullback.json")
        assert code == 0
        report = json.loads(out)
        assert report["kind"] == "square-report"
        assert report["holds"] is True
        assert report["covering"]["holds"] and report["collection"]["holds"]
        assert report["bound"] == 4  # largest f-fiber (2) plus two

    def test_gap_square_reports_the_missing_pair(self, capsys):
        code, out, _ = run(capsys, "check-square", INSTANCES / "square_gap.json")
        assert code == 1
        report = json.loads(out)
        assert report["holds"] is False
        assert report["covering"]["counterexample"]["pair"] == ["b1", "c0"]

    def test_bound_flag_is_echoed(self, capsys):
        code, out, _ = run(capsys, "check-square", INSTANCES / "square_pullback.json", "--bound", "2")
        assert code == 0
        assert json.loads(out)["bound"] == 2

    def test_family_file_is_not_a_square(self, capsys):
        code, _, err = run(capsys, "check-square", INSTANCES / "family_amc.json")
        assert code == 2
        assert "does not contain a square" in err


class TestCheckFamily:
    def test_surjection_family_holds(self, capsys):
        code, out, _ = run(capsys, "check-family", INSTANCES / "family_amc.json")
        assert code == 0
        report = json.loads(out)
        assert report["check"] == "every-surjection-factors"
        assert report["holds"] is True

    def test_empty_family_fails_with_counterexample(self, capsys):
        code, out, _ = run(capsys, "check-family", INSTANCES / "family_empty.json")
        assert code == 1
        report = json.loads(out)
        assert report["holds"] is False
        assert report["counterexample"]["map"] == {"y0": "x0"}

    def test_carrier_list_uses_the_indexed_check(self, capsys):
        code, out, _ = run(capsys, "check-family", INSTANCES / "family_carriers.json")
        assert code == 0
        report = json.loads(out)
        assert report["check"] == "indexed-refinement"
        assert report["holds"] is True

    def test_square_file_is_not_a_family(self, capsys):
        code, _, err = run(capsys, "check-family", INSTANCES / "square_gap.json")
        assert code == 2
        assert "does not contain a family" in err


class TestSelftest:
    def test_all_suites_pass(self, capsys, monkeypatch):
        monkeypatch.setenv("INDKERNEL_SEED", "7")
        code, out, _ = run(capsys, "selftest")
        assert code == 0
        assert out.startswith("selftest seed 7\n")
        lines = out.splitlines()[1:]
        assert lines and all(line.startswith("ok   ") for line in lines)

    def test_seed_must_be_an_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("INDKERNEL_SEED", "xyz")
        code, _, err = run(capsys, "selftest")
        assert code == 2
        assert "INDKERNEL_SEED must be an integer" in err


class TestInputErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "close", "no-such-file.rules")
        assert code == 2
        assert "error:" in err

    def test_parse_error_carries_position(self, capsys, tmp_path):
        bad = tmp_path / "bad.rules"
        bad.write_text("set a\nrule a ->\n")
        code, _, err = run(capsys, "close", bad)
        assert code == 2
        assert "2:8" in err

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "check-square", bad)
        assert code == 2

    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "close", GOLDEN / "chain.rules", "--frobnicate")
        assert code == 2

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "explode")
        assert code == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "close" in out and "selftest" in out

    def test_internal_error_exits_3_with_one_line(self, capsys, monkeypatch):
        def crash(args):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "_cmd_close", crash)
        code, out, err = run(capsys, "close", GOLDEN / "chain.rules")
        assert code == 3
        assert out == ""
        assert err == "internal error: RecursionError: maximum recursion depth exceeded\n"


class TestGoldenCorpus:
    def test_every_golden_file_is_canonical(self):
        files = sorted(GOLDEN.glob("*.rules"))
        assert len(files) >= 6
        for path in files:
            text = path.read_text()
            assert emit(parse_rule_file(text)) == text, path.name

    def test_bundled_rule_files_parse_and_emit_canonically(self):
        for path in sorted(RULES.glob("*.rules")):
            ast = parse_rule_file(path.read_text())
            assert parse_rule_file(emit(ast)) == ast

    def test_exit_codes_across_the_corpus(self, capsys):
        expectations = [
            (("close", GOLDEN / "chain.rules"), 0),
            (("prove", GOLDEN / "chain.rules"), 0),
            (("prove", GOLDEN / "unprovable.rules"), 1),
            (("witness", GOLDEN / "nullary.rules"), 0),
            (("basis", GOLDEN / "bare.rules"), 0),
            (("cover", GOLDEN / "diamond.rules", "--point", "top"), 0),
            (("cover", GOLDEN / "no_seed.rules", "--point", "y"), 1),
            (("check-square", INSTANCES / "square_pullback.json"), 0),
            (("check-square", INSTANCES / "square_gap.json"), 1),
            (("check-family", INSTANCES / "family_empty.json"), 1),
        ]
        for argv, want in expectations:
            code, _, _ = run(capsys, *argv)
            assert code == want, argv
