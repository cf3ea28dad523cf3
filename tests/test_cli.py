"""End-to-end command tests: outputs, exit codes, file handling."""

import inspect
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from indkernel import cli, selftest
from indkernel.cli import run_command
from indkernel.dsl import definition_from_ast, emit, parse_rule_file
from indkernel.jsonio import dumps
from indkernel.proofs import (
    build_proof_signature,
    is_proof,
    proof_from_json,
    proof_to_json,
    synthesize_proof,
)
from indkernel.wtree import Signature

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
RULES = ROOT / "rules"
INSTANCES = ROOT / "instances"
CLI_GOLDEN = GOLDEN / "cli"
ADVERSARIAL = Path(__file__).resolve().parent / "adversarial"


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

    @pytest.mark.parametrize("flags", [(), ("--json",), ("--dot",)], ids=["text", "json", "dot"])
    def test_prove_builds_no_slot_signature(self, flags, capsys, tmp_path, monkeypatch):
        """prove reads each rule's premises from the definition, so it
        prints the same when building a tree Signature fails; the slots
        are still built on demand once that is lifted."""
        path = GOLDEN / "diamond.rules"
        dot = tmp_path / "proof.dot"
        argv = ["prove", path, *flags, *([dot] if flags == ("--dot",) else [])]

        def outputs():
            build_proof_signature.cache_clear()
            code, out, err = run(capsys, *argv)
            return code, out, err, dot.read_text() if dot.exists() else None

        want = outputs()
        dot.unlink(missing_ok=True)

        def no_signature(self):
            raise AssertionError("prove built the slot signature")

        with monkeypatch.context() as patch:
            patch.setattr(Signature, "__post_init__", no_signature)
            got = outputs()
        assert got == want
        assert got[0] == 0
        phi, seed, goal = definition_from_ast(parse_rule_file(path.read_text()))
        psig = build_proof_signature(phi)  # the one the patched run cached
        proof = synthesize_proof(phi, seed, goal)
        assert is_proof(psig, proof)
        assert is_proof(psig, proof_from_json(psig, proof_to_json(psig, proof)))

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

    @pytest.mark.parametrize("command", ["prove", "witness"])
    @pytest.mark.parametrize("goal_line", ["goal b\n", ""], ids=["goal-line", "no-goal-line"])
    def test_an_empty_goal_flag_is_used_not_replaced(self, command, goal_line, capsys, tmp_path):
        path = tmp_path / "g.rules"
        path.write_text("set a b\nrule a -> b\nseed a\n" + goal_line)
        code, out, err = run(capsys, command, path, "--goal", "")
        assert (code, out, err) == (2, "", "error: '' is not an element of {a, b}\n")


    @pytest.mark.parametrize("head", ["", "# rules read by the full parser\n"], ids=["plain", "fallback"])
    def test_duplicate_rule_warning_names_the_cli_load(self, head, capsys, tmp_path):
        """The warning's text, and its location: the line of _load_problem
        that reads the file, whichever path reads it."""
        path = tmp_path / "dup.rules"
        path.write_text(head + "set a b c\nrule a -> b\nrule c -> b\nrule a -> b\nseed a\n")
        lines, start = inspect.getsourcelines(cli._load_problem)
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            assert run(capsys, "close", path) == (0, "{a, b}\n", "")
        assert [(w.category, str(w.message), w.filename, w.lineno) for w in record] == [
            (UserWarning, "dropping duplicate rule {a} -> b", cli.__file__, start + len(lines) - 1)
        ]


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


# stdout of check-square / check-family on every instance, kept byte for
# byte from the search-based checkers; the file names the bound
INSTANCE_EXIT_CODES = {
    "family_amc": 0,
    "family_carriers": 0,
    "family_empty": 1,
    "square_gap": 1,
    "square_pullback": 0,
}


class TestInstanceGoldens:
    def test_every_instance_has_goldens(self):
        assert {p.stem for p in INSTANCES.glob("*.json")} == set(INSTANCE_EXIT_CODES)

    @pytest.mark.parametrize("bound", ["default", "6"])
    @pytest.mark.parametrize("name", sorted(INSTANCE_EXIT_CODES))
    def test_stdout_and_exit_code(self, name, bound, capsys):
        command = "check-square" if name.startswith("square") else "check-family"
        flags = [] if bound == "default" else ["--bound", bound]
        code, out, err = run(capsys, command, INSTANCES / f"{name}.json", *flags)
        assert (code, err) == (INSTANCE_EXIT_CODES[name], "")
        assert out == (CLI_GOLDEN / f"{name}.{bound}.out").read_text()


class TestSharedParser:
    def test_the_parser_is_built_once(self):
        assert cli._parser() is cli._parser()

    def test_consecutive_commands_do_not_share_arguments(self, capsys, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "_cmd_prove", lambda args: seen.append(vars(args)) or 0)
        monkeypatch.setattr(cli, "_cmd_check_family", lambda args: seen.append(vars(args)) or 0)
        chain, family = str(GOLDEN / "chain.rules"), str(INSTANCES / "family_amc.json")
        assert run_command(["prove", chain, "--goal", "b", "--json"]) == 0
        assert run_command(["check-family", family, "--bound", "3"]) == 0
        assert run_command(["prove", chain]) == 0
        assert seen == [
            {"command": "prove", "file": chain, "goal": "b", "dot": None, "json": True},
            {"command": "check-family", "file": family, "bound": 3},
            {"command": "prove", "file": chain, "goal": None, "dot": None, "json": False},
        ]

    def test_outputs_do_not_depend_on_the_command_before(self, capsys):
        argvs = [
            ("prove", GOLDEN / "chain.rules", "--goal", "b", "--json"),
            ("check-family", INSTANCES / "family_amc.json", "--bound", "3"),
            ("prove", GOLDEN / "chain.rules"),
        ]
        first = [run(capsys, *argv) for argv in argvs]
        assert first[0] == (0, dumps({"kind": "rule", "rule": 0, "children": {"a": {"kind": "assume", "element": "a"}}}) + "\n", "")
        assert json.loads(first[1][1])["bound"] == 3
        assert first[2][1].startswith("c  [rule1")
        assert [run(capsys, *argv) for argv in reversed(argvs)] == first[::-1]


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

    def test_failed_and_crashed_suites_are_reported(self, monkeypatch):
        def crash(rng):
            raise ValueError("boom")

        suites = (("fine", lambda rng: (5, None)), ("wrong", lambda rng: (3, "bad verdict")), ("crash", crash))
        monkeypatch.setattr(selftest, "SUITES", suites)
        lines = []
        assert selftest.run_selftest(0, out=lines.append) == 1
        assert lines == [
            "ok   fine (5 cases)",
            "FAIL wrong (case 3): bad verdict",
            "FAIL crash: crashed with ValueError: boom",
        ]


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

    @pytest.mark.parametrize("command", ["check-square", "check-family"])
    def test_json_nested_deeper_than_the_decoder_reads(self, command, capsys):
        path = ADVERSARIAL / "deep_nesting.json"
        code, out, err = run(capsys, command, path)
        assert (code, out, err) == (2, "", f"error: {path}: JSON nested too deeply to read\n")

    @pytest.mark.parametrize(
        "command, doc, message",
        [
            ("check-square", {"kind": "square", "maps": {}}, "square: missing 'carriers'"),
            ("check-square", {"kind": "square", "carriers": [], "maps": {}}, "square: 'carriers' must be a dict"),
            (
                "check-family",
                {"kind": "carrier-family", "carriers": [["a", 1]]},
                "carrier 0: expected a list of element names",
            ),
            (
                "check-square",
                {
                    "kind": "square",
                    "carriers": {"A": ["a"], "B": ["b"], "C": ["c"], "D": ["d"]},
                    "maps": {"f": {"b": 1}, "p": {"c": "a"}, "g": {"d": "c"}, "q": {"d": "b"}},
                },
                "map f: expected an object of element -> element",
            ),
            (
                "check-family",
                {"kind": "surjection-family", "base": ["a"], "members": [["a"]]},
                "family member 0: expected an object",
            ),
            ("check-square", ["square"], "{path}: expected a JSON object"),
            ("check-family", {"kind": "cube"}, "{path}: unknown kind 'cube'"),
        ],
        ids=[
            "missing-key", "wrong-type", "carrier-names", "map-names", "member-object", "document-object", "unknown-kind"
        ],
    )
    def test_documents_outside_the_schema(self, command, doc, message, capsys, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, command, path)
        assert (code, out, err) == (2, "", f"error: {message.format(path=path)}\n")

    @pytest.mark.parametrize(
        "command, name, message",
        [
            ("check-square", "square_gap.json", "bound must be at least 1"),
            ("check-family", "family_amc.json", "bound must be at least the size of the base"),
            ("check-family", "family_carriers.json", "bound must be at least 1"),
        ],
    )
    def test_bound_below_its_minimum(self, command, name, message, capsys):
        code, out, err = run(capsys, command, INSTANCES / name, "--bound", "0")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["close"], "not_utf8.rules"),
            (["prove"], "not_utf8.rules"),
            (["cover", "--point", "a"], "not_utf8.rules"),
            (["check-square"], "not_utf8.json"),
            (["check-family"], "not_utf8.json"),
        ],
        ids=["close", "prove", "cover", "check-square", "check-family"],
    )
    def test_file_that_is_not_utf8(self, argv, name, capsys):
        path = ADVERSARIAL / name
        code, out, err = run(capsys, argv[0], path, *argv[1:])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: not UTF-8 text") and err.count("\n") == 1

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


class TestModuleEntryPoints:
    """python -m indkernel.cli and python -m indkernel run the CLI."""

    def python_m(self, *argv):
        src = str(ROOT / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        return subprocess.run([sys.executable, "-m", *argv], capture_output=True, text=True, env=env, timeout=60)

    def test_cli_module(self):
        done = self.python_m("indkernel.cli", "prove", str(GOLDEN / "unprovable.rules"))
        assert (done.returncode, done.stdout) == (1, "unprovable\n")

    def test_package_without_a_command_is_bad_usage(self):
        done = self.python_m("indkernel")
        assert done.returncode == 2
        assert "required: command" in done.stderr


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

    @pytest.mark.parametrize("command", ["check-square", "check-family"])
    def test_no_adversarial_instance_is_an_internal_error(self, command, capsys):
        for path in sorted(ADVERSARIAL.glob("*.json")):
            code, _, err = run(capsys, command, path)
            assert code in (0, 1, 2) and err.count("\n") <= 1, (path.name, err)
