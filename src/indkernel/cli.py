"""Command-line frontend.

Subcommands:

    close FILE                     print the closure of the seed
    prove FILE [--goal X] [--dot PATH] [--json]
    witness FILE [--goal X]        print a compact assumption set
    basis FILE                     print every possible assumption set
    cover FILE --point A           covering check plus subcover
    check-square FILE.json [--bound N]
    check-family FILE.json [--bound N]
    selftest                       run the randomized invariant suites

Exit codes: 0 success / property holds, 1 unprovable / check fails,
2 bad input (parse errors, schema errors, unknown flags), 3 internal
error (any other exception, reported on one stderr line). Output is
deterministic; selftest's generators are seeded from INDKERNEL_SEED.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Sequence

from . import dsl, inddef, jsonio, proofs, selftest, squares, topology
from .errors import IndkernelError
from .squares import SurjectionFamily


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="indkernel",
        description="Fixpoints of finite rule systems, their derivations, and square checkers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    close = sub.add_parser("close", help="print the closure of the seed")
    close.add_argument("file")
    close.set_defaults(handler=_cmd_close)

    prove = sub.add_parser("prove", help="derive the goal from the seed")
    prove.add_argument("file")
    prove.add_argument("--goal", help="overrides the file's goal line")
    prove.add_argument("--dot", metavar="PATH", help="also write the derivation as DOT")
    prove.add_argument("--json", action="store_true", help="print the derivation as JSON")
    prove.set_defaults(handler=_cmd_prove)

    wit = sub.add_parser("witness", help="print a compact assumption set for the goal")
    wit.add_argument("file")
    wit.add_argument("--goal", help="overrides the file's goal line")
    wit.set_defaults(handler=_cmd_witness)

    basis = sub.add_parser("basis", help="print all assumption sets derivations can have")
    basis.add_argument("file")
    basis.set_defaults(handler=_cmd_basis)

    cover = sub.add_parser("cover", help="read rules as cover axioms and check a point")
    cover.add_argument("file")
    cover.add_argument("--point", required=True, help="the open to cover")
    cover.set_defaults(handler=_cmd_cover)

    csq = sub.add_parser("check-square", help="covering and collection checks on a square")
    csq.add_argument("file")
    csq.add_argument("--bound", type=int, default=None)
    csq.set_defaults(handler=_cmd_check_square)

    cfam = sub.add_parser("check-family", help="factorization checks on a family")
    cfam.add_argument("file")
    cfam.add_argument("--bound", type=int, default=None)
    cfam.set_defaults(handler=_cmd_check_family)

    st = sub.add_parser("selftest", help="run the randomized invariant suites")
    st.set_defaults(handler=_cmd_selftest)

    return parser


def _load_problem(path: str):
    ast = dsl.parse_rule_file(Path(path).read_text())
    return dsl.definition_from_ast(ast)


def _pick_goal(args, file_goal: str | None) -> str:
    goal = args.goal or file_goal
    if goal is None:
        raise IndkernelError("no goal: pass --goal or add a goal line to the file")
    return goal


def _cmd_close(args) -> int:
    phi, seed, _ = _load_problem(args.file)
    print(inddef.closure(phi, seed))
    return 0


def _cmd_prove(args) -> int:
    phi, seed, file_goal = _load_problem(args.file)
    goal = _pick_goal(args, file_goal)
    proof = proofs.synthesize_proof(phi, seed, goal)
    if proof is None:
        print("unprovable")
        return 1
    psig = proofs.build_proof_signature(phi)
    if args.dot:
        Path(args.dot).write_text(proofs.proof_to_dot(psig, proof))
    if args.json:
        print(json.dumps(proofs.proof_to_json(psig, proof), indent=2))
    else:
        print(proofs.render_proof(psig, proof))
    return 0


def _cmd_witness(args) -> int:
    phi, seed, file_goal = _load_problem(args.file)
    goal = _pick_goal(args, file_goal)
    v = proofs.witness(phi, seed, goal)
    if v is None:
        print("unprovable")
        return 1
    print(v)
    return 0


def _cmd_basis(args) -> int:
    phi, _, _ = _load_problem(args.file)
    for v in sorted(proofs.compactness_basis(phi), key=lambda s: (len(s), s.names())):
        print(v)
    return 0


def _cmd_cover(args) -> int:
    ast = dsl.parse_rule_file(Path(args.file).read_text())
    cp, seed, _ = dsl.presentation_from_ast(ast)
    v = topology.compact_subcover(cp, args.point, seed)
    if v is None:
        print(f"{args.point} is not covered by {seed}")
        return 1
    print(f"{args.point} is covered by {seed}")
    print(f"subcover: {v}")
    return 0


def _cmd_check_square(args) -> int:
    sq = jsonio.load_instance(args.file)
    if not isinstance(sq, squares.Square):
        raise IndkernelError(f"{args.file} does not contain a square")
    covering = squares.covering_report(sq)
    collection = squares.collection_report(sq, args.bound, record=True)
    report = {
        "kind": "square-report",
        "bound": collection["bound"],
        "covering": covering,
        "collection": collection,
        "holds": covering["holds"] and collection["holds"],
    }
    print(json.dumps(report, indent=2))
    return 0 if report["holds"] else 1


def _cmd_check_family(args) -> int:
    fam = jsonio.load_instance(args.file)
    if isinstance(fam, SurjectionFamily):
        report = squares.amc_family_report(fam, args.bound, record=True)
        report = {"kind": "family-report", "check": "every-surjection-factors", **report}
    elif isinstance(fam, list):
        report = squares.collection_family_report(fam, args.bound, record=True)
        report = {"kind": "family-report", "check": "indexed-refinement", **report}
    else:
        raise IndkernelError(f"{args.file} does not contain a family")
    print(json.dumps(report, indent=2))
    return 0 if report["holds"] else 1


def _cmd_selftest(args) -> int:
    raw = os.environ.get("INDKERNEL_SEED", "0")
    try:
        seed = int(raw)
    except ValueError:
        raise IndkernelError(f"INDKERNEL_SEED must be an integer, got {raw!r}") from None
    print(f"selftest seed {seed}")
    return selftest.run_selftest(seed)


def run_command(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        # argparse exits 2 on bad usage and 0 on --help; keep its codes
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except IndkernelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a crash must not pass for a verdict or bad input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))
