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
2 bad input (parse errors, schema errors, bounds below their minimum,
files that are not UTF-8, unknown flags), 3 internal error (any other
exception, reported on one stderr line). Every JSON document goes
through jsonio.dumps: check-square and check-family print the
library's reports as with record=True, but hand dumps each report's
witness plan, which it writes as text with no dict per witness.
Output is deterministic;
selftest's generators are seeded from INDKERNEL_SEED. Also runs as
python -m indkernel.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path
from typing import Sequence

from . import dsl, inddef, jsonio, proofs, selftest, squares
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

    prove = sub.add_parser("prove", help="derive the goal from the seed")
    prove.add_argument("file")
    prove.add_argument("--goal", help="overrides the file's goal line")
    prove.add_argument("--dot", metavar="PATH", help="also write the derivation as DOT")
    prove.add_argument("--json", action="store_true", help="print the derivation as JSON")

    wit = sub.add_parser("witness", help="print a compact assumption set for the goal")
    wit.add_argument("file")
    wit.add_argument("--goal", help="overrides the file's goal line")

    basis = sub.add_parser("basis", help="print all assumption sets derivations can have")
    basis.add_argument("file")

    cover = sub.add_parser("cover", help="read rules as cover axioms and check a point")
    cover.add_argument("file")
    cover.add_argument("--point", required=True, help="the open to cover")

    csq = sub.add_parser("check-square", help="covering and collection checks on a square")
    csq.add_argument("file")
    csq.add_argument("--bound", type=int, default=None)

    cfam = sub.add_parser("check-family", help="factorization checks on a family")
    cfam.add_argument("file")
    cfam.add_argument("--bound", type=int, default=None)

    sub.add_parser("selftest", help="run the randomized invariant suites")

    return parser


def _load_problem(path: str):
    text = jsonio.read_text(path)
    return dsl._read_problem(text)


def _pick_goal(args, file_goal: str | None) -> str:
    goal = file_goal if args.goal is None else args.goal
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
        print(jsonio.dumps(proofs.proof_to_json(psig, proof)))
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
    phi, seed, _ = _load_problem(args.file)  # the rules read as cover axioms
    v = proofs.witness(phi, seed, args.point)
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
    collection = squares._collection_scan(sq, args.bound)
    report = {
        "kind": "square-report",
        "bound": collection["bound"],
        "covering": covering,
        "collection": collection,
        "holds": covering["holds"] and collection["holds"],
    }
    print(jsonio.dumps(report))
    return 0 if report["holds"] else 1


def _cmd_check_family(args) -> int:
    fam = jsonio.load_instance(args.file)
    if isinstance(fam, SurjectionFamily):
        check = "every-surjection-factors"
        report = squares._amc_family_scan(fam, args.bound)
    elif isinstance(fam, list):
        check = "indexed-refinement"
        report = squares._collection_family_scan(fam, args.bound)
    else:
        raise IndkernelError(f"{args.file} does not contain a family")
    report = {"kind": "family-report", "check": check, **report}
    print(jsonio.dumps(report))
    return 0 if report["holds"] else 1


def _cmd_selftest(args) -> int:
    raw = os.environ.get("INDKERNEL_SEED", "0")
    try:
        seed = int(raw)
    except ValueError:
        raise IndkernelError(f"INDKERNEL_SEED must be an integer, got {raw!r}") from None
    print(f"selftest seed {seed}")
    return selftest.run_selftest(seed)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later command;
    each parse_args call fills a fresh Namespace."""
    return build_parser()


def run_command(argv: Sequence[str]) -> int:
    try:
        args = _parser().parse_args(list(argv))
    except SystemExit as exc:
        # argparse exits 2 on bad usage and 0 on --help; keep its codes
        return int(exc.code or 0)
    # looked up on each call, not stored in the shared parser
    handler = globals()["_cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except (IndkernelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a crash must not pass for a verdict or bad input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
