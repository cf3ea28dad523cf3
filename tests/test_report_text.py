"""check-square and check-family print reports whose witness lists are
plans (squares._Plan), which jsonio.dumps writes as text in place.
Their stdout must be the bytes dumps writes for the library's report
with record=True inside the head dict that cli.py puts around it, and
must read back as the report the search in tests/oracles.py finds.
Names carry the escaper's cases (quotes, backslashes, non-ASCII) and
percent signs. A fiber or base of t elements at bound b lists exactly
C(b, t) witnesses."""

import json
from math import comb
from pathlib import Path
from random import Random

from indkernel.cli import run_command
from indkernel.finite import Carrier, identity
from indkernel.gen import all_squares, named_carrier, random_square, random_surjection_family
from indkernel.jsonio import dumps, load_instance
from indkernel.squares import (
    Square,
    SurjectionFamily,
    amc_family_report,
    collection_family_report,
    collection_report,
    covering_report,
)

from oracles import amc_family_report_by_search, collection_family_report_by_search, collection_report_by_search

ROOT = Path(__file__).resolve().parent.parent
INSTANCES = sorted((ROOT / "instances").glob("*.json")) + sorted((ROOT / "tests" / "adversarial").glob("empty_*.json"))
ODD = ('q"', "b\\s", "ünï", "☃", "%s%%", " ", "\t")
LEGS = {"f": ("B", "A"), "p": ("C", "A"), "g": ("D", "C"), "q": ("D", "B")}


def odd_names(names, rng: Random) -> list[str]:
    """names, about half of them prefixed with an odd string (still distinct)."""
    return [rng.choice(ODD) + n if rng.random() < 0.5 else n for n in names]


def square_doc(sq: Square, rng: Random) -> dict:
    new = {c: dict(zip(getattr(sq, c).names, odd_names(getattr(sq, c).names, rng))) for c in "ABCD"}
    maps = {
        leg: {new[dom][x]: new[cod][y] for x, y in getattr(sq, leg).to_mapping().items()}
        for leg, (dom, cod) in LEGS.items()
    }
    return {"kind": "square", "carriers": {c: list(new[c].values()) for c in "ABCD"}, "maps": maps}


def family_doc(fam: SurjectionFamily, rng: Random) -> dict:
    base = odd_names(fam.base.names, rng)
    members = []
    for m in fam.members:
        dom = odd_names(m.dom.names, rng)
        members.append({"domain": dom, "map": {y: base[t] for y, t in zip(dom, m.table)}})
    return {"kind": "surjection-family", "base": base, "members": members}


def cli(capsys, command: str, path: Path, bound: int | None):
    code = run_command([command, str(path)] + ([] if bound is None else ["--bound", str(bound)]))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def check_square(capsys, path: Path, bound: int | None) -> dict | None:
    """The square report of path at bound, checked three ways; None when
    the bound is below its minimum."""
    code, out, err = cli(capsys, "check-square", path, bound)
    if bound is not None and bound < 1:
        assert (code, out, err) == (2, "", "error: bound must be at least 1\n")
        return None
    sq = load_instance(path)
    covering = covering_report(sq)
    collection = collection_report(sq, bound, record=True)
    report = {
        "kind": "square-report",
        "bound": collection["bound"],
        "covering": covering,
        "collection": collection,
        "holds": covering["holds"] and collection["holds"],
    }
    assert (code, out, err) == (0 if report["holds"] else 1, dumps(report) + "\n", "")
    assert json.loads(out)["collection"] == collection_report_by_search(sq, collection["bound"], record=True)
    return report


def check_family(capsys, path: Path, bound: int | None) -> dict | None:
    """The family report of path at bound, checked three ways; None when
    the bound is below its minimum."""
    code, out, err = cli(capsys, "check-family", path, bound)
    fam = load_instance(path)
    if isinstance(fam, SurjectionFamily):
        report, search, least = amc_family_report, amc_family_report_by_search, len(fam.base)
        check = "every-surjection-factors"
    else:
        report, search, least = collection_family_report, collection_family_report_by_search, 1
        check = "indexed-refinement"
    if bound is not None and bound < least:
        assert (code, out) == (2, "") and err.startswith("error: bound must be at least")
        return None
    report = {"kind": "family-report", "check": check, **report(fam, bound, record=True)}
    assert (code, out, err) == (0 if report["holds"] else 1, dumps(report) + "\n", "")
    assert json.loads(out) == {"kind": "family-report", "check": check, **search(fam, report["bound"], record=True)}
    return report


class TestTextEqualsTheLibraryAndTheSearch:
    def test_seeded_random_squares(self, tmp_path, capsys):
        rng = Random(31)
        path = tmp_path / "square.json"
        seen = set()
        for _ in range(40):
            sq = random_square(rng)
            path.write_text(json.dumps(square_doc(sq, rng)))
            top = max(map(len, sq.f._fibers), default=0)
            for bound in [None, *range(0, top + 9)]:
                report = check_square(capsys, path, bound)
                if report is not None:
                    collection = report["collection"]
                    seen.add("fails" if collection["counterexample"] else "holds")
                    seen.add("skips" if collection["skipped"] else "")
        assert seen >= {"fails", "holds", "skips"}

    def test_sampled_squares_of_size_three(self, tmp_path, capsys):
        rng = Random(37)
        picks = set(rng.sample(range(74112), 60))
        path = tmp_path / "square.json"
        for k, sq in enumerate(all_squares(3)):
            if k in picks:
                path.write_text(json.dumps(square_doc(sq, rng)))
                for bound in [None, *range(1, max(map(len, sq.f._fibers), default=0) + 9)]:
                    check_square(capsys, path, bound)

    def test_seeded_surjection_families(self, tmp_path, capsys):
        rng = Random(41)
        path = tmp_path / "family.json"
        verdicts = set()
        for _ in range(30):
            fam = random_surjection_family(rng)
            path.write_text(json.dumps(family_doc(fam, rng)))
            for bound in [None, *range(len(fam.base) - 1, len(fam.base) + 9)]:
                report = check_family(capsys, path, bound)
                if report is not None:
                    verdicts.add(report["holds"])
        assert verdicts == {False, True}

    def test_carrier_families_with_empty_carriers(self, tmp_path, capsys):
        rng = Random(43)
        path = tmp_path / "carriers.json"
        empty = 0
        for _ in range(30):
            sizes = [rng.choice([0, 0, 1, 2, 3]) for _ in range(rng.randint(0, 4))]
            carriers = [odd_names([f"y{i}_{k}" for k in range(n)], rng) for i, n in enumerate(sizes)]
            empty += 0 in sizes
            path.write_text(json.dumps({"kind": "carrier-family", "carriers": carriers}))
            for bound in [None, *range(0, max(sizes, default=0) + 9)]:
                check_family(capsys, path, bound)
        assert empty

    def test_instances_and_empty_adversarial_files(self, capsys):
        for path in INSTANCES:
            kind = json.loads(path.read_text())["kind"]
            if kind == "square":
                sq = load_instance(path)
                for bound in [None, *range(0, max(map(len, sq.f._fibers), default=0) + 9)]:
                    check_square(capsys, path, bound)
            else:
                fam = load_instance(path)
                base = len(fam.base) if kind == "surjection-family" else max(map(len, fam), default=0)
                for bound in [None, *range(0, base + 9)]:
                    check_family(capsys, path, bound)


def witness_count(capsys, tmp_path, doc: dict, bound: int) -> int:
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    command = "check-square" if doc["kind"] == "square" else "check-family"
    code = run_command([command, str(path), "--bound", str(bound)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    return len((report["collection"] if command == "check-square" else report)["witnesses"])


class TestWitnessCounts:
    """One witness per tuple of fiber sizes (k_1 .. k_t), each k >= 1 and
    their sum m <= b: C(m - 1, t - 1) tuples for each m, C(b, t) in all."""

    def test_a_fiber_or_base_of_t_elements_lists_binomial_b_t(self, tmp_path, capsys):
        for t in range(6):
            names = [f"x{i}" for i in range(t)]
            ds = [f"d{i}" for i in range(t)]
            one_fiber = {
                "kind": "square",
                "carriers": {"A": ["a"], "B": names, "C": ["c"], "D": ds},
                "maps": {
                    "f": dict.fromkeys(names, "a"),
                    "p": {"c": "a"},
                    "g": dict.fromkeys(ds, "c"),
                    "q": dict(zip(ds, names)),
                },
            }
            member = {"domain": names, "map": dict(zip(names, names))}
            for bound in range(max(t, 1), t + 9):
                want = comb(bound, t)
                assert witness_count(capsys, tmp_path, one_fiber, bound) == want
                assert witness_count(capsys, tmp_path, {"kind": "carrier-family", "carriers": [names]}, bound) == want
                family = {"kind": "surjection-family", "base": names, "members": [member]}
                assert witness_count(capsys, tmp_path, family, bound) == want
                ys = [named_carrier(t)]
                assert len(collection_family_report(ys, bound, record=True)["witnesses"]) == want
                base = named_carrier(t)
                amc = amc_family_report(SurjectionFamily(base, (identity(base),)), bound, record=True)
                assert len(amc["witnesses"]) == want
            for bound in range(1, t):  # the fiber is skipped
                assert witness_count(capsys, tmp_path, one_fiber, bound) == 0

    def test_carrier_family_of_sizes_one_to_seven_at_bound_fifteen(self, tmp_path, capsys):
        carriers = [[f"z{i}" for i in range(k)] for k in range(1, 8)]
        doc = {"kind": "carrier-family", "carriers": carriers}
        assert witness_count(capsys, tmp_path, doc, 15) == sum(comb(15, t) for t in range(1, 8)) == 16383
        ys = [Carrier(tuple(c)) for c in carriers]
        assert len(collection_family_report(ys, 15, record=True)["witnesses"]) == 16383
