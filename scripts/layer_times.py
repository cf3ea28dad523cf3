#!/usr/bin/env python3
"""Time each layer of a one-shot rule-file run at four sizes.

The layers are parse (parse_rule_file), build (definition_from_ast),
load (the CLI's cli._load_problem on the rule file: read, then the
rule-file reader straight into the rule store's columns), load_commented
(the same load of the same system with a comment line as every 20th
line and 10 rules written with a glued arrow, 'a->b', the lines a
reader cannot take from str.split alone), closure,
cold synthesize_proof (a fresh definition and an empty proof
signature cache, as in a one-shot CLI run), cold witness, render_proof
of that proof, cold build_proof_signature, and is_proof and the
proof_from_json(proof_to_json(...)) round trip of that proof, each on
a fresh ProofSignature, as a one-shot check of a proof runs. The
inputs are seeded random systems from bench/inputs.py: n elements and
5n rules of 0-3 premises, at n = 1k (the largest size of the
benchmark's rules-cli files), 2.5k, 5k and 10k, a seed of about 2% of
the elements and a goal from the last closure stage. Each time is the
minimum of five rounds, each of which runs every layer in turn. Each
layer also gets its growth exponent log(t(m) / t(n)) / log(m / n)
between consecutive sizes n < m; 1 means linear. load_commented / load
is printed at every size.

The warm walks (ass, is_proof, proof_to_json, render_proof and
proof_to_dot) run over the synthesized proof of the last element of a
chain of 500 and of a 14-rung ladder (bench/inputs.py), on a signature
that has walked that proof once already, as the library queries of a
long-lived process do; each time is the minimum of 20 runs.

The square and family layers run check-family's work on the carrier
family of sizes 1..7 (bench/inputs.py) and on a seeded surjection
family of base 7 with two members, at bounds 11, 13 and 15: the
library report with its witness dicts (report, record=True), the CLI's
text of the report from the loaded instance (write: jsonio.dumps of
the scan's report, which holds its witness plan; in older trees, whose
scan returns the report and the plan apart, jsonio.dumps_witnessed, or
without a scan the recorded report and jsonio.dumps), and run_command
end to end, stdout captured. Each time is the minimum of five rounds,
and is also given per listed witness.

The indkernel measured is the one under --src (the checkout's src/ by
default), so two checkouts can be compared. The results are printed
and merged into the JSON file --out under --label, next to the labels
already there, for a BENCH_*.json trajectory file:

    python scripts/layer_times.py --label change --out BENCH_n.json
    python scripts/layer_times.py --src ../parent/src --label parent --out BENCH_n.json
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import platform
import sys
import tempfile
import time
from pathlib import Path
from random import Random

ROOT = Path(__file__).resolve().parent.parent
SIZES = (1000, 2500, 5000, 10000)
SEED = 7
REPEAT = 5
WALKS = ("ass", "is_proof", "proof_to_json", "render_proof", "proof_to_dot")
WALK_INPUTS = {"chain500": ("chain", 500, 1), "ladder14": ("ladder", 14, 2)}  # generator, size, seed elements
WALK_REPEAT = 20
FAMILY_BOUNDS = (11, 13, 15)
FAMILY_LAYERS = ("report", "write", "run_command")
LAYERS = (
    "parse", "build", "load", "load_commented", "closure", "synthesize_proof", "witness", "render_proof",
    "build_proof_signature", "is_proof", "json_round_trip",
)


def best_of_each(runs: dict, repeat: int = REPEAT) -> dict[str, float]:
    """The least wall time of each run(prepare()) in runs (name -> (run,
    prepare)) over repeat rounds; prepare is untimed. Each round takes
    every run in turn, so a swing in machine speed hits them alike and
    their ratios hold."""
    best = dict.fromkeys(runs, math.inf)
    for _ in range(repeat):
        for name, (run, prepare) in runs.items():
            arg = prepare()
            start = time.perf_counter()
            run(arg)
            best[name] = min(best[name], time.perf_counter() - start)
    return best


def best_of(run, prepare=lambda: None, repeat: int = REPEAT) -> float:
    """The least wall time of run(prepare()) over repeat tries."""
    return best_of_each({"": (run, prepare)}, repeat)[""]


def commented(text: str) -> str:
    """The rule file with a comment line as every 20th line and the arrows
    of 10 rules, spread over the file, glued to their names."""
    lines = text.splitlines()
    rules = [i for i, line in enumerate(lines) if line.startswith("rule ")]
    for i in rules[:: max(1, len(rules) // 10)][:10]:
        lines[i] = lines[i].replace(" -> ", "->")
    out: list[str] = []
    for line in lines:
        if len(out) % 20 == 19:
            out.append(f"# line {len(out) + 1}")
        out.append(line)
    return "".join(line + "\n" for line in out)


def time_layers(n: int, work: Path) -> dict[str, float]:
    import inputs
    from indkernel import cli, dsl, inddef, proofs

    rng = Random(f"{SEED}:{n}")
    names, rules = inputs.random_system(rng, n, 5 * n)
    start = inputs.random_seed(rng, names)
    text = inputs.rule_file(names, rules, start)
    path = work / f"random{n}.rules"
    path.write_text(text)
    commented_path = work / f"random{n}-commented.rules"
    commented_path.write_text(commented(text))
    ast = dsl.parse_rule_file(text)
    phi, u, _ = dsl.definition_from_ast(ast)
    stages = inddef.closure_stages(phi, u)
    last = stages[-1] if len(stages) == 1 else stages[-1] - stages[-2]
    goal = rng.choice(last.names())

    def fresh():
        proofs.build_proof_signature.cache_clear()
        return dsl.definition_from_ast(ast)[0]

    proof = proofs.synthesize_proof(phi, u, goal)
    psig = proofs.build_proof_signature(phi)
    nothing = lambda: None
    times = best_of_each({
        "parse": (lambda _: dsl.parse_rule_file(text), nothing),
        "build": (lambda _: dsl.definition_from_ast(ast), nothing),
        "load": (lambda _: cli._load_problem(str(path)), nothing),
        "load_commented": (lambda _: cli._load_problem(str(commented_path)), nothing),
        "closure": (lambda _: inddef.closure(phi, u), nothing),
        "synthesize_proof": (lambda p: proofs.synthesize_proof(p, u, goal), fresh),
        "witness": (lambda p: proofs.witness(p, u, goal), fresh),
        "render_proof": (lambda _: proofs.render_proof(psig, proof), nothing),
        "build_proof_signature": (proofs.build_proof_signature, fresh),
        "is_proof": (lambda s: proofs.is_proof(s, proof), lambda: proofs.ProofSignature(phi)),
        "json_round_trip": (
            lambda s: proofs.proof_from_json(s, proofs.proof_to_json(s, proof)), lambda: proofs.ProofSignature(phi)
        ),
    })
    proofs.build_proof_signature.cache_clear()
    return times


def time_walks() -> dict[str, dict[str, float]]:
    import inputs
    from indkernel import dsl, proofs

    times: dict[str, dict[str, float]] = {walk: {} for walk in WALKS}
    for name, (shape, size, seeded) in WALK_INPUTS.items():
        names, rules = getattr(inputs, shape)(size)
        text = inputs.rule_file(names, rules, names[:seeded], names[-1])
        phi, u, goal = dsl.definition_from_ast(dsl.parse_rule_file(text))
        proof = proofs.synthesize_proof(phi, u, goal)
        psig = proofs.build_proof_signature(phi)
        for walk in WALKS:
            run = getattr(proofs, walk)
            run(psig, proof)
            times[walk][name] = best_of(lambda _: run(psig, proof), repeat=WALK_REPEAT)
    proofs.build_proof_signature.cache_clear()
    return times


def time_families(work: Path) -> dict[str, dict]:
    import inputs
    from indkernel import cli, jsonio, squares

    docs = {
        "carriers1-7": inputs.carrier_family(7),
        "surjections7": inputs.surjection_family(Random(f"{SEED}:family"), 7, 2),
    }
    out = {}
    for name, doc in docs.items():
        path = work / f"{name}.json"
        path.write_text(json.dumps(doc))
        instance = jsonio.load_instance(path)
        carriers = doc["kind"] == "carrier-family"
        report = squares.collection_family_report if carriers else squares.amc_family_report
        check = "indexed-refinement" if carriers else "every-surjection-factors"

        scan = getattr(squares, "_collection_family_scan" if carriers else "_amc_family_scan", None)
        if scan is not None and isinstance(scan(instance, FAMILY_BOUNDS[0]), dict):  # the plan sits in the report

            def write(b):
                return jsonio.dumps({"kind": "family-report", "check": check, **scan(instance, b)})
        elif scan is not None:  # the scan gives the report and its plan apart

            def write(b):
                head, plan = scan(instance, b)
                return jsonio.dumps_witnessed({"kind": "family-report", "check": check, **head}, 1, plan)
        else:  # a tree without the writer: the CLI dumped the recorded report

            def write(b):
                return jsonio.dumps({"kind": "family-report", "check": check, **report(instance, b, record=True)})

        def run(b):
            with contextlib.redirect_stdout(io.StringIO()):
                cli.run_command(["check-family", str(path), "--bound", str(b)])

        for b in FAMILY_BOUNDS:
            times = best_of_each({
                "report": (lambda _: report(instance, b, record=True), lambda: None),
                "write": (lambda _: write(b), lambda: None),
                "run_command": (lambda _: run(b), lambda: None),
            })
            out[f"{name}@{b}"] = {"witnesses": len(report(instance, b, record=True)["witnesses"]), "seconds": times}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding the indkernel package")
    parser.add_argument("--label", required=True, help="name of this run in the JSON file")
    parser.add_argument("--out", required=True, help="JSON file to merge the results into")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(Path(args.src).resolve()), str(ROOT / "bench")]

    with tempfile.TemporaryDirectory() as work:
        by_size = {n: time_layers(n, Path(work)) for n in SIZES}
    growth = {
        layer: {
            f"{n}->{m}": round(math.log(by_size[m][layer] / by_size[n][layer]) / math.log(m / n), 3)
            for n, m in zip(SIZES, SIZES[1:])
        }
        for layer in LAYERS
    }
    print(f"{'layer':22s}" + "".join(f"{f'{n}/{5 * n}':>14s}" for n in SIZES) + "  growth")
    for layer in LAYERS:
        cells = "".join(f"{by_size[n][layer] * 1e3:11.2f} ms" for n in SIZES)
        print(f"{layer:22s}{cells}  " + " ".join(f"{g:.2f}" for g in growth[layer].values()))
    big = SIZES[-1]
    print(f"build / parse at {big}/{5 * big}: {by_size[big]['build'] / by_size[big]['parse']:.2f}")
    for n in SIZES:
        t = by_size[n]
        print(
            f"load / (parse + build) at {n}/{5 * n}: {t['load'] / (t['parse'] + t['build']):.2f}; "
            f"load / closure: {t['load'] / t['closure']:.2f}; "
            f"load_commented / load: {t['load_commented'] / t['load']:.2f}"
        )
    walks = time_walks()
    print(f"{'warm walk':22s}" + "".join(f"{name:>14s}" for name in WALK_INPUTS))
    for walk in WALKS:
        print(f"{walk:22s}" + "".join(f"{walks[walk][name] * 1e3:11.3f} ms" for name in WALK_INPUTS))

    with tempfile.TemporaryDirectory() as work:
        families = time_families(Path(work))
    print(f"{'family@bound':22s}{'witnesses':>10s}" + "".join(f"{layer:>24s}" for layer in FAMILY_LAYERS))
    for case, row in families.items():
        cells = "".join(
            f"{row['seconds'][layer] * 1e3:10.1f} ms {row['seconds'][layer] / row['witnesses'] * 1e6:6.1f} us/w"
            for layer in FAMILY_LAYERS
        )
        print(f"{case:22s}{row['witnesses']:10d}{cells}")

    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc.setdefault("runs", {})[args.label] = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "seed": SEED,
        "repeat": REPEAT,
        "seconds": {layer: {str(n): by_size[n][layer] for n in SIZES} for layer in LAYERS},
        "growth_exponent": growth,
        "warm_walk_seconds": walks,
        "walk_repeat": WALK_REPEAT,
        "family_layers": families,
    }
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
