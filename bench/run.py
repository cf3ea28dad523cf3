"""Benchmark for indkernel: three seeded workloads, closed loop, one client.

    python3 bench/run.py --workload rules-cli --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
src/. Each workload builds a fixed schedule of operations from its
seed during set-up (repeated setup_repeats times; setup_s is the
median), then cycles through it in one thread, one operation at a
time, until the operations have used --seconds of wall time. Every
answer is checked against check.py, which shares no code with
indkernel; an operation run again must print the same bytes.

Probe operations (derive-queries' proofs and witnesses on the longest
chain, deep enough to reach the engines' recursion limits) run once,
untimed, between set-up and the loop. Their failures are reported on
"defect" lines and as the per-layer metric proofs.deep_chain_failures,
not in the result's failed count, so that the timed workload itself has
no failing operation and its counts repeat from run to run. A wrong
answer from a probe still makes the run incorrect.

--trace 0 prints every end-to-end metric, computed over every
operation run, with times rescaled to a reference speed (see Speed).
--trace 1 first runs the schedule untraced for half the time, then
replays the same operations with every traced function wrapped
(tracing.py) and prints the per-module metrics, including the overhead
the wrappers added. Both print "metric NAME VALUE UNIT" lines, a run
record and a digest of every operation's first output, and end with
one JSON line: correct, attempted, failed, metrics. Inputs, and spans
of a traced run, are written to .bench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from types import SimpleNamespace
from typing import Callable

import check
import inputs
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# An operation still running after this long is stopped and counted as
# failed. Failed operations rank as taking this long in the latency
# percentiles, so they miss every latency limit below it.
OP_TIMEOUT_S = 15.0

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
}


# The machine this runs on is shared, and its speed for one thread swings
# by half from second to second (measured on a 2-vCPU VM: a fixed query
# read 7 ms or 11 ms in alternating 5-second windows). Every time the
# benchmark reports is therefore rescaled to a reference speed: Speed
# times calibration_loop() before and after each measured span, and every
# SAMPLE_EVERY_S of CPU time inside it, and multiplies the span's time by
# CALIBRATION_REF_S over the median calibration time. Rescaled, the same
# query read within 6% across those windows.
CALIBRATION_REF_S = 0.0013
SAMPLE_EVERY_S = 0.1


def calibration_loop() -> int:
    """Fixed interpreter work like the engines': tuples, dicts, hashing, bit ops."""
    table: dict = {}
    acc = 0
    for i in range(3000):
        key = (i, i & 7, str(i & 63))
        table[key[2]] = table.get(key[2], 0) + (i >> 3)
        acc ^= hash(key) & 0xFFFF
    return acc


@dataclass
class Span:
    raw_wall: float = 0.0  # seconds as measured, calibration excluded
    wall: float = 0.0  # at reference speed
    cpu: float = 0.0  # user + system, at reference speed


class Speed:
    """Measures spans of code in reference-speed seconds (see CALIBRATION_REF_S)."""

    def __init__(self, sample_every: float | None = SAMPLE_EVERY_S):
        self.sample_every = sample_every
        self.last = self._sample()
        self._samples: list = []

    @staticmethod
    def _sample() -> tuple[float, float]:
        c0, t0 = time.process_time(), time.perf_counter()
        calibration_loop()
        return time.perf_counter() - t0, time.process_time() - c0

    def _tick(self, signum, frame) -> None:
        self._samples.append(self._sample())

    @contextlib.contextmanager
    def span(self):
        """Time the body; the yielded Span is filled in when it exits."""
        out = Span()
        self._samples = [self.last]
        if self.sample_every:
            previous = signal.signal(signal.SIGVTALRM, self._tick)
            signal.setitimer(signal.ITIMER_VIRTUAL, self.sample_every, self.sample_every)
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            yield out
        finally:
            t1, c1 = time.perf_counter(), time.process_time()
            if self.sample_every:
                signal.setitimer(signal.ITIMER_VIRTUAL, 0)
                signal.signal(signal.SIGVTALRM, previous)
            inside = self._samples[1:]
            self.last = self._sample()
            samples = self._samples[:1] + inside + [self.last]
            scale = CALIBRATION_REF_S / statistics.median(w for w, _ in samples)
            out.raw_wall = t1 - t0 - sum(w for w, _ in inside)
            out.wall = out.raw_wall * scale
            # the CPU clock advances in scheduler ticks here, so a short
            # span's CPU time is 0 or a whole tick; only sums of it are exact
            out.cpu = (c1 - c0 - sum(c for _, c in inside)) * scale


@dataclass(frozen=True)
class Sizes:
    # rules-cli: (elements, files per command) in one pass of the schedule; R = 5n
    rule_files: tuple = ((250, 9), (500, 3), (1000, 1))
    # derive-queries
    grid: tuple = (2000, 10000)
    chains: tuple = (300, 450, 600)
    ladders: tuple = (10, 12, 14, 16)
    basis_chains: tuple = (50, 100, 150)
    basis_ladders: tuple = (5, 6, 7)
    # squares-census
    square_batches: int = 48
    square_batch: int = 100
    square_files: int = 12
    family_bases: tuple = (4, 5, 6, 7)
    family_extra_bound: tuple = (0, 4, 8)
    setup_repeats: int = 3


FULL = Sizes()


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    # canonical (exit code, text) of a result; untimed
    render: Callable[[object], tuple]
    # None when (code, text) is right, else the reason; untimed
    verify: Callable[[int, str], object]
    rules: int = 0
    incidences: int = 0
    cli: bool = False  # text is the stdout of one run_command call
    one_shot: bool = False  # start with an empty signature cache, as a fresh process would
    probe: bool = False  # run once before the loop, not timed (see the module docstring)


def cli_render(result):
    return result


def run_cli(kernel, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = kernel.cli.run_command(argv)
    return code, out.getvalue()


def import_kernel():
    """A fresh import of the package, so set-up pays for it every time."""
    for name in [n for n in sys.modules if n == "indkernel" or n.startswith("indkernel.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    mods = {n: importlib.import_module(f"indkernel.{n}") for n in ("cli", "dsl", "finite", "inddef", "jsonio", "proofs", "squares", "topology")}
    return SimpleNamespace(**mods)


def interleave(ops: list[Op], strata: list[str]) -> list[Op]:
    """Spread each stratum evenly through the schedule, so that any prefix
    of it, like the last partial pass of a run, has nearly the full mix."""
    count: dict[str, int] = {}
    for s in strata:
        count[s] = count.get(s, 0) + 1
    seen: dict[str, int] = {}
    keyed = []
    order = {s: i for i, s in enumerate(dict.fromkeys(strata))}
    for op, s in zip(ops, strata):
        j = seen.get(s, 0)
        seen[s] = j + 1
        keyed.append(((j + 0.5) / count[s], order[s], op))
    keyed.sort(key=lambda t: (t[0], t[1]))
    return [op for _, _, op in keyed]


def nodes_text(tree) -> str:
    """A proof as a node table, one "id label child-ids" line per distinct
    node in first-visit order; shared subproofs appear once."""
    ids: dict[int, int] = {}
    lines = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if id(node) in ids:
            continue
        ids[id(node)] = len(ids)
        lines.append(node)
        stack.extend(reversed(node.children))
    return "\n".join(
        " ".join([str(ids[id(n)]), n.label, *(str(ids[id(c)]) for c in n.children)]) for n in lines
    )


def parse_nodes(text: str) -> dict:
    nodes = {}
    for line in text.split("\n"):
        nid, label, *kids = line.split(" ")
        nodes[int(nid)] = (label, tuple(int(k) for k in kids))
    return nodes


def system_size(rules) -> tuple[int, int]:
    return len(rules), sum(len(p) for p, _ in rules)


# ---------------------------------------------------------------- rules-cli

RULE_COMMANDS = ("close", "prove", "prove --json", "witness", "cover")


def setup_rules_cli(kernel, rng: Random, sizes: Sizes, work: Path) -> list[Op]:
    """One rule file per operation: n elements, 5n rules, 0-3 premises.
    Goals come from the last closure stage, about a tenth from outside it."""
    ops, strata = [], []
    for n, per_command in sizes.rule_files:
        for command in RULE_COMMANDS:
            for _ in range(per_command):
                names, rules = inputs.random_system(rng, n, 5 * n)
                seed = inputs.random_seed(rng, names)
                stages = check.stages(rules, seed)
                if rng.random() < 0.1:
                    goal = rng.choice(inputs.island(names))
                else:
                    last = stages[-1] - (stages[-2] if len(stages) > 1 else set())
                    goal = rng.choice([x for x in names if x in last])
                path = work / f"r{len(ops):03d}.rules"
                path.write_text(inputs.rule_file(names, rules, seed, goal))
                head, *flags = command.split()
                argv = [head, str(path), *flags]
                if head == "cover":
                    argv += ["--point", goal]

                def verify(code, text, command=command, system=(names, rules), seed=seed, goal=goal):
                    return check.check_rule_command(command, system, seed, goal, code, text)

                r, inc = system_size(rules)
                ops.append(
                    Op(command, lambda argv=argv: run_cli(kernel, argv), cli_render, verify, r, inc, cli=True, one_shot=True)
                )
                strata.append(f"{n}:{command}")
    return interleave(ops, strata)


# ---------------------------------------------------------------- derive-queries


def setup_derive_queries(kernel, rng: Random, sizes: Sizes, work: Path) -> list[Op]:
    """Library queries on fixed systems that set-up parses, builds and whose
    proof signatures it caches. Seed subsets and goals come from rng."""
    k = kernel
    systems = {"grid": inputs.random_system(rng, *sizes.grid)}
    for n in sizes.chains + sizes.basis_chains:
        systems[f"chain{n}"] = inputs.chain(n)
    for n in sizes.ladders + sizes.basis_ladders:
        systems[f"ladder{n}"] = inputs.ladder(n)
    built = {}
    for label, (names, rules) in systems.items():
        path = work / f"{label}.rules"
        path.write_text(inputs.rule_file(names, rules, ()))
        phi, _, _ = k.dsl.definition_from_ast(k.dsl.parse_rule_file(path.read_text()))
        built[label] = phi
        k.proofs.build_proof_signature(phi)

    ops, strata = [], []

    def add(kind, label, seed, goal=None, arg=None, probe=False):
        names, rules = systems[label]
        phi = built[label]
        u = k.finite.Subset.from_names(phi.carrier, seed)
        r, inc = system_size(rules)
        if kind == "closure":
            call = lambda: k.inddef.closure(phi, u)
            render = lambda s: (0, str(s))
            verify = lambda c, t: None if t == check.subset_text(names, check.closure(rules, seed)) else "wrong closure"
        elif kind == "closure_stages":
            call = lambda: k.inddef.closure_stages(phi, u)
            render = lambda st: (0, "\n".join(str(s) for s in st))
            want = lambda: "\n".join(check.subset_text(names, s) for s in check.stages(rules, seed))
            verify = lambda c, t: None if t == want() else "wrong stages"
        elif kind == "synthesize_proof":
            call = lambda: k.proofs.synthesize_proof(phi, u, goal)
            render = lambda p: (1, "None") if p is None else (0, nodes_text(p))

            def verify(c, t):
                bad = check.check_verdict(rules, seed, goal, c, "unprovable" if c else "")
                if bad or c:
                    return bad
                nodes = parse_nodes(t)
                stage = next(i for i, s in enumerate(check.stages(rules, seed)) if goal in s)
                if check.proof_depth(0, nodes) > stage + 1:
                    return f"proof is deeper than stage {stage} + 1"
                return check.check_proof_nodes(names, rules, seed, goal, 0, nodes)
        elif kind == "witness":
            call = lambda: k.proofs.witness(phi, u, goal)
            render = lambda v: (1, "unprovable") if v is None else (0, str(v))

            def verify(c, t):
                bad = check.check_verdict(rules, seed, goal, c, t)
                return bad or (None if c else check.check_witness(rules, seed, goal, check.parse_subset(t)))
        elif kind == "characterize":
            call = lambda: k.proofs.characterize(phi, u, arg)
            render = lambda s: (0, str(s))
            verify = lambda c, t: None if t == check.subset_text(names, check.bounded(rules, seed, arg)) else f"wrong depth-{arg} set"
        elif kind == "compactness_basis":
            call = lambda: k.proofs.compactness_basis(phi)
            render = lambda b: (0, "\n".join(sorted(str(s) for s in b)))
            want = check.chain_basis(names) if label.startswith("chain") else check.ladder_basis(len(names) // 2)
            verify = lambda c, t: None if {frozenset(check.parse_subset(s)) for s in t.split("\n")} == want else "wrong basis"
        else:  # render_proof / proof_to_json of a proof synthesized here, in set-up
            psig = k.proofs.build_proof_signature(phi)
            proof = k.proofs.synthesize_proof(phi, u, goal)
            if kind == "render_proof":
                call = lambda: k.proofs.render_proof(psig, proof)
                render = lambda s: (0, s)
                verify = lambda c, t: check.check_proof_text(names, rules, seed, goal, t)
            else:
                call = lambda: k.proofs.proof_to_json(psig, proof)
                render = lambda d: (0, json.dumps(d))
                verify = lambda c, t: check.check_proof_json(names, rules, seed, goal, json.loads(t))
        ops.append(Op(kind, call, render, verify, r, inc, probe=probe))
        strata.append(f"{label}:{kind}")

    grid_names, grid_rules = systems["grid"]
    grid_seeds = []
    for _ in range(4):
        seed = inputs.random_seed(rng, grid_names, share=0.01)
        st = check.stages(grid_rules, seed)
        last = st[-1] - (st[-2] if len(st) > 1 else set())
        grid_seeds.append((seed, [x for x in grid_names if x in last]))

    def grid_query():
        """A pooled seed subset, and a goal from its last stage or, one time
        in ten, from outside its closure."""
        seed, last = rng.choice(grid_seeds)
        if rng.random() < 0.1:
            return seed, rng.choice(inputs.island(grid_names))
        return seed, rng.choice(last)

    for kind, count in (("closure", 14), ("closure_stages", 8), ("synthesize_proof", 6), ("witness", 6)):
        for _ in range(count):
            add(kind, "grid", *grid_query())
    for kind in ("render_proof", "proof_to_json"):
        seed, last = rng.choice(grid_seeds)
        add(kind, "grid", seed, rng.choice(last))

    for n in sizes.chains:
        label = f"chain{n}"
        names = systems[label][0]
        s = rng.randrange(max(1, n // 20))
        seed = (names[s],)
        # goals on the longest chain sit at least 0.9 n above the seed: their
        # proofs are deep enough to show recursion limits in the engines, so
        # its proofs and witnesses are probes
        deep = n == max(sizes.chains)
        low = s + (int(0.9 * n) if deep else 1)
        for kind, count in (("closure", 2), ("closure_stages", 1), ("synthesize_proof", 1), ("witness", 1)):
            for _ in range(count):
                probe = deep and kind in ("synthesize_proof", "witness")
                add(kind, label, seed, names[rng.randrange(low, n)], probe=probe)
        if not deep:
            for kind in ("render_proof", "proof_to_json"):
                add(kind, label, seed, names[rng.randrange(low, n)])
    add("characterize", f"chain{min(sizes.chains)}", (f"c{rng.randrange(5)}",), arg=rng.randint(10, 20))

    for n in sizes.ladders:
        label = f"ladder{n}"
        seed = ("x0", "y0")
        top = lambda: rng.choice((f"x{n - 1}", f"y{n - 1}"))
        for kind in ("synthesize_proof", "witness", "render_proof", "proof_to_json"):
            add(kind, label, seed, top())
        add("characterize", label, seed, arg=rng.randint(1, 2 * n))

    for n in sizes.basis_chains:
        add("compactness_basis", f"chain{n}", ())
    for n in sizes.basis_ladders:
        add("compactness_basis", f"ladder{n}", ())
    return interleave(ops, strata)


# ---------------------------------------------------------------- squares-census


BOUNDS = (1, 2, 3, 4)


def setup_squares_census(kernel, rng: Random, sizes: Sizes, work: Path) -> list[Op]:
    """Library checkers on batches of small squares, each at bounds 1-4, and
    check-square / check-family through the CLI on JSON files."""
    k = kernel
    ops, strata = [], []
    sample = inputs.sample_small_squares(rng, sizes.square_batches * sizes.square_batch)
    path = work / "small_squares.json"
    path.write_text(json.dumps(sample))
    docs = json.loads(path.read_text())
    squares_built = [k.jsonio.square_from_json(d) for d in docs]
    for b in range(sizes.square_batches):
        lo = b * sizes.square_batch
        batch = squares_built[lo : lo + sizes.square_batch]
        batch_docs = docs[lo : lo + sizes.square_batch]

        def call(batch=batch):
            return [
                (k.squares.covering_report(sq), [k.squares.collection_report(sq, n, record=True) for n in BOUNDS])
                for sq in batch
            ]

        def verify(code, text, batch_docs=batch_docs):
            for doc, (cov, cols) in zip(batch_docs, json.loads(text)):
                for bound, col in zip(BOUNDS, cols):
                    bad = check.check_square_reports(doc, bound, cov, col)
                    if bad:
                        return bad
            return None

        ops.append(Op("square-batch", call, lambda r: (0, json.dumps(r)), verify))
        strata.append("batch")

    def add_cli(kind, doc, bound, verify):
        path = work / f"{kind}{len(ops):03d}.json"
        path.write_text(json.dumps(doc))
        argv = [kind, str(path), "--bound", str(bound)]
        ops.append(Op(kind, lambda: run_cli(k, argv), cli_render, lambda c, t: verify(doc, bound, c, t), cli=True))
        strata.append(f"{kind}:{bound - len(doc.get('base', ()))}")

    for _ in range(sizes.square_files):
        doc = inputs.random_square(rng)
        fibers = [list(doc["maps"]["f"].values()).count(a) for a in doc["carriers"]["A"]]
        add_cli("check-square", doc, rng.randint(1, max(fibers) + 3), check.check_square_command)
    for base in sizes.family_bases:
        for extra in sizes.family_extra_bound:
            # the family without members fails at its first surjection; one
            # per base, at the lowest bound, keeps the failing path covered
            members = rng.randint(1, 3) if extra else 0
            doc = inputs.surjection_family(rng, base, members)
            add_cli("check-family", doc, base + extra, check.check_family_command)
            add_cli("check-family", inputs.carrier_family(base), base + extra, check.check_family_command)
    return interleave(ops, strata)


WORKLOADS = {
    "rules-cli": setup_rules_cli,
    "derive-queries": setup_derive_queries,
    "squares-census": setup_squares_census,
}


# ---------------------------------------------------------------- the loop


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an operation that ran past OP_TIMEOUT_S."""


_armed = False


def _on_alarm(signum, frame):
    if _armed:
        raise OpTimeout()


@dataclass
class Slots:
    """What the first successful run of each schedule position printed."""

    size: int
    hashes: list = field(default_factory=list)
    verdicts: list = field(default_factory=list)
    first: list = field(default_factory=list)  # digest entries, in schedule order

    def __post_init__(self):
        self.hashes = [None] * self.size
        self.verdicts = [None] * self.size
        self.first = [None] * self.size


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    busy_s: float = 0.0
    reasons: dict = field(default_factory=dict)
    # (wall, cpu) at reference speed of every operation run, and whether it
    # completed with a right answer
    runs: list = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0

    def note(self, reason: str) -> None:
        self.reasons[reason] = self.reasons.get(reason, 0) + 1


def run_loop(ops, slots: Slots, cache, speed: Speed, seconds=None, count=None, tracer=None) -> Tally:
    """Run the schedule from its start, cyclically, until the operations have
    used `seconds` of wall time or `count` operations have run."""
    global _armed
    tally = Tally()
    i = 0
    while (tally.attempted < count) if count is not None else (tally.busy_s < seconds):
        slot = i % len(ops)
        op = ops[slot]
        i += 1
        if op.one_shot:
            cache.cache_clear()
        before = cache.cache_info()
        if tracer is not None:
            tracer.op_id = i - 1
            tracer.counts["inddef.rules"] += op.rules
            tracer.counts["inddef.premise_incidences"] += op.incidences
        error = None
        with speed.span() as took:
            _armed = True
            signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
            try:
                result = op.call()
            except OpTimeout:
                error = "timeout"
            except (Exception, SystemExit) as exc:  # a crash is one failed operation, never the run's end
                error = type(exc).__name__
            finally:
                _armed = False
                signal.setitimer(signal.ITIMER_REAL, 0)
        after = cache.cache_info()
        tally.cache_hits += after.hits - before.hits
        tally.cache_misses += after.misses - before.misses
        tally.attempted += 1
        tally.busy_s += took.raw_wall
        tally.runs.append([took.wall, took.cpu, False])
        if error is None:
            with deep_recursion():
                code, text = op.render(result)
            if code not in (0, 1):
                error = f"exit {code}"
        if error is not None:
            tally.failed += 1
            tally.note(f"{op.kind}: {error}")
            if slots.first[slot] is None:
                slots.first[slot] = f"failed {error}\n".encode()
            continue
        if tracer is not None and op.cli:
            tracer.counts["cli.stdout_bytes"] += len(text.encode())
        digest = hashlib.sha256(f"{code}\n{text}".encode()).digest()
        if slots.hashes[slot] is None:
            slots.hashes[slot] = digest
            with deep_recursion():
                slots.verdicts[slot] = op.verify(code, text)
            if slots.first[slot] is None:
                slots.first[slot] = digest
        bad = slots.verdicts[slot] if digest == slots.hashes[slot] else "output differs from an earlier run"
        if bad:
            tally.wrong += 1
            tally.note(f"{op.kind}: {bad}")
        else:
            tally.runs[-1][2] = True
    return tally


@contextlib.contextmanager
def deep_recursion(limit: int = 20000):
    """Let the benchmark's own serializing and checking of deep proofs
    recurse (json nests one level per proof node); never used around
    the program's own calls."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, limit))
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def percentile(values, q: float) -> float:
    ranked = sorted(values)
    return ranked[max(0, math.ceil(q * len(ranked)) - 1)]


def end_to_end(tally: Tally, setups: list) -> dict:
    # a failed or wrong operation misses every latency limit: it ranks as
    # taking the whole timeout
    walls = [w if ok else OP_TIMEOUT_S for w, _, ok in tally.runs]
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": sum(ok for _, _, ok in tally.runs) / sum(w for w, _, _ in tally.runs),
        "latency_p50_ms": 1000 * percentile(walls, 0.50),
        "latency_p95_ms": 1000 * percentile(walls, 0.95),
        "cpu_ms_per_op": 1000 * statistics.fmean(c for _, c, _ in tally.runs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def output_digest(*slots: Slots) -> str:
    first = [entry for s in slots for entry in s.first]
    if any(entry is None for entry in first):
        done = sum(entry is not None for entry in first)
        return f"incomplete: {done} of {len(first)} operations ran"
    h = hashlib.sha256()
    for entry in first:
        h.update(entry)
    return "sha256:" + h.hexdigest()


def set_up(workload: str, seed: int, sizes: Sizes):
    """Import indkernel and build the workload's inputs; returns (kernel, ops)."""
    work = WORK / "inputs"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    kernel = import_kernel()
    ops = WORKLOADS[workload](kernel, Random(seed), sizes, work)
    return kernel, ops


def measure(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes = FULL) -> dict:
    """One benchmark run; returns the result line plus the run's record."""
    load_start = os.getloadavg()[0]
    speed = Speed()
    setups = []
    kernel = ops = None
    for _ in range(sizes.setup_repeats):
        kernel = ops = None
        gc.collect()
        with speed.span() as took:
            kernel, ops = set_up(workload, seed, sizes)
        setups.append(took.wall)
    cache = kernel.proofs.build_proof_signature
    probes = [op for op in ops if op.probe]
    ops = [op for op in ops if not op.probe]
    slots, probe_slots = Slots(len(ops)), Slots(len(probes))
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        probe = run_loop(probes, probe_slots, cache, speed, count=len(probes))
        if not trace:
            tally = run_loop(ops, slots, cache, speed, seconds=seconds)
            passes = [tally]
            metrics = end_to_end(tally, setups)
            units = END_TO_END
        else:
            plain = run_loop(ops, slots, cache, speed, seconds=seconds / 2)
            tracer = tracing.Tracer(kernel)
            tracer.install()
            try:
                # no speed samples inside traced spans: they would count as self time
                traced = run_loop(ops, slots, cache, Speed(sample_every=None), count=plain.attempted, tracer=tracer)
            finally:
                tracer.uninstall()
            passes = [plain, traced]
            reference_s = [sum(w for w, _, _ in p.runs) for p in (plain, traced)]
            lookups = traced.cache_hits + traced.cache_misses
            metrics = tracer.metrics(
                wall_s=traced.busy_s,
                overhead=reference_s[1] / reference_s[0] - 1,
                cache_hit_ratio=traced.cache_hits / lookups if lookups else 0.0,
            )
            metrics["proofs.deep_chain_failures"] = probe.failed
            units = {**tracing.metric_units(), "proofs.deep_chain_failures": "count"}
            spans_path = WORK / f"spans-{workload}-{seed}.json"
            spans_path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "op"], "spans": tracer.spans}))
    finally:
        signal.signal(signal.SIGALRM, previous)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    wrong = sum(p.wrong for p in passes) + probe.wrong
    reasons: dict = {}
    for p in passes:
        for reason, n in p.reasons.items():
            reasons[reason] = reasons.get(reason, 0) + n
    info = cache.cache_info()
    record = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_1m_start": load_start,
        "loadavg_1m_end": os.getloadavg()[0],
        "signature_cache_info": info._asdict(),
        "signature_cache_lookups_in_loop": {
            "hits": sum(p.cache_hits for p in passes),
            "misses": sum(p.cache_misses for p in passes),
        },
        "schedule_length": len(ops),
        "loop_ops_per_s": sum(p.attempted - p.failed - p.wrong for p in passes) / sum(p.busy_s for p in passes),
        "setup_s_each": setups,
    }
    return {
        "result": {
            "correct": wrong == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        },
        "failed_ops_share": failed / attempted,
        "wrong_outputs": wrong,
        "reasons": reasons,
        "probe": {"attempted": probe.attempted, "failed": probe.failed, "wrong": probe.wrong, "reasons": probe.reasons},
        "digest": output_digest(probe_slots, slots),
        "record": record,
        "params": {"sizes": sizes.__dict__, "op_timeout_s": OP_TIMEOUT_S},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "indkernel" / "__init__.py").is_file():
        print(f"error: no indkernel sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    result = out["result"]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("params " + json.dumps(out["params"]))
    print("record " + json.dumps(out["record"]))
    print(f"digest {out['digest']}")
    for reason, n in sorted(out["reasons"].items()):
        print(f"problem {n}x {reason}")
    for reason, n in sorted(out["probe"]["reasons"].items()):
        print(f"defect {n}x {reason} (probe)")
    for name, m in result["metrics"].items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    print(f"metric attempted_ops {result['attempted']} count")
    print(f"metric failed_ops_share {out['failed_ops_share']:.6g} share")
    print(f"metric wrong_outputs {out['wrong_outputs']} count")
    print(f"metric probe_ops {out['probe']['attempted']} count")
    print(f"metric probe_failed_ops {out['probe']['failed']} count")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
