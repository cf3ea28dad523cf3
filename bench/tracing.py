"""Per-module spans and counts for the traced benchmark run.

Tracer.install rebinds each traced function, in every indkernel module
namespace that binds it, to a wrapper that records a span (name, start,
end, parent span, operation id). proofs and topology import functions
by name, so rebinding only the defining module would miss their calls.
While a wrapped function runs, its own module's binding points back at
the original, so self-recursion (render_proof, proof_to_json) is one
span and adds no stack frames. Counts are read from return values, from
outside the program.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

from check import postorder

TRACED = {
    "cli": ("run_command",),
    "dsl": ("parse_rule_file", "definition_from_ast", "presentation_from_ast"),
    "inddef": ("closure", "closure_stages"),
    "proofs": (
        "build_proof_signature",
        "synthesize_proof",
        "witness",
        "ass",
        "characterize",
        "compactness_basis",
        "render_proof",
        "proof_to_json",
        "proof_to_dot",
    ),
    "topology": ("compact_subcover",),
    "jsonio": ("load_instance",),
    "squares": (
        "covering_report",
        "collection_report",
        "amc_family_report",
        "collection_family_report",
    ),
}

COUNTS = (
    ("inddef.rules", "count"),
    ("inddef.premise_incidences", "count"),
    ("inddef.stages", "count"),
    ("proofs.tree_nodes", "count"),
    ("proofs.dag_nodes", "count"),
    ("proofs.sharing_ratio", "ratio"),
    ("proofs.signature_cache_hit_ratio", "ratio"),
    ("proofs.basis_sets", "count"),
    ("squares.surjections_checked", "count"),
    ("cli.stdout_bytes", "B"),
)

SUMMARY = (
    ("trace.wall_s", "s"),
    ("trace.self_s_sum", "s"),
    ("trace.overhead_share", "ratio"),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for module, names in TRACED.items():
        for name in names:
            units[f"{module}.{name}.self_s"] = "s"
            units[f"{module}.{name}.calls"] = "count"
    units.update(COUNTS)
    units.update(SUMMARY)
    return units


def proof_shape(tree) -> tuple[int, int]:
    """(expanded tree nodes, distinct node objects) of a WTree, without recursion."""
    by_id = {}

    def children(key):
        kids = by_id[key].children
        by_id.update((id(c), c) for c in kids)
        return [id(c) for c in kids]

    by_id[id(tree)] = tree
    size: dict[int, int] = {}
    for key in postorder(id(tree), children):
        size[key] = 1 + sum(size[id(c)] for c in by_id[key].children)
    return size[id(tree)], len(size)


class Tracer:
    def __init__(self, kernel):
        self.kernel = kernel
        self.spans: list = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.op_id = -1
        self._stack: list[int] = []
        self._child: list[float] = []
        self._restore: list = []
        self._hooks = {
            "inddef.closure_stages": lambda r: self._add("inddef.stages", len(r)),
            "proofs.synthesize_proof": self._count_proof,
            "proofs.compactness_basis": lambda r: self._add("proofs.basis_sets", len(r)),
            "squares.collection_report": self._count_surjections,
            "squares.amc_family_report": self._count_surjections,
            "squares.collection_family_report": self._count_surjections,
        }

    def _add(self, key: str, value: float) -> None:
        self.counts[key] += value

    def _count_proof(self, tree) -> None:
        if tree is not None:
            expanded, distinct = proof_shape(tree)
            self._add("proofs.tree_nodes", expanded)
            self._add("proofs.dag_nodes", distinct)

    def _count_surjections(self, report) -> None:
        self._add(
            "squares.surjections_checked",
            len(report["witnesses"]) + (report["counterexample"] is not None),
        )

    def _wrap(self, name: str, original):
        home = getattr(original, "__globals__", None)
        short = name.rsplit(".", 1)[1]
        hook = self._hooks.get(name)
        spans, stack, child = self.spans, self._stack, self._child
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            child.append(0.0)
            if home is not None:
                home[short] = original
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                if home is not None:
                    home[short] = wrapper
                stack.pop()
                inner = child.pop()
                if child:
                    child[-1] += end - start
                self.self_s[name] += end - start - inner
                self.calls[name] += 1
                spans[index] = (name, start, end, parent, self.op_id)
            if hook is not None:
                hook(result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "indkernel" or n.startswith("indkernel.")]
        for module_name, names in TRACED.items():
            home = getattr(self.kernel, module_name)
            for short in names:
                original = getattr(home, short)
                wrapper = self._wrap(f"{module_name}.{short}", original)
                for module in modules:
                    if module.__dict__.get(short) is original:
                        self._restore.append((module, short, original))
                        setattr(module, short, wrapper)

    def uninstall(self) -> None:
        for module, short, original in reversed(self._restore):
            setattr(module, short, original)
        self._restore.clear()

    def metrics(self, wall_s: float, overhead: float, cache_hit_ratio: float) -> dict[str, float]:
        out: dict[str, float] = {}
        for module, names in TRACED.items():
            for short in names:
                name = f"{module}.{short}"
                out[f"{name}.self_s"] = self.self_s.get(name, 0.0)
                out[f"{name}.calls"] = self.calls.get(name, 0)
        for key, _ in COUNTS:
            out[key] = self.counts.get(key, 0)
        if self.counts.get("proofs.dag_nodes"):
            out["proofs.sharing_ratio"] = self.counts["proofs.tree_nodes"] / self.counts["proofs.dag_nodes"]
        out["proofs.signature_cache_hit_ratio"] = cache_hit_ratio
        out["trace.wall_s"] = wall_s
        out["trace.self_s_sum"] = sum(self.self_s.values())
        out["trace.overhead_share"] = overhead
        return out
