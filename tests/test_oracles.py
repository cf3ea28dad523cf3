"""The oracles in tests/oracles.py share no code with the engine paths
they check: they import nothing from the parser and name none of the
engine's private helpers, nor its enumeration of surjections, nor its
tree folds, nor a map's preimage table or the onto check that reads it,
nor the rule store's columns, its columns constructor, its rules by
conclusion, nor the proof signature's premise and label decoders or
kind_of and conc, which read them, nor the square and family reports'
scans, their witness plans and the two renderings of those: the
oracles read a definition through its public rules and decode labels
on their own."""

import ast
from pathlib import Path

ORACLES = Path(__file__).resolve().parent / "oracles.py"
ENGINE_INTERNALS = {
    "_staged_pass",
    "_derivation",
    "_premise_index",
    "_premise_names",
    "_decode",
    "_decoded",
    "kind_of",
    "conc",
    "_masks",
    "_by_conclusion",
    "_from_columns",
    "_tokenize",
    "_surjection_blocks",
    "surjections_onto",
    "share_fold",
    "distinct_nodes",
    "fold",
    "_fibers",
    "is_surjection",
    "_collection_scan",
    "_amc_family_scan",
    "_collection_family_scan",
    "_Plan",
    "_witness_dicts",
    "_write_witnesses",
}


def engine_ties(source: str) -> set[str]:
    """The dsl imports and engine-internal names a module's source uses."""
    ties = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""] + [f"{node.module}.{alias.name}" for alias in node.names]
            ties |= {alias.name for alias in node.names} & ENGINE_INTERNALS
        else:
            modules = []
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
            if name in ENGINE_INTERNALS:
                ties.add(name)
        ties |= {m for m in modules if m == "indkernel.dsl" or m.startswith("indkernel.dsl.")}
    return ties


def test_oracles_import_no_parser_and_name_no_engine_internals():
    assert engine_ties(ORACLES.read_text()) == set()


def test_the_guard_sees_each_kind_of_tie():
    assert engine_ties("from indkernel import dsl") == {"indkernel.dsl"}
    assert engine_ties("import indkernel.dsl as d") == {"indkernel.dsl"}
    assert engine_ties("from indkernel.inddef import _staged_pass") == {"_staged_pass"}
    assert engine_ties("x = phi._premise_index") == {"_premise_index"}
    assert engine_ties("psig._premise_names(0)") == {"_premise_names"}
    assert engine_ties("from indkernel.proofs import conc\npsig.kind_of(l), psig._decode(l), psig._decoded") == {
        "conc", "kind_of", "_decode", "_decoded"
    }
    assert engine_ties("m = phi._masks[0]") == {"_masks"}
    assert engine_ties("for ri in phi._by_conclusion[x]: pass") == {"_by_conclusion"}
    assert engine_ties("InductiveDefinition._from_columns(c, [], [])") == {"_from_columns"}
    assert engine_ties("getattr(m, '_derivation')") == {"_derivation"}
    assert engine_ties("def _tokenize(): pass") == {"_tokenize"}
    assert engine_ties("from indkernel.squares import surjections_onto") == {"surjections_onto"}
    assert engine_ties("squares._surjection_blocks(2, 4)") == {"_surjection_blocks"}
    assert engine_ties("from indkernel.wtree import share_fold") == {"share_fold"}
    assert engine_ties("wtree.distinct_nodes(t)") == {"distinct_nodes"}
    assert engine_ties("fold(sig, t, step)") == {"fold"}
    assert engine_ties("f._fibers[0]") == {"_fibers"}
    assert engine_ties("from indkernel.finite import is_surjection") == {"is_surjection"}
    assert engine_ties("squares._collection_scan(sq, 3)") == {"_collection_scan"}
    assert engine_ties("from indkernel.squares import _amc_family_scan, _collection_family_scan") == {
        "_amc_family_scan", "_collection_family_scan"
    }
    assert engine_ties("_witness_dicts(*plan)") == {"_witness_dicts"}
    assert engine_ties("from indkernel.squares import _Plan") == {"_Plan"}
    assert engine_ties("jsonio._write_witnesses(out, 1, plan)") == {"_write_witnesses"}
