"""JSON instance formats for squares and families.

Square documents:

    {"kind": "square",
     "carriers": {"A": [...], "B": [...], "C": [...], "D": [...]},
     "maps": {"f": {b: a, ...}, "p": {c: a, ...},
              "g": {d: c, ...}, "q": {d: b, ...}}}

Surjection-family documents:

    {"kind": "surjection-family",
     "base": [...],
     "members": [{"domain": [...], "map": {y: x, ...}}, ...]}

Carrier-family documents (for the indexed refinement check):

    {"kind": "carrier-family", "carriers": [[...], [...], ...]}

Malformed documents raise SchemaError; name-level problems surface as
the usual carrier/map errors. read_text reads every input file, rule
files too, and reports one that is not UTF-8 as InvalidValue.

dumps writes every JSON document of the CLI (proofs, square and
family reports): byte for byte what json.dumps(obj, indent=2) writes,
for str-keyed dicts, lists, tuples, str, int, bool and None, and a
TypeError for anything else. It keeps the open containers on an
explicit stack, so nesting depth is bounded by memory, not by the
Python stack; strings go through the C escaper
json.encoder.encode_basestring_ascii. A witness plan (squares._Plan)
is written where it sits as the witness list of the recorded report,
straight from the surjection enumerator, with no dict per witness.
"""

from __future__ import annotations

import json
from functools import cache
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from .errors import InvalidValue, SchemaError
from .finite import Carrier, FinMap
from .squares import _LIFT, _ONTO, Square, SurjectionFamily, _Plan, _surjection_blocks


def _require(data: dict, key: str, kind: type, where: str):
    if key not in data:
        raise SchemaError(f"{where}: missing {key!r}")
    value = data[key]
    if not isinstance(value, kind):
        raise SchemaError(f"{where}: {key!r} must be a {kind.__name__}")
    return value


def _carrier(value, where: str) -> Carrier:
    if not isinstance(value, list) or not all(isinstance(n, str) for n in value):
        raise SchemaError(f"{where}: expected a list of element names")
    return Carrier(tuple(value))


def _finmap(value, dom: Carrier, cod: Carrier, where: str) -> FinMap:
    if not isinstance(value, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in value.items()
    ):
        raise SchemaError(f"{where}: expected an object of element -> element")
    return FinMap.from_mapping(dom, cod, value)


def square_from_json(data: dict) -> Square:
    carriers = _require(data, "carriers", dict, "square")
    maps = _require(data, "maps", dict, "square")
    corners = {}
    for corner in ("A", "B", "C", "D"):
        corners[corner] = _carrier(_require(carriers, corner, list, "square carriers"), f"carrier {corner}")
    legs = {}
    for name, (dom, cod) in {
        "f": ("B", "A"),
        "p": ("C", "A"),
        "g": ("D", "C"),
        "q": ("D", "B"),
    }.items():
        legs[name] = _finmap(
            _require(maps, name, dict, "square maps"),
            corners[dom],
            corners[cod],
            f"map {name}",
        )
    return Square(f=legs["f"], p=legs["p"], g=legs["g"], q=legs["q"])


def surjection_family_from_json(data: dict) -> SurjectionFamily:
    base = _carrier(_require(data, "base", list, "family"), "family base")
    members_data = _require(data, "members", list, "family")
    members = []
    for i, member in enumerate(members_data):
        if not isinstance(member, dict):
            raise SchemaError(f"family member {i}: expected an object")
        dom = _carrier(_require(member, "domain", list, f"family member {i}"), f"member {i} domain")
        members.append(_finmap(_require(member, "map", dict, f"family member {i}"), dom, base, f"member {i} map"))
    return SurjectionFamily(base, tuple(members))


def carrier_family_from_json(data: dict) -> list[Carrier]:
    carriers = _require(data, "carriers", list, "carrier family")
    return [_carrier(c, f"carrier {i}") for i, c in enumerate(carriers)]


def read_text(path: str | Path) -> str:
    """The text of a UTF-8 file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidValue(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def load_instance(path: str | Path):
    """Parse a JSON instance file into a Square, SurjectionFamily, or
    list of Carriers, according to its "kind"."""
    text = read_text(path)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON: {exc}") from None
    except RecursionError:
        raise SchemaError(f"{path}: JSON nested too deeply to read") from None
    if not isinstance(data, dict):
        raise SchemaError(f"{path}: expected a JSON object")
    kind = data.get("kind")
    if kind == "square":
        return square_from_json(data)
    if kind == "surjection-family":
        return surjection_family_from_json(data)
    if kind == "carrier-family":
        return carrier_family_from_json(data)
    raise SchemaError(f"{path}: unknown kind {kind!r}")


def dumps(obj: object) -> str:
    """obj as indent-2 JSON text, exactly as json.dumps(obj, indent=2)."""
    chunks: list[str] = []
    emit = chunks.append
    newlines = ["\n"]  # newlines[k] breaks the line and indents to depth k
    # one frame per open container: (entries, is_dict, first separator,
    # separator, closing, id); the root frame holds obj alone
    stack: list[tuple] = [(iter((obj,)), False, "", "", "", None)]
    open_ids: set[int] = set()
    fresh = True
    while stack:
        entries, is_dict, first, separator, closing, key = stack[-1]
        sep = first if fresh else separator
        fresh = False
        for value in entries:
            if is_dict:
                emit(sep + _quote(value[0]) + ": ")
                value = value[1]
            else:
                emit(sep)
            sep = separator
            if isinstance(value, str):
                emit(_quote(value))
            elif isinstance(value, (list, tuple, dict)):
                d = isinstance(value, dict)
                if not value:
                    emit("{}" if d else "[]")
                    continue
                depth = len(stack)
                if depth == len(newlines):
                    newlines.append(newlines[-1] + "  ")
                inner = newlines[depth]
                end = newlines[depth - 1] + ("}" if d else "]")
                if id(value) in open_ids:
                    raise ValueError("Circular reference detected")
                open_ids.add(id(value))
                emit("{" if d else "[")
                stack.append((iter(value.items() if d else value), d, inner, "," + inner, end, id(value)))
                fresh = True
                break
            elif value is None:
                emit("null")
            elif value is True:
                emit("true")
            elif value is False:
                emit("false")
            elif isinstance(value, int):
                emit(int.__repr__(value))
            elif type(value) is _Plan:
                _write_witnesses(chunks, len(stack) - 1, value)
            else:
                raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        else:
            stack.pop()
            open_ids.discard(key)
            emit(closing)
    return "".join(chunks)


def _write_witnesses(out: list[str], depth: int, plan: _Plan) -> None:
    """Append the witness list of a plan, a value on a line at depth, to
    out from its [, with no dict and no string per witness. A group's
    witnesses share their text but for the varying fields' items, and
    whether those are empty is the group's; the items are cached by
    what they depend on: a domain list by its size, a block's map
    entries by (block, start, size), a factor or h entry by (element,
    start of its block)."""
    nl = ["\n" + "  " * (depth + k) for k in range(5)]  # nl[k]: a line at depth + k
    sep = ["," + line for line in nl]
    names: list[str] = []
    domain = cache(lambda size: sep[4].join(map(_quote, names[:size])))

    def field(value: tuple, n: int) -> list:
        """A varying field's text: fixed strings alternating with the
        makers, from (sizes, starts), of the items between them."""
        if value[0] == _LIFT:
            keys, blocks = list(map(_quote, value[1])), value[2]
            if not keys:
                return ["{}"]
            entry = cache(lambda k, start: keys[k] + ": " + _quote(names[start]))
            return [
                "{" + nl[3],
                lambda sizes, starts: sep[3].join(map(entry, range(len(keys)), map(starts.__getitem__, blocks))),
                nl[2] + "}",
            ]
        if value[0] == _ONTO:
            if not n:
                return ["{" + nl[3] + '"domain": [],' + nl[3] + '"map": {}' + nl[2] + "}"]
            targets = list(map(_quote, value[1]))
            block = cache(
                lambda j, start, size: sep[4].join([_quote(e) + ": " + targets[j] for e in names[start : start + size]])
            )
            return [
                "{" + nl[3] + '"domain": [' + nl[4],
                lambda sizes, starts: domain(starts[-1]),
                nl[3] + "]," + nl[3] + '"map": {' + nl[4],
                lambda sizes, starts: sep[4].join(map(block, range(n), starts, sizes)),
                nl[3] + "}" + nl[2] + "}",
            ]
        return ["[" + nl[3], lambda sizes, starts: sep[3].join(map(str, sizes)), nl[2] + "]"] if n else ["[]"]

    begin = len(out)
    for n, template in plan.groups:
        pieces = [sep[1] + "{"]
        for i, (key, value) in enumerate(template.items()):
            pieces[-1] += (sep[2] if i else nl[2]) + _quote(key) + ": "
            first, *rest = field(value, n) if key in plan.varying else [dumps(value)]
            pieces[-1] += first
            pieces += rest
        pieces[-1] += nl[1] + "}"
        pairs, last = list(zip(pieces[::2], pieces[1::2])), pieces[-1]
        for sizes, starts in _surjection_blocks(n, plan.bound, names, plan.prefix):
            for text, make in pairs:
                out += text, make(sizes, starts)
            out.append(last)
    if len(out) == begin:
        out.append("[]")
    else:
        out[begin] = "[" + out[begin][1:]  # the first witness takes no comma
        out.append(nl[0] + "]")
