"""Code-spec files: the on-disk description of a code for the CLI.

JSON documents with a ``format_version`` field and one of two kinds:

* ``explicit``: modulus, axis, per-time widths, and full-length generator
  vectors;
* ``convolutional``: modulus, symbol width, finite-support tap families,
  full-axis periodic patterns, and the window (axis) length.

Integers may exceed the modulus; they are reduced on load.  Loading is strict
about structure so that a bad file fails fast with a message rather than
producing a wrong code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .codes import GroupCode
from .convolutional import ConvSpec, window
from .spaces import SymbolLayout

FORMAT_VERSION = 1


class SpecFileError(Exception):
    """The code-spec document is malformed."""


@dataclass(frozen=True)
class LoadedCode:
    code: GroupCode
    kind: str
    name: str
    spec: ConvSpec | None
    margin: int | None


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise SpecFileError(msg)


def _is_int(x) -> bool:
    # JSON true/false load as bool, which is a subclass of int
    return isinstance(x, int) and not isinstance(x, bool)


def _int_list(x, msg: str) -> list[int]:
    _require(isinstance(x, list) and all(_is_int(v) for v in x), msg)
    return list(x)


def parse_json(text: str, what: str):
    """``json.loads``; malformed text, and text nested past the parser's
    recursion limit (a ``RecursionError``), fail as a malformed ``what``."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise SpecFileError(f"{what} is not valid JSON: {e}") from e


def loads(text: str) -> LoadedCode:
    doc = parse_json(text, "spec")
    _require(isinstance(doc, dict), "top level must be an object")
    version = doc.get("format_version", FORMAT_VERSION)
    _require(_is_int(version) and version == FORMAT_VERSION,
             f"unsupported format_version {version}")
    kind = doc.get("kind")
    _require(kind in ("explicit", "convolutional"),
             "kind must be 'explicit' or 'convolutional'")
    modulus = doc.get("modulus")
    _require(_is_int(modulus) and modulus >= 2, "modulus must be an int >= 2")
    name = doc.get("name", "")
    _require(isinstance(name, str), "name must be a string")
    margin = doc.get("margin")
    _require(margin is None or _is_int(margin) and margin >= 0,
             "margin must be an int >= 0")
    if kind == "explicit":
        axis = doc.get("axis")
        _require(_is_int(axis) and axis >= 1, "axis must be an int >= 1")
        widths = doc.get("widths", [1] * axis)
        widths = _int_list(widths, "widths must be a list of ints")
        _require(len(widths) == axis, "widths must have one entry per time")
        layout = SymbolLayout(modulus, tuple(widths))
        gens = doc.get("generators", [])
        _require(isinstance(gens, list), "generators must be a list")
        rows = []
        for g in gens:
            row = _int_list(g, "each explicit generator must be a list of ints")
            _require(len(row) == layout.total_dim,
                     f"generator length {len(row)} != total dimension {layout.total_dim}")
            rows.append(row)
        return LoadedCode(GroupCode.from_generators(layout, rows),
                          "explicit", name, None, margin)
    width = doc.get("width")
    _require(_is_int(width) and width >= 1, "width must be an int >= 1")
    axis = doc.get("window")
    _require(_is_int(axis) and axis >= 1, "window must be an int >= 1")

    def tap_families(key: str):
        fams = doc.get(key, [])
        _require(isinstance(fams, list), f"{key} must be a list")
        out = []
        for fam in fams:
            _require(isinstance(fam, list) and fam, f"each {key} entry must be a nonempty list")
            out.append(tuple(tuple(_int_list(sym, f"{key} symbols must be int lists"))
                             for sym in fam))
        return tuple(out)

    spec = ConvSpec(modulus, width, generators=tap_families("generators"),
                    patterns=tap_families("patterns"), name=name)
    wc = window(spec, axis, margin)
    return LoadedCode(wc.code, "convolutional", name, spec, wc.margin)


def load(path: str | Path) -> LoadedCode:
    return loads(Path(path).read_text())


def _dump_doc(doc: dict, list_keys: tuple[str, ...]) -> str:
    """Render a code-spec document with one compact entry per generator line."""
    lines = ["{"]
    items = list(doc.items())
    for i, (key, value) in enumerate(items):
        comma = "," if i < len(items) - 1 else ""
        if key in list_keys and value:
            lines.append(f'  "{key}": [')
            for j, entry in enumerate(value):
                tail = "," if j < len(value) - 1 else ""
                lines.append(f"    {json.dumps(entry)}{tail}")
            lines.append(f"  ]{comma}")
        else:
            lines.append(f'  "{key}": {json.dumps(value)}{comma}')
    lines.append("}")
    return "\n".join(lines) + "\n"


def dumps_explicit(code: GroupCode, name: str = "") -> str:
    """Serialize a code by its canonical basis, as an explicit document."""
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": "explicit",
        "name": name,
        "modulus": code.layout.modulus,
        "axis": code.layout.axis_len,
        "widths": list(code.layout.widths),
        "generators": [list(row) for row in code.carrier.basis],
    }
    return _dump_doc(doc, ("generators",))


def dumps_convolutional(spec: ConvSpec, axis_len: int,
                        margin: int | None = None) -> str:
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": "convolutional",
        "name": spec.name,
        "modulus": spec.modulus,
        "width": spec.width,
        "generators": [[list(sym) for sym in g] for g in spec.generators],
        "patterns": [[list(sym) for sym in p] for p in spec.patterns],
        "window": axis_len,
    }
    if margin is not None:
        doc["margin"] = margin
    return _dump_doc(doc, ("generators", "patterns"))


def load_word(path: str | Path, expect_len: int, modulus: int) -> list[int]:
    """Read a symbol word: whitespace-separated ints (one int is a one-entry
    word), or a JSON list of ints."""
    text = Path(path).read_text()
    try:
        data = [int(tok) for tok in text.split()]
    except ValueError:
        data = parse_json(text, f"word file {path}")
    if isinstance(data, dict) and "word" in data:
        data = data["word"]
    _require(isinstance(data, list) and all(_is_int(v) for v in data),
             "word must be a list of ints")
    _require(len(data) == expect_len,
             f"word length {len(data)} != expected {expect_len}")
    return [v % modulus for v in data]
