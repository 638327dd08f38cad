"""Textual formats for algebras, elements, triples, refinements, witnesses
and stages.

Algebra files:

    atoms 2
    sigma 2 1
    name four          (optional)

Elements print as `0`, `1` or `{i1,i2,...}`; triples as
`I1={...} I2={...} I3={...}` with `{}` for the empty set.  Refinement files
name both algebras explicitly:

    source atoms 1
    source sigma 1
    target atoms 2
    target sigma 2 1
    cell 1: {1,2}

Blank lines and `#` comments are ignored on input; output is canonical and
byte-stable.
"""

from __future__ import annotations

import re
from itertools import islice, starmap
from operator import getitem
from typing import Iterator

from .algebra import AtomRefinement, Element, FiniteAlgebra, format_mask, sorted_atoms
from .errors import ParseError
from .model import EcStage
from .solver import Triple, Witness, _sorted_product


def _lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


def _parse_int_list(parts: list[str], what: str) -> list[int]:
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise ParseError(f"{what} must be a list of integers") from None


def parse_algebra(text: str) -> FiniteAlgebra:
    lines = _lines(text)
    if len(lines) < 2:
        raise ParseError("an algebra needs an 'atoms' line and a 'sigma' line")
    fields: dict[str, str] = {}
    for line in lines:
        key, _, rest = line.partition(" ")
        if key in fields:
            raise ParseError(f"duplicate {key!r} line")
        fields[key] = rest.strip()
    if "atoms" not in fields or "sigma" not in fields:
        raise ParseError("an algebra needs an 'atoms' line and a 'sigma' line")
    unknown = set(fields) - {"atoms", "sigma", "name"}
    if unknown:
        raise ParseError(f"unknown line {sorted(unknown)[0]!r} in algebra")
    return _read_algebra(fields)


def _read_algebra(fields: dict[str, str], prefix: str = "") -> FiniteAlgebra:
    """The algebra of the prefix + "atoms", "sigma" and "name" fields, the
    first two present: how algebra and refinement files read an algebra."""
    try:
        n = int(fields[prefix + "atoms"])
    except ValueError:
        raise ParseError(f"{prefix}atom count must be an integer") from None
    sigma = _parse_int_list(fields[prefix + "sigma"].split(), prefix + "sigma")
    try:
        return FiniteAlgebra(n, tuple(sigma), fields.get(prefix + "name"))
    except ValueError as e:
        raise ParseError(str(e)) from None


def _algebra_lines(alg: FiniteAlgebra, prefix: str = "") -> list[str]:
    """The atoms and sigma lines of alg, each key after prefix."""
    return [f"{prefix}atoms {alg.n}", f"{prefix}sigma " + " ".join(map(str, alg.sigma))]


def _cell_lines(r: AtomRefinement) -> list[str]:
    return [f"cell {i}: {format_mask(m)}" for i, m in enumerate(r.cell_masks, start=1)]


def format_algebra(alg: FiniteAlgebra) -> str:
    lines = _algebra_lines(alg)
    if alg.name:
        lines.append(f"name {alg.name}")
    return "\n".join(lines) + "\n"


_SET_RE = re.compile(r"\{\s*((?:\d+\s*(?:,\s*\d+\s*)*)?)\}")


def _parse_atom_set(text: str, what: str = "set") -> frozenset[int]:
    m = _SET_RE.fullmatch(text.strip())
    if not m:
        raise ParseError(f"malformed {what}: {text!r}")
    inner = m.group(1).strip()
    if not inner:
        return frozenset()
    return frozenset(int(p) for p in inner.split(","))


def parse_element(text: str, alg: FiniteAlgebra) -> Element:
    text = text.strip()
    if text == "0":
        return alg.zero
    if text == "1":
        return alg.one
    atoms = _parse_atom_set(text, "element")
    try:
        return Element(alg, atoms)
    except ValueError as e:
        raise ParseError(str(e)) from None


def format_element(e: Element) -> str:
    if not e.mask:
        return "0"
    if e.mask == e.algebra.full_mask:
        return "1"
    return format_mask(e.mask)


_TRIPLE_RE = re.compile(
    r"I1\s*=\s*(\{[^}]*\})\s+I2\s*=\s*(\{[^}]*\})\s+I3\s*=\s*(\{[^}]*\})"
)


def parse_triple(text: str, alg: FiniteAlgebra) -> Triple:
    m = _TRIPLE_RE.fullmatch(text.strip())
    if not m:
        raise ParseError("a triple looks like 'I1={...} I2={...} I3={...}'")
    sets = [_parse_atom_set(m.group(k), f"I{k}") for k in (1, 2, 3)]
    try:
        return Triple(alg, *sets)
    except ValueError as e:
        raise ParseError(str(e)) from None


def format_triple(t: Triple) -> str:
    return f"I1={format_mask(t.m1)} I2={format_mask(t.m2)} I3={format_mask(t.m3)}"


def parse_refinement(text: str) -> AtomRefinement:
    lines = _lines(text)
    fields: dict[str, str] = {}
    cells: dict[int, frozenset[int]] = {}
    for line in lines:
        m = re.fullmatch(r"cell\s+(\d+)\s*:\s*(\{[^}]*\})", line)
        if m:
            i = int(m.group(1))
            if i in cells:
                raise ParseError(f"duplicate cell {i}")
            cells[i] = _parse_atom_set(m.group(2), f"cell {i}")
            continue
        m = re.fullmatch(r"(source|target)\s+(atoms|sigma)\s+(.*)", line)
        if not m:
            raise ParseError(f"unrecognized refinement line: {line!r}")
        key = f"{m.group(1)} {m.group(2)}"
        if key in fields:
            raise ParseError(f"duplicate {key!r} line")
        fields[key] = m.group(3).strip()
    for key in ("source atoms", "source sigma", "target atoms", "target sigma"):
        if key not in fields:
            raise ParseError(f"refinement is missing the {key!r} line")
    source = _read_algebra(fields, "source ")
    target = _read_algebra(fields, "target ")
    if set(cells) != set(source.atom_indices):
        raise ParseError("refinement needs one cell line per source atom")
    try:
        return AtomRefinement(source, target, tuple(cells[i] for i in source.atom_indices))
    except ValueError as e:
        raise ParseError(str(e)) from None


def format_refinement(r: AtomRefinement) -> str:
    lines = _algebra_lines(r.source, "source ") + _algebra_lines(r.target, "target ")
    return "\n".join(lines + _cell_lines(r)) + "\n"


def extension_lines(r: AtomRefinement) -> list[str]:
    """The target algebra's atoms and sigma lines, then one cell line per
    source atom: how witnesses, stages and realizers print an extension."""
    return _algebra_lines(r.target) + _cell_lines(r)


def format_witness(w: Witness) -> str:
    """Extension algebra, then the embedding cells, then the element."""
    lines = extension_lines(w.embedding)
    lines.append(f"element {format_element(w.element)}")
    return "\n".join(lines) + "\n"


class _Memo(dict):
    """convert(key) for each key looked up, made on first use; a key seen
    before is one dict lookup."""

    __slots__ = ("convert",)

    def __init__(self, convert):
        self.convert = convert

    def __missing__(self, key):
        out = self[key] = self.convert(key)
        return out


def _atom_text(sep: str):
    """A function giving the atoms of a mask as decimals joined by sep.
    A mask is read a byte at a time, and each byte position has a table
    of the text of its byte values, made on first use, "" for a zero
    byte; so a mask's text is one lookup per byte and a join."""
    tables: list[_Memo] = []  # tables[k][b]: the text of byte b at position k

    def byte_text(shift: int):
        return lambda b: sep.join(map(str, sorted_atoms(b << shift)))

    def text(u: int) -> str:
        data = u.to_bytes((u.bit_length() + 7) // 8, "little")
        while len(tables) < len(data):
            tables.append(_Memo(byte_text(8 * len(tables))))
        return sep.join(filter(None, map(getitem, tables, data)))

    return text


# rows per piece of streamed stage text, plain or JSON
_PIECE_ROWS = 4096


def _row_pieces(stage: EcStage, row, sep: str = "") -> Iterator[str]:
    """row(m1, m2, m3, u) for each row of the stage's listing, joined by
    sep, in pieces of at most _PIECE_ROWS rows, each made when the one
    before has been taken; every piece after the first starts with sep."""
    rows, lead = _sorted_product(stage.tables), ""
    while piece := sep.join(starmap(row, islice(rows, _PIECE_ROWS))):
        yield lead + piece
        lead = sep


def _stage_text(stage: EcStage) -> Iterator[str]:
    """The pieces of format_stage(stage).

    Over an n-atom base I1..I3 take at most 2^n values between them while
    the stage prints a line per consistent triple, so each distinct triple
    mask is formatted once per stage.  Realizers are all distinct: each
    prints as the text of its nonzero bytes (see _atom_text)."""
    triple_set = _Memo(format_mask)
    atoms = _atom_text(",")
    full = stage.algebra.full_mask

    def row(m1: int, m2: int, m3: int, u: int) -> str:
        element = "0" if not u else "1" if u == full else "{" + atoms(u) + "}"
        return (f"realized I1={triple_set[m1]} I2={triple_set[m2]} "
                f"I3={triple_set[m3]} -> {element}\n")

    yield from _row_pieces(stage, row)
    yield "\n".join(extension_lines(stage.embedding)) + "\n"


def format_stage(stage: EcStage) -> str:
    """Realized triples in order, then the stage algebra and embedding."""
    return "".join(_stage_text(stage))


def stages_text(stages: list[EcStage]) -> Iterator[str]:
    """A `stage i` line before the format_stage text of each stage, in
    pieces of at most _PIECE_ROWS rows."""
    for i, stage in enumerate(stages, start=1):
        yield f"stage {i}\n"
        yield from _stage_text(stage)


# -- JSON-friendly views ----------------------------------------------------

def algebra_json(alg: FiniteAlgebra) -> dict:
    out = {"atoms": alg.n, "sigma": list(alg.sigma)}
    if alg.name:
        out["name"] = alg.name
    return out


def element_json(e: Element) -> list[int]:
    return sorted_atoms(e.mask)


def triple_json(t: Triple) -> dict:
    return {"I1": sorted_atoms(t.m1), "I2": sorted_atoms(t.m2), "I3": sorted_atoms(t.m3)}


def _cells_json(r: AtomRefinement) -> list[list[int]]:
    return [sorted_atoms(m) for m in r.cell_masks]


def refinement_json(r: AtomRefinement) -> dict:
    return {
        "source": algebra_json(r.source),
        "target": algebra_json(r.target),
        "cells": _cells_json(r),
    }


def extension_json(r: AtomRefinement) -> dict:
    """The target algebra and the cell of each source atom, under the keys
    "extension" and "cells"."""
    return {"extension": algebra_json(r.target), "cells": _cells_json(r)}


def witness_json(w: Witness) -> dict:
    return extension_json(w.embedding) | {"element": element_json(w.element)}


def stages_json_text(stages: list[EcStage]) -> Iterator[str]:
    """One line of JSON with sorted keys, {"stages": [...]}, in pieces of
    at most _PIECE_ROWS rows.  A stage is its "algebra", its "cells" and its
    "realized" rows, each {"element": atoms, "triple": {"I1": atoms, ...}}.
    Rows are written from their masks by the loop format_stage uses, each
    distinct triple mask once per stage; the rest of a stage goes through
    json.dumps."""
    import json  # deferred: only --json answers need it

    yield '{"stages": ['
    for k, stage in enumerate(stages):
        # "realized" sorts after "algebra" and "cells", so it closes the object
        head = json.dumps(
            {"algebra": algebra_json(stage.algebra), "cells": _cells_json(stage.embedding)},
            sort_keys=True,
        )
        yield (", " if k else "") + head[:-1] + ', "realized": ['
        atoms = _atom_text(", ")
        triple_set = _Memo(lambda m: "[" + atoms(m) + "]")

        def row(m1: int, m2: int, m3: int, u: int) -> str:
            return (f'{{"element": [{atoms(u)}], "triple": {{"I1": {triple_set[m1]}, '
                    f'"I2": {triple_set[m2]}, "I3": {triple_set[m3]}}}}}')

        yield from _row_pieces(stage, row, ", ")
        yield "]}"
    yield "]}\n"
