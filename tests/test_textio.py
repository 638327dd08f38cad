import json
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdm.algebra import (
    FOUR,
    Element,
    FiniteAlgebra,
    TWO,
    generated_subalgebra,
    sorted_atoms,
    twist_product,
)
from bdm.errors import ParseError
from bdm import textio
from bdm.model import EcStage, build_chain, ec_stage
from bdm.solver import Caps, Triple, witness_abstract
from bdm.textio import (
    algebra_json,
    element_json,
    extension_lines,
    format_algebra,
    format_element,
    format_refinement,
    format_stage,
    format_triple,
    format_witness,
    parse_algebra,
    parse_element,
    parse_refinement,
    parse_triple,
    stages_json_text,
    stages_text,
    triple_json,
)

from corpus import all_bases, atoms, random_algebra, stage_rows


def stage_json(stage: EcStage) -> dict:
    """The JSON value of one stage, as stages_json_text prints it: the
    reference its pieces are checked against."""
    return {
        "realized": [
            {
                "triple": {"I1": sorted_atoms(m1), "I2": sorted_atoms(m2), "I3": sorted_atoms(m3)},
                "element": sorted_atoms(u),
            }
            for m1, m2, m3, u in stage_rows(stage)
        ],
        "algebra": algebra_json(stage.algebra),
        "cells": [sorted_atoms(m) for m in stage.embedding.cell_masks],
    }


def test_algebra_round_trip():
    for alg in [TWO, FOUR, FiniteAlgebra(3, (2, 1, 3), name="three")]:
        assert parse_algebra(format_algebra(alg)) == alg
    text = format_algebra(FiniteAlgebra(2, (2, 1), name="four"))
    assert text == "atoms 2\nsigma 2 1\nname four\n"


def test_algebra_parse_tolerates_comments():
    alg = parse_algebra("# a comment\natoms 2\n\nsigma 2 1\n")
    assert alg == FOUR


def test_algebra_parse_errors():
    with pytest.raises(ParseError):
        parse_algebra("atoms 2\n")
    with pytest.raises(ParseError):
        parse_algebra("atoms 2\nsigma 1 1\n")
    with pytest.raises(ParseError, match="^atom count must be an integer$"):
        parse_algebra("atoms x\nsigma 1\n")
    with pytest.raises(ParseError):
        parse_algebra("atoms 1\nsigma 1\nbogus 3\n")


def test_element_forms():
    assert parse_element("0", FOUR) == FOUR.zero
    assert parse_element("1", FOUR) == FOUR.one
    assert parse_element("{1}", FOUR) == FOUR.atom(1)
    assert parse_element("{}", FOUR) == FOUR.zero
    assert format_element(FOUR.zero) == "0"
    assert format_element(FOUR.one) == "1"
    assert format_element(FOUR.atom(2)) == "{2}"
    with pytest.raises(ParseError):
        parse_element("{3}", FOUR)
    with pytest.raises(ParseError):
        parse_element("{1,}", FOUR)


def test_triple_round_trip():
    t = Triple(FOUR, frozenset({1, 2}), frozenset(), frozenset({1}))
    text = format_triple(t)
    assert text == "I1={1,2} I2={} I3={1}"
    assert parse_triple(text, FOUR) == t
    with pytest.raises(ParseError):
        parse_triple("I1={1}", FOUR)
    with pytest.raises(ParseError):
        parse_triple("I1={9} I2={} I3={}", FOUR)


def test_refinement_round_trip():
    _, r = twist_product(FOUR)
    text = format_refinement(r)
    assert parse_refinement(text) == r
    with pytest.raises(ParseError):
        parse_refinement("source atoms 1\nsource sigma 1\n")


@pytest.mark.parametrize("side", ["source", "target"])
def test_refinement_atom_count_reads_like_an_algebra(side):
    """A refinement's algebras are read as algebra files are, so a bad atom
    count gets the algebra reader's message."""
    lines = {"source atoms": "1", "source sigma": "1", "target atoms": "2", "target sigma": "2 1"}
    lines[f"{side} atoms"] = "x"
    text = "".join(f"{key} {value}\n" for key, value in lines.items()) + "cell 1: {1,2}\n"
    with pytest.raises(ParseError, match=f"^{side} atom count must be an integer$"):
        parse_refinement(text)


def test_witness_dump():
    w = witness_abstract(Triple(TWO, frozenset(), frozenset({1}), frozenset({1})))
    text = format_witness(w)
    assert text == "atoms 2\nsigma 2 1\ncell 1: {1,2}\nelement {1}\n"


def test_stage_dump_shape():
    stage = ec_stage(TWO, Caps(max_atoms=64, max_depth=4, max_triples=10**6))
    text = format_stage(stage)
    lines = text.splitlines()
    assert sum(1 for line in lines if line.startswith("realized ")) == 7
    assert lines[0].startswith("realized I1={} I2={} I3={} -> ")
    assert any(line.startswith("atoms ") for line in lines)
    assert any(line.startswith("cell 1: ") for line in lines)


def test_stage_dump_matches_line_printers():
    """format_stage formats each repeated mask once, and prints the lines
    that format_triple and format_element give one realizer at a time."""
    stage = ec_stage(FOUR, Caps(max_atoms=64, max_depth=4, max_triples=10**6))
    masks = [m for t, _ in stage.realizers for m in (t.m1, t.m2, t.m3)]
    assert len(set(masks)) < len(masks)
    lines = [f"realized {format_triple(t)} -> {format_element(e)}" for t, e in stage.realizers]
    assert format_stage(stage) == "\n".join(lines + extension_lines(stage.embedding)) + "\n"


@pytest.mark.parametrize("base", [FOUR, FiniteAlgebra(3, (1, 3, 2))], ids=["four", "three"])
def test_stage_json_matches_row_printers(base):
    """The reference stage_json gives what triple_json and element_json give
    one realizer at a time, with triple masks that repeat."""
    stage = ec_stage(base, Caps(max_atoms=64, max_depth=4, max_triples=10**6))
    masks = [m for row in stage_rows(stage) for m in row[:3]]
    assert len(set(masks)) < len(masks)
    assert stage_json(stage) == {
        "realized": [
            {"triple": triple_json(t), "element": element_json(e)} for t, e in stage.realizers
        ],
        "algebra": algebra_json(stage.algebra),
        "cells": [sorted(atoms(c)) for c in stage.embedding.cell_masks],
    }


@pytest.mark.parametrize(
    "base, depth",
    [(TWO, 0), (TWO, 1), (FOUR, 1), (FiniteAlgebra(3, (1, 3, 2), name="three"), 1), (TWO, 2)],
)
def test_stages_json_text_is_the_json_of_stage_json(monkeypatch, base, depth):
    """The pieces join to the line json.dumps prints for stage_json, and a
    stage comes in one piece per _PIECE_ROWS rows, plus its head and tail."""
    monkeypatch.setattr(textio, "_PIECE_ROWS", 1000)
    chain = build_chain(base, depth, Caps(max_atoms=64, max_depth=4, max_triples=10**5))
    pieces = list(stages_json_text(chain))
    expected = json.dumps({"stages": [stage_json(s) for s in chain]}, sort_keys=True) + "\n"
    assert "".join(pieces) == expected
    assert len(pieces) == 2 + sum(2 + math.ceil(len(stage_rows(s)) / 1000) for s in chain)


DEPTH_TWO_CAPS = Caps(max_atoms=64, max_depth=4, max_triples=10**5)


# the second stage over the two-atom base with the identity involution has
# 2,562,890,625 consistent triples, past any cap
@pytest.mark.parametrize(
    "base, depth",
    [(b, d) for b in all_bases(2) for d in (1, 2) if (b.sigma, d) != ((1, 2), 2)],
)
def test_stages_text_pieces_join_to_format_stage(monkeypatch, base, depth):
    """The pieces are a `stage i` line, then format_stage's text of the
    stage in one piece per _PIECE_ROWS rows, plus the extension lines."""
    chain = build_chain(base, depth, DEPTH_TWO_CAPS)
    expected = "".join(f"stage {i}\n{format_stage(s)}" for i, s in enumerate(chain, start=1))
    monkeypatch.setattr(textio, "_PIECE_ROWS", 1000)
    pieces = list(stages_text(chain))
    assert "".join(pieces) == expected
    assert len(pieces) == sum(2 + math.ceil(len(stage_rows(s)) / 1000) for s in chain)


@pytest.mark.parametrize(
    "render, row_start",
    [(stages_text, "realized "), (stages_json_text, '{"element": ')],
    ids=["text", "json"],
)
def test_no_piece_holds_more_than_4096_rows(render, row_start):
    chain = build_chain(TWO, 2, DEPTH_TWO_CAPS)
    rows = [piece.count(row_start) for piece in render(chain)]
    assert sum(rows) == 7 + 50625
    assert max(rows) == 4096


@pytest.mark.parametrize("render", [stages_text, stages_json_text], ids=["text", "json"])
def test_rendering_depth_two_holds_one_piece_at_a_time(render):
    """The stages over 2 print 4.9 MB of text (7.4 MB as JSON); taking the
    pieces one by one, with the stages already built, stays under 4 MB."""
    chain = build_chain(TWO, 2, DEPTH_TWO_CAPS)
    tracemalloc.start()
    try:
        for _ in render(chain):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def ref_set(atoms) -> str:
    return "{" + ",".join(map(str, sorted(atoms))) + "}"


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 300), st.floats(0, 1))
def test_printers_match_frozenset_reference(seed, max_n, density):
    """Atom sets of up to 300 atoms, drawn as frozensets, print and convert
    to JSON as their sorted atoms; the cells are those of a subalgebra
    generated by two random elements."""
    rng = random.Random(seed)
    ext = random_algebra(rng, max_n)

    def draw(alg):
        return frozenset(i for i in alg.atom_indices if rng.random() < density)

    base, r = generated_subalgebra(ext, [Element(ext, draw(ext)) for _ in range(2)])
    cells = [frozenset(i + 1 for i in range(ext.n) if c >> i & 1) for c in r.cell_masks]
    triples = [(draw(ext), draw(ext), draw(ext)) for _ in range(3)]
    elements = [draw(ext) for _ in range(3)] + [frozenset(), frozenset(ext.atom_indices)]
    stage_triples = [(draw(base), draw(base), draw(base)) for _ in elements]
    # one table over all the base's atoms, one realizer per drawn triple:
    # the stage lists them in the lexicographic order of the triples' masks
    realized = dict(zip(stage_triples, elements))
    table = {}
    for sets, atoms in realized.items():
        t = Triple(base, *sets)
        table[t.m1, t.m2, t.m3] = Element(ext, atoms).mask
    stage = EcStage(r, ((base.full_mask, table),))

    def ref_element(atoms):
        return "0" if not atoms else "1" if len(atoms) == ext.n else ref_set(atoms)

    def ref_triple(sets):
        return " ".join(f"I{k}={ref_set(s)}" for k, s in enumerate(sets, start=1))

    for atoms in elements:
        assert format_element(Element(ext, atoms)) == ref_element(atoms)
        assert element_json(Element(ext, atoms)) == sorted(atoms)
    for sets in triples:
        assert format_triple(Triple(ext, *sets)) == ref_triple(sets)
        assert triple_json(Triple(ext, *sets)) == {
            f"I{k}": sorted(s) for k, s in enumerate(sets, start=1)
        }
    cell_lines = [f"cell {i}: {ref_set(c)}" for i, c in enumerate(cells, start=1)]
    ext_lines = [f"atoms {ext.n}", "sigma " + " ".join(map(str, ext.sigma))] + cell_lines
    assert extension_lines(r) == ext_lines
    assert format_refinement(r).splitlines()[4:] == cell_lines
    realized = sorted(
        realized.items(), key=lambda row: [sum(1 << (i - 1) for i in s) for s in row[0]]
    )
    assert format_stage(stage) == "\n".join(
        [f"realized {ref_triple(t)} -> {ref_element(e)}" for t, e in realized] + ext_lines
    ) + "\n"
    assert stage_json(stage) == {
        "realized": [
            {"triple": {f"I{k}": sorted(s) for k, s in enumerate(t, start=1)},
             "element": sorted(e)}
            for t, e in realized
        ],
        "algebra": {"atoms": ext.n, "sigma": list(ext.sigma)},
        "cells": [sorted(c) for c in cells],
    }


# masks of up to 136 bits, about half of their bytes zero, so zero bytes
# fall between nonzero ones
MASKS = st.lists(st.one_of(st.just(0), st.integers(0, 255)), max_size=17).map(
    lambda data: int.from_bytes(bytes(data), "little")
)


@settings(max_examples=200, deadline=None)
@given(st.lists(MASKS, min_size=1, max_size=20))
def test_atom_text_matches_sorted_atoms(masks):
    """One _atom_text function, with its per-byte tables made on first use
    and kept across masks of different widths, joins each mask's atoms."""
    for sep in (",", ", "):
        text = textio._atom_text(sep)
        for u in masks + masks[::-1]:
            assert text(u) == sep.join(map(str, sorted_atoms(u)))


def test_memo_converts_each_key_once():
    calls = []
    memo = textio._Memo(lambda key: calls.append(key) or key * 2)
    assert [memo[k] for k in (3, 4, 3, 3, 4)] == [6, 8, 6, 6, 8]
    assert calls == [3, 4]
