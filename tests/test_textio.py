import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdm.algebra import FOUR, Element, FiniteAlgebra, TWO, generated_subalgebra, twist_product
from bdm.errors import ParseError
from bdm.model import EcStage, ec_stage
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
    stage_json,
    triple_json,
)

from corpus import atoms, random_algebra


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
    with pytest.raises(ParseError):
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
    """stage_json converts each repeated triple mask once, and gives what
    triple_json and element_json give one realizer at a time."""
    stage = ec_stage(base, Caps(max_atoms=64, max_depth=4, max_triples=10**6))
    masks = [m for row in stage.rows for m in row[:3]]
    assert len(set(masks)) < len(masks)
    assert stage_json(stage) == {
        "realized": [
            {"triple": triple_json(t), "element": element_json(e)} for t, e in stage.realizers
        ],
        "algebra": algebra_json(stage.algebra),
        "cells": [sorted(atoms(c)) for c in stage.embedding.cell_masks],
    }


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
    stage = EcStage(
        r,
        tuple(
            (t.m1, t.m2, t.m3, Element(ext, atoms).mask)
            for t, atoms in zip((Triple(base, *sets) for sets in stage_triples), elements)
        ),
    )

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
    realized = list(zip(stage_triples, elements))
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
