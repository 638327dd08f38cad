"""Cross-cutting properties tying the modules together."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdm.algebra import (
    FOUR,
    TWO,
    amalgamate,
    compose_refinements,
    four_power,
    twist_product,
)
from bdm.cli import main
from bdm.model import build_chain
from bdm.solver import (
    Caps,
    Triple,
    realizations,
    sigma_consistent_triples,
    triple_of_element,
    witness_abstract,
    witness_via_four_power,
)
from bdm.textio import parse_algebra, parse_refinement

from corpus import atoms, elements, random_algebra, random_element, random_refinement, term_value

CAPS = Caps(max_atoms=128, max_depth=4, max_triples=10**6)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**9))
def test_twist_map_shape(seed):
    # the twist embedding sends x to the pair (x, ~x): the plus copy carries
    # x and the minus copy the complement of ~x
    rng = random.Random(seed)
    alg = random_algebra(rng, 4)
    ext, r = twist_product(alg)
    n = alg.n
    assert r.map_element(alg.zero) == ext.zero
    assert r.map_element(alg.one) == ext.one
    for x in elements(alg):
        image = atoms(r.map_element(x).mask)
        assert {i for i in image if i <= n} == atoms(x.mask)
        assert {i - n for i in image if i > n} == {alg.sigma[i - 1] for i in atoms(x.mask)}


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**9))
def test_amalgamation_commutes(seed):
    rng = random.Random(seed)
    base = random_algebra(rng, 3)
    r1 = random_refinement(rng, base, max_cell=2)
    r2 = random_refinement(rng, base, max_cell=2)
    amalgam, s1, s2 = amalgamate(r1, r2)
    for x in elements(base):
        assert s1.map_element(r1.map_element(x)) == s2.map_element(r2.map_element(x))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**9))
def test_types_invariant_under_transport(seed):
    # pushing an element along a further embedding never changes its type
    # over the original base
    rng = random.Random(seed)
    base = random_algebra(rng, 3)
    r = random_refinement(rng, base, max_cell=2)
    s = random_refinement(rng, r.target, max_cell=2)
    for _ in range(10):
        u = random_element(rng, r.target)
        t = triple_of_element(r, u)
        assert triple_of_element(compose_refinements(r, s), s.map_element(u)) == t


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9))
def test_generated_subalgebra_idempotent(seed):
    from bdm.algebra import generated_subalgebra

    rng = random.Random(seed)
    alg = random_algebra(rng, 5)
    gens = [random_element(rng, alg) for _ in range(2)]
    sub, r = generated_subalgebra(alg, gens)
    again, r2 = generated_subalgebra(alg, [r.map_element(x) for x in elements(sub)])
    assert again == sub
    assert r2.cell_masks == r.cell_masks


def test_four_power_branch_with_several_coordinates():
    # a base already shaped as a power of four goes through the
    # coordinatewise branch with the identity embedding
    base = four_power(2)
    for t in sigma_consistent_triples(base):
        w = witness_via_four_power(t)
        assert triple_of_element(w.embedding, w.element) == t, t
        w2 = witness_abstract(t)
        assert triple_of_element(w2.embedding, w2.element) == t, t


def test_chain_second_stage_realizers_hold():
    chain = build_chain(TWO, 2, CAPS)
    stage2 = chain[1]
    sample = stage2.realizers[::500]
    assert sample
    for t, e in sample:
        assert triple_of_element(stage2.embedding, e) == t


def test_realizations_realizers_stay_outside_earlier_algebras():
    t = Triple(TWO, frozenset(), frozenset({1}), frozenset({1}))
    ext, emb, elems = realizations(t, 4)
    assert len(set(elems)) == 4
    image = {emb.map_element(x) for x in elements(TWO)}
    for e in elems:
        assert e not in image


def test_realizations_rejects_bad_count():
    with pytest.raises(ValueError):
        realizations(Triple(TWO, frozenset(), frozenset({1}), frozenset({1})), 0)


def test_operations_reject_mixed_algebras():
    for text in ("x + y", "x . y"):
        with pytest.raises(ValueError, match="^variable 'y' is bound outside the algebra$"):
            term_value(text, x=FOUR.atom(1), y=TWO.one)


def test_witness_json_round_trips(capsys, tmp_path):
    # the machine format reconstructs values the library accepts
    four = tmp_path / "four.alg"
    four.write_text("atoms 2\nsigma 2 1\n")
    code = main(
        [
            "witness",
            "--algebra",
            str(four),
            "I1={} I2={} I3={}",
            "--via",
            "power4",
            "--json",
        ]
    )
    assert code == 0
    blob = json.loads(capsys.readouterr().out)
    ext = parse_algebra(
        "atoms {}\nsigma {}\n".format(
            blob["extension"]["atoms"], " ".join(map(str, blob["extension"]["sigma"]))
        )
    )
    from bdm.algebra import AtomRefinement, Element

    emb = AtomRefinement(FOUR, ext, tuple(frozenset(c) for c in blob["cells"]))
    element = Element(ext, frozenset(blob["element"]))
    t = Triple(FOUR, frozenset(), frozenset(), frozenset())
    assert triple_of_element(emb, element) == t


def test_refinement_json_round_trips(capsys, tmp_path):
    ref = tmp_path / "twist.ref"
    ref.write_text(
        "source atoms 1\nsource sigma 1\ntarget atoms 2\ntarget sigma 2 1\ncell 1: {1,2}\n"
    )
    code = main(["amalgamate", "--left", str(ref), "--right", str(ref), "--json"])
    assert code == 0
    blob = json.loads(capsys.readouterr().out)
    left = blob["left"]
    text = "source atoms {}\nsource sigma {}\ntarget atoms {}\ntarget sigma {}\n".format(
        left["source"]["atoms"],
        " ".join(map(str, left["source"]["sigma"])),
        left["target"]["atoms"],
        " ".join(map(str, left["target"]["sigma"])),
    ) + "".join(
        "cell {}: {{{}}}\n".format(i + 1, ",".join(map(str, cell)))
        for i, cell in enumerate(left["cells"])
    )
    r = parse_refinement(text)
    assert r.source == FOUR and r.target.n == 4


def test_stage_embedding_composes_with_chain():
    chain = build_chain(TWO, 2, CAPS)
    comp = compose_refinements(chain[0].embedding, chain[1].embedding)
    assert comp.source == TWO
    # types recorded in stage one survive into stage two
    for t, e in chain[0].realizers:
        pushed = chain[1].embedding.map_element(e)
        assert triple_of_element(comp, pushed) == t
