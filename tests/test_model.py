import pytest

from bdm.algebra import (
    AtomRefinement,
    FOUR,
    FiniteAlgebra,
    TWO,
    algebra_over,
    identity_refinement,
    twist_product,
)
from bdm.errors import CapExceeded, NoRealizerError
from bdm.model import build_chain, ec_stage, find_matching_element
from bdm.solver import (
    Caps,
    Triple,
    holds_phi,
    sigma_consistent_triples,
    triple_of_element,
    witness_abstract,
)

from corpus import all_bases

CAPS = Caps(max_atoms=64, max_depth=4, max_triples=10**6)


def test_stage_over_two_realizes_all_seven():
    stage = ec_stage(TWO, CAPS)
    assert len(stage.realizers) == 7
    for t, e in stage.realizers:
        assert holds_phi(stage.embedding, t, e)
    # lexicographic order of the record
    assert [t for t, _ in stage.realizers] == sigma_consistent_triples(TWO)


def test_stage_over_four_covers_tabulated_triples():
    stage = ec_stage(FOUR, CAPS)
    assert len(stage.realizers) == 15
    for t, e in stage.realizers:
        assert holds_phi(stage.embedding, t, e)


@pytest.mark.parametrize("alg", all_bases(2), ids=lambda a: f"n{a.n}-{a.sigma}")
def test_stage_realizes_every_triple(alg):
    stage = ec_stage(alg, CAPS)
    for t in sigma_consistent_triples(alg):
        assert holds_phi(stage.embedding, t, stage.realizer(t))


def test_stage_atom_cap():
    with pytest.raises(CapExceeded):
        ec_stage(TWO, Caps(max_atoms=2, max_depth=4, max_triples=10**6))


def test_build_chain_depth_zero():
    assert build_chain(TWO, 0, CAPS) == []


def test_build_chain_depth_one():
    chain = build_chain(TWO, 1, CAPS)
    assert len(chain) == 1
    assert chain[0].base == TWO


def test_build_chain_tight_caps_fail_at_stage_two():
    with pytest.raises(CapExceeded) as e:
        build_chain(TWO, 2, Caps(max_atoms=64, max_depth=4, max_triples=1000))
    assert e.value.stage == 2


def test_build_chain_depth_two():
    chain = build_chain(TWO, 2, Caps(max_atoms=128, max_depth=4, max_triples=10**6))
    assert [s.algebra.n for s in chain] == [8, 32]
    assert chain[1].base == chain[0].algebra


def _sends_v_to_u(rv, v, r0, u, iso):
    """Whether the atom bijection iso between A0<v> and A0<u> carries the
    atoms under v onto the atoms under u."""
    _, v_blocks, _ = algebra_over(rv, [v])
    _, u_blocks, _ = algebra_over(r0, [u])
    return {iso[q - 1] for q in v_blocks.preimage(v).atoms} == u_blocks.preimage(u).atoms


def test_find_matching_element_square_root():
    stage = ec_stage(TWO, CAPS)
    _, rv = twist_product(TWO)
    v = FOUR.atom(1)
    u, iso = find_matching_element(stage, rv, v)
    assert triple_of_element(stage.embedding, u) == triple_of_element(rv, v)
    # the one-generated subalgebra has the shape of the four-element algebra
    assert len(iso) == 2
    assert _sends_v_to_u(rv, v, stage.embedding, u, iso)


def test_find_matching_element_sends_v_to_u():
    # both atoms of the extension are star-fixed, so swapping them is also
    # an isomorphism over the base; only one of the two sends v to u
    stage = ec_stage(TWO, CAPS)
    rv = AtomRefinement(TWO, FiniteAlgebra(2, (1, 2)), [{1, 2}])
    for v in rv.target.elements():
        u, iso = find_matching_element(stage, rv, v)
        assert _sends_v_to_u(rv, v, stage.embedding, u, iso), v


def test_find_matching_element_image_element():
    stage = ec_stage(TWO, CAPS)
    _, rv = twist_product(TWO)
    v = rv.map_element(TWO.one)
    u, iso = find_matching_element(stage, rv, v)
    assert u == stage.embedding.map_element(TWO.one)
    assert iso == (1,)
    assert _sends_v_to_u(rv, v, stage.embedding, u, iso)


def test_find_matching_element_missing_realizer():
    _, rv = twist_product(TWO)
    with pytest.raises(NoRealizerError):
        find_matching_element(identity_refinement(TWO), rv, FOUR.atom(1))


def test_find_matching_element_bare_refinement():
    # a large enough hand-made extension works without a stage record
    w = witness_abstract(Triple(TWO, frozenset(), frozenset({1}), frozenset({1})))
    _, rv = twist_product(TWO)
    u, iso = find_matching_element(w.embedding, rv, FOUR.atom(1))
    assert triple_of_element(w.embedding, u) == triple_of_element(rv, FOUR.atom(1))
    assert _sends_v_to_u(rv, FOUR.atom(1), w.embedding, u, iso)


def test_stage_base_mismatch():
    stage = ec_stage(TWO, CAPS)
    _, rv = twist_product(FOUR)
    with pytest.raises(ValueError):
        find_matching_element(stage, rv, rv.target.atom(1))
