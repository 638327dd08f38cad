import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdm.algebra import (
    AtomRefinement,
    Element,
    FOUR,
    FiniteAlgebra,
    TWO,
    amalgamate,
    compose_refinements,
    find_isomorphism_over,
    four_power,
    generated_subalgebra,
    identity_refinement,
    is_four_power_shaped,
    twist_product,
)
from bdm.solver import Triple, witness_abstract

from corpus import all_bases, atoms, random_algebra, random_refinement


def test_new_algebra_four():
    alg = FiniteAlgebra(2, [2, 1])
    assert alg == FOUR
    a, b = alg.atom(1), alg.atom(2)
    assert a.bneg() == b and b.bneg() == a
    assert a.dmneg() == a and b.dmneg() == b
    assert atoms(alg.zero.mask) == frozenset() and atoms(alg.one.mask) == {1, 2}


def test_new_algebra_two():
    assert FiniteAlgebra(1, [1]) == TWO


def test_new_algebra_rejects_non_involution():
    with pytest.raises(ValueError):
        FiniteAlgebra(2, [1, 1])
    with pytest.raises(ValueError):
        FiniteAlgebra(3, [2, 3, 1])  # 3-cycle
    with pytest.raises(ValueError):
        FiniteAlgebra(0, [])


def test_operation_examples():
    a = FOUR.atom(1)
    assert a.dmneg() == a
    assert a.bneg() == FOUR.atom(2)
    assert a.star() == FOUR.atom(2)
    assert a.join(FOUR.atom(2)) == FOUR.one
    assert a.meet(FOUR.atom(2)) == FOUR.zero


def test_dmneg_involution_exhaustive_three_atoms():
    for sigma in [(1, 2, 3), (2, 1, 3), (3, 2, 1), (1, 3, 2)]:
        alg = FiniteAlgebra(3, sigma)
        for x in alg.elements():
            assert x.dmneg().dmneg() == x


@pytest.mark.parametrize("alg", all_bases(4), ids=lambda a: f"n{a.n}-{a.sigma}")
def test_bdm_laws_exhaustive(alg):
    for x in alg.elements():
        assert x.dmneg().dmneg() == x
        assert x.join(x.bneg()) == alg.one
        assert x.meet(x.bneg()) == alg.zero
        assert x.bneg().dmneg() == x.dmneg().bneg()
        assert x.star() == x.dmneg().bneg()
        assert x.star().star() == x
        for y in alg.elements():
            assert x.join(y).dmneg() == x.dmneg().meet(y.dmneg())
            assert x.meet(y).dmneg() == x.dmneg().join(y.dmneg())


def test_four_power_layout():
    assert four_power(1) == FOUR
    assert four_power(2).sigma == (3, 4, 1, 2)
    alg = four_power(3)
    # (b, 1, 0) encodes as {4} | {2, 5} | {} = {2, 4, 5}
    b10 = Element(alg, {4, 2, 5})
    assert sorted(atoms(b10.mask)) == [2, 4, 5]
    assert is_four_power_shaped(alg)
    assert not is_four_power_shaped(TWO)


def test_twist_of_two_is_four():
    ext, r = twist_product(TWO)
    assert ext == FOUR
    assert r.cell(1) == {1, 2}
    assert r.map_element(TWO.zero) == FOUR.zero
    assert r.map_element(TWO.one) == FOUR.one


def test_twist_of_four():
    ext, r = twist_product(FOUR)
    assert ext == four_power(2)
    assert r.cell(1) == {1, 4}
    assert r.cell(2) == {2, 3}
    # the induced map is x |-> (x, x~): check operation preservation on all
    # 16 pairs plus the image characterization
    for x in FOUR.elements():
        assert r.map_element(x.dmneg()) == r.map_element(x).dmneg()
        assert r.map_element(x.bneg()) == r.map_element(x).bneg()
        assert r.map_element(x.star()) == r.map_element(x).star()
        for y in FOUR.elements():
            assert r.map_element(x.join(y)) == r.map_element(x).join(r.map_element(y))
            assert r.map_element(x.meet(y)) == r.map_element(x).meet(r.map_element(y))


def test_twist_of_identity_sigma_three_atoms():
    ext, r = twist_product(FiniteAlgebra(3, (1, 2, 3)))
    assert ext.n == 6
    orbits = ext.sigma_orbits()
    assert all(len(o) == 2 for o in orbits) and len(orbits) == 3


def test_embed_into_four_power_examples():
    ext, r = twist_product(TWO)
    assert ext == FOUR and r.cell(1) == {1, 2}
    ext, r = twist_product(FOUR)
    assert ext == four_power(2)
    assert r.cell(1) == {1, 4} and r.cell(2) == {2, 3}
    alg = FiniteAlgebra(3, (2, 1, 3))
    ext, r = twist_product(alg)
    assert ext == four_power(3)
    for x in alg.elements():
        for y in alg.elements():
            assert r.map_element(x.meet(y)) == r.map_element(x).meet(r.map_element(y))
        assert r.map_element(x.dmneg()) == r.map_element(x).dmneg()


def test_generated_subalgebra_empty_gives_two():
    sub, r = generated_subalgebra(FOUR)
    assert sub == TWO
    assert r.cell(1) == {1, 2}


def test_generated_subalgebra_diagonal_of_square():
    alg = four_power(2)
    diag_a = Element(alg, {1, 2})  # (a, a)
    sub, r = generated_subalgebra(alg, [diag_a])
    assert sub == FOUR  # two cells swapped by sigma
    assert tuple(map(atoms, r.cell_masks)) == (frozenset({1, 2}), frozenset({3, 4}))
    assert sub.sigma == (2, 1)


def test_generated_subalgebra_atom_generates_four():
    sub, r = generated_subalgebra(FOUR, [FOUR.atom(1)])
    assert sub == FOUR
    assert r == identity_refinement(FOUR)


def test_generated_subalgebra_all_atoms_identity():
    for alg in all_bases(3):
        sub, r = generated_subalgebra(alg, [alg.atom(i) for i in alg.atom_indices])
        assert sub == alg and r == identity_refinement(alg)


def test_amalgamate_two_copies_of_four():
    _, r = twist_product(TWO)
    amalgam, s1, s2 = amalgamate(r, r)
    assert amalgam.n == 4
    assert all(len(o) == 2 for o in amalgam.sigma_orbits())
    # both squares commute
    for x in TWO.elements():
        assert s1.map_element(r.map_element(x)) == s2.map_element(r.map_element(x))
    # abstractly a square of the four-element algebra
    assert find_isomorphism_over(
        AtomRefinement(TWO, amalgam, (atoms(amalgam.full_mask),)),
        AtomRefinement(TWO, four_power(2), (atoms(four_power(2).full_mask),)),
    ) is not None


def test_amalgamate_over_identity_is_isomorphism():
    r1 = identity_refinement(FOUR)
    _, r2 = twist_product(FOUR)
    amalgam, s1, s2 = amalgamate(r1, r2)
    assert amalgam.n == r2.target.n
    assert all(len(s2.cell(j)) == 1 for j in r2.target.atom_indices)


def test_amalgamate_mixed_targets():
    _, r1 = twist_product(TWO)  # TWO -> FOUR
    r2 = AtomRefinement(TWO, FiniteAlgebra(2, (1, 2)), (frozenset({1, 2}),))
    amalgam, s1, s2 = amalgamate(r1, r2)
    assert amalgam.n == 4
    for x in TWO.elements():
        assert s1.map_element(r1.map_element(x)) == s2.map_element(r2.map_element(x))


def test_amalgamate_rejects_mismatched_sources():
    _, r1 = twist_product(TWO)
    _, r2 = twist_product(FOUR)
    with pytest.raises(ValueError):
        amalgamate(r1, r2)


def test_find_isomorphism_identity_case():
    _, r = twist_product(TWO)
    iso = find_isomorphism_over(r, r)
    assert iso == (1, 2)  # lexicographically least


def test_find_isomorphism_cell_size_mismatch():
    big = AtomRefinement(TWO, four_power(2), (atoms(four_power(2).full_mask),))
    small = AtomRefinement(TWO, FOUR, (atoms(FOUR.full_mask),))
    assert find_isomorphism_over(big, small) is None


def test_find_isomorphism_distinct_one_generated_extensions():
    w1 = witness_abstract(Triple(TWO, frozenset(), frozenset({1}), frozenset({1})))
    w2 = witness_abstract(Triple(TWO, frozenset({1}), frozenset({1}), frozenset()))
    assert find_isomorphism_over(w1.embedding, w2.embedding) is None


def test_find_isomorphism_maps_fixed_atoms_to_fixed_atoms():
    # equal cell sizes, but star fixes both atoms of one target and swaps
    # those of the other, so no bijection commutes with sigma
    fixed = AtomRefinement(TWO, FiniteAlgebra(2, (1, 2)), (frozenset({1, 2}),))
    swapped = AtomRefinement(TWO, FOUR, (frozenset({1, 2}),))
    assert find_isomorphism_over(fixed, swapped) is None
    assert find_isomorphism_over(swapped, fixed) is None
    mixed = FiniteAlgebra(3, (2, 1, 3))
    a = AtomRefinement(TWO, mixed, (frozenset({1, 2, 3}),))
    b = AtomRefinement(TWO, FiniteAlgebra(3, (1, 3, 2)), (frozenset({1, 2, 3}),))
    assert find_isomorphism_over(a, b) == (2, 3, 1)


def test_compose_refinements_examples():
    _, r = twist_product(TWO)
    assert compose_refinements(identity_refinement(TWO), r).cell_masks == r.cell_masks
    _, r2 = twist_product(FOUR)
    comp = compose_refinements(r, r2)
    assert comp.cell(1) == {1, 2, 3, 4}
    with pytest.raises(ValueError):
        compose_refinements(r2, r)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_refinement_chain_invariants(seed):
    rng = random.Random(seed)
    base = random_algebra(rng, 3)
    r1 = random_refinement(rng, base, max_cell=2)
    r2 = random_refinement(rng, r1.target, max_cell=2)
    comp = compose_refinements(r1, r2)
    assert comp.source == base and comp.target == r2.target
    # composite cells are the unions of second-step cells
    for i in base.atom_indices:
        assert comp.cell(i) == atoms(r2.map_mask(r1.cell_masks[i - 1]))
    # the induced map preserves the operations and is injective
    seen = set()
    for x in base.elements():
        y = comp.map_element(x)
        assert y not in seen
        seen.add(y)
        assert comp.map_element(x.dmneg()) == y.dmneg()
        assert comp.map_element(x.star()) == y.star()
        assert comp.map_element(x.bneg()) == y.bneg()


def test_refinement_validation_errors():
    with pytest.raises(ValueError):
        AtomRefinement(TWO, FOUR, (frozenset({1}),))  # does not cover
    with pytest.raises(ValueError):
        AtomRefinement(FOUR, FOUR, (frozenset({1, 2}), frozenset({2})))  # overlap
    with pytest.raises(ValueError):
        # not sigma-equivariant: sigma(cell(1)) = {1, 3} but cell(2) = {2, 4}
        AtomRefinement(
            FOUR,
            four_power(2),
            (frozenset({1, 3}), frozenset({2, 4})),
        )


def test_element_validation():
    with pytest.raises(ValueError):
        Element(TWO, frozenset({2}))
    with pytest.raises(ValueError):
        FOUR.atom(3)


def test_preimage():
    _, r = twist_product(FOUR)
    for x in FOUR.elements():
        assert r.preimage(r.map_element(x)) == x
    assert r.preimage(r.target.atom(1)) is None
