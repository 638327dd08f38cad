import itertools
import random
import time

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
from bdm.errors import CapExceeded
from bdm.solver import Triple, witness_abstract

from corpus import all_bases, atoms, elements, random_algebra, random_refinement, term_value


def test_new_algebra_four():
    alg = FiniteAlgebra(2, [2, 1])
    assert alg == FOUR
    a, b = alg.atom(1), alg.atom(2)
    assert term_value("x'", x=a) == b and term_value("x'", x=b) == a
    assert term_value("~x", x=a) == a and term_value("~x", x=b) == b
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
    a, b = FOUR.atom(1), FOUR.atom(2)
    assert term_value("~x", x=a) == a
    assert term_value("x'", x=a) == b
    assert term_value("x*", x=a) == b
    assert term_value("x + y", x=a, y=b) == FOUR.one
    assert term_value("x . y", x=a, y=b) == FOUR.zero


def test_dmneg_involution_exhaustive_three_atoms():
    for sigma in [(1, 2, 3), (2, 1, 3), (3, 2, 1), (1, 3, 2)]:
        alg = FiniteAlgebra(3, sigma)
        for x in elements(alg):
            assert term_value("~~x", x=x) == x


@pytest.mark.parametrize("alg", all_bases(4), ids=lambda a: f"n{a.n}-{a.sigma}")
def test_bdm_laws_exhaustive(alg):
    for x in elements(alg):
        assert term_value("~~x", x=x) == x
        assert term_value("x + x'", x=x) == alg.one
        assert term_value("x . x'", x=x) == alg.zero
        assert term_value("~(x')", x=x) == term_value("(~x)'", x=x)
        assert term_value("x*", x=x) == term_value("(~x)'", x=x)
        assert term_value("x**", x=x) == x
        for y in elements(alg):
            assert term_value("~(x + y)", x=x, y=y) == term_value("~x . ~y", x=x, y=y)
            assert term_value("~(x . y)", x=x, y=y) == term_value("~x + ~y", x=x, y=y)


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
    for x in elements(FOUR):
        fx = r.map_element(x)
        assert r.map_element(term_value("~x", x=x)) == term_value("~x", x=fx)
        assert r.map_element(term_value("x'", x=x)) == term_value("x'", x=fx)
        assert r.map_element(term_value("x*", x=x)) == term_value("x*", x=fx)
        for y in elements(FOUR):
            fy = r.map_element(y)
            assert r.map_element(term_value("x + y", x=x, y=y)) == term_value("x + y", x=fx, y=fy)
            assert r.map_element(term_value("x . y", x=x, y=y)) == term_value("x . y", x=fx, y=fy)


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
    for x in elements(alg):
        fx = r.map_element(x)
        for y in elements(alg):
            assert r.map_element(term_value("x . y", x=x, y=y)) == term_value(
                "x . y", x=fx, y=r.map_element(y)
            )
        assert r.map_element(term_value("~x", x=x)) == term_value("~x", x=fx)


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
    for x in elements(TWO):
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
    for x in elements(TWO):
        assert s1.map_element(r1.map_element(x)) == s2.map_element(r2.map_element(x))


def test_amalgamate_rejects_mismatched_sources():
    _, r1 = twist_product(TWO)
    _, r2 = twist_product(FOUR)
    with pytest.raises(ValueError):
        amalgamate(r1, r2)


def test_amalgamate_caps_its_atoms():
    # |c1| * |c2| pairs over the one atom of 2
    def onto(n):
        return AtomRefinement.from_masks(TWO, FiniteAlgebra(n, range(1, n + 1)), ((1 << n) - 1,))

    with pytest.raises(CapExceeded, match="^the amalgam needs 65792 atoms, cap is 65536$"):
        amalgamate(onto(257), onto(256))
    amalgam, s1, s2 = amalgamate(onto(256), onto(256))
    assert amalgam.n == 1 << 16
    assert s1.cell_masks[0] == (1 << 256) - 1 and s2.cell_masks[0].bit_count() == 256


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


def _least_isomorphism(r1, r2):
    """The least permutation of the target atoms that commutes with sigma
    and maps each cell of r1 onto the matching cell of r2, found by trying
    every permutation in lexicographic order; None when there is none."""
    m = r1.target.n
    if r2.target.n != m:
        return None
    s1, s2 = r1.target.sigma, r2.target.sigma
    cells = [(r1.cell(i), r2.cell(i)) for i in r1.source.atom_indices]
    for perm in itertools.permutations(range(1, m + 1)):
        if all(perm[s1[q] - 1] == s2[perm[q] - 1] for q in range(m)) and all(
            {perm[q - 1] for q in c1} == c2 for c1, c2 in cells
        ):
            return perm
    return None


def _relabelled(rng, r):
    """r with its target atoms renumbered by a random permutation."""
    m = r.target.n
    perm = list(range(1, m + 1))
    rng.shuffle(perm)
    sigma = [0] * m
    for q, image in enumerate(r.target.sigma, start=1):
        sigma[perm[q - 1] - 1] = perm[image - 1]
    cells = [{perm[q - 1] for q in r.cell(i)} for i in r.source.atom_indices]
    return AtomRefinement(r.source, FiniteAlgebra(m, sigma), cells)


def test_find_isomorphism_matches_brute_force():
    rng = random.Random(24)
    bases = all_bases(3)
    seen = set()
    for _ in range(300):
        base = rng.choice(bases)
        r1, r2 = random_refinement(rng, base, 2), random_refinement(rng, base, 2)
        if max(r1.target.n, r2.target.n) > 6:
            continue
        moved = [q for q, k in enumerate(r1.target.sigma, start=1) if k != q]
        if moved:
            seen.add("two-cycle")
        if len(moved) < r1.target.n:
            seen.add("fixed atom")
        if base.sigma != tuple(base.atom_indices):
            seen.add("cell moved by sigma")
        for other in (r2, _relabelled(rng, r1), _relabelled(rng, r2)):
            iso = find_isomorphism_over(r1, other)
            assert iso == _least_isomorphism(r1, other)
            seen.add("none" if iso is None else "found")
            if iso is not None and iso != tuple(sorted(iso)):
                seen.add("not the identity")
    assert seen == {
        "two-cycle", "fixed atom", "cell moved by sigma", "none", "found", "not the identity"
    }


def test_find_isomorphism_is_one_pass():
    # one two-cycle at atoms 1 and 13 against one at 12 and 13, the other
    # atoms fixed: a backtracking search tries 11! orders of the fixed atoms
    def one_swap(m, a, b):
        sigma = list(range(1, m + 1))
        sigma[a - 1], sigma[b - 1] = b, a
        return AtomRefinement.from_masks(TWO, FiniteAlgebra(m, sigma), ((1 << m) - 1,))

    start = time.perf_counter()
    iso = find_isomorphism_over(one_swap(13, 1, 13), one_swap(13, 12, 13))
    assert time.perf_counter() - start < 0.1
    assert iso == (12, *range(1, 12), 13)
    # one step per atom, not one stack frame
    r = identity_refinement(FiniteAlgebra(1200, range(1, 1201)))
    assert find_isomorphism_over(r, r) == tuple(range(1, 1201))


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
    for x in elements(base):
        y = comp.map_element(x)
        assert y not in seen
        seen.add(y)
        assert comp.map_element(term_value("~x", x=x)) == term_value("~x", x=y)
        assert comp.map_element(term_value("x*", x=x)) == term_value("x*", x=y)
        assert comp.map_element(term_value("x'", x=x)) == term_value("x'", x=y)


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
    for x in elements(FOUR):
        assert r.preimage(r.map_element(x)) == x
    assert r.preimage(r.target.atom(1)) is None
