import itertools

import pytest

from bdm.algebra import (
    FOUR,
    AtomRefinement,
    Element,
    FiniteAlgebra,
    TWO,
    four_power,
    identity_refinement,
    twist_product,
)
from bdm.errors import CapExceeded
from bdm.oracle import (
    all_realizations_in,
    brute_force_trivial,
    element_type_scan,
    find_realizer,
    free_function_count,
    oracle_witness_search,
    scan_consistent,
)
from bdm.solver import (
    Triple,
    block_layout,
    is_trivial,
    sigma_consistent_triples,
    triple_of_element,
    witness_abstract,
)

from corpus import all_bases, atoms, power_element


def T(alg, i1, i2, i3):
    return Triple(alg, frozenset(i1), frozenset(i2), frozenset(i3))


def test_all_realizations_zero_solution():
    r = identity_refinement(FOUR)
    t = T(FOUR, {1, 2}, {1, 2}, ())
    assert all_realizations_in(r, t) == [FOUR.zero]


def test_all_realizations_inconsistent_is_empty():
    t = T(TWO, {1}, {1}, {1})
    _, r = twist_product(TWO)
    assert all_realizations_in(r, t) == []
    # and stays empty along a larger refinement
    w = witness_abstract(T(TWO, (), (), ()))
    assert all_realizations_in(w.embedding, t) == []


def test_inconsistent_triples_never_realized():
    import random

    from corpus import random_refinement

    rng = random.Random(4174)
    for alg in all_bases(2):
        consistent = set(sigma_consistent_triples(alg))
        triples = [
            Triple(alg, i1, i2, i3)
            for i1 in map(frozenset, itertools.chain.from_iterable(
                itertools.combinations(alg.atom_indices, k) for k in range(alg.n + 1)))
            for i2 in map(frozenset, itertools.chain.from_iterable(
                itertools.combinations(alg.atom_indices, k) for k in range(alg.n + 1)))
            for i3 in map(frozenset, itertools.chain.from_iterable(
                itertools.combinations(alg.atom_indices, k) for k in range(alg.n + 1)))
        ]
        refinements = [twist_product(alg)[1]] + [
            random_refinement(rng, alg, max_cell=2) for _ in range(3)
        ]
        for t in triples:
            if t in consistent:
                continue
            for r in refinements:
                assert all_realizations_in(r, t) == []


def test_all_realizations_diagonal_square():
    t = T(FOUR, {1, 2}, (), ())
    found = all_realizations_in(block_layout(FOUR, [2]), t)
    assert power_element(("1", "0")) in found
    assert power_element(("0", "1")) in found
    # ascending bitmask order
    masks = [e.mask for e in found]
    assert masks == sorted(masks)


def _refinement(source_sigma, target_sigma, cells):
    return AtomRefinement(
        FiniteAlgebra(len(source_sigma), source_sigma),
        FiniteAlgebra(len(target_sigma), target_sigma),
        cells,
    )


def _swaps(n, *pairs):
    sigma = list(range(1, n + 1))
    for a, b in pairs:
        sigma[a - 1], sigma[b - 1] = b, a
    return tuple(sigma)


# targets of 1, 16, 17 and 18 atoms: one chunk, one full chunk, then 2 and 4
# chunks, with atoms 17 and 18 paired by sigma with low atoms and each other
WIDE = [
    (identity_refinement(TWO), 1),
    (_refinement((2, 1), tuple(range(16, 0, -1)), [range(1, 9), range(9, 17)]), 1),
    (_refinement((2, 1, 3), _swaps(17, (1, 17), (2, 16)), [{1, 2}, {16, 17}, range(3, 16)]), 2),
    (_refinement((1, 3, 2), _swaps(18, (17, 18), (1, 16)), [range(2, 16), {1, 17}, {16, 18}]), 4),
]


def test_scan_matches_triple_of_element():
    # the bit-sliced products agree with the element-level path, and the
    # realizers of each type are the elements that triple_of_element gives it
    for r, chunks in [
        (identity_refinement(FOUR), 1),
        (twist_product(FOUR)[1], 1),
        (twist_product(FiniteAlgebra(3, (2, 1, 3)))[1], 1),
    ] + WIDE:
        by_type = {}
        scanned = 0
        for elements, *tables in element_type_scan(r):
            scanned += 1
            # bit k of each table, read off its binary digits, then for each
            # element its column of bits over the source atoms
            rows = [[bin(z)[:1:-1].ljust(len(elements), "0") for z in zs] for zs in tables]
            for m, *columns in zip(elements, *(zip(*digits) for digits in rows)):
                computed = tuple(int("".join(reversed(c)), 2) for c in columns)
                t = triple_of_element(r, Element.from_mask(r.target, m))
                assert computed == (t.m1, t.m2, t.m3)
                by_type.setdefault(computed, []).append(m)
        assert scanned == chunks
        for masks, realizers in by_type.items():
            t = Triple.from_masks(r.source, *masks)
            assert [u.mask for u in all_realizations_in(r, t)] == realizers


def test_scan_consistent_small():
    for alg in all_bases(2):
        w = witness_abstract(T(alg, frozenset(), frozenset(), frozenset()))
        assert scan_consistent(w.embedding)


def test_scan_consistent_rejects_non_equivariant_partition():
    # the 2-atom algebra with identity sigma into 4, with cells {1} and {2}:
    # not an embedding, since star swaps the cells while fixing their atoms;
    # the element {1} then has I1 & I2 & I3 = {2}, a fixed atom
    r = object.__new__(AtomRefinement)
    for name, value in [("source", FiniteAlgebra(2, (1, 2))), ("target", FOUR), ("cell_masks", (1, 2))]:
        object.__setattr__(r, name, value)
    assert not scan_consistent(r)


def test_find_realizer_least():
    r = identity_refinement(FOUR)
    u = find_realizer(r, T(FOUR, {1, 2}, {1, 2}, ()))
    assert u == FOUR.zero
    assert find_realizer(r, T(FOUR, (), (), ())) is None


def test_oracle_witness_search_case1_triples():
    for t in sigma_consistent_triples(FOUR):
        w = oracle_witness_search(t, max_atoms=8)
        assert w is not None
        assert triple_of_element(w.embedding, w.element) == t


def test_oracle_witness_search_inconsistent_absent():
    assert oracle_witness_search(T(FOUR, {1, 2}, {1, 2}, {1, 2}), max_atoms=16) is None


def test_oracle_witness_search_everywhere_nonzero_pattern():
    t = T(FOUR, (), (), ())
    w = oracle_witness_search(t, max_atoms=16)
    assert w.embedding.target == four_power(4)
    # the tabulated coordinate solution appears among the realizers
    assert power_element(("a", "b", "0", "1")) in all_realizations_in(
        w.embedding, t
    )


def test_brute_force_trivial_examples():
    assert atoms(brute_force_trivial(T(FOUR, {2}, {1, 2}, {1, 2}))) == {1}
    assert brute_force_trivial(T(TWO, (), {1}, {1})) is None


@pytest.mark.parametrize("alg", all_bases(2), ids=lambda a: f"n{a.n}-{a.sigma}")
def test_brute_force_trivial_agrees_exhaustive(alg):
    sets = [frozenset(s) for k in range(alg.n + 1) for s in itertools.combinations(alg.atom_indices, k)]
    for i1 in sets:
        for i2 in sets:
            for i3 in sets:
                t = Triple(alg, i1, i2, i3)
                assert brute_force_trivial(t) == is_trivial(t)


def test_oracle_matches_witnesses_for_small_bases():
    for alg in all_bases(2):
        for t in sigma_consistent_triples(alg):
            w = oracle_witness_search(t, max_atoms=16)
            assert w is not None
            found = all_realizations_in(w.embedding, t)
            assert w.element in found


def test_free_function_count_values():
    assert free_function_count(0) == 2
    first = free_function_count(1)
    assert first == free_function_count(1)  # stable
    assert free_function_count(2) > first
    with pytest.raises(CapExceeded):
        free_function_count(3)
    with pytest.raises(ValueError):
        free_function_count(-1)


def test_free_function_count_is_the_size_of_the_free_algebra():
    # the closure of the projections is F(k), with 4^k atoms
    assert [free_function_count(k) for k in range(3)] == [2 ** (4**k) for k in range(3)]


def test_free_function_count_matches_literal_closure():
    # independent route for k = 1: close {0, 1, id} under the operations on
    # functions from the four-element algebra to itself, pointwise
    elements = [frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2})]
    full = frozenset({1, 2})

    def star(v):
        return frozenset({2 if i == 1 else 1 for i in v})

    funcs = {
        tuple([frozenset()] * 4),
        tuple([full] * 4),
        tuple(elements),
    }
    while True:
        new = set(funcs)
        for f in funcs:
            new.add(tuple(full - star(v) for v in f))  # De Morgan negation
            new.add(tuple(full - v for v in f))  # Boolean negation
            new.add(tuple(star(v) for v in f))  # star
            for g in funcs:
                new.add(tuple(a | b for a, b in zip(f, g)))
                new.add(tuple(a & b for a, b in zip(f, g)))
        if new == funcs:
            break
        funcs = new
    assert free_function_count(1) == len(funcs)
