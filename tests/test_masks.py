"""The bitmask core against plain frozenset computations.

Each reference below works on frozensets of 1-based atoms, straight from the
definitions in the module docstrings of `bdm.algebra` and `bdm.solver`
(join = union, meet = intersection, x' = complement, x* = sigma image,
x~ = complement of the sigma image), without going through a mask.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdm.algebra import FOUR, TWO, AtomRefinement, Element, FiniteAlgebra, generated_subalgebra
from bdm.errors import NoRealizerError
from bdm.model import ec_stage
from bdm.solver import Caps, Triple, sigma_consistent_triples, triple_of_element

from corpus import random_refinement


@st.composite
def algebras(draw, max_n=6):
    """An algebra with a random involution on at most max_n atoms."""
    n = draw(st.integers(1, max_n))
    order = draw(st.permutations(range(1, n + 1)))
    sigma = list(range(1, n + 1))
    for k in range(draw(st.integers(0, n // 2))):
        a, b = order[2 * k], order[2 * k + 1]
        sigma[a - 1], sigma[b - 1] = b, a
    return FiniteAlgebra(n, tuple(sigma))


def subsets(alg):
    return st.frozensets(st.integers(1, alg.n))


def top(alg):
    return frozenset(range(1, alg.n + 1))


def star(alg, atoms):
    return frozenset(alg.sigma[i - 1] for i in atoms)


def ref_blocks(alg, gens):
    """Atoms in one block agree on every generator and its star image."""
    splitters = [s for a in gens for s in (a, star(alg, a))]
    groups = {}
    for i in sorted(top(alg)):
        groups.setdefault(tuple(i in s for s in splitters), set()).add(i)
    return sorted((frozenset(g) for g in groups.values()), key=min)


def ref_preimage(cells, atoms):
    inside = [i for i, c in enumerate(cells, start=1) if c <= atoms]
    covered = frozenset().union(*(cells[i - 1] for i in inside))
    return frozenset(inside) if covered == atoms else None


def ref_triple(alg, cells, atoms):
    """Base atoms whose cells miss u.u~, u.u* and u'.u~."""
    bar = top(alg) - star(alg, atoms)
    products = (atoms & bar, atoms & star(alg, atoms), (top(alg) - atoms) & bar)
    return tuple(
        frozenset(i for i, c in enumerate(cells, start=1) if not c & p) for p in products
    )


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_operations_match_frozenset_reference(data):
    alg = data.draw(algebras())
    a, b = data.draw(subsets(alg)), data.draw(subsets(alg))
    x, y = Element(alg, a), Element(alg, b)
    assert x.atoms == a and x.mask == sum(1 << (i - 1) for i in a)
    assert x.join(y).atoms == a | b
    assert x.meet(y).atoms == a & b
    assert x.bneg().atoms == top(alg) - a
    assert x.star().atoms == star(alg, a)
    assert x.dmneg().atoms == top(alg) - star(alg, a)
    assert alg.sigma_set(a) == star(alg, a)
    assert alg.full_set == top(alg)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_generated_subalgebra_matches_frozenset_reference(data):
    alg = data.draw(algebras())
    gens = data.draw(st.lists(subsets(alg), max_size=3))
    sub, sub_r = generated_subalgebra(alg, [Element(alg, g) for g in gens])
    blocks = ref_blocks(alg, gens)
    assert sub_r.cells == tuple(blocks)
    assert sub.sigma == tuple(blocks.index(star(alg, b)) + 1 for b in blocks)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_preimage_and_triple_match_frozenset_reference(data):
    alg = data.draw(algebras())
    r = random_refinement(random.Random(data.draw(st.integers(0, 10**9))), alg, max_cell=2)
    cells = r.cells
    assert AtomRefinement(alg, r.target, cells) == r
    atoms = data.draw(subsets(r.target))
    u = Element(r.target, atoms)
    pre = r.preimage(u)
    assert (None if pre is None else pre.atoms) == ref_preimage(cells, atoms)
    assert triple_of_element(r, u).sets() == ref_triple(r.target, cells, atoms)


BASES = [TWO, FOUR, FiniteAlgebra(2, (1, 2))]


@pytest.mark.parametrize("alg", BASES, ids=["two", "four", "two-atom-identity"])
def test_stage_realizer_lookup_matches_linear_scan(alg):
    stage = ec_stage(alg, Caps(max_atoms=16, max_triples=100))
    assert [t for t, _ in stage.realizers] == sigma_consistent_triples(alg)
    for t in sigma_consistent_triples(alg):
        scan = [e for s, e in stage.realizers if s.algebra == alg and s.sets() == t.sets()]
        assert len(scan) == 1
        assert stage.realizer(t) == scan[0]
        assert stage.realizer(Triple(alg, *t.sets())) == scan[0]
    other = FOUR if alg != FOUR else FiniteAlgebra(2, (1, 2))
    first = stage.realizers[0][0]
    with pytest.raises(NoRealizerError):
        stage.realizer(Triple(other, *first.sets()))
