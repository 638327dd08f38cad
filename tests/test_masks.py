"""The bitmask core against plain frozenset computations.

Each reference below works on frozensets of 1-based atoms, straight from the
definitions in the module docstrings of `bdm.algebra` and `bdm.solver`
(join = union, meet = intersection, x' = complement, x* = sigma image,
x~ = complement of the sigma image), without going through a mask.  The
stage and four-power realizers are checked against the route that spells
each coordinate's tabulated solution as 0/a/b/1 strings.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdm.algebra import (
    FOUR,
    TWO,
    AtomRefinement,
    Element,
    FiniteAlgebra,
    atoms_to_mask,
    compose_refinements,
    four_power,
    generated_blocks,
    generated_subalgebra,
)
from bdm import solver
from bdm.errors import NoRealizerError
from bdm.model import ec_stage
from bdm.solver import (
    CASE1_ENTRIES,
    Caps,
    Triple,
    block_layout,
    count_sigma_consistent,
    four_power_base,
    realizations,
    refine_triple,
    sigma_consistent_triples,
    triple_of_element,
    witness_abstract,
    witness_via_four_power,
)
from bdm.terms import (
    And,
    BNeg,
    Const,
    DMNeg,
    Equal,
    Implies,
    Join,
    Meet,
    Not,
    NotEqual,
    Or,
    Star,
    Var,
    eval_formula,
    eval_term,
)

from corpus import (
    all_bases,
    atoms,
    coords_mask,
    random_algebra,
    random_element,
    random_qf,
    random_refinement,
    random_term,
    term_value,
)


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
    assert atoms(x.mask) == a and x.mask == sum(1 << (i - 1) for i in a)
    assert atoms(term_value("x + y", x=x, y=y).mask) == a | b
    assert atoms(term_value("x . y", x=x, y=y).mask) == a & b
    assert atoms(term_value("x'", x=x).mask) == top(alg) - a
    assert atoms(term_value("x*", x=x).mask) == star(alg, a)
    assert atoms(term_value("~x", x=x).mask) == top(alg) - star(alg, a)
    assert atoms(alg.full_mask) == top(alg)


def ref_term(alg, t, env):
    """The atom set of t's value, with env binding names to atom sets."""
    if isinstance(t, Const):
        return top(alg) if t.value else frozenset()
    if isinstance(t, Var):
        return env[t.name]
    if isinstance(t, Join):
        return ref_term(alg, t.left, env) | ref_term(alg, t.right, env)
    if isinstance(t, Meet):
        return ref_term(alg, t.left, env) & ref_term(alg, t.right, env)
    if isinstance(t, BNeg):
        return top(alg) - ref_term(alg, t.arg, env)
    if isinstance(t, Star):
        return star(alg, ref_term(alg, t.arg, env))
    assert isinstance(t, DMNeg)
    return top(alg) - star(alg, ref_term(alg, t.arg, env))


def ref_formula(alg, f, env):
    if isinstance(f, Equal):
        return ref_term(alg, f.left, env) == ref_term(alg, f.right, env)
    if isinstance(f, NotEqual):
        return ref_term(alg, f.left, env) != ref_term(alg, f.right, env)
    if isinstance(f, And):
        return ref_formula(alg, f.left, env) and ref_formula(alg, f.right, env)
    if isinstance(f, Or):
        return ref_formula(alg, f.left, env) or ref_formula(alg, f.right, env)
    if isinstance(f, Implies):
        return not ref_formula(alg, f.left, env) or ref_formula(alg, f.right, env)
    assert isinstance(f, Not)
    return not ref_formula(alg, f.arg, env)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.integers(2, 3))
def test_evaluation_matches_frozenset_reference(seed, count):
    rng = random.Random(seed)
    alg = random_algebra(rng, 6)
    names = ["x", "y", "z"][:count]
    env = {name: random_element(rng, alg) for name in names}
    sets = {name: atoms(e.mask) for name, e in env.items()}
    t = random_term(rng, names, depth=4)
    assert atoms(eval_term(alg, t, env).mask) == ref_term(alg, t, sets)
    f = random_qf(rng, names, atoms=3)
    assert eval_formula(alg, f, env) == ref_formula(alg, f, sets)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_generated_subalgebra_matches_frozenset_reference(data):
    alg = data.draw(algebras())
    gens = data.draw(st.lists(subsets(alg), max_size=3))
    sub, sub_r = generated_subalgebra(alg, [Element(alg, g) for g in gens])
    blocks = ref_blocks(alg, gens)
    assert tuple(map(atoms, sub_r.cell_masks)) == tuple(blocks)
    assert sub.sigma == tuple(blocks.index(star(alg, b)) + 1 for b in blocks)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_generated_blocks_match_frozenset_reference(data):
    """The bare blocks and sigma that decide's quantifier step reads, with
    the invariants that generated_subalgebra's checked constructors test:
    the blocks partition the atoms, sigma is an involution on them and maps
    each block onto its star image.  Each generator is the union of the
    blocks it meets, which is how decide takes its preimage."""
    alg = data.draw(algebras())
    gens = data.draw(st.lists(subsets(alg), max_size=3))
    blocks, sigma = generated_blocks(alg, [atoms_to_mask(g, alg.n) for g in gens])
    ref = ref_blocks(alg, gens)
    assert list(map(atoms, blocks)) == ref
    assert sigma == tuple(ref.index(star(alg, b)) + 1 for b in ref)
    assert all(blocks)
    for j, b in enumerate(blocks):
        assert not any(b & c for c in blocks[j + 1:])
    assert atoms(sum(blocks)) == top(alg)
    n = len(blocks)
    assert sorted(sigma) == list(range(1, n + 1))
    assert all(sigma[sigma[k] - 1] == k + 1 for k in range(n))
    assert all(star(alg, ref[k]) == ref[sigma[k] - 1] for k in range(n))
    for g in gens:
        mask = atoms_to_mask(g, alg.n)
        met = frozenset(k for k, b in enumerate(blocks, start=1) if b & mask)
        assert met == ref_preimage(ref, g)
    sub, sub_r = generated_subalgebra(alg, [Element(alg, g) for g in gens])
    assert (sub.sigma, sub_r.cell_masks) == (sigma, tuple(blocks))
    fixed = sum(star(alg, b) == b for b in ref)
    count = 7**fixed * 15 ** ((n - fixed) // 2)
    assert solver._triple_count(sigma) == count_sigma_consistent(sub) == count


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_preimage_and_triple_match_frozenset_reference(data):
    alg = data.draw(algebras())
    r = random_refinement(random.Random(data.draw(st.integers(0, 10**9))), alg, max_cell=2)
    cells = tuple(map(atoms, r.cell_masks))
    assert AtomRefinement(alg, r.target, cells) == r
    a = data.draw(subsets(r.target))
    u = Element(r.target, a)
    pre = r.preimage(u)
    assert (None if pre is None else atoms(pre.mask)) == ref_preimage(cells, a)
    assert triple_of_element(r, u).sets() == ref_triple(r.target, cells, a)


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


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 400), st.floats(0, 1))
def test_sigma_mask_matches_set_route(seed, max_n, density):
    """Shuffled involutions on up to 400 atoms have many distinct two-cycle
    distances, so both the set-bit walk and the delta swaps run."""
    rng = random.Random(seed)
    alg = random_algebra(rng, max_n)
    mask = sum(1 << i for i in range(alg.n) if rng.random() < density)
    assert alg.sigma_mask(mask) == atoms_to_mask(star(alg, atoms(mask)), alg.n)


def test_refinement_check_rejects_swapped_cells_in_witness_tower():
    base = FiniteAlgebra(3, (1, 3, 2))
    t = Triple(base, (), (), ())
    _, acc, _ = realizations(t, 4)
    r = witness_abstract(refine_triple(acc, t)).embedding
    assert r.target.n >= 1000
    assert AtomRefinement.from_masks(r.source, r.target, r.cell_masks) == r
    # a sigma-fixed source atom and one in a two-cycle: the swapped cells
    # stay nonempty, disjoint and covering, but no longer commute with sigma
    i = next(k for k, image in enumerate(r.source.sigma) if image == k + 1)
    j = next(k for k, image in enumerate(r.source.sigma) if image != k + 1)
    cells = list(r.cell_masks)
    cells[i], cells[j] = cells[j], cells[i]
    with pytest.raises(ValueError, match="sigma-equivariant"):
        AtomRefinement.from_masks(r.source, r.target, tuple(cells))


# The four-power solutions written as "0/a/b/1" coordinate strings, one
# tabulated entry per coordinate, turned into a mask at the end.
_ENTRIES = {(e.m1, e.m2, e.m3): e for e in CASE1_ENTRIES}


def coordinate_strings(t: Triple, m: int, width: int = 0) -> list[tuple[str, ...]]:
    """The solution of each coordinate of a triple over four_power(m), padded
    to width by repeating its first coordinate."""
    blocks = []
    for i in range(m):
        key = tuple(x >> i & 1 | x >> (m + i - 1) & 2 for x in (t.m1, t.m2, t.m3))
        c = _ENTRIES[key].coords
        blocks.append(c + c[:1] * (width - len(c)))
    return blocks


REALIZER_BASES = all_bases(3) + [four_power(4)]
REALIZER_IDS = [f"n{a.n}-" + "".join(map(str, a.sigma)) for a in all_bases(3)] + ["four^4"]


@pytest.mark.parametrize("alg", REALIZER_BASES, ids=REALIZER_IDS)
def test_stage_realizers_match_coordinate_strings(alg):
    stage = ec_stage(alg, Caps(max_atoms=64, max_triples=100000))
    m, r1 = four_power_base(alg)
    assert stage.algebra == four_power(4 * m)
    for t, e in stage.realizers:
        coords = [c for block in coordinate_strings(refine_triple(r1, t), m, 4) for c in block]
        assert e.mask == coords_mask(coords, 4 * m)


@pytest.mark.parametrize("alg", REALIZER_BASES, ids=REALIZER_IDS)
def test_four_power_witness_matches_coordinate_strings(alg):
    m, r1 = four_power_base(alg)
    for t in sigma_consistent_triples(alg):
        w = witness_via_four_power(t)
        blocks = coordinate_strings(refine_triple(r1, t), m)
        total = sum(map(len, blocks))
        block = block_layout(r1.target, [len(b) for b in blocks])
        assert w.embedding == compose_refinements(r1, block)
        assert w.element.mask == coords_mask([c for b in blocks for c in b], total)
