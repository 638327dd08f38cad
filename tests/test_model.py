import random
import time
import tracemalloc

import pytest

from bdm.algebra import (
    AtomRefinement,
    Element,
    FOUR,
    FiniteAlgebra,
    TWO,
    algebra_over,
    four_power,
    twist_product,
)
from bdm.errors import CapExceeded, NoRealizerError
from bdm import model
from bdm.model import build_chain, ec_stage, find_matching_element
from bdm.solver import (
    Caps,
    Triple,
    count_sigma_consistent,
    four_power_base,
    four_power_blocks,
    is_sigma_consistent,
    refine_triple,
    sigma_consistent_triples,
    triple_of_element,
    witness_abstract,
)
from bdm.textio import stages_json_text, stages_text

from corpus import all_bases, assert_valid_iso, blocks_under, elements

CAPS = Caps(max_atoms=64, max_depth=4, max_triples=10**6)


def test_stage_over_two_realizes_all_seven():
    stage = ec_stage(TWO, CAPS)
    assert len(stage.realizers) == 7
    for t, e in stage.realizers:
        assert triple_of_element(stage.embedding, e) == t
    # lexicographic order of the record
    assert [t for t, _ in stage.realizers] == sigma_consistent_triples(TWO)


def test_stage_over_four_covers_tabulated_triples():
    stage = ec_stage(FOUR, CAPS)
    assert len(stage.realizers) == 15
    for t, e in stage.realizers:
        assert triple_of_element(stage.embedding, e) == t


@pytest.mark.parametrize("alg", all_bases(2), ids=lambda a: f"n{a.n}-{a.sigma}")
def test_stage_realizes_every_triple(alg):
    stage = ec_stage(alg, CAPS)
    for t in sigma_consistent_triples(alg):
        assert triple_of_element(stage.embedding, stage.realizer(t)) == t


@pytest.mark.parametrize(
    "alg", all_bases(3) + [four_power(4)], ids=lambda a: f"n{a.n}-{a.sigma}"
)
def test_stage_rows_match_per_triple_blocks(alg):
    """The slow route beside the orbit-wise rows: each recorded realizer is
    the four-power solution of its own refined triple, assembled by
    four_power_blocks, and it has that triple as its type."""
    stage = ec_stage(alg, CAPS)
    m, r1 = four_power_base(alg)
    assert [t for t, _ in stage.realizers] == sigma_consistent_triples(alg)
    assert [(t.m1, t.m2, t.m3, u.mask) for t, u in stage.realizers] == list(stage.rows)
    for t, u in stage.realizers:
        _, mask = four_power_blocks(refine_triple(r1, t), m, 4)
        assert u.mask == mask, t
        assert triple_of_element(stage.embedding, u) == t
        assert stage.realizer(t) == u
    # the same masks over an algebra with another sigma name no row
    ident = tuple(alg.atom_indices)
    if alg.n > 1:
        other = FiniteAlgebra(alg.n, ident if alg.sigma != ident else (2, 1, *ident[2:]))
        for m1, m2, m3, _ in stage.rows:
            with pytest.raises(NoRealizerError):
                stage.realizer(Triple.from_masks(other, m1, m2, m3))


@pytest.mark.parametrize("alg", all_bases(3), ids=lambda a: f"n{a.n}-{a.sigma}")
def test_stage_lookup_every_mask_triple(alg):
    """Every one of the 2^(3n) mask triples: a recorded triple gets its
    row's realizer, any other raises, including keys past the last row."""
    stage = ec_stage(alg, CAPS)
    recorded = {(m1, m2, m3): u for m1, m2, m3, u in stage.rows}
    assert len(recorded) == count_sigma_consistent(alg)
    size = 1 << alg.n
    for m1 in range(size):
        for m2 in range(size):
            for m3 in range(size):
                t = Triple.from_masks(alg, m1, m2, m3)
                u = recorded.get((m1, m2, m3))
                if u is None:
                    assert not is_sigma_consistent(t)
                    with pytest.raises(NoRealizerError):
                        stage.realizer(t)
                else:
                    assert stage.realizer(t) == Element.from_mask(stage.algebra, u)


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


def test_stages_build_and_print_without_per_row_objects(monkeypatch):
    """ec_stage makes 15 solves per stage and the printers read the mask
    rows, so the 50,625 rows of the second stage over 2 cost a few
    dozen Triple and Element objects, not one of each per row."""
    made = []
    for cls, name in ((Triple, "from_masks"), (Element, "from_mask")):
        def counted(*args, _make=getattr(cls, name)):
            made.append(args)
            return _make(*args)

        monkeypatch.setattr(cls, name, staticmethod(counted))
    chain = build_chain(TWO, 2, Caps(max_atoms=64, max_depth=4, max_triples=10**5))
    for render in (stages_text, stages_json_text):
        for _ in render(chain):
            pass
    assert len(chain[1].rows) == 50625
    assert len(made) < 1000


def test_build_chain_past_listable_stages():
    """Stage 3 over 2 (128 atoms, 15^16 triples) is built from its 240 parts
    and answers lookups; under tracemalloc the depth-2 chain holds a few
    kilobytes, not the 5.5 MB its 50,625 rows would take."""
    tracemalloc.start()
    try:
        chain = build_chain(TWO, 2, Caps(max_atoms=64, max_triples=100000))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 0.1 * 2**20
    start = time.perf_counter()
    chain = build_chain(TWO, 3, Caps(max_atoms=128, max_triples=15**16))
    assert time.perf_counter() - start < 1.0
    assert [s.algebra.n for s in chain] == [8, 32, 128]
    assert sum(len(parts) for _, parts in chain[2].tables) == 240
    t = Triple.from_masks(chain[2].base, 0, 0, 0)
    assert triple_of_element(chain[2].embedding, chain[2].realizer(t)) == t


def _random_consistent_triple(rng: random.Random, alg: FiniteAlgebra) -> Triple:
    """A consistent triple drawn uniformly, orbit by orbit: whether the
    sigma-orbit lies in I2 and in I3 and which of its atoms lie in I1,
    drawn again while the orbit lies in all three."""
    m1 = m2 = m3 = 0
    for orbit in alg.sigma_orbits():
        o = sum(1 << (i - 1) for i in orbit)
        p1 = p2 = p3 = o
        while p1 & p2 & p3 == o:
            p1 = sum(1 << (i - 1) for i in orbit if rng.random() < 0.5)
            p2, p3 = rng.choice((0, o)), rng.choice((0, o))
        m1, m2, m3 = m1 | p1, m2 | p2, m3 | p3
    return Triple.from_masks(alg, m1, m2, m3)


def test_build_chain_in_linear_time(monkeypatch):
    """ec_stage solves 15 combined triples per stage, however many orbits
    the base has, so stage 6 over 2 (8,192 atoms) builds in well under the
    10 s that one solve per orbit and option took.  Space is still
    quadratic: the chain's masks hold about 21 MB."""
    calls = []

    def counted(t, m, width, _solve=model.four_power_blocks):
        calls.append(m)
        return _solve(t, m, width)

    monkeypatch.setattr(model, "four_power_blocks", counted)
    caps = Caps(max_atoms=8192, max_triples=15**1024)
    start = time.perf_counter()
    chain = build_chain(TWO, 6, caps)
    assert time.perf_counter() - start < 1.5
    assert calls == [m for m in (1, 4, 16, 64, 256, 1024) for _ in range(15)]
    stage = chain[5]
    assert (stage.base.n, stage.algebra.n) == (2048, 8192)
    rng = random.Random(20186)
    for _ in range(10):
        t = _random_consistent_triple(rng, stage.base)
        assert triple_of_element(stage.embedding, stage.realizer(t)) == t
    del chain, stage
    tracemalloc.start()
    try:
        chain = build_chain(TWO, 6, caps)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 32 * 2**20


@pytest.mark.parametrize("depth, matches", [(3, 50), (4, 30)], ids=["3", "4"])
def test_extension_property_at_stage(depth, matches):
    """The extension property one and two levels above criterion 10:
    one-element extensions of the stage algebra below (32 atoms at depth 3,
    128 at depth 4) over 2, each the abstract witness of a seeded
    consistent triple, are mirrored into the stage.  The mirror has the
    same type, and the atom bijection is over the base, commutes with sigma
    and sends v to u."""
    stage = build_chain(TWO, depth, Caps(max_atoms=2 * 4**depth, max_triples=15**4**(depth - 1)))[-1]
    rng = random.Random(20181)
    for _ in range(matches):
        w = witness_abstract(_random_consistent_triple(rng, stage.base))
        rv, v = w.embedding, w.element
        u, iso = find_matching_element(stage, rv, v)
        assert triple_of_element(stage.embedding, u) == triple_of_element(rv, v)
        _, v_blocks, base_into_v = algebra_over(rv, [v])
        _, u_blocks, base_into_u = algebra_over(stage.embedding, [u])
        assert_valid_iso(
            base_into_v, base_into_u, iso,
            blocks_under(v_blocks, v.mask), blocks_under(u_blocks, u.mask),
        )


def _sends_v_to_u(rv, v, r0, u, iso):
    """Whether the atom bijection iso between A0<v> and A0<u> carries the
    atoms under v onto the atoms under u."""
    _, v_blocks, _ = algebra_over(rv, [v])
    _, u_blocks, _ = algebra_over(r0, [u])
    v_atoms, u_atoms = blocks_under(v_blocks, v.mask), blocks_under(u_blocks, u.mask)
    return {iso[q - 1] for q in v_atoms} == u_atoms


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
    for v in elements(rv.target):
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


def test_stage_base_mismatch():
    stage = ec_stage(TWO, CAPS)
    _, rv = twist_product(FOUR)
    with pytest.raises(ValueError):
        find_matching_element(stage, rv, rv.target.atom(1))
