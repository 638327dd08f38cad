"""Finite stages of the countable existentially closed model.

A stage over an n-atom base is the power 4^(4m), m = n/2 for a base with
the four-power layout and m = n otherwise, along the canonical embedding:
the base goes into 4^m, and each coordinate is spread diagonally over a
block of four.  Width four suffices because every tabulated one-coordinate
solution uses at most four factors, and a block solution stays exact when
padded by repeating one of its coordinates (the repeat satisfies the same
zero conditions and only adds witnesses to the nonzero ones).  The stage
therefore realizes every consistent triple over the base, with a realizer
written down directly rather than searched for.

A stage stores its record as per-orbit tables: the realizer's blocks in
the image of a sigma-orbit depend only on the triple's part on that orbit,
so ec_stage solves 15 triples, each taking one option on every orbit, and
keeps each orbit's blocks.  A lookup is one dict probe per orbit, and the
sorted listing of the rows is streamed (solver._sorted_product), not kept.

The back-and-forth step find_matching_element mirrors an element of any
extension of a stage's base inside the stage, through the stage's record.

Chains iterate the stage construction; only the finite stages are ever
materialized.
"""

from __future__ import annotations

from .algebra import (
    AtomRefinement,
    Element,
    FiniteAlgebra,
    Frozen,
    algebra_over,
    compose_refinements,
)
from .errors import CapExceeded, NoRealizerError
from .solver import (
    Caps,
    DEFAULT_CAPS,
    Triple,
    _orbit_options,
    _sorted_product,
    _triple_count,
    block_layout,
    four_power_base,
    four_power_blocks,
    refine_triple,
    triple_of_element,
)


class EcStage(Frozen):
    """A finite extension realizing every consistent triple over its base,
    with one recorded realizer per triple; the base and the stage algebra
    are the embedding's source and target.

    tables holds the record: per sigma-orbit of the base, in order of least
    atom, its mask and a dict from each (m1, m2, m3) part to its realizer
    part.  realizers, the (Triple, Element) pairs in lexicographic order of
    the triples' (I1, I2, I3) masks, are built on each access."""

    __slots__ = ("embedding", "tables")

    def __init__(self, embedding: AtomRefinement, tables: tuple[tuple[int, dict], ...]):
        super().__init__(embedding, tables)

    base = property(lambda self: self.embedding.source)
    algebra = property(lambda self: self.embedding.target)

    @property
    def realizers(self) -> tuple[tuple[Triple, Element], ...]:
        base, alg = self.base, self.algebra
        return tuple(
            (Triple.from_masks(base, m1, m2, m3), Element.from_mask(alg, u))
            for m1, m2, m3, u in _sorted_product(self.tables)
        )

    def realizer(self, t: Triple) -> Element:
        emb = self.embedding
        if t.algebra is emb.source or t.algebra == emb.source:
            u = 0
            for m, part in self.tables:  # a missing part ORs in -1, and -1 | x == -1
                u |= part.get((t.m1 & m, t.m2 & m, t.m3 & m), -1)
            if u >= 0:
                return Element.from_mask(emb.target, u)
        raise NoRealizerError(f"stage does not record a realizer for {t!r}")


_BLOCK = 4  # widest tabulated solution


def ec_stage(alg: FiniteAlgebra, caps: Caps = DEFAULT_CAPS) -> EcStage:
    """Extend alg far enough to realize every consistent triple over it,
    recording one realizer per triple.

    The realizer of a triple is the four-power solution of its refinement,
    and the blocks inside the image of one sigma-orbit depend only on the
    triple's part on that orbit.  So 15 solves, the k-th taking each
    orbit's k-th option, give every option's blocks on its orbit's image:
    stage 6 over 2 (8,192 atoms) takes 0.08 s on a 2-core Xeon.
    max_triples bounds the triples recorded, checked before max_atoms.
    """
    _triple_count(alg.sigma, caps.max_triples)
    m, r1 = four_power_base(alg)
    total = _BLOCK * m
    if 2 * total > caps.max_atoms:
        raise CapExceeded(
            f"the stage needs {2 * total} atoms, cap is {caps.max_atoms}"
        )
    emb = compose_refinements(r1, block_layout(r1.target, [_BLOCK] * m))

    orbits = [(mask, options, emb.map_mask(mask), {}) for mask, options in _orbit_options(alg)]
    for k in range(15):  # every orbit's k-th option, k mod 7 on a fixed atom
        chosen = [options[k % len(options)] for _, options, _, _ in orbits]
        t = refine_triple(r1, Triple.from_masks(alg, *map(sum, zip(*chosen))))
        _, u = four_power_blocks(t, m, _BLOCK)
        for (_, _, image, parts), o in zip(orbits, chosen):
            parts[o] = u & image
    return EcStage(emb, tuple((mask, parts) for mask, _, _, parts in orbits))


def build_chain(
    alg: FiniteAlgebra, depth: int, caps: Caps = DEFAULT_CAPS
) -> list[EcStage]:
    """Iterate ec_stage depth times; stage i embeds stage i-1's algebra.

    depth 0 returns the empty chain.  When a budget runs out, the raised
    error carries the 1-based index of the failing stage.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    stages: list[EcStage] = []
    current = alg
    for i in range(1, depth + 1):
        try:
            stage = ec_stage(current, caps)
        except CapExceeded as e:
            raise CapExceeded(str(e), stage=i) from e
        stages.append(stage)
        current = stage.algebra
    return stages


def find_matching_element(
    stage: EcStage, rv: AtomRefinement, v: Element
) -> tuple[Element, tuple[int, ...]]:
    """Mirror an element of one extension inside a stage over the same base.

    Given a stage over A0 and an element v of another extension of A0,
    return the stage's recorded realizer u of v's type over A0 and the
    isomorphism between the subalgebras A0<v> and A0<u> over A0 that sends
    v to u, as an atom bijection; it is the unique one, and the one the
    back-and-forth extends a partial map with.
    """
    r0 = stage.embedding
    if r0.source != rv.source:
        raise ValueError("the stage and the element share no base algebra")
    u = stage.realizer(triple_of_element(rv, v))
    keys_v = _atom_keys(rv, v)
    keys_u = _atom_keys(r0, u)
    assert len(keys_v) == len(keys_u)  # equal types give equal key sets
    image = {key: q for q, key in enumerate(keys_u, start=1)}
    return u, tuple(image[key] for key in keys_v)


def _atom_keys(r: AtomRefinement, x: Element) -> list[tuple[int, bool, bool]]:
    """The key of each atom of A0<x>, the subalgebra generated by the image
    of r and x: (the base atom whose image holds it, whether it is under x,
    whether it is under x*).  Keys are distinct, and an isomorphism over A0
    sending x to y must send each atom to the one with the same key."""
    _, sub_r, base_into = algebra_over(r, [x])
    blocks, sx = sub_r.cell_masks, r.target.sigma_mask(x.mask)
    keys = [None] * len(blocks)
    for i, cell in enumerate(base_into.cell_masks):
        while cell:
            low = cell & -cell
            j = low.bit_length() - 1
            keys[j] = (i, not blocks[j] & ~x.mask, not blocks[j] & ~sx)
            cell ^= low
    return keys
