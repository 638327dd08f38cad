"""Finite stages of the countable existentially closed model.

A stage over an n-atom base is the power 4^(4n) along the canonical
embedding: the base goes into 4^n, and each coordinate is then spread
diagonally over a block of four.  Width four suffices because every
tabulated one-coordinate solution uses at most four factors, and a block
solution stays exact when padded by repeating one of its coordinates (the
repeat satisfies the same zero conditions and only adds witnesses to the
nonzero ones).  The stage therefore realizes every consistent triple over
the base, with a realizer written down directly rather than searched for.

A stage stores its record as masks: one (I1, I2, I3, realizer) row per
consistent triple, in lexicographic order.  The realizer's blocks inside
the image of a sigma-orbit depend only on the triple's part on that orbit,
so ec_stage solves each orbit's 7 or 15 options once and builds the rows
with one OR per row plus one sort; printing reads the rows, and a lookup
bisects them.  EcStage.realizers, the (Triple, Element) view of the rows,
is built on each access.

The back-and-forth step find_matching_element mirrors an element of any
extension of a stage's base inside the stage, through the stage's record.

Chains iterate the stage construction; only the finite stages are ever
materialized.
"""

from __future__ import annotations

from bisect import bisect_left

from .algebra import (
    AtomRefinement,
    Element,
    FiniteAlgebra,
    Frozen,
    algebra_over,
    atoms_to_mask,
    compose_refinements,
)
from .errors import CapExceeded, NoRealizerError
from .solver import (
    Caps,
    DEFAULT_CAPS,
    Triple,
    _orbit_options,
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

    rows holds the record as masks, one (I1, I2, I3, realizer) row per
    triple in lexicographic order; realizers is the same record as
    (Triple, Element) pairs, built on each access."""

    __slots__ = ("embedding", "rows")

    def __init__(self, embedding: AtomRefinement, rows: tuple[tuple[int, int, int, int], ...]):
        super().__init__(embedding, rows)

    base = property(lambda self: self.embedding.source)
    algebra = property(lambda self: self.embedding.target)

    @property
    def realizers(self) -> tuple[tuple[Triple, Element], ...]:
        base, alg = self.base, self.algebra
        return tuple(
            (Triple.from_masks(base, m1, m2, m3), Element.from_mask(alg, u))
            for m1, m2, m3, u in self.rows
        )

    def realizer(self, t: Triple) -> Element:
        emb, rows = self.embedding, self.rows
        if t.algebra is emb.source or t.algebra == emb.source:
            key = (t.m1, t.m2, t.m3)
            i = bisect_left(rows, key)
            if i < len(rows) and rows[i][:3] == key:
                return Element.from_mask(emb.target, rows[i][3])
        raise NoRealizerError(f"stage does not record a realizer for {t!r}")


_BLOCK = 4  # widest tabulated solution


def ec_stage(alg: FiniteAlgebra, caps: Caps = DEFAULT_CAPS) -> EcStage:
    """Extend alg far enough to realize every consistent triple over it,
    recording one realizer per triple in lexicographic triple order.

    The realizer of a triple is the four-power solution of its refinement,
    and the blocks inside the image of one sigma-orbit depend only on the
    triple's part on that orbit.  So each orbit's 7 or 15 options are
    solved once, the rows are every choice of one option per orbit with
    the parts ORed together, and one sort puts them in order.
    """
    _triple_count(alg.sigma, caps.max_triples)
    m, r1 = four_power_base(alg)
    total = _BLOCK * m
    if 2 * total > caps.max_atoms:
        raise CapExceeded(
            f"the stage needs {2 * total} atoms, cap is {caps.max_atoms}"
        )
    emb = compose_refinements(r1, block_layout(r1.target, [_BLOCK] * m))

    rows = [(0, 0, 0, 0)]
    for orbit, options in zip(alg.sigma_orbits(), _orbit_options(alg)):
        image = emb.map_mask(atoms_to_mask(orbit, alg.n))
        parts = []
        for o in options:
            t = Triple.from_masks(alg, *o)
            _, mask = four_power_blocks(refine_triple(r1, t), m, _BLOCK)
            parts.append((*o, mask & image))
        rows = [(a | x, b | y, c | z, d | w) for a, b, c, d in rows for x, y, z, w in parts]
    rows.sort()
    return EcStage(emb, tuple(rows))


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
