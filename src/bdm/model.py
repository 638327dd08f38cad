"""Finite stages of the countable existentially closed model.

A stage over an n-atom base is the power 4^(4n) along the canonical
embedding: the base goes into 4^n, and each coordinate is then spread
diagonally over a block of four.  Width four suffices because every
tabulated one-coordinate solution uses at most four factors, and a block
solution stays exact when padded by repeating one of its coordinates (the
repeat satisfies the same zero conditions and only adds witnesses to the
nonzero ones).  The stage therefore realizes every consistent triple over
the base, with a realizer written down directly rather than searched for.

Chains iterate the stage construction; only the finite stages are ever
materialized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from .algebra import (
    AtomRefinement,
    Element,
    FiniteAlgebra,
    algebra_over,
    compose_refinements,
)
from .errors import CapExceeded, NoRealizerError
from .oracle import find_realizer
from .solver import (
    Caps,
    DEFAULT_CAPS,
    Triple,
    block_layout,
    four_power_base,
    four_power_blocks,
    refine_triple,
    sigma_consistent_triples,
    triple_of_element,
)


@dataclass(frozen=True)
class EcStage:
    """A finite extension realizing every consistent triple over its base,
    with one recorded realizer per triple; the base and the stage algebra
    are the embedding's source and target."""

    embedding: AtomRefinement
    realizers: tuple[tuple[Triple, Element], ...]
    _by_triple: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_by_triple", dict(self.realizers))

    base = property(lambda self: self.embedding.source)
    algebra = property(lambda self: self.embedding.target)

    def realizer(self, t: Triple) -> Element:
        try:
            return self._by_triple[t]
        except KeyError:
            raise NoRealizerError(f"stage does not record a realizer for {t!r}") from None


_BLOCK = 4  # widest tabulated solution


def ec_stage(alg: FiniteAlgebra, caps: Caps = DEFAULT_CAPS) -> EcStage:
    """Extend alg far enough to realize every consistent triple over it,
    recording one realizer per triple in lexicographic triple order."""
    triples = sigma_consistent_triples(alg, caps.max_triples)
    m, r1 = four_power_base(alg)
    total = _BLOCK * m
    if 2 * total > caps.max_atoms:
        raise CapExceeded(
            f"the stage needs {2 * total} atoms, cap is {caps.max_atoms}"
        )
    block = block_layout(alg if r1 is None else r1.target, [_BLOCK] * m)
    ext = block.target
    emb = block if r1 is None else compose_refinements(r1, block)

    found: list[tuple[Triple, Element]] = []
    for t in triples:
        refined = t if r1 is None else refine_triple(r1, t)
        _, mask = four_power_blocks(refined, m, _BLOCK)
        found.append((t, Element.from_mask(ext, mask)))
    return EcStage(emb, tuple(found))


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
    stage: Union[EcStage, AtomRefinement],
    rv: AtomRefinement,
    v: Element,
) -> tuple[Element, tuple[int, ...]]:
    """Mirror an element of one extension inside a stage over the same base.

    Given a stage (or a bare refinement) over A0 and an element v of another
    extension of A0, produce u in the stage with the same type over A0 and
    the isomorphism between the subalgebras A0<v> and A0<u> over A0 that
    sends v to u, as an atom bijection; it is the unique one, and the one
    the back-and-forth extends a partial map with.  A bare refinement whose
    target lacks a realizer raises NoRealizerError.
    """
    r0 = stage.embedding if isinstance(stage, EcStage) else stage
    if r0.source != rv.source:
        raise ValueError("the stage and the element share no base algebra")
    t = triple_of_element(rv, v)
    if isinstance(stage, EcStage):
        u = stage.realizer(t)
    else:
        u = find_realizer(r0, t)
        if u is None:
            raise NoRealizerError(f"no element of the given algebra realizes {t!r}")
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
