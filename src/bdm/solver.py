"""One-variable types over finite Boole-De Morgan algebras and the decision
procedure for their existentially closed models.

The type of an element u over a base embedded by a refinement r is the
triple (I1, I2, I3) of base atoms killing, respectively, u.u~, u.u* and
u'.u~.  A triple is realizable in some extension exactly when it is
sigma-consistent:

    (i)  sigma(I2) = I2 and sigma(I3) = I3,
    (ii) (I1 & I2 & I3) does not meet its own sigma image.

Two independent constructions produce a realizer for every consistent
triple: witness_abstract builds the one-generated extension directly from
the presence pattern of the four products u.u~, u.u*, u'.u~, u'.u*, and
witness_via_four_power pushes the base into a power of the four-element
algebra and assembles a solution coordinatewise from a fixed lookup table,
CASE1_ENTRIES.  witness_via_four_power is the one builder of four-power
witnesses: over the four-element algebra itself it gives each entry's
solution in the entry's power.  Each route validates the other; tests
compare them up to isomorphism over the base.
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache, partial
from typing import Iterator, Mapping, Optional

from .algebra import (
    MAX_REALIZATION_ATOMS,
    AtomRefinement,
    Element,
    FiniteAlgebra,
    Value,
    atoms_to_mask,
    compose_refinements,
    format_mask,
    four_power,
    generated_blocks,
    identity_refinement,
    is_four_power_shaped,
    mask_to_atoms,
    twist_product,
)
from .errors import CapExceeded, InconsistentTripleError, TrivialTripleError
from .terms import Formula, _binding_mask, _free_names, _holds


class Triple(Value):
    """A candidate one-variable type over an algebra: three atom subsets,
    held as the masks m1, m2, m3 of I1, I2, I3."""

    __slots__ = ("algebra", "m1", "m2", "m3")

    def __init__(self, algebra: FiniteAlgebra, i1, i2, i3):
        masks = []
        for k, atoms in enumerate((i1, i2, i3), start=1):
            mask = atoms_to_mask(atoms, algebra.n)
            if mask is None:
                raise ValueError(f"i{k} is not a subset of the atoms")
            masks.append(mask)
        _init_triple(self, algebra, *masks)

    @classmethod
    def from_masks(cls, algebra: FiniteAlgebra, m1: int, m2: int, m3: int) -> "Triple":
        return _init_triple(object.__new__(cls), algebra, m1, m2, m3)

    def __repr__(self):
        i1, i2, i3 = map(format_mask, (self.m1, self.m2, self.m3))
        return f"Triple(I1={i1} I2={i2} I3={i3} over n={self.algebra.n})"

    def sets(self) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
        return (mask_to_atoms(self.m1), mask_to_atoms(self.m2), mask_to_atoms(self.m3))


def _init_triple(t, algebra, m1, m2, m3):
    """Check the masks and store them on t, which is returned."""
    if (m1 | m2 | m3) >> algebra.n:
        raise ValueError("the triple's masks are not within the atoms")
    object.__setattr__(t, "algebra", algebra)
    object.__setattr__(t, "m1", m1)
    object.__setattr__(t, "m2", m2)
    object.__setattr__(t, "m3", m3)
    return t


class Witness(Value):
    """An extension of the base with a distinguished element realizing a
    triple along the embedding; the base and the extension are the
    embedding's source and target."""

    __slots__ = ("embedding", "element")


class Caps(Value):
    """Resource budgets: atoms per intermediate algebra, quantifier nesting,
    and enumerated triples per algebra."""

    __slots__ = ("max_atoms", "max_depth", "max_triples")

    def __init__(self, max_atoms: int = 12, max_depth: int = 4, max_triples: int = 20000):
        values = (max_atoms, max_depth, max_triples)
        for name, value in zip(self.__slots__, values):
            if value < 0:
                raise ValueError(f"{name} must be nonnegative, got {value}")
        super().__init__(*values)


DEFAULT_CAPS = Caps()


def is_sigma_consistent(t: Triple) -> bool:
    alg = t.algebra
    if alg.sigma_mask(t.m2) != t.m2 or alg.sigma_mask(t.m3) != t.m3:
        return False
    core = t.m1 & t.m2 & t.m3
    return not (core & alg.sigma_mask(core))


def triple_of_element(r: AtomRefinement, u: Element) -> Triple:
    """The type of u over the source of r: which source atoms annihilate
    u.u~, u.u* and u'.u~."""
    if u.algebra is not r.target and u.algebra != r.target:
        raise ValueError("element does not live in the refinement target")
    full = r.target.full_mask
    x = u.mask
    sx = r.target.sigma_mask(x)
    p1 = x & ~sx  # u . u~
    p2 = x & sx  # u . u*
    p3 = full & ~(x | sx)  # u' . u~
    i1 = i2 = i3 = 0
    for k, cell in enumerate(r.cell_masks):
        if not cell & p1:
            i1 |= 1 << k
        if not cell & p2:
            i2 |= 1 << k
        if not cell & p3:
            i3 |= 1 << k
    return Triple.from_masks(r.source, i1, i2, i3)


def refine_triple(r: AtomRefinement, t: Triple) -> Triple:
    """Transport a triple along a refinement by replacing each atom with its
    cell.  Consistency is preserved, and any element realizing the refined
    triple realizes the original one."""
    if t.algebra is not r.source and t.algebra != r.source:
        raise ValueError("triple is not over the refinement source")
    return Triple.from_masks(
        r.target, r.map_mask(t.m1), r.map_mask(t.m2), r.map_mask(t.m3)
    )


# ---------------------------------------------------------------------------
# Enumeration of consistent triples

def count_sigma_consistent(alg: FiniteAlgebra) -> int:
    """7 options per fixed atom and 15 per two-cycle of sigma."""
    return _triple_count(alg.sigma)


def _triple_count(sigma: tuple[int, ...], max_count: Optional[int] = None) -> int:
    """The number of consistent triples over the algebra with this sigma;
    raise CapExceeded when it is above max_count, where None means no cap."""
    fixed = sum(map(operator.eq, sigma, itertools.count(1)))
    total = 7**fixed * 15 ** ((len(sigma) - fixed) // 2)
    if max_count is not None and total > max_count:
        raise CapExceeded(
            f"{total} consistent triples over {len(sigma)} atoms exceed the cap of {max_count}",
            cap="max_triples", needed=total, limit=max_count,
        )
    return total


def _orbit_options(alg: FiniteAlgebra) -> list[tuple[int, list[tuple[int, int, int]]]]:
    """Each sigma-orbit of alg as its mask and the (I1, I2, I3) parts a
    consistent triple may take on it, as masks, orbit by orbit in order of
    least atom: 7 for a fixed atom and 15 for a two-cycle."""
    per_orbit: list[tuple[int, list[tuple[int, int, int]]]] = []
    for orbit in alg.sigma_orbits():
        options = []
        if len(orbit) == 1:
            mask = 1 << (orbit[0] - 1)
            for b1, b2, b3 in itertools.product((0, 1), repeat=3):
                if b1 and b2 and b3:
                    continue
                options.append((b1 * mask, b2 * mask, b3 * mask))
        else:
            bi, bj = (1 << (orbit[0] - 1)), (1 << (orbit[1] - 1))
            mask = bi | bj
            for b1i, b1j, b2, b3 in itertools.product((0, 1), repeat=4):
                if b1i and b1j and b2 and b3:
                    continue
                options.append((b1i * bi | b1j * bj, b2 * mask, b3 * mask))
        per_orbit.append((mask, options))
    return per_orbit


def _sorted_product(tables) -> Iterator[tuple[int, int, int, int]]:
    """(I1, I2, I3, payload) for each choice of one entry per table, each
    the OR of the chosen ones, in lexicographic order.  A table is (mask,
    {(m1, m2, m3): payload}), as _orbit_options gives them: the masks split
    the atoms and every subset of a mask is an m1, so the I1 values are
    0 .. 2^n - 1, and one names its part in each table.  The rows of one I1
    value are made and sorted together."""
    for v in range(sum(mask for mask, _ in tables) + 1):
        rows = [(v, 0, 0, 0)]
        for mask, parts in tables:
            chosen = [(p2, p3, x) for (p1, p2, p3), x in parts.items() if p1 == v & mask]
            rows = [(v, b | p2, c | p3, d | x) for _, b, c, d in rows for p2, p3, x in chosen]
        yield from sorted(rows)


def _consistent_triples(alg: FiniteAlgebra) -> Iterator[Triple]:
    """The sigma-consistent triples over alg in sigma_consistent_triples'
    order, each built as it is asked for."""
    tables = [(mask, dict.fromkeys(options, 0)) for mask, options in _orbit_options(alg)]
    for m1, m2, m3, _ in _sorted_product(tables):
        yield Triple.from_masks(alg, m1, m2, m3)


def sigma_consistent_triples(alg: FiniteAlgebra) -> list[Triple]:
    """All sigma-consistent triples over alg, ordered lexicographically by
    the bitmasks of (I1, I2, I3) with atom i on bit i-1: a new list of new
    triples on each call.  Callers that take a triple budget check it first
    with _triple_count(alg.sigma, budget)."""
    return list(_consistent_triples(alg))


# ---------------------------------------------------------------------------
# Abstract witness construction

# Kinds 0..3 are the products x.x~, x.x*, x'.x~, x'.x* of a fresh x; star
# swaps the outer two.  Per set of kinds zero at an atom (bit c for kind c):
# the letter count, the realizer of one-letter words (kinds 0 and 1, first)
# and each letter's starred kind as a place among the starred letters.
_KIND_STAR = (3, 1, 2, 0)
_LETTERS = [
    (len(ks), ((1 << sum(c < 2 for c in ks)) - 1,),
     [sorted(_KIND_STAR[c] for c in ks).index(_KIND_STAR[c]) for c in ks])
    for ks in ([c for c in range(4) if not z >> c & 1] for z in range(16))
]


def _extension(t: Triple, k: int) -> tuple[AtomRefinement, list[int]]:
    """The tower of k one-witness rounds over a consistent triple, built at
    once, and the masks of its k realizers.  Base atom i splits into the
    words (i, c1 ... ck) over the kinds present at i: the nonzero ones among
    i.x.x~, i.x.x*, i.x'.x~, i.x'.x* (the last is zero iff sigma(i) in I1).
    In lexicographic order each cell is a block; sigma sends (i, w) to
    (sigma(i), w starred letter by letter); realizer r is the words whose
    r-th letter is x.x~ or x.x*."""
    alg = t.algebra
    # per kind, the base atoms (as a mask) where that product is zero
    z0, z1, z2, z3 = t.m1, t.m2, t.m3, alg.sigma_mask(t.m1)
    letters, offsets = [], [0]
    for i in range(alg.n):
        row = _LETTERS[z0 >> i & 1 | (z1 >> i & 1) << 1 | (z2 >> i & 1) << 2 | (z3 >> i & 1) << 3]
        letters.append(row)
        offsets.append(offsets[-1] + row[0] ** k)
    sigma, cells, masks, rounds = [], [], [0] * k, range(k - 1)
    for (b, units, star), offset, image in zip(letters, offsets, alg.sigma):
        # k - 1 times, put each letter in front of every word: place holds
        # each word's sigma image in its block, units each realizer's part
        place, size = star, b
        for _ in rounds:
            first = (1 << units[0].bit_length() * b) - 1  # first letter under x
            units = [first] + [sum(u << c * size for c in range(b)) for u in units]
            place = [y * size + x for y in star for x in place]
            size *= b
        start = offsets[image - 1] + 1
        sigma += [start + x for x in place]
        cells.append(((1 << size) - 1) << offset)
        for r, u in enumerate(units):
            masks[r] |= u << offset
    ext = FiniteAlgebra(offsets[-1], tuple(sigma))
    return AtomRefinement.from_masks(alg, ext, tuple(cells)), masks


def witness_abstract(t: Triple) -> Witness:
    """The one-generated extension realizing a consistent triple (the k = 1
    case of _extension); the witness element is its x.x~ and x.x* parts."""
    if not is_sigma_consistent(t):
        raise InconsistentTripleError(f"{t!r} violates the consistency conditions")
    embedding, (mask,) = _extension(t, 1)
    return Witness(embedding, Element.from_mask(embedding.target, mask))


# ---------------------------------------------------------------------------
# Witness construction through powers of the four-element algebra

class Case1Entry(Value):
    """A solution of a consistent triple over the four-element algebra,
    embedded diagonally into the k-th power; coordinates use 0/a/b/1.  The
    triple is held as the masks m1, m2, m3 of I1, I2, I3 (0b01 is atom 1,
    0b10 atom 2).

    The mirrored entries are obtained from the I1={1} block by applying the
    star automorphism (swapping a and b and the two atoms), and are checked
    against the exhaustive oracle in the test suite.
    """

    __slots__ = ("m1", "m2", "m3", "coords", "mirrored")

    def __init__(self, m1: int, m2: int, m3: int, coords: tuple[str, ...], mirrored: bool = False):
        super().__init__(m1, m2, m3, coords, mirrored)


CASE1_ENTRIES: tuple[Case1Entry, ...] = (
    Case1Entry(0b11, 0b11, 0b00, ("0",)),
    Case1Entry(0b11, 0b00, 0b00, ("1", "0")),
    Case1Entry(0b11, 0b00, 0b11, ("1",)),
    Case1Entry(0b01, 0b00, 0b00, ("b", "1", "0")),
    Case1Entry(0b01, 0b11, 0b11, ("b",)),
    Case1Entry(0b01, 0b11, 0b00, ("b", "0")),
    Case1Entry(0b01, 0b00, 0b11, ("b", "1")),
    Case1Entry(0b10, 0b00, 0b00, ("a", "1", "0"), mirrored=True),
    Case1Entry(0b10, 0b11, 0b11, ("a",), mirrored=True),
    Case1Entry(0b10, 0b11, 0b00, ("a", "0"), mirrored=True),
    Case1Entry(0b10, 0b00, 0b11, ("a", "1"), mirrored=True),
    Case1Entry(0b00, 0b00, 0b00, ("a", "b", "0", "1")),
    Case1Entry(0b00, 0b00, 0b11, ("a", "b", "1")),
    Case1Entry(0b00, 0b11, 0b00, ("a", "b", "0")),
    Case1Entry(0b00, 0b11, 0b11, ("a", "b")),
)


@lru_cache(maxsize=None)
def _solution_table(width: int) -> dict[tuple[int, int, int], tuple[int, int, int]]:
    """The a-side bits, b-side bits and width of each tabulated solution,
    by the masks of its triple.  With width > 0 every solution is padded to
    that width by repeating its first coordinate."""
    table = {}
    for e in CASE1_ENTRIES:
        coords = e.coords + e.coords[:1] * (width - len(e.coords))
        # bit j of a (of b) is set when coordinate j lies above a (above b)
        a = sum(1 << j for j, c in enumerate(coords) if c in "a1")
        b = sum(1 << j for j, c in enumerate(coords) if c in "b1")
        table[(e.m1, e.m2, e.m3)] = (a, b, len(coords))
    return table


def four_power_base(alg: FiniteAlgebra) -> tuple[int, AtomRefinement]:
    """The exponent m and the embedding of alg into four_power(m); the
    embedding is the identity when alg already has that layout."""
    if is_four_power_shaped(alg):
        return alg.n // 2, identity_refinement(alg)
    return alg.n, twist_product(alg)[1]


def four_power_blocks(t: Triple, m: int, width: int = 0) -> tuple[list[int], int]:
    """Solve a consistent triple over four_power(m) coordinate by coordinate.

    Coordinate i reads atoms i and m+i as the atoms 1 and 2 of the
    four-element algebra and takes the tabulated solution of its triple,
    spread over its own block of consecutive coordinates; width > 0 pads
    every block to that width.  Returns the block widths and the mask of the
    assembled solution in four_power(sum of the widths).
    """
    table = _solution_table(width)
    m1, m2, m3 = t.m1, t.m2, t.m3
    widths = []
    a = b = offset = 0
    for i in range(m):
        j = m + i - 1
        key = (m1 >> i & 1 | m1 >> j & 2, m2 >> i & 1 | m2 >> j & 2, m3 >> i & 1 | m3 >> j & 2)
        sa, sb, k = table[key]
        a |= sa << offset
        b |= sb << offset
        offset += k
        widths.append(k)
    return widths, a | b << offset


def block_layout(power: FiniteAlgebra, widths: list[int]) -> AtomRefinement:
    """Spread coordinate i of power = four_power(m) diagonally over the i-th
    block of widths[i] consecutive coordinates of four_power(sum(widths))."""
    m, total = len(widths), sum(widths)
    cells = [0] * (2 * m)
    offset = 0
    for i, k in enumerate(widths):
        cells[i] = ((1 << k) - 1) << offset
        cells[m + i] = cells[i] << total
        offset += k
    return AtomRefinement.from_masks(power, four_power(total), tuple(cells))


def witness_via_four_power(t: Triple) -> Witness:
    """Realize a consistent triple inside a power of the four-element
    algebra.

    The base goes into four_power(m) (identity when it already has that
    layout), the triple is refined along the embedding, split into one
    sub-triple per coordinate, and each sub-triple is solved by the lookup
    table inside a small diagonal power; the solutions combine blockwise.
    """
    if not is_sigma_consistent(t):
        raise InconsistentTripleError(f"{t!r} violates the consistency conditions")
    m, r1 = four_power_base(t.algebra)
    widths, mask = four_power_blocks(refine_triple(r1, t), m)
    block = block_layout(r1.target, widths)
    return Witness(compose_refinements(r1, block), Element.from_mask(block.target, mask))


# ---------------------------------------------------------------------------
# Triviality and closures

def is_trivial(t: Triple) -> Optional[int]:
    """When t is the type of a base element, return the mask of that
    element's atom set I (the element is then the unique realizer);
    otherwise None.  The zero element gives 0, so test the answer against
    None, not for truth.

    The only possible I is (complement of I1) union (complement of I2); the
    three defining equalities are then verified outright.
    """
    full = t.algebra.full_mask
    cand = (full ^ t.m1) | (full ^ t.m2)
    sigma_cand = t.algebra.sigma_mask(cand)
    ok = (
        t.m1 == (full ^ cand) | sigma_cand
        and t.m2 == full ^ (cand & sigma_cand)
        and t.m3 == cand | sigma_cand
    )
    return cand if ok else None


def in_acl(r: AtomRefinement, w: Element) -> bool:
    """Whether w is algebraic over the source of r; this happens exactly
    when w already lies in the image of the source."""
    return is_trivial(triple_of_element(r, w)) is not None


def realizations(
    t: Triple, k: int
) -> tuple[FiniteAlgebra, AtomRefinement, list[Element]]:
    """k pairwise distinct realizers of a consistent non-trivial triple in a
    common extension: _extension's tower of k rounds, each adjoining a
    witness of the refinement of t so far.  That stays non-trivial, so each
    realizer lies outside the rounds before it.  Over n atoms the extension
    has at most n * 4^k; above MAX_REALIZATION_ATOMS nothing is built and
    CapExceeded is raised, so three atoms allow k = 7 but not k = 8."""
    if k < 1:
        raise ValueError("at least one realizer must be requested")
    if not is_sigma_consistent(t):
        raise InconsistentTripleError(f"{t!r} violates the consistency conditions")
    if is_trivial(t) is not None:
        raise TrivialTripleError(f"{t!r} has a unique realizer inside the base algebra")
    n, cap = t.algebra.n, MAX_REALIZATION_ATOMS
    # 4^k > cap once 2k reaches the cap's bit length, so 4^k is never built
    if 2 * k >= cap.bit_length() or n << 2 * k > cap:
        raise CapExceeded(
            f"{k} realizations over {n} atoms may need {n}*4^{k} atoms, cap is {cap}"
        )
    embedding, masks = _extension(t, k)
    ext = embedding.target
    return ext, embedding, [Element.from_mask(ext, m) for m in masks]


# ---------------------------------------------------------------------------
# Decision procedure

# Shapes with at most this many consistent triples keep their rows in
# _shape_witnesses; at about 650 B a row (tracemalloc, Python 3.11) its 8
# entries hold under 9 MiB, a bound tests/test_solver.py pins.
_SHAPE_TRIPLES = 2048

# A witness as decide's step reads it: (extension, mask of x, cell masks).
_Row = tuple[FiniteAlgebra, int, tuple[int, ...]]


def _rows(triples) -> Iterator[_Row]:
    """Per consistent triple, in the given order, the row of its abstract
    witness that decide's step reads: (extension, mask of x there, cell
    masks of the base atoms), each built as it is asked for."""
    for t in triples:
        w = witness_abstract(t)
        yield w.embedding.target, w.element.mask, w.embedding.cell_masks


@lru_cache(maxsize=8)
def _shape_witnesses(sigma: tuple[int, ...]) -> tuple[_Row, ...]:
    """The rows of every consistent triple over FiniteAlgebra(len(sigma),
    sigma), in triple order.  decide's one cache: only the shape of the
    subalgebra a quantifier ranges over matters."""
    return tuple(_rows(sigma_consistent_triples(FiniteAlgebra(len(sigma), sigma))))


def _witness_pairs(sigma, count, var, params) -> Iterator[tuple[FiniteAlgebra, dict[str, int]]]:
    """Per row over the shape sigma, in triple order, its extension and the
    masks there of var and of params, (name, indices of the shape's atoms
    under it): each parameter is the union of those atoms' cells.  A shape
    of at most _SHAPE_TRIPLES triples reads _shape_witnesses; a larger
    one's rows are built one at a time, as they are tried."""
    if count <= _SHAPE_TRIPLES:
        rows = _shape_witnesses(sigma)
    else:
        rows = _rows(_consistent_triples(FiniteAlgebra(len(sigma), sigma)))
    for ext, x, cells in rows:
        env = {var: x}
        for name, under in params:
            m = 0
            for k in under:
                m |= cells[k]
            env[name] = m
        yield ext, env


def _quantifier(caps, depth, alg, f, env):
    """decide's step, as terms._holds calls it at the quantifier f nested
    depth quantifiers deep: the step for the body and the pairs to try.
    The names in play are f's free names, stored on f by the read; with
    none, the domain is the shape of 2.  Every cap is checked, in order,
    before anything is built."""
    if depth >= caps.max_depth:
        raise CapExceeded(
            f"quantifier depth {caps.max_depth} exhausted",
            cap="max_depth", needed=depth + 1, limit=caps.max_depth,
        )
    relevant = f._read
    if relevant:
        masks = [env[name] for name in relevant]
        blocks, sigma = generated_blocks(alg, masks)
        count = _triple_count(sigma, caps.max_triples)
    else:  # the shape of 2: one block, fixed, and 7 triples
        masks, blocks, sigma = (), (alg.full_mask,), (1,)
        count = 7 if caps.max_triples >= 7 else _triple_count(sigma, caps.max_triples)
    n = len(blocks)
    # the first triple, (0, 0, 0), splits every atom in four: the largest
    if 4 * n > caps.max_atoms:
        raise CapExceeded(
            f"witness extension needs {4 * n} atoms, cap is {caps.max_atoms}",
            cap="max_atoms", needed=4 * n, limit=caps.max_atoms,
        )
    # each parameter as the indices of the blocks under it
    params = []
    for name, m in zip(relevant, masks):
        params.append((name, [k for k, b in enumerate(blocks) if b & m]))
    return partial(_quantifier, caps, depth + 1), _witness_pairs(sigma, count, f.var, params)


def decide(
    params: FiniteAlgebra,
    f: Formula,
    env: Optional[Mapping[str, Element]] = None,
    caps: Caps = DEFAULT_CAPS,
) -> bool:
    """Truth value of f in every existentially closed extension of params.

    The answer does not depend on the chosen extension: the theory of these
    models is complete once the parameters are fixed.  terms._holds
    evaluates f; decide supplies each quantifier's domain, the abstract
    witnesses of the consistent triples over the subalgebra that the values
    of the variables still in play generate, with the parameters moved along
    each witness embedding.  That subalgebra is read from the masks alone:
    algebra.generated_blocks gives its atoms as blocks of the current atoms
    and sigma on them, which fixes the triple count, the witness shape and
    each parameter's preimage (the blocks under its mask); no element,
    algebra or refinement is built for it.  With no names in play the
    subalgebra is 2, whose shape (1,) and 7 triples are known, so no blocks
    are computed.  Per witness the step reads a row, (extension, mask of
    the variable, cell masks of the shape's atoms), and each parameter is
    the union of the cells of its blocks.  The rows of the last 8 shapes of
    at most _SHAPE_TRIPLES triples are kept (_shape_witnesses, keyed by
    sigma alone); a larger shape's rows are built one at a time, as they
    are tried.  Exhausted budgets raise CapExceeded, before anything is
    built, rather than defaulting to false; the error names the Caps field,
    what was needed and the limit.

    The sentence is read once, without recursion, the first time it is
    parsed or decided: the read checks its sorts, its leaves, its depth
    (ParseError beyond the parser's 500 levels) and its free names, and
    stores the free names on the sentence and the names in play on each of
    its quantifiers; later calls trust them.  A read that raises stores
    nothing, so it raises again on the next call.  Elements appear only
    here, at the edge: each binding is checked and turned into its atom mask
    once, and below it the bindings are masks.
    """
    names = _free_names(f)
    env = dict(env) if env else {}
    missing = [name for name in names if name not in env]
    if missing:
        raise ValueError(f"unbound free variables: {', '.join(missing)}")
    masks = {
        name: _binding_mask(params, name, value, "the parameter algebra")
        for name, value in env.items()
    }
    return _holds(params, f, masks, partial(_quantifier, caps, 0))
