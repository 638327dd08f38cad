"""Finite Boole-De Morgan algebras and atom-level embeddings between them.

A finite Boole-De Morgan algebra is presented by the pair (n, sigma): its
Boolean skeleton is the powerset of the atom set {1..n}, and sigma is an
involution on the atoms giving the action of the star map x* = (x~)' = (x')~.
From sigma the whole signature is recovered on an atom set a:

    join = union            meet = intersection
    x'   = complement(a)    x*   = sigma(a)       x~ = complement(sigma(a))

Every embedding used here is an AtomRefinement: a sigma-equivariant partition
of the target's atoms into nonempty cells indexed by source atoms.  The
induced element map sends an atom set to the union of its cells and preserves
all five operations together with 0 and 1.

An atom set is an int mask with bit i-1 for atom i, so the operations above
are |, &, ^ full_mask and sigma_mask.  Atom sets as collections of atom
indices appear in two places only, because the parsers and the benchmark
adapters speak them: the constructors Element(alg, atoms),
AtomRefinement(source, target, cells) and solver.Triple(alg, i1, i2, i3)
take them, range-checked by atoms_to_mask, and AtomRefinement.cell(i) and
Triple.sets() return them as frozensets.  Everything else reads and returns
masks; the printers read them through sorted_atoms.  Every object checks
its invariants, whichever way it was built.  One step builds no objects at
all: solver.decide's quantifier step reads the subalgebra it ranges over
from generated_blocks, the masks of its atoms and sigma on them, which is
also the one partition routine behind generated_subalgebra.

All values are immutable; every operation is a pure function.  Searches that
could return several answers (isomorphisms, generated structure) return the
lexicographically least one, where elements and atom maps are ordered by
their 1-based atom indices.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .errors import CapExceeded

_new = object.__new__
_set = object.__setattr__


def atoms_to_mask(atoms: Iterable[int], n: int) -> Optional[int]:
    """The mask of an atom set, bit i-1 for atom i, or None when an atom
    lies outside 1..n."""
    mask = 0
    for i in atoms:
        if not 1 <= i <= n:
            return None
        mask |= 1 << (i - 1)
    return mask


# the atoms of each byte value, as offsets 1..8 within its byte
_BYTE_ATOMS = tuple(tuple(j + 1 for j in range(8) if b >> j & 1) for b in range(256))


def sorted_atoms(mask: int) -> list[int]:
    """The atoms of a mask in ascending order, read a byte at a time."""
    out = []
    base = 0
    for byte in mask.to_bytes((mask.bit_length() + 7) // 8, "little"):
        for j in _BYTE_ATOMS[byte]:
            out.append(base + j)
        base += 8
    return out


def format_mask(mask: int) -> str:
    """The atom set of a mask as `{i1,i2,...}`, `{}` when empty."""
    return "{" + ",".join(map(str, sorted_atoms(mask))) + "}"


def mask_to_atoms(mask: int) -> frozenset[int]:
    """The atom set of a mask."""
    return frozenset(sorted_atoms(mask))


class Frozen:
    """Base of the package's immutable objects.  A subclass names its fields
    in __slots__; the constructor sets them once, in that order, and
    assigning or deleting one afterwards raises AttributeError.  Equality
    is identity unless a subclass defines it."""

    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(
                f"{type(self).__name__} takes {len(self.__slots__)} fields, got {len(values)}"
            )
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __reduce__(self):
        # pickle and copy would otherwise restore the fields with setattr
        return _restore, (type(self), self._fields())


def _restore(cls, values):
    """A pickled or copied Frozen object, rebuilt from its fields."""
    obj = _new(cls)
    Frozen.__init__(obj, *values)
    return obj


class Value(Frozen):
    """A Frozen object equal to another of its own class with equal fields,
    hashed by its fields and printed as Class(field=value, ...).

    A field may hold another Value, so a formula is a tree of them as deep
    as the parser allows.  Equality, hash and repr walk such trees with an
    explicit stack, not one call per level.  Equality and repr give what
    comparing or printing the tuple of fields would give; the hash is that
    of the tuple of fields with each Value field replaced by its hash."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        pairs = [(self, other)]
        for a, b in pairs:  # grows while it is read
            for x, y in zip(a._fields(), b._fields()):
                if x is y:
                    continue
                if isinstance(x, Value):
                    if y.__class__ is not x.__class__:
                        return False
                    pairs.append((x, y))
                elif not x == y:
                    return False
        return True

    def __hash__(self):
        nodes = [(self, self._fields())]
        for _, fields in nodes:  # grows while it is read: each node after its parent
            nodes.extend((f, f._fields()) for f in fields if isinstance(f, Value))
        hashes: dict[int, int] = {}  # id of a node -> its hash
        for node, fields in reversed(nodes):
            hashes[id(node)] = hash(tuple([hashes.get(id(f), f) for f in fields]))
        return hashes[id(self)]

    def __repr__(self):
        out = []
        stack: list = [self]  # Values still to print, and text already made
        while stack:
            item = stack.pop()
            if item.__class__ is str:
                out.append(item)
                continue
            pieces = [f"{type(item).__qualname__}("]
            for k, name in enumerate(item.__slots__):
                value = getattr(item, name)
                pieces.append(f"{', ' if k else ''}{name}=")
                # a Value printed its own way (a Triple, a refinement) is text
                walk = value.__class__.__repr__ is Value.__repr__
                pieces.append(value if walk else repr(value))
            pieces.append(")")
            stack.extend(reversed(pieces))
        return "".join(out)


class FiniteAlgebra(Frozen):
    """A finite Boole-De Morgan algebra given by an atom count and the
    involution of the star map on atoms (1-indexed images).  Two algebras
    are equal when their sigmas are, whatever their names."""

    # full_mask and _swaps are derived from sigma, and _hash is the hash of
    # sigma; sigma has n entries, so it decides equality on its own
    __slots__ = ("n", "sigma", "name", "full_mask", "_swaps", "_hash")

    def __init__(self, n: int, sigma, name: Optional[str] = None):
        if n < 1:
            raise ValueError("an algebra needs at least one atom")
        sigma = tuple(sigma)
        if len(sigma) != n:
            raise ValueError(f"sigma must list an image for each of the {n} atoms")
        if sorted(sigma) != list(range(1, n + 1)):
            raise ValueError("sigma is not a permutation of the atoms")
        for i in range(1, n + 1):
            if sigma[sigma[i - 1] - 1] != i:
                raise ValueError("sigma is not an involution")
        # sigma as (d, low) pairs: it swaps each atom in low with the atom d above
        swaps: dict[int, int] = {}
        for i, j in enumerate(sigma, start=1):
            if j > i:
                swaps[j - i] = swaps.get(j - i, 0) | 1 << (i - 1)
        super().__init__(n, sigma, name, (1 << n) - 1, tuple(swaps.items()), hash(sigma))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self.sigma == other.sigma

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FiniteAlgebra(n={self.n}, sigma={self.sigma})"

    def sigma_mask(self, mask: int) -> int:
        """The star image of an atom mask.

        Either one delta swap per distance d between the atoms of a
        two-cycle, exchanging the bits of low with the bits d places above
        them, or, for a mask with fewer atoms than there are distances, one
        move per atom.  Each step is one whole-width operation, so the cost
        is min(atoms in the mask, distances) steps of n/64 machine words.
        """
        if mask.bit_count() < len(self._swaps):
            sigma = self.sigma
            out = 0
            while mask:
                low = mask & -mask
                out |= 1 << (sigma[low.bit_length() - 1] - 1)
                mask ^= low
            return out
        for d, low in self._swaps:
            flip = (mask >> d ^ mask) & low
            mask ^= flip | flip << d
        return mask

    @property
    def atom_indices(self) -> range:
        return range(1, self.n + 1)

    @property
    def zero(self) -> "Element":
        return Element.from_mask(self, 0)

    @property
    def one(self) -> "Element":
        return Element.from_mask(self, self.full_mask)

    def atom(self, i: int) -> "Element":
        if not 1 <= i <= self.n:
            raise ValueError(f"atom index {i} out of range 1..{self.n}")
        return Element.from_mask(self, 1 << (i - 1))

    def sigma_orbits(self) -> tuple[tuple[int, ...], ...]:
        """Orbits of sigma on atoms, each sorted, in order of least member."""
        seen = set()
        orbits = []
        for i in self.atom_indices:
            if i in seen:
                continue
            j = self.sigma[i - 1]
            orbit = (i,) if j == i else (i, j)
            seen.update(orbit)
            orbits.append(orbit)
        return tuple(orbits)


def four_power(m: int) -> FiniteAlgebra:
    """The m-th direct power of the four-element algebra.

    Atom i (1 <= i <= m) is the element with a in coordinate i, atom m+i the
    one with b in coordinate i, so sigma swaps i and m+i.  This layout is a
    convention of this package, not a canonical fact.
    """
    if m < 1:
        raise ValueError("four_power needs m >= 1")
    sigma = tuple(range(m + 1, 2 * m + 1)) + tuple(range(1, m + 1))
    return FiniteAlgebra(2 * m, sigma)


#: The two-element algebra {0, 1}.
TWO = FiniteAlgebra(1, (1,), name="two")

#: The four-element algebra {0, a, b, 1} with a~ = a, a' = b, a* = b.
FOUR = FiniteAlgebra(2, (2, 1), name="four")


def is_four_power_shaped(alg: FiniteAlgebra) -> bool:
    """True when alg literally uses the four_power(m) atom layout."""
    if alg.n % 2:
        return False
    m = alg.n // 2
    return all(alg.sigma[i - 1] == m + i for i in range(1, m + 1))


class Element(Frozen):
    """An element of a FiniteAlgebra: the mask of the atoms below it."""

    __slots__ = ("algebra", "mask")

    def __init__(self, algebra: FiniteAlgebra, atoms: Iterable[int]):
        atoms = frozenset(atoms)
        mask = atoms_to_mask(atoms, algebra.n)
        if mask is None:
            raise ValueError(f"atoms {sorted(atoms)} not within 1..{algebra.n}")
        _set(self, "algebra", algebra)
        _set(self, "mask", mask)

    @classmethod
    def from_mask(cls, algebra: FiniteAlgebra, mask: int) -> "Element":
        if mask >> algebra.n:
            raise ValueError(f"mask {mask:#x} is not within {algebra.n} atoms")
        e = _new(cls)
        _set(e, "algebra", algebra)
        _set(e, "mask", mask)
        return e

    # written out: Value's loop over the fields costs several times as much
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.mask == other.mask and self.algebra == other.algebra

    def __hash__(self):
        return hash((self.algebra, self.mask))

    def __repr__(self):
        return f"Element({format_mask(self.mask)} of n={self.algebra.n})"


class AtomRefinement(Value):
    """An embedding source -> target, as the partition of target atoms into
    cells indexed by source atoms; cell_masks[i-1] is the cell of atom i.

    Cells must be nonempty, pairwise disjoint, cover the target atoms, and be
    sigma-equivariant: cell(sigma_source(i)) = sigma_target(cell(i)).  These
    conditions make the induced element map an injective homomorphism for
    join, meet, both negations and star.
    """

    __slots__ = ("source", "target", "cell_masks")

    def __init__(self, source: FiniteAlgebra, target: FiniteAlgebra, cells):
        masks = []
        for i, cell in enumerate(cells, start=1):
            mask = atoms_to_mask(cell, target.n)
            if mask is None:
                raise ValueError(f"cell {i} is not a subset of the target atoms")
            masks.append(mask)
        _init_refinement(self, source, target, tuple(masks))

    @classmethod
    def from_masks(
        cls, source: FiniteAlgebra, target: FiniteAlgebra, masks: tuple[int, ...]
    ) -> "AtomRefinement":
        return _init_refinement(_new(cls), source, target, masks)

    def __repr__(self):
        return f"AtomRefinement({self.source.n} atoms -> {self.target.n} atoms)"

    def cell(self, i: int) -> frozenset[int]:
        return mask_to_atoms(self.cell_masks[i - 1])

    def map_mask(self, mask: int) -> int:
        """The union of the cells of the source atoms in mask."""
        cells = self.cell_masks
        out = 0
        while mask:
            low = mask & -mask
            out |= cells[low.bit_length() - 1]
            mask ^= low
        return out

    def map_element(self, e: Element) -> Element:
        if e.algebra is not self.source and e.algebra != self.source:
            raise ValueError("element does not belong to the source algebra")
        return Element.from_mask(self.target, self.map_mask(e.mask))


def _init_refinement(r, source, target, masks):
    """Check the cell masks and store them on r, which is returned."""
    if len(masks) != source.n:
        raise ValueError("one cell per source atom is required")
    covered = 0
    for i, cell in enumerate(masks, start=1):
        if not cell:
            raise ValueError(f"cell {i} is empty")
        if cell >> target.n:
            raise ValueError(f"cell {i} is not a subset of the target atoms")
        if covered & cell:
            raise ValueError("cells overlap")
        covered |= cell
    if covered != target.full_mask:
        raise ValueError("cells do not cover the target atoms")
    for cell, image in zip(masks, source.sigma):
        if masks[image - 1] != target.sigma_mask(cell):
            raise ValueError("cells are not sigma-equivariant")
    _set(r, "source", source)
    _set(r, "target", target)
    _set(r, "cell_masks", masks)
    return r


def identity_refinement(alg: FiniteAlgebra) -> AtomRefinement:
    return AtomRefinement.from_masks(alg, alg, tuple(1 << i for i in range(alg.n)))


def compose_refinements(r1: AtomRefinement, r2: AtomRefinement) -> AtomRefinement:
    """The composite refinement of r1: A -> B and r2: B -> C."""
    if r1.target is not r2.source and r1.target != r2.source:
        raise ValueError("refinements do not compose: target/source mismatch")
    cells = tuple(r2.map_mask(c) for c in r1.cell_masks)
    return AtomRefinement.from_masks(r1.source, r2.target, cells)


def twist_product(alg: FiniteAlgebra) -> tuple[FiniteAlgebra, AtomRefinement]:
    """The twist of alg's underlying lattice with itself, together with the
    embedding x |-> (x, x~).

    The target is four_power(n), the n-th power of the four-element algebra:
    atom i is the plus copy and atom n+i the minus copy of source atom i,
    and star swaps the copies.  The cell of source atom i is
    {i, n + sigma(i)}.
    """
    n = alg.n
    ext = four_power(n)
    cells = tuple(1 << i | 1 << (n + j - 1) for i, j in enumerate(alg.sigma))
    return ext, AtomRefinement.from_masks(alg, ext, cells)


def generated_blocks(
    alg: FiniteAlgebra, masks: Iterable[int]
) -> tuple[list[int], tuple[int, ...]]:
    """The atoms of the subalgebra of alg generated by the given masks, as
    masks of alg's atoms, and sigma on them as 1-based block indices.

    The blocks partition alg's atoms: splitting full_mask along every mask
    and its star image gives a family closed under sigma, so sigma permutes
    the blocks.  Blocks are ordered by their least atom.  The masks must lie
    within alg's atoms; nothing is checked or built beyond the two results.
    """
    blocks = [alg.full_mask]
    for m in masks:
        for s in (m, alg.sigma_mask(m)):
            split: list[int] = []
            for b in blocks:
                inside = b & s
                if inside:
                    split.append(inside)
                if inside != b:
                    split.append(b ^ inside)
            blocks = split
    blocks.sort(key=lambda b: b & -b)
    index = {b: k for k, b in enumerate(blocks, start=1)}
    return blocks, tuple([index[alg.sigma_mask(b)] for b in blocks])


def generated_subalgebra(
    alg: FiniteAlgebra, elems: Iterable[Element] = ()
) -> tuple[FiniteAlgebra, AtomRefinement]:
    """The subalgebra generated by the given elements (plus 0 and 1),
    returned abstractly with the refinement embedding it into alg: the
    blocks of generated_blocks, as a checked algebra and refinement."""
    masks = []
    for e in elems:
        if e.algebra is not alg and e.algebra != alg:
            raise ValueError("generator does not belong to the algebra")
        masks.append(e.mask)
    blocks, sigma = generated_blocks(alg, masks)
    sub = FiniteAlgebra(len(blocks), sigma)
    return sub, AtomRefinement.from_masks(sub, alg, tuple(blocks))


# The most atoms amalgamate or solver.realizations builds (2^16 take ~0.1 s)
MAX_REALIZATION_ATOMS = 1 << 16


def amalgamate(
    r1: AtomRefinement, r2: AtomRefinement
) -> tuple[FiniteAlgebra, AtomRefinement, AtomRefinement]:
    """Amalgamate two extensions of a common algebra.

    For r1: A -> B1 and r2: A -> B2 the result is the fibered product C whose
    atoms are the pairs (q, r) of B1- and B2-atoms lying over the same A-atom,
    with star acting componentwise, plus refinements s1: B1 -> C and
    s2: B2 -> C satisfying s1 . r1 = s2 . r2 as element maps.  C has
    sum |c1_i| * |c2_i| atoms over the cells of the A-atoms i; above
    MAX_REALIZATION_ATOMS, CapExceeded is raised before any is built.
    """
    if r1.source != r2.source:
        raise ValueError("amalgamation needs a shared source algebra")
    cells = tuple(zip(r1.cell_masks, r2.cell_masks))
    size = sum(c1.bit_count() * c2.bit_count() for c1, c2 in cells)
    if size > MAX_REALIZATION_ATOMS:
        raise CapExceeded(
            f"the amalgam needs {size} atoms, cap is {MAX_REALIZATION_ATOMS}",
            cap="MAX_REALIZATION_ATOMS", needed=size, limit=MAX_REALIZATION_ATOMS,
        )
    pairs = sorted(
        (q, r)
        for c1, c2 in cells
        for q in sorted_atoms(c1)
        for r in sorted_atoms(c2)
    )
    index = {p: k for k, p in enumerate(pairs, start=1)}
    sigma1, sigma2 = r1.target.sigma, r2.target.sigma
    sigma = tuple(index[(sigma1[q - 1], sigma2[r - 1])] for q, r in pairs)
    amalgam = FiniteAlgebra(len(pairs), sigma)
    cells1 = [0] * r1.target.n
    cells2 = [0] * r2.target.n
    for k, (q, r) in enumerate(pairs):
        cells1[q - 1] |= 1 << k
        cells2[r - 1] |= 1 << k
    s1 = AtomRefinement.from_masks(r1.target, amalgam, tuple(cells1))
    s2 = AtomRefinement.from_masks(r2.target, amalgam, tuple(cells2))
    return amalgam, s1, s2


def find_isomorphism_over(
    r1: AtomRefinement, r2: AtomRefinement
) -> Optional[tuple[int, ...]]:
    """The lexicographically least atom bijection between the targets of r1
    and r2 that commutes with sigma and maps each cell of r1 onto the
    matching cell of r2, as the images of atoms 1..m, or None.

    One pass over the atoms in ascending order: a fixed atom takes the
    least unused fixed atom of its r2 cell, and the first atom of a
    two-cycle takes the least unused atom of its r2 cell that sigma moves,
    reserving that atom's partner for its own partner.  Cells are
    sigma-equivariant, so within a cell the fixed atoms are interchangeable
    and so are the two-cycles: every choice extends to a bijection when one
    exists, and the pass fails exactly when none does.
    """
    if r1.source != r2.source:
        raise ValueError("isomorphism search needs a shared source algebra")
    if r1.target.n != r2.target.n:
        return None
    m = r1.target.n
    into = [0] * m  # the r2 cell that each r1 target atom must map into
    for c1, c2 in zip(r1.cell_masks, r2.cell_masks):
        if c1.bit_count() != c2.bit_count():
            return None
        while c1:
            low = c1 & -c1
            into[low.bit_length() - 1] = c2
            c1 ^= low
    sigma1, sigma2 = r1.target.sigma, r2.target.sigma
    fixed2 = sum(1 << j for j, k in enumerate(sigma2) if k == j + 1)
    images = [0] * m  # 0 until an atom is given its image
    used = 0  # the images given so far
    for q in range(m):
        if images[q]:
            continue  # reserved when the first atom of its two-cycle was mapped
        partner = sigma1[q] - 1
        free = into[q] & ~used & (fixed2 if partner == q else ~fixed2)
        if not free:
            return None
        image = (free & -free).bit_length()
        images[q] = image
        images[partner] = sigma2[image - 1]
        used |= 1 << (image - 1) | 1 << (images[partner] - 1)
    return tuple(images)


def algebra_over(
    r: AtomRefinement, extra: Iterable[Element] = ()
) -> tuple[FiniteAlgebra, AtomRefinement, AtomRefinement]:
    """The subalgebra of r.target generated by the image of r together with
    extra elements.

    Returns (sub, sub_into_target, source_into_sub); the second refinement
    composed after the first recovers a refinement equal to r on elements.
    Each cell of the third collects the sub-atoms whose blocks lie inside the
    corresponding cell of r.
    """
    gens = [Element.from_mask(r.target, c) for c in r.cell_masks]
    gens.extend(extra)
    sub, sub_r = generated_subalgebra(r.target, gens)
    cells = []
    for big in r.cell_masks:
        cell = 0
        for j, block in enumerate(sub_r.cell_masks):
            if not block & ~big:
                cell |= 1 << j
        cells.append(cell)
    return sub, sub_r, AtomRefinement.from_masks(r.source, sub, tuple(cells))
