"""Brute-force ground truth for the constructive machinery.

Everything here works by exhaustion: realizers are found by scanning all
2^m elements of an extension, triviality by scanning all 2^n candidate atom
sets, witnesses by scanning a canonical tower of powers of the four-element
algebra.  The zero-pattern tests are recomputed from the defining products
of the type formulas rather than routed through triple_of_element, so the
scans stay independent of the solver paths they are meant to check.
"""

from __future__ import annotations

import importlib
from typing import Iterator, Optional

from .algebra import (
    AtomRefinement,
    Element,
    FiniteAlgebra,
    compose_refinements,
    four_power,
    generated_subalgebra,
    identity_refinement,
    mask_to_atoms,
)
from .errors import CapExceeded
from .solver import Triple, Witness, block_layout, four_power_base
from .terms import And, Equal, Formula, Meet, DMNeg, BNeg, NotEqual, Star, Term, Var, ZERO

_CHUNK = 1 << 16
# the names of the free variable and of the parameters y1..yn of phi_formula
_VAR = "x"
_PARAM = "y"


def _numpy():
    # deferred so that CLI commands that never scan skip the import
    return importlib.import_module("numpy")


def phi_formula(t: Triple) -> Formula:
    """The defining formula of the triple as an AST: a conjunction over the
    base atoms i of zero tests y_i . x . ~x = 0 (i in I1, negated outside),
    and likewise for x . x* and x' . ~x."""
    x = Var(_VAR)
    products: tuple[tuple[Term, int], ...] = (
        (Meet(x, DMNeg(x)), t.m1),
        (Meet(x, Star(x)), t.m2),
        (Meet(BNeg(x), DMNeg(x)), t.m3),
    )
    conjuncts = []
    for product, inside in products:
        for i in t.algebra.atom_indices:
            y = Var(f"{_PARAM}{i}")
            atom = Meet(y, product)
            zero = inside >> (i - 1) & 1
            conjuncts.append(Equal(atom, ZERO) if zero else NotEqual(atom, ZERO))
    out = conjuncts[0]
    for c in conjuncts[1:]:
        out = And(out, c)
    return out


def phi_environment(r: AtomRefinement, u: Element):
    """Values for phi_formula's variables: y_i is the image of base atom i
    along r and x is u."""
    env = {f"{_PARAM}{i}": r.map_element(r.source.atom(i)) for i in r.source.atom_indices}
    env[_VAR] = u
    return env


# ---------------------------------------------------------------------------
# Vectorized scans over all elements of a target algebra

def _sigma_apply(np, alg: FiniteAlgebra, masks):
    out = np.zeros_like(masks)
    for i in alg.atom_indices:
        bit = np.right_shift(masks, i - 1) & 1
        out |= np.left_shift(bit.astype(masks.dtype), alg.sigma_of(i) - 1)
    return out


def element_type_scan(r: AtomRefinement) -> Iterator[tuple]:
    """Yield (element_mask, I1, I2, I3) arrays covering every element of the
    target, where the I arrays are bitmasks over the source atoms.

    For each target element u the three products u & ~sigma(u), u & sigma(u)
    and ~u & ~sigma(u) are formed directly and tested against each cell.
    """
    np = _numpy()
    target = r.target
    if target.n > 26:
        raise CapExceeded(f"cannot scan 2^{target.n} elements")
    dtype = np.uint32
    full = target.full_mask
    cells = [np.array(cell, dtype=dtype) for cell in r.cell_masks]
    total = 1 << target.n
    for start in range(0, total, _CHUNK):
        masks = np.arange(start, min(start + _CHUNK, total), dtype=dtype)
        sig = _sigma_apply(np, target, masks)
        xxbar = masks & ~sig & full
        xxstar = masks & sig
        nxbar = ~masks & ~sig & full
        i1 = np.zeros_like(masks)
        i2 = np.zeros_like(masks)
        i3 = np.zeros_like(masks)
        for i, cell in enumerate(cells):
            bit = dtype(1 << i)
            i1 |= np.where((xxbar & cell) == 0, bit, dtype(0))
            i2 |= np.where((xxstar & cell) == 0, bit, dtype(0))
            i3 |= np.where((nxbar & cell) == 0, bit, dtype(0))
        yield masks, i1, i2, i3


def _realizers(r: AtomRefinement, t: Triple) -> Iterator[Element]:
    """The elements of the target whose zero pattern over the source is
    exactly t, in ascending bitmask order, scanned one chunk at a time."""
    if t.algebra != r.source:
        raise ValueError("triple is not over the refinement source")
    for masks, i1, i2, i3 in element_type_scan(r):
        for m in masks[(i1 == t.m1) & (i2 == t.m2) & (i3 == t.m3)]:
            yield Element.from_mask(r.target, int(m))


def all_realizations_in(r: AtomRefinement, t: Triple) -> list[Element]:
    """Every element of the target realizing t, in ascending bitmask order."""
    return list(_realizers(r, t))


def find_realizer(r: AtomRefinement, t: Triple) -> Optional[Element]:
    """The least element of the target realizing t, or None."""
    return next(_realizers(r, t), None)


def scan_consistent(r: AtomRefinement) -> bool:
    """Check that the type of every target element is sigma-consistent over
    the source; exhaustive over all 2^m elements."""
    np = _numpy()
    source = r.source
    size = 1 << source.n
    sigma_lut = np.zeros(size, dtype=np.int64)
    for mask in range(size):
        sigma_lut[mask] = source.sigma_mask(mask)
    for _, i1, i2, i3 in element_type_scan(r):
        i1 = i1.astype(np.int64)
        i2 = i2.astype(np.int64)
        i3 = i3.astype(np.int64)
        if not np.array_equal(sigma_lut[i2], i2) or not np.array_equal(sigma_lut[i3], i3):
            return False
        core = i1 & i2 & i3
        if np.any(sigma_lut[core] & core):
            return False
    return True


# ---------------------------------------------------------------------------
# Witness search by exhaustion

def oracle_witness_search(t: Triple, max_atoms: int = 16) -> Optional[Witness]:
    """Search a canonical tower of four-powers for a realizer of t: embed the
    base (a base already laid out as a four-power starts at itself), then
    keep doubling coordinates diagonally until the atom budget runs out.
    Returns the first witness found, scanning elements in ascending bitmask
    order, or None."""
    if max_atoms < 0:
        raise ValueError(f"max_atoms must be nonnegative, got {max_atoms}")
    r = four_power_base(t.algebra)[1] or identity_refinement(t.algebra)
    while r.target.n <= max_atoms:
        found = find_realizer(r, t)
        if found is not None:
            return Witness(r, found)
        # double every coordinate diagonally
        r = compose_refinements(r, block_layout(r.target, [2] * (r.target.n // 2)))
    return None


def brute_force_trivial(t: Triple) -> Optional[frozenset[int]]:
    """Scan all atom subsets I for the three equalities characterizing the
    type of a base element; at most one I can match."""
    alg = t.algebra
    full = alg.full_mask
    for cand in range(1 << alg.n):
        sigma_cand = alg.sigma_mask(cand)
        if (
            t.m1 == (full ^ cand) | sigma_cand
            and t.m2 == full ^ (cand & sigma_cand)
            and t.m3 == cand | sigma_cand
        ):
            return mask_to_atoms(cand)
    return None


# ---------------------------------------------------------------------------
# Local finiteness probe

def free_function_count(k: int) -> int:
    """Size of the closure of the k projections and the constants under the
    five operations, as functions from k-tuples over the four-element
    algebra to it.

    The closure is the subalgebra of the 4^k-th power generated by the
    projections, hence the powerset of the atom partition they induce; its
    size is 2 to the number of blocks.  Inputs are enumerated with the last
    coordinate varying fastest, each over (0, a, b, 1).
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k > 2:
        raise CapExceeded("free_function_count is capped at k = 2")
    m = 4**k
    ambient = four_power(m)
    projections = []
    for c in range(k):
        mask = 0
        for idx in range(m):
            digit = (idx // (4 ** (k - 1 - c))) % 4  # 0, a, b, 1
            mask |= (digit & 1) << idx | (digit >> 1) << (m + idx)
        projections.append(Element.from_mask(ambient, mask))
    sub, _ = generated_subalgebra(ambient, projections)
    return 2**sub.n
