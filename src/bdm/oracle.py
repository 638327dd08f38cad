"""Brute-force ground truth for the constructive machinery.

Everything here works by exhaustion: realizers are found by scanning all
2^m elements of an extension, triviality by scanning all 2^n candidate atom
sets (both scans stop at MAX_SCAN_ATOMS atoms), witnesses by scanning a
canonical tower of powers of the four-element algebra, and failing
assignments of identities by trying all 4^k of them.  The zero-pattern
tests are recomputed from the defining products of the type formulas rather
than routed through triple_of_element, so the scans stay independent of the
solver paths they are meant to check.

The element scan is bit-sliced: it covers the 2^m elements of an m-atom
target in chunks of 2^min(m, 16) consecutive masks, and within a chunk each
test is one int whose bit k answers it for the k-th element.  A scan over
n source atoms thus costs O((m + n) * 2^m / 64) word operations.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional

from .algebra import (
    FOUR,
    AtomRefinement,
    Element,
    compose_refinements,
    four_power,
    generated_subalgebra,
    sorted_atoms,
)
from .errors import CapExceeded
from .solver import Triple, Witness, block_layout, four_power_base
from .terms import And, Equal, Formula, Meet, DMNeg, BNeg, NotEqual, Star, Term, Var, ZERO
from .terms import MAX_IDENTITY_VARIABLES, _low_tables, _mask, free_vars

# the names of the free variable and of the parameters y1..yn of phi_formula
_VAR = "x"
_PARAM = "y"

# The most atoms either scan covers: 2^26 elements or candidate atom sets
MAX_SCAN_ATOMS = 26


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
# Bit-sliced scans over all elements of a target algebra

def element_type_scan(r: AtomRefinement) -> Iterator[tuple]:
    """Yield (elements, z1, z2, z3) chunk by chunk over every element of the
    target, where elements is the range of target masks in the chunk and
    zk[i] is an int whose bit e - elements.start is set when source atom
    i+1 is in Ik of element e, that is when the k-th product misses cell i+1.

    A chunk holds 2^min(m, 16) masks.  In it the truth table of target atom
    j is one int: a fixed doubling pattern for the low atoms, all ones or
    zero for the others, read off the chunk's start.  With x the table of
    atom j and s that of sigma(j), atom j lies under u . u~ at the bits of
    x & ~s, under u . u* at those of x & s and under u' . u~ at those of
    ~(x | s); a cell misses a product where none of its atoms lies under
    it.  The scan costs O((m + n) * 2^m / 64) word operations for m target
    and n source atoms.
    """
    target = r.target
    if target.n > MAX_SCAN_ATOMS:
        raise CapExceeded(f"cannot scan 2^{target.n} elements")
    b = min(target.n, 16)
    size = 1 << b
    ones = (1 << size) - 1
    low = _low_tables(b)
    sigma = target.sigma
    for start in range(0, 1 << target.n, size):
        x = low + [ones if start >> j & 1 else 0 for j in range(b, target.n)]
        z1, z2, z3 = [], [], []
        for cell in r.cell_masks:
            under1 = under2 = 0
            miss3 = ones
            for j in sorted_atoms(cell):
                xj, sj = x[j - 1], x[sigma[j - 1] - 1]
                under1 |= xj & ~sj
                under2 |= xj & sj
                miss3 &= xj | sj
            z1.append(ones ^ under1)
            z2.append(ones ^ under2)
            z3.append(miss3)
        yield range(start, start + size), z1, z2, z3


def _realizers(r: AtomRefinement, t: Triple) -> Iterator[Element]:
    """The elements of the target whose zero pattern over the source is
    exactly t, in ascending bitmask order, scanned one chunk at a time."""
    if t.algebra is not r.source and t.algebra != r.source:
        raise ValueError("triple is not over the refinement source")
    target = r.target
    for elements, *tables in element_type_scan(r):
        hits = (1 << len(elements)) - 1
        for zs, inside in zip(tables, (t.m1, t.m2, t.m3)):
            for i, z in enumerate(zs):
                hits &= z if inside >> i & 1 else ~z
        for k in sorted_atoms(hits):
            yield Element.from_mask(target, elements[k - 1])


def all_realizations_in(r: AtomRefinement, t: Triple) -> list[Element]:
    """Every element of the target realizing t, in ascending bitmask order."""
    return list(_realizers(r, t))


def find_realizer(r: AtomRefinement, t: Triple) -> Optional[Element]:
    """The least element of the target realizing t, or None."""
    return next(_realizers(r, t), None)


def scan_consistent(r: AtomRefinement) -> bool:
    """Check that the type of every target element is sigma-consistent over
    the source; exhaustive over all 2^m elements.  Per source atom i the
    tables of i and sigma(i) must agree for I2 and I3, and no element may
    have both in I1 & I2 & I3."""
    sigma = r.source.sigma
    for _, z1, z2, z3 in element_type_scan(r):
        for i, image in enumerate(sigma):
            j = image - 1
            if z2[i] != z2[j] or z3[i] != z3[j] or z1[i] & z1[j] & z2[i] & z3[i]:
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
    r = four_power_base(t.algebra)[1]
    while r.target.n <= max_atoms:
        found = find_realizer(r, t)
        if found is not None:
            return Witness(r, found)
        # double every coordinate diagonally
        r = compose_refinements(r, block_layout(r.target, [2] * (r.target.n // 2)))
    return None


def brute_force_trivial(t: Triple) -> Optional[int]:
    """Scan all atom subsets I for the three equalities characterizing the
    type of a base element; at most one I can match, and its mask is
    returned (0 for the zero element), or None.  Above MAX_SCAN_ATOMS
    atoms, CapExceeded is raised before any candidate is tried."""
    alg = t.algebra
    if alg.n > MAX_SCAN_ATOMS:
        raise CapExceeded(f"cannot scan 2^{alg.n} atom sets")
    full = alg.full_mask
    for cand in range(1 << alg.n):
        sigma_cand = alg.sigma_mask(cand)
        if (
            t.m1 == (full ^ cand) | sigma_cand
            and t.m2 == full ^ (cand & sigma_cand)
            and t.m3 == cand | sigma_cand
        ):
            return cand
    return None


# ---------------------------------------------------------------------------
# The free algebra by exhaustion

def failing_assignment(t1: Term, t2: Term) -> Optional[dict[str, Element]]:
    """terms.valid_identity's counterexample by exhaustion: the first of the
    assignments of t1's and t2's sorted names into the masks 0..3, in
    itertools.product order, where t1 and t2 differ, or None.  Capped alike."""
    names = sorted(free_vars(Equal(t1, t2)))
    if len(names) > MAX_IDENTITY_VARIABLES:
        raise CapExceeded(f"cannot try 4^{len(names)} assignments")
    for combo in itertools.product(range(1 << FOUR.n), repeat=len(names)):
        env = dict(zip(names, combo))
        if _mask(FOUR, t1, env) != _mask(FOUR, t2, env):
            return {name: Element.from_mask(FOUR, m) for name, m in env.items()}
    return None


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
    m, tables = 4**k, _low_tables(2 * k)
    ambient = four_power(m)
    projections = [
        Element.from_mask(ambient, tables[2 * (k - 1 - c)] | tables[2 * (k - 1 - c) + 1] << m)
        for c in range(k)
    ]
    sub, _ = generated_subalgebra(ambient, projections)
    return 2**sub.n
