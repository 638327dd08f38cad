"""Shared generators for the test suite: exhaustive small-case enumeration
and seeded random corpora."""

from __future__ import annotations

import itertools
import random
from functools import lru_cache

from bdm.algebra import (
    AtomRefinement,
    Element,
    FiniteAlgebra,
    compose_refinements,
    four_power,
    identity_refinement,
)
from bdm.solver import Triple, _sorted_product, refine_triple
from bdm.terms import (
    And,
    BNeg,
    Const,
    DMNeg,
    Equal,
    Exists,
    ForAll,
    Formula,
    Implies,
    Join,
    Meet,
    Not,
    NotEqual,
    Or,
    Star,
    Term,
    Var,
    eval_term,
    parse_term,
)


def atoms(mask: int) -> frozenset[int]:
    """The atom set of a mask, bit i-1 for atom i: the one way the tests
    read an element, a cell or a triple part as a set."""
    return frozenset(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def blocks_under(r: AtomRefinement, mask: int) -> frozenset[int]:
    """The source atoms whose cells lie under mask, checked to be all of it."""
    under = frozenset(i for i, cell in enumerate(r.cell_masks, start=1) if not cell & ~mask)
    assert sum(r.cell_masks[i - 1] for i in under) == mask
    return under


def assert_valid_iso(r1: AtomRefinement, r2: AtomRefinement, iso, x, y) -> None:
    """Check iso, the images of the atoms 1..m of r1's target, on its own:
    a bijection onto r2's target commuting with star, carrying each cell of
    r1 onto its counterpart and the atoms x onto y, as the back-and-forth
    step extends the partial map by v -> u."""
    m = r1.target.n
    assert sorted(iso) == list(range(1, m + 1))
    for q in range(1, m + 1):
        assert iso[r1.target.sigma[q - 1] - 1] == r2.target.sigma[iso[q - 1] - 1]
    for i in r1.source.atom_indices:
        assert {iso[q - 1] for q in r1.cell(i)} == set(r2.cell(i))
    assert {iso[q - 1] for q in x} == y


def stage_rows(stage) -> list[tuple[int, int, int, int]]:
    """A stage's (I1, I2, I3, realizer) masks per recorded triple, in
    lexicographic order, streamed from its tables."""
    return list(_sorted_product(stage.tables))


def elements(alg: FiniteAlgebra) -> list[Element]:
    """All 2^n elements of alg in ascending mask order (bit i-1 = atom i)."""
    return [Element.from_mask(alg, mask) for mask in range(1 << alg.n)]


_parsed_term = lru_cache(maxsize=None)(parse_term)


def term_value(text: str, **env: Element) -> Element:
    """The value of the term text with its names bound by env, in the
    algebra of the first binding: the one way the tests apply the
    operations to elements."""
    alg = next(iter(env.values())).algebra
    return eval_term(alg, _parsed_term(text), env)


# A coordinate of a power of the four-element algebra as its two sides: bit
# 0 for a, bit 1 for b.
_SIDES = {"0": 0, "a": 1, "b": 2, "1": 3}


def coords_mask(coords, total: int) -> int:
    """The mask in four_power(total) of the element whose first coordinates
    are the 0/a/b/1 strings coords and whose others are 0."""
    mask = 0
    for j, c in enumerate(coords):
        mask |= (_SIDES[c] & 1) << j | (_SIDES[c] >> 1) << (total + j)
    return mask


def power_element(coords) -> Element:
    """The element of four_power(len(coords)) with the given 0/a/b/1
    coordinates."""
    k = len(coords)
    return Element.from_mask(four_power(k), coords_mask(coords, k))


# The four products x.x~, x.x*, x'.x~, x'.x* of a fresh element x, as kinds
# 0..3; star swaps the outer two and fixes the middle two.
_KIND_STAR = (3, 1, 2, 0)


def round_witness(t: Triple) -> tuple[AtomRefinement, Element]:
    """One round of the tower: the one-generated extension realizing a
    consistent triple, built pair by pair.  Base atom i splits into the
    pairs (i, kind), in ascending order, for the kinds whose product is
    nonzero at i: x.x~ unless i in I1, x.x* unless i in I2, x'.x~ unless i
    in I3, x'.x* unless sigma(i) in I1.  Sigma sends (i, kind) to
    (sigma(i), starred kind) and the realizer is the x.x~ and x.x* pairs."""
    alg = t.algebra
    zero_at = (t.m1, t.m2, t.m3, alg.sigma_mask(t.m1))
    index: dict[tuple[int, int], int] = {}
    for i in range(alg.n):
        for kind in range(4):
            if not zero_at[kind] >> i & 1:
                index[(i, kind)] = len(index)
    sigma = [0] * len(index)
    cells = [0] * alg.n
    element = 0
    for (i, kind), j in index.items():
        sigma[j] = index[(alg.sigma[i] - 1, _KIND_STAR[kind])] + 1
        cells[i] |= 1 << j
        if kind < 2:
            element |= 1 << j
    ext = FiniteAlgebra(len(index), tuple(sigma))
    return AtomRefinement.from_masks(alg, ext, tuple(cells)), Element.from_mask(ext, element)


def iterated_realizations(
    t: Triple, k: int
) -> tuple[FiniteAlgebra, AtomRefinement, list[Element]]:
    """k realizers of a consistent non-trivial triple, adjoined one round at
    a time: each round refines t along the extension so far, builds its
    round_witness, maps the earlier realizers into it and composes the
    embeddings.  The slow route that solver.realizations must match
    exactly."""
    acc = identity_refinement(t.algebra)
    found: list[Element] = []
    for _ in range(k):
        r, element = round_witness(refine_triple(acc, t))
        found = [r.map_element(e) for e in found]
        found.append(element)
        acc = compose_refinements(acc, r)
    return acc.target, acc, found


def involutions(n: int) -> list[tuple[int, ...]]:
    """All involutive permutations of {1..n} as image tuples."""
    out = []
    for perm in itertools.permutations(range(1, n + 1)):
        if all(perm[perm[i] - 1] == i + 1 for i in range(n)):
            out.append(perm)
    return out


def all_bases(max_n: int) -> list[FiniteAlgebra]:
    return [
        FiniteAlgebra(n, sigma)
        for n in range(1, max_n + 1)
        for sigma in involutions(n)
    ]


def refinements_between(source: FiniteAlgebra, target: FiniteAlgebra):
    """All refinements source -> target, by enumerating the assignment of
    each target atom to a source cell."""
    n, m = source.n, target.n
    if m < n:
        return
    for assign in itertools.product(range(1, n + 1), repeat=m):
        if set(assign) != set(range(1, n + 1)):
            continue
        if any(
            assign[target.sigma[j - 1] - 1] != source.sigma[assign[j - 1] - 1]
            for j in range(1, m + 1)
        ):
            continue
        cells = tuple(
            frozenset(j for j in range(1, m + 1) if assign[j - 1] == i)
            for i in range(1, n + 1)
        )
        yield AtomRefinement(source, target, cells)


def refinements_into(source: FiniteAlgebra, max_target: int):
    for m in range(source.n, max_target + 1):
        for sigma in involutions(m):
            yield from refinements_between(source, FiniteAlgebra(m, sigma))


def random_refinement(rng: random.Random, source: FiniteAlgebra, max_cell: int = 3) -> AtomRefinement:
    """A random refinement of source, growing each sigma-orbit independently."""
    cells: dict[int, list[int]] = {i: [] for i in source.atom_indices}
    sigma_pairs: list[tuple[int, int]] = []
    next_atom = 1

    def fresh() -> int:
        nonlocal next_atom
        a = next_atom
        next_atom += 1
        return a

    for orbit in source.sigma_orbits():
        if len(orbit) == 2:
            i, j = orbit
            for _ in range(rng.randint(1, max_cell)):
                a, b = fresh(), fresh()
                cells[i].append(a)
                cells[j].append(b)
                sigma_pairs.append((a, b))
        else:
            (i,) = orbit
            fixed = rng.randint(0, max_cell)
            pairs = rng.randint(0 if fixed else 1, max_cell // 2)
            for _ in range(fixed):
                a = fresh()
                cells[i].append(a)
                sigma_pairs.append((a, a))
            for _ in range(pairs):
                a, b = fresh(), fresh()
                cells[i] += [a, b]
                sigma_pairs.append((a, b))
    m = next_atom - 1
    sigma = [0] * m
    for a, b in sigma_pairs:
        sigma[a - 1], sigma[b - 1] = b, a
    target = FiniteAlgebra(m, tuple(sigma))
    return AtomRefinement(
        source, target, tuple(frozenset(cells[i]) for i in source.atom_indices)
    )


def random_element(rng: random.Random, alg: FiniteAlgebra) -> Element:
    return Element(
        alg, frozenset(i for i in alg.atom_indices if rng.random() < 0.5)
    )


def random_algebra(rng: random.Random, max_n: int = 6) -> FiniteAlgebra:
    n = rng.randint(1, max_n)
    atoms = list(range(1, n + 1))
    rng.shuffle(atoms)
    sigma = [0] * n
    while atoms:
        a = atoms.pop()
        if atoms and rng.random() < 0.5:
            b = atoms.pop()
            sigma[a - 1], sigma[b - 1] = b, a
        else:
            sigma[a - 1] = a
    return FiniteAlgebra(n, tuple(sigma))


# ---------------------------------------------------------------------------
# Random terms and formulas

def random_term(
    rng: random.Random,
    names: list[str],
    depth: int = 3,
    signature: str = "bdm",
) -> Term:
    if depth <= 0 or rng.random() < 0.2:
        choices = [Const(0), Const(1)] + [Var(v) for v in names]
        return rng.choice(choices)
    ops = ["join", "meet", "dmneg"]
    if signature == "bdm":
        ops += ["bneg", "star"]
    op = rng.choice(ops)
    if op == "join":
        return Join(random_term(rng, names, depth - 1, signature),
                    random_term(rng, names, depth - 1, signature))
    if op == "meet":
        return Meet(random_term(rng, names, depth - 1, signature),
                    random_term(rng, names, depth - 1, signature))
    if op == "dmneg":
        return DMNeg(random_term(rng, names, depth - 1, signature))
    if op == "bneg":
        return BNeg(random_term(rng, names, depth - 1, signature))
    return Star(random_term(rng, names, depth - 1, signature))


def random_qf(
    rng: random.Random,
    names: list[str],
    atoms: int = 2,
    term_depth: int = 2,
    signature: str = "bdm",
) -> Formula:
    def atom() -> Formula:
        left = random_term(rng, names, term_depth, signature)
        right = random_term(rng, names, term_depth, signature)
        return Equal(left, right) if rng.random() < 0.6 else NotEqual(left, right)

    f = atom()
    for _ in range(atoms - 1):
        g = atom()
        c = rng.random()
        if c < 0.4:
            f = And(f, g)
        elif c < 0.7:
            f = Or(f, g)
        elif c < 0.85:
            f = Implies(f, g)
        else:
            f = And(f, Not(g))
    return f


def random_quantified(
    rng: random.Random,
    free_names: list[str],
    quantifiers: int = 2,
    signature: str = "bdm",
) -> Formula:
    bound = [f"q{k}" for k in range(quantifiers)]
    body = random_qf(rng, free_names + bound, atoms=2, term_depth=2, signature=signature)
    for name in reversed(bound):
        body = Exists(name, body) if rng.random() < 0.5 else ForAll(name, body)
    return body


def random_formula(rng: random.Random, names: list[str], signature: str = "bdm") -> Formula:
    kind = rng.random()
    if kind < 0.3:
        return random_qf(rng, names, atoms=rng.randint(1, 3), signature=signature)
    return random_quantified(
        rng, names, quantifiers=rng.randint(1, 2), signature=signature
    )


# ---------------------------------------------------------------------------
# A reference read: the slow route beside terms._scan

def reference_read(root, formula: bool = True):
    """Read a tree by plain recursion, one case per node class: (free names
    of root, whether it has a quantifier, every name it holds, whether it
    avoids ' and *, the names in play of each quantifier in pre-order).
    Raises TypeError with terms._scan's message where a node is not of its
    position's sort, a Const is not the int 0 or 1 or a name is not an
    ASCII identifier other than exists and forall.  One frame per level,
    so it reads only shallow trees, and it checks no depth."""
    names: set[str] = set()
    in_play: list[tuple[str, ...]] = []
    seen = {"quantified": False, "dm": True}

    def read_name(node, n):
        ok = type(n) is str and n.isascii() and n.isidentifier()
        if not ok or n in ("exists", "forall"):
            raise TypeError(f"not a variable name: {node!r}")
        names.add(n)
        return n

    def read_term(t) -> set[str]:
        cls = type(t)
        if cls is Var:
            return {read_name(t, t.name)}
        if cls is Const:
            if type(t.value) is not int or t.value not in (0, 1):
                raise TypeError(f"not the constant 0 or 1: {t!r}")
            return set()
        if cls is Join or cls is Meet:
            return read_term(t.left) | read_term(t.right)
        if cls is BNeg or cls is Star:
            seen["dm"] = False
            return read_term(t.arg)
        if cls is DMNeg:
            return read_term(t.arg)
        raise TypeError(f"not a term: {t!r}")

    def read_formula(f) -> set[str]:
        cls = type(f)
        if cls is Equal or cls is NotEqual:
            return read_term(f.left) | read_term(f.right)
        if cls is And or cls is Or or cls is Implies:
            return read_formula(f.left) | read_formula(f.right)
        if cls is Not:
            return read_formula(f.arg)
        if cls is Exists or cls is ForAll:
            seen["quantified"] = True
            var = read_name(f, f.var)
            k = len(in_play)
            in_play.append(())
            in_play[k] = tuple(sorted(read_formula(f.body) - {var}))
            return set(in_play[k])
        raise TypeError(f"not a formula: {f!r}")

    free = read_formula(root) if formula else read_term(root)
    return free, seen["quantified"], names, seen["dm"], in_play


# ---------------------------------------------------------------------------
# Type sentences over one or two names: the axioms of the model completion
#
# The pattern of an atom a over names v_1..v_k is 2k bits: bit 2j-2 says
# a <= v_j and bit 2j-1 says a <= v_j*, that is sigma(a) <= v_j.  The kind
# of x at a is the pair (a <= x, sigma(a) <= x).  Star swaps the two bits of
# every name and of the kind: over one name patterns 0 and 3 are fixed and
# 1 and 2 form a two-cycle; over two names 4 of the 16 are fixed and the
# others form 6 two-cycles.

KINDS = ((1, 0), (1, 1), (0, 0), (0, 1))


def swap(p: int) -> int:
    """sigma on patterns: the two bits of every name exchanged."""
    return (p & 0x5555) << 1 | (p >> 1) & 0x5555


def pattern_orbits(k: int) -> list[frozenset[int]]:
    """The swap-orbits of the 4^k patterns over k names, by least pattern."""
    return [frozenset({p, swap(p)}) for p in range(4**k) if p <= swap(p)]


# the swap-closed nonempty pattern sets over one name, as unions of the
# orbits {0}, {3} and {1, 2}
PATTERN_SETS = [
    frozenset().union(*orbits)
    for r in (1, 2, 3)
    for orbits in itertools.combinations(({0}, {3}, {1, 2}), r)
]


def atom_term(names, p: int) -> Term:
    """The atom term of pattern p over the names: the product, name by name,
    of (v or v')·(v* or v*') as p's two bits for v say."""
    out = None
    for j, v in enumerate(names):
        bits = p >> 2 * j
        digit = Meet(v if bits & 1 else BNeg(v), Star(v) if bits & 2 else BNeg(Star(v)))
        out = digit if out is None else Meet(out, digit)
    return out


def kind_term(x: Term, kind: tuple[int, int]) -> Term:
    """The product that contains the atoms where x has this kind: x·~x for
    (1, 0), x·x* for (1, 1), x'·~x for (0, 0) and x'·x* for (0, 1)."""
    return Meet(x if kind[0] else BNeg(x), Star(x) if kind[1] else DMNeg(x))


def _nonzero_exactly(terms_and_truths) -> Formula:
    """The conjunction, in order, of t != 0 where wanted and t = 0 elsewhere."""
    tests = [NotEqual(t, Const(0)) if want else Equal(t, Const(0)) for t, want in terms_and_truths]
    out = tests[0]
    for test in tests[1:]:
        out = And(out, test)
    return out


def delta(names, patterns: frozenset[int]) -> Formula:
    """delta_S(names): the atom term of p is nonzero exactly for p in S."""
    return _nonzero_exactly(
        (atom_term(names, p), p in patterns) for p in range(4 ** len(names))
    )


def phi(names, x: Term, kinds: dict[int, frozenset]) -> Formula:
    """phi_K(names, x): for each pattern p of K and each kind k, the atom
    term of p times the product of k is nonzero iff k is in K_p."""
    return _nonzero_exactly(
        (Meet(atom_term(names, p), kind_term(x, k)), k in ks)
        for p, ks in sorted(kinds.items())
        for k in KINDS
    )


def _star(kinds: frozenset) -> frozenset:
    return frozenset(k[::-1] for k in kinds)


_ANY_KINDS = [frozenset(c) for r in (1, 2, 3, 4) for c in itertools.combinations(KINDS, r)]
# a fixed pattern's atoms are closed under sigma, which swaps their kinds
_FIXED_KINDS = [ks for ks in _ANY_KINDS if _star(ks) == ks]


def consistent_kinds(patterns: frozenset[int]) -> list[dict[int, frozenset]]:
    """Every consistent K over S: a fixed pattern takes a nonempty union of
    {(0, 0)}, {(1, 1)} and {(1, 0), (0, 1)}, and a two-cycle {p, swap p},
    p the lesser, any nonempty K_p, with K_swap(p) its star image.  Fixed
    patterns come first, then two-cycles, each in ascending order."""
    fixed = sorted(p for p in patterns if p == swap(p))
    cycles = sorted(p for p in patterns if p < swap(p))
    per_orbit = [[{p: ks} for ks in _FIXED_KINDS] for p in fixed]
    per_orbit += [[{p: ks, swap(p): _star(ks)} for ks in _ANY_KINDS] for p in cycles]
    return [{p: ks for part in choice for p, ks in part.items()}
            for choice in itertools.product(*per_orbit)]


def inconsistent_kinds(rng: random.Random, patterns: frozenset[int], n: int):
    """Up to n distinct inconsistent K over S, each a consistent one with one
    orbit spoiled: a fixed pattern given only (1, 0), or a K_swap(p) that is
    not the star image of K_p."""
    found = {}
    consistent = consistent_kinds(patterns)
    for _ in range(n):
        kinds = dict(rng.choice(consistent))
        p = rng.choice(sorted(p for p in patterns if p <= swap(p)))
        if p != swap(p):
            kinds[swap(p)] = rng.choice([ks for ks in _ANY_KINDS if ks != _star(kinds[p])])
        else:
            kinds[p] = frozenset({(1, 0)})
        found[tuple(sorted(kinds.items()))] = kinds
    return list(found.values())


def type_sentence(patterns: frozenset[int], kinds: dict[int, frozenset], names=("v",)) -> Formula:
    """exists v. (delta_S(v) & exists x. phi_K(v, x)) over one name, and
    exists v. exists w. (delta_S(v, w) & exists x. phi_K(v, w, x)) over two."""
    terms = [Var(name) for name in names]
    sentence = And(delta(terms, patterns), Exists("x", phi(terms, Var("x"), kinds)))
    for name in reversed(names):
        sentence = Exists(name, sentence)
    return sentence


def one_name_type_corpus(rng: random.Random, inconsistent_per_set: int = 60):
    """(sentence, expected) for the type sentence of every pattern set S and
    every consistent K over it (1,023, all true in the model completion),
    then of up to inconsistent_per_set seeded inconsistent K per S (false)."""
    corpus = [(type_sentence(s, k), True) for s in PATTERN_SETS for k in consistent_kinds(s)]
    for s in PATTERN_SETS:
        wrong = inconsistent_kinds(rng, s, inconsistent_per_set)
        corpus += [(type_sentence(s, k), False) for k in wrong]
    return corpus


def two_name_type_corpus(rng: random.Random, two_orbit_sets: int, consistent_per_set: int,
                         inconsistent_per_set: int):
    """(sentence, expected) over the names v and w for every pattern set S
    that is one swap-orbit (10 of them) and a seeded sample of
    two_orbit_sets of the 45 that are two: per S, a seeded sample of
    consistent_per_set consistent K, or all when there are no more (true),
    then up to inconsistent_per_set seeded inconsistent K (false)."""
    orbits = pattern_orbits(2)
    pairs = [a | b for a, b in itertools.combinations(orbits, 2)]
    corpus = []
    for s in orbits + rng.sample(pairs, two_orbit_sets):
        right = consistent_kinds(s)
        right = rng.sample(right, min(consistent_per_set, len(right)))
        corpus += [(type_sentence(s, k, ("v", "w")), True) for k in right]
        wrong = inconsistent_kinds(rng, s, inconsistent_per_set)
        corpus += [(type_sentence(s, k, ("v", "w")), False) for k in wrong]
    return corpus
