"""Seeded input generators for the three workloads.

Inputs are plain tuples owned by the benchmark, so their digest does not
depend on how the program under test prints or hashes its own objects.  The
adapters at the bottom turn them into `bdm` values.

Shapes:
    algebra      (n, sigma)                      sigma a tuple of 1-based images
    refinement   (source, target, cells)         cells a tuple of atom tuples
    term         ("const", 0|1) | ("var", name) | (op, term[, term])
    formula      ("eq"|"ne", term, term) | ("and"|"or"|"implies", f, f)
                 | ("not", f) | ("exists"|"forall", name, f)
"""

from __future__ import annotations

import hashlib
import itertools
import random

TWO = (1, (1,))
TWO_ID = (2, (1, 2))  # two atoms, star fixing both
FOUR = (2, (2, 1))
DECIDE_BASES = (TWO, TWO_ID, FOUR)

# Criterion 9's caps: generous on atoms, tight on enumerated triples, so a
# few percent of the random sentences end in CapExceeded.
DECIDE_CAPS = {"max_atoms": 96, "max_depth": 4, "max_triples": 4000}
RANDOM_SENTENCES = 1200

STAGE_CAPS = {"max_atoms": 96, "max_depth": 4, "max_triples": 10**6}
SMALL_BASE_ATOMS = 3
SMALL_TARGET_ATOMS = 5
BIG_REFINEMENTS = 200
BIG_MAX_CELL = 2
SAMPLE = 3  # keep one op in three


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# algebras and refinements


def involutions(n: int) -> list[tuple[int, ...]]:
    out = []
    for perm in itertools.permutations(range(1, n + 1)):
        if all(perm[perm[i] - 1] == i + 1 for i in range(n)):
            out.append(perm)
    return out


def bases_up_to(max_n: int) -> list[tuple]:
    return [(n, s) for n in range(1, max_n + 1) for s in involutions(n)]


def refinements_into(source: tuple, max_target: int):
    """Every refinement of source into a target of at most max_target atoms:
    each target atom is assigned to a source cell, the assignment covers
    every source atom and commutes with the two involutions."""
    n, sigma = source
    for m in range(n, max_target + 1):
        for tsigma in involutions(m):
            for assign in itertools.product(range(1, n + 1), repeat=m):
                if len(set(assign)) != n:
                    continue
                if any(assign[tsigma[j] - 1] != sigma[assign[j] - 1] for j in range(m)):
                    continue
                cells = tuple(
                    tuple(j + 1 for j in range(m) if assign[j] == i)
                    for i in range(1, n + 1)
                )
                yield (source, (m, tsigma), cells)


def random_refinement(rng: random.Random, source: tuple, max_cell: int):
    """Grow each star-orbit of the source independently: a two-cycle gets
    1..max_cell new pairs, a fixed atom some fixed atoms and some pairs."""
    n, sigma = source
    cells: list[list[int]] = [[] for _ in range(n)]
    pairs: list[tuple[int, int]] = []
    top = 0
    for i in range(1, n + 1):
        j = sigma[i - 1]
        if j < i:
            continue
        if j != i:
            for _ in range(rng.randint(1, max_cell)):
                a, b = top + 1, top + 2
                top += 2
                cells[i - 1].append(a)
                cells[j - 1].append(b)
                pairs.append((a, b))
        else:
            fixed = rng.randint(0, max_cell)
            for _ in range(fixed):
                top += 1
                cells[i - 1].append(top)
                pairs.append((top, top))
            for _ in range(rng.randint(0 if fixed else 1, max_cell // 2)):
                a, b = top + 1, top + 2
                top += 2
                cells[i - 1] += [a, b]
                pairs.append((a, b))
    tsigma = [0] * top
    for a, b in pairs:
        tsigma[a - 1], tsigma[b - 1] = b, a
    return (source, (top, tuple(tsigma)), tuple(tuple(c) for c in cells))


def four_power(m: int) -> tuple:
    """The m-th power of the four-element algebra in the package's layout:
    atom i carries a in coordinate i, atom m+i carries b there."""
    return (2 * m, tuple(range(m + 1, 2 * m + 1)) + tuple(range(1, m + 1)))


# ---------------------------------------------------------------------------
# decide


def _term(rng, names, depth):
    if depth <= 0 or rng.random() < 0.2:
        return rng.choice([("const", 0), ("const", 1)] + [("var", v) for v in names])
    op = rng.choice(("join", "meet", "dmneg", "bneg", "star"))
    if op in ("join", "meet"):
        return (op, _term(rng, names, depth - 1), _term(rng, names, depth - 1))
    return (op, _term(rng, names, depth - 1))


def _atomic(rng, names):
    left, right = _term(rng, names, 2), _term(rng, names, 2)
    return ("eq" if rng.random() < 0.6 else "ne", left, right)


def random_sentence(rng: random.Random, free: list[str], quantifiers: int):
    """Quantifiers over two atomic formulas of depth-2 terms."""
    bound = [f"q{k}" for k in range(quantifiers)]
    names = free + bound
    f, g = _atomic(rng, names), _atomic(rng, names)
    c = rng.random()
    if c < 0.4:
        f = ("and", f, g)
    elif c < 0.7:
        f = ("or", f, g)
    elif c < 0.85:
        f = ("implies", f, g)
    else:
        f = ("and", f, ("not", g))
    for name in reversed(bound):
        f = ("exists" if rng.random() < 0.5 else "forall", name, f)
    return f


def free_names(f) -> set[str]:
    tag = f[0]
    if tag == "var":
        return {f[1]}
    if tag == "const":
        return set()
    if tag in ("exists", "forall"):
        return free_names(f[2]) - {f[1]}
    return set().union(*(free_names(part) for part in f[1:]))


def type_formula(n: int, triple: tuple) -> tuple:
    """exists x. phi_t(x): for each base atom y_i, y_i . p = 0 for the three
    defining products p of the type (x.~x, x.x*, x'.~x), negated when i is
    outside the matching I set."""
    x = ("var", "x")
    products = (("meet", x, ("dmneg", x)), ("meet", x, ("star", x)),
                ("meet", ("bneg", x), ("dmneg", x)))
    body = None
    for product, inside in zip(products, triple):
        for i in range(1, n + 1):
            atom = ("meet", ("var", f"y{i}"), product)
            part = ("eq" if i in inside else "ne", atom, ("const", 0))
            body = part if body is None else ("and", body, part)
    return ("exists", "x", body)


def all_triples(n: int):
    subsets = [
        tuple(i for i in range(1, n + 1) if mask >> (i - 1) & 1)
        for mask in range(1 << n)
    ]
    return list(itertools.product(subsets, repeat=3))


def decide_inputs(seed: int, sentences: int = RANDOM_SENTENCES) -> list[dict]:
    """Seeded random sentences, then every triple's type sentence over every
    base with at most two atoms; the order is shuffled by the seed.

    The base, the number of quantifiers and whether a parameter is offered
    cycle through fixed shares rather than being drawn: they set most of a
    sentence's cost, and fixed shares keep one seed's mix like another's.
    One sentence in three has two quantifiers.  At one in two the median
    latency would sit on the step between the fast one-quantifier sentences
    and the slow two-quantifier ones, and jump from seed to seed."""
    rng = random.Random(seed)
    ops = []
    for k in range(sentences):
        base = DECIDE_BASES[k % len(DECIDE_BASES)]
        with_param = k % 5 < 2  # two in five
        quantifiers = 2 if (k // 3) % 3 == 0 else 1
        f = random_sentence(rng, ["p"] if with_param else [], quantifiers)
        env = {}
        if "p" in free_names(f):
            mask = rng.getrandbits(base[0])
            env["p"] = tuple(i for i in range(1, base[0] + 1) if mask >> (i - 1) & 1)
        ops.append({"kind": "random", "base": base, "formula": f, "env": env})
    for base in (TWO, TWO_ID, FOUR):
        n = base[0]
        for triple in all_triples(n):
            env = {f"y{i}": (i,) for i in range(1, n + 1)}
            ops.append({"kind": "type", "base": base, "formula": type_formula(n, triple),
                        "env": env, "triple": triple})
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# back-and-forth


def back_and_forth_inputs(seed: int, small_atoms: int = SMALL_BASE_ATOMS,
                          big_refinements: int = BIG_REFINEMENTS) -> dict:
    """Every element of every refinement of each base with at most
    small_atoms atoms into at most five atoms, each matched inside the stage
    over its base; and one random element of each of big_refinements random
    refinements of 4^4, the first chain stage over 2.  A seeded third of
    each part is kept: a pass then takes about five seconds, so each op runs
    several times in a run and its best time filters out the machine's slow
    phases, while the two parts keep their shares of the work."""
    rng = random.Random(seed)
    small = bases_up_to(small_atoms)
    big = four_power(4)
    small_ops = [
        {"base": base, "ref": ref, "v": mask}
        for base in small
        for ref in refinements_into(base, SMALL_TARGET_ATOMS)
        for mask in range(1 << ref[1][0])
    ]
    big_ops = []
    for _ in range(big_refinements):
        ref = random_refinement(rng, big, BIG_MAX_CELL)
        big_ops.append({"base": big, "ref": ref, "v": rng.getrandbits(ref[1][0])})
    ops = [op for part in (small_ops, big_ops) for op in rng.sample(part, len(part) // SAMPLE)]
    rng.shuffle(ops)
    return {"stages": small + [big], "ops": ops}


# ---------------------------------------------------------------------------
# cli

# The README's example sentence over 2, and a sentence over 4 that is false:
# x = 1 gives x . x* = 1, while y . ~y = 1 would need y = 1 and y* = 0.
README_SENTENCE = "exists x. (~x = x & x != 0 & x != 1)"
HEAVY_SENTENCE = "forall x. (exists y. (y . ~y = x . x*))"
# A consistent triple over a three-atom base whose witness needs twelve
# atoms; the oracle's tower of four-powers misses it at 16 atoms.
ORACLE_BASE = (3, (1, 3, 2))
ORACLE_TRIPLE = ((), (), ())
IDENTITIES = (
    ("~(x + y)", "~x . ~y", True),
    ("x**", "x", True),
    ("x . x'", "0", True),
    ("x . ~x", "0", False),
    ("x*", "x", False),
)


def format_set(atoms) -> str:
    return "{" + ",".join(map(str, sorted(atoms))) + "}"


def format_triple(triple) -> str:
    return " ".join(f"I{k}={format_set(s)}" for k, s in enumerate(triple, start=1))


def algebra_text(alg) -> str:
    n, sigma = alg
    return f"atoms {n}\nsigma {' '.join(map(str, sigma))}\n"


def cli_inputs(seed: int, heavy: bool = True) -> dict:
    """The command script of one pass: light commands on seeded arguments,
    then the fixed heavy commands.  Each entry holds the argv after
    `python -m bdm.cli` and what the benchmark checks the result against."""
    rng = random.Random(seed)
    files = {"two.alg": TWO, "four.alg": FOUR, "three.alg": ORACLE_BASE}
    four_triples = all_triples(2)
    commands = [
        {"argv": ["check", "--algebra", "four.alg"], "check": "algebra", "alg": FOUR},
        {"argv": ["consistent", "--algebra", "four.alg",
                  format_triple(t := rng.choice(four_triples))],
         "check": "consistent", "alg": FOUR, "triple": t},
        {"argv": ["trivial", "--json", "--algebra", "four.alg",
                  format_triple(t := rng.choice(four_triples))],
         "check": "trivial", "alg": FOUR, "triple": t},
        {"argv": ["witness", "--via", "power4", "--algebra", "four.alg",
                  format_triple(t := rng.choice(four_triples))],
         "check": "witness", "alg": FOUR, "triple": t},
        {"argv": ["equiv", *(ident := rng.choice(IDENTITIES))[:2]],
         "check": "equiv", "valid": ident[2]},
        {"argv": ["extend-stage", "--algebra", "two.alg"], "check": "stages", "alg": TWO,
         "depth": 1},
        {"argv": ["decide", "--algebra", "two.alg", README_SENTENCE],
         "check": "verdict", "expect": True},
    ]
    if heavy:
        caps = [f"--{k.replace('_', '-')}={v}" for k, v in DECIDE_CAPS.items()]
        commands += [
            {"argv": ["decide", "--algebra", "four.alg", *caps, HEAVY_SENTENCE],
             "check": "verdict", "expect": False},
            {"argv": ["extend-stage", "--algebra", "two.alg", "--depth", "2",
                      "--max-atoms", "64", "--max-triples", "100000"],
             "check": "stages", "alg": TWO, "depth": 2},
            {"argv": ["realize", "--count", "6", "--algebra", "three.alg",
                      format_triple(ORACLE_TRIPLE)],
             "check": "realize", "alg": ORACLE_BASE, "triple": ORACLE_TRIPLE, "count": 6},
            {"argv": ["oracle", "witness", "--algebra", "three.alg",
                      format_triple(ORACLE_TRIPLE)],
             "check": "witness", "alg": ORACLE_BASE, "triple": ORACLE_TRIPLE},
            {"argv": ["oracle", "witness", "--max-atoms", "20", "--algebra", "three.alg",
                      format_triple(ORACLE_TRIPLE)],
             "check": "witness", "alg": ORACLE_BASE, "triple": ORACLE_TRIPLE},
        ]
    for k, cmd in enumerate(commands):
        cmd["id"] = k
    return {"files": {name: algebra_text(alg) for name, alg in files.items()},
            "commands": commands}


# ---------------------------------------------------------------------------
# adapters to bdm values


def to_algebra(bdm, alg):
    return bdm.FiniteAlgebra(alg[0], alg[1])


def to_refinement(bdm, ref, algebras: dict):
    source = algebras.setdefault(ref[0], to_algebra(bdm, ref[0]))
    target = algebras.setdefault(ref[1], to_algebra(bdm, ref[1]))
    return bdm.AtomRefinement(source, target, tuple(frozenset(c) for c in ref[2]))


def to_element(bdm, alg, atoms):
    return bdm.Element(alg, frozenset(atoms))


def mask_atoms(mask: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def to_ast(terms, f):
    tag = f[0]
    if tag == "const":
        return terms.Const(f[1])
    if tag == "var":
        return terms.Var(f[1])
    if tag in ("exists", "forall"):
        cls = terms.Exists if tag == "exists" else terms.ForAll
        return cls(f[1], to_ast(terms, f[2]))
    cls = {
        "join": terms.Join, "meet": terms.Meet, "bneg": terms.BNeg,
        "dmneg": terms.DMNeg, "star": terms.Star, "eq": terms.Equal,
        "ne": terms.NotEqual, "and": terms.And, "or": terms.Or,
        "not": terms.Not, "implies": terms.Implies,
    }[tag]
    return cls(*(to_ast(terms, part) for part in f[1:]))
