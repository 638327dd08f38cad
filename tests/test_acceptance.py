"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its runtime and asserting the stated budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import itertools
import random
import subprocess
import sys
import time

from bdm.algebra import (
    FOUR,
    FiniteAlgebra,
    TWO,
    algebra_over,
    find_isomorphism_over,
    identity_refinement,
    twist_product,
)
from bdm.errors import CapExceeded
from bdm.model import ec_stage, find_matching_element
from bdm.oracle import all_realizations_in, brute_force_trivial, phi_formula, scan_consistent
from bdm.solver import (
    CASE1_ENTRIES,
    Caps,
    Triple,
    decide,
    in_acl,
    is_sigma_consistent,
    is_trivial,
    realizations,
    refine_triple,
    sigma_consistent_triples,
    triple_of_element,
    witness_abstract,
    witness_via_four_power,
)
from bdm.terms import (
    Const,
    Exists,
    format_ast,
    free_vars,
    parse,
    parse_term,
    valid_identity,
)
from bdm.textio import format_algebra, parse_algebra

from corpus import (
    all_bases,
    assert_valid_iso,
    blocks_under,
    elements,
    involutions,
    power_element,
    random_algebra,
    random_element,
    random_formula,
    random_refinement,
    random_term,
    refinements_into,
    term_value,
)

GENEROUS = Caps(max_atoms=96, max_depth=4, max_triples=10**6)


def criterion(number, budget_seconds):
    def wrap(fn):
        def run():
            start = time.perf_counter()
            try:
                detail = fn()
            except BaseException:
                elapsed = time.perf_counter() - start
                print(f"criterion {number}: FAIL ({elapsed:.2f}s)")
                raise
            elapsed = time.perf_counter() - start
            suffix = f" [{detail}]" if detail else ""
            print(f"criterion {number}: PASS ({elapsed:.2f}s, budget {budget_seconds}s){suffix}")
            assert elapsed < budget_seconds, f"criterion {number} overran its budget"

        run.__name__ = fn.__name__
        return run

    return wrap


# ---------------------------------------------------------------------------

@criterion(1, 1.0)
def test_criterion_1_case1_table():
    """Each tabulated solution solves its triple in the stated power: the
    four-power witness over 4 is the entry's solution, and the oracle finds
    it among the realizers."""
    checked = 0
    for entry in CASE1_ENTRIES:
        t = Triple.from_masks(FOUR, entry.m1, entry.m2, entry.m3)
        w = witness_via_four_power(t)
        assert w.element == power_element(entry.coords), entry
        assert triple_of_element(w.embedding, w.element) == t, entry
        assert w.element in all_realizations_in(w.embedding, t), entry
        checked += 1
    assert checked == 15
    assert sum(1 for e in CASE1_ENTRIES if e.mirrored) == 4
    # the table covers every consistent triple over the two swapped atoms
    keys = {(e.m1, e.m2, e.m3) for e in CASE1_ENTRIES}
    assert keys == {(t.m1, t.m2, t.m3) for t in sigma_consistent_triples(FOUR)}
    return "15 entries (11 stated + 4 mirrored)"


_CRIT2_WITNESSES = []  # populated by criterion 2, reused by criterion 3


@criterion(2, 60.0)
def test_criterion_2_witness_soundness_exhaustive():
    """Both witness constructors succeed on every consistent triple over
    every base with at most three atoms, and agree up to isomorphism."""
    checked = 0
    for alg in all_bases(3):
        for t in sigma_consistent_triples(alg):
            w1 = witness_abstract(t)
            w2 = witness_via_four_power(t)
            assert triple_of_element(w1.embedding, w1.element) == t, t
            assert triple_of_element(w2.embedding, w2.element) == t, t
            _, _, r1 = algebra_over(w1.embedding, [w1.element])
            _, _, r2 = algebra_over(w2.embedding, [w2.element])
            assert find_isomorphism_over(r1, r2) is not None, t
            _CRIT2_WITNESSES.append(w1)
            _CRIT2_WITNESSES.append(w2)
            checked += 1
    return f"{checked} triples over {len(all_bases(3))} bases"


@criterion(3, 60.0)
def test_criterion_3_types_always_consistent():
    """Every element of every extension built in criterion 2 has a
    sigma-consistent type over its base."""
    assert _CRIT2_WITNESSES, "criterion 2 must run first"
    embeddings = {w.embedding for w in _CRIT2_WITNESSES}
    scanned = 0
    for r in sorted(embeddings, key=lambda r: (r.target.n, r.source.n, r.cell_masks)):
        assert scan_consistent(r), r
        scanned += 1 << r.target.n
    return f"{scanned} elements across {len(embeddings)} distinct extensions"


@criterion(4, 30.0)
def test_criterion_4_ec_matches_consistency():
    """An existential witness exists exactly for the consistent triples."""
    checked = 0
    for alg in all_bases(2):
        subsets = [
            frozenset(s)
            for k in range(alg.n + 1)
            for s in itertools.combinations(alg.atom_indices, k)
        ]
        env = {f"y{i}": alg.atom(i) for i in alg.atom_indices}
        for i1, i2, i3 in itertools.product(subsets, repeat=3):
            t = Triple(alg, i1, i2, i3)
            sentence = Exists("x", phi_formula(t))
            assert decide(alg, sentence, env, GENEROUS) == is_sigma_consistent(t), t
            checked += 1
    return f"{checked} triples"


@criterion(5, 1.0)
def test_criterion_5_identity_suite():
    """The defining identities hold; the Boolean law fails for the De
    Morgan negation with the counterexample a."""
    valid_pairs = [
        ("x + y", "y + x"),
        ("x . y", "y . x"),
        ("x + (y + z)", "(x + y) + z"),
        ("x . (y . z)", "(x . y) . z"),
        ("x + x . y", "x"),
        ("x . (x + y)", "x"),
        ("x . (y + z)", "x . y + x . z"),
        ("x + y . z", "(x + y) . (x + z)"),
        ("x + 0", "x"),
        ("x . 1", "x"),
        ("x + 1", "1"),
        ("x . 0", "0"),
        ("~~x", "x"),
        ("~(x + y)", "~x . ~y"),
        ("~(x . y)", "~x + ~y"),
        ("x + x'", "1"),
        ("x . x'", "0"),
        ("~(x')", "(~x)'"),
        ("x**", "x"),
        ("x*", "(~x)'"),
        ("x*", "~(x')"),
    ]
    for left, right in valid_pairs:
        assert valid_identity(parse_term(left), parse_term(right)).valid, (left, right)
    check = valid_identity(parse_term("x + ~x"), Const(1))
    assert not check.valid
    assert check.counterexample == {"x": FOUR.atom(1)}
    return f"{len(valid_pairs)} identities plus the rejected Boolean law"


@criterion(6, 5.0)
def test_criterion_6_self_conjugate_element():
    """Some extension contains a fixed point of the De Morgan negation,
    although no algebra with identity star has one."""
    assert decide(TWO, Exists("x", parse("~x = x", kind="formula")), caps=GENEROUS)
    scanned = 0
    for n in (1, 2, 3):
        alg = FiniteAlgebra(n, tuple(range(1, n + 1)))
        for x in elements(alg):
            assert term_value("~x", x=x) != x
            scanned += 1
    return f"{scanned} elements scanned in identity-star algebras"


@criterion(7, 60.0)
def test_criterion_7_closures():
    """Algebraicity coincides with membership in the image of the base, and
    non-trivial types have arbitrarily many realizers."""
    count_acl = 0
    for base in all_bases(3):
        for r in refinements_into(base, 6):
            image = {r.map_element(x) for x in elements(base)}
            for w in elements(r.target):
                assert in_acl(r, w) == (w in image), (r, w)
                count_acl += 1
    count_realized = 0
    for base in all_bases(3):
        for t in sigma_consistent_triples(base):
            if is_trivial(t) is not None:
                continue
            ext, emb, elems = realizations(t, 3)
            assert len(set(elems)) == 3, t
            for e in elems:
                assert triple_of_element(emb, e) == t, t
            count_realized += 1
    return f"{count_acl} closure checks, {count_realized} non-trivial triples realized thrice"


@criterion(8, 30.0)
def test_criterion_8_triviality():
    """Triviality by the candidate-set formula agrees with the subset scan,
    and triviality descends from refined triples to base triples."""
    checked = 0
    for sigma in involutions(3):
        alg = FiniteAlgebra(3, sigma)
        subsets = [
            frozenset(s)
            for k in range(4)
            for s in itertools.combinations((1, 2, 3), k)
        ]
        for i1, i2, i3 in itertools.product(subsets, repeat=3):
            t = Triple(alg, i1, i2, i3)
            assert is_trivial(t) == brute_force_trivial(t), t
            checked += 1
    assert checked == 4 * 512

    rng = random.Random(882233)
    descended = 0
    for case in range(500):
        base = random_algebra(rng, 3)
        r = random_refinement(rng, base, max_cell=2)
        if case % 2:
            u = random_element(rng, base)
            t = triple_of_element(identity_refinement(base), u)
        else:
            t = Triple(
                base,
                frozenset(i for i in base.atom_indices if rng.random() < 0.5),
                frozenset(i for i in base.atom_indices if rng.random() < 0.5),
                frozenset(i for i in base.atom_indices if rng.random() < 0.5),
            )
        refined = refine_triple(r, t)
        if is_trivial(refined) is not None:
            assert is_trivial(t) is not None, (t, r)
            descended += 1
    assert descended >= 100  # the property must actually be exercised
    return f"{checked} agreement checks, {descended} descent cases"


@criterion(9, 120.0)
def test_criterion_9_stability_under_refinement():
    """Moving the parameters along an embedding never changes an answer."""
    caps = Caps(max_atoms=96, max_depth=4, max_triples=4000)
    bases = [TWO, FiniteAlgebra(2, (1, 2)), FOUR]
    rng = random.Random(52202414)
    kept = 0
    attempts = 0
    while kept < 200 and attempts < 2000:
        attempts += 1
        base = bases[attempts % len(bases)]
        with_param = rng.random() < 0.4
        names = ["p"] if with_param else []
        f = random_formula(rng, names)
        env = {"p": random_element(rng, base)} if with_param and "p" in free_vars(f) else {}
        if free_vars(f) - set(env):
            continue
        try:
            answer = decide(base, f, env, caps)
        except CapExceeded:
            continue
        moves = [twist_product(base)[1], random_refinement(rng, base, max_cell=2)]
        for r in moves:
            moved = {k: r.map_element(v) for k, v in env.items()}
            assert decide(r.target, f, moved, caps) == answer, format_ast(f)
        kept += 1
    assert kept >= 200, f"only {kept} formulas decided within caps"
    return f"{kept} formulas, two refinement moves each"


@criterion(10, 60.0)
def test_criterion_10_back_and_forth():
    """Every element of every small extension has a mirror image inside the
    stage over the base, isomorphically over the base."""
    matched = 0
    for base in all_bases(2):
        stage = ec_stage(base, GENEROUS)
        for rv in refinements_into(base, 6):
            for v in elements(rv.target):
                u, iso = find_matching_element(stage, rv, v)
                assert triple_of_element(stage.embedding, u) == triple_of_element(rv, v)
                _, v_blocks, base_into_v = algebra_over(rv, [v])
                _, u_blocks, base_into_u = algebra_over(stage.embedding, [u])
                assert_valid_iso(
                    base_into_v, base_into_u, iso,
                    blocks_under(v_blocks, v.mask), blocks_under(u_blocks, u.mask),
                )
                matched += 1
    return f"{matched} elements matched and verified"


@criterion(11, 5.0)
def test_criterion_11_round_trips_and_determinism():
    """Parse/format identity on a 200-case corpus; CLI output is
    byte-identical across runs."""
    rng = random.Random(99173)
    for _ in range(100):
        alg = random_algebra(rng, 6)
        if rng.random() < 0.3:
            alg = FiniteAlgebra(alg.n, alg.sigma, name=f"alg{rng.randint(0, 999)}")
        assert parse_algebra(format_algebra(alg)) == alg
    for k in range(100):
        kind = "term" if k % 2 else "formula"
        ast = (
            random_term(rng, ["x", "y", "z"], depth=4)
            if kind == "term"
            else random_formula(rng, ["x", "y"])
        )
        assert parse(format_ast(ast), kind=kind) == ast

    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        two = Path(tmp) / "two.alg"
        two.write_text("atoms 1\nsigma 1\n")
        four = Path(tmp) / "four.alg"
        four.write_text("atoms 2\nsigma 2 1\n")
        commands = [
            ["check", "--algebra", str(four)],
            ["consistent", "--algebra", str(four), "I1={1,2} I2={1,2} I3={}"],
            ["witness", "--algebra", str(four), "I1={} I2={} I3={}", "--via", "power4"],
            ["decide", "--algebra", str(two), "exists x. (~x = x & x != 0 & x != 1)"],
            ["trivial", "--algebra", str(four), "I1={2} I2={1,2} I3={1,2}", "--json"],
            ["extend-stage", "--algebra", str(two), "--max-atoms", "64"],
            ["equiv", "~(x + y)", "~x . ~y"],
        ]
        for argv in commands:
            runs = [
                subprocess.run(
                    [sys.executable, "-m", "bdm.cli", *argv],
                    capture_output=True,
                    check=False,
                )
                for _ in range(2)
            ]
            assert runs[0].stdout == runs[1].stdout, argv
            assert runs[0].returncode == runs[1].returncode, argv
    return "200 round-trip cases, 7 commands run twice"
