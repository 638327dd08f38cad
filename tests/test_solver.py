import copy
import hashlib
import random
import sys
import time
import tracemalloc

import pytest

from bdm.algebra import (
    compose_refinements,
    Element,
    FOUR,
    FiniteAlgebra,
    TWO,
    algebra_over,
    amalgamate,
    find_isomorphism_over,
    four_power,
    identity_refinement,
    twist_product,
)
from bdm import algebra, cli, solver, terms
from bdm.errors import CapExceeded, InconsistentTripleError, ParseError, TrivialTripleError
from bdm.model import build_chain
from bdm.oracle import all_realizations_in, phi_environment, phi_formula
from bdm.solver import (
    CASE1_ENTRIES,
    MAX_REALIZATION_ATOMS,
    Caps,
    Triple,
    block_layout,
    count_sigma_consistent,
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
from bdm.terms import And, Equal, Exists, ForAll, Not, NotEqual, Var, eval_formula, parse_formula

from corpus import (
    all_bases,
    atoms,
    elements,
    iterated_realizations,
    one_name_type_corpus,
    power_element,
    random_element,
    random_formula,
    random_refinement,
    refinements_into,
    round_witness,
    two_name_type_corpus,
)


def T(alg, i1, i2, i3):
    return Triple(alg, frozenset(i1), frozenset(i2), frozenset(i3))


# ---------------------------------------------------------------------------
# consistency

def test_consistency_examples():
    assert is_sigma_consistent(T(FOUR, {1, 2}, {1, 2}, ()))
    assert not is_sigma_consistent(T(FOUR, {1, 2}, {1, 2}, {1, 2}))
    assert not is_sigma_consistent(T(FOUR, (), {1}, ()))


def test_consistent_triple_enumeration():
    ts = sigma_consistent_triples(TWO)
    assert len(ts) == 7 == count_sigma_consistent(TWO)
    assert all(is_sigma_consistent(t) for t in ts)
    # excluded pattern is the all-ones triple
    assert T(TWO, {1}, {1}, {1}) not in ts
    # lexicographic bitmask order
    masks = [
        tuple(sum(1 << (i - 1) for i in s) for s in t.sets()) for t in ts
    ]
    assert masks == sorted(masks)
    assert len(sigma_consistent_triples(FOUR)) == 15
    assert len(sigma_consistent_triples(FiniteAlgebra(2, (1, 2)))) == 49


def test_consistent_triple_count_matches_enumeration():
    for alg in all_bases(3):
        assert count_sigma_consistent(alg) == len(sigma_consistent_triples(alg)), alg


def test_consistent_triple_cap():
    with pytest.raises(CapExceeded):
        solver._triple_count(FiniteAlgebra(2, (1, 2)).sigma, 10)


def test_each_enumeration_is_a_new_list():
    alg = FiniteAlgebra(2, (1, 2))
    ts = sigma_consistent_triples(alg)
    expected = list(ts)
    assert sigma_consistent_triples(alg) is not ts
    ts.reverse()
    ts.append(T(alg, {1, 2}, {1, 2}, {1, 2}))
    del ts[:5]
    assert sigma_consistent_triples(alg) == expected


def test_second_decide_builds_no_triple(monkeypatch):
    """Once decide has walked a shape, deciding the same sentence again
    builds no Triple and no witness: the shape table holds them.  Nor does
    its quantifier step build an element, an algebra or a refinement: it
    reads the subalgebra from masks."""
    f = parse_formula("exists x. (exists y. (x . y* != 0 & ~x = x & y != x))")
    alg = FiniteAlgebra(2, (2, 1))
    first = decide(FOUR, f, {}, CAPS)
    built = []
    from_masks = Triple.from_masks.__func__
    monkeypatch.setattr(
        Triple, "from_masks", classmethod(lambda *a: built.append(a) or from_masks(*a))
    )
    witnessed = []
    monkeypatch.setattr(
        solver, "witness_abstract", lambda t: witnessed.append(t) or witness_abstract(t)
    )
    objects = []
    element = Element.from_mask.__func__
    monkeypatch.setattr(
        Element, "from_mask", classmethod(lambda *a: objects.append(a) or element(*a))
    )
    init_algebra = FiniteAlgebra.__init__
    monkeypatch.setattr(
        FiniteAlgebra, "__init__", lambda *a: objects.append(a) or init_algebra(*a)
    )
    init_refinement = algebra._init_refinement
    monkeypatch.setattr(
        algebra, "_init_refinement", lambda *a: objects.append(a) or init_refinement(*a)
    )
    assert decide(alg, f, {}, CAPS) == first
    assert built == []
    assert witnessed == []
    assert objects == []


# ---------------------------------------------------------------------------
# types of elements

def test_triple_of_element_examples():
    _, r = twist_product(TWO)
    assert triple_of_element(r, FOUR.atom(1)) == T(TWO, (), {1}, {1})

    rid = identity_refinement(FOUR)
    assert triple_of_element(rid, FOUR.zero) == T(FOUR, {1, 2}, {1, 2}, ())
    assert triple_of_element(rid, FOUR.atom(1)) == T(FOUR, {2}, {1, 2}, {1, 2})


def test_type_equality_examples():
    rid = identity_refinement(FOUR)
    assert triple_of_element(rid, FOUR.zero) == T(FOUR, {1, 2}, {1, 2}, ())
    diag = block_layout(FOUR, [2])
    one_zero = power_element(("1", "0"))
    assert triple_of_element(diag, one_zero) == T(FOUR, {1, 2}, (), ())
    assert triple_of_element(rid, FOUR.atom(1)) != T(FOUR, {1}, {1, 2}, {1, 2})
    assert triple_of_element(rid, FOUR.atom(2)) == T(FOUR, {1}, {1, 2}, {1, 2})


def test_mutual_exclusivity():
    # an element's zero pattern matches exactly one triple
    _, r = twist_product(FOUR)
    for u in elements(r.target):
        t = triple_of_element(r, u)
        matches = [
            s for s in sigma_consistent_triples(FOUR) if triple_of_element(r, u) == s
        ]
        assert matches == [t]


# ---------------------------------------------------------------------------
# witnesses

def test_witness_abstract_square_root_of_dmneg():
    t = T(TWO, (), {1}, {1})
    w = witness_abstract(t)
    assert w.embedding.target == FOUR
    assert w.embedding.cell(1) == {1, 2}
    assert w.element == FOUR.atom(1)
    assert triple_of_element(w.embedding, w.element) == t


def test_witness_abstract_zero_pattern():
    t = T(FOUR, {1, 2}, {1, 2}, ())
    w = witness_abstract(t)
    assert w.embedding.target == FOUR  # one atom of kind x'.x~ per base atom
    assert w.element == w.embedding.target.zero
    assert triple_of_element(w.embedding, w.element) == t


def test_witness_abstract_rejects_inconsistent():
    with pytest.raises(InconsistentTripleError):
        witness_abstract(T(TWO, {1}, {1}, {1}))


def test_witness_via_four_power_examples():
    w = witness_via_four_power(T(FOUR, {1}, {1, 2}, {1, 2}))
    assert w.embedding.target == FOUR and w.element == FOUR.atom(2)
    assert w.embedding == identity_refinement(FOUR)

    t = T(FOUR, (), (), {1, 2})
    w = witness_via_four_power(t)
    assert w.embedding.target == four_power(3)
    assert w.element == power_element(("a", "b", "1"))
    assert triple_of_element(w.embedding, w.element) == t

    t = T(FOUR, (), (), ())
    w = witness_via_four_power(t)
    assert w.embedding.target == four_power(4)
    assert w.element == power_element(("a", "b", "0", "1"))
    assert triple_of_element(w.embedding, w.element) == t


def test_witness_via_four_power_rejects_inconsistent():
    with pytest.raises(InconsistentTripleError):
        witness_via_four_power(T(FOUR, {1, 2}, {1, 2}, {1, 2}))


def test_case1_table_against_oracle():
    # every tabulated solution, including the mirrored block, is the stated
    # solution in the stated power
    for entry in CASE1_ENTRIES:
        t = Triple.from_masks(FOUR, entry.m1, entry.m2, entry.m3)
        w = witness_via_four_power(t)
        assert w.embedding == block_layout(FOUR, [len(entry.coords)])
        assert w.element == power_element(entry.coords)
        assert triple_of_element(w.embedding, w.element) == t
        assert w.element in all_realizations_in(w.embedding, t)
    assert sum(e.mirrored for e in CASE1_ENTRIES) == 4
    assert len(CASE1_ENTRIES) == 15


@pytest.mark.parametrize("alg", all_bases(2), ids=lambda a: f"n{a.n}-{a.sigma}")
def test_witness_soundness_small(alg):
    for t in sigma_consistent_triples(alg):
        for build in (witness_abstract, witness_via_four_power):
            w = build(t)
            assert triple_of_element(w.embedding, w.element) == t


def test_constructor_agreement_over_two():
    for t in sigma_consistent_triples(TWO):
        w1 = witness_abstract(t)
        w2 = witness_via_four_power(t)
        _, _, r1 = algebra_over(w1.embedding, [w1.element])
        _, _, r2 = algebra_over(w2.embedding, [w2.element])
        assert find_isomorphism_over(r1, r2) is not None


# ---------------------------------------------------------------------------
# refinement of triples

def test_refine_triple_examples():
    _, r = twist_product(TWO)
    assert refine_triple(r, T(TWO, {1}, {1}, {1})) == T(FOUR, {1, 2}, {1, 2}, {1, 2})
    rid = identity_refinement(FOUR)
    t = T(FOUR, {1}, (), {1, 2})
    assert refine_triple(rid, t) == t

    t = T(TWO, (), {1}, {1})
    refined = refine_triple(r, t)
    assert refined == T(FOUR, (), {1, 2}, {1, 2})
    # any element realizing the refined triple (in an extension of the
    # middle algebra) realizes the original along the composite
    w = witness_abstract(refined)
    composite = compose_refinements(r, w.embedding)
    assert triple_of_element(composite, w.element) == t
    for u in all_realizations_in(w.embedding, refined):
        assert triple_of_element(composite, u) == t


def test_refine_preserves_consistency():
    _, r = twist_product(FiniteAlgebra(2, (1, 2)))
    for t in sigma_consistent_triples(FiniteAlgebra(2, (1, 2))):
        assert is_sigma_consistent(refine_triple(r, t))


# ---------------------------------------------------------------------------
# triviality

def test_is_trivial_examples():
    got = is_trivial(T(FOUR, {2}, {1, 2}, {1, 2}))
    assert atoms(got) == {1}
    assert Element.from_mask(FOUR, got) == FOUR.atom(1)

    assert is_trivial(T(TWO, (), {1}, {1})) is None

    # the type of the top element
    got = is_trivial(T(TWO, {1}, (), {1}))
    assert atoms(got) == {1}
    assert Element.from_mask(TWO, got) == TWO.one


def test_trivial_matches_type_of_base_elements():
    for alg in all_bases(3):
        rid = identity_refinement(alg)
        for u in elements(alg):
            t = triple_of_element(rid, u)
            assert is_trivial(t) == u.mask


def test_trivial_unique_realizer():
    t = T(FOUR, {2}, {1, 2}, {1, 2})
    _, r = twist_product(FOUR)
    refined = refine_triple(r, t)
    # in the extension, only the image of the base realizer works
    realizers = all_realizations_in(r, t)
    assert realizers == [r.map_element(FOUR.atom(1))]


# ---------------------------------------------------------------------------
# realizations

def test_realizations_two_square_roots():
    t = T(TWO, (), {1}, {1})
    ext, emb, elems = realizations(t, 2)
    assert len(elems) == len(set(elems)) == 2
    for e in elems:
        assert triple_of_element(emb, e) == t


def test_realizations_rejects_trivial():
    with pytest.raises(TrivialTripleError):
        realizations(T(TWO, {1}, (), {1}), 1)


def test_realizations_rejects_inconsistent():
    with pytest.raises(InconsistentTripleError):
        realizations(T(TWO, {1}, {1}, {1}), 1)


def test_realizations_accepts_nontrivial_i3_empty():
    # the type demanding x.x~ = 0 with x.x* and x'.x~ both nonzero is not
    # the type of any base element
    t = T(TWO, {1}, (), ())
    assert is_trivial(t) is None
    ext, emb, elems = realizations(t, 3)
    assert len(set(elems)) == 3
    for e in elems:
        assert triple_of_element(emb, e) == t


def test_realizations_three_over_four():
    t = T(FOUR, (), (), ())
    ext, emb, elems = realizations(t, 3)
    assert len(set(elems)) == 3
    for e in elems:
        assert triple_of_element(emb, e) == t


def test_realizations_scale_with_their_output():
    """Seven rounds over three atoms build an extension of 3 * 4^7 atoms;
    the cost follows the size of what is built, not its cube."""
    t = T(FiniteAlgebra(3, (1, 3, 2)), (), (), ())
    start = time.perf_counter()
    ext, emb, elems = realizations(t, 7)
    assert time.perf_counter() - start < 20
    assert ext.n == 49152
    assert len({e.mask for e in elems}) == 7
    for e in elems:
        assert triple_of_element(emb, e) == t


def test_realizations_match_the_iterated_tower():
    """The one-pass extension is exactly the tower that adjoins one witness
    per round: the same sigma, cells and realizers, in the same order; its
    k = 1 case, witness_abstract, is one round."""
    for alg in all_bases(3):
        for t in sigma_consistent_triples(alg):
            w = witness_abstract(t)
            assert (w.embedding, w.element) == round_witness(t), t
            if is_trivial(t) is not None:
                continue
            for k in range(1, (4 if alg.n <= 2 else 3) + 1):
                ext, emb, elems = realizations(t, k)
                slow_ext, slow_emb, slow_elems = iterated_realizations(t, k)
                assert ext.sigma == slow_ext.sigma, (t, k)
                assert emb.cell_masks == slow_emb.cell_masks, (t, k)
                assert [e.mask for e in elems] == [e.mask for e in slow_elems], (t, k)


@pytest.mark.parametrize("k", range(1, 8))
def test_realizations_build_one_algebra_and_one_refinement(monkeypatch, k):
    """realizations builds its extension once, not round by round: one
    algebra, one refinement, nothing refined or composed."""
    t = T(FiniteAlgebra(3, (1, 3, 2)), (), (), ())
    built = []
    init_algebra = FiniteAlgebra.__init__
    monkeypatch.setattr(
        FiniteAlgebra, "__init__", lambda *a: built.append("algebra") or init_algebra(*a)
    )
    init_refinement = algebra._init_refinement
    monkeypatch.setattr(
        algebra, "_init_refinement",
        lambda *a: built.append("refinement") or init_refinement(*a),
    )
    for name in ("compose_refinements", "refine_triple"):
        f = getattr(solver, name)
        monkeypatch.setattr(solver, name, lambda *a, name=name, f=f: built.append(name) or f(*a))
    ext, emb, elems = realizations(t, k)
    assert sorted(built) == ["algebra", "refinement"]
    assert ext.n == 3 * 4**k and len({e.mask for e in elems}) == k


@pytest.mark.parametrize("n, k", [(3, 8), (1, 9), (2, 8), (5, 7), (1, 10**9)])
def test_realizations_over_the_atom_cap_build_nothing(n, k):
    """n * 4^k over the cap raises before any round is built, even for a
    count whose 4^k would not fit in memory."""
    t = T(FiniteAlgebra(n, tuple(range(1, n + 1))), (), (), ())
    assert n * 4 ** min(k, 20) > MAX_REALIZATION_ATOMS
    start = time.perf_counter()
    with pytest.raises(CapExceeded):
        realizations(t, k)
    assert time.perf_counter() - start < 0.5


def test_realizations_leave_the_witness_cache_alone():
    """Tower witnesses are built once each; cached, they kept every large
    extension alive after the call."""
    t = T(FiniteAlgebra(3, (1, 3, 2)), (), (), ())
    before = solver._shape_witnesses.cache_info()
    realizations(t, 6)
    assert solver._shape_witnesses.cache_info() == before


# ---------------------------------------------------------------------------
# algebraic closure

def test_in_acl_examples():
    _, r = twist_product(TWO)
    assert not in_acl(r, FOUR.atom(1))
    assert in_acl(r, FOUR.one)
    _, r2 = twist_product(FOUR)
    assert in_acl(r2, r2.map_element(FOUR.atom(2)))


def test_in_acl_is_image_membership():
    _, r = twist_product(FOUR)
    image = {r.map_element(x) for x in elements(FOUR)}
    for u in elements(r.target):
        assert in_acl(r, u) == (u in image)


# ---------------------------------------------------------------------------
# decide

CAPS = Caps(max_atoms=64, max_depth=4, max_triples=10**6)


def test_decide_examples():
    assert decide(TWO, parse_formula("exists x. (~x = x & x != 0 & x != 1)"), caps=CAPS)
    assert decide(TWO, parse_formula("forall x. (x + x' = 1)"), caps=CAPS)
    assert not decide(TWO, parse_formula("forall x. (x + ~x = 1)"), caps=CAPS)


def test_decide_with_parameters():
    a = FOUR.atom(1)
    f = parse_formula("exists x. (x . y = 0 & x != 0)")
    assert decide(FOUR, f, {"y": a}, caps=CAPS)
    f = parse_formula("y != 0")
    assert decide(FOUR, f, {"y": a}, caps=CAPS)
    with pytest.raises(ValueError):
        decide(FOUR, parse_formula("y = 0"))


def test_decide_quantifier_free():
    assert decide(FOUR, parse_formula("1 != 0"), caps=CAPS)
    assert not decide(FOUR, parse_formula("1 = 0"), caps=CAPS)


def test_decide_matches_consistency_over_two():
    from bdm.terms import Exists

    for i1 in [frozenset(), frozenset({1})]:
        for i2 in [frozenset(), frozenset({1})]:
            for i3 in [frozenset(), frozenset({1})]:
                t = Triple(TWO, i1, i2, i3)
                sentence = Exists("x", phi_formula(t))
                env = {f"y{i}": TWO.atom(i) for i in TWO.atom_indices}
                assert decide(TWO, sentence, env, CAPS) == is_sigma_consistent(t)


TYPE_CAPS = Caps(max_atoms=16, max_triples=1000)


def _wrong_type_verdicts(corpus):
    """The sentences of the corpus that decide answers wrongly over 2,
    lazily."""
    for sentence, expected in corpus:
        if decide(TWO, sentence, caps=TYPE_CAPS) != expected:
            yield sentence


def test_every_consistent_one_name_type_is_realized_over_two():
    """ROADMAP 5(a) for one name: exists v. (delta_S(v) & exists x.
    phi_K(v, x)) is true for each of the 7 swap-closed pattern sets S and
    each of the 1,023 consistent choices K of kinds among them, and false
    for a seeded sample of inconsistent K."""
    corpus = one_name_type_corpus(random.Random(5))
    assert sum(expected for _, expected in corpus) == 1023
    assert len(corpus) > 1023 + 200
    assert next(_wrong_type_verdicts(corpus), None) is None


def test_one_name_type_corpus_catches_a_dropped_witness(monkeypatch):
    """A witness source that drops the first witness whenever the names in
    play generate 2 passes both verdict digests, but not this corpus."""
    shape_witnesses = solver._shape_witnesses
    monkeypatch.setattr(
        solver,
        "_shape_witnesses",
        lambda sigma: shape_witnesses(sigma)[1:] if sigma == (1,) else shape_witnesses(sigma),
    )
    assert next(_wrong_type_verdicts(one_name_type_corpus(random.Random(5))), None) is not None


def _two_name_corpus():
    return two_name_type_corpus(random.Random(5), two_orbit_sets=6, consistent_per_set=7,
                                inconsistent_per_set=2)


def test_sampled_two_name_types_are_realized_over_two():
    """ROADMAP 5(a) for two names: exists v. exists w. (delta_S(v, w) &
    exists x. phi_K(v, w, x)) is true for sampled consistent K and false
    for sampled inconsistent K, over every pattern set S of one swap-orbit
    and six seeded ones of two.  Every such S is realized, so the sentence
    reaches each quantifier over the shape of S."""
    corpus = _two_name_corpus()
    # per one-orbit S all 7 K of a fixed pattern and 7 of a two-cycle's 15
    assert sum(expected for _, expected in corpus) == (10 + 6) * 7
    assert len(corpus) > 16 * 7 + 16
    assert next(_wrong_type_verdicts(corpus), None) is None


def test_two_name_type_corpus_catches_a_dropped_witness(monkeypatch):
    """With v and w both 0 or 1, x ranges over the shape of 2, so a witness
    source that drops its first row there loses the generic x."""
    shape_witnesses = solver._shape_witnesses
    monkeypatch.setattr(
        solver,
        "_shape_witnesses",
        lambda sigma: shape_witnesses(sigma)[1:] if sigma == (1,) else shape_witnesses(sigma),
    )
    assert next(_wrong_type_verdicts(_two_name_corpus()), None) is not None


def test_decide_depth_cap():
    f = parse_formula("exists x. (exists y. (exists z. (x . y . z = 0)))")
    with pytest.raises(CapExceeded):
        decide(TWO, f, caps=Caps(max_atoms=64, max_depth=2, max_triples=10**6))


def test_decide_atom_cap_distinct_from_false():
    f = parse_formula("exists x. (x != x)")
    # generous caps: plain false
    assert decide(TWO, f, caps=CAPS) is False
    # starved caps: error, not false
    with pytest.raises(CapExceeded):
        decide(TWO, f, caps=Caps(max_atoms=1, max_depth=4, max_triples=10**6))


def _atoms_bound(alg):
    """A body true for every x that mentions p1..pn, and an environment
    binding them to the atoms of alg, so a quantifier over the body ranges
    over alg's own shape."""
    env = {f"p{i}": alg.atom(i) for i in alg.atom_indices}
    return " & ".join(f"{name} = {name}" for name in env) + " & x = x", env


@pytest.mark.parametrize(
    "caps, message",
    [
        (Caps(max_atoms=0, max_depth=0, max_triples=0), "quantifier depth 0 exhausted"),
        (Caps(max_atoms=0, max_depth=4, max_triples=6), "7 consistent triples over 1 atoms"),
        (Caps(max_atoms=1, max_depth=4, max_triples=7),
         "witness extension needs 4 atoms, cap is 1"),
    ],
)
def test_decide_caps_raise_before_anything_is_built(monkeypatch, caps, message):
    """Depth, then the triple count, then the atoms of the first (largest)
    extension are checked before any triple or witness is built or looked
    up."""
    def build(*args):
        raise AssertionError("built past an exhausted cap")

    solver._shape_witnesses.cache_clear()
    monkeypatch.setattr(solver, "witness_abstract", build)
    monkeypatch.setattr(Triple, "from_masks", classmethod(build))
    before = solver._shape_witnesses.cache_info()
    with pytest.raises(CapExceeded, match=message):
        decide(TWO, parse_formula("exists x. (x != x)"), caps=caps)
    assert solver._shape_witnesses.cache_info() == before


_X_NEQ_X = "exists x. (x != x)"


@pytest.mark.parametrize(
    "run, cap, needed, limit, stage, message",
    [
        (lambda: decide(TWO, parse_formula(_X_NEQ_X), caps=Caps(0, 0, 0)),
         "max_depth", 1, 0, None, "quantifier depth 0 exhausted"),
        (lambda: decide(TWO, parse_formula(_X_NEQ_X), caps=Caps(0, 4, 6)),
         "max_triples", 7, 6, None, "7 consistent triples over 1 atoms exceed the cap of 6"),
        (lambda: decide(TWO, parse_formula(_X_NEQ_X), caps=Caps(1, 4, 7)),
         "max_atoms", 4, 1, None, "witness extension needs 4 atoms, cap is 1"),
        (lambda: build_chain(TWO, 2, Caps(max_atoms=64, max_depth=4, max_triples=1000)),
         "max_triples", 15**4, 1000, 2,
         "50625 consistent triples over 8 atoms exceed the cap of 1000 (stage 2)"),
    ],
    ids=["depth", "triples", "atoms", "chain"],
)
def test_cap_exceeded_names_the_cap_and_by_how_much(run, cap, needed, limit, stage, message):
    """The Caps field that ran out, what was needed and the limit ride on the
    error, through build_chain's re-raise too; the message is unchanged."""
    with pytest.raises(CapExceeded) as e:
        run()
    assert (e.value.cap, e.value.needed, e.value.limit, e.value.stage) == (cap, needed, limit, stage)
    assert str(e.value) == message


def _rows_by_witness(sigma):
    """The rows of the abstract witnesses over the shape sigma, in triple
    order, read off the Witness objects: the slow route of the rows."""
    alg = FiniteAlgebra(len(sigma), sigma)
    return [(w.embedding.target, w.element.mask, w.embedding.cell_masks)
            for w in map(witness_abstract, sigma_consistent_triples(alg))]


def _rows_through_pairs(sigma):
    """The rows _witness_pairs reads, recovered from its bindings: var is
    x, and parameter a<k> lies over the shape's atom k alone."""
    params = [(f"a{k}", [k]) for k in range(len(sigma))]
    count = count_sigma_consistent(FiniteAlgebra(len(sigma), sigma))
    return [(ext, env["x"], tuple(env[name] for name, _ in params))
            for ext, env in solver._witness_pairs(sigma, count, "x", params)]


def test_shape_rows_are_the_abstract_witnesses(monkeypatch):
    """Over every shape of at most 3 atoms the kept rows, and the rows
    streamed past _SHAPE_TRIPLES, are the abstract witnesses in order."""
    sigmas = sorted({alg.sigma for alg in all_bases(3)})
    assert len(sigmas) == 7
    solver._shape_witnesses.cache_clear()
    for sigma in sigmas:
        want = _rows_by_witness(sigma)
        assert list(solver._shape_witnesses(sigma)) == want
        assert _rows_through_pairs(sigma) == want
    monkeypatch.setattr(solver, "_SHAPE_TRIPLES", 0)
    solver._shape_witnesses.cache_clear()
    for sigma in sigmas:
        assert _rows_through_pairs(sigma) == _rows_by_witness(sigma)
    assert solver._shape_witnesses.cache_info().currsize == 0


def test_a_quantifier_with_no_names_in_play_reads_no_blocks(monkeypatch):
    """With no names in play the domain is the shape of 2, whatever the
    algebra: no blocks are computed for it.  A quantifier with names in
    play still computes its blocks."""
    calls = []
    blocks = solver.generated_blocks
    monkeypatch.setattr(solver, "generated_blocks", lambda *a: calls.append(a) or blocks(*a))
    for alg in (TWO, FOUR, FiniteAlgebra(3, (1, 3, 2))):
        assert decide(alg, parse_formula("exists x. (x* = x & x != 0 & x != 1)"), caps=CAPS)
        assert not decide(alg, parse_formula("forall x. (x + ~x = 1)"), caps=CAPS)
    assert calls == []
    assert decide(FOUR, parse_formula("exists x. (exists y. (y != x))"), caps=CAPS)
    assert len(calls) == 1


# rows tables of the largest shapes below _SHAPE_TRIPLES: 7 * 15^2 = 1,575
# triples over one fixed atom and two two-cycles, eight fixed atoms in turn
_LARGEST_SHAPES = [(1, 3, 2, 5, 4), (2, 1, 3, 5, 4), (2, 1, 4, 3, 5), (1, 4, 5, 2, 3),
                   (3, 4, 1, 2, 5), (4, 3, 2, 1, 5), (1, 5, 4, 3, 2), (5, 3, 2, 4, 1)]


def test_eight_largest_shape_tables_stay_under_their_bound():
    """_SHAPE_TRIPLES keeps decide's one cache bounded: 8 rows tables of the
    largest shapes it keeps hold under 9 MiB (7.7 MiB measured on Python
    3.11, about 650 B a row; kept as Witness objects they held 9.4 MiB).
    One table is built first, untraced, so one-off allocations of the first
    build do not count."""
    assert all(count_sigma_consistent(FiniteAlgebra(5, s)) == 1575 for s in _LARGEST_SHAPES)
    assert 1575 <= solver._SHAPE_TRIPLES < 7**4
    solver._shape_witnesses(_LARGEST_SHAPES[0])
    solver._shape_witnesses.cache_clear()
    tracemalloc.start()
    try:
        for sigma in _LARGEST_SHAPES:
            solver._shape_witnesses(sigma)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        solver._shape_witnesses.cache_clear()
    assert held < 9 * 2**20


def test_shape_table_keeps_at_most_eight_shapes():
    sigmas = [(1,), (2, 1), (1, 2), (1, 3, 2), (2, 1, 3), (3, 2, 1),
              (2, 1, 4, 3), (3, 4, 1, 2), (4, 3, 2, 1), (1, 2, 4, 3)]
    solver._shape_witnesses.cache_clear()
    for sigma in sigmas:
        alg = FiniteAlgebra(len(sigma), sigma)
        body, env = _atoms_bound(alg)
        assert decide(alg, parse_formula(f"exists x. ({body})"), env, CAPS)
    info = solver._shape_witnesses.cache_info()
    assert info.misses == len(sigmas)
    assert info.currsize == 8


def test_shape_past_the_table_bound_is_answered_and_not_kept(monkeypatch):
    alg = FiniteAlgebra(2, (1, 2))
    assert count_sigma_consistent(alg) == 49
    f = parse_formula("exists x. (x . p1 != 0 & x . p2 = 0 & x* = x & x != p1)")
    env = {"p1": alg.atom(1), "p2": alg.atom(2)}
    expected = decide(alg, f, env, CAPS)
    solver._shape_witnesses.cache_clear()
    monkeypatch.setattr(solver, "_SHAPE_TRIPLES", 10)
    assert decide(alg, f, env, CAPS) == expected
    info = solver._shape_witnesses.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 0, 0)


def test_shape_past_the_table_bound_builds_triples_as_tried(monkeypatch):
    """Over five fixed atoms (16,807 triples, past _SHAPE_TRIPLES) a
    sentence true at its first witness builds that one triple, not all."""
    alg = FiniteAlgebra(5, (1, 2, 3, 4, 5))
    assert count_sigma_consistent(alg) > solver._SHAPE_TRIPLES
    body, env = _atoms_bound(alg)
    built = []
    from_masks = Triple.from_masks.__func__
    monkeypatch.setattr(
        Triple, "from_masks", classmethod(lambda *a: built.append(a) or from_masks(*a))
    )
    assert decide(alg, parse_formula(f"exists x. ({body})"), env, CAPS)
    assert len(built) == 1


def test_equal_algebras_share_one_shape_entry():
    """The table is keyed by sigma alone, so a named algebra and an equal
    unnamed one find the same witnesses."""
    named = FiniteAlgebra(3, (1, 3, 2), name="three")
    plain = FiniteAlgebra(3, (1, 3, 2))
    solver._shape_witnesses.cache_clear()
    answers = []
    for alg in (named, plain):
        body, env = _atoms_bound(alg)
        answers.append(decide(alg, parse_formula(f"exists x. ({body})"), env, CAPS))
    info = solver._shape_witnesses.cache_info()
    assert answers == [True, True]
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("forall x. (" * 498 + "x != x" + ")" * 498, False),
        ("exists x. (" * 498 + "x = x" + ")" * 498, True),
        ("exists x. (x = x & (" * 249 + "x = x" + "))" * 249, True),
    ],
    ids=["forall", "exists", "exists-and"],
)
def test_deeply_nested_forall_is_decided(text, expected):
    """A universal costs one frame per level, as an existential and a
    connective do: 498 nested quantifiers, or 249 each under a conjunction,
    stay within Python's 1,000 frames."""
    f = parse_formula(text)
    assert decide(TWO, f, caps=Caps(max_depth=1000)) is expected


def test_deep_hand_built_sentence_is_parse_error():
    """A tree built without the parser meets the parser's depth bound when
    decide reads it, not Python's recursion limit when it is evaluated."""
    x = Var("x")
    body = Equal(x, x)
    for _ in range(1500):
        body = Not(body)
    with pytest.raises(ParseError, match="nested too deeply"):
        decide(TWO, Exists("x", body))
    nested = Equal(x, x)
    for _ in range(1500):
        nested = ForAll("x", nested)
    with pytest.raises(ParseError, match="nested too deeply"):
        decide(TWO, nested, caps=Caps(max_depth=5000))


@pytest.mark.parametrize("value", [3, FOUR], ids=["int", "algebra"])
def test_decide_binding_that_is_not_an_element_is_type_error(value):
    f = parse_formula("exists x. (x = p)")
    with pytest.raises(TypeError, match="variable 'p' is bound to a"):
        decide(TWO, f, {"p": value})


def test_decide_model_completeness_spot():
    # moving the parameters along an embedding keeps every answer
    _, r = twist_product(TWO)
    for text in [
        "exists x. (~x = x & x != 0 & x != 1)",
        "forall x. (x + ~x = 1)",
        "exists x. (x . y != 0 & x . ~y = 0)",
    ]:
        f = parse_formula(text)
        env = {"y": TWO.one} if "y" in text else {}
        big_env = {k: r.map_element(v) for k, v in env.items()}
        assert decide(TWO, f, env, CAPS) == decide(FOUR, f, big_env, CAPS)


def test_phi_formula_matches_triple_of_element():
    _, r = twist_product(TWO)
    for t in sigma_consistent_triples(TWO):
        f = phi_formula(t)
        for u in elements(FOUR):
            assert eval_formula(FOUR, f, phi_environment(r, u)) == (triple_of_element(r, u) == t)


def test_acl_is_the_generated_subalgebra_through_decide():
    """acl = dcl = <A>: w is algebraic over the base exactly when its type
    has no second realizer, that is when exists x. (x != w & phi(x)), with
    phi the defining formula of w's type and the base atoms bound as
    phi_environment binds them, is false in the existentially closed
    extensions.  Every base of at most 2 atoms, every refinement of it into
    at most 4 atoms and every element w of the target: 1,402 checks, 370
    of them algebraic.  The names in play are w and the base atoms, and a
    target of 4 fixed atoms gives a shape of 2,401 triples, past the
    witness table's bound."""
    caps = Caps(max_atoms=16)
    checks = algebraic = 0
    for base in all_bases(2):
        for r in refinements_into(base, 4):
            for w in elements(r.target):
                phi = phi_formula(triple_of_element(r, w))
                f = Exists("x", And(NotEqual(Var("x"), Var("w")), phi))
                env = phi_environment(r, w)
                env["w"] = env.pop("x")
                second = decide(r.target, f, env, caps)
                assert in_acl(r, w) == (not second), (r, w)
                checks += 1
                algebraic += not second
    assert (checks, algebraic) == (1402, 370)


def _acl_amalgam_disagreements(acl, cases):
    """The (r, w) on which acl(r, w) and strong amalgamation disagree, and
    the numbers of elements and of algebraic ones, over cases: pairs of a
    refinement r and elements w of its target.  Amalgamating r with itself
    gives s1 and s2 into C: w is algebraic exactly when s1(w) = s2(w), and
    s1(w), s2(w) always have w's type over the base."""
    wrong, checked, algebraic = [], 0, 0
    for r, ws in cases:
        _, s1, s2 = amalgamate(r, r)
        r1, r2 = compose_refinements(r, s1), compose_refinements(r, s2)
        for w in ws:
            w1, w2 = s1.map_element(w), s2.map_element(w)
            same_type = triple_of_element(r1, w1) == triple_of_element(r2, w2)
            if acl(r, w) != (w1 == w2) or not same_type:
                wrong.append((r, w))
            checked += 1
            algebraic += w1 == w2
    return wrong, checked, algebraic


def _every_refinement(max_base: int, max_target: int):
    """Every base of at most max_base atoms, every refinement r of it into
    at most max_target atoms, with every element of r's target."""
    for base in all_bases(max_base):
        for r in refinements_into(base, max_target):
            yield r, elements(r.target)


def _stage_refinements():
    """20 seeded refinements of the 32-atom stage-2 algebra over 2, each
    cell at most 2 pairs or fixed atoms wide, with 30 sampled elements of
    each target: half of them images of base elements, so algebraic."""
    base = build_chain(TWO, 2, Caps(max_atoms=64, max_triples=10**5))[1].algebra
    rng = random.Random(20182)
    cases = []
    for _ in range(20):
        r = random_refinement(rng, base, 2)
        cases.append((r, [
            r.map_element(random_element(rng, base)) if k % 2 else random_element(rng, r.target)
            for k in range(30)
        ]))
    return cases


def test_acl_is_the_generated_subalgebra_through_amalgamation():
    """acl = <A> through strong amalgamation, by a route that shares no code
    with is_trivial: in a Fraisse class, strong amalgamation holds exactly
    when the algebraic closure is the generated substructure.  Every base
    of at most 3 atoms, every refinement into at most 5 atoms."""
    assert _acl_amalgam_disagreements(in_acl, _every_refinement(3, 5)) == ([], 45690, 10966)


def test_acl_through_amalgamation_over_a_stage_algebra():
    """The same over a stage algebra: 600 sampled elements of refinements
    of the 32-atom stage 2 over 2, and exactly the 300 images algebraic."""
    assert _acl_amalgam_disagreements(in_acl, _stage_refinements()) == ([], 600, 300)


def test_acl_through_amalgamation_rejects_a_planted_error():
    """in_acl negated on one element is caught there and nowhere else: the
    atom {1} of 4 over 2, and a sampled image element over stage 2."""
    _, r = twist_product(TWO)
    stage_cases = _stage_refinements()
    stage_r, (_, image, *_) = stage_cases[3]
    for planted_at, cases in (
        ((r, FOUR.atom(1)), _every_refinement(1, 2)),
        ((stage_r, image), stage_cases),
    ):
        def planted(s, w, planted_at=planted_at):
            return in_acl(s, w) != ((s, w) == planted_at)

        assert _acl_amalgam_disagreements(planted, cases)[0] == [planted_at]


def test_translate_preserves_decisions():
    from bdm.terms import in_dm_signature, translate_dm

    texts = [
        "exists x. (~x = x & x != 0 & x != 1)",
        "forall x. (x + x' = 1)",
        "forall x. (x + ~x = 1)",
        "exists x. (x . x* != 0 & x != 1)",
        "exists x. (x' . ~x = 0 & x != 0)",
        "forall x. (~(x') = (~x)')",
    ]
    for text in texts:
        f = parse_formula(text)
        g = translate_dm(f, to="dm")
        assert in_dm_signature(g)
        assert decide(TWO, f, caps=CAPS) == decide(TWO, g, caps=CAPS), text


@pytest.mark.parametrize("field", ["max_atoms", "max_depth", "max_triples"])
def test_caps_reject_negative_budgets(field):
    with pytest.raises(ValueError, match=field):
        Caps(**{field: -1})
    assert getattr(Caps(**{field: 0}), field) == 0


def test_decide_verdicts_match_parent_digest():
    """The verdicts on 300 seeded sentences over every base of at most two
    atoms, at criterion 9's caps, are pinned by the SHA-256 of their
    sequence, as the Element-valued evaluator computed it."""
    caps = Caps(max_atoms=96, max_depth=4, max_triples=4000)
    bases = all_bases(2)
    rng = random.Random(20261018)
    verdicts = []
    for k in range(300):
        f = random_formula(rng, [])
        try:
            verdicts.append(str(decide(bases[k % len(bases)], f, {}, caps)))
        except CapExceeded:
            verdicts.append("cap")
    digest = hashlib.sha256(" ".join(verdicts).encode()).hexdigest()
    assert digest == "dffff31fef41560755a88925b73e5ccd9bd6f5aa988894abe5550adfe2f5a22b"


def test_decide_parameter_verdicts_match_parent_digest():
    """The twin of the test above with parameters: 300 seeded sentences
    with one or two names bound to random elements of a base of at most
    two atoms, at criterion 9's caps, pinned by the SHA-256 of their
    verdicts as the Element-bound solver computed them."""
    caps = Caps(max_atoms=96, max_depth=4, max_triples=4000)
    bases = all_bases(2)
    rng = random.Random(20261019)
    verdicts = []
    for k in range(300):
        base = bases[k % len(bases)]
        names = ["p", "r"][: rng.randint(1, 2)]
        f = random_formula(rng, names)
        env = {name: random_element(rng, base) for name in names}
        try:
            verdicts.append(str(decide(base, f, env, caps)))
        except CapExceeded:
            verdicts.append("cap")
    digest = hashlib.sha256(" ".join(verdicts).encode()).hexdigest()
    assert digest == "97f246fab15cbc1be807e3de7ec0113cbabed2c4d700e747926175a2ad04b86a"


def _digest_corpora():
    """The (base, sentence, bindings) of the two digest tests above, drawn
    from their seeds in their order."""
    bases = all_bases(2)
    rng = random.Random(20261018)
    corpus = [(bases[k % len(bases)], random_formula(rng, []), {}) for k in range(300)]
    rng = random.Random(20261019)
    for k in range(300):
        base = bases[k % len(bases)]
        names = ["p", "r"][: rng.randint(1, 2)]
        f = random_formula(rng, names)
        corpus.append((base, f, {name: random_element(rng, base) for name in names}))
    return corpus


def test_warm_verdicts_equal_cold_ones():
    """Deciding a sentence again trusts the read the first call stored; the
    verdicts match the first call's and those on copies never read."""
    caps = Caps(max_atoms=96, max_depth=4, max_triples=4000)

    def verdicts(corpus):
        out = []
        for base, f, env in corpus:
            try:
                out.append(str(decide(base, f, env, caps)))
            except CapExceeded:
                out.append("cap")
        return out

    corpus = _digest_corpora()
    cold = verdicts(corpus)
    assert [hashlib.sha256(" ".join(half).encode()).hexdigest() for half in (cold[:300], cold[300:])] == [
        "dffff31fef41560755a88925b73e5ccd9bd6f5aa988894abe5550adfe2f5a22b",
        "97f246fab15cbc1be807e3de7ec0113cbabed2c4d700e747926175a2ad04b86a",
    ]
    assert verdicts(corpus) == cold
    assert verdicts(copy.deepcopy(corpus)) == cold


def _count_reads(monkeypatch) -> list:
    """The trees terms._scan reads from now on, wherever a bdm module holds
    the reader by name."""
    scan, reads = terms._scan, []

    def counted(root, *args):
        reads.append(root)
        return scan(root, *args)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "bdm" and vars(module).get("_scan") is scan:
            monkeypatch.setattr(module, "_scan", counted)
    return reads


def test_a_sentence_is_read_once_however_often_it_is_decided(monkeypatch, tmp_path, capsys):
    """parse's read serves every decide call after it; a sentence built
    without the parser is read by its first decide call only; `bdm decide`
    reads its sentence once."""
    reads = _count_reads(monkeypatch)
    text = "forall x. (exists y. (y . p = x . p* & y != x))"
    env = {"p": TWO.one}
    f = parse_formula(text)
    assert [decide(TWO, f, env, CAPS) for _ in range(3)] == [False] * 3
    assert reads == [f]
    reads.clear()
    g = ForAll("x", Exists("y", NotEqual(Var("y"), Var("x"))))
    assert [decide(TWO, g, {}, CAPS) for _ in range(3)] == [True] * 3
    assert reads == [g]
    reads.clear()
    alg = tmp_path / "two.alg"
    alg.write_text("atoms 1\nsigma 1\n")
    assert cli.main(["decide", "--algebra", str(alg), "exists x. (~x = x & x != 0 & x != 1)"]) == 0
    assert capsys.readouterr().out == "true\n"
    assert len(reads) == 1
