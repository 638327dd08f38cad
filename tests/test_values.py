"""The package's immutable values: equality and hash by their fields, a
fixed repr, no assignment or deletion after construction, and a round trip
through pickle and copy.

Every class here but EcStage compares and hashes by value; for Caps,
Case1Entry, EcStage and IdentityCheck the constructors' positional, keyword
and default arguments are pinned too.
"""

import copy
import pickle

import pytest

from bdm.algebra import FOUR, TWO, AtomRefinement, Element, FiniteAlgebra, identity_refinement
from bdm.model import EcStage, ec_stage
from bdm.solver import CASE1_ENTRIES, Caps, Case1Entry, Triple, Witness, witness_abstract
from bdm.terms import (
    ONE,
    ZERO,
    And,
    BNeg,
    Const,
    DMNeg,
    Equal,
    Exists,
    ForAll,
    IdentityCheck,
    Implies,
    Join,
    Meet,
    Not,
    NotEqual,
    Or,
    Star,
    Var,
    parse_formula,
    parse_term,
    valid_identity,
)

X, Y = Var("x"), Var("y")
EQ = Equal(X, Y)


# one node of each AST class, as a builder (so each test gets two distinct
# objects) and its repr
NODES = [
    (lambda: Const(1), "Const(value=1)"),
    (lambda: Var("x"), "Var(name='x')"),
    (lambda: Join(X, Y), "Join(left=Var(name='x'), right=Var(name='y'))"),
    (lambda: Meet(X, Y), "Meet(left=Var(name='x'), right=Var(name='y'))"),
    (lambda: BNeg(X), "BNeg(arg=Var(name='x'))"),
    (lambda: DMNeg(X), "DMNeg(arg=Var(name='x'))"),
    (lambda: Star(X), "Star(arg=Var(name='x'))"),
    (lambda: Equal(X, Y), "Equal(left=Var(name='x'), right=Var(name='y'))"),
    (lambda: NotEqual(X, Y), "NotEqual(left=Var(name='x'), right=Var(name='y'))"),
    (lambda: And(EQ, EQ), f"And(left={EQ!r}, right={EQ!r})"),
    (lambda: Or(EQ, EQ), f"Or(left={EQ!r}, right={EQ!r})"),
    (lambda: Not(EQ), f"Not(arg={EQ!r})"),
    (lambda: Implies(EQ, EQ), f"Implies(left={EQ!r}, right={EQ!r})"),
    (lambda: Exists("x", EQ), f"Exists(var='x', body={EQ!r})"),
    (lambda: ForAll("x", EQ), f"ForAll(var='x', body={EQ!r})"),
]


@pytest.mark.parametrize("make, text", NODES, ids=[text.split("(")[0] for _, text in NODES])
def test_ast_nodes_are_values(make, text):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert repr(a) == text
    assert a != text
    for name in ("left", "right", "arg", "body", "value", "name", "var"):
        if hasattr(a, name):
            with pytest.raises(AttributeError):
                setattr(a, name, ZERO)
            with pytest.raises(AttributeError):
                delattr(a, name)
    assert a == b


def test_ast_equality_depends_on_the_class():
    assert Join(X, Y) != Meet(X, Y)
    assert Equal(X, Y) != NotEqual(X, Y)
    assert And(EQ, EQ) != Or(EQ, EQ) != Implies(EQ, EQ)
    assert Exists("x", EQ) != ForAll("x", EQ)
    assert len({BNeg(X), DMNeg(X), Star(X)}) == 3
    assert Join(X, Y) != Join(Y, X)
    assert Const(0) == ZERO != ONE


def test_parsed_trees_compare_structurally():
    f = parse_formula("forall x. (x + y' = ~(x . y)*)")
    assert f == parse_formula("forall x. ((x + (y')) = ~((x . y)*))")
    assert hash(f) == hash(parse_formula("forall x. (x + y' = ~(x . y)*)"))
    assert {f: 1}[parse_formula("forall x. (x + y' = ~(x . y)*)")] == 1
    assert parse_term("x*") != parse_term("(~x)'")
    assert repr(parse_term("x + y'")) == "Join(left=Var(name='x'), right=BNeg(arg=Var(name='y')))"


def test_algebra_equality_ignores_the_name():
    named = FiniteAlgebra(2, [2, 1], name="other")
    assert named.sigma == (2, 1)
    assert named == FOUR and hash(named) == hash(FOUR)
    assert named.name == "other" and FOUR.name == "four"
    assert FiniteAlgebra(2, (1, 2)) != FOUR
    assert FiniteAlgebra(1, (1,)) == TWO != FOUR
    assert FOUR != (2, (2, 1))
    assert repr(FOUR) == "FiniteAlgebra(n=2, sigma=(2, 1))"
    assert repr(named) == "FiniteAlgebra(n=2, sigma=(2, 1))"
    assert FOUR.full_mask == 0b11
    for name in ("n", "sigma", "name", "full_mask"):
        with pytest.raises(AttributeError):
            setattr(FOUR, name, 1)
        with pytest.raises(AttributeError):
            delattr(FOUR, name)
    assert FOUR.n == 2 and FOUR.sigma == (2, 1)


def test_element_is_a_value():
    e = Element(FOUR, {1})
    same = Element.from_mask(FiniteAlgebra(2, (2, 1), name="copy"), 0b01)
    assert e == same and hash(e) == hash(same)
    assert e != Element(FOUR, {2})
    assert e != Element.from_mask(FiniteAlgebra(2, (1, 2)), 0b01)
    assert e != 1
    assert repr(e) == "Element({1} of n=2)"
    assert repr(FOUR.zero) == "Element({} of n=2)"
    for name in ("algebra", "mask"):
        with pytest.raises(AttributeError):
            setattr(e, name, 0)
        with pytest.raises(AttributeError):
            delattr(e, name)
    assert e.mask == 1 and e.algebra is FOUR


def test_refinement_is_a_value():
    r = identity_refinement(FOUR)
    same = AtomRefinement(FOUR, FOUR, [{1}, {2}])
    assert r == same and hash(r) == hash(same)
    assert r != AtomRefinement(FOUR, FOUR, [{2}, {1}])
    assert repr(r) == "AtomRefinement(2 atoms -> 2 atoms)"
    for name in ("source", "target", "cell_masks"):
        with pytest.raises(AttributeError):
            setattr(r, name, None)
        with pytest.raises(AttributeError):
            delattr(r, name)
    assert r.cell_masks == (1, 2)


def test_triple_is_a_value():
    t = Triple(FOUR, {1}, set(), set())
    same = Triple.from_masks(FiniteAlgebra(2, (2, 1)), 0b01, 0, 0)
    assert t == same and hash(t) == hash(same)
    assert t != Triple.from_masks(FOUR, 0, 0b01, 0)
    assert t != Triple.from_masks(FOUR, 0b01, 0, 0b01)
    assert t != Triple.from_masks(FiniteAlgebra(2, (1, 2)), 0b01, 0, 0)
    assert repr(t) == "Triple(I1={1} I2={} I3={} over n=2)"
    for name in ("algebra", "m1", "m2", "m3"):
        with pytest.raises(AttributeError):
            setattr(t, name, 0)
        with pytest.raises(AttributeError):
            delattr(t, name)
    assert (t.m1, t.m2, t.m3) == (1, 0, 0)


def test_witness_is_a_value():
    w = witness_abstract(Triple.from_masks(TWO, 0, 0, 0))
    ext = w.embedding.target
    same = Witness(AtomRefinement.from_masks(TWO, ext, w.embedding.cell_masks), w.element)
    assert w == same and hash(w) == hash(same)
    assert w != Witness(w.embedding, ext.zero)
    assert repr(w) == (
        "Witness(embedding=AtomRefinement(1 atoms -> 4 atoms), "
        "element=Element({1,2} of n=4))"
    )
    for name in ("embedding", "element"):
        with pytest.raises(AttributeError):
            setattr(w, name, None)
        with pytest.raises(AttributeError):
            delattr(w, name)


def test_caps_constructor():
    assert (Caps().max_atoms, Caps().max_depth, Caps().max_triples) == (12, 4, 20000)
    caps = Caps(max_atoms=1, max_depth=2, max_triples=3)
    assert (caps.max_atoms, caps.max_depth, caps.max_triples) == (1, 2, 3)
    caps = Caps(5, 6)
    assert (caps.max_atoms, caps.max_depth, caps.max_triples) == (5, 6, 20000)
    with pytest.raises(ValueError) as e:
        Caps(max_atoms=-1)
    assert str(e.value) == "max_atoms must be nonnegative, got -1"
    with pytest.raises(ValueError) as e:
        Caps(max_triples=-2)
    assert str(e.value) == "max_triples must be nonnegative, got -2"
    with pytest.raises(AttributeError):
        caps.max_atoms = 100
    assert caps.max_atoms == 5
    assert Caps(5, 6) == caps and hash(Caps(5, 6)) == hash(caps) and Caps(5, 7) != caps
    assert repr(Caps()) == "Caps(max_atoms=12, max_depth=4, max_triples=20000)"


def test_case1_entry_constructor():
    entry = Case1Entry(0b01, 0b11, 0b00, ("b", "0"))
    assert (entry.m1, entry.m2, entry.m3, entry.coords, entry.mirrored) == (
        0b01, 0b11, 0b00, ("b", "0"), False,
    )
    entry = Case1Entry(m1=0b10, m2=0, m3=0, coords=("a",), mirrored=True)
    assert (entry.m1, entry.m2, entry.m3, entry.coords, entry.mirrored) == (
        0b10, 0, 0, ("a",), True,
    )
    with pytest.raises(AttributeError):
        entry.mirrored = False
    same = Case1Entry(0b10, 0, 0, ("a",), True)
    assert entry == same and hash(entry) == hash(same) and entry != Case1Entry(0b10, 0, 0, ("a",))
    assert repr(entry) == "Case1Entry(m1=2, m2=0, m3=0, coords=('a',), mirrored=True)"
    assert len(set(CASE1_ENTRIES)) == 15


def test_ec_stage_constructor():
    stage = ec_stage(TWO, Caps(max_atoms=8))
    copy = EcStage(stage.embedding, stage.tables)
    keyed = EcStage(embedding=stage.embedding, tables=stage.tables)
    assert copy.base is TWO and keyed.algebra is stage.algebra
    assert copy.realizers == stage.realizers
    with pytest.raises(AttributeError):
        copy.tables = ()
    assert copy.tables is stage.tables


def test_identity_check_constructor():
    ok = IdentityCheck(True, None)
    assert ok and ok.valid and ok.counterexample is None
    env = {"x": FOUR.zero}
    bad = IdentityCheck(valid=False, counterexample=env)
    assert not bad and bad.counterexample is env
    with pytest.raises(AttributeError):
        bad.valid = True
    assert not bad
    assert ok == IdentityCheck(True, None) and hash(ok) == hash(IdentityCheck(True, None))
    assert bad == IdentityCheck(False, {"x": FOUR.zero}) != ok
    assert repr(bad) == "IdentityCheck(valid=False, counterexample={'x': Element({} of n=2)})"


def test_identity_check_hashes_by_its_fields():
    """A check with a counterexample, which is a dict, hashes; equal checks
    hash equal, whatever order their counterexamples were filled in."""
    bad = valid_identity(parse_term("x + ~x"), Const(1))
    assert not bad and bad.counterexample == {"x": FOUR.atom(1)}
    assert hash(bad) == hash(IdentityCheck(False, {"x": FOUR.atom(1)}))
    two = valid_identity(parse_term("x . y"), Const(1))
    same = IdentityCheck(False, dict(reversed(two.counterexample.items())))
    assert same == two and hash(same) == hash(two)
    assert len({bad, two, same, valid_identity(parse_term("x"), parse_term("x**"))}) == 3


def test_values_survive_pickle_and_copy():
    stage = ec_stage(TWO, Caps(max_atoms=8))
    values = [
        FOUR, FiniteAlgebra(2, (2, 1), name="other"), FOUR.one, identity_refinement(FOUR),
        Triple.from_masks(FOUR, 1, 0, 0), witness_abstract(Triple.from_masks(TWO, 0, 0, 0)),
        Caps(max_depth=2), CASE1_ENTRIES[-1], IdentityCheck(False, {"x": FOUR.zero}),
        parse_formula("forall x. (x + y' = ~(x . y)*)"),
    ]
    for v in values:
        for back in (pickle.loads(pickle.dumps(v)), copy.copy(v), copy.deepcopy(v)):
            assert type(back) is type(v) and back == v and repr(back) == repr(v)
    assert pickle.loads(pickle.dumps(values[1])).name == "other"
    for back in (pickle.loads(pickle.dumps(stage)), copy.deepcopy(stage)):
        assert back.embedding == stage.embedding and back.tables == stage.tables
        assert back.realizers == stage.realizers


# the deepest trees the parser accepts: 500 levels, a formula's relation
# being one of them
DEEP = [
    ("~" * 499 + "x", "DMNeg(arg=" * 499 + "Var(name='x')" + ")" * 499),
    ("x" + "'" * 499, "BNeg(arg=" * 499 + "Var(name='x')" + ")" * 499),
    ("!" * 498 + "x = y", "Not(arg=" * 498 + repr(EQ) + ")" * 498),
    (" -> ".join(["x = y"] * 499),
     f"Implies(left={EQ!r}, right=" * 498 + repr(EQ) + ")" * 498),
]


@pytest.mark.parametrize("text, shown", DEEP, ids=["~", "'", "!", "->"])
def test_trees_at_the_depth_bound_are_values(text, shown):
    parse = parse_term if "=" not in text else parse_formula
    a, b = parse(text), parse(text)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b) and {a: 1}[b] == 1
    assert repr(a) == shown
    # the same shape with y in place of the last x differs only at a leaf
    k = text.rindex("x")
    other = parse(text[:k] + "y" + text[k + 1:])
    assert a != other and not a == other
    assert repr(other) != shown


def test_hand_built_trees_past_the_depth_bound_are_values():
    """Equality, hash and repr take no call per level, so a tree built
    without the parser may be deeper than any bound."""
    def tower(leaf, levels=5000):
        t = leaf
        for k in range(levels):
            t = (DMNeg, Star)[k % 2](t)
        return t

    a, b = tower(X), tower(Var("x"))
    assert a == b and hash(a) == hash(b)
    assert a != tower(Y) and a != tower(X, 4999)
    assert repr(a) == "".join(
        f"{('DMNeg', 'Star')[k % 2]}(arg=" for k in reversed(range(5000))
    ) + "Var(name='x')" + ")" * 5000
    f = ForAll("x", Equal(a, X))
    assert f == ForAll("x", Equal(b, X)) != ForAll("x", Equal(tower(Y), X))
