import copy
import hashlib
import pickle
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdm.algebra import FOUR, TWO, Element, four_power, twist_product
from bdm.errors import CapExceeded, ParseError
from bdm import terms
from bdm.oracle import failing_assignment
from bdm.solver import Caps, decide
from bdm.terms import (
    MAX_IDENTITY_VARIABLES,
    And,
    BNeg,
    Const,
    DMNeg,
    Equal,
    Exists,
    ForAll,
    Join,
    Meet,
    Not,
    NotEqual,
    Or,
    Star,
    Var,
    eval_formula,
    eval_term,
    format_ast,
    free_vars,
    in_dm_signature,
    parse,
    parse_formula,
    parse_term,
    translate_dm,
    valid_identity,
)

from corpus import all_bases, elements, random_formula, random_term


x, y, z = Var("x"), Var("y"), Var("z")


def test_parse_de_morgan_law():
    f = parse_formula("~(x + y) = ~x . ~y")
    assert f == Equal(DMNeg(Join(x, y)), Meet(DMNeg(x), DMNeg(y)))


def test_parse_postfix_stacking():
    assert parse_term("x''") == BNeg(BNeg(x))
    assert parse_term("x'*") == Star(BNeg(x))
    assert parse_term("~x'") == DMNeg(BNeg(x))  # postfix binds tighter


def test_parse_dm_signature_rejects_boolean_ops():
    with pytest.raises(ParseError) as e:
        parse("x '", signature="dm", kind="term")
    assert e.value.pos == 2
    with pytest.raises(ParseError):
        parse("x*", signature="dm", kind="term")
    # plain De Morgan syntax is fine
    assert parse("~x + y", signature="dm", kind="term") == Join(DMNeg(x), y)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        parse_term("x + ")
    with pytest.raises(ParseError):
        parse_term("(x + y")
    with pytest.raises(ParseError):
        parse_formula("exists . x = 0")
    with pytest.raises(ParseError):
        parse_term("x $ y")


def test_format_const_and_quantifier():
    assert format_ast(Const(0)) == "0"
    assert format_ast(Exists("x", Equal(x, Const(0)))) == "exists x. (x = 0)"


def test_precedence_round_trips():
    cases = [
        "x + y . z",
        "(x + y) . z",
        "~(x + y)",
        "(~x)'",
        "x''*",
        "x . (y . z)",
        "exists x. (forall y. (x . y = 0 | x != y))",
        "!x = 0 & y = 1 -> x + y = 1",
        "(exists x. (x = 0)) & y = 1",
    ]
    for text in cases:
        kind = "term" if "=" not in text else "formula"
        ast = parse(text, kind=kind)
        assert parse(format_ast(ast), kind=kind) == ast


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_round_trip_random_terms(seed):
    rng = random.Random(seed)
    t = random_term(rng, ["x", "y", "z"], depth=4)
    assert parse(format_ast(t), kind="term") == t


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_round_trip_random_formulas(seed):
    rng = random.Random(seed)
    f = random_formula(rng, ["x", "y"])
    assert parse(format_ast(f), kind="formula") == f


def _depth_limit_text(op, operators):
    if op in "~!":
        return op * operators + ("x" if op == "~" else "x = x")
    if op in "'*":
        return "x" + op * operators
    operand = "x" if op in "+." else "x = x"
    return f" {op} ".join([operand] * (operators + 1))


@pytest.mark.parametrize("op", ["~", "'", "*", "!", "->", "|", "&", "+", "."])
def test_round_trip_at_depth_limit(op):
    # the deepest tree parse accepts has 500 levels; a formula spends one on
    # the relation, so it holds one operator fewer than a term
    kind = "term" if op in "~'*+." else "formula"
    operators = 499 if kind == "term" else 498
    with pytest.raises(ParseError, match="nested too deeply"):
        parse(_depth_limit_text(op, operators + 1), kind=kind)
    f = parse(_depth_limit_text(op, operators), kind=kind)
    assert parse(format_ast(f), kind=kind) == f
    assert in_dm_signature(f) == (op not in "'*")


def test_printed_quantifier_tower_parses_back():
    f = Equal(x, x)
    for _ in range(498):
        f = Exists("x", f)
    printed = format_ast(f)
    assert format_ast(parse_formula(printed)) == printed


@pytest.mark.parametrize("primes", [77, 200])
def test_translated_complements_parse_back(primes):
    f = translate_dm(parse_formula("x" + "'" * primes + " = 0"), to="dm")
    printed = format_ast(f)
    assert format_ast(parse_formula(printed, signature="dm")) == printed


def test_parentheses_count_toward_the_depth_limit():
    assert parse_term("(" * 500 + "x" + ")" * 500) == x
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_term("(" * 501 + "x" + ")" * 501)


_ALPHABET = "x y 0 1 + . ~ ' * ( ) = != & | ! -> exists forall".split()


@settings(max_examples=500, deadline=None)
@given(
    st.lists(st.sampled_from(_ALPHABET), max_size=30),
    st.sampled_from([" ", ""]),
    st.sampled_from(["bdm", "dm"]),
    st.sampled_from(["term", "formula"]),
)
def test_parse_fuzz_round_trips_or_reports_a_position(tokens, sep, signature, kind):
    text = sep.join(tokens)
    try:
        ast = parse(text, signature, kind)
    except ParseError as e:
        assert isinstance(e.pos, int) and 0 <= e.pos <= len(text)
        return
    printed = format_ast(ast)
    assert format_ast(parse(printed, signature, kind)) == printed


def test_in_dm_signature_terms_and_formulas():
    assert in_dm_signature(parse_term("~x + y . 0"))
    assert not in_dm_signature(parse_term("~(x . y*)"))
    assert in_dm_signature(parse_formula("exists y. (~x = y)"))
    assert not in_dm_signature(parse_formula("!(x = 0) | (forall y. (y' = x))"))


def test_eval_examples():
    a = FOUR.atom(1)
    assert eval_term(FOUR, DMNeg(x), {"x": a}) == a
    assert eval_term(FOUR, parse_term("x + x'"), {"x": a}) == FOUR.one
    sq = four_power(2)
    ab = Element(sq, {1, 4})  # (a, b)
    assert eval_term(sq, Star(x), {"x": ab}) == Element(sq, {2, 3})  # (b, a)


def test_eval_unbound_variable():
    with pytest.raises(ValueError, match="unbound variable 'x'"):
        eval_term(FOUR, x, {})
    with pytest.raises(ValueError, match="unbound variable 'y'"):
        eval_term(FOUR, Join(x, DMNeg(y)), {"x": FOUR.zero})
    # the bindings are read before anything is evaluated, so a branch that
    # evaluation would skip is checked too
    with pytest.raises(ValueError, match="unbound variable 'y'"):
        eval_formula(FOUR, Or(Equal(x, x), Equal(y, y)), {"x": FOUR.zero})


def test_eval_binding_from_another_algebra():
    a = FOUR.atom(1)
    # checked only where the variable occurs
    assert eval_term(FOUR, x, {"x": a, "y": TWO.one}) == a
    assert eval_formula(FOUR, Equal(x, x), {"x": a, "y": TWO.one})
    with pytest.raises(ValueError, match="'y' is bound outside the algebra"):
        eval_term(FOUR, Meet(x, y), {"x": a, "y": TWO.one})
    with pytest.raises(ValueError, match="'y' is bound outside the algebra"):
        eval_formula(FOUR, Equal(x, y), {"x": a, "y": TWO.one})


def test_eval_deep_hand_built_tree_is_parse_error():
    """The evaluators read a tree before they evaluate it, so one built
    without the parser meets the parser's depth bound."""
    body = Equal(x, x)
    term = x
    for _ in range(1500):
        body = Not(body)
        term = DMNeg(term)
    with pytest.raises(ParseError, match="nested too deeply"):
        eval_formula(TWO, body, {"x": TWO.zero})
    with pytest.raises(ParseError, match="nested too deeply"):
        eval_term(TWO, term, {"x": TWO.zero})
    with pytest.raises(ParseError, match="nested too deeply"):
        valid_identity(term, x)


@pytest.mark.parametrize("value", [3, FOUR], ids=["int", "algebra"])
def test_eval_binding_that_is_not_an_element_is_type_error(value):
    with pytest.raises(TypeError, match="variable 'p' is bound to a"):
        eval_formula(TWO, Equal(Var("p"), Var("p")), {"p": value})
    with pytest.raises(TypeError, match="variable 'p' is bound to a"):
        eval_term(TWO, Var("p"), {"p": value})


def test_eval_formula_quantifier_rejected():
    with pytest.raises(ValueError, match="quantified formulas"):
        eval_formula(FOUR, Exists("x", Equal(x, x)), {})
    with pytest.raises(ValueError, match="quantified formulas"):
        eval_formula(FOUR, ForAll("x", Equal(x, x)), {})
    with pytest.raises(ValueError, match="quantified formulas"):
        eval_formula(FOUR, And(Equal(y, y), Exists("x", Equal(x, y))), {"y": FOUR.one})


def test_evaluators_reject_what_is_not_their_sort():
    env = {"x": FOUR.one}
    for not_a_node in (None, 0, "x", FOUR.one):
        with pytest.raises(TypeError, match="not a term"):
            eval_term(FOUR, not_a_node, env)
        with pytest.raises(TypeError, match="not a term"):
            eval_term(FOUR, Join(x, not_a_node), env)
        with pytest.raises(TypeError, match="not a formula"):
            eval_formula(FOUR, not_a_node, env)
        with pytest.raises(TypeError, match="not a formula"):
            free_vars(not_a_node)
    for term in (x, Join(x, x), Const(1), Star(x)):
        with pytest.raises(TypeError, match="not a formula"):
            eval_formula(FOUR, term, env)
        with pytest.raises(TypeError, match="not a formula"):
            eval_formula(FOUR, And(Equal(x, x), term), env)
        with pytest.raises(TypeError, match="not a formula"):
            free_vars(term)
    with pytest.raises(TypeError, match="not a term"):
        eval_term(FOUR, Equal(x, x), env)


def test_node_classes_are_final_for_the_evaluators():
    """The evaluators dispatch on the exact class of a node, as Value
    equality does, so an instance of a subclass is not a node."""

    class MyJoin(Join):
        pass

    class MyEqual(Equal):
        pass

    with pytest.raises(TypeError, match="not a term"):
        eval_term(FOUR, MyJoin(x, x), {"x": FOUR.one})
    with pytest.raises(TypeError, match="not a formula"):
        eval_formula(FOUR, MyEqual(x, x), {"x": FOUR.one})
    assert MyJoin(x, x) != Join(x, x)


_UNREADABLE_LEAVES = {
    # printed as "True = 1", which parses to Var('True') = 1
    "const-true": (Equal(Const(True), Const(1)), "not the constant 0 or 1"),
    "const-two": (Equal(Const(2), Const(1)), "not the constant 0 or 1"),
    "var-int": (Equal(Var(3), x), "not a variable name"),
    "var-keyword": (Equal(Var("exists"), x), "not a variable name"),
    "var-space": (Equal(Var("x y"), x), "not a variable name"),
    "var-not-ascii": (Equal(Var("\u00e9"), x), "not a variable name"),
    "var-unhashable": (Equal(x, Var(["x"])), "not a variable name"),
    "bound-keyword": (ForAll("forall", Equal(x, x)), "not a variable name"),
    "bound-int": (Exists(0, Equal(x, x)), "not a variable name"),
}


@pytest.mark.parametrize("f, message", _UNREADABLE_LEAVES.values(), ids=_UNREADABLE_LEAVES)
def test_leaves_that_do_not_read_back_are_type_errors(f, message):
    """A Const other than the int 0 or 1, and a name that is not a str
    reading back as one variable, print text that parses to another tree or
    not at all; every reader rejects them, naming the node."""
    env = {"x": FOUR.one}
    for read in (format_ast, lambda g: eval_formula(FOUR, g, env), lambda g: decide(FOUR, g, env)):
        with pytest.raises(TypeError, match=message):
            read(f)


_CAPS = Caps(max_atoms=96, max_depth=4, max_triples=4000)


def _looks(f):
    """What equality, hash, repr, pickle and copying show of a formula."""
    return f, hash(f), repr(f), pickle.dumps(f), copy.copy(f), copy.deepcopy(f)


def test_stored_read_is_invisible_to_equality_hash_repr_pickle_and_copy():
    """The names a read stores on a formula are not a field: a decided
    formula looks the same as before, and every copy decides as it does."""
    x, y = Var("x"), Var("y")
    f = Exists("y", And(Equal(Meet(x, y), y), ForAll("z", NotEqual(Join(Var("z"), y), Star(x)))))
    before = _looks(f)
    envs = [{"x": v} for v in elements(FOUR)]
    verdicts = [decide(FOUR, f, env, _CAPS) for env in envs]
    after = _looks(f)
    assert after[:4] == before[:4]
    for g in (*before[4:], *after[4:], pickle.loads(before[3])):
        assert g == f and hash(g) == hash(f) and repr(g) == repr(f)
        assert [decide(FOUR, g, env, _CAPS) for env in envs] == verdicts
    assert len(set(verdicts)) == 2


def test_failed_read_stores_nothing():
    """A sentence that does not read raises on every call, not just the first."""
    deep = Equal(Var("x"), Var("x"))
    for _ in range(1500):
        deep = Not(deep)
    for f, error in ((Exists("x", Var("x")), TypeError), (deep, ParseError)):
        for _ in range(2):
            with pytest.raises(error):
                decide(TWO, f, {"x": TWO.one})


def test_quantifier_read_inside_a_sentence_decides_alone_as_a_fresh_copy():
    """The names a quantifier stores while its sentence is read are its own
    free names, so deciding it on its own agrees with a copy never read."""
    x, y, p = Var("x"), Var("y"), Var("p")
    inner = Exists("y", And(Equal(Meet(y, p), x), NotEqual(y, x)))
    sentence = ForAll("x", Or(inner, Equal(x, Star(p))))
    verdicts = set()
    for v in elements(TWO):
        decide(TWO, sentence, {"p": v}, _CAPS)
        for u in elements(TWO):
            env = {"p": v, "x": u}
            verdict = decide(TWO, inner, env, _CAPS)
            assert decide(TWO, copy.deepcopy(inner), env, _CAPS) == verdict
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_each_name_is_checked_once_per_read(monkeypatch):
    read_name = terms._read_name
    checked = []
    monkeypatch.setattr(terms, "_read_name", lambda node, name, read: (
        checked.append(name), read_name(node, name, read)))
    f = parse_formula("exists y. (x . y = x + y & (forall x. (x' = y*)))")
    checked.clear()
    assert format_ast(f) == "exists y. (x . y = x + y & (forall x. (x' = y*)))"
    assert sorted(checked) == ["x", "y"]


def test_free_vars():
    f = parse_formula("exists x. (x . y = z)")
    assert free_vars(f) == {"y", "z"}


def test_valid_identity_examples():
    assert valid_identity(parse_term("~(x + y)"), parse_term("~x . ~y")).valid
    # Boolean and De Morgan negations commute
    assert valid_identity(parse_term("~(x')"), parse_term("(~x)'")).valid
    check = valid_identity(parse_term("x + ~x"), Const(1))
    assert not check.valid
    assert check.counterexample == {"x": FOUR.atom(1)}  # x = a


def test_valid_identity_star_involution():
    assert valid_identity(parse_term("x**"), x).valid


@pytest.mark.parametrize("signature", ["DM", "BDM", "boolean", ""])
def test_valid_identity_rejects_an_unknown_signature(signature):
    with pytest.raises(ValueError, match="signature must be 'dm' or 'bdm'"):
        valid_identity(x, x, signature)


def test_valid_identity_over_the_variable_cap_raises():
    names = [f"v{i}" for i in range(MAX_IDENTITY_VARIABLES + 1)]
    with pytest.raises(CapExceeded):
        valid_identity(parse_term(" + ".join(names)), parse_term(" + ".join(reversed(names))))


def test_valid_identity_dm_signature_guard():
    with pytest.raises(ValueError):
        valid_identity(parse_term("x'"), x, signature="dm")


def _shapes(unary, depth=4):
    """Terms of at most depth operations nested, as nested tuples (operation
    class, operands...) whose leaves are -2 and -1 for the constants 0 and 1
    and 0..3 for the names."""
    leaves = shapes = st.integers(-2, 3)
    for _ in range(depth):
        shapes = st.one_of(
            leaves,
            st.tuples(st.sampled_from([Join, Meet]), shapes, shapes),
            st.tuples(st.sampled_from(unary), shapes),
        )
    return shapes


SHAPES = {"bdm": _shapes([DMNeg, BNeg, Star]), "dm": _shapes([DMNeg])}


def _term(shape, names):
    if isinstance(shape, int):
        return Const(shape + 2) if shape < 0 else Var(names[shape % len(names)])
    op, *args = shape
    return op(*(_term(arg, names) for arg in args))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["bdm", "dm"]), st.data())
def test_valid_identity_matches_the_assignment_loop(signature, data):
    """The one evaluation per side in F(k) gives the verdict and the
    counterexample of trying every assignment into the four-element algebra:
    1 to 4 names drawn from 10, terms of depth at most 4."""
    names = data.draw(st.lists(st.sampled_from([f"v{i}" for i in range(10)]),
                               min_size=1, max_size=4, unique=True))
    t1, t2 = (_term(data.draw(SHAPES[signature]), names) for _ in range(2))
    check = valid_identity(t1, t2, signature)
    cex = failing_assignment(t1, t2)
    assert (check.valid, check.counterexample) == (cex is None, cex)


def test_valid_identity_ten_names():
    names = [f"v{i}" for i in range(10)]
    join = parse_term(" + ".join(names))
    start = time.perf_counter()
    assert valid_identity(join, parse_term(" + ".join(reversed(names)))).valid
    assert time.perf_counter() - start < 0.5
    meet = parse_term(" . ".join(names))
    check = valid_identity(join, meet)
    assert check.counterexample == {**dict.fromkeys(names, FOUR.zero), "v9": FOUR.atom(1)}
    assert check.counterexample == failing_assignment(join, meet)


def test_identity_check_matches_small_algebras():
    # validity over the four-element algebra coincides with validity in
    # every algebra with at most three atoms
    rng = random.Random(20240811)
    pairs = [(random_term(rng, ["x", "y"], 3), random_term(rng, ["x", "y"], 3)) for _ in range(40)]
    pairs += [
        (parse_term("~(x + y)"), parse_term("~x . ~y")),
        (parse_term("x + ~x"), Const(1)),
        (parse_term("x . (y + z)"), parse_term("x . y + x . z")),
    ]
    bases = all_bases(3)
    for t1, t2 in pairs:
        names = sorted(free_vars(Equal(t1, t2)))
        brute = True
        for alg in bases:
            values = elements(alg)
            for combo in _assignments(values, len(names)):
                env = dict(zip(names, combo))
                if eval_term(alg, t1, env) != eval_term(alg, t2, env):
                    brute = False
                    break
            if not brute:
                break
        assert valid_identity(t1, t2).valid == brute


def _assignments(values, k):
    if k == 0:
        yield ()
        return
    for head in values:
        for rest in _assignments(values, k - 1):
            yield (head,) + rest


def test_eval_commutes_with_refinements():
    rng = random.Random(7)
    _, r = twist_product(FOUR)
    for _ in range(50):
        t = random_term(rng, ["x", "y"], 3)
        env = {
            "x": Element(FOUR, {1}),
            "y": Element(FOUR, {2}),
        }
        big_env = {k: r.map_element(v) for k, v in env.items()}
        assert r.map_element(eval_term(FOUR, t, env)) == eval_term(r.target, t, big_env)


def test_translate_identity_embedding():
    f = parse_formula("~x = x", signature="dm")
    assert translate_dm(f, to="bdm") == f


def test_translate_star_to_dm():
    f = parse_formula("y . (x . x*) = 0")
    out = translate_dm(f, to="dm")
    assert format_ast(out) == "exists z. (~x + z = 1 & ~x . z = 0 & y . (x . z) = 0)"
    assert in_dm_signature(out)


def test_translate_bneg_to_dm():
    f = parse_formula("x' . ~x = 0")
    out = translate_dm(f, to="dm")
    assert format_ast(out) == "exists z. (x + z = 1 & x . z = 0 & z . ~x = 0)"


def test_translate_nested_negations():
    f = parse_formula("x'' = x")
    out = translate_dm(f, to="dm")
    assert in_dm_signature(out)
    # two witnesses are introduced, innermost first
    assert format_ast(out).count("exists") == 2


def test_translate_fresh_names_avoid_clashes():
    f = parse_formula("z . x' = 0")
    out = translate_dm(f, to="dm")
    assert format_ast(out) == "exists z1. (x + z1 = 1 & x . z1 = 0 & z . z1 = 0)"


# Repeated, nested and starred complements, and the fresh names z and z1
# already taken, free or bound.
_TRANSLATION_CASES = [
    "x' + x' = x'",
    "x'' = x",
    "(x . y')' != x* . y'",
    "x** = (~x)' . x'*",
    "z . z1' = z2' + z'",
    "exists z. (z' = z1 & (forall z1. (z1* != x')))",
    "x' = y' -> !(x'' = y*)",
    "(x + y)' = x' . y' | ~(x*)' = x",
]


def test_translation_matches_parent_digest():
    """The printed dm translations of the cases above and of 2,000 seeded
    sentences over names that include z and z1 are pinned by the SHA-256
    of their lines, as the recursive rewriting computed them."""
    rng = random.Random(20261020)
    formulas = [parse_formula(text) for text in _TRANSLATION_CASES]
    formulas += [random_formula(rng, ["x", "y", "z", "z1"]) for _ in range(2000)]
    printed = "\n".join(format_ast(translate_dm(f, "dm")) for f in formulas)
    digest = hashlib.sha256(printed.encode()).hexdigest()
    assert digest == "90f1fd1dba0cc8b667d0da81e9823939f7f9db986ee268d79b33ecd762bb70bf"


def test_repeated_deep_complement_gets_one_witness():
    # both sides complement the same 495-level term: one z, 500 levels
    t = "(" + "~" * 494 + "x)'"
    out = translate_dm(parse_formula(f"{t} = {t}"), "dm")
    printed = format_ast(out)
    assert printed.count("exists") == 1 and printed.endswith("z = z)")
    assert format_ast(parse_formula(printed, signature="dm")) == printed


def test_deep_hand_built_tree_is_parse_error_when_printed_or_translated():
    f = Equal(x, x)
    for _ in range(1500):
        f = Not(f)
    with pytest.raises(ParseError, match="nested too deeply"):
        format_ast(f)
    with pytest.raises(ParseError, match="nested too deeply"):
        translate_dm(f, "dm")


def test_parse_deep_nesting_raises_parse_error():
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_formula("(" * 3000 + "x = x" + ")" * 3000)
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_term("~" * 5000 + "x")
