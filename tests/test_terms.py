import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdm.algebra import FOUR, TWO, Element, four_power, twist_product
from bdm.errors import CapExceeded, ParseError
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
