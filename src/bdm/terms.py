"""Terms and first-order formulas over Boole-De Morgan algebras.

Concrete syntax:

    terms     +  join        .  meet        ~t  De Morgan negation
              t' Boolean negation (postfix)  t* star (postfix)
    formulas  =  !=  &  |  !  ->   exists v. (...)   forall v. (...)

Precedence, tightest first: postfix (' *), prefix ~, ., +; and for formulas
!, &, |, -> (right associative).  Quantifiers are only admitted at the top of
a formula, after another quantifier, or inside parentheses.  The parser and
the printer read this grammar from one table, _PRINT.

Parsing rejects a tree of more than 500 levels and more than 500 parentheses
open at once.  The printer, the evaluators, decide and translate_dm hold a
tree built without the parser to the same bound, and translate_dm holds its
output to it too, so every printed tree parses back.

The "dm" signature drops ' and *; parsing rejects them there.  Two trees
are equal when they have the same node classes and leaves in the same
shape; t* and (~t)' denote the same element everywhere but remain distinct
trees.  The node classes are final: evaluation, free_vars and the printer
dispatch on a node's exact class, as equality does, so an instance of a
subclass is not a node.

Every reader of a tree starts with one read of it, without recursion
(_scan), that walks each node by its _PRINT row, as the parser and the
printer do, and answers every question asked of a tree: its sorts, leaves
and depth, its free names, every name it holds, whether it avoids ' and *
(in_dm_signature), and each quantifier's names in play.  The two
evaluators, _mask and _holds, keep their own dispatch class by class; every
other reader takes a node's children from its _PRINT row.  A formula keeps
its read: _scan stores the sorted free names on the root and on each
quantifier, whose free names are its names in play, so decide reads a
sentence once, not once per call.  Evaluation then runs on atom masks:
each subterm's value is an int, built with |, &, ^ full_mask and sigma_mask
as in the table of the algebra module.  _holds interprets every formula,
each quantifier over the domain its caller supplies (decide's witnesses).
Elements appear only at the public edge: eval_term, eval_formula and decide
turn each binding into its mask once, and eval_term turns its one value back
into an Element.
"""

from __future__ import annotations

import itertools
import re
from typing import Mapping, Optional, Union

from .algebra import FOUR, Element, FiniteAlgebra, Value, _set
from .errors import CapExceeded, ParseError


# ---------------------------------------------------------------------------
# Abstract syntax
#
# A node's constructor takes its __slots__ fields in order.  Term nodes hold
# terms; Equal and NotEqual hold two terms, the other formula nodes hold
# formulas, and a quantifier's var is a variable name.  Formula's own slot,
# _read, is not a field: equality, hash, repr, pickle and copy walk the node
# class's __slots__ and never see it (see _scan).


class Term(Value):
    __slots__ = ()


class Const(Term):
    __slots__ = ("value",)  # 0 or 1


class Var(Term):
    __slots__ = ("name",)


class Join(Term):
    __slots__ = ("left", "right")


class Meet(Term):
    __slots__ = ("left", "right")


class BNeg(Term):
    __slots__ = ("arg",)


class DMNeg(Term):
    __slots__ = ("arg",)


class Star(Term):
    __slots__ = ("arg",)


ZERO = Const(0)
ONE = Const(1)


class Formula(Value):
    __slots__ = ("_read",)


class Equal(Formula):
    __slots__ = ("left", "right")


class NotEqual(Formula):
    __slots__ = ("left", "right")


class And(Formula):
    __slots__ = ("left", "right")


class Or(Formula):
    __slots__ = ("left", "right")


class Not(Formula):
    __slots__ = ("arg",)


class Implies(Formula):
    __slots__ = ("left", "right")


class Exists(Formula):
    __slots__ = ("var", "body")


class ForAll(Formula):
    __slots__ = ("var", "body")


Ast = Union[Term, Formula]


# Deepest tree that parse, the evaluators, the printer and translate_dm
# accept, and most parentheses open at once.  The evaluators and the printer
# recurse once per level, and Python stops at about 1,000 frames, so each
# starts with _scan; the parser, _scan and the translation keep their stacks
# in lists.
_MAX_AST_DEPTH = 500


def _scan(root: Ast, formula: bool = True) -> tuple[set[str], bool, set[str], bool]:
    """Read a tree once, without recursion, before anything evaluates it.

    Each node is read by its _PRINT row (see _SORTS): a class without one,
    or one whose own level lies on the other side of _SUM from the sort
    (term or formula) its position asks for, is not of that sort, and the
    row's fields are its children, each of the sort the row asks of it.
    Raises TypeError there, where a Const is not the int 0 or 1, and where
    a name is not a str that reads back as one variable; and ParseError, as
    the parser does, when the tree has more than _MAX_AST_DEPTH levels.
    Returns the free names of root, whether the tree has a quantifier,
    every name it holds, free or bound, and whether it avoids ' and *.

    A read that succeeds is kept: the sorted free names are stored in the
    _read slot of a formula root and of each quantifier, where they are the
    names in play, the free names of its body other than its variable.  A
    read that raises stores nothing.  Nodes are immutable, so a set slot
    vouches for its whole subtree, itself no deeper than _MAX_AST_DEPTH.
    """
    formulas = []  # (node, children) per non-atomic formula, parents first
    free: dict[int, set[str]] = {}  # id of a formula node -> its free names
    top: set[str] = set()  # the free names of a term root
    read: set[str] = set()  # the names checked so far
    dm = True
    stack = [(root, formula, 1, top)]
    while stack:
        node, is_formula, level, names = stack.pop()
        if level > _MAX_AST_DEPTH:
            raise ParseError("formula nested too deeply", 0)
        cls = node.__class__
        row = _SORTS.get(cls)
        if row is None or row[0] == is_formula:
            raise TypeError(f"not a {'formula' if is_formula else 'term'}: {node!r}")
        level += 1
        if cls is Var:
            if node.name.__class__ is not str or node.name not in read:
                _read_name(node, node.name, read)
            names.add(node.name)
        elif cls is Const:
            if node.value.__class__ is not int or node.value not in (0, 1):
                raise TypeError(f"not the constant 0 or 1: {node!r}")
        elif cls is Equal or cls is NotEqual:
            names = free[id(node)] = set()
        elif is_formula:
            formulas.append((node, row[1]))
            if cls is Exists or cls is ForAll:
                if node.var.__class__ is not str or node.var not in read:
                    _read_name(node, node.var, read)
        elif cls is BNeg or cls is Star:
            dm = False
        for field, sort in row[1]:
            stack.append((getattr(node, field), sort, level, names))
    quantified = False
    for node, children in reversed(formulas):
        names = set().union(*[free[id(getattr(node, field))] for field, _ in children])
        if node.__class__ is Exists or node.__class__ is ForAll:
            names.discard(node.var)
            _set(node, "_read", tuple(sorted(names)))
            quantified = True
        free[id(node)] = names
    if not formula:
        return top, False, read, dm
    _set(root, "_read", tuple(sorted(free[id(root)])))
    return free[id(root)], quantified, read, dm


def _free_names(f: Formula) -> tuple[str, ...]:
    """The sorted free names of a formula, as its first read stored them;
    a formula not read yet is read by _scan, which may raise."""
    read = getattr(f, "_read", None) if isinstance(f, Formula) else None
    if read is None:
        _scan(f)
        read = f._read
    return read


def _is_variable_name(name) -> bool:
    """Whether name is a str the tokenizer reads as one variable: an ASCII
    identifier, not a quantifier."""
    return (name.__class__ is str and name.isascii() and name.isidentifier()
            and name not in _BEFORE_OPERAND)


def _read_name(node: Ast, name, read: set[str]) -> None:
    """Add name to read; raise TypeError naming node unless it is a variable name."""
    if not _is_variable_name(name):
        raise TypeError(f"not a variable name: {node!r}")
    read.add(name)


def free_vars(f: Formula) -> frozenset[str]:
    return frozenset(_free_names(f))


def in_dm_signature(ast: Ast) -> bool:
    """True when the term or formula avoids Boolean negation and star.
    Raises TypeError and ParseError as _scan does."""
    return _scan(ast, not isinstance(ast, Term))[3]


# ---------------------------------------------------------------------------
# Grammar, shared by the parser and the printer

# Binding levels, loosest first; _TOP is a formula position at the top level
# or directly inside parentheses.  A node is parenthesized when its own level
# is below the level its parent asks of that child.
_TOP, _IMP, _OR, _AND, _NOT, _SUM, _PROD, _PREFIX, _POSTFIX = range(-1, 8)

# class -> (own level, template over the node's fields, level of each child);
# a child asked for at _SUM or above is a term, below it a formula
_PRINT = {
    Const: (_POSTFIX, "%(value)s", {}),
    Var: (_POSTFIX, "%(name)s", {}),
    Join: (_SUM, "%(left)s + %(right)s", {"left": _SUM, "right": _PROD}),
    Meet: (_PROD, "%(left)s . %(right)s", {"left": _PROD, "right": _PREFIX}),
    DMNeg: (_PREFIX, "~%(arg)s", {"arg": _PREFIX}),
    BNeg: (_POSTFIX, "%(arg)s'", {"arg": _POSTFIX}),
    Star: (_POSTFIX, "%(arg)s*", {"arg": _POSTFIX}),
    Equal: (_NOT, "%(left)s = %(right)s", {"left": _SUM, "right": _SUM}),
    NotEqual: (_NOT, "%(left)s != %(right)s", {"left": _SUM, "right": _SUM}),
    Implies: (_IMP, "%(left)s -> %(right)s", {"left": _OR, "right": _IMP}),
    Or: (_OR, "%(left)s | %(right)s", {"left": _OR, "right": _AND}),
    And: (_AND, "%(left)s & %(right)s", {"left": _AND, "right": _NOT}),
    Not: (_NOT, "!%(arg)s", {"arg": _NOT}),
    # quantifiers are grammatical only at formula positions
    Exists: (_TOP, "exists %(var)s. (%(body)s)", {"body": _TOP}),
    ForAll: (_TOP, "forall %(var)s. (%(body)s)", {"body": _TOP}),
}

# class -> (whether it is a term, (field, whether it holds a formula) per
# child): its _PRINT row as _scan reads it
_SORTS = {
    cls: (own >= _SUM, tuple((name, level < _SUM) for name, level in child_levels.items()))
    for cls, (own, _, child_levels) in _PRINT.items()
}

# Operator symbols by where they stand; everything else about an operator is
# in its _PRINT row.
_BEFORE_OPERAND = {"~": DMNeg, "!": Not, "exists": Exists, "forall": ForAll}
_AFTER_OPERAND = {
    "'": BNeg, "*": Star, "+": Join, ".": Meet, "=": Equal, "!=": NotEqual,
    "&": And, "|": Or, "->": Implies,
}

# class -> level it asks of its last operand; None, an open parenthesis,
# asks _TOP of its contents
_LAST_OPERAND = {
    cls: [*child_levels.values()][-1]
    for cls, (_, _, child_levels) in _PRINT.items()
    if child_levels
}
_LAST_OPERAND[None] = _TOP


# ---------------------------------------------------------------------------
# Parsing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<num>[01])"
    r"|(?P<sym>->|!=|[+.'*~()=&|!]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        tokens.append((m.lastgroup, m[m.lastgroup], m.start(m.lastgroup)))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


def _build(operands: list[Ast], op: tuple) -> None:
    """Replace the top operands by the node of `op`, checking that each has
    the sort (term or formula) its _PRINT row asks for."""
    cls, fields, symbol, pos = op
    child_levels = _PRINT[cls][2].values()
    split = len(operands) - len(child_levels)
    args = operands[split:]
    del operands[split:]
    for arg, level in zip(args, child_levels):
        if isinstance(arg, Term) != (level >= _SUM):
            sort = "terms" if level >= _SUM else "formulas"
            raise ParseError(f"{symbol!r} applies to {sort} only", pos)
    operands.append(cls(*fields, *args))


def _check_signature(signature: str) -> None:
    if signature not in ("dm", "bdm"):
        raise ValueError("signature must be 'dm' or 'bdm'")


def parse(text: str, signature: str = "bdm", kind: str = "formula") -> Ast:
    """Parse a term or formula; positions in errors are 0-based offsets.

    One pass over the tokens with an operand stack and an operator stack.
    An operator waits on its stack until one arrives that the printer would
    not put inside its last operand (its own level is lower), or until its
    group or the text ends; then it is built from the top operands.  The
    tree is then read by _scan, and a formula keeps that read.
    """
    _check_signature(signature)
    if kind not in ("term", "formula"):
        raise ValueError("kind must be 'term' or 'formula'")
    operands: list[Ast] = []
    operators: list[tuple] = []  # (class, leading fields, symbol, pos)
    opened = 0
    want_operand = True
    tokens = iter(_tokenize(text))
    for tok, val, pos in tokens:
        if want_operand:
            if tok == "num":
                operands.append(ONE if val == "1" else ZERO)
                want_operand = False
            elif tok == "ident" and val not in _BEFORE_OPERAND:
                operands.append(Var(val))
                want_operand = False
            elif val == "(":
                opened += 1
                if opened > _MAX_AST_DEPTH:
                    raise ParseError("formula nested too deeply", pos)
                operators.append((None, (), val, pos))
            elif val in _BEFORE_OPERAND:
                cls = _BEFORE_OPERAND[val]
                # as in printing: a quantifier stands only at the start,
                # after '(' or after another quantifier
                if operators and _LAST_OPERAND[operators[-1][0]] > _PRINT[cls][0]:
                    raise ParseError(f"{val!r} binds looser than what precedes it", pos)
                fields = ()
                if tok == "ident":  # a quantifier: read its variable and '.'
                    vtok, var, vpos = next(tokens)
                    if vtok != "ident" or var in _BEFORE_OPERAND:
                        raise ParseError("expected a variable name", vpos)
                    _, dot, dpos = next(tokens)
                    if dot != ".":
                        raise ParseError("expected '.'", dpos)
                    fields = (var,)
                operators.append((cls, fields, val, pos))
            else:
                raise ParseError("expected a term", pos)
        elif val in _AFTER_OPERAND:
            cls = _AFTER_OPERAND[val]
            if signature == "dm" and cls in (BNeg, Star):
                raise ParseError(f"{val!r} is not part of the dm signature", pos)
            own, _, child_levels = _PRINT[cls]
            while operators and _LAST_OPERAND[operators[-1][0]] > own:
                _build(operands, operators.pop())
            if len(child_levels) == 1:  # postfix: its operand is complete
                _build(operands, (cls, (), val, pos))
            else:
                operators.append((cls, (), val, pos))
                want_operand = True
        elif val == ")" or tok == "eof":
            while operators and operators[-1][0] is not None:
                _build(operands, operators.pop())
            if val == ")":
                if not operators:
                    raise ParseError("unmatched ')'", pos)
                operators.pop()
                opened -= 1
            elif operators:
                raise ParseError("expected ')'", pos)
        else:
            raise ParseError("expected an operator", pos)
    (ast,) = operands
    if isinstance(ast, Term) != (kind == "term"):
        raise ParseError(f"expected a {kind}", 0)
    _scan(ast, kind == "formula")
    return ast


def parse_term(text: str, signature: str = "bdm") -> Term:
    return parse(text, signature, "term")


def parse_formula(text: str, signature: str = "bdm") -> Formula:
    return parse(text, signature, "formula")


# ---------------------------------------------------------------------------
# Printing

def _fmt(node: Ast, level: int) -> str:
    # One frame per level: the calls that read a node's fields return
    # before the recursion goes deeper, so a tree of _MAX_AST_DEPTH levels
    # prints within the default limit of 1,000 frames.
    own, template, child_levels = _PRINT[node.__class__]
    fields = dict(zip(node.__slots__, node._fields()))
    for name in child_levels:
        fields[name] = _fmt(fields[name], child_levels[name])
    s = template % fields
    return f"({s})" if own < level else s


def format_ast(ast: Ast) -> str:
    """Render a term or formula; parse(format_ast(a)) == a structurally.

    Raises TypeError and ParseError as _scan does, so every printed tree
    parses back.
    """
    term = isinstance(ast, Term)
    _scan(ast, not term)
    return _fmt(ast, _SUM if term else _TOP)


# ---------------------------------------------------------------------------
# Evaluation

def _binding_mask(alg: FiniteAlgebra, name: str, value: Element, outside: str) -> int:
    """The mask of a caller's binding, checked once at the public edge."""
    if not isinstance(value, Element):
        raise TypeError(f"variable {name!r} is bound to a {type(value).__name__}, not an Element")
    if value.algebra is not alg and value.algebra != alg:
        raise ValueError(f"variable {name!r} is bound outside {outside}")
    return value.mask


def _masks(alg: FiniteAlgebra, names: set[str], env: Mapping[str, Element]) -> dict[str, int]:
    """The masks of the bindings of the names that occur."""
    masks = {}
    for name in sorted(names):
        try:
            value = env[name]
        except KeyError:
            raise ValueError(f"unbound variable {name!r}") from None
        masks[name] = _binding_mask(alg, name, value, "the algebra")
    return masks


# _mask and _holds evaluate a tree that _scan has read, now or on an earlier
# call (the names stored on the formula vouch for that read): every node is
# of its sort, every name is bound to a mask of alg, and quantifiers get a step.

def _mask(alg: FiniteAlgebra, t: Term, env: Mapping[str, int]) -> int:
    """The atom mask of t's value in alg."""
    cls = t.__class__
    if cls is Var:
        return env[t.name]
    if cls is Join:
        return _mask(alg, t.left, env) | _mask(alg, t.right, env)
    if cls is Meet:
        return _mask(alg, t.left, env) & _mask(alg, t.right, env)
    if cls is BNeg:
        return _mask(alg, t.arg, env) ^ alg.full_mask
    if cls is DMNeg:
        return alg.sigma_mask(_mask(alg, t.arg, env)) ^ alg.full_mask
    if cls is Star:
        return alg.sigma_mask(_mask(alg, t.arg, env))
    return alg.full_mask if t.value else 0  # Const


def _holds(alg: FiniteAlgebra, f: Formula, env: Mapping[str, int], step=None) -> bool:
    """Whether f holds, comparing masks.  At a quantifier, step(alg, f, env)
    gives the step for the body and the (algebra, bindings) pairs to try: an
    existential stops at the first where the body holds, a universal at the
    first where it fails.  The loop is here: one frame per level of the tree."""
    cls = f.__class__
    if cls is Equal:
        return _mask(alg, f.left, env) == _mask(alg, f.right, env)
    if cls is NotEqual:
        return _mask(alg, f.left, env) != _mask(alg, f.right, env)
    if cls is And:
        return _holds(alg, f.left, env, step) and _holds(alg, f.right, env, step)
    if cls is Or:
        return _holds(alg, f.left, env, step) or _holds(alg, f.right, env, step)
    if cls is Not:
        return not _holds(alg, f.arg, env, step)
    if cls is Implies:
        return (not _holds(alg, f.left, env, step)) or _holds(alg, f.right, env, step)
    stop = cls is Exists
    inner, pairs = step(alg, f, env)
    for sub, bindings in pairs:
        if _holds(sub, f.body, bindings, inner) is stop:
            return stop
    return not stop


def eval_term(alg: FiniteAlgebra, t: Term, env: Mapping[str, Element]) -> Element:
    names = _scan(t, False)[0]
    return Element.from_mask(alg, _mask(alg, t, _masks(alg, names, env)))


def eval_formula(alg: FiniteAlgebra, f: Formula, env: Mapping[str, Element]) -> bool:
    """Evaluate a quantifier-free formula pointwise, comparing masks."""
    names, quantified = _scan(f)[:2]
    if quantified:
        raise ValueError("quantified formulas need the decision procedure")
    return _holds(alg, f, _masks(alg, names, env))


# ---------------------------------------------------------------------------
# Identity checking

class IdentityCheck(Value):
    """Outcome of an identity check; truthy iff the identity is valid."""

    __slots__ = ("valid", "counterexample")

    def __init__(self, valid: bool, counterexample: Optional[dict[str, Element]]):
        super().__init__(valid, counterexample)

    def __bool__(self) -> bool:
        return self.valid

    def __hash__(self):  # the counterexample is a dict: hash its items
        return hash((self.valid, frozenset((self.counterexample or {}).items())))


# Bound on the variables of an identity: k variables give F(k) 4^k atoms, so
# ten make each table 2^20 bits and each more multiplies its size by four.
MAX_IDENTITY_VARIABLES = 10


def _low_tables(b: int) -> list[int]:
    """The truth tables of the low b atoms over the masks 0..2^b-1: bit k
    of the table of atom j+1 is bit j of k.  Built by doubling the width,
    the new top atom being zero on the lower half and one on the upper."""
    tables: list[int] = []
    for j in range(b):
        width = 1 << j
        tables = [x | x << width for x in tables]
        tables.append(((1 << width) - 1) << width)
    return tables


class _Free:
    """The free algebra F(k) as _mask reads it, from _low_tables(2k).  Its
    atoms are the 4^k patterns of k 2-bit digits, and star swaps the bits of
    each digit i, trading the patterns whose digit i is 01 with those 4^i above."""

    def __init__(self, tables: list[int]):
        self.full_mask = (1 << (1 << len(tables))) - 1
        self._swaps = [(1 << i, tables[i] & ~tables[i + 1]) for i in range(0, len(tables), 2)]

    def sigma_mask(self, mask: int) -> int:
        for d, low in self._swaps:
            flip = (mask >> d ^ mask) & low
            mask ^= flip | flip << d
        return mask


def valid_identity(t1: Term, t2: Term, signature: str = "bdm") -> IdentityCheck:
    """Decide whether t1 = t2 holds under every assignment into the
    four-element algebra; the least failing one is reported.

    Truth in the four-element algebra settles truth in every algebra here:
    both signatures' varieties are generated by it.  So each side is read
    once in F(k), the j-th of the k sorted names being bit 0 of digit k-1-j.
    With more than MAX_IDENTITY_VARIABLES variables CapExceeded is raised
    before any table is built.
    """
    _check_signature(signature)
    names1, _, _, dm1 = _scan(t1, False)
    names2, _, _, dm2 = _scan(t2, False)
    if signature == "dm" and not (dm1 and dm2):
        raise ValueError("terms use operations outside the dm signature")
    names = sorted(names1 | names2)
    k = len(names)
    if k > MAX_IDENTITY_VARIABLES:
        raise CapExceeded(
            f"{k} variables need 4^{k} assignments, cap is {MAX_IDENTITY_VARIABLES} variables",
            cap="MAX_IDENTITY_VARIABLES", needed=k, limit=MAX_IDENTITY_VARIABLES,
        )
    tables = _low_tables(2 * k)
    free = _Free(tables)
    env = {name: tables[2 * (k - 1 - j)] for j, name in enumerate(names)}
    diff = _mask(free, t1, env) ^ _mask(free, t2, env)
    diff |= free.sigma_mask(diff)
    if not diff:
        return IdentityCheck(True, None)
    # the digits of p assign the names: atom 1 then has pattern p, atom 2 its star image
    p = (diff & -diff).bit_length() - 1
    return IdentityCheck(False, {name: Element.from_mask(FOUR, p >> 2 * (k - 1 - j) & 3)
                                 for j, name in enumerate(names)})


# ---------------------------------------------------------------------------
# Signature translation

def _fresh_names(avoid: set[str]):
    if "z" not in avoid:
        yield "z"
    for i in itertools.count(1):
        name = f"z{i}"
        if name not in avoid:
            yield name


def _to_dm(f: Formula, fresh) -> Formula:
    """The dm translation of a formula that _scan has read, built in one
    post-order pass that keeps its stack in a list.

    t* is read as (~t)'.  Inside each atom every distinct rewritten t under
    a ' becomes one fresh z, named in the order the complements complete,
    and the atom is wrapped in exists z. (t + z = 1 & t . z = 0 & ...), the
    first z outermost.  Equal rewritten terms are one object, found by their
    class and the ids of their parts, so no lookup compares trees.
    """
    done: list[Ast] = []  # the rewritten children of the nodes still open
    shared: dict = {}  # a leaf, or (class, ids of rewritten parts) -> the term
    complements: dict[int, tuple[Term, Var]] = {}  # id of t -> (t, z), per atom
    stack = [(f, False)]
    while stack:
        node, complete = stack.pop()
        cls = node.__class__
        parts = _PRINT[cls][2]  # the names of its subtree fields, in order
        if not complete:
            if cls is Equal or cls is NotEqual:
                complements = {}
            stack.append((node, True))
            stack.extend((getattr(node, name), False) for name in reversed(parts))
            continue
        args = done[len(done) - len(parts):]
        del done[len(done) - len(parts):]
        if cls is BNeg or cls is Star:
            (t,) = args
            if cls is Star:
                t = shared.setdefault((DMNeg, id(t)), DMNeg(t))
            if id(t) not in complements:
                complements[id(t)] = (t, Var(next(fresh)))
            done.append(complements[id(t)][1])
        elif issubclass(cls, Term):
            key = (cls, *map(id, args)) if args else node
            done.append(shared.setdefault(key, cls(*args) if args else node))
        elif cls is Equal or cls is NotEqual:
            g = cls(*args)
            for t, z in reversed(complements.values()):
                g = Exists(z.name, And(And(Equal(Join(t, z), ONE), Equal(Meet(t, z), ZERO)), g))
            done.append(g)
        elif cls is Exists or cls is ForAll:
            done.append(cls(node.var, *args))
        else:
            done.append(cls(*args))
    return done[0]


def translate_dm(f: Formula, to: str = "bdm") -> Formula:
    """Move a formula between the dm and bdm signatures.

    dm -> bdm is the identity embedding.  bdm -> dm removes star and Boolean
    negation: each complemented subterm t' becomes a fresh variable z bound
    by exists and pinned down by t + z = 1 and t . z = 0.  The complement is
    unique, so the rewriting preserves truth values in complemented algebras
    under either polarity.  Each complement deepens the tree by two levels;
    f and its translation are read by _scan, which raises ParseError when
    either has more than _MAX_AST_DEPTH levels.
    """
    if to == "bdm":
        return f
    if to != "dm":
        raise ValueError("translation target must be 'dm' or 'bdm'")
    g = _to_dm(f, _fresh_names(_scan(f)[2]))
    _scan(g)
    return g
