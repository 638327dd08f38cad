"""Command-line front end.

Exit codes: 0 for true/satisfiable/success, 1 for false/unsatisfiable/absent,
2 for usage or parse errors, 3 for an exhausted resource budget, 4 for an
internal error.  Results go to stdout, diagnostics to stderr; identical
inputs produce byte-identical output.

Each command is one row of `_COMMANDS`: its help line, its handler and
its arguments, as `add_argument`'s (flag, options) pairs; `oracle`'s row
holds its own table of subcommands in place of a handler.  `build_parser`
walks the table, adding `--json` last to every command with a handler.

Each `_cmd_*` handler returns `(code, out)`: `out` is the text to print,
ending in a newline, or under `--json` a dict that `main` prints as one
line of JSON with sorted keys.  `extend-stage`, whose answer runs to
megabytes, returns an iterator of pieces of its text or JSON line instead,
at most 4,096 stage rows each, which `main` writes as they are made.
`main` is the only writer to stdout.  It writes and flushes a handler's
output inside the `try` around the handler, so a command that fails
prints nothing to stdout, and a failed write (a closed pipe) exits 2 like
any other OSError.  After a broken pipe stdout is pointed at the null
device, so the interpreter's own flush at exit has nothing left to fail
on.  `json` is imported only for a `--json` answer.

A `bdm` process, the console script or `python -m bdm.cli`, starts in
`run`, which freezes the objects made by the imports (`gc.freeze`) before
calling `main`, so no collection walks them again, the interpreter's own
at exit included.  `main(argv)` called in process leaves the collector as
it finds it.  When the first argument names a command, `main` builds only
that command's parser (`build_parser(command)`); help, no command and an
unknown command get the parser of every command, so all of them print the
same bytes either way.
"""

from __future__ import annotations

import argparse
import gc
import io
import os
import sys
from pathlib import Path
from typing import Optional

from . import oracle as oracle_mod
from . import textio
from .algebra import Element, amalgamate, identity_refinement, sorted_atoms
from .errors import (
    BdmError,
    CapExceeded,
    InconsistentTripleError,
    NoRealizerError,
    ParseError,
    TrivialTripleError,
)
from .model import build_chain
from .solver import (
    Caps,
    DEFAULT_CAPS,
    decide,
    in_acl,
    is_sigma_consistent,
    is_trivial,
    realizations,
    triple_of_element,
    witness_abstract,
    witness_via_four_power,
)
from .terms import Var, format_ast, parse_formula, parse_term, translate_dm, valid_identity


def _load_algebra(path: str):
    return textio.parse_algebra(Path(path).read_text())


def _load_triple(args):
    return textio.parse_triple(args.triple, _load_algebra(args.algebra))


def _load_refinement(path: str):
    return textio.parse_refinement(Path(path).read_text())


def _load_embedding(args):
    """The --embedding refinement, or the identity on --algebra without one;
    its source must be the --algebra algebra."""
    alg = _load_algebra(args.algebra)
    r = _load_refinement(args.embedding) if args.embedding else identity_refinement(alg)
    if r.source != alg:
        raise ParseError("the embedding's source differs from --algebra")
    return r


# ---------------------------------------------------------------------------
# handlers

def _verdict(args, key: str, ok: bool):
    """A yes/no answer: exit 0 for true, 1 for false."""
    return (0 if ok else 1), ({key: ok} if args.json else "true\n" if ok else "false\n")


def _cmd_check(args):
    alg = _load_algebra(args.algebra)
    return 0, textio.algebra_json(alg) if args.json else textio.format_algebra(alg)


def _cmd_consistent(args):
    return _verdict(args, "consistent", is_sigma_consistent(_load_triple(args)))


def _cmd_witness(args):
    t = _load_triple(args)
    build = witness_abstract if args.via == "abstract" else witness_via_four_power
    w = build(t)
    return 0, textio.witness_json(w) if args.json else textio.format_witness(w)


def _is_variable(name: str) -> bool:
    """Whether name parses as exactly one variable."""
    try:
        return parse_term(name) == Var(name)
    except ParseError:
        return False


def _cmd_decide(args):
    alg = _load_algebra(args.algebra)
    f = parse_formula(args.formula)
    env = {}
    for binding in args.let or []:
        name, eq, value = binding.partition("=")
        if not eq:
            raise ParseError(f"--let expects NAME=ELEMENT, got {binding!r}")
        name = name.strip()
        if not _is_variable(name):
            raise ParseError(f"--let {binding!r}: {name!r} is not a variable name")
        if name in env:
            raise ParseError(f"--let binds {name!r} twice")
        env[name] = textio.parse_element(value, alg)
    caps = Caps(max_atoms=args.max_atoms, max_depth=args.max_depth, max_triples=args.max_triples)
    return _verdict(args, "true", decide(alg, f, env, caps))


def _cmd_type_of(args):
    r = _load_embedding(args)
    u = textio.parse_element(args.element, r.target)
    t = triple_of_element(r, u)
    return 0, textio.triple_json(t) if args.json else textio.format_triple(t) + "\n"


def _triviality(args, find, realizer: bool):
    """`trivial` and `oracle trivial`: the mask of the base element
    realizing the triple, which only the first also prints as a realizer."""
    t = _load_triple(args)
    mask = find(t)
    if mask is None:
        return 1, {"trivial": False} if args.json else "nontrivial\n"
    if args.json:
        atoms = sorted_atoms(mask)
        return 0, {"trivial": True, "I": atoms} | ({"realizer": atoms} if realizer else {})
    text = f"I={textio.format_mask(mask)}"
    if realizer:
        text += f" realizer {textio.format_element(Element.from_mask(t.algebra, mask))}"
    return 0, text + "\n"


def _cmd_trivial(args):
    return _triviality(args, is_trivial, realizer=True)


def _cmd_realize(args):
    _, emb, elems = realizations(_load_triple(args), args.count)
    if args.json:
        elements = [textio.element_json(e) for e in elems]
        return 0, textio.extension_json(emb) | {"elements": elements}
    lines = textio.extension_lines(emb) + [f"element {textio.format_element(e)}" for e in elems]
    return 0, "\n".join(lines) + "\n"


def _cmd_acl(args):
    r = _load_embedding(args)
    w = textio.parse_element(args.element, r.target)
    return _verdict(args, "in_acl", in_acl(r, w))


def _cmd_equiv(args):
    t1 = parse_term(args.term1, args.signature)
    t2 = parse_term(args.term2, args.signature)
    check = valid_identity(t1, t2, args.signature)
    if check.valid:
        return 0, {"valid": True} if args.json else "valid\n"
    cex = sorted(check.counterexample.items())
    if args.json:
        return 1, {"valid": False,
                   "counterexample": {name: textio.element_json(e) for name, e in cex}}
    parts = " ".join(f"{name}={textio.format_element(e)}" for name, e in cex)
    return 1, f"invalid: {parts}\n" if parts else "invalid\n"


def _cmd_translate(args):
    text = format_ast(translate_dm(parse_formula(args.formula), to=args.to))
    return 0, {"formula": text} if args.json else text + "\n"


def _cmd_amalgamate(args):
    r1 = _load_refinement(args.left)
    r2 = _load_refinement(args.right)
    amalgam, s1, s2 = amalgamate(r1, r2)
    if args.json:
        return 0, {
            "amalgam": textio.algebra_json(amalgam),
            "left": textio.refinement_json(s1),
            "right": textio.refinement_json(s2),
        }
    return 0, (textio.format_algebra(amalgam) + "left\n" + textio.format_refinement(s1)
               + "right\n" + textio.format_refinement(s2))


def _cmd_extend_stage(args):
    alg = _load_algebra(args.algebra)
    # a stage has no quantifiers, so it takes no depth budget
    caps = Caps(max_atoms=args.max_atoms, max_triples=args.max_triples)
    stages = build_chain(alg, args.depth, caps)
    return 0, (textio.stages_json_text if args.json else textio.stages_text)(stages)


def _cmd_oracle_realizations(args):
    r = _load_embedding(args)
    t = textio.parse_triple(args.triple, r.source)
    found = oracle_mod.all_realizations_in(r, t)
    code = 0 if found else 1
    if args.json:
        return code, {"elements": [textio.element_json(e) for e in found]}
    return code, "".join(f"{textio.format_element(e)}\n" for e in found) or "none\n"


def _cmd_oracle_witness(args):
    t = _load_triple(args)
    w = oracle_mod.oracle_witness_search(t, max_atoms=args.max_atoms)
    if w is not None:
        return 0, {"witness": textio.witness_json(w)} if args.json else textio.format_witness(w)
    if is_sigma_consistent(t):
        # a realizer exists, so the search ran out of atoms
        raise CapExceeded(f"no witness found within {args.max_atoms} atoms")
    return 1, {"witness": None} if args.json else "absent\n"


def _cmd_oracle_trivial(args):
    return _triviality(args, oracle_mod.brute_force_trivial, realizer=False)


def _cmd_oracle_count_free(args):
    count = oracle_mod.free_function_count(args.k)
    return 0, {"count": count} if args.json else f"{count}\n"


# ---------------------------------------------------------------------------

# Arguments shared by several rows below: (name or flag, add_argument options).
_ALGEBRA = ("--algebra", {"required": True, "metavar": "FILE", "help": "algebra file"})
_TRIPLE = ("triple", {})
_ELEMENT = ("element", {})
_EMBEDDING = ("--embedding", {"metavar": "FILE"})
_CAPS = (
    ("--max-atoms", {"type": int, "default": DEFAULT_CAPS.max_atoms, "metavar": "N"}),
    ("--max-triples", {"type": int, "default": DEFAULT_CAPS.max_triples, "metavar": "N"}),
)
_JSON = ("--json", {"action": "store_true", "help": "machine-readable output"})

# Per command, in the order the top-level help lists them: its help line,
# its handler (for oracle, its own table of subcommands) and then its
# arguments in the order its help lists them.
_COMMANDS = {
    "check": ("validate and normalize an algebra file", _cmd_check, _ALGEBRA),
    "consistent": ("test a triple for sigma-consistency", _cmd_consistent, _ALGEBRA, _TRIPLE),
    "witness": ("construct a realizer for a triple", _cmd_witness, _ALGEBRA, _TRIPLE,
                ("--via", {"choices": ("abstract", "power4"), "default": "abstract"})),
    "decide": ("decide a formula over the parameter algebra", _cmd_decide,
               _ALGEBRA, ("formula", {}),
               ("--let", {"action": "append", "metavar": "NAME=ELEMENT"}),
               ("--max-depth", {"type": int, "default": DEFAULT_CAPS.max_depth, "metavar": "N"}),
               *_CAPS),
    "type-of": ("the triple of an element over a base", _cmd_type_of,
                _ALGEBRA, _ELEMENT, _EMBEDDING),
    "trivial": ("test a triple for base-triviality", _cmd_trivial, _ALGEBRA, _TRIPLE),
    "realize": ("distinct realizers of a non-trivial triple", _cmd_realize, _ALGEBRA, _TRIPLE,
                ("--count", {"type": int, "default": 3, "metavar": "K"})),
    "acl": ("is an element algebraic over the base?", _cmd_acl, _ALGEBRA, _ELEMENT,
            ("--embedding", {"required": True, "metavar": "FILE"})),
    "equiv": ("check an identity between two terms", _cmd_equiv, ("term1", {}), ("term2", {}),
              ("--signature", {"choices": ("bdm", "dm"), "default": "bdm"})),
    "translate": ("move a formula between signatures", _cmd_translate, ("formula", {}),
                  ("--to", {"choices": ("dm", "bdm"), "required": True})),
    "amalgamate": ("amalgamate two extensions of a base", _cmd_amalgamate,
                   ("--left", {"required": True, "metavar": "FILE"}),
                   ("--right", {"required": True, "metavar": "FILE"})),
    "extend-stage": ("build existentially closed stages", _cmd_extend_stage, _ALGEBRA,
                     ("--depth", {"type": int, "default": 1, "metavar": "N"}), *_CAPS),
    "oracle": ("brute-force counterparts", {
        "realizations": ("all realizers inside a target", _cmd_oracle_realizations,
                         _ALGEBRA, _TRIPLE, _EMBEDDING),
        "witness": ("search four-power extensions", _cmd_oracle_witness, _ALGEBRA, _TRIPLE,
                    ("--max-atoms", {"type": int, "default": 16, "metavar": "N"})),
        "trivial": ("triviality by subset scan", _cmd_oracle_trivial, _ALGEBRA, _TRIPLE),
        "count-free": ("closure size of k projections", _cmd_oracle_count_free,
                       ("k", {"type": int})),
    }),
}


def _add_commands(sub, commands) -> None:
    """Add a parser per row of commands to the subparsers sub: a command
    with a table of subcommands stores the chosen one as <name>_command,
    and every other takes its arguments, then --json, and its handler."""
    for name, (help_line, handler, *arguments) in commands.items():
        p = sub.add_parser(name, help=help_line)
        if isinstance(handler, dict):
            _add_commands(p.add_subparsers(dest=f"{name}_command", required=True), handler)
            continue
        for flag, options in (*arguments, _JSON):
            p.add_argument(flag, **options)
        p.set_defaults(func=handler)


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every command, or, given one of them, the top level
    and that command's parser alone (with all its oracle subcommands).  The
    latter reads that command's arguments, help and errors as the former
    does: its usage line names every command, for an unrecognized argument
    is reported there."""
    parser = argparse.ArgumentParser(
        prog="bdm",
        description="Finite Boole-De Morgan algebras: types, witnesses, decisions.",
    )
    every = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=every)
    _add_commands(sub, _COMMANDS if command is None else {command: _COMMANDS[command]})
    return parser


def _write(text: str) -> None:
    """Write text to stdout.  Unbuffered (`python -u`), the text layer
    writes straight to the raw file and drops the count of a short write,
    which is what a pipe returns when its reader leaves; so the bytes go to
    the raw file until all are out or a write fails."""
    out = sys.stdout
    raw = getattr(out, "buffer", None)
    if isinstance(raw, io.RawIOBase):
        data = memoryview(text.encode(out.encoding, out.errors))
        while data:
            data = data[raw.write(data):]
    else:
        out.write(text)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # only the named command's parser; anything else needs every parser
    # for its help or its error
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        code, out = args.func(args)
        if isinstance(out, dict):
            import json  # deferred: only --json answers need it

            out = [json.dumps(out, sort_keys=True) + "\n"]
        elif isinstance(out, str):
            out = [out]
        for text in out:
            _write(text)
        sys.stdout.flush()
        return code
    except CapExceeded as e:
        print(f"resource cap exceeded: {e}", file=sys.stderr)
        return 3
    except (InconsistentTripleError, TrivialTripleError, NoRealizerError) as e:
        print(f"no result: {e}", file=sys.stderr)
        return 1
    except BrokenPipeError as e:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (OSError, ValueError, BdmError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception:
        import traceback  # deferred: only this path needs it

        traceback.print_exc()
        print("internal error", file=sys.stderr)
        return 4


def run() -> int:
    """The `bdm` process: freeze the import-time objects, then main() on
    sys.argv (see the module docstring)."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
