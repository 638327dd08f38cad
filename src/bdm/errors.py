"""Exception types shared across the package."""


class BdmError(Exception):
    pass


class ParseError(BdmError):
    """Syntax or format error in a textual input; carries the offset."""

    def __init__(self, message, pos=None):
        self.pos = pos
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)


class CapExceeded(BdmError):
    """A resource budget (atoms, quantifier depth, triple count) ran out.

    Distinct from a negative answer: the computation was abandoned, not
    refuted.  cap names what ran out: a Caps field ("max_depth",
    "max_triples" or "max_atoms"), a module constant
    ("MAX_REALIZATION_ATOMS", "MAX_SCAN_ATOMS" or "MAX_IDENTITY_VARIABLES"),
    oracle witness's max_atoms option, or free_function_count's k.  limit
    is its value and needed what the step asked for, or None where that is
    too large to build (n*4^k realization atoms past the cap's bit length)
    or unknown (a witness search that ran out of atoms).  stage is the
    chain stage whose construction ran out, if any.
    """

    def __init__(self, message, stage=None, cap=None, needed=None, limit=None):
        self.stage = stage
        self.cap = cap
        self.needed = needed
        self.limit = limit
        if stage is not None:
            message = f"{message} (stage {stage})"
        super().__init__(message)


class InconsistentTripleError(BdmError):
    """The triple fails the consistency conditions, so no realizer exists."""


class TrivialTripleError(BdmError):
    """The triple is realized by a unique base element; the requested
    operation needs realizers outside the base."""


class NoRealizerError(BdmError):
    """The given algebra contains no element with the requested type."""
