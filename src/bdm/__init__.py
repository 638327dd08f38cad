"""Finite Boole-De Morgan algebras and the decision machinery for their
existentially closed extensions."""

from .algebra import (
    AtomRefinement,
    Element,
    FOUR,
    FiniteAlgebra,
    TWO,
    algebra_over,
    amalgamate,
    compose_refinements,
    find_isomorphism_over,
    four_power,
    generated_subalgebra,
    identity_refinement,
    is_four_power_shaped,
    twist_product,
)
from .errors import (
    BdmError,
    CapExceeded,
    InconsistentTripleError,
    NoRealizerError,
    ParseError,
    TrivialTripleError,
)
from .model import EcStage, build_chain, ec_stage, find_matching_element
from .oracle import (
    all_realizations_in,
    brute_force_trivial,
    free_function_count,
    oracle_witness_search,
)
from .solver import (
    CASE1_ENTRIES,
    Caps,
    Case1Entry,
    Triple,
    Witness,
    count_sigma_consistent,
    decide,
    holds_phi,
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
from .terms import (
    Formula,
    IdentityCheck,
    Term,
    eval_formula,
    eval_term,
    format_ast,
    free_vars,
    parse,
    parse_formula,
    parse_term,
    translate_dm,
    valid_identity,
)

__all__ = [name for name in dir() if not name.startswith("_")]
