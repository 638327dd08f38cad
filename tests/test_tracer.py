"""The benchmark's tracer (`perfbench/spans.py`) must still find every name
it wraps; a rename or deletion in `bdm` would otherwise break a traced run
(`perfbench/run.py --trace 1`) without failing any other test."""

import importlib.util
import sys
from pathlib import Path

import pytest

import bdm
import bdm.cli
import bdm.textio
from bdm.algebra import TWO, FiniteAlgebra, twist_product
from bdm.model import ec_stage
from bdm.solver import Caps, Triple
from bdm.terms import parse_formula

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves(spans):
    for module, attr in spans.TARGETS:
        home = sys.modules[f"bdm.{module}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(home, cls_name)), attr
        else:
            assert callable(getattr(home, attr)), attr
    module, attr = spans.CACHED
    assert callable(getattr(sys.modules[f"bdm.{module}"], attr))
    tracer = spans.Tracer()
    tracer.install()
    try:
        # the witness function keeps no cache, so the tracer counts none
        assert tracer.cache_counts() == (0, 0)
    finally:
        tracer.uninstall()
    assert callable(sys.modules["bdm.oracle"].element_type_scan)


def test_tracer_records_spans(spans):
    # start cold, as perfbench/run.py's clear_caches does before its traced pass
    for name, module in list(sys.modules.items()):
        if name == "bdm" or name.startswith("bdm."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    stage = ec_stage(TWO, Caps(max_atoms=8))
    _, rv = twist_product(TWO)
    sentence = parse_formula("exists x. (~x = x & x != 0 & x != 1)")
    tracer = spans.Tracer()
    tracer.install()
    try:
        bdm.model.find_matching_element(stage, rv, rv.target.atom(1))
        assert bdm.algebra.find_isomorphism_over(rv, rv) == (1, 2)
        assert bdm.solver.decide(TWO, sentence)
        # decide evaluates its quantifier-free leaves on masks, without
        # eval_formula, so the public evaluator is called here
        assert bdm.terms.eval_formula(TWO, sentence.body, {"x": TWO.zero}) is False
    finally:
        tracer.uninstall()
    calls = {name: row["calls"] for name, row in tracer.summary().items()}
    for name in (
        "model.find_matching_element",
        "model.realizer",
        "solver.triple_of_element",
        "algebra.algebra_over",
        "algebra.generated_subalgebra",
        "algebra.find_isomorphism_over",
        "solver.sigma_consistent_triples",
        "solver.witness_abstract",
        "terms.eval_formula",
    ):
        assert calls.get(name, 0) > 0, name
    # uninstall puts the originals back
    assert not hasattr(bdm.model.find_matching_element, "__wrapped__")
    assert not hasattr(vars(bdm.model.EcStage)["realizer"], "__wrapped__")


def test_traced_realizations_leave_the_witness_cache_alone(spans):
    """Traced, realizations calls the wrapped witness_abstract; the tower
    witnesses it builds must not reach decide's shape table."""
    t = Triple(FiniteAlgebra(3, (1, 3, 2)), frozenset(), frozenset(), frozenset())
    before = bdm.solver._shape_witnesses.cache_info()
    tracer = spans.Tracer()
    tracer.install()
    try:
        bdm.solver.realizations(t, 3)
    finally:
        tracer.uninstall()
    assert bdm.solver._shape_witnesses.cache_info() == before
