"""What the benchmark (`perfbench/`) reads from `bdm`.

The benchmark's files change only with the benchmark, not with the package,
so removing a name they use breaks `perfbench/run.py` and no other test.
These checks import `perfbench/spans.py` and `perfbench/inputs.py` as they
are and exercise every name, constructor and view the benchmark calls.
"""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bdm
import bdm.cli
from bdm.algebra import FOUR, TWO
from bdm.model import ec_stage
from bdm.solver import Caps, Triple

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = PERFBENCH.parent / "src"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def spans():
    return _load("spans")


@pytest.fixture(scope="module")
def inputs():
    return _load("inputs")


def _resolve(module, attr):
    """Look a target up the way the tracer's install does: no defaults."""
    value = sys.modules[f"bdm.{module}"]
    for part in attr.split("."):
        value = getattr(value, part)
    return value


def test_tracer_targets_resolve(spans):
    for module, attr in spans.TARGETS:
        assert callable(_resolve(module, attr)), (module, attr)
    assert ("model", "EcStage.realizer") in spans.TARGETS
    assert callable(_resolve(*spans.CACHED))
    tracer = spans.Tracer()
    tracer.install()
    try:
        # how the benchmark reads a witness function that keeps no cache
        assert tracer.cache_counts() == (0, 0)
    finally:
        tracer.uninstall()


def test_every_package_name_the_benchmark_uses_exists():
    names = {
        name
        for path in PERFBENCH.glob("*.py")
        for name in re.findall(r"\bbdm\.([A-Za-z_]\w*)", path.read_text())
    }
    assert {"AtomRefinement", "Element", "Triple", "ec_stage"} <= names
    assert [name for name in sorted(names) if not hasattr(bdm, name)] == []


def test_input_adapters_build_values(inputs):
    four = inputs.to_algebra(bdm, inputs.FOUR)
    assert four == FOUR
    u = inputs.to_element(bdm, four, inputs.mask_atoms(0b01))
    assert u == FOUR.atom(1)
    r = inputs.to_refinement(bdm, (inputs.TWO, inputs.FOUR, ((1, 2),)), {})
    assert (r.source, r.target, r.cell_masks) == (TWO, FOUR, (0b11,))


def test_views_the_benchmark_reads():
    stage = ec_stage(TWO, Caps(max_atoms=8))
    emb = stage.embedding
    assert [emb.cell(i) for i in emb.source.atom_indices] == [frozenset(range(1, 9))]
    t = Triple(TWO, frozenset(), frozenset({1}), frozenset({1}))
    assert t.sets() == (frozenset(), frozenset({1}), frozenset({1}))
    assert len(stage.realizers) == 7
    assert stage.realizers[0][1] == stage.realizer(stage.realizers[0][0])


def test_cli_import_loads_the_traced_modules():
    """`spans.Tracer.install` reads `bdm.solver` and `bdm.oracle` from
    `sys.modules` without a default, after importing only `bdm.cli`; a
    lazy import of either would break every traced run."""
    code = "import sys, bdm.cli; print(sorted({'bdm.solver', 'bdm.oracle'} - set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    ).stdout
    assert out == "[]\n"
