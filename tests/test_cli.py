import argparse
import gc
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdm.cli import main

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture()
def algebra_files(tmp_path):
    two = tmp_path / "two.alg"
    two.write_text("atoms 1\nsigma 1\nname two\n")
    four = tmp_path / "four.alg"
    four.write_text("atoms 2\nsigma 2 1\nname four\n")
    return {"two": str(two), "four": str(four)}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check(capsys, algebra_files):
    code, out, _ = run(capsys, "check", "--algebra", algebra_files["four"])
    assert code == 0
    assert out == "atoms 2\nsigma 2 1\nname four\n"


def test_check_json(capsys, algebra_files):
    code, out, _ = run(capsys, "check", "--algebra", algebra_files["four"], "--json")
    assert code == 0
    assert json.loads(out) == {"atoms": 2, "name": "four", "sigma": [2, 1]}


def test_check_bad_file(capsys, tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_text("atoms 2\nsigma 1 1\n")
    code, _, err = run(capsys, "check", "--algebra", str(bad))
    assert code == 2
    assert "error" in err


def test_consistent_true_false(capsys, algebra_files):
    code, out, _ = run(
        capsys, "consistent", "--algebra", algebra_files["four"], "I1={1,2} I2={1,2} I3={}"
    )
    assert (code, out) == (0, "true\n")
    code, out, _ = run(
        capsys, "consistent", "--algebra", algebra_files["four"], "I1={1,2} I2={1,2} I3={1,2}"
    )
    assert (code, out) == (1, "false\n")


def test_witness_power4_zero_solution(capsys, algebra_files):
    code, out, _ = run(
        capsys,
        "witness",
        "--algebra",
        algebra_files["four"],
        "I1={1,2} I2={1,2} I3={}",
        "--via",
        "power4",
    )
    assert code == 0
    assert "element 0" in out


def test_witness_inconsistent_exit_one(capsys, algebra_files):
    code, _, err = run(
        capsys,
        "witness",
        "--algebra",
        algebra_files["four"],
        "I1={1,2} I2={1,2} I3={1,2}",
    )
    assert code == 1
    assert "no result" in err


def test_decide_examples(capsys, algebra_files):
    code, out, _ = run(
        capsys,
        "decide",
        "--algebra",
        algebra_files["two"],
        "exists x. (~x = x & x != 0 & x != 1)",
    )
    assert (code, out) == (0, "true\n")
    code, out, _ = run(
        capsys, "decide", "--algebra", algebra_files["two"], "forall x. (x + ~x = 1)"
    )
    assert (code, out) == (1, "false\n")


def test_decide_with_binding(capsys, algebra_files):
    code, out, _ = run(
        capsys,
        "decide",
        "--algebra",
        algebra_files["four"],
        "exists x. (x . y != 0)",
        "--let",
        "y={1}",
    )
    assert (code, out) == (0, "true\n")


def test_decide_repeated_binding_is_usage_error(capsys, algebra_files):
    code, out, err = run(
        capsys,
        "decide",
        "--algebra",
        algebra_files["four"],
        "p = 1",
        "--let",
        "p=0",
        "--let",
        " p =1",
    )
    assert (code, out) == (2, "")
    assert "--let binds 'p' twice" in err


@pytest.mark.parametrize("binding, name", [("=0", ""), ("x y=0", "x y"), ("0=1", "0")])
def test_decide_binding_a_non_variable_is_usage_error(capsys, algebra_files, binding, name):
    """A --let name must parse as one variable; the answer would otherwise
    read an empty name as unbound, or ignore the binding."""
    code, out, err = run(
        capsys, "decide", "--algebra", algebra_files["four"], "x = 0", "--let", binding
    )
    assert (code, out) == (2, "")
    assert f"--let {binding!r}: {name!r} is not a variable name" in err


def test_decide_cap_exit_three(capsys, algebra_files):
    code, _, err = run(
        capsys,
        "decide",
        "--algebra",
        algebra_files["two"],
        "exists x. (x != x)",
        "--max-atoms",
        "1",
    )
    assert code == 3
    assert "cap" in err


def test_deeply_nested_forall_is_decided(capsys, algebra_files):
    formula = "forall x. (" * 400 + "x != x" + ")" * 400
    code, out, _ = run(
        capsys, "decide", "--algebra", algebra_files["two"], "--max-depth", "1000", formula
    )
    assert (code, out) == (1, "false\n")


def test_decide_parse_error(capsys, algebra_files):
    code, _, err = run(capsys, "decide", "--algebra", algebra_files["two"], "exists x. (")
    assert code == 2


def test_type_of(capsys, algebra_files, tmp_path):
    code, out, _ = run(capsys, "type-of", "--algebra", algebra_files["four"], "{1}")
    assert (code, out) == (0, "I1={2} I2={1,2} I3={1,2}\n")
    emb = tmp_path / "emb.ref"
    emb.write_text(
        "source atoms 1\nsource sigma 1\ntarget atoms 2\ntarget sigma 2 1\ncell 1: {1,2}\n"
    )
    code, out, _ = run(
        capsys,
        "type-of",
        "--algebra",
        algebra_files["two"],
        "{1}",
        "--embedding",
        str(emb),
    )
    assert (code, out) == (0, "I1={} I2={1} I3={1}\n")


def test_trivial(capsys, algebra_files):
    code, out, _ = run(
        capsys, "trivial", "--algebra", algebra_files["four"], "I1={2} I2={1,2} I3={1,2}"
    )
    assert (code, out) == (0, "I={1} realizer {1}\n")
    code, out, _ = run(
        capsys, "trivial", "--algebra", algebra_files["two"], "I1={} I2={1} I3={1}"
    )
    assert (code, out) == (1, "nontrivial\n")


@pytest.mark.parametrize(
    "argv, want",
    [
        (("trivial",), "I={} realizer 0\n"),
        (("trivial", "--json"), '{"I": [], "realizer": [], "trivial": true}\n'),
        (("oracle", "trivial"), "I={}\n"),
        (("oracle", "trivial", "--json"), '{"I": [], "trivial": true}\n'),
    ],
    ids=["trivial", "trivial-json", "oracle-trivial", "oracle-trivial-json"],
)
def test_trivial_zero_element(capsys, algebra_files, argv, want):
    # the zero element is trivial although its atom mask, 0, is falsy
    triple = "I1={1,2} I2={1,2} I3={}"
    assert run(capsys, *argv, "--algebra", algebra_files["four"], triple) == (0, want, "")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("type-of", "{0}"), "atoms [0] not within 1..2"),
        (("type-of", "{3}"), "atoms [3] not within 1..2"),
        (("consistent", "I1={3} I2={} I3={}"), "i1 is not a subset of the atoms"),
        (("consistent", "I1={} I2={0} I3={}"), "i2 is not a subset of the atoms"),
    ],
    ids=["element-0", "element-3", "i1-3", "i2-0"],
)
def test_atoms_out_of_range_are_usage_errors(capsys, algebra_files, argv, message):
    # atom 0 must be refused before it becomes a negative shift
    cmd, operand = argv
    got = run(capsys, cmd, "--algebra", algebra_files["four"], operand)
    assert got == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("cell", ["{0,1}", "{1,3}"])
def test_embedding_cell_out_of_range_is_usage_error(capsys, algebra_files, tmp_path, cell):
    emb = tmp_path / "emb.ref"
    emb.write_text(
        f"source atoms 1\nsource sigma 1\ntarget atoms 2\ntarget sigma 2 1\ncell 1: {cell}\n"
    )
    got = run(capsys, "type-of", "--algebra", algebra_files["two"], "{1}", "--embedding", str(emb))
    assert got == (2, "", "error: cell 1 is not a subset of the target atoms\n")


def test_realize(capsys, algebra_files):
    code, out, _ = run(
        capsys,
        "realize",
        "--algebra",
        algebra_files["two"],
        "I1={} I2={1} I3={1}",
        "--count",
        "2",
    )
    assert code == 0
    assert out.count("element ") == 2
    # trivial triple rejected
    code, _, err = run(
        capsys, "realize", "--algebra", algebra_files["two"], "I1={1} I2={} I3={1}"
    )
    assert code == 1


def test_acl(capsys, algebra_files, tmp_path):
    emb = tmp_path / "emb.ref"
    emb.write_text(
        "source atoms 1\nsource sigma 1\ntarget atoms 2\ntarget sigma 2 1\ncell 1: {1,2}\n"
    )
    code, out, _ = run(
        capsys, "acl", "--algebra", algebra_files["two"], "{1}", "--embedding", str(emb)
    )
    assert (code, out) == (1, "false\n")
    code, out, _ = run(
        capsys, "acl", "--algebra", algebra_files["two"], "1", "--embedding", str(emb)
    )
    assert (code, out) == (0, "true\n")


def test_equiv(capsys):
    code, out, _ = run(capsys, "equiv", "~(x + y)", "~x . ~y")
    assert (code, out) == (0, "valid\n")
    code, out, _ = run(capsys, "equiv", "x + ~x", "1")
    assert (code, out) == (1, "invalid: x={1}\n")
    code, out, _ = run(capsys, "equiv", "~~x", "x", "--signature", "dm")
    assert (code, out) == (0, "valid\n")
    code, _, err = run(capsys, "equiv", "x'", "x", "--signature", "dm")
    assert code == 2


def test_equiv_over_the_variable_cap_exits_three(capsys):
    # 11 variables would take 4^11 assignments; none is tried
    term = " + ".join(f"v{i}" for i in range(11))
    start = time.perf_counter()
    code, out, err = run(capsys, "equiv", term, term)
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert "cap" in err


def test_translate(capsys):
    code, out, _ = run(capsys, "translate", "y . (x . x*) = 0", "--to", "dm")
    assert code == 0
    assert out == "exists z. (~x + z = 1 & ~x . z = 0 & y . (x . z) = 0)\n"


def test_amalgamate(capsys, tmp_path):
    ref = tmp_path / "twist.ref"
    ref.write_text(
        "source atoms 1\nsource sigma 1\ntarget atoms 2\ntarget sigma 2 1\ncell 1: {1,2}\n"
    )
    code, out, _ = run(capsys, "amalgamate", "--left", str(ref), "--right", str(ref))
    assert code == 0
    assert out.startswith("atoms 4\n")
    assert "left\n" in out and "right\n" in out


def _onto(path, n):
    """A refinement file of 2 onto n atoms that star fixes: one cell of
    all n atoms."""
    path.write_text(
        f"source atoms 1\nsource sigma 1\ntarget atoms {n}\n"
        f"target sigma {' '.join(map(str, range(1, n + 1)))}\n"
        f"cell 1: {{{','.join(map(str, range(1, n + 1)))}}}\n"
    )
    return str(path)


def test_amalgamate_over_the_atom_cap_builds_nothing(capsys, tmp_path, monkeypatch):
    """257 * 256 atoms exceed the cap of 2^16: the command exits 3 with
    nothing on stdout before it lists a single pair of atoms."""
    def no_pairs(mask):
        raise AssertionError("the amalgam's atoms were listed")

    monkeypatch.setattr("bdm.algebra.sorted_atoms", no_pairs)
    left, right = _onto(tmp_path / "left.ref", 257), _onto(tmp_path / "right.ref", 256)
    code, out, err = run(capsys, "amalgamate", "--left", left, "--right", right)
    assert (code, out) == (3, "")
    assert err == "resource cap exceeded: the amalgam needs 65792 atoms, cap is 65536\n"


def test_oracle_trivial_over_the_atom_cap_tries_nothing(capsys, tmp_path, monkeypatch):
    """A 27-atom algebra has 2^27 candidate atom sets, above the scan cap of
    26 atoms: the command exits 3 with nothing on stdout before it tries a
    single candidate."""
    def no_candidates(self, mask):
        raise AssertionError("a candidate atom set was tried")

    alg = tmp_path / "big.alg"
    alg.write_text(f"atoms 27\nsigma {' '.join(map(str, range(1, 28)))}\n")
    monkeypatch.setattr("bdm.algebra.FiniteAlgebra.sigma_mask", no_candidates)
    code, out, err = run(capsys, "oracle", "trivial", "--algebra", str(alg), "I1={} I2={} I3={}")
    assert (code, out) == (3, "")
    assert err == "resource cap exceeded: cannot scan 2^27 atom sets\n"


def test_extend_stage(capsys, algebra_files):
    code, out, _ = run(
        capsys,
        "extend-stage",
        "--algebra",
        algebra_files["two"],
        "--max-atoms",
        "64",
    )
    assert code == 0
    assert out.count("realized ") == 7
    # tight caps exit 3
    code, _, err = run(
        capsys,
        "extend-stage",
        "--algebra",
        algebra_files["two"],
        "--max-atoms",
        "2",
    )
    assert code == 3


def test_oracle_subcommands(capsys, algebra_files):
    code, out, _ = run(
        capsys,
        "oracle",
        "realizations",
        "--algebra",
        algebra_files["four"],
        "I1={1,2} I2={1,2} I3={}",
    )
    assert (code, out) == (0, "0\n")
    code, out, _ = run(
        capsys,
        "oracle",
        "witness",
        "--algebra",
        algebra_files["four"],
        "I1={1,2} I2={1,2} I3={1,2}",
    )
    assert (code, out) == (1, "absent\n")
    code, out, _ = run(
        capsys, "oracle", "trivial", "--algebra", algebra_files["four"], "I1={2} I2={1,2} I3={1,2}"
    )
    assert (code, out) == (0, "I={1}\n")
    code, out, _ = run(capsys, "oracle", "count-free", "0")
    assert (code, out) == (0, "2\n")
    code, _, err = run(capsys, "oracle", "count-free", "5")
    assert code == 3


def test_oracle_scans_never_import_numpy(algebra_files):
    """The oracle's scans are pure Python, so running its scanning commands
    in a fresh interpreter leaves numpy unimported."""
    four = algebra_files["four"]
    commands = [
        ["oracle", "witness", "--algebra", four, "I1={} I2={} I3={}"],
        ["oracle", "realizations", "--algebra", four, "I1={1,2} I2={1,2} I3={}"],
    ]
    commands += [argv + ["--json"] for argv in commands]
    script = (
        "import json, sys\n"
        "from bdm.cli import main\n"
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "assert codes == [0, 0, 0, 0], codes\n"
        "assert 'numpy' not in sys.modules\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", script, json.dumps(commands)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def _leave_after_ten_bytes(algebra_files, env) -> tuple[int, str]:
    """Exit code and stderr of `extend-stage --depth 2` over 2 whose reader
    closes the pipe after the first 10 bytes."""
    env = dict(env, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    argv = ["extend-stage", "--algebra", algebra_files["two"], "--depth", "2",
            "--max-atoms", "64", "--max-triples", "100000"]
    with subprocess.Popen(
        [sys.executable, "-m", "bdm.cli", *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read().decode()
        return proc.wait(timeout=60), err


def test_reader_leaving_early_is_a_broken_pipe(algebra_files):
    """Unbuffered, stdout's text layer drops the count of a short write; a
    reader that closes the pipe after 10 bytes must still get exit 2 and
    the broken pipe on stderr, not exit 0 with the output cut."""
    code, err = _leave_after_ten_bytes(algebra_files, dict(os.environ, PYTHONUNBUFFERED="1"))
    assert code == 2, err
    assert "Broken pipe" in err


def test_buffered_reader_leaving_mid_stream_is_a_broken_pipe(algebra_files):
    """Buffered, the text streams through stdout's buffer piece by piece; a
    reader that closes the pipe after 10 bytes must get exit 2 and the
    broken pipe on stderr, and the interpreter must have nothing left to
    flush at exit."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    code, err = _leave_after_ten_bytes(algebra_files, env)
    assert code == 2, err
    assert "Broken pipe" in err
    assert "Exception ignored" not in err


def test_buffered_short_answer_to_a_gone_reader_is_a_broken_pipe(algebra_files):
    """Buffered, a short answer stays in stdout's buffer until it is
    flushed; a reader that has already gone must give exit 2 and the
    broken pipe on stderr, not the interpreter's exit 120 at shutdown."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "bdm.cli", "extend-stage",
             "--algebra", algebra_files["two"], "--depth", "1"],
            env=env, stdout=write_end, stderr=subprocess.PIPE, timeout=60,
        )
    finally:
        os.close(write_end)
    err = done.stderr.decode()
    assert done.returncode == 2, err
    assert "Broken pipe" in err
    assert "Exception ignored" not in err


def test_json_outputs_parse(capsys, algebra_files):
    for argv in [
        ("consistent", "--algebra", algebra_files["four"], "I1={} I2={} I3={}", "--json"),
        ("witness", "--algebra", algebra_files["four"], "I1={} I2={} I3={}", "--json"),
        ("trivial", "--algebra", algebra_files["four"], "I1={2} I2={1,2} I3={1,2}", "--json"),
        ("equiv", "x", "x", "--json"),
    ]:
        code, out, _ = run(capsys, *argv)
        json.loads(out)


@pytest.fixture()
def three_file(tmp_path):
    three = tmp_path / "three.alg"
    three.write_text("atoms 3\nsigma 1 3 2\n")
    return str(three)


@pytest.mark.parametrize("max_atoms", ["16", "20"])
def test_oracle_witness_budget_exhausted_exit_three(capsys, three_file, max_atoms):
    # consistent, but the tower of four-powers jumps from 12 to 24 atoms
    code, out, err = run(
        capsys, "oracle", "witness", "--max-atoms", max_atoms,
        "--algebra", three_file, "I1={} I2={} I3={}",
    )
    assert (code, out) == (3, "")
    assert "cap" in err


def test_realize_over_the_atom_cap_exits_three(capsys, three_file):
    # 3 * 4^8 = 196,608 atoms are over the cap; nothing is built
    start = time.perf_counter()
    code, out, err = run(
        capsys, "realize", "--count", "8", "--algebra", three_file, "I1={} I2={} I3={}"
    )
    assert time.perf_counter() - start < 2
    assert (code, out) == (3, "")
    assert "cap" in err


@pytest.mark.parametrize(
    "count, json_flag, digest",
    [
        ("6", [], "3a5466fc6fdec2205107a0c4b011c5686f15f8496cb4977c335f3fc79e27522f"),
        ("6", ["--json"], "ae2119011f5779908e495f2034a9f76584e413a3ed3b1ad777f7120adc5ad8dc"),
        ("7", [], "a84c7e4ac01c3952f388c492df4883ca4187554d561afded16f3ea38d9670243"),
        ("7", ["--json"], "c4e18ffe967471f339a607f17366af17690214f33e024ba27c7bf44c683334a4"),
    ],
    ids=["6-text", "6-json", "7-text", "7-json"],
)
def test_realize_golden_bytes(capsys, three_file, count, json_flag, digest):
    """realize prints the same bytes as when it adjoined its realizers one
    witness extension at a time (12,288 and 49,152 atoms)."""
    code, out, _ = run(
        capsys, "realize", "--count", count, "--algebra", three_file,
        "I1={} I2={} I3={}", *json_flag,
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "json_flag, digest",
    [
        ([], "4b7fe8776daa1f41e780d96f071a3ed204ff080aa2152a447c7ec128c06af815"),
        (["--json"], "06d17727cc6e7fd3bcb42b13ae45f1afb17dfcb5a05195f1bf52bdaeb65aafdf"),
    ],
    ids=["text", "json"],
)
def test_extend_stage_depth_two_golden_bytes(capsys, tmp_path, json_flag, digest):
    """The two chain stages over 2 print the same bytes as the per-triple
    stage construction did (4,865,604 bytes of text, 7,392,217 of JSON)."""
    two = tmp_path / "two.alg"
    two.write_text("atoms 1\nsigma 1\n")
    code, out, _ = run(
        capsys, "extend-stage", "--algebra", str(two), "--depth", "2",
        "--max-atoms", "64", "--max-triples", "100000", *json_flag,
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_oracle_witness_inconsistent_absent(capsys, three_file):
    code, out, _ = run(
        capsys, "oracle", "witness", "--algebra", three_file, "I1={1} I2={1} I3={1}"
    )
    assert (code, out) == (1, "absent\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["decide", "exists x. (x = x)", "--max-atoms", "-1"],
        ["decide", "exists x. (x = x)", "--max-depth", "-1"],
        ["decide", "exists x. (x = x)", "--max-triples", "-1"],
        ["extend-stage", "--max-atoms", "-1"],
        ["oracle", "witness", "I1={} I2={} I3={}", "--max-atoms", "-1"],
    ],
)
def test_negative_budget_is_usage_error(capsys, algebra_files, argv):
    code, out, err = run(capsys, *argv, "--algebra", algebra_files["two"])
    assert (code, out) == (2, "")
    assert "nonnegative" in err


def test_extend_stage_takes_no_depth_budget(capsys, algebra_files):
    # only decide has quantifiers to bound
    with pytest.raises(SystemExit) as stop:
        main(["extend-stage", "--algebra", algebra_files["two"], "--max-depth", "1"])
    out = capsys.readouterr()
    assert (stop.value.code, out.out) == (2, "")
    assert "--max-depth" in out.err


def test_deep_nesting_is_parse_error(capsys, algebra_files):
    formula = "(" * 3000 + "x = x" + ")" * 3000
    code, out, err = run(capsys, "decide", "--algebra", algebra_files["two"], formula)
    assert (code, out) == (2, "")
    assert "nested too deeply" in err


def test_unexpected_exception_is_internal_error(capsys, algebra_files, monkeypatch):
    import bdm.cli

    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(bdm.cli, "decide", broken)
    code, out, err = run(capsys, "decide", "--algebra", algebra_files["two"], "exists x. (x = x)")
    assert (code, out) == (4, "")
    assert "RuntimeError: boom" in err and "Traceback" in err


def test_unreadable_input_is_usage_error(capsys, tmp_path):
    code, out, err = run(capsys, "check", "--algebra", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "Traceback" not in err


def _chain_commands(algebra_files, operands):
    sentence = " & ".join(["0 = 0"] * operands)
    return [
        (["equiv", "+".join(["x"] * operands), "x"], "valid\n"),
        (["decide", "--algebra", algebra_files["two"], sentence], "true\n"),
        (["translate", "--to", "dm", sentence], sentence + "\n"),
    ]


def test_long_flat_chain_is_parse_error(capsys, algebra_files):
    # the parser builds flat chains without recursion, but every walker of
    # the tree recurses once per operator
    for argv, _ in _chain_commands(algebra_files, 1000):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv[0]
        assert "nested too deeply" in err


def test_shorter_flat_chain_is_answered(capsys, algebra_files):
    for argv, expected in _chain_commands(algebra_files, 400):
        assert run(capsys, *argv)[:2] == (0, expected), argv[0]


@pytest.mark.parametrize("op", ["'", "*"])
def test_too_deep_translation_is_parse_error(capsys, op):
    # parses (500 levels), but each complement the translation introduces
    # adds two levels for the translation and the printer to recurse through
    code, out, err = run(capsys, "translate", "--to", "dm", "x" + op * 498 + " = 0")
    assert (code, out) == (2, "")
    assert "nested too deeply" in err and "Traceback" not in err


@pytest.mark.parametrize("op, count", [("'", 248), ("*", 247)])
def test_translation_at_the_depth_bound_reads_back(capsys, op, count):
    # each complement adds two levels: these translate to 500 and 499
    code, dm, _ = run(capsys, "translate", "--to", "dm", "x" + op * count + " = 0")
    assert code == 0
    assert run(capsys, "translate", "--to", "bdm", dm.rstrip("\n"))[:2] == (0, dm)


@pytest.mark.parametrize("op, count", [("'", 249), ("*", 248)])
def test_translation_past_the_depth_bound_is_parse_error(capsys, op, count):
    code, out, err = run(capsys, "translate", "--to", "dm", "x" + op * count + " = 0")
    assert (code, out) == (2, "")
    assert "nested too deeply" in err and "Traceback" not in err


def test_translation_to_dm_reads_back(capsys):
    code, dm, _ = run(capsys, "translate", "--to", "dm", "x" + "'" * 100 + " = 0")
    assert code == 0
    code, out, _ = run(capsys, "translate", "--to", "bdm", dm.rstrip("\n"))
    assert (code, out) == (0, dm)


# Every subcommand, with a false, absent or nontrivial answer for each
# yes/no command and one exit-2 and one exit-3 case.  TWO, FOUR, THREE and
# EMB stand for the fixture files.
GOLDEN_COMMANDS = [
    ("check", "--algebra", "FOUR"),
    ("consistent", "--algebra", "FOUR", "I1={1,2} I2={1,2} I3={}"),
    ("consistent", "--algebra", "FOUR", "I1={1,2} I2={1,2} I3={1,2}"),
    ("witness", "--algebra", "THREE", "I1={1} I2={2,3} I3={2,3}"),
    ("witness", "--via", "power4", "--algebra", "FOUR", "I1={} I2={} I3={}"),
    ("witness", "--algebra", "FOUR", "I1={1,2} I2={1,2} I3={1,2}"),
    ("decide", "--algebra", "TWO", "exists x. (~x = x & x != 0 & x != 1)"),
    ("decide", "--algebra", "TWO", "forall x. (x + ~x = 1)"),
    ("decide", "--algebra", "FOUR", "exists x. (x . y != 0)", "--let", "y={1}"),
    ("decide", "--algebra", "TWO", "exists x. (x != x)", "--max-atoms", "1"),
    ("decide", "--algebra", "TWO", "exists x. ("),
    ("type-of", "--algebra", "FOUR", "{1}"),
    ("type-of", "--algebra", "TWO", "{1}", "--embedding", "EMB"),
    ("trivial", "--algebra", "FOUR", "I1={2} I2={1,2} I3={1,2}"),
    ("trivial", "--algebra", "TWO", "I1={} I2={1} I3={1}"),
    ("realize", "--algebra", "TWO", "I1={} I2={1} I3={1}", "--count", "2"),
    ("acl", "--algebra", "TWO", "1", "--embedding", "EMB"),
    ("acl", "--algebra", "TWO", "{1}", "--embedding", "EMB"),
    ("equiv", "~(x + y)", "~x . ~y"),
    ("equiv", "x + ~x", "1"),
    ("equiv", "0", "1"),
    ("translate", "y . (x . x*) = 0", "--to", "dm"),
    ("amalgamate", "--left", "EMB", "--right", "EMB"),
    ("extend-stage", "--algebra", "TWO", "--max-atoms", "64"),
    ("oracle", "realizations", "--algebra", "FOUR", "I1={1,2} I2={1,2} I3={}"),
    ("oracle", "realizations", "--algebra", "FOUR", "I1={} I2={} I3={}"),
    ("oracle", "witness", "--algebra", "FOUR", "I1={} I2={} I3={}"),
    ("oracle", "witness", "--algebra", "FOUR", "I1={1,2} I2={1,2} I3={1,2}"),
    ("oracle", "trivial", "--algebra", "FOUR", "I1={2} I2={1,2} I3={1,2}"),
    ("oracle", "trivial", "--algebra", "TWO", "I1={} I2={1} I3={1}"),
    ("oracle", "count-free", "2"),
    ("oracle", "count-free", "5"),
]

# per command in GOLDEN_COMMANDS: (exit code, sha256 of stdout) in text
# mode, then under --json
GOLDEN = [
    ((0, "39a015fba83cb96d0396ef3073dba547859ec8d239cf129cc9df81ce1d30be5a"),
     (0, "e309a4906e164c2754997c1b8238e54c8d112a94c18e0d154e52c6ab76336979")),
    ((0, "a17fcf0a2f50e2d495e4f90ce263410edc183add6c62699a2facbccf60410f74"),
     (0, "1f666df3647e5b51ed964f382e1ec42e7a7eeb8965cecf6c0eaf5c5dff600ddd")),
    ((1, "2ed27c1421e6928dbe13dbfdb5c59e1045b30341fe7ebe05700006bc5ac572c0"),
     (1, "d77c9bf502c516e428511b5802062a88d4e40246901e40ed464de5c00f27ac0f")),
    ((0, "ce6441290489b48fac42ca73776e8b331f9888459f7d02e74e110d26ba8eec19"),
     (0, "9d107d17ae843d6a1f1e8401163b7e2832dd376f8aa3b429e5aaa832d0b3ee2c")),
    ((0, "cd63224014b36ab5c243de2df6dc67d9e41949bddb504671d5f207ff7b263429"),
     (0, "dcf744841273c97f68f8f8aac61e081bf7b333ffc4800e788b92970239e15488")),
    ((1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
     (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")),
    ((0, "a17fcf0a2f50e2d495e4f90ce263410edc183add6c62699a2facbccf60410f74"),
     (0, "f7a099552c62eb42f009e9a71fc08894c7c6e74ed3491eec33e50b1b8ea299b1")),
    ((1, "2ed27c1421e6928dbe13dbfdb5c59e1045b30341fe7ebe05700006bc5ac572c0"),
     (1, "05ad75af967c80c9f151ee6afa59837d3d4db702d9a25ded5d351b92777b8a4c")),
    ((0, "a17fcf0a2f50e2d495e4f90ce263410edc183add6c62699a2facbccf60410f74"),
     (0, "f7a099552c62eb42f009e9a71fc08894c7c6e74ed3491eec33e50b1b8ea299b1")),
    ((3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
     (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")),
    ((2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
     (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")),
    ((0, "75b15a40d69a8cf12665a1bb0df9298212eca2e670f47bfdd5863303cf77eabb"),
     (0, "aed8fc78a696a66099084e1d478a4a96ac8bc8f354c38c7dd7d018a55e5b0dc8")),
    ((0, "c1d4184f9833a675f189d9c36af2af4f6accefdcd69b96908dbaa090b0fa1071"),
     (0, "4ac4b221accf95143ea4a04e8aa23d296a333f18ecbd0bd51eecf49040de9236")),
    ((0, "466fd9c76f7b165988df4eeb9aaae6931009914db1de96c7b797fd7bf0ae26e4"),
     (0, "be0ebf310f5f2df5b0a38418773725519e5a20a6f4ba7c2454eac4d51f5b1969")),
    ((1, "1d9def7429b78638a969e7eeafaf1123c51bcbb53da672a91862fa664012b855"),
     (1, "9e7836a9616490ccf59eef949a7507976d9c36f5f162aba4c570ff89193f3e8f")),
    ((0, "8841cfc79d3ca0433e6c28128db9f2d3515366cee9d162800ca88ec4e514e75b"),
     (0, "57d99a7bec56032c2117601ae18434650882a8053bc81991ae0d6e56b69d1fb2")),
    ((0, "a17fcf0a2f50e2d495e4f90ce263410edc183add6c62699a2facbccf60410f74"),
     (0, "06df3b314eb89e01b1aab8dc4c3f021648734dc9883651db06bdfb38bc564861")),
    ((1, "2ed27c1421e6928dbe13dbfdb5c59e1045b30341fe7ebe05700006bc5ac572c0"),
     (1, "82cdc9d44693b3ce434a6cc7da9ae3c7735f7d3ef59433ef6071b803a5a15628")),
    ((0, "009d962905920ad0e3ff46c6987fad36418982deb81796fd1f58e326d167c268"),
     (0, "fccaf2ed64f84e2c5d0cabbc97265b1721f8843b9ab2e4fe784d8b28c3fba40f")),
    ((1, "a4653600aa17663deb21f9f4f6307bed244c1a93ca656b3eddc6b032b1fd7456"),
     (1, "748c90595ac2650aa8f3d94adedfc2cfd28ae2e8b3ae39b2c93bdb4c0fe236e6")),
    ((1, "28fca28ef02d08bd61931c03999b7a5b822392132867682e88b2db492ee9f087"),
     (1, "79b13fe0826aef8a5b80778d326129b8a9f64057fd60e2e48d46276c41399c36")),
    ((0, "adedd12bffe8ef5e74a19a8809cf42d21614e90ba2bcbe004e28022b828582f2"),
     (0, "7235d410de70d684d310c07ce53402562bc190adba63ce7c95f689aa96912c6a")),
    ((0, "f779ebefe5d7f98cfd436baad6861c982d34e04a80066b6052c245c69aa2bd2a"),
     (0, "ece35ae8326580f665c66df4be161a0ec078b47660762a10b0aea794e870e707")),
    ((0, "a5485283f801273e57a1aaed98ced946514e8596f01b53ea93d0e6becb60f881"),
     (0, "074f0c84420dffee2dec97883e0d8f2ce80c4710ddafea62db3583e9625f2c45")),
    ((0, "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
     (0, "eaac924ebbcc511f0e2ef0c52fddaf5b4b19d970d542b3d3a3d90a23d427ccb4")),
    ((1, "fcf33dfbe13c2354bf0e1b063f9fb422747a46cee00b7420bceff2b81457b345"),
     (1, "b20b4be20e3e23b67eb53f4ab7a86039ac19d4a6e5a4924959b6d3392a339d40")),
    ((0, "a6c7ad74c1df864d9417a9e977c13845bbb2e5f6ab05fe0150f9fe124a38e2a4"),
     (0, "ba36b1f61217ff3b4031d88c124ca0b7a3ea2dff0a2c7f171f8117846e2fe5ab")),
    ((1, "7925d3e9a9613a093e5eb4054b32aa39de910d2b03ba7e8046c3b4550b8de1e4"),
     (1, "21b9970bcdd6538d0e43119c43d8dbe1503654a973becf18b532b04a1dc3d250")),
    ((0, "ca50b417a886403b0d8d0db4bb47d36b2788294a2a2fba8a572a46d9d437cda2"),
     (0, "0209a3773eeb57d65b0833cc0d112d3a318362892558e938cfeeaa1dee4a4426")),
    ((1, "1d9def7429b78638a969e7eeafaf1123c51bcbb53da672a91862fa664012b855"),
     (1, "9e7836a9616490ccf59eef949a7507976d9c36f5f162aba4c570ff89193f3e8f")),
    ((0, "0f3633c0ecb81f7639c3fe70873b438e74fb8960c68f7c39e6a8eac795e70a32"),
     (0, "8cd080d2489499eacaac5fb30d072c3f9cbcfb8e79ec929434795c9a5352b897")),
    ((3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
     (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")),
]


def test_every_subcommand_bytes(capsys, algebra_files, three_file, tmp_path):
    emb = tmp_path / "emb.ref"
    emb.write_text(
        "source atoms 1\nsource sigma 1\ntarget atoms 2\ntarget sigma 2 1\ncell 1: {1,2}\n"
    )
    files = {"TWO": algebra_files["two"], "FOUR": algebra_files["four"],
             "THREE": three_file, "EMB": str(emb)}
    got = []
    for argv in GOLDEN_COMMANDS:
        argv = [files.get(a, a) for a in argv]
        runs = [run(capsys, *argv, *flags) for flags in ([], ["--json"])]
        got.append(tuple((code, hashlib.sha256(out.encode()).hexdigest()) for code, out, _ in runs))
    assert got == GOLDEN


# each command with its required arguments (files are not read before
# parsing ends), for the parser tests below
PARSER_COMMANDS = [
    ("check", "--algebra", "a.alg"),
    ("consistent", "--algebra", "a.alg", "I1={} I2={} I3={}"),
    ("witness", "--algebra", "a.alg", "I1={} I2={} I3={}"),
    ("decide", "--algebra", "a.alg", "x = x"),
    ("type-of", "--algebra", "a.alg", "{}"),
    ("trivial", "--algebra", "a.alg", "I1={} I2={} I3={}"),
    ("realize", "--algebra", "a.alg", "I1={} I2={} I3={}"),
    ("acl", "--algebra", "a.alg", "{}", "--embedding", "e.ref"),
    ("equiv", "x", "x"),
    ("translate", "x = x", "--to", "dm"),
    ("amalgamate", "--left", "l.ref", "--right", "r.ref"),
    ("extend-stage", "--algebra", "a.alg"),
    ("oracle", "realizations", "--algebra", "a.alg", "I1={} I2={} I3={}"),
    ("oracle", "witness", "--algebra", "a.alg", "I1={} I2={} I3={}"),
    ("oracle", "trivial", "--algebra", "a.alg", "I1={} I2={} I3={}"),
    ("oracle", "count-free", "1"),
]

# the help of each command, the command with no arguments and with one
# unknown option after its required ones, a bad option value, no command,
# an unknown command and an unknown oracle command
PARSER_ARGVS = (
    [["--help"], [], ["nosuch"], ["nosuch", "--help"], ["-h", "decide"], ["oracle"],
     ["oracle", "nosuch"], ["decide", "--algebra", "a.alg", "x = x", "--max-depth", "two"]]
    + [[*c[: 2 if c[0] == "oracle" else 1], "--help"] for c in PARSER_COMMANDS]
    + [[*c[: 2 if c[0] == "oracle" else 1]] for c in PARSER_COMMANDS]
    + [[*c, "--nosuch"] for c in PARSER_COMMANDS]
)

# SHA-256 of the repr of every (exit code, stdout, stderr) of PARSER_ARGVS,
# at 80 columns, by the Python version whose argparse printed them; argparse
# words its output differently across versions, so on a version not listed
# the bytes are compared with the parser of every command alone
PARSER_GOLDEN = {
    (3, 11): "783a32085250f40812264becc321788b79ac9ab4cd802d87d3aee402b848168e",
}


def _parse_only(capsys, parse, argv):
    """Exit code, stdout and stderr of parse(argv), which ends in SystemExit
    for every argv above."""
    with pytest.raises(SystemExit) as stop:
        parse(argv)
    out = capsys.readouterr()
    return stop.value.code, out.out, out.err


def test_parser_help_and_error_bytes(capsys, monkeypatch):
    """Help and usage errors read the same as from the parser of every
    command, and on a pinned Python version they are the pinned bytes."""
    from bdm.cli import build_parser

    monkeypatch.setenv("COLUMNS", "80")
    got = [_parse_only(capsys, main, argv) for argv in PARSER_ARGVS]
    want = [_parse_only(capsys, build_parser().parse_args, argv) for argv in PARSER_ARGVS]
    for argv, g, w in zip(PARSER_ARGVS, got, want):
        assert g == w, argv
    assert {code for code, _, _ in got} == {0, 2}
    digest = hashlib.sha256(repr(got).encode()).hexdigest()
    assert PARSER_GOLDEN.get(sys.version_info[:2], digest) == digest


def _subcommands(parser) -> dict:
    """The parsers of parser's subcommands by name, or {} without any."""
    nested = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return nested[0].choices if nested else {}


def test_command_table_is_what_the_goldens_cover():
    """Every command of the table, and every oracle subcommand, is pinned
    by the parser tests above, and the parser of every command holds the
    table's commands in its order."""
    from bdm.cli import _COMMANDS, build_parser

    table = []
    for name, (_, handler, *_) in _COMMANDS.items():
        table += [(name, s) for s in handler] if isinstance(handler, dict) else [(name,)]
    assert table == [c[: 2 if c[0] == "oracle" else 1] for c in PARSER_COMMANDS]
    assert list(_subcommands(build_parser())) == list(_COMMANDS)


@pytest.mark.parametrize(
    "command, nested",
    [("decide", []), ("oracle", ["realizations", "witness", "trivial", "count-free"])],
)
def test_one_command_parser_holds_that_command_alone(monkeypatch, capsys, command, nested):
    """build_parser(command) holds that command's parser and its
    subcommands, no other; main builds that parser alone."""
    from bdm import cli

    built = _subcommands(cli.build_parser(command))
    assert list(built) == [command]
    assert list(_subcommands(built[command])) == nested
    asked = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda c=None: asked.append(c) or build(c))
    with pytest.raises(SystemExit):
        cli.main([command, "--help"])
    capsys.readouterr()
    assert asked == [command]


def test_in_process_main_leaves_the_collector_alone(capsys, algebra_files):
    """Only the `bdm` process freezes its heap; a caller of main() keeps
    its collector as it was."""
    before = gc.get_freeze_count(), gc.isenabled()
    assert run(capsys, "check", "--algebra", algebra_files["four"])[0] == 0
    assert run(capsys, "check", "--algebra", algebra_files["four"], "--json")[0] == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == before


@pytest.mark.parametrize("route", ["run", "-m"])
def test_bdm_process_runs_with_a_frozen_heap(algebra_files, route):
    """Both ways into a `bdm` process, the console script's bdm.cli.run and
    `python -m bdm.cli`, freeze the import-time objects before main()."""
    if route == "run":
        script = ("import gc, sys, bdm.cli\n"
                  "bdm.cli.main = lambda: print(gc.get_freeze_count()) or 0\n"
                  "sys.exit(bdm.cli.run())\n")
    else:
        script = ("import gc, runpy, sys\n"
                  "sys.argv = ['bdm', 'check', '--algebra', sys.argv[1]]\n"
                  "try:\n"
                  "    runpy.run_module('bdm.cli', run_name='__main__')\n"
                  "except SystemExit as e:\n"
                  "    assert e.code == 0, e.code\n"
                  "print(gc.get_freeze_count())\n")
    done = subprocess.run(
        [sys.executable, "-c", script, algebra_files["four"]],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout.split()[-1]) > 0
    assert 'bdm = "bdm.cli:run"' in (ROOT / "pyproject.toml").read_text()


# The exit-code contract under mutated inputs.  "@name" stands for a file
# holding (a mutation of) CONTRACT_FILES[name]; an Operand may be mutated.

class Operand(str):
    pass


CONTRACT_FILES = {
    "two.alg": "atoms 1\nsigma 1\n",
    "four.alg": "atoms 2\nsigma 2 1\nname four\n",
    "three.alg": "atoms 3\nsigma 1 3 2\n",
    "emb.ref": "source atoms 1\nsource sigma 1\ntarget atoms 2\ntarget sigma 2 1\ncell 1: {1,2}\n",
}

CAPS = ["--max-atoms", "16", "--max-triples", "500"]

CONTRACT_COMMANDS = [
    ["check", "--algebra", "@four.alg"],
    ["consistent", "--algebra", "@four.alg", Operand("I1={1,2} I2={1,2} I3={}")],
    ["witness", "--algebra", "@three.alg", Operand("I1={1} I2={2,3} I3={2,3}")],
    ["witness", "--via", "power4", "--algebra", "@four.alg", Operand("I1={} I2={} I3={}")],
    ["decide", "--algebra", "@two.alg", *CAPS, Operand("exists x. (~x = x & x != 0 & x != 1)")],
    ["decide", "--algebra", "@four.alg", *CAPS, "--let", Operand("p={1}"),
     Operand("forall x. (exists y. (y . p = x . p* & y != x))")],
    ["type-of", "--algebra", "@two.alg", Operand("{1}"), "--embedding", "@emb.ref"],
    ["trivial", "--algebra", "@four.alg", Operand("I1={2} I2={1,2} I3={1,2}")],
    ["realize", "--algebra", "@two.alg", Operand("I1={} I2={1} I3={1}"), "--count", "2"],
    ["acl", "--algebra", "@two.alg", Operand("{1}"), "--embedding", "@emb.ref"],
    ["equiv", Operand("~(x + y)"), Operand("~x . ~y")],
    ["translate", Operand("y . (x . x*) = 0"), "--to", "dm"],
    ["amalgamate", "--left", "@emb.ref", "--right", "@emb.ref"],
    ["extend-stage", "--algebra", "@two.alg", "--max-atoms", "16", "--max-triples", "2000"],
    ["oracle", "realizations", "--algebra", "@four.alg", Operand("I1={1,2} I2={1,2} I3={}")],
    ["oracle", "witness", "--algebra", "@four.alg", Operand("I1={} I2={} I3={}"),
     "--max-atoms", "8"],
    ["oracle", "trivial", "--algebra", "@two.alg", Operand("I1={} I2={1} I3={1}")],
]

# what a mutation inserts: one character or one token of some input syntax
PIECES = list("0123{},=.+*'~!&|()-> xyp#\n") + [
    "I1=", "I3=", "exists y. ", "forall x. ", "atoms ", "sigma ", "cell 1: ", "name ",
    "source ", "target ", "{1,2}", "99",
]
# characters a mutation swaps for another of their class, mostly keeping the
# input well formed (the k of a triple's Ik stays)
CLASSES = ["12", "xy", "+.", "'*~", "&|"]


def mutate(rng: random.Random, text: str) -> str:
    """text after one to three random edits: a character swapped for one of
    its class, a piece inserted or put in place of a character, a character
    or a slice deleted, or a slice doubled."""
    for _ in range(rng.choice((1, 1, 2, 3))):
        i = rng.randint(0, len(text))
        j = rng.randint(i, min(len(text), i + 6))
        edit = rng.randrange(8)
        swappable = [k for k, c in enumerate(text)
                     if any(c in cls for cls in CLASSES) and text[k - 1:k] != "I"]
        if edit < 4 and swappable:
            k = rng.choice(swappable)
            cls = next(cls for cls in CLASSES if text[k] in cls)
            text = text[:k] + rng.choice(cls) + text[k + 1:]
        elif edit < 5:
            text = text[:i] + rng.choice(PIECES) + text[i:]
        elif edit < 6:
            text = text[:i] + rng.choice(PIECES) + text[i + 1:]
        elif edit < 7:
            text = text[:i] + text[j:]
        else:
            text = text[:j] + text[i:j] + text[j:]
    return text


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 2**32))
def test_exit_code_contract_under_mutated_inputs(contract_dir, seed):
    """Whatever the operands and files hold, main exits 0, 1, 2 or 3, never
    4; exits 2 and 3 print nothing to stdout; and a --json answer parses."""
    rng = random.Random(seed)
    template = rng.choice(CONTRACT_COMMANDS)
    # one input is mutated, an operand three times in four where there is one
    operands = [k for k, a in enumerate(template) if isinstance(a, Operand)]
    files = [k for k, a in enumerate(template) if a[0] == "@"]
    chosen = rng.choice(operands if operands and rng.random() < 0.75 else operands + files)
    argv = []
    for k, arg in enumerate(template):
        if arg[0] == "@":
            text = CONTRACT_FILES[arg[1:]]
            path = contract_dir / arg[1:]
            path.write_text(mutate(rng, text) if k == chosen else text)
            arg = str(path)
        elif k == chosen:
            arg = mutate(rng, arg)
            if arg.startswith("-"):
                arg = " " + arg  # still an operand to argparse; every reader strips it
        argv.append(str(arg))
    if rng.random() < 0.5:
        argv.append("--json")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse's usage errors
            code = e.code
    out = out.getvalue()
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    if code >= 2:
        assert out == "", argv
    elif "--json" in argv and out:
        assert out.endswith("\n") and out.count("\n") == 1, argv
        json.loads(out)
