import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bdm.cli import main


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


def test_translation_to_dm_reads_back(capsys):
    code, dm, _ = run(capsys, "translate", "--to", "dm", "x" + "'" * 100 + " = 0")
    assert code == 0
    code, out, _ = run(capsys, "translate", "--to", "bdm", dm.rstrip("\n"))
    assert (code, out) == (0, dm)
