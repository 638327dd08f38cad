"""What the package imports and exports.

Every module imports only names it uses.  No linter is installed with the
package, so the check walks each file's syntax tree: an imported name counts
as used when it appears as a name anywhere in the same file.  The names
`bdm` exports are pinned, and the README's library example runs.
"""

import ast
import os
import subprocess
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import bdm

ROOT = Path(__file__).resolve().parent.parent
# src/bdm/__init__.py imports to re-export, so it is not scanned
FILES = sorted(
    path
    for path in [*ROOT.joinpath("src", "bdm").glob("*.py"), *ROOT.joinpath("tests").glob("*.py")]
    if path.name != "__init__.py"
)


def _unused_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    rel = path.relative_to(ROOT)
    return [f"{rel}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    assert FILES
    assert [hit for path in FILES for hit in _unused_imports(path)] == []


def _imports_oracle(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            if node.module in ("oracle", "bdm.oracle") or (
                node.module in (None, "bdm") and "oracle" in names
            ):
                return True
        elif isinstance(node, ast.Import):
            if any(alias.name == "bdm.oracle" for alias in node.names):
                return True
    return False


def test_oracle_is_a_leaf():
    """The brute-force oracle checks the library from outside: only the CLI
    and the package's re-exports import it."""
    importers = sorted(
        path.name
        for path in ROOT.joinpath("src", "bdm").glob("*.py")
        if _imports_oracle(ast.parse(path.read_text(), str(path)))
    )
    assert importers == ["__init__.py", "cli.py"]


def test_cli_start_imports_no_dataclasses():
    """Every `bdm` process imports the CLI; importing `dataclasses` (which
    pulls in `inspect`) and generating the classes' methods with it took a
    fifth of a short command's wall time."""
    script = "import sys, bdm.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def _json_imports(tmp_path, *flags):
    """stdout of `python -S -X importtime -m bdm.cli check` over four, and
    the json modules it imported (-S: no site module may import json first)."""
    alg = tmp_path / "four.alg"
    alg.write_text("atoms 2\nsigma 2 1\n")
    done = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-m", "bdm.cli",
         "check", "--algebra", str(alg), *flags],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    modules = [line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()]
    return done.stdout, [m for m in modules if m == "json" or m.startswith("json.")]


def test_cli_loads_json_only_for_json_answers(tmp_path):
    """A command without --json never imports json; with it, the answer is
    the same one line of JSON with sorted keys."""
    out, loaded = _json_imports(tmp_path)
    assert (out, loaded) == ("atoms 2\nsigma 2 1\n", [])
    out, loaded = _json_imports(tmp_path, "--json")
    assert out == '{"atoms": 2, "sigma": [2, 1]}\n'
    assert "json" in loaded


def test_public_names():
    """The names `bdm` exports, the submodules it has imported among them:
    adding or removing one edits this list."""
    assert sorted(bdm.__all__) == [
        "AtomRefinement", "BdmError", "CASE1_ENTRIES", "CapExceeded", "Caps", "Case1Entry",
        "EcStage", "Element", "FOUR", "FiniteAlgebra", "Formula", "IdentityCheck",
        "InconsistentTripleError", "NoRealizerError", "ParseError", "TWO", "Term", "Triple",
        "TrivialTripleError", "Witness", "algebra", "algebra_over", "all_realizations_in",
        "amalgamate", "brute_force_trivial", "build_chain", "compose_refinements",
        "count_sigma_consistent", "decide", "ec_stage", "errors", "eval_formula", "eval_term",
        "find_isomorphism_over", "find_matching_element", "format_ast", "four_power",
        "free_function_count", "free_vars", "generated_subalgebra", "identity_refinement",
        "in_acl", "is_four_power_shaped", "is_sigma_consistent", "is_trivial", "model",
        "oracle", "oracle_witness_search", "parse", "parse_formula", "parse_term",
        "realizations", "refine_triple", "sigma_consistent_triples", "solver", "terms",
        "translate_dm", "triple_of_element", "twist_product", "valid_identity",
        "witness_abstract", "witness_via_four_power",
    ]


def test_readme_library_example():
    """The `python` block under "Library example" runs and prints what its
    comments say."""
    section = ROOT.joinpath("README.md").read_text().split("## Library example\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    out = StringIO()
    with redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue() == "2\nTrue\n"
