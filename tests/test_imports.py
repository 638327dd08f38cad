"""Every module imports only names it uses.

No linter is installed with the package, so the check walks each file's
syntax tree: an imported name counts as used when it appears as a name
anywhere in the same file.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

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
