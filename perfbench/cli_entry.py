"""Entry point of a traced cli op: wrap the package's functions, run
`bdm.cli.main` on the remaining arguments, then write the spans.

    python3 perfbench/cli_entry.py SPANS_FILE [bdm arguments...]

`PYTHONPATH` must name the checkout's `src`.
"""

import sys
from pathlib import Path

import bdm.cli
from spans import Tracer


def main() -> int:
    tracer = Tracer()
    tracer.install()
    try:
        return bdm.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        tracer.write(Path(sys.argv[1]))


if __name__ == "__main__":
    sys.exit(main())
