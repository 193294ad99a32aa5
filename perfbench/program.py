"""Locate the program under test: the ``mcma`` package in ``src/`` of the
checkout that holds this benchmark, never an installed copy."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_mcma():
    """Import ``mcma`` from ``<checkout>/src``, or exit with a message."""
    if not (SRC / "mcma" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program to measure: {SRC / 'mcma'} is missing")
    sys.path.insert(0, str(SRC))
    import mcma
    import mcma.cli  # the package does not import its command line module
    if SRC not in Path(mcma.__file__).resolve().parents:
        sys.exit(f"perfbench: imported mcma from {mcma.__file__}, not {SRC}")
    return mcma
