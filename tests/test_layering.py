"""The package re-exports nothing, so a module loads only the modules it imports.

Each check runs in a fresh interpreter: in this one, other tests have
already imported every module.
"""
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def fresh(code: str) -> str:
    """What code prints when run in a new interpreter with src on its path."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    ).stdout


def test_package_defines_no_public_name():
    names = "import etsgd; print([n for n in vars(etsgd) if not n.startswith('_')])"
    assert fresh(names) == "[]\n"


def test_objectives_loads_no_higher_layer():
    loaded = (
        "import sys, etsgd.objectives; "
        "print(sorted(m for m in sys.modules if m.startswith('etsgd')))"
    )
    assert fresh(loaded) == "['etsgd', 'etsgd.objectives', 'etsgd.rngs']\n"
