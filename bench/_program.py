"""Locate the program under test: the `recipe` package in this checkout's src/.

The benchmark never installs anything; it imports the package straight from
the source tree next to it, and refuses to run against any other copy.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load():
    """Import `recipe` from ROOT/src; raise ImportError if it is not there."""
    if not (SRC / "recipe" / "__init__.py").is_file():
        raise ImportError(f"no recipe package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import recipe

    if Path(recipe.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"recipe was imported from {recipe.__file__}, not {SRC}")
    return recipe
