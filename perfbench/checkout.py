"""Locate the checkout the benchmark runs in and import the program from it."""
from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


class MissingProgram(RuntimeError):
    """The checkout holds no importable `invbases` source tree."""


def require_source() -> None:
    if not (SRC / "invbases" / "__init__.py").is_file():
        raise MissingProgram("no invbases source under %s" % SRC)


def import_program():
    """Import `invbases` from this checkout's `src/`, never from elsewhere.

    The benchmark times the source next to it; an installed copy of another
    version would silently be timed instead.
    """
    require_source()
    sys.path.insert(0, str(SRC))
    import invbases

    where = Path(invbases.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise MissingProgram("invbases imported from %s, not from %s" % (where, SRC))
    return invbases
