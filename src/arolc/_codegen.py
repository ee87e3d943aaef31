"""Source-generation helpers shared by the compiled plant faces (plants),
the simulator's block of control periods (sim) and the control laws
(controllers): each builds the lines of a function bind, which binds its
constants and returns the unrolled function for one dimension n."""

from __future__ import annotations

import keyword
import re
from functools import reduce

# a name in source: not part of a number, not an attribute
_NAME = re.compile(r"(?<![\w.])[A-Za-z_]\w*")


def _entries(prefix: str, n: int) -> str:
    """'p0, p1, ..., ' for n entries: a tuple's items or an unpacking target."""
    return "".join(f"{prefix}{i}, " for i in range(n))


def _sum(terms) -> str:
    """The source of a sum of terms added left to right from 0.0:
    ((0.0 + t0) + t1) + ..."""
    return reduce(lambda total, term: f"({total} + {term})", terms, "0.0")


def _compile(lines, name: str):
    """The function bind that lines of Python source define, compiled under
    the file name <name>, as ``dataclasses`` builds its methods."""
    namespace = {}
    exec(compile("\n".join(lines) + "\n", f"<{name}>", "exec"), namespace)
    return namespace["bind"]


def _names(source: str) -> set:
    """The names of source's code, as ``_rename`` sees them: keywords
    included, comments left out."""
    return {m[0] for line in source.split("\n") for m in _NAME.finditer(line.partition("#")[0])}


def _rename(source: str, rename) -> str:
    """source with each name of its code (keywords, attributes and the
    digits of numbers aside; comments as they stand) replaced by
    rename(name): how one kernel's statements are spliced into another's
    function under names of their own. source holds no string literal."""
    def code(line):
        statement, mark, comment = line.partition("#")
        return _NAME.sub(lambda m: m[0] if keyword.iskeyword(m[0]) else rename(m[0]),
                         statement) + mark + comment

    return "\n".join(map(code, source.split("\n")))
