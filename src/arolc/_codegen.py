"""Source-generation helpers shared by the compiled plant faces (plants),
the RK4 period (sim) and the control laws (controllers): each builds the
lines of a function bind, which binds its constants and returns the
unrolled function for one dimension n."""

from __future__ import annotations

from functools import reduce


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
