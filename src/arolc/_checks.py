"""The finite-range check that the constructors and factories share.

Message contract: an argument outside its range raises a ValueError whose
message is "<name> must be finite", "<name> must be finite and positive",
"<name> must be finite and nonnegative" or "<name> must be finite and
exceed 1", the argument's name first, so that ``scenario_io._section`` can
read it as the key of the file's section. NaN is outside every range.
"""

from __future__ import annotations

import math

import numpy as np

# kind: (lower bound, whether it is in range, the message's last words);
# "finite" takes a number or an array, every entry finite
_RANGES = {"finite": (None, None, "finite"),
           "positive": (0.0, False, "finite and positive"),
           "nonnegative": (0.0, True, "finite and nonnegative"),
           "above 1": (1.0, False, "finite and exceed 1")}


def require(kind: str, **values) -> None:
    """Raise the ValueError of the first of values outside the range of
    kind, a key of _RANGES. Comparisons, not calls, test a number: the
    delay-margin analysis builds a BoundParams, three of these, per gain set."""
    low, closed, words = _RANGES[kind]
    for name, value in values.items():
        if low is None:
            within = np.isfinite(value).all()
        else:
            within = (low <= value if closed else low < value) and value < math.inf
        if not within:
            raise ValueError(f"{name} must be {words}")
