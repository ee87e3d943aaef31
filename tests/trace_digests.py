"""Print one sha256 per shipped scenario, over every array of its full-length run.

    python tests/trace_digests.py [stem ...]

Simulates each scenario in scenarios/ (or the named stems) for its whole
duration and prints "<stem> <sha256>". The digest covers every Trace array
in field order, little-endian float64. two_link_s1_arolc runs with
diagnostics, and its digest also covers every FineRecord array and the
(times, residual norms) of error_dynamics_residual. A change meant to leave
the traces bit-identical prints the same lines as its parent. This is a
plain script, not a test: it checks nothing and exits 0 unless a run
fails. It imports arolc from the src/ directory next to it.
"""

import dataclasses
import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from arolc.scenario_io import build_scenario, load_config  # noqa: E402
from arolc.sim import error_dynamics_residual, simulate  # noqa: E402

# the run that also records its fine grid and checks the residual
DIAGNOSTICS = {"two_link_s1_arolc"}


def digest(stem: str) -> str:
    sc = build_scenario(load_config(ROOT / "scenarios" / f"{stem}.ini"))
    diagnostics = stem in DIAGNOSTICS
    trace = simulate(sc, diagnostics=diagnostics)
    arrays = [getattr(trace, f.name) for f in dataclasses.fields(trace) if f.name != "fine"]
    if diagnostics:
        arrays += [getattr(trace.fine, f.name) for f in dataclasses.fields(trace.fine)]
        arrays += error_dynamics_residual(trace, sc)
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(np.ascontiguousarray(array, dtype="<f8").tobytes())
    return sha.hexdigest()


def main(stems) -> None:
    for stem in stems or sorted(p.stem for p in (ROOT / "scenarios").glob("*.ini")):
        print(stem, digest(stem), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
