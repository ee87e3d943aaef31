"""Print one sha256 per shipped scenario, over every array of its full-length run.

    python tests/trace_digests.py [stem ...] [--root ROOT] [--time | --import]

Simulates each scenario in ROOT/scenarios (or the named stems) for its
whole duration and prints "<stem> <sha256>". The digest covers every Trace
array in field order, little-endian float64. two_link_s1_arolc runs with
diagnostics, and its digest also covers every FineRecord array and the
(times, residual norms) of error_dynamics_residual. A change meant to leave
the traces bit-identical prints the same lines as its parent. It imports
arolc from ROOT/src, ROOT being the checkout this script sits in unless
given, so that one script reads two checkouts. With --time, it prints
instead "<stem> <us>" for each of TIMED (or the named stems): the
microseconds per RK4 step of its run, cut to TIMED's duration where it
names one, the best of TIMED_PASSES runs after an untimed one. With
--import, it prints instead "import <ms>", the median of IMPORTS fresh
imports of arolc and arolc.cli (numpy staying loaded), and "compile <ms>",
compile() of every module of ROOT/src/arolc, the best of IMPORTS passes,
both from source as in a fresh checkout run with PYTHONDONTWRITEBYTECODE=1:
no bytecode is written, and none that a __pycache__ holds is read. This is
a plain script, not a test: it checks nothing and exits 0 unless a run
fails.
"""

import argparse
import dataclasses
import hashlib
import importlib
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

_parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
_parser.add_argument("stems", nargs="*", help="scenario stems to run (default: every one)")
_parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                     help="checkout whose src and scenarios to read (default: this one)")
_mode = _parser.add_mutually_exclusive_group()
_mode.add_argument("--time", action="store_true",
                   help="print the us per RK4 step of the TIMED runs instead")
_mode.add_argument("--import", dest="imports", action="store_true",
                   help="print the ms of a fresh import and of compiling the source instead")
ARGS = _parser.parse_args()
ROOT = ARGS.root.resolve()
sys.path.insert(0, str(ROOT / "src"))
if ARGS.imports:
    # compile every import from source: write no bytecode, and look for it
    # in an empty tree (removed at exit) instead of the checkout's __pycache__
    sys.dont_write_bytecode = True
    _EMPTY = tempfile.TemporaryDirectory()
    sys.pycache_prefix = _EMPTY.name

from arolc.scenario_io import apply_override, build_scenario, load_config  # noqa: E402
from arolc.sim import error_dynamics_residual, simulate  # noqa: E402

# the run that also records its fine grid and checks the residual
DIAGNOSTICS = {"two_link_s1_arolc"}
# the timed runs and their simulated seconds: 10k RK4 steps each
TIMED = {"wmr_s1_arolc": "10.0", "wmr_s1_pcon": "10.0", "two_link_s1_arolc": "1.0"}
TIMED_PASSES = 5
# fresh imports per --import process, as many as the benchmark's set-ups
IMPORTS = 21


def scenario(stem: str, duration: str | None = None):
    config = load_config(ROOT / "scenarios" / f"{stem}.ini")
    if duration is not None:
        apply_override(config, "sim.duration", duration)
    return build_scenario(config)


def digest(stem: str) -> str:
    sc = scenario(stem)
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


def step_us(stem: str) -> float:
    """Microseconds per RK4 step of the stem's run (its TIMED duration, if
    listed), best of TIMED_PASSES after an untimed one."""
    sc = scenario(stem, TIMED.get(stem))
    steps = round(sc.duration / sc.dt)
    diagnostics = stem in DIAGNOSTICS
    simulate(sc, diagnostics=diagnostics)
    best = float("inf")
    for _ in range(TIMED_PASSES):
        start = time.perf_counter()
        simulate(sc, diagnostics=diagnostics)
        best = min(best, time.perf_counter() - start)
    return best / steps * 1e6


def import_ms() -> tuple[float, float]:
    """The median ms of IMPORTS fresh imports of arolc and arolc.cli, and
    the best ms of IMPORTS passes of compile() over ROOT/src/arolc's
    modules."""
    imports = []
    for _ in range(IMPORTS):
        for name in [m for m in sys.modules if m == "arolc" or m.startswith("arolc.")]:
            del sys.modules[name]
        start = time.perf_counter()
        importlib.import_module("arolc")
        importlib.import_module("arolc.cli")
        imports.append(time.perf_counter() - start)
    sources = [(str(path), path.read_text())
               for path in sorted((ROOT / "src" / "arolc").glob("*.py"))]
    best = float("inf")
    for _ in range(IMPORTS):
        start = time.perf_counter()
        for path, source in sources:
            compile(source, path, "exec")
        best = min(best, time.perf_counter() - start)
    return statistics.median(imports) * 1e3, best * 1e3


def main() -> None:
    if ARGS.imports:
        fresh, compiled = import_ms()
        print("import", f"{fresh:.3f}")
        print("compile", f"{compiled:.3f}")
        return
    if ARGS.time:
        for stem in ARGS.stems or TIMED:
            print(stem, f"{step_us(stem):.3f}", flush=True)
        return
    for stem in ARGS.stems or sorted(p.stem for p in (ROOT / "scenarios").glob("*.ini")):
        print(stem, digest(stem), flush=True)


if __name__ == "__main__":
    main()
