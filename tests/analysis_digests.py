"""Print one sha256 per gain dimension over the Razumikhin analysis, and each
shipped scenario's `arolc bound` output.

    python tests/analysis_digests.py [ROOT] [--values PATH | --time]

Imports arolc from ROOT/src and reads ROOT/scenarios, ROOT being the
checkout this script sits in unless given, so that one script reads the
same draws through two checkouts. For each n in 1, 2, 3, 6 it draws 64
seeded gain sets (SPD K1, K2 with eigenvalues in [0.05, 30), SPD Q in
[0.01, 20), asymmetric within tolerance for odd seeds, r in (1, 2], beta
in (0.5, 2], and the bound scalars) and
prints "n=<n> <sha256>" over, per gain set: the bytes of P and E, and
float.hex of the delay margin, lambda_min(Q), ||E||, ||B^T P|| and the six
ultimate bounds at h = margin / 2. Then it prints "<stem> <exit code>
<output>" for `arolc bound` on each scenario, the output's lines joined by
" | ". A change meant to leave the analysis bit-identical prints the same
lines for both checkouts. With --values, it also saves each draw's margin,
P and E to the .npz file PATH, as arrays margin_<n>, P_<n> and E_<n> with
one row per draw, so that two checkouts' files state the size of a move.
With --time, it prints instead "n=<n> <us>" per n: the microseconds per
analysis of a fresh GainSet, as the margin_grid benchmark times one (the
margin, feasibility at half and twice it, the six bounds at half), the best
of TIMED_PASSES passes over the draws after an untimed one, each pass on
GainSets built before its clock starts. This is a plain script, not a test: it checks nothing and
exits 0 unless a run fails.
"""

import argparse
import contextlib
import hashlib
import io
import sys
import time
from pathlib import Path

import numpy as np

_parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
_parser.add_argument("root", nargs="?", type=Path, default=Path(__file__).resolve().parent.parent,
                     help="checkout whose src and scenarios to read (default: this one)")
_parser.add_argument("--values", type=Path, metavar="PATH",
                     help="save each draw's margin, P and E to this .npz file")
_parser.add_argument("--time", action="store_true",
                     help="print the us per fresh-GainSet analysis for each n instead")
ARGS = _parser.parse_args()
ROOT = ARGS.root.resolve()
sys.path.insert(0, str(ROOT / "src"))

from arolc import cli, stability  # noqa: E402

N_VALUES = (1, 2, 3, 6)
DRAWS = 64
TIMED_PASSES = 5


def spd(rng: np.random.Generator, k: int, lo: float, hi: float) -> np.ndarray:
    basis, _ = np.linalg.qr(rng.standard_normal((k, k)))
    m = (basis * rng.uniform(lo, hi, k)) @ basis.T
    return 0.5 * (m + m.T)


def draw(seed: int, n: int) -> tuple[tuple, dict]:
    """The seed-th n-joint draw: the GainSet's arguments and the bound scalars."""
    rng = np.random.default_rng([seed, n, 3535])
    k1, k2, q = spd(rng, n, 0.05, 30.0), spd(rng, n, 0.05, 30.0), spd(rng, 2 * n, 0.01, 20.0)
    if seed % 2:  # Q asymmetric within GainSet's 1e-9 relative tolerance
        w = rng.uniform(-1.0, 1.0, q.shape)
        q = q + 0.2e-9 * np.abs(q).max() * (w - w.T)
    args = (k1, k2, q, 2.0 - rng.random(), 2.0 - 1.5 * rng.random())  # r, beta
    scalars = dict(c=rng.uniform(0.0, 2.0), Gamma=rng.uniform(0.0, 1.0),
                   theta_norm=rng.uniform(0.0, 0.5), alpha=rng.uniform(1.5, 3.0),
                   epsilon=rng.uniform(0.05, 0.2), c_hat=rng.uniform(0.01, 2.0))
    return args, scalars


def analysis_us(n: int) -> float:
    """Microseconds per analysis of a fresh GainSet over the n-joint draws."""
    draws = [draw(seed, n) for seed in range(DRAWS)]
    gain_sets = [stability.GainSet(*args) for args, _ in draws]
    start = time.perf_counter()
    for gains, (_, scalars) in zip(gain_sets, draws):
        margin = stability.delay_margin(gains)
        stability.check_feasibility(gains, 0.5 * margin)
        stability.check_feasibility(gains, 2.0 * margin)
        bp = stability.BoundParams(h=0.5 * margin, **scalars)
        for case in range(1, 7):
            stability.ultimate_bound(case, gains, bp)
    return (time.perf_counter() - start) / DRAWS * 1e6


def analysis_digest(n: int, values: dict[str, np.ndarray]) -> str:
    """The sha256 of the n-joint draws; their margins, P and E go to values."""
    sha = hashlib.sha256()
    margins, ps, es = [], [], []
    for seed in range(DRAWS):
        args, scalars = draw(seed, n)
        gains = stability.GainSet(*args)
        system = stability.build_error_system(gains)
        margin = stability.delay_margin(gains)
        bp = stability.BoundParams(h=0.5 * margin, **scalars)
        bounds = [stability.ultimate_bound(case, gains, bp) for case in range(1, 7)]
        sha.update(np.ascontiguousarray(system.P, dtype="<f8").tobytes())
        sha.update(np.ascontiguousarray(system.E, dtype="<f8").tobytes())
        for value in [margin, system.q_min, system.e_norm, system.bp_norm, *bounds]:
            sha.update(float(value).hex().encode())
        margins.append(margin)
        ps.append(system.P)
        es.append(system.E)
    values.update({f"margin_{n}": np.array(margins), f"P_{n}": np.array(ps), f"E_{n}": np.array(es)})
    return sha.hexdigest()


def bound_output(path: Path) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["bound", str(path)])
    return f"{code} " + " | ".join((out.getvalue() + err.getvalue()).splitlines())


def main() -> None:
    if ARGS.time:
        for n in N_VALUES:
            analysis_us(n)
            print(f"n={n} {min(analysis_us(n) for _ in range(TIMED_PASSES)):.1f}", flush=True)
        return
    values: dict[str, np.ndarray] = {}
    for n in N_VALUES:
        print(f"n={n}", analysis_digest(n, values), flush=True)
    if ARGS.values is not None:
        np.savez(ARGS.values, **values)
    for path in sorted((ROOT / "scenarios").glob("*.ini")):
        print(path.stem, bound_output(path), flush=True)


if __name__ == "__main__":
    main()
