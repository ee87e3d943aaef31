"""Benchmark runner: one workload, one seed, one process, one thread.

Usage, from the repository root:

    python3 benchmarks/run.py --workload wmr_compare --seed 0 --seconds 20 --trace 0

With ``--trace 0`` the run times the workload for ``--seconds`` (always
at least one whole unit) with no tracing installed and reports the
end-to-end metrics, scaled to a fixed host speed by HostReference.
With ``--trace 1`` it solves one traced unit, with simulated durations
capped at TRACE_DURATION so that every span fits in memory, and reports
the per-layer metrics; the same unit solved untraced beforehand gives
``trace.overhead_frac``. Human-readable lines come first;
the last line of standard output is the JSON result. Spans and a full
report are written under ``.bench_out/<workload>/``. See README.md.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools to one thread before numpy is imported.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from bisect import bisect_right  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from tracer import Tracer, instrument  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
GOLDEN_SEED = 0
SETUP_REPEATS = 21
# Host speed reference: a fixed numpy/Python kernel, independent of arolc,
# timed every REFERENCE_EVERY_S by an interval-timer signal all through the
# untraced run. Reported times are scaled to the speed at which the kernel
# takes REFERENCE_NOMINAL_S, which cancels the host's speed drift (see
# README.md, "Steadiness"). The kernel's own time is taken off the clock
# that the workloads time with.
REFERENCE_STEPS = 10  # RK4 steps per sample, about 1 ms
REFERENCE_NOMINAL_S = 0.00125
REFERENCE_EVERY_S = 0.25
TRACE_DURATION = 4.0  # s of simulated time per run in the traced unit
REQUIRED = ("src/arolc/__init__.py", "src/arolc/cli.py", "scenarios/wmr_s1_arolc.ini",
            "scenarios/two_link_s1_arolc.ini", "scenarios/margin_reference.ini")

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]


def _calls(tot, name):
    return tot.get(name, (0, 0.0, 0.0))[0]


def _us(tot, name):
    calls, total, _ = tot.get(name, (0, 0.0, 0.0))
    return total / calls * 1e6 if calls else 0.0


def _total(tot, name):
    return tot.get(name, (0, 0.0, 0.0))[1]


def _self(tot, name):
    return tot.get(name, (0, 0.0, 0.0))[2]


# (metric, unit, better, value from (span totals, tracer, context))
PER_LAYER = [
    ("plants.accel.calls", "count", "lower", lambda t, tr, c: _calls(t, "plants.accel")),
    ("plants.accel.us", "us", "lower", lambda t, tr, c: _us(t, "plants.accel")),
    ("plants.accel.self_s", "s", "lower", lambda t, tr, c: _self(t, "plants.accel")),
    ("plants.mass_matrix.calls", "count", "lower",
     lambda t, tr, c: _calls(t, "plants.mass_matrix")),
    ("delays.sample.calls", "count", "lower", lambda t, tr, c: _calls(t, "delays.sample")),
    ("delays.sample.us", "us", "lower", lambda t, tr, c: _us(t, "delays.sample")),
    ("delays.sample.distinct_frac", "ratio", "higher",
     lambda t, tr, c: tr.distinct_sample_frac()),
    ("delays.delay_at.calls", "count", "lower", lambda t, tr, c: _calls(t, "delays.delay_at")),
    ("delays.delay_at.us", "us", "lower", lambda t, tr, c: _us(t, "delays.delay_at")),
    ("delays.integrate.calls", "count", "lower",
     lambda t, tr, c: _calls(t, "delays.integrate")),
    ("delays.integrate.us", "us", "lower", lambda t, tr, c: _us(t, "delays.integrate")),
    ("delays.push.calls", "count", "lower", lambda t, tr, c: _calls(t, "delays.push")),
    ("delays.push.us", "us", "lower", lambda t, tr, c: _us(t, "delays.push")),
    ("controllers.arolc_step.calls", "count", "lower",
     lambda t, tr, c: _calls(t, "controllers.arolc_step")),
    ("controllers.arolc_step.us", "us", "lower",
     lambda t, tr, c: _us(t, "controllers.arolc_step")),
    ("controllers.pcon_step.calls", "count", "lower",
     lambda t, tr, c: _calls(t, "controllers.pcon_step")),
    ("controllers.pcon_step.us", "us", "lower",
     lambda t, tr, c: _us(t, "controllers.pcon_step")),
    ("controllers.pcon_step.self_s", "s", "lower",
     lambda t, tr, c: _self(t, "controllers.pcon_step")),
    ("trajectories.eval.calls", "count", "lower",
     lambda t, tr, c: _calls(t, "trajectories.eval")),
    ("trajectories.eval.us", "us", "lower", lambda t, tr, c: _us(t, "trajectories.eval")),
    ("sim.rk4_steps", "count", "lower",
     lambda t, tr, c: int(tr.counters.get("sim.rk4_steps", 0))),
    ("sim.rhs_evals", "count", "lower", lambda t, tr, c: _calls(t, "plants.accel")),
    ("sim.simulate.self_s", "s", "lower", lambda t, tr, c: _self(t, "sim.simulate")),
    ("sim.residual.s", "s", "lower", lambda t, tr, c: _total(t, "sim.residual")),
    ("sim.residual.points", "count", "higher",
     lambda t, tr, c: int(tr.counters.get("sim.residual.points", 0))),
    ("sim.trace_to_csv.s", "s", "lower", lambda t, tr, c: _total(t, "sim.trace_to_csv")),
    ("sim.trace_to_csv.bytes", "bytes", "lower",
     lambda t, tr, c: int(tr.counters.get("sim.trace_to_csv.bytes", 0))),
    ("cli.compare.s", "s", "lower", lambda t, tr, c: _total(t, "cli.compare")),
    ("stability.delay_margin.calls", "count", "lower",
     lambda t, tr, c: _calls(t, "stability.delay_margin")),
    ("stability.delay_margin.us", "us", "lower",
     lambda t, tr, c: _us(t, "stability.delay_margin")),
    ("stability.ultimate_bound.us", "us", "lower",
     lambda t, tr, c: _us(t, "stability.ultimate_bound")),
    ("stability.build_error_system.calls", "count", "lower",
     lambda t, tr, c: _calls(t, "stability.build_error_system")),
    ("stability.error_systems_per_gainset", "count", "lower",
     lambda t, tr, c: (_calls(t, "stability.build_error_system") / c["gainsets"]
                       if c["gainsets"] else 0.0)),
    ("linalg.solve_lyapunov.calls", "count", "lower",
     lambda t, tr, c: _calls(t, "linalg.solve_lyapunov")),
    ("linalg.solve_lyapunov.us", "us", "lower", lambda t, tr, c: _us(t, "linalg.solve_lyapunov")),
    ("metrics.metrics_from_trace.us", "us", "lower",
     lambda t, tr, c: _us(t, "metrics.metrics_from_trace")),
    ("scenario_io.load_config.us", "us", "lower",
     lambda t, tr, c: _us(t, "scenario_io.load_config")),
    ("scenario_io.build_scenario.us", "us", "lower",
     lambda t, tr, c: _us(t, "scenario_io.build_scenario")),
    ("trace.overhead_frac", "ratio", "lower", lambda t, tr, c: c["overhead_frac"]),
]


def reference_kernel(steps: int = REFERENCE_STEPS) -> np.ndarray:
    """Fixed RK4 loop shaped like arolc's inner loop, written out here so no change
    to arolc can move it: a delay-buffer lookup with bisect and interpolation,
    a payload-dependent 2 x 2 inertia, a gyroscopic bias and a 2 x 2 solve per stage.
    """
    times = [i * 0.01 for i in range(30)]
    values = [np.array([0.01 * i, -0.02 * i]) for i in range(30)]

    def applied(t):
        tq = t - (0.02 + 0.08 * abs(np.sin(t)))
        i = bisect_right(times, tq)
        lam = (tq - times[i - 1]) / (times[i] - times[i - 1])
        return (1.0 - lam) * values[i - 1] + lam * values[i]

    def rhs(t, y):
        a, c = 0.0975 / 2.0, 0.0975 / 0.33
        m = 10.0 + (3.5 if t % 10.0 < 5.0 else 0.0)
        diag, off = m * a * a + 0.5 * c * c + 0.0025, m * a * a - 0.5 * c * c
        bias = a * c * c * (y[2] - y[3]) * np.array([y[3], -y[2]]) + 0.002 * y[2:]
        out = np.empty(4)
        out[:2] = y[2:]
        out[2:] = np.linalg.solve(np.array([[diag, off], [off, diag]]), applied(t) - bias)
        return out

    y, t, dt = np.array([0.0, 0.0, 1.0, 2.0]), 0.15, 1e-3
    for _ in range(steps):
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * dt, y + (0.5 * dt) * k1)
        k3 = rhs(t + 0.5 * dt, y + (0.5 * dt) * k2)
        k4 = rhs(t + dt, y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += dt
    return y


class HostReference:
    """Timings of reference_kernel taken from a SIGALRM handler while sampling."""

    def __init__(self):
        self.samples: list[float] = []
        self.stolen = 0.0  # s spent in the handler

    def _sample(self, signum, frame) -> None:
        started = time.perf_counter()
        reference_kernel()
        elapsed = time.perf_counter() - started
        self.samples.append(elapsed)
        self.stolen += elapsed

    def clock(self) -> float:
        """perf_counter without the time spent taking reference samples."""
        return time.perf_counter() - self.stolen

    @contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_EVERY_S, REFERENCE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        if not self.samples:  # a run shorter than one period
            self._sample(None, None)

    @property
    def scale(self) -> float:
        """Factor from measured seconds to seconds at reference speed."""
        # The mean, not the median: stalls slow the program in proportion to
        # their share of the run, and only the mean counts them that way.
        return REFERENCE_NOMINAL_S / statistics.fmean(self.samples)


def import_arolc():
    """Import arolc (and its CLI) afresh; numpy stays loaded."""
    for name in [m for m in sys.modules if m == "arolc" or m.startswith("arolc.")]:
        del sys.modules[name]
    arolc = importlib.import_module("arolc")
    importlib.import_module("arolc.cli")
    return arolc


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = root / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "arolc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def repro_record(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "commit": git_commit(ROOT), "source_sha256": source_digest(ROOT),
    }


def measure_setup(wl, raw, clock=time.perf_counter):
    """SETUP_REPEATS timed set-ups (fresh arolc import + the workload's set-up)."""
    samples = []
    for _ in range(SETUP_REPEATS):
        started = clock()
        arolc = import_arolc()
        wl.setup(arolc, raw)
        samples.append(clock() - started)
    return arolc, samples


def run_untraced(wl, arolc, seconds):
    """Solve fresh units until `seconds` have passed (at least one)."""
    units = []
    started = time.perf_counter()
    while not units or time.perf_counter() - started < seconds:
        index = len(units)
        units.append(wl.solve(wl.setup(arolc, wl.generate(index)), index))
    return units


def run_traced(wl, arolc, out: Path):
    """One unit twice untraced, then once traced.

    Returns (all units, the traced unit, its tracer, trace overhead fraction).
    """
    raw = wl.generate(0)
    units = [wl.solve(wl.setup(arolc, raw), 0) for _ in range(2)]
    tracer = Tracer()
    restore = instrument(tracer)
    try:
        traced = wl.solve(wl.setup(arolc, raw), 0, tracer)
    finally:
        restore()
    tracer.write(out / "spans.npz")
    overhead = traced.wall / min(u.wall for u in units) - 1.0
    return units + [traced], traced, tracer, overhead


def golden_report(wl_name: str, digests: dict, seed: int) -> str:
    if seed != GOLDEN_SEED:
        return f"golden digests: not compared (they are recorded for seed {GOLDEN_SEED})"
    golden = json.loads(GOLDEN.read_text()).get(wl_name, {}) if GOLDEN.is_file() else {}
    if not golden:
        return "golden digests: none recorded for this workload"
    same = sum(digests.get(label) == sha for label, sha in golden.items())
    return f"golden digests (report only): {same}/{len(golden)} trace.csv files match"


def write_golden(wl_name: str, digests: dict) -> None:
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    golden[wl_name] = dict(sorted(digests.items()))
    GOLDEN.write_text(json.dumps(dict(sorted(golden.items())), indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help=f"record this run's trace.csv digests (seed {GOLDEN_SEED} only)")
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not an arolc checkout ({ROOT}): missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    if args.write_golden and (args.seed != GOLDEN_SEED or args.trace):
        print(f"error: --write-golden needs --seed {GOLDEN_SEED} --trace 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    out = ROOT / ".bench_out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    cls = WORKLOADS[args.workload]
    wl = cls(ROOT, out, args.seed, duration=TRACE_DURATION if args.trace else None)
    raw_inputs = wl.generate(0)
    if args.trace:
        arolc, setup_samples = measure_setup(wl, raw_inputs)
        checks = wl.reference_checks()
        units, traced, tracer, overhead = run_traced(wl, arolc, out)
    else:
        reference = HostReference()
        wl.clock = reference.clock
        with reference.sampling():
            arolc, setup_samples = measure_setup(wl, raw_inputs, reference.clock)
            checks = wl.reference_checks()
            units = run_untraced(wl, arolc, args.seconds)

    items = checks + [item for unit in units for item in unit.items]
    failed = [item for item in items if not item[1]]
    lines = [f"{args.workload}: seed {args.seed}, trace {args.trace}, {len(units)} unit(s), "
             f"{len(items)} checked items, {len(failed)} failed "
             f"(failed_frac {len(failed) / len(items):.4g})"]
    lines += [f"  FAILED {label}: {detail}" for label, _, detail in failed]
    lines += [f"  check {label}: {'ok' if ok else 'FAILED'} ({detail})"
              for label, ok, detail in checks]
    lines += [f"  {note}" for unit in units[:1] for note in unit.notes]

    if args.trace:
        context = {"gainsets": traced.work if args.workload == "margin_grid" else 0,
                   "overhead_frac": overhead}
        totals = tracer.totals()
        metrics = {name: {"value": fn(totals, tracer, context), "unit": unit}
                   for name, unit, _, fn in PER_LAYER}
        lines.append(f"  traced unit: {len(tracer.name_id)} spans -> {out / 'spans.npz'}")
    else:
        walls = [w for u in units for w in u.walls]
        work = sum(u.work for u in units)
        work_time = sum(u.work_time for u in units)
        scale = reference.scale
        raw = {
            "setup_s": statistics.median(setup_samples),
            # 0.0 only when every solution raised; correct is then false
            "wall_s": statistics.median(walls) if walls else 0.0,
            "work_per_s": work / work_time if work_time > 0 else 0.0,
        }
        values = {
            "setup_s": raw["setup_s"] * scale,
            "wall_s": raw["wall_s"] * scale,
            "work_per_s": raw["work_per_s"] / scale,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        work_name = "gainsets_per_s" if args.workload == "margin_grid" else "rk4_steps_per_s"
        lines.append(f"  times at reference speed: reference kernel mean "
                     f"{REFERENCE_NOMINAL_S / scale * 1e3:.4g} ms over {len(reference.samples)} "
                     f"samples, nominal {REFERENCE_NOMINAL_S * 1e3:g} ms, scale {scale:.4g}")
        lines.append(f"  {'setup_s':18s} {values['setup_s']:.6g} s (median of "
                     f"{len(setup_samples)} set-ups; measured {raw['setup_s']:.6g} s)")
        lines.append(f"  {'wall_s':18s} {values['wall_s']:.6g} s (median of {len(walls)} "
                     f"solutions; measured {raw['wall_s']:.6g} s)")
        lines.append(f"  {'work_per_s':18s} {values['work_per_s']:.6g} 1/s ({work_name}: {work} "
                     f"in {work_time:.4g} s; measured {raw['work_per_s']:.6g} 1/s)")
        lines.append(f"  {'peak_rss_mb':18s} {values['peak_rss_mb']:.6g} MB")
        item_ms = [ms for u in units for ms in u.item_ms]
        if item_ms:
            p50, p99 = np.percentile(item_ms, [50, 99])
            lines.append(f"  {'gainset_ms_p50':18s} {p50:.6g} ms, gainset_ms_p99 {p99:.6g} ms "
                         f"(measured; {len(item_ms)} gain sets, "
                         f"{int(len(item_ms) * 0.01)} beyond p99)")
        lines.append("  " + golden_report(args.workload, units[0].digests, args.seed))
        if args.write_golden:
            write_golden(args.workload, units[0].digests)
            lines.append(f"  wrote {len(units[0].digests)} digests to {GOLDEN}")

    repro = repro_record(args)
    lines.append("  repro: " + json.dumps(repro, sort_keys=True))
    result = {"correct": not failed, "attempted": len(items), "failed": len(failed),
              "metrics": metrics}
    (out / "report.json").write_text(json.dumps(
        {"result": result, "repro": repro, "lines": lines,
         "setup_samples_s": setup_samples}, indent=2) + "\n")
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
