"""Command-line entry points.

Subcommands:
  bound     print the Razumikhin delay margin and feasibility of a scenario
  simulate  run one scenario, write trace.csv and metrics.json
  compare   run two scenarios, write per-run artifacts plus a side-by-side
            metrics table
  sweep     rerun a scenario over a parameter range, aggregate metrics

Exit codes: 0 success, 1 runtime failure (e.g. divergence; a partial trace
is still written), 2 scenario errors (an unreadable path, a malformed file
or an out-of-range value).
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

from .controllers import ArolcConfig
from .delays import max_delay
from .metrics import metrics_from_trace, metrics_to_json
from .scenario_io import (
    ScenarioError,
    analyse_gains,
    apply_override,
    build_gains,
    build_scenario,
    load_config,
    scenario_hash,
)
from .sim import SimulationDiverged, simulate, trace_to_csv
from .stability import check_feasibility, delay_margin

__all__ = ["main"]

# Cap on the values one `sweep --range` may give; each value is a whole simulation.
_MAX_SWEEP_VALUES = 10_000


def _apply_cli_overrides(config, args) -> None:
    """Write the --seed, --dt and --control-dt flags that are given into
    the config's [sim] section."""
    for key, value in (("seed", args.seed), ("dt", args.dt),
                       ("control_dt", args.control_dt)):
        if value is not None:
            apply_override(config, f"sim.{key}", repr(value))


def _load(path, args):
    """(config, scenario) of the scenario file at path under the command
    line's overrides; the scenario is labelled with the file's stem."""
    config = load_config(path)
    _apply_cli_overrides(config, args)
    return config, build_scenario(config, label=Path(path).stem)


def _measure(config, sc):
    """Simulate the scenario sc built from config; returns (trace, metrics
    report, the SimulationDiverged raised or None). A diverged run keeps its
    partial trace."""
    started = time.perf_counter()
    try:
        trace, diverged = simulate(sc), None
    except SimulationDiverged as exc:
        trace, diverged = exc.partial_trace, exc
    runtime = time.perf_counter() - started
    report = metrics_from_trace(trace, sc.trajectory.diameter, runtime=runtime,
                                scenario_hash=scenario_hash(config))
    return trace, report, diverged


def _run_one(config, sc, out_dir: Path, quiet: bool) -> tuple[int, object]:
    trace, report, diverged = _measure(config, sc)
    if diverged is not None:
        print(f"error: {diverged}", file=sys.stderr)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_to_csv(trace, out_dir / "trace.csv")
    (out_dir / "metrics.json").write_text(metrics_to_json(report) + "\n")
    if not quiet:
        ae = ", ".join(f"{a:.6g}" for a in report.ae_per_dim)
        print(f"{sc.label}: rows={len(trace)} ae=[{ae}] tv={report.tv:.6g} "
              f"runtime={report.runtime:.2f}s -> {out_dir}")
    return int(diverged is not None), report


def _write_metrics_csv(path: Path, lead: list[str], rows, per_dim) -> str:
    """Write one CSV line per (lead cells, MetricsReport) row: the lead
    columns, the per-dimension lists named in per_dim ("ae" for
    ae_per_dim, ...), then tv, sup_error_tail and runtime. A row of fewer
    plant coordinates than the widest (a sweep over plant.n) leaves its last
    per-dimension cells empty. Returns the text."""
    n = max(len(rep.ae_per_dim) for _, rep in rows)
    header = lead + [f"{name}_{i}" for name in per_dim for i in range(n)]
    lines = [",".join(header + ["tv", "sup_error_tail", "runtime"])]
    for cells, rep in rows:
        for name in per_dim:
            values = [f"{v:.9g}" for v in getattr(rep, f"{name}_per_dim")]
            cells = cells + values + [""] * (n - len(values))
        tail = [rep.tv, rep.sup_error_tail, rep.runtime]
        lines.append(",".join(cells + [f"{v:.9g}" for v in tail]))
    text = "\n".join(lines) + "\n"
    path.write_text(text)
    return text


def _cmd_bound(args) -> int:
    config = load_config(args.scenario)
    sc = build_scenario(config)
    if isinstance(sc.controller, ArolcConfig):
        gains = sc.controller.gains  # its error system is already built
    elif "gains" in config:
        gains = build_gains(config, sc.plant.dim)
    else:
        print("error: [gains] section required for bound", file=sys.stderr)
        return 2
    analyse_gains(gains)
    margin = delay_margin(gains)
    peak = max_delay(sc.delay)
    feasible = check_feasibility(gains, peak)
    print(f"delay margin [s]: {margin:.6f}")
    print(f"peak delay   [s]: {peak:.6f} ({sc.delay.kind})")
    print(f"feasible: {'yes' if feasible else 'no'}")
    return 0


def _cmd_simulate(args) -> int:
    config, sc = _load(args.scenario, args)
    code, _ = _run_one(config, sc, Path(args.out), args.quiet)
    return code


def _cmd_compare(args) -> int:
    config_a, sc_a = _load(args.scenario_a, args)
    config_b, sc_b = _load(args.scenario_b, args)
    # comparison.csv has one column per plant coordinate
    if sc_a.plant.dim != sc_b.plant.dim:
        raise ScenarioError(
            f"{args.scenario_a} has {sc_a.plant.dim} plant coordinates and "
            f"{args.scenario_b} has {sc_b.plant.dim}; compare needs equal numbers")
    out = Path(args.out)
    code_a, rep_a = _run_one(config_a, sc_a, out / "a", args.quiet)
    code_b, rep_b = _run_one(config_b, sc_b, out / "b", args.quiet)
    out.mkdir(parents=True, exist_ok=True)
    text = _write_metrics_csv(out / "comparison.csv", ["scenario"],
                              [([sc_a.label], rep_a), ([sc_b.label], rep_b)],
                              per_dim=("ae", "pct_ae"))
    if not args.quiet:
        print(text, end="")
    return max(code_a, code_b)


def _parse_range(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ScenarioError(f"--range must be start:stop:step, got {spec!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ScenarioError(f"bad --range {spec!r}") from exc
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise ScenarioError(f"--range needs finite start, stop and step, got {spec!r}")
    if step <= 0.0 or stop < start:
        raise ScenarioError(f"--range must increase, got {spec!r}")
    span = (stop - start) / step + 1e-9  # inf when the quotient overflows
    if not span < _MAX_SWEEP_VALUES:
        raise ScenarioError(
            f"--range {spec!r} gives more than {_MAX_SWEEP_VALUES} values")
    return start + step * np.arange(int(np.floor(span)) + 1)


def _cmd_sweep(args) -> int:
    base = load_config(args.scenario)
    _apply_cli_overrides(base, args)
    values = _parse_range(args.range)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    worst = 0
    for value in values:
        config = {sec: dict(keys) for sec, keys in base.items()}
        # an integral value is written as an integer, which integer keys read
        text = str(int(value)) if value.is_integer() else repr(float(value))
        apply_override(config, args.param, text)
        sc = build_scenario(config, label=f"{args.param}={value:g}")
        _, report, diverged = _measure(config, sc)
        status = "ok" if diverged is None else "diverged"
        worst = max(worst, int(diverged is not None))
        rows.append(([f"{value:.9g}", status], report))
        if not args.quiet:
            print(f"{args.param}={value:g}: {status} "
                  f"ae={report.ae_per_dim} tv={report.tv:.6g}")
    _write_metrics_csv(out / "sweep.csv", ["value", "status"], rows, per_dim=("ae",))
    return worst


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arolc",
        description="Adaptive-robust control of input-delayed Euler-Lagrange "
                    "systems: delay margins, simulation, metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="delay margin and feasibility")
    p_bound.add_argument("scenario")
    p_bound.set_defaults(func=_cmd_bound)

    def add_common(p):
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--dt", type=float, default=None,
                       help="integration step override [s]")
        p.add_argument("--control-dt", dest="control_dt", type=float,
                       default=None, help="control period override [s]")
        p.add_argument("--quiet", action="store_true")

    p_sim = sub.add_parser("simulate", help="run one scenario")
    p_sim.add_argument("scenario")
    add_common(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_cmp = sub.add_parser("compare", help="run two scenarios side by side")
    p_cmp.add_argument("scenario_a")
    p_cmp.add_argument("scenario_b")
    add_common(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare)

    p_sweep = sub.add_parser("sweep", help="parameter sweep")
    p_sweep.add_argument("scenario")
    p_sweep.add_argument("--param", required=True,
                         help="dotted key, e.g. delay.h0")
    p_sweep.add_argument("--range", required=True, help="start:stop:step")
    add_common(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
