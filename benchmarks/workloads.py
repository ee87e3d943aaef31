"""The three benchmark workloads: input generators, timed solves and checks.

Each workload splits one unit of work into three steps:

* ``generate(index)`` makes the unit's inputs from the seed alone (the
  benchmark's job; never timed);
* ``setup(arolc, raw)`` does the program's own set-up on them: scenario
  parse/build (including ``ArolcConfig.from_gains``) or gain-set
  construction (timed only in the ``setup_s`` samples);
* ``solve(prepared, index, tracer)`` runs the user task through the
  public API or CLI, timing only the program's calls, then checks the
  outputs outside the timed region.

Inputs for unit ``i`` come from ``numpy.random.default_rng([seed, i])``,
so the same seed always gives the same inputs.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.linalg import solve_continuous_lyapunov

# Payload offsets are drawn like scenario_io's own random_offsets: uniform
# in +-offset_max, whose default is 0.05 m.
OFFSET_MAX = 0.05
WMR_PAIRS = (("s1", "pcon"), ("s2", "pcon"), ("s3", "pconf"), ("s4", "pconf"))
# Pairs on which the adaptive controller must beat the baseline's AE per
# wheel (acceptance criterion 5).
AE_ORDERED = ("s1", "s2")
# tau_app must equal the interpolated command to this share of max |tau|;
# trace.csv keeps 9 significant digits, so rounding alone stays near 1e-9.
TAU_ORACLE_RTOL = 1e-6

Q0_OFFSET_MAX = 0.02  # rad, initial joint offset of two_link_identity
# Simulated seconds per two_link_identity unit (the shipped file has 10 s):
# short enough that a run holds several units, with host-speed reference
# samples taken between them.
TWO_LINK_DURATION = 2.0
RESIDUAL_BOUND = 1e-4  # acceptance criterion 3, not loosened
RESIDUAL_WARMUP = 0.5  # s, the default warmup of error_dynamics_residual

N_VALUES = (1, 2, 3, 6)
GRID_SIZE = 64  # gain sets per margin_grid unit, cycling through N_VALUES
ORACLE_EVERY = 8  # every 8th gain set is checked against scipy
FLIP_REL = 1e-6  # feasibility is probed at margin * (1 -+ FLIP_REL)
ORACLE_RTOL = 1e-8
REFERENCE_MARGIN = 0.125  # s, identity gains, r = 1.1, beta = 1
REFERENCE_TOL = 1e-3


@dataclass
class UnitResult:
    """Outcome of one solved unit."""

    walls: list = field(default_factory=list)  # s per checked solution
    work: int = 0  # RK4 steps or gain sets
    work_time: float = 0.0  # s inside simulate, or inside the gain-set analysis
    items: list = field(default_factory=list)  # (label, ok, detail)
    item_ms: list = field(default_factory=list)  # per-gain-set ms
    notes: list = field(default_factory=list)  # informational lines
    digests: dict = field(default_factory=dict)  # label -> sha256 of trace.csv

    @property
    def wall(self) -> float:
        return sum(self.walls)


def set_key(text: str, section: str, key: str, value: str) -> str:
    """Set `key = value` inside [section] of INI text, keeping everything else."""
    lines = text.splitlines()
    header = next(i for i, line in enumerate(lines) if line.strip() == f"[{section}]")
    end = next((i for i in range(header + 1, len(lines))
                if lines[i].lstrip().startswith("[")), len(lines))
    pattern = re.compile(rf"^\s*{re.escape(key)}\s*=")
    for i in range(header + 1, end):
        if pattern.match(lines[i]):
            lines[i] = f"{key} = {value}"
            break
    else:
        lines.insert(header + 1, f"{key} = {value}")
    return "\n".join(lines) + "\n"


def get_floats(text: str, section: str, key: str) -> list[float]:
    """Numbers of `key` in [section] of INI text (inline comments dropped)."""
    in_section = False
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("["):
            in_section = stripped == f"[{section}]"
        elif in_section and re.match(rf"{re.escape(key)}\s*=", stripped):
            value = stripped.split("=", 1)[1].split("#")[0]
            return [float(x) for x in value.replace(",", " ").split()]
    raise KeyError(f"[{section}] {key}")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tau_app_error(trace: np.ndarray, n: int) -> float:
    """Largest |tau_app - tau_cmd interpolated at t - h| over max(1, max |tau_cmd|).

    Independent oracle of the actuator model, recomputed from trace.csv
    columns t, tau_cmd_*, tau_app_*, h: commands stamped at their
    computation instants, linear interpolation between them, zero before
    the first one.
    """
    t, h = trace[:, 0], trace[:, -1]
    cmd = trace[:, 1 + 3 * n:1 + 4 * n]
    app = trace[:, 1 + 4 * n:1 + 5 * n]
    worst = max(float(np.max(np.abs(np.interp(t - h, t, cmd[:, i], left=0.0) - app[:, i])))
                for i in range(n))
    return worst / max(1.0, float(np.abs(cmd).max()))


def wmr_offsets(rng: np.random.Generator) -> np.ndarray:
    """Three body-frame payload offsets (m), one per payload cycle."""
    return rng.uniform(-OFFSET_MAX, OFFSET_MAX, size=(3, 2))


def two_link_q0_offset(rng: np.random.Generator) -> np.ndarray:
    return rng.uniform(-Q0_OFFSET_MAX, Q0_OFFSET_MAX, size=2)


def spd(rng: np.random.Generator, k: int, lo: float, hi: float) -> np.ndarray:
    """Random symmetric positive definite k x k matrix, eigenvalues in [lo, hi)."""
    basis, _ = np.linalg.qr(rng.standard_normal((k, k)))
    m = (basis * rng.uniform(lo, hi, k)) @ basis.T
    return 0.5 * (m + m.T)


def gain_draws(rng: np.random.Generator, size: int = GRID_SIZE) -> list[dict]:
    """Gain matrices and bound scalars of one margin_grid unit."""
    draws = []
    for j in range(size):
        n = N_VALUES[j % len(N_VALUES)]
        draws.append({
            "n": n,
            "K1": spd(rng, n, 0.5, 3.0),
            "K2": spd(rng, n, 0.5, 3.0),
            "Q": spd(rng, 2 * n, 0.5, 2.0),
            "r": 2.0 - rng.random(),  # (1, 2]
            "beta": 2.0 - 1.5 * rng.random(),  # (0.5, 2]
            "c": rng.uniform(0.0, 2.0),
            "Gamma": rng.uniform(0.0, 1.0),
            "theta_norm": rng.uniform(0.0, 0.5),
            "alpha": rng.uniform(1.5, 3.0),
            "epsilon": rng.uniform(0.05, 0.2),
            "c_hat": rng.uniform(0.01, 2.0),
            "e0": rng.uniform(0.5, 5.0),
            "c0": rng.uniform(0.1, 1.0),
        })
    return draws


def scipy_margin(d: dict) -> float:
    """Delay margin recomputed from the gain matrices with scipy's Lyapunov solver."""
    n = d["n"]
    zero, eye = np.zeros((n, n)), np.eye(n)
    a1 = np.block([[zero, eye], [zero, zero]])
    b1 = np.block([[zero, zero], [-d["K1"], -d["K2"]]])
    p = solve_continuous_lyapunov((a1 + b1).T, -d["Q"])
    p_inv = np.linalg.inv(p)
    inner = a1 @ p_inv @ a1.T + b1 @ p_inv @ b1.T + p_inv
    e = d["beta"] * (p @ b1 @ inner @ b1.T @ p) + 2.0 * (d["r"] / d["beta"]) * p
    e = 0.5 * (e + e.T)
    return float(np.linalg.eigvalsh(d["Q"])[0] / np.linalg.norm(e, 2))


class Workload:
    name = ""

    def __init__(self, root: Path, out: Path, seed: int, duration: float | None = None):
        self.root = root
        self.out = out
        self.seed = seed
        self.duration = duration  # cap on simulated seconds (traced runs)
        self.arolc = None
        # Timing clock; the runner replaces it with one that leaves out the
        # host-reference samples taken during the run.
        self.clock = time.perf_counter

    def rng(self, index: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, index])

    def reference_checks(self) -> list:
        """Checks made once per run, outside every timed and traced region."""
        return []


class WmrCompare(Workload):
    """The four shipped robot pairs through `arolc compare`."""

    name = "wmr_compare"

    def generate(self, index: int) -> dict:
        offsets = wmr_offsets(self.rng(index))
        spec = "; ".join(f"{x:.4f} {y:.4f}" for x, y in offsets)
        ini_dir = self.out / "inis"
        ini_dir.mkdir(parents=True, exist_ok=True)
        pairs = []
        for delay, base in WMR_PAIRS:
            paths = []
            for kind in ("arolc", base):
                name = f"wmr_{delay}_{kind}"
                text = (self.root / "scenarios" / f"{name}.ini").read_text()
                text = set_key(text, "payload", "offsets", spec)
                if self.duration is not None:
                    text = set_key(text, "sim", "duration", repr(self.duration))
                path = ini_dir / f"{name}.ini"
                path.write_text(text)
                paths.append(path)
            pairs.append((delay, paths[0], paths[1], self.out / f"cmp_{delay}"))
        steps_per_control = round(get_floats(text, "sim", "control_dt")[0]
                                  / get_floats(text, "sim", "dt")[0])
        return {"offsets": spec, "pairs": pairs, "steps_per_control": steps_per_control}

    def setup(self, arolc, raw: dict) -> dict:
        self.arolc = arolc
        scenario_io = arolc.scenario_io
        for _, a, b, _ in raw["pairs"]:
            for path in (a, b):
                scenario_io.build_scenario(scenario_io.load_config(path))
        return raw

    def solve(self, prepared: dict, index: int, tracer=None) -> UnitResult:
        main = self.arolc.cli.main
        if tracer is not None:
            main = tracer.wrap("cli.compare", main)
        result = UnitResult()
        result.notes.append(f"payload offsets: {prepared['offsets']}")
        tv = {}
        for pair_index, (delay, a, b, out) in enumerate(prepared["pairs"]):
            if tracer is not None:
                tracer.run_id = pair_index
            argv = ["compare", str(a), str(b), "--out", str(out), "--quiet"]
            raw_started, started = time.perf_counter(), self.clock()
            try:
                code = main(argv)
            except Exception as exc:  # a raising run is a failed item, not a crash
                for path in (a, b):
                    result.items.append((path.stem, False, f"raised {exc!r}"))
                continue
            wall = self.clock() - started
            result.walls.append(wall)
            # the CLI's runtime column includes reference samples; take their share off
            own_share = wall / (time.perf_counter() - raw_started)
            try:
                tv.update(self._check_pair(result, prepared, delay, a, b, out, code, own_share))
            except (OSError, KeyError, ValueError) as exc:  # outputs missing or malformed
                for path in (a, b):
                    result.items.append((path.stem, False, f"exit code {code}, {exc!r}"))
        self._note_tv(result, tv)
        return result

    def _check_pair(self, result, prepared, delay, a, b, out, code, own_share) -> dict:
        with open(out / "comparison.csv", newline="") as fh:
            rows = {row["scenario"]: row for row in csv.DictReader(fh)}
        reports = {}
        for sub, path in (("a", a), ("b", b)):
            label = path.stem
            row = {k: float(v) for k, v in rows[label].items() if k != "scenario"}
            trace_path = out / sub / "trace.csv"
            trace = np.loadtxt(trace_path, delimiter=",", skiprows=1, ndmin=2)
            result.digests[label] = sha256_file(trace_path)
            steps = (len(trace) - 1) * prepared["steps_per_control"]
            result.work += steps
            result.work_time += row["runtime"] * own_share
            problems = []
            if code != 0:
                problems.append(f"exit code {code}")
            if not (np.all(np.isfinite(list(row.values()))) and np.all(np.isfinite(trace))):
                problems.append("non-finite metrics or trace")
            err = tau_app_error(trace, n=2)
            if not err <= TAU_ORACLE_RTOL:
                problems.append(f"tau_app differs from interpolated tau_cmd by {err:.2e}")
            reports[label] = (row, problems)
        arolc_label, base_label = a.stem, b.stem
        if delay in AE_ORDERED:
            ae_a = [reports[arolc_label][0][f"ae_{i}"] for i in range(2)]
            ae_b = [reports[base_label][0][f"ae_{i}"] for i in range(2)]
            if not all(x < y for x, y in zip(ae_a, ae_b)):
                reports[arolc_label][1].append(
                    f"AE {ae_a} not below baseline {ae_b} on every wheel")
        for label, (_, problems) in reports.items():
            result.items.append((label, not problems, "; ".join(problems)))
        return {label: row["tv"] for label, (row, _) in reports.items()}

    @staticmethod
    def _note_tv(result: UnitResult, tv: dict) -> None:
        # Criterion 6 is reported, never gated: some seeds reverse the S1 order.
        if {"wmr_s1_arolc", "wmr_s1_pcon"} <= tv.keys():
            a, p = tv["wmr_s1_arolc"], tv["wmr_s1_pcon"]
            result.notes.append(f"criterion 6 (report only): S1 TV arolc {a:.4f} "
                                f"{'<' if a < p else '>='} pcon {p:.4f}")
        if {"wmr_s3_arolc", "wmr_s4_arolc"} <= tv.keys():
            s3, s4 = tv["wmr_s3_arolc"], tv["wmr_s4_arolc"]
            result.notes.append(f"criterion 6 (report only): TV(S4) {s4:.4f} "
                                f"{'>' if s4 > s3 else '<='} TV(S3) {s3:.4f}")


class TwoLinkIdentity(Workload):
    """two_link_s1_arolc with diagnostics, then the error-dynamics residual."""

    name = "two_link_identity"

    def generate(self, index: int) -> Path:
        text = (self.root / "scenarios" / "two_link_s1_arolc.ini").read_text()
        amp, phase, offset = (np.array(get_floats(text, "trajectory", key))
                              for key in ("amplitude", "phase", "offset"))
        q0 = offset + amp * np.sin(phase) + two_link_q0_offset(self.rng(index))
        text = set_key(text, "sim", "q0", ", ".join(repr(float(x)) for x in q0))
        duration = min(TWO_LINK_DURATION, self.duration or TWO_LINK_DURATION)
        text = set_key(text, "sim", "duration", repr(duration))
        path = self.out / "inis" / "two_link_s1_arolc.ini"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        return path

    def setup(self, arolc, raw: Path):
        self.arolc = arolc
        return arolc.scenario_io.build_scenario(arolc.scenario_io.load_config(raw),
                                                label=raw.stem)

    def solve(self, sc, index: int, tracer=None) -> UnitResult:
        sim = self.arolc.sim
        if tracer is not None:
            tracer.run_id = index
        started = self.clock()
        try:
            trace = sim.simulate(sc, diagnostics=True)
            simulated = self.clock()
            _, resid = sim.error_dynamics_residual(trace, sc)
        except Exception as exc:  # a raising run is a failed item, not a crash
            return UnitResult(items=[(sc.label, False, f"raised {exc!r}")])
        finished = self.clock()
        steps = (len(trace) - 1) * round(sc.dt_control / sc.dt)
        result = UnitResult(walls=[finished - started], work=steps,
                            work_time=simulated - started)
        worst = float(resid.max()) if len(resid) else float("nan")
        min_points = 0.9 * (sc.duration - RESIDUAL_WARMUP) / sc.dt
        problems = []
        if not all(np.all(np.isfinite(getattr(trace, k)))
                   for k in ("q", "q_dot", "tau_cmd", "tau_applied", "c_hat")):
            problems.append("non-finite trace")
        if not worst <= RESIDUAL_BOUND:
            problems.append(f"identity residual {worst:.3e} > {RESIDUAL_BOUND:g}")
        if not len(resid) >= min_points:
            problems.append(f"only {len(resid)} residual points")
        result.items.append((sc.label, not problems, "; ".join(problems)))
        result.notes.append(f"identity residual max {worst:.3e} over {len(resid)} points "
                            f"(bound {RESIDUAL_BOUND:g})")
        if tracer is None and index == 0:
            path = self.out / "trace.csv"
            sim.trace_to_csv(trace, path)
            result.digests[sc.label] = sha256_file(path)
        return result


class MarginGrid(Workload):
    """Delay margin, feasibility, ultimate bounds and reaching time per gain set."""

    name = "margin_grid"

    def generate(self, index: int) -> list[dict]:
        return gain_draws(self.rng(index))

    def setup(self, arolc, raw: list[dict]) -> list:
        self.arolc = arolc
        gain_set = arolc.stability.GainSet
        return [(d, gain_set(d["K1"], d["K2"], d["Q"], d["r"], d["beta"])) for d in raw]

    def solve(self, prepared: list, index: int, tracer=None) -> UnitResult:
        st = self.arolc.stability
        result = UnitResult()
        for j, (d, gains) in enumerate(prepared):
            if tracer is not None:
                tracer.run_id = j
            label = f"unit{index}/gainset{j} (n={d['n']})"
            started = self.clock()
            try:
                margin = st.delay_margin(gains)
                below = st.check_feasibility(gains, margin * (1.0 - FLIP_REL))
                above = st.check_feasibility(gains, margin * (1.0 + FLIP_REL))
                bp = st.BoundParams(c=d["c"], Gamma=d["Gamma"], theta_norm=d["theta_norm"],
                                    alpha=d["alpha"], epsilon=d["epsilon"], gamma=1e-3,
                                    c_hat=d["c_hat"], h=0.5 * margin)
                bounds = [st.ultimate_bound(case, gains, bp) for case in range(1, 7)]
                reach = st.reaching_time(d["e0"], bounds[0], d["c0"])
            except Exception as exc:  # a raising gain set is a failed item
                result.work_time += self.clock() - started
                result.items.append((label, False, f"raised {exc!r}"))
                continue
            elapsed = self.clock() - started
            result.work_time += elapsed
            result.work += 1
            result.item_ms.append(elapsed * 1e3)
            problems = []
            if not (np.isfinite(margin) and margin > 0.0):
                problems.append(f"margin {margin!r}")
            if not (below and not above):
                problems.append(f"feasibility does not flip at the margin ({below}, {above})")
            if not all(np.isfinite(b) and b >= 0.0 for b in bounds + [reach]):
                problems.append(f"bad bound or reaching time {bounds}, {reach}")
            if j % ORACLE_EVERY == 0:
                oracle = scipy_margin(d)
                if not abs(margin - oracle) <= ORACLE_RTOL * oracle:
                    problems.append(f"margin {margin:.12g} vs scipy oracle {oracle:.12g}")
            result.items.append((label, not problems, "; ".join(problems)))
        result.walls.append(result.work_time)
        return result

    def reference_checks(self) -> list:
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = self.arolc.cli.main(
                    ["bound", str(self.root / "scenarios" / "margin_reference.ini")])
        except Exception as exc:  # a raising check is a failed item, not a crash
            return [("arolc bound margin_reference.ini", False, f"raised {exc!r}")]
        match = re.search(r"delay margin \[s\]:\s*([0-9.]+)", out.getvalue())
        margin = float(match.group(1)) if match else float("nan")
        ok = code == 0 and abs(margin - REFERENCE_MARGIN) <= REFERENCE_TOL
        return [("arolc bound margin_reference.ini", ok,
                 f"margin {margin:.6f} s, expected {REFERENCE_MARGIN} +- {REFERENCE_TOL}")]


WORKLOADS = {cls.name: cls for cls in (WmrCompare, TwoLinkIdentity, MarginGrid)}
