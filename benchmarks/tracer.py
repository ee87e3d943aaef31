"""Span tracing of the arolc layers, installed from outside the library.

A Tracer keeps one span per call into a wrapped callable: name, start,
end, parent span and run id, in flat typed arrays so that about a million
spans fit in a few tens of MB. ``instrument`` wraps the public callables of
each arolc module under the names the library looks them up by, and
returns a function that undoes every patch. The library never imports this
module; untraced runs execute it untouched.
"""

from __future__ import annotations

import os
import sys
import time
from array import array

import numpy as np

# Module-level functions wrapped wherever an arolc module refers to them:
# (span name, defining module, candidate attribute names; the first one
# present is wrapped).
_FUNCTIONS = [
    ("delays.delay_at", "arolc.delays", ["delay_at"]),
    ("controllers.arolc_step", "arolc.controllers", ["_arolc_step_full", "arolc_step"]),
    ("controllers.pcon_step", "arolc.controllers", ["pcon_step"]),
    ("stability.build_error_system", "arolc.stability", ["build_error_system"]),
    ("stability.delay_margin", "arolc.stability", ["delay_margin"]),
    ("stability.check_feasibility", "arolc.stability", ["check_feasibility"]),
    ("stability.ultimate_bound", "arolc.stability", ["ultimate_bound"]),
    ("linalg.solve_lyapunov", "arolc.linalg", ["solve_lyapunov"]),
    ("metrics.metrics_from_trace", "arolc.metrics", ["metrics_from_trace"]),
    ("scenario_io.load_config", "arolc.scenario_io", ["load_config"]),
]
_BUFFER_METHODS = ("push", "sample", "integrate")
_PLANT_METHODS = ("accel", "mass_matrix", "bias_vector",
                  "nominal_mass_matrix", "nominal_bias_vector")


class Tracer:
    """In-memory span recorder.

    ``run_id`` is stamped on every span opened while it is set; the
    workloads set it to the index of the pair, run or gain set in flight.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.run_id = 0
        self.counters: dict[str, float] = {}
        # (simulate call index, query instant) of every DelayBuffer.sample
        self.sample_sim = array("i")
        self.sample_t = array("d")
        self.simulations = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn):
        """Return fn wrapped so that every call records one span."""
        nid = self._id(name)
        name_id, parent, run, start, end = (self.name_id, self.parent, self.run,
                                            self.start, self.end)
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            sid = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            run.append(tracer.run_id)
            start.append(0)
            end.append(0)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                start[sid] = t0
                stack.pop()

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.intc).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.intc).copy(),
            "run": np.frombuffer(self.run, dtype=np.intc).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def write(self, path) -> None:
        """Write every span and the name table to a compressed .npz file."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, inclusive seconds, self seconds).

        Self time is a span's duration minus the durations of its direct
        child spans.
        """
        a = self.arrays()
        n_spans = len(a["name_id"])
        if n_spans == 0:
            return {}
        dur = (a["end_ns"] - a["start_ns"]).astype(float) * 1e-9
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=n_spans)
        k = len(self.names)
        calls = np.bincount(a["name_id"], minlength=k)
        total = np.bincount(a["name_id"], weights=dur, minlength=k)
        own = np.bincount(a["name_id"], weights=dur - child, minlength=k)
        return {name: (int(calls[i]), float(total[i]), float(own[i]))
                for i, name in enumerate(self.names)}

    def distinct_sample_frac(self) -> float:
        """Distinct (simulation, query instant) pairs / DelayBuffer.sample calls."""
        if not len(self.sample_t):
            return 0.0
        keys = np.column_stack([np.frombuffer(self.sample_sim, dtype=np.intc),
                                np.frombuffer(self.sample_t, dtype=np.float64)])
        return len(np.unique(keys, axis=0)) / len(keys)


class _TracedTrajectory:
    """Trajectory proxy: calls are traced, attributes pass through."""

    def __init__(self, inner, traced_call):
        self._inner = inner
        self._call = traced_call

    def __call__(self, t):
        return self._call(t)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _instrument_scenario(tracer: Tracer, sc) -> None:
    """Trace the plant methods and the trajectory of one built scenario."""
    plant = sc.plant
    for meth in _PLANT_METHODS:
        setattr(plant, meth, tracer.wrap(f"plants.{meth}", getattr(plant, meth)))
    sc.trajectory = _TracedTrajectory(
        sc.trajectory, tracer.wrap("trajectories.eval", sc.trajectory))


def instrument(tracer: Tracer):
    """Wrap the arolc layers that are currently imported; return an undo function.

    Module functions are replaced under every name an arolc module binds
    them to (so ``sim.delay_at`` and ``stability.solve_lyapunov`` are
    caught), DelayBuffer methods on the class, and plant methods plus the
    trajectory on each scenario that ``build_scenario`` returns.
    """
    modules = [m for name, m in sys.modules.items()
               if name == "arolc" or name.startswith("arolc.")]
    undo = []

    def patch(obj, attr, new):
        undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def patch_everywhere(orig, new):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is orig:
                    patch(module, attr, new)

    for span_name, module_name, candidates in _FUNCTIONS:
        module = sys.modules[module_name]
        for attr in candidates:
            orig = getattr(module, attr, None)
            if orig is not None:
                patch_everywhere(orig, tracer.wrap(span_name, orig))
                break

    sim = sys.modules["arolc.sim"]
    traced_simulate = tracer.wrap("sim.simulate", sim.simulate)

    def simulate(sc, *args, **kwargs):
        tracer.simulations += 1
        trace = traced_simulate(sc, *args, **kwargs)
        tracer.count("sim.rk4_steps", (len(trace) - 1) * round(sc.dt_control / sc.dt))
        return trace

    patch_everywhere(sim.simulate, simulate)

    traced_residual = tracer.wrap("sim.residual", sim.error_dynamics_residual)

    def error_dynamics_residual(*args, **kwargs):
        times, resid = traced_residual(*args, **kwargs)
        tracer.count("sim.residual.points", len(resid))
        return times, resid

    patch_everywhere(sim.error_dynamics_residual, error_dynamics_residual)

    traced_csv = tracer.wrap("sim.trace_to_csv", sim.trace_to_csv)

    def trace_to_csv(trace, path):
        traced_csv(trace, path)
        tracer.count("sim.trace_to_csv.bytes", os.path.getsize(path))

    patch_everywhere(sim.trace_to_csv, trace_to_csv)

    scenario_io = sys.modules["arolc.scenario_io"]
    traced_build = tracer.wrap("scenario_io.build_scenario", scenario_io.build_scenario)

    def build_scenario(*args, **kwargs):
        sc = traced_build(*args, **kwargs)
        _instrument_scenario(tracer, sc)
        return sc

    patch_everywhere(scenario_io.build_scenario, build_scenario)

    buffer_cls = sys.modules["arolc.delays"].DelayBuffer
    for meth in _BUFFER_METHODS:
        patch(buffer_cls, meth, tracer.wrap(f"delays.{meth}", vars(buffer_cls)[meth]))
    traced_sample = buffer_cls.sample

    def sample(self, t_query):
        tracer.sample_sim.append(tracer.simulations)
        tracer.sample_t.append(t_query)
        return traced_sample(self, t_query)

    buffer_cls.sample = sample  # the undo entry above restores the original

    def restore():
        for obj, attr, orig in reversed(undo):
            setattr(obj, attr, orig)

    return restore
