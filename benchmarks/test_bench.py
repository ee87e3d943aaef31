"""Tests of the benchmark itself (not of arolc).

Run from the repository root:  python3 -m pytest -q benchmarks/test_bench.py
"""

import json

import numpy as np
import pytest

import run
from tracer import Tracer, instrument
from workloads import WORKLOADS, tau_app_error

run.sys.path.insert(0, str(run.ROOT / "src"))

def _generated(name, seed, out):
    wl = WORKLOADS[name](run.ROOT, out, seed)
    raw = wl.generate(0)
    if name == "wmr_compare":
        return [p.read_text() for _, a, b, _ in raw["pairs"] for p in (a, b)]
    if name == "two_link_identity":
        return raw.read_text()
    return [{k: np.asarray(v).tolist() for k, v in d.items()} for d in raw]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_deterministic_in_the_seed(name, tmp_path):
    first = _generated(name, 7, tmp_path / "a")
    assert _generated(name, 7, tmp_path / "b") == first
    assert _generated(name, 8, tmp_path / "c") != first


def _traced_unit(name, seed, out):
    wl = WORKLOADS[name](run.ROOT, out, seed, duration=run.TRACE_DURATION)
    arolc = run.import_arolc()
    raw = wl.generate(0)
    tracer = Tracer()
    restore = instrument(tracer)
    try:
        unit = wl.solve(wl.setup(arolc, raw), 0, tracer)
    finally:
        restore()
    assert all(ok for _, ok, _ in unit.items), unit.items
    calls = {span: c for span, (c, _, _) in tracer.totals().items()}
    return calls, dict(tracer.counters)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(name, tmp_path):
    calls, counters = _traced_unit(name, 3, tmp_path / "a")
    assert (calls, counters) == _traced_unit(name, 3, tmp_path / "b")
    if name == "margin_grid":
        assert calls["stability.build_error_system"] == 9 * calls["stability.delay_margin"]
    else:
        assert counters["sim.rk4_steps"] > 0
        assert calls["plants.accel"] == 4 * counters["sim.rk4_steps"]
    if name == "two_link_identity":
        assert calls["delays.integrate"] == 0


def test_instrument_restores_the_library(tmp_path):
    arolc = run.import_arolc()
    before = (arolc.sim.delay_at, arolc.stability.solve_lyapunov,
              arolc.delays.DelayBuffer.sample, arolc.cli.simulate)
    restore = instrument(Tracer())
    assert arolc.sim.delay_at is not before[0]
    restore()
    assert (arolc.sim.delay_at, arolc.stability.solve_lyapunov,
            arolc.delays.DelayBuffer.sample, arolc.cli.simulate) == before


def test_host_reference_samples_and_leaves_its_time_off_the_clock():
    reference = run.HostReference()
    with reference.sampling():
        wall0, clock0 = run.time.perf_counter(), reference.clock()
        while run.time.perf_counter() - wall0 < 4 * run.REFERENCE_EVERY_S:
            sum(range(1000))
        wall, clock = run.time.perf_counter() - wall0, reference.clock() - clock0
    assert len(reference.samples) >= 3
    assert clock == pytest.approx(wall - sum(reference.samples), abs=2e-3)
    assert reference.scale > 0.0


def test_tau_oracle_rejects_a_zero_order_hold():
    t = np.arange(0.0, 1.0, 0.01)
    h = np.full_like(t, 0.055)
    cmd = np.column_stack([np.sin(3 * t), np.cos(2 * t)])
    linear = np.column_stack([np.interp(t - h, t, cmd[:, i], left=0.0) for i in range(2)])
    idx = np.searchsorted(t, t - h, side="right") - 1
    held = np.where(idx[:, None] >= 0, cmd[np.maximum(idx, 0)], 0.0)

    def trace(app):
        zeros = np.zeros((len(t), 2))
        return np.column_stack([t, zeros, zeros, zeros, cmd, app, t * 0, t * 0, h])

    assert tau_app_error(trace(linear), n=2) == 0.0
    assert tau_app_error(trace(held), n=2) > 1e-3


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [entry[:3] for entry in run.PER_LAYER]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
