import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from arolc import cli, stability
from arolc.cli import _MAX_SWEEP_VALUES, _parse_range, main

FAST = """
[plant]
kind = two-link
viscous = 0.05
mismatch = 0.1

[controller]
kind = arolc

[gains]
k1 = 1.0
k2 = 1.0

[delay]
kind = S1

[trajectory]
kind = sinusoid
amplitude = 0.4, 0.3
frequency = 0.5, 0.7
phase = 0.0, 0.0
offset = 0.0, 0.0

[sim]
duration = 1.0
dt = 1e-3
control_dt = 1e-2
"""

POINT_MASS = """
[plant]
kind = point-mass

[controller]
kind = none

[delay]
kind = none

[trajectory]
kind = sinusoid

[sim]
duration = 0.1
"""


@pytest.fixture
def fast_ini(tmp_path):
    path = tmp_path / "fast.ini"
    path.write_text(FAST)
    return path


class TestBound:
    def test_reference_margin(self, capsys):
        code = main(["bound", "scenarios/margin_reference.ini"])
        out = capsys.readouterr().out
        assert code == 0
        match = re.search(r"delay margin \[s\]:\s*([0-9.]+)", out)
        assert match, out
        assert abs(float(match.group(1)) - 0.125) <= 1e-3
        assert "feasible: yes" in out

    @pytest.mark.parametrize("stem, peak, kind, feasible", [
        ("margin_reference", "0.100000", "S1", "yes"),
        ("two_link_s1_arolc", "0.100000", "S1", "yes"),
        ("wmr_s1_arolc", "0.100000", "S1", "yes"),
        ("wmr_s1_pcon", "0.100000", "S1", "yes"),
        ("wmr_s2_arolc", "0.125000", "S2", "no"),
        ("wmr_s2_pcon", "0.125000", "S2", "no"),
        ("wmr_s3_arolc", "0.060000", "S3", "yes"),
        ("wmr_s3_pconf", "0.060000", "S3", "yes"),
        ("wmr_s4_arolc", "0.120000", "S4", "yes"),
        ("wmr_s4_pconf", "0.120000", "S4", "yes"),
    ])
    def test_shipped_scenarios_one_lyapunov_solve(self, stem, peak, kind, feasible,
                                                  monkeypatch, capsys):
        solves = []
        real = stability._solve_lyapunov

        def counting(*args):
            solves.append(1)
            return real(*args)

        monkeypatch.setattr(stability, "_solve_lyapunov", counting)
        assert main(["bound", f"scenarios/{stem}.ini"]) == 0
        assert capsys.readouterr().out == ("delay margin [s]: 0.124870\n"
                                           f"peak delay   [s]: {peak} ({kind})\n"
                                           f"feasible: {feasible}\n")
        assert len(solves) == 1

    def test_directory_rejected(self, capsys):
        assert main(["bound", "scenarios"]) == 2
        assert "scenarios" in capsys.readouterr().err

    def test_infeasible_reported(self, capsys, tmp_path):
        text = FAST.replace("kind = S1", "kind = constant\nh0 = 0.2")
        path = tmp_path / "slow.ini"
        path.write_text(text)
        assert main(["bound", str(path)]) == 0
        assert "feasible: no" in capsys.readouterr().out

    def test_custom_delay_without_frequency_peaks_at_a(self, tmp_path, capsys):
        # omega = 0 holds h(t) = a + b |sin 0| = a at every t: the peak is a,
        # so the run is inside the margin, and b, however large, counts for
        # nothing in bound's peak or in simulate's margin warning
        text = Path("scenarios/wmr_s1_arolc.ini").read_text()
        assert text.count("\nkind = S1\n") == 1 and text.count("\nduration = 40.0\n") == 1
        path = tmp_path / "held.ini"
        path.write_text(text.replace("\nkind = S1\n", "\nkind = custom\na = 0.01\nb = 0.5\n"
                                     "omega = 0.0\n")
                        .replace("\nduration = 40.0\n", "\nduration = 0.3\n"))
        assert main(["bound", str(path)]) == 0
        out = capsys.readouterr().out
        assert "peak delay   [s]: 0.010000 (custom)\n" in out and "feasible: yes\n" in out
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["simulate", str(path), "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("name, old, new, named", [
        ("wmr_s1_arolc", "alpha = 2.0", "alpha = abc", "[controller] alpha"),
        ("wmr_s1_arolc", "r = 1.1", "r = abc", "[gains] r"),
        ("wmr_s1_pcon", "k_b = 0.072", "k_b = abc", "[controller] k_b"),
        ("wmr_s3_pconf", "h_estimate = 0.06", "h_estimate = abc",
         "[controller] h_estimate"),
        ("wmr_s3_arolc", "kind = S3", "kind = constant\nh0 = abc", "[delay] h0"),
    ], ids=["alpha", "r", "k_b", "h_estimate", "h0"])
    def test_bad_number_named_once(self, name, old, new, named, tmp_path, capsys):
        text = Path(f"scenarios/{name}.ini").read_text()
        assert text.count(f"\n{old}") == 1
        path = tmp_path / "bad.ini"
        path.write_text(text.replace(f"\n{old}", f"\n{new}"))
        assert main(["bound", str(path)]) == 2
        err = capsys.readouterr().err
        # the section prefix appears once: inside the key's own name
        assert err.count(named) == 1 and err.count("[") == 1, err

    @pytest.mark.parametrize("k1, message", [
        ("1e200", "E has non-finite entries: the gains overflow the margin analysis"),
        ("1e-320", "A is not Hurwitz to working precision"),
        ("-1.0", "k1 must be symmetric positive definite"),
    ], ids=["overflow", "not-hurwitz", "indefinite"])
    @pytest.mark.parametrize("name", ["wmr_s1_pcon", "wmr_s1_arolc"])
    def test_gains_the_analysis_rejects(self, name, k1, message, tmp_path, capsys):
        # gains that pass GainSet but not the analysis are the [gains]
        # section's fault, for either law
        text = Path(f"scenarios/{name}.ini").read_text()
        assert text.count("\nk1 = 1.0\n") == 1
        path = tmp_path / "bad.ini"
        path.write_text(text.replace("\nk1 = 1.0\n", f"\nk1 = {k1}\n"))
        assert main(["bound", str(path)]) == 2
        assert capsys.readouterr().err == f"error: [gains] {message}\n"

    @pytest.mark.parametrize("k1", ["1e200", "1e308"])
    @pytest.mark.parametrize("command", ["bound", "simulate"])
    def test_gains_that_overflow_e_named(self, k1, command, tmp_path, capsys):
        # the error system's E overflows: the message names E and the gains,
        # not a matrix, with no numpy warning
        text = Path("scenarios/wmr_s1_arolc.ini").read_text()
        path = tmp_path / "big.ini"
        path.write_text(text.replace("\nk1 = 1.0\n", f"\nk1 = {k1}\n"))
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, str(path)] + (["--out", str(out)] if command != "bound"
                                                else []))
        assert code == 2
        assert capsys.readouterr().err == ("error: [gains] E has non-finite entries: the gains "
                                           "overflow the margin analysis\n")
        assert not out.exists()


    @pytest.mark.parametrize("key, entry", [("k1", "k1 = 1.0"), ("k2", "k2 = 1.0"),
                                            ("q", "q = 1.0")])
    @pytest.mark.parametrize("command", ["bound", "simulate"])
    def test_gain_at_the_float_limit_named(self, key, entry, command, tmp_path, capsys):
        # 1e308 overflowed M + M^T (and, for k2, the Lyapunov operator) with
        # a numpy warning; each is a [gains] error
        text = Path("scenarios/wmr_s1_arolc.ini").read_text()
        assert text.count(f"\n{entry}\n") == 1
        path = tmp_path / "big.ini"
        path.write_text(text.replace(f"\n{entry}\n", f"\n{key} = 1e308\n"))
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, str(path)] + (["--out", str(out)] if command != "bound"
                                                else []))
        assert code == 2
        assert capsys.readouterr().err.startswith("error: [gains] ")
        assert not out.exists()


class TestSimulate:
    def test_writes_artifacts(self, fast_ini, tmp_path):
        out = tmp_path / "out"
        code = main(["simulate", str(fast_ini), "--out", str(out), "--quiet"])
        assert code == 0
        rows = (out / "trace.csv").read_text().splitlines()
        assert len(rows) - 1 == pytest.approx(101, abs=1)  # duration/control_dt
        report = json.loads((out / "metrics.json").read_text())
        assert set(report) == {"ae_per_dim", "pct_ae_per_dim", "tv",
                               "sup_error_tail", "runtime", "scenario_hash"}
        assert len(report["ae_per_dim"]) == 2

    def test_trajectory_of_other_dimension_named(self, tmp_path, capsys):
        # the default q0 is the trajectory's start: its check named [sim] q0,
        # a key the file never set
        path = tmp_path / "ramp.ini"
        path.write_text(POINT_MASS.replace("kind = point-mass", "kind = point-mass\nn = 3")
                        .replace("kind = sinusoid", "kind = wheel-ramp"))
        assert main(["simulate", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: [trajectory] must have 3 coordinates, one per plant coordinate, got 2\n")

    def test_zero_duration_rejected(self, tmp_path, capsys):
        path = tmp_path / "zero.ini"
        path.write_text(FAST.replace("duration = 1.0", "duration = 0.0"))
        code = main(["simulate", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "duration" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ["warp_speed = 9", "control_mode = continuous"],
                             ids=["warp_speed", "control_mode"])
    def test_unknown_key_rejected(self, entry, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text(FAST + f"\n{entry}\n")  # in [sim]
        code = main(["simulate", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert entry.split(" = ")[0] in capsys.readouterr().err

    @pytest.mark.parametrize("base, section, entry", [
        ("scenarios/wmr_s1_arolc.ini", "payload", "offsets = 0.1 abc; 0.2 0.3"),
        (None, "controller", "alpha = nan"),
        (None, "sim", "duration = nan"),
        (None, "delay", "h0 = nan"),
    ], ids=["offsets-not-a-number", "alpha-nan", "duration-nan", "h0-nan"])
    def test_bad_number_rejected(self, base, section, entry, tmp_path, capsys):
        key = entry.split(" = ")[0]
        text = Path(base).read_text() if base else FAST
        text = re.sub(rf"^{key}\s*=.*\n", "", text, flags=re.M)
        path = tmp_path / "bad.ini"
        path.write_text(text.replace(f"[{section}]\n", f"[{section}]\n{entry}\n"))
        code = main(["simulate", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"[{section}] {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("base, section, entry, named", [
        (POINT_MASS, "plant", "viscous = 5", "[plant] viscous"),
        (POINT_MASS, "plant", "mismatch = 0.5", "[plant] mismatch"),
        (POINT_MASS, "plant", "m1 = 3", "[plant] m1"),
        (POINT_MASS, "trajectory", "radius = 3", "[trajectory] radius"),
        (POINT_MASS, "controller", "kappa = 2.0", "[controller] kappa"),
        (POINT_MASS + "\n[payload]\n", "payload", "extra_mass = 1.0", "[payload]"),
        (FAST, "plant", "mass = 2.0", "[plant] mass"),
        (FAST, "controller", "h_estimate = 0.1", "[controller] h_estimate"),
        (FAST, "delay", "omega = 2.0", "[delay] omega"),
        ("scenarios/wmr_s1_arolc.ini", "trajectory", "amplitude = 0.5, 0.5",
         "[trajectory] amplitude"),
        ("scenarios/wmr_s1_arolc.ini", "payload", "random_offsets = true",
         "[payload] offsets"),
        ("scenarios/wmr_s1_arolc.ini", "payload", "offset_max = 0.03",
         "[payload] offset_max"),
    ], ids=["pm-viscous", "pm-mismatch", "pm-m1", "pm-radius", "none-kappa",
            "pm-payload", "arm-mass", "arolc-h_estimate", "S1-omega",
            "circle-amplitude", "offsets-and-random", "offset_max-not-random"])
    def test_key_ignored_by_kind_rejected(self, base, section, entry, named,
                                          tmp_path, capsys):
        text = base if base.startswith("\n") else Path(base).read_text()
        path = tmp_path / "ignored.ini"
        path.write_text(text.replace(f"[{section}]\n", f"[{section}]\n{entry}\n"))
        code = main(["simulate", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("old, new, named", [
        ("duration = 1.0", "duration = 1e9", "[sim] duration"),
        ("dt = 1e-3", "dt = 1e-12", "[sim] dt"),
    ], ids=["duration", "dt"])
    def test_oversized_arrays_rejected(self, old, new, named, tmp_path, capsys):
        path = tmp_path / "huge.ini"
        path.write_text(FAST.replace(old, new))
        code = main(["simulate", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert named in capsys.readouterr().err

    def test_divergence_nonzero_exit_with_partial_trace(self, tmp_path, capsys):
        text = FAST.replace("kind = arolc", "kind = pcon\nkappa = 50.0\n"
                            "k_b = 2000.0\nvartheta = 1.0")
        text = text.replace("duration = 1.0", "duration = 10.0")
        path = tmp_path / "div.ini"
        path.write_text(text)
        out = tmp_path / "o"
        code = main(["simulate", str(path), "--out", str(out), "--quiet"])
        assert code == 1
        assert "diverged" in capsys.readouterr().err
        assert (out / "trace.csv").exists()
        assert len((out / "trace.csv").read_text().splitlines()) > 1

    def test_vartheta_at_the_float_limit_diverges(self, tmp_path, capsys):
        # 1e308 overflowed vartheta + vartheta^T in the semidefinite check
        text = Path("scenarios/wmr_s1_pcon.ini").read_text()
        assert text.count("\nvartheta = 14.0\n") == 1
        path = tmp_path / "big.ini"
        path.write_text(text.replace("\nvartheta = 14.0\n", "\nvartheta = 1e308\n"))
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["simulate", str(path), "--out", str(out), "--quiet"])
        assert code == 1
        assert "simulation diverged" in capsys.readouterr().err
        assert (out / "trace.csv").exists()

    def test_non_finite_command_diverges_at_its_period(self, tmp_path, capsys):
        # c_hat_init = 1e308 makes the first command NaN: the run ends at
        # that period, as for a non-finite c_hat, and nothing warns (the
        # blend's 0 * inf, then total_variation's inf - inf, did)
        text = Path("scenarios/wmr_s1_arolc.ini").read_text()
        assert text.count("\nc_hat_init = 0.5\n") == 1 and text.count("\nduration = 40.0\n") == 1
        path = tmp_path / "big.ini"
        path.write_text(text.replace("\nc_hat_init = 0.5\n", "\nc_hat_init = 1e308\n")
                        .replace("\nduration = 40.0\n", "\nduration = 0.3\n"))
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["simulate", str(path), "--out", str(out), "--quiet"])
        assert code == 1
        assert capsys.readouterr().err == "error: simulation diverged at t = 0 s\n"
        rows = (out / "trace.csv").read_text().splitlines()
        assert len(rows) == 2 and ",nan,nan," in rows[1]

    @pytest.mark.parametrize("key, value", [("duration", "1e308"), ("control_dt", "1e308"),
                                            ("dt", "1e-320")])
    def test_counts_beyond_float_named(self, key, value, tmp_path, capsys):
        # the row and step counts, duration / control_dt and control_dt / dt,
        # overflow to inf: each is refused before it is rounded
        plain = tmp_path / "pm.ini"
        plain.write_text(POINT_MASS)
        path = tmp_path / "big.ini"
        path.write_text(re.sub(rf"(?m)^{key} = .*\n", "", POINT_MASS)
                        .replace("[sim]\n", f"[sim]\n{key} = {value}\n"))
        commands = [["simulate", str(path)],
                    ["sweep", str(plain), "--param", f"sim.{key}", f"--range={value}:{value}:1"]]
        if key == "dt":
            commands += [["simulate", str(plain), "--dt", value],
                         ["sweep", str(plain), "--dt", value, "--param", "sim.seed",
                          "--range", "0:0:1"]]
        for command in commands:
            out = tmp_path / "o"
            assert main(command + ["--out", str(out)]) == 2
            assert capsys.readouterr().err.startswith(f"error: [sim] {key} = "), command
            assert not out.exists()

    def test_overrides(self, fast_ini, tmp_path):
        out = tmp_path / "o"
        code = main(["simulate", str(fast_ini), "--out", str(out),
                     "--control-dt", "0.02", "--quiet"])
        assert code == 0
        rows = (out / "trace.csv").read_text().splitlines()
        assert len(rows) - 1 == pytest.approx(51, abs=1)


class TestOutOfRange:
    """A value the constructor rejects exits 2 naming [section] key, the
    key's spelling in the file."""

    ARM = "scenarios/two_link_s1_arolc.ini"
    WMR = "scenarios/wmr_s1_arolc.ini"
    RAMP = POINT_MASS.replace("kind = point-mass", "kind = point-mass\nn = 2") \
                     .replace("kind = sinusoid", "kind = wheel-ramp")

    @pytest.mark.parametrize("base, section, entry, key", [
        (ARM, "plant", "m1 = -1", "m1"),
        (ARM, "plant", "mismatch = 1.5", "mismatch"),
        (WMR, "plant", "d = 0.5", "d"),
        (WMR, "plant", "viscous = -5", "viscous"),
        (POINT_MASS, "plant", "n = 0", "n"),
        (POINT_MASS.replace("kind = point-mass", "kind = oscillator"), "plant",
         "stiffness = -1", "stiffness"),
        (WMR, "payload", "period_on = 0", "period_on"),
        (WMR, "trajectory", "radius = -1", "radius"),
        (ARM, "sim", "q0 = 0.1 0.2 0.3", "q0"),
        (ARM, "sim", "control_dt = 0", "control_dt"),
        (WMR, "plant", "i_bar = -1", "i_bar"),
        (ARM, "plant", "i1 = -1", "i1"),
        (POINT_MASS, "trajectory", "amplitude = 0", "path_diameter"),
        (POINT_MASS, "trajectory", "path_diameter = -1", "path_diameter"),
        (RAMP, "trajectory", "path_diameter = 0", "path_diameter"),
        (ARM, "sim", "duration = 0.015", "duration"),
        (ARM, "sim", "duration = 0.004", "duration"),
    ], ids=["arm-m1", "arm-mismatch", "wmr-d", "wmr-viscous", "pm-n",
            "osc-stiffness", "payload-period_on", "circle-radius", "arm-q0",
            "arm-control_dt", "wmr-i_bar", "arm-i1", "sinusoid-flat",
            "sinusoid-negative-diameter", "ramp-zero-diameter", "duration-0.015",
            "duration-0.004"])
    def test_rejected_naming_the_key(self, base, section, entry, key, tmp_path, capsys):
        text = base if base.startswith("\n") else Path(base).read_text()
        entry_key = entry.split(" = ")[0]
        text = re.sub(rf"(?m)^{entry_key}\s*=.*\n", "", text)
        path = tmp_path / "bad.ini"
        path.write_text(text.replace(f"[{section}]\n", f"[{section}]\n{entry}\n"))
        assert main(["bound", str(path)]) == 2
        assert f"[{section}] {key} " in capsys.readouterr().err
        out = tmp_path / "o"
        assert main(["simulate", str(path), "--out", str(out)]) == 2
        assert f"[{section}] {key} " in capsys.readouterr().err
        assert not out.exists()

    # each entry finite, but a constant the trajectory derives from them not:
    # qd_ddot's amplitude, qd_dot's, the peak of qd, the larger wheel rate
    @pytest.mark.parametrize("base, entries, message", [
        (ARM, ("frequency = 1e200 1",), "amplitude * frequency ** 2 must be finite"),
        (ARM, ("amplitude = 1e308 1", "frequency = 2 1"), "amplitude * frequency must be finite"),
        (ARM, ("amplitude = 1e308 1", "offset = 1e308 0"), "offset + amplitude must be finite"),
        (WMR, ("rate = 1e308",), "rate * (radius + b) / r_bar must be finite"),
    ], ids=["sinusoid-frequency", "sinusoid-amplitude", "sinusoid-offset", "circle-rate"])
    @pytest.mark.parametrize("command", ["bound", "simulate"])
    def test_derived_trajectory_overflow_named(self, base, entries, message, command,
                                               tmp_path, capsys):
        # these warned from numpy and then passed (bound) or diverged at
        # t = 0 (simulate), or blamed [sim] q0
        text = Path(base).read_text()
        for entry in entries:
            text, count = re.subn(rf"(?m)^{entry.split(' = ')[0]} *=.*$", entry, text)
            assert count == 1
        path = tmp_path / "big.ini"
        path.write_text(text)
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, str(path)] + (["--out", str(out)] if command != "bound"
                                                else []))
        assert code == 2
        assert capsys.readouterr().err == f"error: [trajectory] {message}\n"
        assert not out.exists()

    def test_sweep_into_range_violation(self, tmp_path, capsys):
        code = main(["sweep", "scenarios/two_link_s1_arolc.ini", "--param", "plant.m1",
                     "--range=-1:1:1", "--out", str(tmp_path / "s")])
        assert code == 2
        assert "[plant] m1 must be finite and positive" in capsys.readouterr().err
        assert not (tmp_path / "s" / "sweep.csv").exists()


class TestCompare:
    def test_side_by_side_table(self, fast_ini, tmp_path):
        other = tmp_path / "other.ini"
        other.write_text(FAST.replace("kind = arolc",
                                      "kind = pcon\nkappa = 2.0\nk_b = 1.0\n"
                                      "vartheta = 1.0"))
        out = tmp_path / "cmp"
        code = main(["compare", str(fast_ini), str(other), "--out", str(out),
                     "--quiet"])
        assert code == 0
        lines = (out / "comparison.csv").read_text().splitlines()
        assert lines[0].startswith("scenario,ae_0,ae_1,pct_ae_0")
        assert len(lines) == 3
        assert (out / "a" / "trace.csv").exists()
        assert (out / "b" / "metrics.json").exists()


    def test_plants_of_different_dimensions_rejected(self, tmp_path, capsys):
        # the table has one column per plant coordinate: with 3 and 2 its
        # values would sit under the wrong headers
        three = tmp_path / "three.ini"
        three.write_text(POINT_MASS.replace("kind = point-mass", "kind = point-mass\nn = 3"))
        out = tmp_path / "cmp"
        code = main(["compare", str(three), "scenarios/margin_reference.ini",
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert str(three) in err and "scenarios/margin_reference.ini" in err
        assert not out.exists()  # nothing simulated


class TestSweep:
    @pytest.mark.parametrize("param, spec, values", [("sim.seed", "0:2:1", ["0", "1", "2"]),
                                                     ("plant.n", "1:3:1", ["1", "2", "3"])])
    def test_integer_key_sweeps(self, param, spec, values, tmp_path):
        ini = tmp_path / "pm.ini"
        ini.write_text(POINT_MASS)
        out = tmp_path / "sweep"
        code = main(["sweep", str(ini), "--param", param, "--range", spec,
                     "--out", str(out), "--quiet"])
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == values
        # a row of fewer coordinates leaves its last cells empty, under the
        # header's columns
        assert len({len(line.split(",")) for line in lines}) == 1

    def test_non_integral_value_of_integer_key_rejected(self, tmp_path, capsys):
        ini = tmp_path / "pm.ini"
        ini.write_text(POINT_MASS)
        code = main(["sweep", str(ini), "--param", "sim.seed", "--range", "0:1:0.5",
                     "--out", str(tmp_path / "s")])
        assert code == 2
        assert "[sim] seed: '0.5'" in capsys.readouterr().err

    def test_aggregated_csv(self, tmp_path):
        ini = tmp_path / "constant.ini"
        ini.write_text(FAST.replace("kind = S1", "kind = constant"))
        out = tmp_path / "sweep"
        code = main(["sweep", str(ini), "--param", "delay.h0",
                     "--range", "0.0:0.08:0.04", "--out", str(out), "--quiet"])
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("value,status,ae_0")
        assert len(lines) == 4
        values = [float(line.split(",")[0]) for line in lines[1:]]
        assert values == pytest.approx([0.0, 0.04, 0.08])

    def test_sweep_of_key_ignored_by_kind_rejected(self, fast_ini, tmp_path, capsys):
        # h0 is read only by kind = constant: over kind = S1 every value of
        # the sweep would simulate the same run
        code = main(["sweep", str(fast_ini), "--param", "delay.h0",
                     "--range", "0:0.2:0.1", "--out", str(tmp_path / "s")])
        assert code == 2
        assert "[delay] h0" in capsys.readouterr().err
        assert not (tmp_path / "s" / "sweep.csv").exists()

    def test_bad_param_rejected(self, fast_ini, tmp_path, capsys):
        code = main(["sweep", str(fast_ini), "--param", "delay.warp",
                     "--range", "0:1:1", "--out", str(tmp_path / "s")])
        assert code == 2
        assert "warp" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["nan:1:1", "0:inf:1", "0:1:nan", "-inf:0:1"])
    def test_non_finite_range_rejected(self, fast_ini, tmp_path, capsys, spec):
        code = main(["sweep", str(fast_ini), "--param", "delay.h0",
                     f"--range={spec}", "--out", str(tmp_path / "s")])
        assert code == 2
        assert "--range" in capsys.readouterr().err

    # rejected before any array is allocated: the first would ask numpy for
    # 1e21 values, the second's count overflows to inf
    @pytest.mark.parametrize("spec", ["0:1e12:1e-9", "-1e308:1e308:1e-300",
                                      f"0:{_MAX_SWEEP_VALUES}:1"])
    def test_too_many_values_rejected(self, fast_ini, tmp_path, capsys, spec):
        code = main(["sweep", str(fast_ini), "--param", "delay.h0",
                     f"--range={spec}", "--out", str(tmp_path / "s")])
        assert code == 2
        assert "--range" in capsys.readouterr().err

    def test_rejected_last_value_runs_nothing(self, tmp_path, capsys, monkeypatch):
        # every value is built before the first run: 0.105 s is no multiple
        # of the 0.01 s control period, so 0.1 s does not run either
        ini = tmp_path / "pm.ini"
        ini.write_text(POINT_MASS)
        runs = []
        monkeypatch.setattr(cli, "simulate", runs.append)
        out = tmp_path / "s"
        code = main(["sweep", str(ini), "--param", "sim.duration",
                     "--range", "0.1:0.105:0.005", "--out", str(out)])
        assert code == 2
        assert "[sim] duration must be an integer multiple" in capsys.readouterr().err
        assert runs == []
        assert not out.exists()

    def test_param_overrides_the_flag(self, tmp_path):
        # --dt 0.003 alone is rejected (no divisor of the 0.01 s period);
        # the --param value is applied after it and wins
        ini = tmp_path / "pm.ini"
        ini.write_text(POINT_MASS)
        args = ["sweep", str(ini), "--dt", "0.003", "--out", str(tmp_path / "s"), "--quiet"]
        assert main(args + ["--param", "sim.seed", "--range", "0:0:1"]) == 2
        assert main(args + ["--param", "sim.dt", "--range", "0.002:0.002:1"]) == 0

    def test_range_cap_is_inclusive(self):
        assert len(_parse_range(f"1:{_MAX_SWEEP_VALUES}:1")) == _MAX_SWEEP_VALUES
