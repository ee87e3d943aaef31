import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from arolc.cli import main
from arolc.controllers import ArolcConfig, PconConfig
from arolc.delays import KIND_PARAMS, DelayProfile, max_delay
from arolc.plants import (
    PayloadSchedule,
    TwoLinkParams,
    WmrParams,
    oscillator_plant,
    point_mass_plant,
    reduced_wmr_dynamics,
    two_link_plant,
)
from arolc.scenario_io import (
    ScenarioError,
    apply_override,
    build_gains,
    build_scenario,
    load_config,
    load_scenario,
    scenario_hash,
)
from arolc.sim import Scenario
from arolc.stability import GainSet
from arolc.trajectories import CircleTrajectory, WheelRampTrajectory

SHIPPED = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.ini"))

MINIMAL = """
[plant]
kind = point-mass
n = 1

[controller]
kind = none

[delay]
kind = none

[trajectory]
kind = sinusoid
amplitude = 0.5
frequency = 1.0
phase = 0.0
offset = 0.0

[sim]
duration = 1.0
dt = 1e-3
control_dt = 1e-2
"""


class TestLoadConfig:
    def test_minimal_ok(self):
        config = load_config(MINIMAL)
        assert config["plant"]["kind"] == "point-mass"

    def test_unknown_section(self):
        with pytest.raises(ScenarioError, match=r"\[wheels\]"):
            load_config(MINIMAL + "\n[wheels]\nradius = 1\n")

    def test_unknown_key_named(self):
        with pytest.raises(ScenarioError, match=r"\[sim\] turbo"):
            load_config(MINIMAL + "\nturbo = yes\n")

    def test_missing_required_key(self):
        bad = MINIMAL.replace("duration = 1.0", "")
        with pytest.raises(ScenarioError, match=r"\[sim\] duration"):
            load_config(bad)

    def test_missing_section(self):
        bad = MINIMAL.replace("[delay]\nkind = none\n", "")
        with pytest.raises(ScenarioError, match=r"\[delay\]"):
            load_config(bad)

    def test_literal_text_opening_with_a_comment(self):
        path = SHIPPED[0].parent / "wmr_s1_arolc.ini"
        text = path.read_text()
        assert text.startswith("#")
        assert load_config(text) == load_config(path)

    def test_comments_allowed(self):
        config = load_config(MINIMAL.replace("duration = 1.0",
                                             "duration = 1.0  # one second"))
        assert config["sim"]["duration"].strip() == "1.0"


class TestBuildScenario:
    def test_minimal(self):
        sc = build_scenario(load_config(MINIMAL))
        assert sc.plant.dim == 1
        assert sc.controller is None
        assert sc.duration == 1.0

    def test_bad_number_names_key(self):
        bad = MINIMAL.replace("duration = 1.0", "duration = soon")
        with pytest.raises(ScenarioError, match=r"\[sim\] duration"):
            build_scenario(load_config(bad))

    def test_unknown_plant_kind(self):
        bad = MINIMAL.replace("kind = point-mass", "kind = hovercraft")
        with pytest.raises(ScenarioError, match="hovercraft"):
            build_scenario(load_config(bad))

    @pytest.mark.parametrize("kind, key", [
        ("S1", "h0"), ("none", "h0"), ("custom", "h0"),
        ("constant", "a"), ("S3", "b"), ("none", "omega"),
    ])
    def test_delay_key_ignored_by_kind_rejected(self, kind, key):
        bad = MINIMAL.replace("[delay]\nkind = none\n",
                              f"[delay]\nkind = {kind}\n{key} = 0.05\n")
        with pytest.raises(ScenarioError, match=rf"\[delay\] {key}\b"):
            build_scenario(load_config(bad))

    @pytest.mark.parametrize("entries, expected", [
        ("kind = constant\nh0 = 0.05\n", 0.05),
        ("kind = custom\na = 0.01\nb = 0.04\nomega = 2.0\n", 0.05),
    ])
    def test_delay_keys_of_their_kind_accepted(self, entries, expected):
        text = MINIMAL.replace("[delay]\nkind = none\n", f"[delay]\n{entries}")
        sc = build_scenario(load_config(text))
        assert max_delay(sc.delay) == pytest.approx(expected)

    @pytest.mark.parametrize("kind", sorted(KIND_PARAMS))
    def test_every_delay_kind_has_its_key_set(self, kind):
        # every kind DelayProfile accepts is accepted in a file, with the
        # keys DelayProfile lets it set; a key it ignores is rejected even
        # at its default, which DelayProfile itself would accept
        for key, default in (("h0", 0.0), ("a", 0.0), ("b", 0.0), ("omega", 1.0)):
            try:
                DelayProfile(kind, **{key: 0.5})
            except ValueError:
                reads = False
            else:
                reads = True
            for value in (0.5, default):
                text = MINIMAL.replace("[delay]\nkind = none\n",
                                       f"[delay]\nkind = {kind}\n{key} = {value}\n")
                if reads:
                    assert build_scenario(load_config(text)).delay.kind == kind
                else:
                    with pytest.raises(ScenarioError, match=rf"\[delay\] {key}\b"):
                        build_scenario(load_config(text))

    def test_circle_requires_wmr(self):
        bad = MINIMAL.replace("kind = sinusoid", "kind = circle") \
                     .replace("amplitude = 0.5\n", "") \
                     .replace("frequency = 1.0\n", "") \
                     .replace("phase = 0.0\n", "") \
                     .replace("offset = 0.0\n", "")
        with pytest.raises(ScenarioError, match="circle"):
            build_scenario(load_config(bad))

    def test_pconf_requires_h_estimate(self):
        bad = MINIMAL.replace("kind = none\n\n[delay]",
                              "kind = pconf\n\n[delay]")
        with pytest.raises(ScenarioError, match="h_estimate"):
            build_scenario(load_config(bad))

    def test_negative_h_estimate_names_key(self, tmp_path, capsys):
        text = (SHIPPED[0].parent / "wmr_s3_pconf.ini").read_text()
        path = tmp_path / "bad.ini"
        path.write_text(re.sub(r"(?m)^h_estimate = 0\.06$", "h_estimate = -0.06", text))
        assert main(["bound", str(path)]) == 2
        err = capsys.readouterr().err
        assert "[controller] h_estimate must be finite and nonnegative" in err

    def test_pconf_is_pcon_with_fixed_window(self):
        sc = load_scenario(SHIPPED[0].parent / "wmr_s3_pconf.ini")
        assert isinstance(sc.controller, PconConfig)
        assert sc.controller.h_estimate == 0.06
        s1 = load_scenario(SHIPPED[0].parent / "wmr_s1_pcon.ini")
        assert s1.controller.h_estimate is None

    def test_rolling_start(self):
        cfg = load_config(MINIMAL + "\nstart = rolling\n")
        sc = build_scenario(cfg)
        np.testing.assert_allclose(sc.qdot0, [0.5])  # amp * freq * cos(0)

    def test_rolling_conflicts_with_qdot0(self):
        cfg = load_config(MINIMAL + "\nstart = rolling\nqdot0 = 1.0\n")
        with pytest.raises(ScenarioError, match="qdot0"):
            build_scenario(cfg)

    def test_gain_diagonal_list(self):
        text = MINIMAL.replace("kind = point-mass\nn = 1",
                               "kind = two-link")
        text = text.replace("amplitude = 0.5", "amplitude = 0.5, 0.5")
        text = text.replace("frequency = 1.0", "frequency = 1.0, 1.0")
        text = text.replace("phase = 0.0", "phase = 0.0, 0.0")
        text = text.replace("offset = 0.0", "offset = 0.0, 0.0")
        text += "\n[gains]\nk1 = 2.0, 3.0\nk2 = 1.0\n"
        gains = build_gains(load_config(text), 2)
        np.testing.assert_allclose(gains.K1, np.diag([2.0, 3.0]))
        np.testing.assert_allclose(gains.K2, np.eye(2))

    def test_shipped_scenarios_build(self):
        sc = load_scenario("scenarios/wmr_s1_arolc.ini")
        assert isinstance(sc.controller, ArolcConfig)
        assert sc.plant.dim == 2
        assert sc.controller.c_hat_init == pytest.approx(0.5)

    @pytest.mark.parametrize("path", SHIPPED, ids=[p.stem for p in SHIPPED])
    def test_every_shipped_scenario_passes_the_key_rules(self, path):
        load_scenario(path)

    @pytest.mark.parametrize("old, new, named", [
        (r"seed = 0", "seed = -1", "[sim] seed"),
        (r"offsets = .*", "random_offsets = true\noffset_max = -0.01", "[payload] offset_max"),
        (r"offsets = .*", "random_offsets = true\noffset_max = 1e308", "[payload] offset_max"),
    ], ids=["seed", "offset_max-negative", "offset_max-huge"])
    def test_file_only_keys_range_checked(self, old, new, named):
        text = (SHIPPED[0].parent / "wmr_s1_arolc.ini").read_text()
        text = re.sub(rf"(?m)^{old}$", new, text)
        with pytest.raises(ScenarioError, match=re.escape(named)):
            build_scenario(load_config(text))

    def test_random_offsets_read_offset_max(self, tmp_path):
        text = Path("scenarios/wmr_s1_arolc.ini").read_text()
        path = tmp_path / "random.ini"
        path.write_text(re.sub(r"^offsets\s*=.*\n",
                               "random_offsets = true\noffset_max = 0.01\n",
                               text, flags=re.M))
        offsets = load_scenario(path).plant.payload.offsets
        assert len(offsets) == 8
        assert max(abs(x) for pair in offsets for x in pair) <= 0.01


# Every kind with no key but `kind` (and the required duration)
BARE = """
[plant]
kind = {plant}

[controller]
kind = {controller}

[delay]
kind = constant

[trajectory]
kind = {trajectory}

[sim]
duration = 1.0
{extra}"""


def build_bare(plant="two-link", controller="none", trajectory="sinusoid", extra=""):
    return build_scenario(load_config(BARE.format(
        plant=plant, controller=controller, trajectory=trajectory, extra=extra)))


class TestDefaultsStatedOnce:
    """A key the file leaves out takes the default of the constructor it
    feeds."""

    def test_two_link(self):
        plant = build_bare("two-link").plant
        bare = two_link_plant(TwoLinkParams())
        assert plant.params == TwoLinkParams()
        assert plant.nominal.params == bare.nominal.params
        assert (plant.disturbance_amp, plant.disturbance_freq) == \
            (bare.disturbance_amp, bare.disturbance_freq)

    def test_wmr_with_payload(self):
        plant = build_bare("wmr", extra="\n[payload]\n").plant
        bare = reduced_wmr_dynamics(WmrParams())
        assert plant.params == WmrParams()
        assert plant.nominal.params == bare.nominal.params
        assert plant.payload == PayloadSchedule()
        assert (plant.viscous, plant.disturbance_amp, plant.disturbance_freq) == \
            (bare.viscous, bare.disturbance_amp, bare.disturbance_freq)

    @pytest.mark.parametrize("kind, factory, attrs", [
        ("point-mass", point_mass_plant, ("dim", "mass")),
        ("oscillator", oscillator_plant, ("dim", "stiffness", "mass")),
    ])
    def test_simple_plants(self, kind, factory, attrs):
        sc = build_bare(kind)
        bare = factory()
        assert [getattr(sc.plant, a) for a in attrs] == [getattr(bare, a) for a in attrs]
        assert sc.trajectory.dim == bare.dim  # sinusoid lists sized to the plant

    @pytest.mark.parametrize("kind, expected", [
        ("circle", CircleTrajectory()), ("wheel-ramp", WheelRampTrajectory()),
    ])
    def test_wmr_trajectories(self, kind, expected):
        assert build_bare("wmr", trajectory=kind).trajectory == expected

    def test_delay(self):
        assert build_bare().delay == DelayProfile("constant")

    def test_arolc(self):
        cfg = build_bare(controller="arolc").controller
        bare = ArolcConfig(GainSet.identity(2))
        names = ("alpha", "epsilon", "gamma", "c_hat_init", "switching")
        assert [getattr(cfg, a) for a in names] == [getattr(bare, a) for a in names]

    def test_c_hat_init_follows_the_files_gamma(self):
        text = BARE.format(plant="two-link", controller="arolc\ngamma = 0.02",
                           trajectory="sinusoid", extra="")
        assert build_scenario(load_config(text)).controller.c_hat_init == 0.02

    @pytest.mark.parametrize("kind, h_estimate", [("pcon", None),
                                                  ("pconf\nh_estimate = 0.05", 0.05)])
    def test_pcon(self, kind, h_estimate):
        cfg = build_bare(controller=kind).controller
        bare = PconConfig()
        assert isinstance(cfg, PconConfig)
        assert (cfg.kappa, cfg.k_b, cfg.h_estimate) == (bare.kappa, bare.k_b, h_estimate)
        np.testing.assert_array_equal(cfg.vartheta, np.eye(2))

    def test_gains(self):
        gains = build_gains(load_config(BARE.format(
            plant="two-link", controller="none", trajectory="sinusoid", extra="")), 2)
        bare = GainSet.identity(2)
        assert (gains.r, gains.beta) == (bare.r, bare.beta)
        for name in ("K1", "K2", "Q"):
            np.testing.assert_array_equal(getattr(gains, name), getattr(bare, name))

    def test_sim(self):
        sc = build_bare()
        bare = Scenario(plant=sc.plant, trajectory=sc.trajectory)
        names = ("dt", "dt_control", "q0", "qdot0")
        assert [getattr(sc, a) for a in names] == [getattr(bare, a) for a in names]

    def test_seeded_draws_pinned(self):
        # the seed-0 draws: payload offsets first, then disturbance phases;
        # drawing them in the other order changes both
        text = (SHIPPED[0].parent / "wmr_s1_arolc.ini").read_text()
        text = re.sub(r"(?m)^offsets\s*=.*$", "random_offsets = true", text)
        text = re.sub(r"(?m)^viscous\s*=.*$", r"\g<0>\ndisturbance_amp = 0.3", text)
        plant = build_scenario(load_config(text)).plant
        assert plant.payload.offsets == (
            (0.013696168732145436, -0.02302132862361297),
            (-0.045902647606380534, -0.04834723644714709),
            (0.031327023920027244, 0.04127555772777218),
            (0.010663577576717986, 0.022949656098399843),
            (0.004362499146542284, 0.04350724237877683),
            (0.031585355412153224, -0.04972614998298519),
            (0.03574042765875694, -0.046641442469453565),
            (0.022965544642994412, -0.0324344379397441),
        )
        assert plant.phases.tolist() == [5.423513122375916, 3.402101183476623]


class TestHashAndOverride:
    def test_hash_stable_and_sensitive(self):
        c1 = load_config(MINIMAL)
        c2 = load_config(MINIMAL)
        assert scenario_hash(c1) == scenario_hash(c2)
        apply_override(c2, "sim.seed", "7")
        assert scenario_hash(c1) != scenario_hash(c2)

    @given(st.data())
    def test_override_round_trip(self, data):
        path = data.draw(st.sampled_from(SHIPPED))
        config = load_config(path)
        section, key = data.draw(st.sampled_from(
            [(s, k) for s, entries in sorted(config.items()) for k in sorted(entries)]))
        original = config[section][key]
        value = data.draw(st.text().filter(lambda v: v != original))
        digest = scenario_hash(config)
        apply_override(config, f"{section}.{key}", value)
        assert config[section][key] == value
        assert scenario_hash(config) != digest
        apply_override(config, f"{section}.{key}", original)
        assert config == load_config(path)
        assert scenario_hash(config) == digest

    def test_override_unknown_key(self):
        config = load_config(MINIMAL)
        with pytest.raises(ScenarioError, match="sim.+warp|warp"):
            apply_override(config, "sim.warp", "9")

    def test_override_requires_dot(self):
        with pytest.raises(ScenarioError):
            apply_override(load_config(MINIMAL), "duration", "2.0")
