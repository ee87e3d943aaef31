"""Scenario files: declarative INI documents mapped onto Scenario objects.

A scenario file has sections [plant], [controller], [gains], [delay],
[trajectory], [payload], [sim]. Times are seconds, masses kg, lengths
meters. '#' and ';' start comments. Unknown sections or keys are rejected,
as are missing required keys; error messages name the offending entry.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from .controllers import ArolcConfig, PconConfig
from .delays import DelayProfile
from .plants import (
    PayloadSchedule,
    TwoLinkParams,
    WmrParams,
    oscillator_plant,
    point_mass_plant,
    reduced_wmr_dynamics,
    two_link_plant,
)
from .sim import Scenario
from .stability import GainSet
from .trajectories import (
    CircleTrajectory,
    SinusoidTrajectory,
    WheelRampTrajectory,
)

__all__ = ["ScenarioError", "load_config", "build_gains", "build_scenario",
           "load_scenario", "scenario_hash", "apply_override"]


class ScenarioError(ValueError):
    """Invalid scenario file content; the message names the bad entry."""


_ARM_KEYS = {"mismatch", "viscous", "disturbance_amp", "disturbance_freq"}
_PCON_KEYS = {"kappa", "k_b", "vartheta"}
# Per kind-selected section, the keys each kind reads besides `kind`; a key
# the chosen kind does not read is rejected, since it would be ignored
_KIND_KEYS = {
    "plant": {
        "two-link": _ARM_KEYS | {"m1", "m2", "l1", "l2", "lc1", "lc2", "i1", "i2",
                                 "gravity"},
        "wmr": _ARM_KEYS | {"m", "i_bar", "k", "d", "r_bar", "b", "i_w"},
        "point-mass": {"n", "mass"},
        "oscillator": {"stiffness", "mass"},
    },
    "controller": {
        "arolc": {"alpha", "epsilon", "gamma", "c_hat_init", "switching"},
        "pcon": _PCON_KEYS,
        "pconf": _PCON_KEYS | {"h_estimate"},
        "none": set(),
    },
    "delay": {
        "constant": {"h0"},
        "custom": {"a", "b", "omega"},
        **{kind: set() for kind in ("S1", "S2", "S3", "S4", "none")},
    },
    "trajectory": {
        "circle": {"radius", "rate", "center_x", "center_y", "path_diameter"},
        "wheel-ramp": {"rate_r", "rate_l", "path_diameter"},
        "sinusoid": {"amplitude", "frequency", "phase", "offset", "path_diameter"},
    },
}

_KNOWN_KEYS = {
    **{section: {"kind"}.union(*kinds.values()) for section, kinds in _KIND_KEYS.items()},
    "gains": {"k1", "k2", "q", "r", "beta"},
    "payload": {"extra_mass", "period_on", "period_off", "offsets",
                "random_offsets", "offset_max"},
    "sim": {"duration", "dt", "control_dt", "seed", "q0", "qdot0",
            "control_mode", "start"},
}

_REQUIRED = {
    "plant": {"kind"},
    "controller": {"kind"},
    "delay": {"kind"},
    "trajectory": {"kind"},
    "sim": {"duration"},
}


def load_config(source) -> dict[str, dict[str, str]]:
    """Parse an INI scenario (path or literal text) into nested dicts and
    reject unknown sections/keys and missing required keys."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    text = Path(source).read_text() if not str(source).lstrip().startswith("[") \
        else str(source)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ScenarioError(f"malformed scenario file: {exc}") from exc
    config: dict[str, dict[str, str]] = {}
    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ScenarioError(f"unknown section [{section}]")
        config[section] = {}
        for key, value in parser.items(section):
            if key not in _KNOWN_KEYS[section]:
                raise ScenarioError(f"unknown key [{section}] {key}")
            config[section][key] = value
    for section, keys in _REQUIRED.items():
        if section not in config:
            raise ScenarioError(f"missing section [{section}]")
        for key in keys:
            if key not in config[section]:
                raise ScenarioError(f"missing key [{section}] {key}")
    return config


def _number(text, sec_name, key, cast=float):
    """Parse one finite number of [sec_name] key."""
    try:
        value = cast(text)
    except ValueError as exc:
        raise ScenarioError(f"bad number for [{sec_name}] {key}: {text!r}") from exc
    if not math.isfinite(value):
        raise ScenarioError(f"[{sec_name}] {key} must be finite, got {text!r}")
    return value


def _fval(section, sec_name, key, default=None, cast=float):
    if key not in section:
        if default is None:
            raise ScenarioError(f"missing key [{sec_name}] {key}")
        return default
    return _number(section[key], sec_name, key, cast)


def _bval(section, sec_name, key, default):
    if key not in section:
        return default
    raw = section[key].strip().lower()
    if raw in ("true", "yes", "1", "on"):
        return True
    if raw in ("false", "no", "0", "off"):
        return False
    raise ScenarioError(f"bad boolean for [{sec_name}] {key}: {section[key]!r}")


def _flist(section, sec_name, key, default=None):
    if key not in section:
        if default is None:
            raise ScenarioError(f"missing key [{sec_name}] {key}")
        return default
    return tuple(_number(x, sec_name, key) for x in section[key].replace(",", " ").split())


def _pairs(section, sec_name, key, default):
    if key not in section:
        return default
    pairs = []
    for chunk in section[key].split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.replace(",", " ").split()
        if len(parts) != 2:
            raise ScenarioError(f"bad offset pair in [{sec_name}] {key}: "
                                f"{chunk!r}")
        pairs.append(tuple(_number(x, sec_name, key) for x in parts))
    if not pairs:
        raise ScenarioError(f"empty offset list in [{sec_name}] {key}")
    return tuple(pairs)


def _gain_matrix(section, sec_name, key, n, default_scalar):
    values = _flist(section, sec_name, key, default=(default_scalar,))
    if len(values) == 1:
        return values[0] * np.eye(n)
    if len(values) == n:
        return np.diag(values)
    raise ScenarioError(
        f"[{sec_name}] {key} must be a scalar or a {n}-entry diagonal"
    )


def _build_payload(config, rng) -> PayloadSchedule | None:
    if "payload" not in config:
        return None
    sec = config["payload"]
    extra = _fval(sec, "payload", "extra_mass", 3.5)
    on = _fval(sec, "payload", "period_on", 5.0)
    off = _fval(sec, "payload", "period_off", 5.0)
    if _bval(sec, "payload", "random_offsets", False):
        cap = _fval(sec, "payload", "offset_max", 0.05)
        offsets = tuple(
            (float(x), float(y)) for x, y in rng.uniform(-cap, cap, size=(8, 2))
        )
    else:
        offsets = _pairs(sec, "payload", "offsets", ((0.05, 0.02),))
    return PayloadSchedule(extra_mass=extra, period_on=on, period_off=off,
                           offsets=offsets)


def _build_plant(config, rng):
    sec = config["plant"]
    kind = sec["kind"].strip().lower()
    mismatch = _fval(sec, "plant", "mismatch", 0.0)
    viscous = _fval(sec, "plant", "viscous", 0.0)
    dist_amp = _fval(sec, "plant", "disturbance_amp", 0.0)
    dist_freq = _fval(sec, "plant", "disturbance_freq", 1.0)
    if kind == "two-link":
        params = TwoLinkParams(
            m1=_fval(sec, "plant", "m1", 1.0), m2=_fval(sec, "plant", "m2", 1.0),
            l1=_fval(sec, "plant", "l1", 1.0), l2=_fval(sec, "plant", "l2", 1.0),
            lc1=_fval(sec, "plant", "lc1", 0.5), lc2=_fval(sec, "plant", "lc2", 0.5),
            I1=_fval(sec, "plant", "i1", 0.05), I2=_fval(sec, "plant", "i2", 0.05),
            gravity=_fval(sec, "plant", "gravity", 9.81), viscous=viscous,
        )
        phases = rng.uniform(0.0, 2.0 * np.pi, 2) if dist_amp else None
        return two_link_plant(params, mismatch=mismatch,
                              disturbance_amp=dist_amp,
                              disturbance_freq=dist_freq, phases=phases), params
    if kind == "wmr":
        params = WmrParams(
            m=_fval(sec, "plant", "m", 10.0),
            I_bar=_fval(sec, "plant", "i_bar", 0.5),
            K=_fval(sec, "plant", "k", 0.5),
            d=_fval(sec, "plant", "d", 0.05),
            r_bar=_fval(sec, "plant", "r_bar", 0.0975),
            b=_fval(sec, "plant", "b", 0.165),
            I_w=_fval(sec, "plant", "i_w", 0.0025),
        )
        payload = _build_payload(config, rng)
        phases = rng.uniform(0.0, 2.0 * np.pi, 2) if dist_amp else None
        return reduced_wmr_dynamics(params, mismatch=mismatch, payload=payload,
                                    viscous=viscous, disturbance_amp=dist_amp,
                                    disturbance_freq=dist_freq,
                                    phases=phases), params
    if kind == "point-mass":
        return point_mass_plant(_fval(sec, "plant", "n", 1, cast=int),
                                _fval(sec, "plant", "mass", 1.0)), None
    if kind == "oscillator":
        return oscillator_plant(_fval(sec, "plant", "stiffness", 1.0),
                                _fval(sec, "plant", "mass", 1.0)), None
    raise ScenarioError(f"unknown plant kind: [plant] kind = {sec['kind']!r}")


def _build_trajectory(config, plant_dim, wmr_params):
    sec = config["trajectory"]
    kind = sec["kind"].strip().lower()
    if kind == "circle":
        if wmr_params is None:
            raise ScenarioError("[trajectory] kind = circle requires a wmr plant")
        return CircleTrajectory(
            radius=_fval(sec, "trajectory", "radius", 1.25),
            rate=_fval(sec, "trajectory", "rate", 0.35),
            center=(_fval(sec, "trajectory", "center_x", 0.1),
                    _fval(sec, "trajectory", "center_y", 1.35)),
            r_bar=wmr_params.r_bar, b=wmr_params.b,
            path_diameter=_fval(sec, "trajectory", "path_diameter", 0.0),
        )
    if kind == "wheel-ramp":
        return WheelRampTrajectory(
            rate_r=_fval(sec, "trajectory", "rate_r", 3.0),
            rate_l=_fval(sec, "trajectory", "rate_l", 2.0),
            path_diameter=_fval(sec, "trajectory", "path_diameter", 2.5),
        )
    if kind == "sinusoid":
        amp = _flist(sec, "trajectory", "amplitude", tuple([0.5] * plant_dim))
        freq = _flist(sec, "trajectory", "frequency", tuple([0.5] * plant_dim))
        phase = _flist(sec, "trajectory", "phase", tuple([0.0] * len(amp)))
        offset = _flist(sec, "trajectory", "offset", tuple([0.0] * len(amp)))
        if not (len(amp) == len(freq) == len(phase) == len(offset) == plant_dim):
            raise ScenarioError(
                f"[trajectory] lists must all have {plant_dim} entries"
            )
        return SinusoidTrajectory(
            amplitude=amp, frequency=freq, phase=phase, offset=offset,
            path_diameter=_fval(sec, "trajectory", "path_diameter", 0.0),
        )
    raise ScenarioError(f"unknown trajectory kind: [trajectory] kind = {sec['kind']!r}")


def _reject_ignored_keys(config) -> None:
    """Reject every entry that the chosen kinds would ignore; unknown kinds
    are left for the builders to name."""
    for section, kinds in _KIND_KEYS.items():
        sec = config[section]
        kind = sec["kind"].strip()
        reads = kinds.get(kind if section == "delay" else kind.lower())
        if reads is None:
            continue
        for key in sec:
            if key != "kind" and key not in reads:
                raise ScenarioError(f"[{section}] {key} does not apply to "
                                    f"kind = {kind}")
    payload = config.get("payload")
    if payload is None:
        return
    if config["plant"]["kind"].strip().lower() != "wmr":
        raise ScenarioError(f"[payload] applies only to [plant] kind = wmr, not "
                            f"kind = {config['plant']['kind'].strip()}")
    if _bval(payload, "payload", "random_offsets", False):
        if "offsets" in payload:
            raise ScenarioError("[payload] offsets conflicts with random_offsets = true")
    elif "offset_max" in payload:
        raise ScenarioError("[payload] offset_max applies only with random_offsets = true")


def _build_delay(config) -> DelayProfile:
    sec = config["delay"]
    kind = sec["kind"].strip()
    try:
        return DelayProfile(
            kind=kind,
            h0=_fval(sec, "delay", "h0", 0.0),
            a=_fval(sec, "delay", "a", 0.0),
            b=_fval(sec, "delay", "b", 0.0),
            omega=_fval(sec, "delay", "omega", 1.0),
        )
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(f"[delay] {exc}") from exc


def build_gains(config: dict[str, dict[str, str]], n: int) -> GainSet:
    """The GainSet of the [gains] section for an n-joint plant (defaults for
    absent keys, or for an absent section)."""
    gsec = config.get("gains", {})
    try:
        return GainSet(
            K1=_gain_matrix(gsec, "gains", "k1", n, 1.0),
            K2=_gain_matrix(gsec, "gains", "k2", n, 1.0),
            Q=_gain_matrix(gsec, "gains", "q", 2 * n, 1.0),
            r=_fval(gsec, "gains", "r", 1.1),
            beta=_fval(gsec, "gains", "beta", 1.0),
        )
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(f"[gains] {exc}") from exc


def build_scenario(config: dict[str, dict[str, str]], label: str = "") -> Scenario:
    """Turn a parsed config into a ready-to-run Scenario."""
    _reject_ignored_keys(config)
    sim_sec = config["sim"]
    seed = _fval(sim_sec, "sim", "seed", 0, cast=int)
    rng = np.random.default_rng(seed)

    plant, plant_params = _build_plant(config, rng)
    wmr_params = plant_params if config["plant"]["kind"].strip().lower() == "wmr" \
        else None
    trajectory = _build_trajectory(config, plant.dim, wmr_params)
    delay = _build_delay(config)

    ctrl_sec = config["controller"]
    kind = ctrl_sec["kind"].strip().lower()

    # built for every kind, so that a bad [gains] section is never ignored
    gains = build_gains(config, plant.dim)

    arolc_cfg = None
    pcon_cfg = None
    if kind == "arolc":
        try:
            arolc_cfg = ArolcConfig(
                gains,
                alpha=_fval(ctrl_sec, "controller", "alpha", 2.0),
                epsilon=_fval(ctrl_sec, "controller", "epsilon", 0.1),
                gamma=_fval(ctrl_sec, "controller", "gamma", 1e-3),
                c_hat_init=_fval(ctrl_sec, "controller", "c_hat_init",
                                 _fval(ctrl_sec, "controller", "gamma", 1e-3)),
                switching=_bval(ctrl_sec, "controller", "switching", True),
            )
        except ScenarioError:
            raise
        except ValueError as exc:
            raise ScenarioError(f"[controller] {exc}") from exc
    elif kind in ("pcon", "pconf"):
        # pconf is the file spelling of pcon with a fixed integral window
        vartheta = _gain_matrix(ctrl_sec, "controller", "vartheta", plant.dim, 1.0)
        h_estimate = None
        if kind == "pconf":
            h_estimate = _fval(ctrl_sec, "controller", "h_estimate")
        try:
            pcon_cfg = PconConfig(
                kappa=_fval(ctrl_sec, "controller", "kappa", 2.0),
                vartheta=vartheta,
                k_b=_fval(ctrl_sec, "controller", "k_b", 5.0),
                h_estimate=h_estimate,
            )
        except ScenarioError:
            raise
        except ValueError as exc:
            raise ScenarioError(f"[controller] {exc}") from exc
        kind = "pcon"
    elif kind != "none":
        raise ScenarioError(f"unknown controller kind: [controller] kind = "
                            f"{ctrl_sec['kind']!r}")

    q0 = _flist(sim_sec, "sim", "q0", ()) or None
    qdot0 = _flist(sim_sec, "sim", "qdot0", ()) or None
    start = sim_sec.get("start", "rest").strip().lower()
    if start not in ("rest", "rolling"):
        raise ScenarioError(f"[sim] start must be rest or rolling, got {start!r}")
    if start == "rolling":
        if qdot0 is not None:
            raise ScenarioError("[sim] qdot0 conflicts with start = rolling")
        qdot0 = tuple(trajectory(0.0)[1])

    sc = Scenario(
        plant=plant,
        trajectory=trajectory,
        delay=delay,
        controller=kind,
        arolc=arolc_cfg,
        pcon=pcon_cfg,
        duration=_fval(sim_sec, "sim", "duration"),
        dt=_fval(sim_sec, "sim", "dt", 1e-4),
        dt_control=_fval(sim_sec, "sim", "control_dt", 1e-2),
        q0=np.asarray(q0, float) if q0 else None,
        qdot0=np.asarray(qdot0, float) if qdot0 else None,
        control_mode=sim_sec.get("control_mode", "sampled").strip(),
        label=label,
    )
    try:
        sc.validate()
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    return sc


def load_scenario(path, label: str = "") -> Scenario:
    """Parse and build in one step."""
    return build_scenario(load_config(path), label=label or str(path))


def scenario_hash(config: dict[str, dict[str, str]]) -> str:
    """Short stable digest of the resolved configuration."""
    canonical = json.dumps(config, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def apply_override(config: dict[str, dict[str, str]], dotted_key: str,
                   value: str) -> None:
    """Set 'section.key' in a parsed config, validating the key name."""
    if "." not in dotted_key:
        raise ScenarioError(f"override must look like section.key, got "
                            f"{dotted_key!r}")
    section, key = dotted_key.split(".", 1)
    if section not in _KNOWN_KEYS or key not in _KNOWN_KEYS[section]:
        raise ScenarioError(f"unknown override target [{section}] {key}")
    config.setdefault(section, {})[key] = value
