"""Scenario files: declarative INI documents mapped onto Scenario objects.

A scenario file has sections [plant], [controller], [gains], [delay],
[trajectory], [payload], [sim]. Times are seconds, masses kg, lengths
meters. '#' and ';' start comments. Unknown sections or keys are rejected,
as are missing required keys and keys that the section's chosen kind
ignores.

Each section passes the constructor it feeds only the keys the file sets,
each parsed as a finite number: a key left out takes the constructor's own
default, only the constructor checks a value's range, and its ValueError
comes back as a ScenarioError naming the [section]. Only the file
format's own rules live here: gains k1, k2, q and vartheta are a scalar or
a diagonal (identity when left out); sinusoid lists default to one entry
per plant coordinate; the circle's center is center_x, center_y and its
wheel geometry comes from [plant]; c_hat_init defaults to the file's
gamma; pconf is pcon with a fixed window h_estimate; and the seed draws
the payload offsets before the disturbance phases.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

import numpy as np

from .controllers import ArolcConfig, PconConfig
from .delays import KIND_PARAMS, DelayProfile
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


def _field_names(cls, *skip) -> tuple[str, ...]:
    """The constructor arguments of a dataclass, less those in skip."""
    return tuple(f.name for f in fields(cls) if f.init and f.name not in skip)


def _keys(*groups) -> set[str]:
    """The file keys of groups of argument names: configparser lowercases
    every key it reads."""
    return {name.lower() for group in groups for name in group}


# The numeric arguments each constructor takes from its section
_ARM_ARGS = ("mismatch", "disturbance_amp", "disturbance_freq")
_TWO_LINK = _field_names(TwoLinkParams)
_WMR = _field_names(WmrParams)
_PAYLOAD = _field_names(PayloadSchedule, "offsets")
_AROLC = _field_names(ArolcConfig, "gains", "switching")
_PCON = ("kappa", "k_b", "h_estimate")
_DELAY = _field_names(DelayProfile, "kind")
_CIRCLE = ("radius", "rate", "path_diameter")
_RAMP = _field_names(WheelRampTrajectory)
_SINUSOID_LISTS = {"amplitude": 0.5, "frequency": 0.5, "phase": 0.0, "offset": 0.0}

# Per kind-selected section, the keys each kind reads besides `kind`; a key
# the chosen kind does not read is rejected, since it would be ignored
_KIND_KEYS = {
    "plant": {
        "two-link": _keys(_ARM_ARGS, _TWO_LINK),
        "wmr": _keys(_ARM_ARGS, ("viscous",), _WMR),
        "point-mass": {"n", "mass"},
        "oscillator": {"stiffness", "mass"},
    },
    "controller": {
        "arolc": _keys(_AROLC, ("switching",)),
        "pcon": {"kappa", "k_b", "vartheta"},
        "pconf": {"kappa", "k_b", "vartheta", "h_estimate"},
        "none": set(),
    },
    "delay": {kind: _keys(params) for kind, params in KIND_PARAMS.items()},
    "trajectory": {
        "circle": _keys(_CIRCLE, ("center_x", "center_y")),
        "wheel-ramp": _keys(_RAMP),
        "sinusoid": _keys(_SINUSOID_LISTS, ("path_diameter",)),
    },
}

_KNOWN_KEYS = {
    **{section: {"kind"}.union(*kinds.values()) for section, kinds in _KIND_KEYS.items()},
    "gains": {"k1", "k2", "q", "r", "beta"},
    "payload": _keys(_field_names(PayloadSchedule), ("random_offsets", "offset_max")),
    "sim": {"duration", "dt", "control_dt", "seed", "q0", "qdot0", "start"},
}

_REQUIRED = {
    "plant": {"kind"},
    "controller": {"kind"},
    "delay": {"kind"},
    "trajectory": {"kind"},
    "sim": {"duration"},
}


def load_config(source) -> dict[str, dict[str, str]]:
    """Parse an INI scenario into nested dicts and reject unknown
    sections/keys and missing required keys. source is a path, or the text
    itself when it holds a line break."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    text = str(source)
    if "\n" not in text:
        text = Path(text).read_text()
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


def _given(section, sec_name, names) -> dict:
    """{name: number} of each argument in names whose key the section sets."""
    return {name: _number(section[name.lower()], sec_name, name.lower())
            for name in names if name.lower() in section}


def _bval(section, sec_name, key) -> bool:
    raw = section[key].strip().lower()
    if raw in ("true", "yes", "1", "on"):
        return True
    if raw in ("false", "no", "0", "off"):
        return False
    raise ScenarioError(f"bad boolean for [{sec_name}] {key}: {section[key]!r}")


def _flist(section, sec_name, key) -> tuple[float, ...]:
    return tuple(_number(x, sec_name, key) for x in section[key].replace(",", " ").split())


def _pairs(section, sec_name, key):
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


def _gain_matrix(section, sec_name, key, n):
    """The n x n gain of a scalar or an n-entry diagonal; identity when the
    key is left out."""
    if key not in section:
        return np.eye(n)
    values = _flist(section, sec_name, key)
    if len(values) == 1:
        return values[0] * np.eye(n)
    if len(values) == n:
        return np.diag(values)
    raise ScenarioError(
        f"[{sec_name}] {key} must be a scalar or a {n}-entry diagonal"
    )


@contextmanager
def _section(name):
    """Report a constructor's ValueError as a ScenarioError of [name], in
    the file's spelling: the leading argument name lowercased, as
    configparser reads keys, and Scenario.dt_control as its key control_dt.
    A leading Scenario field that a section of its own sets (trajectory,
    controller) is reported as that section. A ScenarioError already names
    its entry and passes through unchanged."""
    try:
        yield
    except ScenarioError:
        raise
    except ValueError as exc:
        field, sep, rest = str(exc).partition(" ")
        field = field.lower()
        if field in _KNOWN_KEYS:
            name, field, sep = field, "", ""
        message = (field + sep + rest).replace("dt_control", "control_dt")
        raise ScenarioError(f"[{name}] {message}") from exc


def _random_offsets(payload) -> bool:
    return "random_offsets" in payload and _bval(payload, "payload", "random_offsets")


def _build_payload(sec, rng) -> PayloadSchedule | None:
    if sec is None:
        return None
    args = _given(sec, "payload", _PAYLOAD)
    if _random_offsets(sec):
        cap = _number(sec["offset_max"], "payload", "offset_max") \
            if "offset_max" in sec else 0.05
        if not 0.0 <= 2.0 * cap < math.inf:  # the width of the uniform draw
            raise ScenarioError(f"[payload] offset_max must be nonnegative with "
                                f"2 * offset_max finite, got {cap!r}")
        args["offsets"] = tuple(
            (float(x), float(y)) for x, y in rng.uniform(-cap, cap, size=(8, 2))
        )
    elif "offsets" in sec:
        args["offsets"] = _pairs(sec, "payload", "offsets")
    return PayloadSchedule(**args)


def _build_plant(sec, payload, rng):
    """(plant, its WmrParams or None) of the [plant] section; the
    disturbance phases are drawn after the payload offsets."""
    kind = sec["kind"].strip().lower()
    if kind == "point-mass":
        n = {"n": _number(sec["n"], "plant", "n", cast=int)} if "n" in sec else {}
        return point_mass_plant(**n, **_given(sec, "plant", ("mass",))), None
    if kind == "oscillator":
        return oscillator_plant(**_given(sec, "plant", ("stiffness", "mass"))), None
    args = _given(sec, "plant", _ARM_ARGS)
    if args.get("disturbance_amp"):
        args["phases"] = rng.uniform(0.0, 2.0 * np.pi, 2)
    if kind == "two-link":
        return two_link_plant(TwoLinkParams(**_given(sec, "plant", _TWO_LINK)),
                              **args), None
    if kind == "wmr":
        params = WmrParams(**_given(sec, "plant", _WMR))
        return reduced_wmr_dynamics(params, payload=payload, **args,
                                    **_given(sec, "plant", ("viscous",))), params
    raise ScenarioError(f"unknown plant kind: [plant] kind = {sec['kind']!r}")


def _build_trajectory(sec, plant_dim, wmr_params):
    kind = sec["kind"].strip().lower()
    if kind == "circle":
        if wmr_params is None:
            raise ScenarioError("[trajectory] kind = circle requires a wmr plant")
        center = tuple(_number(sec[key], "trajectory", key) if key in sec else default
                       for key, default in zip(("center_x", "center_y"),
                                               CircleTrajectory.center))
        return CircleTrajectory(center=center, r_bar=wmr_params.r_bar, b=wmr_params.b,
                                **_given(sec, "trajectory", _CIRCLE))
    if kind == "wheel-ramp":
        return WheelRampTrajectory(**_given(sec, "trajectory", _RAMP))
    if kind == "sinusoid":
        lists = {key: _flist(sec, "trajectory", key) if key in sec else (value,) * plant_dim
                 for key, value in _SINUSOID_LISTS.items()}
        if any(len(values) != plant_dim for values in lists.values()):
            raise ScenarioError(
                f"[trajectory] lists must all have {plant_dim} entries"
            )
        return SinusoidTrajectory(**lists, **_given(sec, "trajectory", ("path_diameter",)))
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
    if _random_offsets(payload):
        if "offsets" in payload:
            raise ScenarioError("[payload] offsets conflicts with random_offsets = true")
    elif "offset_max" in payload:
        raise ScenarioError("[payload] offset_max applies only with random_offsets = true")


def _build_controller(sec, gains, n):
    """The controller config of [controller]: None for kind = none."""
    kind = sec["kind"].strip().lower()
    if kind == "arolc":
        args = _given(sec, "controller", _AROLC)
        if "gamma" in args:
            args.setdefault("c_hat_init", args["gamma"])
        if "switching" in sec:
            args["switching"] = _bval(sec, "controller", "switching")
        return ArolcConfig(gains, **args)
    if kind in ("pcon", "pconf"):
        # pconf is the file spelling of pcon with a fixed integral window
        if kind == "pconf" and "h_estimate" not in sec:
            raise ScenarioError("missing key [controller] h_estimate")
        return PconConfig(vartheta=_gain_matrix(sec, "controller", "vartheta", n),
                          **_given(sec, "controller", _PCON))
    if kind == "none":
        return None
    raise ScenarioError(f"unknown controller kind: [controller] kind = "
                        f"{sec['kind']!r}")


def build_gains(config: dict[str, dict[str, str]], n: int) -> GainSet:
    """The GainSet of the [gains] section for an n-joint plant (defaults for
    absent keys, or for an absent section)."""
    sec = config.get("gains", {})
    with _section("gains"):
        return GainSet(
            K1=_gain_matrix(sec, "gains", "k1", n),
            K2=_gain_matrix(sec, "gains", "k2", n),
            Q=_gain_matrix(sec, "gains", "q", 2 * n),
            **_given(sec, "gains", ("r", "beta")),
        )


def build_scenario(config: dict[str, dict[str, str]], label: str = "") -> Scenario:
    """Turn a parsed config into a ready-to-run Scenario."""
    _reject_ignored_keys(config)
    sim = config["sim"]
    seed = _number(sim["seed"], "sim", "seed", cast=int) if "seed" in sim else 0
    if seed < 0:
        raise ScenarioError(f"[sim] seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)

    with _section("payload"):
        payload = _build_payload(config.get("payload"), rng)
    with _section("plant"):
        plant, wmr_params = _build_plant(config["plant"], payload, rng)
    with _section("trajectory"):
        trajectory = _build_trajectory(config["trajectory"], plant.dim, wmr_params)
    with _section("delay"):
        delay = DelayProfile(config["delay"]["kind"].strip(),
                             **_given(config["delay"], "delay", _DELAY))
    # built for every kind, so that a bad [gains] section is never ignored
    gains = build_gains(config, plant.dim)
    with _section("controller"):
        controller = _build_controller(config["controller"], gains, plant.dim)

    with _section("sim"):
        q0 = _flist(sim, "sim", "q0") if "q0" in sim else ()
        qdot0 = _flist(sim, "sim", "qdot0") if "qdot0" in sim else ()
        start = sim.get("start", "rest").strip().lower()
        if start not in ("rest", "rolling"):
            raise ScenarioError(f"[sim] start must be rest or rolling, got {start!r}")
        if start == "rolling":
            if qdot0:
                raise ScenarioError("[sim] qdot0 conflicts with start = rolling")
            qdot0 = tuple(trajectory(0.0)[1])
        args = _given(sim, "sim", ("duration", "dt"))
        if "control_dt" in sim:
            args["dt_control"] = _number(sim["control_dt"], "sim", "control_dt")
        sc = Scenario(
            plant=plant,
            trajectory=trajectory,
            delay=delay,
            controller=controller,
            q0=np.asarray(q0, float) if q0 else None,
            qdot0=np.asarray(qdot0, float) if qdot0 else None,
            label=label,
            **args,
        )
        sc.validate()
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
