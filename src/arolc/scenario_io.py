"""Scenario files: declarative INI documents mapped onto Scenario objects.

A scenario file has sections [plant], [controller], [gains], [delay],
[trajectory], [payload], [sim]. Times are seconds, masses kg, lengths
meters. '#' starts a comment anywhere on a line, ';' only at the start of
one: inside a value it separates the [payload] offsets, so a number
followed by '; note' is not a number. Unknown sections or keys are
rejected, as are missing required keys.

[plant], [controller], [delay] and [trajectory] each select a kind. The
table _KINDS is the one statement of what each kind reads: per kind, the
keys it reads, the keys it requires and the function that builds it. One
lookup, _build, serves all four sections: it rejects a kind the table does
not name, a key the chosen kind would ignore and a missing required key
(pconf's h_estimate), then calls the kind's builder. Delay kinds are
case-sensitive, as DelayProfile spells them; the other kinds are
case-folded. The file's known keys of these sections, and the [gains] keys
(GainSet's fields), come from the table and the dataclasses.

Each section passes the constructor it feeds only the keys the file sets,
each parsed as a finite number: a key left out takes the constructor's own
default, and only the constructor checks a value's range. Every value is
parsed and built inside _section(name), which alone writes [name] into a
value's error: the parse helpers and the constructors raise a ValueError
that starts with the key, and _section reports it as a ScenarioError of
[name] key. Only the file format's own rules live here: gains k1, k2, q and
vartheta are a scalar or a diagonal (identity when left out); sinusoid
lists default to one entry per plant coordinate; the circle's center is
center_x, center_y and its wheel geometry comes from the wmr plant;
c_hat_init defaults to the file's gamma; pconf is pcon with a fixed window
h_estimate; a [payload] section needs a wmr plant, and random_offsets = true
draws the offsets (at most offset_max) instead of reading them; and the
seed draws the payload offsets before the disturbance phases.
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
from .stability import ErrorSystem, GainSet, build_error_system
from .trajectories import (
    CircleTrajectory,
    SinusoidTrajectory,
    WheelRampTrajectory,
)

__all__ = ["ScenarioError", "load_config", "build_gains", "analyse_gains", "build_scenario",
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
_PCON = _field_names(PconConfig, "vartheta")
_DELAY = _field_names(DelayProfile, "kind")
_CIRCLE = ("radius", "rate", "path_diameter")
_CENTER = ("center_x", "center_y")
_RAMP = _field_names(WheelRampTrajectory)
_SINUSOID_LISTS = {"amplitude": 0.5, "frequency": 0.5, "phase": 0.0, "offset": 0.0}


def _number(text, key, cast=float):
    """Parse one finite number of key."""
    try:
        value = cast(text)
    except ValueError as exc:
        raise ValueError(f"{key}: {text!r} does not parse as {cast.__name__}") from exc
    if not math.isfinite(value):
        raise ValueError(f"{key} must be finite, got {text!r}")
    return value


def _given(section, names, cast=float) -> dict:
    """{name: number} of each argument in names whose key the section sets."""
    return {name: _number(section[name.lower()], name.lower(), cast)
            for name in names if name.lower() in section}


def _bval(section, key) -> bool:
    raw = section[key].strip().lower()
    if raw in ("true", "yes", "1", "on"):
        return True
    if raw in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"{key}: {section[key]!r} is not a boolean")


def _flist(section, key, default=()) -> tuple[float, ...]:
    """The numbers of a comma- or space-separated list; default when the
    key is left out."""
    if key not in section:
        return default
    return tuple(_number(x, key) for x in section[key].replace(",", " ").split())


def _pairs(section, key):
    pairs = []
    for chunk in section[key].split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.replace(",", " ").split()
        if len(parts) != 2:
            raise ValueError(f"{key}: bad offset pair {chunk!r}")
        pairs.append(tuple(_number(x, key) for x in parts))
    if not pairs:
        raise ValueError(f"{key}: empty offset list")
    return tuple(pairs)


def _gain_matrix(section, key, n):
    """The n x n gain of a scalar or an n-entry diagonal; identity when the
    key is left out."""
    values = _flist(section, key, (1.0,))
    if len(values) == 1:
        return values[0] * np.eye(n)
    if len(values) == n:
        return np.diag(values)
    raise ValueError(f"{key} must be a scalar or a {n}-entry diagonal")


@contextmanager
def _section(name):
    """Report a ValueError as a ScenarioError of [name], in the file's
    spelling: Scenario.dt_control as its key control_dt, and a leading word
    that names a key of the section lowercased, as configparser reads keys
    (K1 as k1); any other leading word stays as written ("A is not Hurwitz
    ..."). A leading Scenario field that a section of its own sets
    (trajectory, controller) is reported as that section. A ScenarioError
    raised inside, which already names its section, passes through."""
    try:
        yield
    except ScenarioError:
        raise
    except ValueError as exc:
        message = str(exc).replace("dt_control", "control_dt")
        field, sep, rest = message.partition(" ")
        key = field.lower()
        if key in _KNOWN_KEYS:
            name, message = key, rest
        elif key in _KNOWN_KEYS[name]:
            message = key + sep + rest
        raise ScenarioError(f"[{name}] {message}") from exc


def _build_payload(config, rng) -> PayloadSchedule | None:
    """The [payload] schedule of a wmr plant, or None without the section."""
    sec = config.get("payload")
    if sec is None:
        return None
    plant_kind = config["plant"]["kind"].strip()
    if plant_kind.lower() != "wmr":
        raise ValueError(f"applies only to [plant] kind = wmr, not kind = {plant_kind}")
    args = _given(sec, _PAYLOAD)
    if "random_offsets" in sec and _bval(sec, "random_offsets"):
        if "offsets" in sec:
            raise ValueError("offsets conflicts with random_offsets = true")
        cap = _given(sec, ("offset_max",)).get("offset_max", 0.05)
        if not 0.0 <= 2.0 * cap < math.inf:  # the width of the uniform draw
            raise ValueError(f"offset_max must be nonnegative with "
                             f"2 * offset_max finite, got {cap!r}")
        args["offsets"] = tuple(
            (float(x), float(y)) for x, y in rng.uniform(-cap, cap, size=(8, 2))
        )
    elif "offset_max" in sec:
        raise ValueError("offset_max applies only with random_offsets = true")
    elif "offsets" in sec:
        args["offsets"] = _pairs(sec, "offsets")
    return PayloadSchedule(**args)


def _arm_args(sec, rng) -> dict:
    """The mismatch and disturbance of a two-link or wmr plant; the
    disturbance phases are drawn after the payload offsets."""
    args = _given(sec, _ARM_ARGS)
    if args.get("disturbance_amp"):
        args["phases"] = rng.uniform(0.0, 2.0 * np.pi, 2)
    return args


# The plant builders take (section, payload, rng)
def _two_link(sec, payload, rng):
    return two_link_plant(TwoLinkParams(**_given(sec, _TWO_LINK)), **_arm_args(sec, rng))


def _wmr(sec, payload, rng):
    return reduced_wmr_dynamics(WmrParams(**_given(sec, _WMR)), payload=payload,
                                **_arm_args(sec, rng), **_given(sec, ("viscous",)))


def _point_mass(sec, payload, rng):
    return point_mass_plant(**_given(sec, ("n",), int), **_given(sec, ("mass",)))


def _oscillator(sec, payload, rng):
    return oscillator_plant(**_given(sec, ("stiffness", "mass")))


# The controller builders take (section, gains): the config, None for none
def _arolc(sec, gains):
    args = _given(sec, _AROLC)
    if "gamma" in args:
        args.setdefault("c_hat_init", args["gamma"])
    if "switching" in sec:
        args["switching"] = _bval(sec, "switching")
    analyse_gains(gains)  # stored on gains, where ArolcConfig reads B^T P
    return ArolcConfig(gains, **args)


def _pcon(sec, gains):
    """pcon, and pconf: the file spelling of pcon with a fixed window."""
    return PconConfig(vartheta=_gain_matrix(sec, "vartheta", gains.n),
                      **_given(sec, _PCON))


def _no_controller(sec, gains):
    return None


def _delay(sec):
    return DelayProfile(sec["kind"].strip(), **_given(sec, _DELAY))


# The trajectory builders take (section, plant)
def _circle(sec, plant):
    params = getattr(plant, "params", None)
    if not isinstance(params, WmrParams):
        raise ValueError("kind = circle requires a wmr plant")
    center = dict(zip(_CENTER, CircleTrajectory.center)) | _given(sec, _CENTER)
    return CircleTrajectory(center=tuple(center.values()), r_bar=params.r_bar,
                            b=params.b, **_given(sec, _CIRCLE))


def _wheel_ramp(sec, plant):
    return WheelRampTrajectory(**_given(sec, _RAMP))


def _sinusoid(sec, plant):
    lists = {key: _flist(sec, key, (value,) * plant.dim)
             for key, value in _SINUSOID_LISTS.items()}
    if any(len(values) != plant.dim for values in lists.values()):
        raise ValueError(f"lists must all have {plant.dim} entries")
    return SinusoidTrajectory(**lists, **_given(sec, ("path_diameter",)))


# Per kind-selected section, each kind: (the keys it reads besides kind, the
# keys it requires, its builder)
_KINDS = {
    "plant": {
        "two-link": (_keys(_ARM_ARGS, _TWO_LINK), (), _two_link),
        "wmr": (_keys(_ARM_ARGS, ("viscous",), _WMR), (), _wmr),
        "point-mass": ({"n", "mass"}, (), _point_mass),
        "oscillator": ({"stiffness", "mass"}, (), _oscillator),
    },
    "controller": {
        "arolc": (_keys(_field_names(ArolcConfig, "gains")), (), _arolc),
        "pcon": (_keys(_field_names(PconConfig, "h_estimate")), (), _pcon),
        "pconf": (_keys(_field_names(PconConfig)), ("h_estimate",), _pcon),
        "none": (set(), (), _no_controller),
    },
    "delay": {kind: (_keys(params), (), _delay) for kind, params in KIND_PARAMS.items()},
    "trajectory": {
        "circle": (_keys(_CIRCLE, _CENTER), (), _circle),
        "wheel-ramp": (_keys(_RAMP), (), _wheel_ramp),
        "sinusoid": (_keys(_SINUSOID_LISTS, ("path_diameter",)), (), _sinusoid),
    },
}

_KNOWN_KEYS = {
    **{section: {"kind"}.union(*(reads for reads, _, _ in kinds.values()))
       for section, kinds in _KINDS.items()},
    "gains": _keys(_field_names(GainSet)),
    "payload": _keys(_field_names(PayloadSchedule), ("random_offsets", "offset_max")),
    "sim": {"duration", "dt", "control_dt", "seed", "q0", "qdot0", "start"},
}

_REQUIRED = {**dict.fromkeys(_KINDS, {"kind"}), "sim": {"duration"}}


def load_config(source) -> dict[str, dict[str, str]]:
    """Parse an INI scenario into nested dicts and reject unknown
    sections/keys and missing required keys. source is a path, or the text
    itself when it holds a line break."""
    # ';' is no inline comment: it separates the offsets pairs
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
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


def _build(config, name, *context):
    """The object of the kind-selected section name: its kind's builder
    called on the section and context, once the section's keys pass the
    kind's rules."""
    sec = config[name]
    with _section(name):
        kind = sec["kind"].strip()
        kinds = _KINDS[name]
        entry = kinds.get(kind if name == "delay" else kind.lower())
        if entry is None:
            raise ValueError(f"kind = {kind!r} is not one of {', '.join(kinds)}")
        reads, required, builder = entry
        for key in sec:
            if key != "kind" and key not in reads:
                raise ValueError(f"{key} does not apply to kind = {kind}")
        for key in required:
            if key not in sec:
                raise ValueError(f"{key} is required by kind = {kind}")
        return builder(sec, *context)


def build_gains(config: dict[str, dict[str, str]], n: int) -> GainSet:
    """The GainSet of the [gains] section for an n-joint plant (defaults for
    absent keys, or for an absent section)."""
    sec = config.get("gains", {})
    with _section("gains"):
        return GainSet(K1=_gain_matrix(sec, "k1", n), K2=_gain_matrix(sec, "k2", n),
                       Q=_gain_matrix(sec, "q", 2 * n), **_given(sec, ("r", "beta")))


def analyse_gains(gains: GainSet) -> ErrorSystem:
    """The error system of the [gains] section's gains (build_error_system).
    Gains that the analysis rejects, an error system that is not Hurwitz or
    an E that overflows, are a fault of the section: the ValueError is
    reported as a ScenarioError of [gains]."""
    with _section("gains"):
        return build_error_system(gains)


def build_scenario(config: dict[str, dict[str, str]], label: str = "") -> Scenario:
    """Turn a parsed config into a ready-to-run Scenario."""
    sim = config["sim"]
    with _section("sim"):
        seed = _given(sim, ("seed",), int).get("seed", 0)
        if seed < 0:
            raise ValueError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    with _section("payload"):
        payload = _build_payload(config, rng)
    plant = _build(config, "plant", payload, rng)
    trajectory = _build(config, "trajectory", plant)
    delay = _build(config, "delay")
    # built for every kind, so that a bad [gains] section is never ignored
    gains = build_gains(config, plant.dim)
    controller = _build(config, "controller", gains)

    with _section("sim"):
        q0, qdot0 = _flist(sim, "q0"), _flist(sim, "qdot0")
        start = sim.get("start", "rest").strip().lower()
        if start not in ("rest", "rolling"):
            raise ValueError(f"start must be rest or rolling, got {start!r}")
        if start == "rolling":
            if qdot0:
                raise ValueError("qdot0 conflicts with start = rolling")
            qdot0 = tuple(trajectory(0.0)[1])
        args = _given(sim, ("duration", "dt"))
        if "control_dt" in sim:
            args["dt_control"] = _number(sim["control_dt"], "control_dt")
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
