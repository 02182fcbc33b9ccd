"""Configuration-driven experiment runner.

One JSON config document describes the system, the run parameters and the
output paths; the subcommand picks the operation.  Identical config and seed
produce byte-identical reports: all randomness flows through counter-based
streams derived from run.seed, and reports contain no timestamps.

Exit codes: 0 success, 1 algorithm failure (branching-process failure,
blow-up, vanishing success probability), 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._util import ParameterError, complex_pairs, pairs_complex, rng_stream
from . import observables as obs_mod
from .euler_driver import (NoiseModel, integrate, noise_study, plan_resources,
                           report_to_doc, run_deterministic, run_montecarlo,
                           write_report_json, write_trajectory_csv)
from .nonlin_step import make_step_operator
from .polysys import (OdeSystem, PolynomialMap, check_ode_measure_preserving,
                      euler_map, load_map, load_system, map_from_doc,
                      random_unit, system_from_doc, validate)
from .qstate import decode, dump_state_csv, encode
from .systems import (GraphSpec, discrete_nls, identity_map, lorenz,
                      orszag_mclaughlin, permutation_map, power_map,
                      random_unitary_map)

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Schema violation; message names the offending field."""


@dataclass
class ExperimentConfig:
    system_kind: str            # "map" or "ode"
    system: PolynomialMap | OdeSystem
    run: dict
    observe: dict | None
    output: dict
    resolved: dict = field(default_factory=dict)  # echo for reports


# ---------------------------------------------------------------------------
# Schema checking

_RUN_DEFAULTS = {
    "mode": "deterministic",
    "m": None,
    "t": None,
    "epsilon": "auto",
    "plan_base": 16.0,
    "lambda": "auto",
    "seed": 0,
    "eta": None,
    "trials": None,
    "z0": "seeded",
    "samples": 200,
    "tol": 1e-9,
}

_OUTPUT_DEFAULTS = {
    "dir": ".",
    "json": "report.json",
    "csv": "trajectory.csv",
    "state_csv": None,
}

_MODES = ("deterministic", "montecarlo", "noise_study")

# Run values other than mode, z0 and "auto" are finite numbers >= 0, or null
# where the default is null (unset).
_RUN_INTEGERS = ("m", "trials", "samples", "seed")
_RUN_POSITIVE = ("m", "trials", "samples", "t", "epsilon", "lambda", "plan_base")


def _discrete_nls(vertices, edges, k, nonlinear_scale):
    graph = GraphSpec(_number(vertices, "vertices", integer=True),
                      tuple(tuple(_number(v, "edges", integer=True) for v in e)
                            for e in edges))
    return discrete_nls(graph, _number(k, "k", integer=True),
                        nonlinear_scale=float(nonlinear_scale))


# name -> (system kind, builder, default parameters)
_BUILTINS = {
    "orszag_mclaughlin": ("ode", orszag_mclaughlin, {"n": 5}),
    "lorenz": ("ode", lorenz, {"sigma": 10.0, "rho": 28.0, "beta": 8.0 / 3.0}),
    "discrete_nls": ("ode", _discrete_nls, {"vertices": 2, "edges": [[0, 1]],
                                            "k": 2, "nonlinear_scale": 1.0}),
    "identity": ("map", identity_map, {"n": 2}),
    "permutation": ("map", permutation_map, {"perm": [2, 1]}),
    "power": ("map", power_map, {"k": 2}),
    "random_unitary": ("map", random_unitary_map,
                       {"n": 3, "rotations": None, "rng": 0, "scale": 1.0}),
}

# key -> (system kind, loader)
_SYSTEM_SOURCES = {
    "map": ("map", map_from_doc), "map_path": ("map", load_map),
    "ode": ("ode", system_from_doc), "ode_path": ("ode", load_system),
}


def _reject_unknown(section: dict, allowed, path: str):
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key '{path}{key}'")


def _object(value, path) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"'{path}' must be an object, got {value!r}")
    return value


def _number(value, path, integer=False, positive=False):
    """A finite number >= 0 (> 0 if positive), as an int if integer."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"'{path}' must be a number, got {value!r}")
    # A bound, not math.isfinite: it raises on a JSON integer past the float range.
    if not (0 < value if positive else 0 <= value) or not value <= sys.float_info.max:
        raise ConfigError(f"'{path}' must be a finite number "
                          f"{'>' if positive else '>='} 0, got {value!r}")
    if integer and value != int(value):
        raise ConfigError(f"'{path}' must be an integer")
    return int(value) if integer else value


def _checked(path: str, fn, *args, **kwargs):
    """fn(*args, **kwargs) on config values; what it rejects is a
    configuration error naming `path`, or `path.name` for a ParameterError."""
    try:
        return fn(*args, **kwargs)
    except KeyError as exc:
        raise ConfigError(f"'{path}' lacks field {exc}") from None
    except ParameterError as exc:
        raise ConfigError(f"'{path}.{exc.name}': {exc}") from None
    except (ArithmeticError, OSError, TypeError, ValueError) as exc:
        raise ConfigError(f"'{path}': {exc}") from None


def _resolve_system(section) -> tuple[str, object, dict]:
    if isinstance(section, str):
        section = {"name": section}
    _object(section, "system")
    if "name" in section:
        name = section["name"]
        params = {k: v for k, v in section.items() if k != "name"}
        if not isinstance(name, str) or name not in _BUILTINS:
            raise ConfigError(f"unknown builtin system {name!r}")
        kind, fn, defaults = _BUILTINS[name]
        _reject_unknown(params, defaults, "system.")
        label = f"system.{name}(" + ", ".join(f"{k}={v!r}" for k, v in params.items())
        system = _checked(label + ")", fn, **{**defaults, **params})
        return kind, system, {"name": name, **params}
    if len(section) == 1 and next(iter(section)) in _SYSTEM_SOURCES:
        (key, value), = section.items()
        kind, load = _SYSTEM_SOURCES[key]
        if key.endswith("_path") and not isinstance(value, str):
            raise ConfigError(f"'system.{key}' must be a path, got {value!r}")
        return kind, _checked(f"system.{key}", load, value), section
    raise ConfigError(
        "'system' must carry 'name', 'map', 'map_path', 'ode' or 'ode_path'")


def parse_config(document: dict) -> ExperimentConfig:
    """Validate a config document, fill defaults, reject unknown keys and
    out-of-domain values, naming the field."""
    _object(document, "config document")
    _reject_unknown(document, ("system", "run", "observe", "output"), "")
    if "system" not in document:
        raise ConfigError("missing required section 'system'")
    kind, system, system_echo = _resolve_system(document["system"])

    run_section = _object(document.get("run", {}), "run")
    _reject_unknown(run_section, _RUN_DEFAULTS, "run.")
    run = {**_RUN_DEFAULTS, **run_section}
    if run["mode"] not in _MODES:
        raise ConfigError(f"'run.mode' must be one of {_MODES}, got {run['mode']!r}")
    for key, value in run.items():
        auto = value == "auto" and key in ("epsilon", "lambda")
        unset = value is None and _RUN_DEFAULTS[key] is None
        if not (key in ("mode", "z0") or unset or auto):
            run[key] = _number(value, f"run.{key}", key in _RUN_INTEGERS,
                               key in _RUN_POSITIVE)
    # p = epsilon^2/2 <= 1/2, as epsilon ||H|| <= 1 and ||H|| >= 1 (row 0).
    if run["epsilon"] != "auto" and not run["epsilon"] <= 1:
        raise ConfigError("'run.epsilon' must be <= 1, as ||H|| >= 1")
    p_max = 0.5 if run["epsilon"] == "auto" else run["epsilon"] ** 2 / 2
    if run["lambda"] != "auto" and not run["lambda"] < p_max:
        raise ConfigError(f"'run.lambda' must be below p = epsilon^2/2 <= {p_max}")
    if run["mode"] == "noise_study":
        for key in ("eta", "trials"):
            if run[key] is None:
                raise ConfigError(f"mode 'noise_study' requires 'run.{key}'")
    if run["z0"] != "seeded":  # else a list of [re, im] pairs, a unit vector
        z0 = _checked("run.z0", pairs_complex, run["z0"])
        if z0.shape != (system.n,):
            raise ConfigError(f"'run.z0' has {len(z0)} entries, system needs {system.n}")
        _checked("run.z0", encode, z0)

    observe_section = document.get("observe")
    if observe_section is not None:
        _reject_unknown(_object(observe_section, "observe"),
                        ("observables", "delta", "alpha"), "observe.")
        if not isinstance(observe_section.get("observables"), list):
            raise ConfigError("'observe.observables' must be a list")
        for i, spec in enumerate(observe_section["observables"]):
            _checked(f"observe.observables[{i}]", _observable, spec, system.n)
        delta, alpha = observe_section.get("delta"), observe_section.get("alpha")
        if delta is not None and alpha is not None:
            _checked("observe", obs_mod.hoeffding_shots, 1.0, delta, alpha)

    output_section = _object(document.get("output", {}), "output")
    _reject_unknown(output_section, _OUTPUT_DEFAULTS, "output.")
    output = {**_OUTPUT_DEFAULTS, **output_section}
    for key, value in output.items():
        if not (isinstance(value, str) or (key == "state_csv" and value is None)):
            raise ConfigError(f"'output.{key}' must be a path, got {value!r}")

    resolved = {"system": system_echo, "run": dict(run),
                "observe": observe_section, "output": dict(output)}
    return ExperimentConfig(kind, system, run, observe_section, output, resolved)


def _prepare_output(output: dict, out_dir: Path) -> None:
    """Create the report directory; refuse report paths that cannot be
    written, or that resolve to one file (the later field is named), before
    anything runs."""
    _checked("output.dir", out_dir.mkdir, parents=True, exist_ok=True)
    written = {}
    for key in ("json", "csv", "state_csv"):
        if output[key] is not None:
            path = out_dir / output[key]
            if (path.is_dir() or not path.parent.is_dir()
                    or not os.access(path.parent, os.W_OK)):
                raise ConfigError(f"'output.{key}': cannot write {path}")
            resolved = path.resolve()
            if resolved in written:
                raise ConfigError(f"'output.{key}': {path} is the file of "
                                  f"'output.{written[resolved]}'")
            written[resolved] = key


# ---------------------------------------------------------------------------
# Execution

# command -> (system kind it needs, None for either; run fields it requires;
# run modes it runs).  A noise study's config may leave run.mode at its
# default.
_COMMANDS = {
    "validate": (None, (), _MODES),
    "plan": (None, ("m",), _MODES),
    "iterate": ("map", ("m",), ("deterministic", "montecarlo")),
    "integrate": ("ode", ("m", "t"), ("deterministic", "montecarlo")),
    "noise-study": ("map", ("m", "eta", "trials"), ("deterministic", "noise_study")),
    "observe": ("map", (), ("deterministic",)),
}
COMMANDS = tuple(_COMMANDS)

# Library parameter names (ParameterError.name) -> the config fields that
# supply them.
_PARAMETER_FIELDS = {"epsilon": "run.epsilon", "lam": "run.lambda", "base": "run.plan_base",
                     "m": "run.m", "trials": "run.trials", "delta": "observe.delta"}


def _check_command(command: str, config: ExperimentConfig) -> None:
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command '{command}'")
    kind, required, modes = _COMMANDS[command]
    if kind not in (None, config.system_kind):
        raise ConfigError(f"'{command}' needs a system of kind '{kind}'")
    if command == "plan" and config.system_kind == "ode":
        required += ("t",)  # the Euler map's step is t/m
    for name in required:
        if config.run[name] is None:
            raise ConfigError(f"'{command}' requires 'run.{name}'")
    if config.run["mode"] not in modes:
        raise ConfigError(f"'run.mode' {config.run['mode']!r} is not run by "
                          f"'{command}', which runs {modes}")
    if command == "observe" and config.observe is None:
        raise ConfigError("'observe' requires an 'observe' section")


def execute(command: str, config: ExperimentConfig, out_dir: Path) -> int:
    """Run a subcommand; writes the JSON report (and CSV for runs) into the
    existing directory out_dir.

    The step operator is built once, before any step: integrate builds it
    (and its plan) inside the run, every other command here.  A parameter
    it or the plan rejects raises ParameterError.
    """
    _check_command(command, config)
    run, system = config.run, config.system
    seed, m = run["seed"], run["m"]
    eps = None if run["epsilon"] == "auto" else run["epsilon"]
    lam = None if run["lambda"] == "auto" else run["lambda"]
    # A real ODE's phase space is real: seed z0 and sample validate there.
    real = config.system_kind == "ode" and system.real_coefficients
    if isinstance(run["z0"], str):
        z0 = random_unit(system.n, rng_stream(seed, 0), real=real)
    else:
        z0 = pairs_complex(run["z0"])
    result: dict = {}
    report = None

    if command == "integrate":
        report = integrate(system, z0, run["t"], m, epsilon=eps,
                           mode=run["mode"], rng=rng_stream(seed, 1),
                           plan_base=run["plan_base"], lam=lam)
        config.resolved["run"]["epsilon"] = report.epsilon
    else:
        # An ODE steps by its Euler map; validate checks one at h = 0.01
        # when t or m is unset.
        h = run["t"] / m if run["t"] and m else 0.01
        pmap = system if config.system_kind == "map" else euler_map(system, h)
        op = make_step_operator(pmap, eps)
        config.resolved["run"]["epsilon"] = op.epsilon
        if command == "plan" or command == "iterate" and run["mode"] == "montecarlo":
            plan = plan_resources(m, op.epsilon, base=run["plan_base"], lam=lam)

    if command == "validate":
        if config.system_kind == "ode":
            preserving, residual = check_ode_measure_preserving(
                system, samples=run["samples"], tol=run["tol"], rng_seed=seed)
            result["ode"] = {"measure_preserving": preserving,
                             "residual": residual, "h": h}
        rep = validate(pmap, run["samples"], rng_seed=seed, real_samples=real)
        result["map"] = {
            "s_row": rep.s_row, "s_col": rep.s_col,
            "a_max_observed": rep.a_max_observed,
            "measure_deviation": rep.measure_deviation,
            "lipschitz_estimate": rep.lipschitz_estimate,
            "h_norm": op.h_norm, "h_norm_bound": op.h_norm_bound,
        }
    elif command == "plan":
        result["plan"] = {
            "m": plan.m, "epsilon": plan.epsilon, "p": plan.p,
            "lambda": plan.lam, "base": plan.base,
            "n0": str(plan.n0), "log10_n0": plan.log10_n0,
            "n0_proof": str(plan.n0_proof),
            "n0_algorithm": str(plan.n0_algorithm),
            "gamma": plan.gamma, "float_exact": plan.float_exact,
        }
    elif command == "iterate":
        if run["mode"] == "montecarlo":
            report = run_montecarlo(op, z0, plan, rng=rng_stream(seed, 1))
        else:
            report = run_deterministic(op, z0, m)
    elif command == "noise-study":
        report = noise_study(op, z0, m, None, NoiseModel(run["eta"], stream=2),
                             run["trials"], rng=seed)
    elif command == "observe":
        if m:
            report = run_deterministic(op, z0, m)
            state = encode(report.iterates[-1] /
                           np.linalg.norm(report.iterates[-1]))
        else:
            state = encode(z0)
        result["observations"] = _observe(config, state, system.n)

    exit_code = 0
    if report is not None:
        result["run"] = report_to_doc(report)
        write_trajectory_csv(report, out_dir / config.output["csv"])
        if config.output["state_csv"]:
            final = report.iterates[-1]
            dump_state_csv(encode(final / np.linalg.norm(final)),
                           out_dir / config.output["state_csv"])
        if not report.success:
            exit_code = 1

    doc = {"schema_version": SCHEMA_VERSION, "command": command,
           "config": config.resolved, "result": result}
    write_report_json(doc, out_dir / config.output["json"])
    return exit_code


def _observe(config: ExperimentConfig, state, n: int) -> list[dict]:
    section = config.observe
    delta, alpha = section.get("delta"), section.get("alpha")
    rng = rng_stream(config.run["seed"], 3)
    out = []
    for spec in section["observables"]:
        kind = spec["kind"]
        ob = _observable(spec, n)
        if ob is None:
            s = obs_mod.fourier_spectrum(decode(state))
            out.append({"kind": kind, "spectrum": complex_pairs(s)})
            continue
        entry = {"kind": kind, "name": ob.name,
                 "expectation": obs_mod.expectation(state, ob),
                 "coordinate_expectation":
                     obs_mod.coordinate_expectation(state, ob)}
        if delta is not None and alpha is not None:
            est, shots = obs_mod.sample_expectation(state, ob, delta, alpha, rng)
            entry |= {"estimate": est, "shots": shots,
                      "delta": delta, "alpha": alpha}
        out.append(entry)
    return out


def _observable(spec, n: int):
    """The observable a spec names on an n-variable system; None for the
    fourier_spectrum readout, which needs none."""
    kind = _object(spec, "observable").get("kind")
    if kind == "fourier_spectrum":
        return None
    if kind == "identity":
        return obs_mod.identity_observable(n)
    if kind == "projector":
        return obs_mod.projector(n, _number(spec["j"], "j", integer=True))
    if kind == "fourier_mode":
        return obs_mod.fourier_mode(n, _number(spec["k"], "k", integer=True))
    if kind == "csv":  # fspath: open() would take an integer for a descriptor
        return obs_mod.load_observable_csv(os.fspath(spec["path"]), n + 1)
    raise ConfigError(f"unknown observable kind {kind!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qeuler",
        description="Config-driven experiments for post-selected polynomial "
                    "amplitude maps and quantum Euler integration.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="JSON config document")
    parser.add_argument("--seed", type=int, default=None,
                        help="override run.seed")
    parser.add_argument("--out", default=None, help="report directory")
    args = parser.parse_args(argv)

    with warnings.catch_warnings():
        # One policy for every command, whatever the interpreter's filters
        warnings.simplefilter("default")
        warnings.showwarning = lambda msg, *_: print(f"warning: {msg}", file=sys.stderr)
        try:
            with open(args.config) as f:
                document = json.load(f)
            config = parse_config(document)
            if args.seed is not None:
                config.run["seed"] = _number(args.seed, "--seed")
                config.resolved["run"]["seed"] = args.seed
            # --out only routes files; report content must not depend on it.
            out_dir = Path(args.out if args.out is not None else config.output["dir"])
            _prepare_output(config.output, out_dir)
            return execute(args.command, config, out_dir)
        except (ConfigError, OSError, json.JSONDecodeError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        except ParameterError as exc:
            field = _PARAMETER_FIELDS.get(exc.name, exc.name)
            print(f"config error: '{field}': {exc}", file=sys.stderr)
            return 2
        except (ArithmeticError, ValueError) as exc:  # ArithmeticError: a blow-up
            print(f"run failed: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    raise SystemExit(main())
