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
import math
import os
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._util import complex_pairs, pairs_complex, rng_stream
from . import observables as obs_mod
from .euler_driver import (NoiseModel, integrate, noise_study, plan_resources,
                           report_to_doc, run_deterministic, run_montecarlo,
                           write_trajectory_csv)
from .nonlin_step import make_step_operator
from .polysys import (OdeSystem, PolynomialMap, check_ode_measure_preserving,
                      euler_map, load_map, load_system, map_from_doc,
                      random_unit, system_from_doc, validate)
from .qstate import decode, dump_state_csv, encode
from .systems import (GraphSpec, discrete_nls, identity_map, lorenz,
                      orszag_mclaughlin, permutation_map, power_map,
                      random_unitary_map)

SCHEMA_VERSION = 1

COMMANDS = ("validate", "plan", "iterate", "integrate", "noise-study", "observe")


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

# Run values other than mode, z0 and "auto" are null or finite numbers >= 0.
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
    if not (0 < value if positive else 0 <= value) or not math.isfinite(value):
        raise ConfigError(f"'{path}' must be a finite number "
                          f"{'>' if positive else '>='} 0, got {value!r}")
    if integer and value != int(value):
        raise ConfigError(f"'{path}' must be an integer")
    return int(value) if integer else value


def _checked(path: str, fn, *args, **kwargs):
    """fn(*args, **kwargs) on config values; what it rejects is a
    configuration error naming `path`."""
    try:
        return fn(*args, **kwargs)
    except KeyError as exc:
        raise ConfigError(f"'{path}' lacks field {exc}") from None
    except (OSError, TypeError, ValueError) as exc:
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
        if not (key in ("mode", "z0") or value is None or auto):
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
    written, before anything runs."""
    _checked("output.dir", out_dir.mkdir, parents=True, exist_ok=True)
    for key in ("json", "csv", "state_csv"):
        if output[key] is not None:
            path = out_dir / output[key]
            if (path.is_dir() or not path.parent.is_dir()
                    or not os.access(path.parent, os.W_OK)):
                raise ConfigError(f"'output.{key}': cannot write {path}")


# ---------------------------------------------------------------------------
# Execution

def _initial_state(config: ExperimentConfig, n: int, real: bool) -> np.ndarray:
    z0 = config.run["z0"]
    if isinstance(z0, str):
        return random_unit(n, rng_stream(config.run["seed"], 0), real=real)
    return pairs_complex(z0)


def _resolve_epsilon(config: ExperimentConfig, pmap: PolynomialMap):
    """Build the step operator, resolving epsilon = auto to 0.9 / norm bound."""
    eps = config.run["epsilon"]
    op = _checked("run.epsilon", make_step_operator, pmap,
                  None if eps == "auto" else float(eps))
    config.resolved["run"]["epsilon"] = op.epsilon
    return op


def _plan(config: ExperimentConfig, epsilon: float):
    """The resource plan, checking the fields that need the resolved epsilon."""
    lam = None if config.run["lambda"] == "auto" else config.run["lambda"]
    p = epsilon * epsilon / 2.0
    if lam is not None and not lam < p:
        raise ConfigError(f"'run.lambda' must be below p = epsilon^2/2 = {p}")
    return _checked("run.plan_base", plan_resources, config.run["m"], epsilon,
                    base=config.run["plan_base"], lam=lam)


def _require(config, command, **fields):
    for name, value in fields.items():
        if value is None:
            raise ConfigError(f"'{command}' requires 'run.{name}'")


def _system(config: ExperimentConfig, command: str, kind: str):
    if config.system_kind != kind:
        raise ConfigError(f"'{command}' needs a system of kind '{kind}'")
    return config.system


def execute(command: str, config: ExperimentConfig, out_dir: Path) -> int:
    """Dispatch a subcommand; writes the JSON report (and CSV for runs) into
    the existing directory out_dir."""
    run = config.run
    seed = run["seed"]
    result: dict = {}
    report = None
    exit_code = 0

    if command == "validate":
        if config.system_kind == "map":
            pmap = config.system
        else:
            h = (run["t"] / run["m"]) if (run["t"] and run["m"]) else 0.01
            pmap = euler_map(config.system, h)
            preserving, residual = check_ode_measure_preserving(
                config.system, samples=run["samples"], tol=run["tol"],
                rng_seed=seed)
            result["ode"] = {"measure_preserving": preserving,
                             "residual": residual, "h": h}
        rep = validate(pmap, run["samples"], rng_seed=seed)
        op = _resolve_epsilon(config, pmap)
        result["map"] = {
            "s_row": rep.s_row, "s_col": rep.s_col,
            "a_max_observed": rep.a_max_observed,
            "measure_deviation": rep.measure_deviation,
            "lipschitz_estimate": rep.lipschitz_estimate,
            "h_norm": op.h_norm, "h_norm_bound": op.h_norm_bound,
        }

    elif command == "plan":
        _require(config, command, m=run["m"])
        if run["epsilon"] == "auto":
            if config.system_kind == "ode":
                _require(config, command, t=run["t"])
                pmap = euler_map(config.system, run["t"] / run["m"])
            else:
                pmap = config.system
            epsilon = _resolve_epsilon(config, pmap).epsilon
        else:
            epsilon = run["epsilon"]
        plan = _plan(config, epsilon)
        result["plan"] = {
            "m": plan.m, "epsilon": plan.epsilon, "p": plan.p,
            "lambda": plan.lam, "base": plan.base,
            "n0": str(plan.n0), "log10_n0": plan.log10_n0,
            "n0_proof": str(plan.n0_proof),
            "n0_algorithm": str(plan.n0_algorithm),
            "gamma": plan.gamma, "float_exact": plan.float_exact,
        }

    elif command == "iterate":
        _require(config, command, m=run["m"])
        pmap = _system(config, command, "map")
        op = _resolve_epsilon(config, pmap)
        z0 = _initial_state(config, pmap.n, real=False)
        if run["mode"] == "montecarlo":
            plan = _plan(config, op.epsilon)
            report = run_montecarlo(op, z0, plan, rng=rng_stream(seed, 1))
        else:
            report = run_deterministic(op, z0, run["m"])

    elif command == "integrate":
        _require(config, command, m=run["m"], t=run["t"])
        sys_obj = _system(config, command, "ode")
        real = sys_obj.real_coefficients
        z0 = _initial_state(config, sys_obj.n, real=real)
        eps = None if run["epsilon"] == "auto" else run["epsilon"]
        lam = None if run["lambda"] == "auto" else run["lambda"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                report = integrate(sys_obj, z0, run["t"], run["m"], epsilon=eps,
                                   mode=run["mode"], rng=rng_stream(seed, 1),
                                   plan_base=run["plan_base"], lam=lam)
            except ValueError:
                # integrate builds the operator and the plan inside the run;
                # only once it has failed are they built again, to name a
                # rejected run.epsilon, run.lambda or run.plan_base.
                op = _resolve_epsilon(config, euler_map(sys_obj, run["t"] / run["m"]))
                if run["mode"] == "montecarlo":
                    _plan(config, op.epsilon)
                raise
        config.resolved["run"]["epsilon"] = report.epsilon

    elif command == "noise-study":
        _require(config, command, m=run["m"], eta=run["eta"], trials=run["trials"])
        pmap = _system(config, command, "map")
        op = _resolve_epsilon(config, pmap)
        z0 = _initial_state(config, pmap.n, real=False)
        report = noise_study(op, z0, run["m"], None,
                             NoiseModel(run["eta"], stream=2), run["trials"],
                             rng=seed)

    elif command == "observe":
        if config.observe is None:
            raise ConfigError("'observe' requires an 'observe' section")
        pmap = _system(config, command, "map")
        op = _resolve_epsilon(config, pmap)
        z0 = _initial_state(config, pmap.n, real=False)
        if run["m"]:
            report = run_deterministic(op, z0, run["m"])
            state = encode(report.iterates[-1] /
                           np.linalg.norm(report.iterates[-1]))
        else:
            state = encode(z0)
        result["observations"] = _observe(config, state, pmap.n)

    else:
        raise ConfigError(f"unknown command '{command}'")

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
    # One-shot dumps without an indent is the only form that runs json's C
    # encoder; json.dump to a file and any indent run the Python one.
    with open(out_dir / config.output["json"], "w") as f:
        f.write(json.dumps(doc, sort_keys=True) + "\n")
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
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)

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
        code = execute(args.command, config, out_dir)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    if args.verbose:
        print(f"{args.command}: exit {code}, reports in {out_dir}")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
