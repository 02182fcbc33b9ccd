"""Property: any config document, well formed or not, gives a clean exit.

`qeuler` exits 0, 1 or 2 on every generated document and never lets an
exception escape main (which would print a traceback).  Documents mix
valid systems and run fields with wrong types, nested garbage, NaN and
infinities, and huge and tiny numbers, over every command and mode; an
explicit example for each command and mode runs a degree-3 map and a
degree-3 ODE.  Counts that set the work of a run (m, trials, samples) stay
small except for `plan`, which may take a huge m; sizes of builtin systems
are never huge.  String values are kept out of output paths and file
references, so a run writes only into its own directory.
"""

import contextlib
import io
import itertools
import json
import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qeuler.cli import COMMANDS, main

MODES = ("deterministic", "montecarlo", "noise_study")

SPECIAL = [math.nan, math.inf, -math.inf, 1e308, 1e-308, 5e-324, -1.0, 0.0]
GARBAGE = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3),
    st.lists(st.integers(-2, 2), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=2),
    st.recursive(st.integers(-2, 2), lambda inner: st.lists(inner, max_size=2),
                 max_leaves=4),
)
NUMBERS = st.one_of(st.floats(), st.sampled_from(SPECIAL), st.integers(-3, 3),
                    st.integers(10 ** 300, 10 ** 400))
VALUES = st.one_of(NUMBERS, GARBAGE)
# Wrong values for builtin sizes (n, k, vertices, ...): never a large integer.
BAD_SIZES = st.sampled_from([None, True, "2", [2], {}, -1, 0, 1.5, 3,
                             math.nan, math.inf, -math.inf])

SYSTEMS = [
    {"name": "power", "k": 2},
    {"name": "power", "k": 3},  # degree 3
    {"name": "identity", "n": 2},
    {"name": "random_unitary", "n": 2, "rng": 3},
    {"name": "orszag_mclaughlin", "n": 5},
    {"name": "lorenz"},
    {"name": "discrete_nls", "vertices": 2, "edges": [[0, 1]], "k": 2},  # degree 3
    {"map": {"n": 1, "degree": 2,
             "entries": [{"alpha": 1, "index": [1, 1], "re": 1.0}]}},
    {"ode": {"n": 1, "degree": 1,
             "entries": [{"alpha": 1, "index": [1], "re": 0.0, "im": 1.0}]}},
]
FLOAT_PARAMS = {"scale", "sigma", "rho", "beta", "nonlinear_scale"}
DEGREE_3 = [SYSTEMS[1], SYSTEMS[6]]  # a map and an ODE

RUN = {"m": 2, "t": 0.01, "epsilon": 0.5, "eta": 1e-4, "trials": 2, "samples": 3}
OBSERVE = {"observables": [{"kind": "identity"}, {"kind": "projector", "j": 1}]}


def _kind(system) -> str:
    ode = {"orszag_mclaughlin", "lorenz", "discrete_nls"}
    return "ode" if "ode" in system or system.get("name") in ode else "map"


@st.composite
def bad_systems(draw):
    """A builtin with one malformed parameter, or garbage."""
    system = dict(draw(st.sampled_from([s for s in SYSTEMS if "name" in s])))
    key = draw(st.sampled_from(["n", "k", "rng", "rotations", "vertices",
                                "edges", "perm", "bogus", *FLOAT_PARAMS]))
    system[key] = draw(NUMBERS if key in FLOAT_PARAMS else BAD_SIZES)
    return draw(st.one_of(st.just(system), GARBAGE))


OBSERVABLE = st.fixed_dictionaries(
    {"kind": st.sampled_from(["identity", "projector", "fourier_mode",
                              "fourier_spectrum", "csv", "bogus"])},
    optional={"j": st.one_of(st.integers(1, 2), BAD_SIZES),
              "k": st.one_of(st.integers(1, 2), BAD_SIZES), "path": BAD_SIZES})
# A tiny delta asks for a huge shot count, drawn in memory O(dim), or past
# int64, refused.
BAD_OBSERVE = st.one_of(GARBAGE, st.fixed_dictionaries(
    {"observables": st.one_of(st.lists(OBSERVABLE, max_size=3), GARBAGE)},
    optional={"delta": st.sampled_from([0.1, 1e-4, 1e-7, 1e-10, 1e-200, -1.0,
                                        math.nan, math.inf, "x"]),
              "alpha": st.one_of(st.floats(), st.sampled_from(SPECIAL))}))
# Never a string: report paths stay in the run's directory.
BAD_OUTPUT = st.one_of(st.integers(), st.fixed_dictionaries({}, optional={
    key: st.one_of(st.none(), st.integers(), st.lists(st.none()))
    for key in ("json", "csv", "state_csv", "dir")}))


@st.composite
def documents(draw):
    """A valid document for a drawn command, mode and system, with nothing,
    one or two run fields, the system, or another section replaced by
    malformed or extreme values."""
    command = draw(st.sampled_from(COMMANDS))
    run = {**RUN, "mode": draw(st.sampled_from(MODES)),
           "m": draw(st.integers(1, 3)),
           "epsilon": draw(st.sampled_from(["auto", 0.3, 0.9]))}
    kind = {"integrate": "ode"}.get(command, "map")
    fitting = [s for s in SYSTEMS if _kind(s) == kind]
    doc = {"system": draw(st.sampled_from(fitting * 2 + SYSTEMS)), "run": run,
           "observe": OBSERVE}
    site = draw(st.sampled_from(["none", "run", "run", "system", "observe",
                                 "output"]))
    if site == "run":
        # m, trials and samples set a run's work: only plan takes a huge m.
        bad = {"mode": GARBAGE, "trials": BAD_SIZES, "samples": BAD_SIZES,
               "m": st.one_of(BAD_SIZES, NUMBERS) if command == "plan" else BAD_SIZES,
               "z0": st.one_of(GARBAGE, st.lists(st.tuples(NUMBERS, NUMBERS),
                                                 max_size=3)),
               **{key: VALUES for key in ("t", "epsilon", "lambda", "plan_base",
                                          "seed", "eta", "tol", "bogus")}}
        for key in draw(st.lists(st.sampled_from(sorted(bad)), min_size=1,
                                 max_size=2, unique=True)):
            run[key] = draw(bad[key])
    elif site == "system":
        doc["system"] = draw(bad_systems())
    elif site == "observe":
        doc["observe"] = draw(BAD_OBSERVE)
    elif site == "output":
        doc["output"] = draw(BAD_OUTPUT)
    return command, doc


def every_command_and_mode(test):
    """Add one explicit example per command x mode x degree-3 system."""
    for command, mode, system in itertools.product(COMMANDS, MODES, DEGREE_3):
        doc = {"system": system, "run": {**RUN, "mode": mode}, "observe": OBSERVE}
        test = example((command, doc))(test)
    return test


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@every_command_and_mode
@given(documents())
def test_any_config_exits_cleanly(case):
    command, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", str(cfg), "--out", str(Path(tmp) / "out")])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
