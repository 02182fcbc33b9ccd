import json
import math
import warnings
from pathlib import Path

import pytest

from qeuler import cli, euler_driver, hoeffding_shots
from qeuler.cli import ConfigError, main, parse_config


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_report(out_dir, name="report.json"):
    with open(out_dir / name) as f:
        return json.load(f)


# --- parsing ------------------------------------------------------------------

def test_minimal_config_fills_defaults():
    config = parse_config({"system": {"name": "orszag_mclaughlin", "n": 5},
                           "run": {"mode": "deterministic", "m": 10}})
    assert config.system_kind == "ode"
    assert config.run["epsilon"] == "auto"
    assert config.run["seed"] == 0
    assert config.run["plan_base"] == 16.0
    assert config.output["json"] == "report.json"


def test_system_as_plain_string():
    config = parse_config({"system": "lorenz"})
    assert config.system_kind == "ode" and config.system.n == 3


def test_unknown_key_named_in_error():
    with pytest.raises(ConfigError, match="run.epsilonn"):
        parse_config({"system": "lorenz", "run": {"epsilonn": 0.1}})
    with pytest.raises(ConfigError, match="system.sigmaa"):
        parse_config({"system": {"name": "lorenz", "sigmaa": 1.0}})


def test_mode_requirements():
    with pytest.raises(ConfigError, match="noise_study"):
        parse_config({"system": "lorenz", "run": {"mode": "noise_study"}})
    with pytest.raises(ConfigError, match="mode"):
        parse_config({"system": "lorenz", "run": {"mode": "bogus"}})


def test_inline_map_document():
    doc = {"n": 1, "degree": 2,
           "entries": [{"alpha": 1, "index": [1, 1], "re": 1.0, "im": 0.0}]}
    config = parse_config({"system": {"map": doc}})
    assert config.system_kind == "map" and config.system.degree == 2


# --- subcommands -----------------------------------------------------------------

def test_plan_run_emits_resource_plan(tmp_path):
    cfg = write_config(tmp_path, {
        "system": {"name": "power", "k": 2},
        "run": {"m": 2, "epsilon": 0.3},
    })
    out = tmp_path / "out"
    assert main(["plan", "--config", cfg, "--out", str(out)]) == 0
    plan = read_report(out)["result"]["plan"]
    assert plan["n0"] == "126420"
    assert plan["p"] == pytest.approx(0.045)


def test_integrate_csv_header_contract(tmp_path):
    cfg = write_config(tmp_path, {
        "system": {"name": "orszag_mclaughlin", "n": 5},
        "run": {"mode": "deterministic", "m": 5, "t": 0.05, "seed": 1},
        "output": {"csv": "traj.csv", "state_csv": "state.csv"},
    })
    out = tmp_path / "out"
    assert main(["integrate", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "traj.csv").read_text().splitlines()
    assert lines[0] == ("step,t," +
                        ",".join(f"re_z{j},im_z{j}" for j in range(1, 6)) +
                        ",probability,norm_factor")
    assert len(lines) == 7
    assert (out / "state.csv").exists()
    report = read_report(out)
    assert report["schema_version"] == 1
    assert report["config"]["run"]["m"] == 5
    assert report["config"]["run"]["epsilon"] != "auto"  # resolved value embedded


def test_montecarlo_failure_exits_one_with_partial_report(tmp_path):
    cfg = write_config(tmp_path, {
        "system": {"name": "identity", "n": 2},
        "run": {"mode": "montecarlo", "m": 3, "epsilon": 0.316227766016838,
                "plan_base": 0.1, "seed": 5},
    })
    out = tmp_path / "out"
    assert main(["iterate", "--config", cfg, "--out", str(out)]) == 1
    report = read_report(out)
    assert report["result"]["run"]["success"] is False
    assert report["result"]["run"]["failure_round"] >= 1
    assert (out / "trajectory.csv").exists()


def _two_runs(tmp_path, command, doc) -> list[bytes]:
    """JSON report + trajectory CSV bytes of two runs of one config."""
    cfg = write_config(tmp_path, doc)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        outs.append((out / "report.json").read_bytes()
                    + (out / "trajectory.csv").read_bytes())
    return outs


def test_byte_identical_reports(tmp_path):
    outs = _two_runs(tmp_path, "iterate", {
        "system": {"name": "random_unitary", "n": 3, "rng": 7},
        "run": {"mode": "montecarlo", "m": 2, "epsilon": 0.9, "seed": 11},
    })
    assert outs[0] == outs[1]


def test_byte_identical_noise_study_reports(tmp_path):
    outs = _two_runs(tmp_path, "noise-study", {
        "system": {"name": "random_unitary", "n": 3, "rng": 7},
        "run": {"mode": "noise_study", "m": 3, "epsilon": 0.8, "eta": 1e-4,
                "trials": 4, "seed": 11},
    })
    assert outs[0] == outs[1]
    assert max(read_report(tmp_path / "a")["result"]["run"]["delta_final"]) > 0


def test_seed_override_changes_results(tmp_path):
    cfg = write_config(tmp_path, {
        "system": {"name": "random_unitary", "n": 3, "rng": 7},
        "run": {"mode": "montecarlo", "m": 2, "epsilon": 0.9, "seed": 11},
    })
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    main(["iterate", "--config", cfg, "--out", str(out1), "--seed", "99"])
    main(["iterate", "--config", cfg, "--out", str(out2), "--seed", "100"])
    a = read_report(out1)
    b = read_report(out2)
    assert a["config"]["run"]["seed"] == 99
    assert a["result"]["run"]["successes"] != b["result"]["run"]["successes"]


def test_bad_config_exits_two(tmp_path):
    cfg = write_config(tmp_path, {"system": "lorenz", "run": {"oops": 1}})
    assert main(["plan", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert main(["plan", "--config", str(tmp_path / "missing.json")]) == 2


def test_kind_mismatch_exits_two(tmp_path):
    cfg = write_config(tmp_path, {"system": "lorenz", "run": {"m": 3}})
    assert main(["iterate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("eta", [1e-9, 1e-12])
def test_noise_study_holds_at_tiny_eta(tmp_path, eta):
    # The CI noise config at small eta.  A distance read through
    # sqrt(||a||^2 + ||b||^2 - 2 |<a, b>|) bottomed out at 1.5e-8 and broke
    # the recurrence check at step 1 or 2 on most seeds.
    cfg = write_config(tmp_path, {
        "system": {"name": "random_unitary", "n": 3, "rng": 7},
        "run": {"mode": "noise_study", "m": 3, "epsilon": 0.8, "eta": eta,
                "trials": 10},
    })
    for seed in range(1, 21):
        out = tmp_path / f"seed{seed}"
        assert main(["noise-study", "--config", cfg, "--out", str(out),
                     "--seed", str(seed)]) == 0
        run = read_report(out)["result"]["run"]
        assert all(0 < d <= run["delta_bound"] for d in run["delta_final"])


def test_noise_study_subcommand(tmp_path):
    cfg = write_config(tmp_path, {
        "system": {"name": "random_unitary", "n": 2, "rng": 3},
        "run": {"mode": "noise_study", "m": 2, "epsilon": 0.8,
                "eta": 1e-5, "trials": 5, "seed": 2},
    })
    out = tmp_path / "out"
    assert main(["noise-study", "--config", cfg, "--out", str(out)]) == 0
    report = read_report(out)
    run = report["result"]["run"]
    assert len(run["delta_final"]) == 5
    assert max(run["delta_final"]) <= run["delta_bound"]
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0].endswith("delta_observed,delta_bound")


def test_long_noise_study_runs_past_the_float_range_of_its_bound(tmp_path, capsys):
    # (3 gamma)^(m+1) passes the float range from m ~ 250 at epsilon = 0.5:
    # the bound is inf, which the one warning calls vacuous
    cfg = write_config(tmp_path, {
        "system": {"name": "identity", "n": 2},
        "run": {"mode": "noise_study", "m": 400, "epsilon": 0.5, "eta": 1e-5,
                "trials": 1},
    })
    out = tmp_path / "out"
    assert main(["noise-study", "--config", cfg, "--out", str(out)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "the accumulated-error bound is vacuous" in err[0]
    run = read_report(out)["result"]["run"]
    assert run["delta_bound"] == math.inf
    assert 0 < max(run["delta_final"]) < 1


def test_validate_subcommand_on_ode(tmp_path):
    cfg = write_config(tmp_path, {
        "system": {"name": "orszag_mclaughlin", "n": 5},
        "run": {"t": 0.1, "m": 10, "samples": 30, "seed": 4},
    })
    out = tmp_path / "out"
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 0
    result = read_report(out)["result"]
    assert result["ode"]["measure_preserving"] is True
    assert result["map"]["s_row"] == 8  # 1 linear + 3 quadratic, ordered slots
    # sampled on real vectors, as the ode block is: O(h^2) at h = 0.01, where
    # complex vectors would give O(h)
    assert result["map"]["measure_deviation"] < 1e-3
    assert result["map"]["h_norm"] <= result["map"]["h_norm_bound"]


def test_observe_subcommand(tmp_path):
    cfg = write_config(tmp_path, {
        "system": {"name": "power", "k": 2},
        "run": {"m": 2, "epsilon": 0.5, "seed": 6},
        "observe": {"observables": [{"kind": "identity"},
                                    {"kind": "projector", "j": 1},
                                    {"kind": "fourier_spectrum"}],
                    "delta": 0.05, "alpha": 0.05},
    })
    out = tmp_path / "out"
    assert main(["observe", "--config", cfg, "--out", str(out)]) == 0
    obs = read_report(out)["result"]["observations"]
    assert obs[0]["expectation"] == pytest.approx(1.0, abs=1e-12)
    assert obs[0]["shots"] == 738
    assert obs[1]["coordinate_expectation"] == pytest.approx(1.0, abs=1e-10)
    assert len(obs[2]["spectrum"]) == 1


def test_explicit_z0(tmp_path):
    cfg = write_config(tmp_path, {
        "system": {"name": "identity", "n": 2},
        "run": {"mode": "deterministic", "m": 1, "epsilon": 0.5,
                "z0": [[0.6, 0.0], [0.8, 0.0]]},
    })
    out = tmp_path / "out"
    assert main(["iterate", "--config", cfg, "--out", str(out)]) == 0
    run = read_report(out)["result"]["run"]
    assert run["iterates"][1][0] == pytest.approx([0.6, 0.0])
    assert run["iterates"][1][1] == pytest.approx([0.8, 0.0])


# --- report files: golden CSV bytes, one-line JSON, JSON/CSV agreement ------------

GOLDEN = Path(__file__).parent / "golden"

# One run per trajectory-CSV layout.  The golden files were written by the
# per-row writer the vectorised one replaced.  The Monte-Carlo run fails in
# round 3 with no survivor, so it has one probability and one copy count more
# than the CSV has rows.
REPORT_RUNS = [
    pytest.param("integrate", {
        "system": {"name": "orszag_mclaughlin", "n": 5},
        "run": {"mode": "deterministic", "m": 20, "t": 0.125, "seed": 1},
    }, 0, "trajectory_integrate.csv", id="integrate"),
    pytest.param("iterate", {
        "system": {"name": "identity", "n": 2},
        "run": {"mode": "montecarlo", "m": 3, "epsilon": 0.316227766016838,
                "plan_base": 0.8, "seed": 0},
    }, 1, "trajectory_iterate.csv", id="iterate-montecarlo-failure"),
    pytest.param("noise-study", {
        "system": {"name": "random_unitary", "n": 3, "rng": 7},
        "run": {"mode": "noise_study", "m": 3, "epsilon": 0.8, "eta": 1e-4,
                "trials": 4, "seed": 11},
    }, 0, "trajectory_noise_study.csv", id="noise-study"),
]


def _report_run(tmp_path, command, doc, code):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, doc)
    assert main([command, "--config", cfg, "--out", str(out)]) == code
    return out


@pytest.mark.parametrize("command, doc, code, golden", REPORT_RUNS)
def test_trajectory_csv_golden_bytes(tmp_path, command, doc, code, golden):
    out = _report_run(tmp_path, command, doc, code)
    assert (out / "trajectory.csv").read_bytes() == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize("command, doc, code, golden", REPORT_RUNS)
def test_json_report_agrees_with_csv(tmp_path, command, doc, code, golden):
    out = _report_run(tmp_path, command, doc, code)
    text = (out / "report.json").read_text()
    report = json.loads(text)
    # one line, keys sorted, default separators
    assert text == json.dumps(report, sort_keys=True) + "\n"
    run = report["result"]["run"]
    assert isinstance(run["epsilon"], float)
    lines = (out / "trajectory.csv").read_text().splitlines()
    header, *rows = [line.split(",") for line in lines]
    iterates, probabilities = run["iterates"], run["probabilities"]
    assert len(iterates) == len(rows)
    if run["success"]:
        assert len(iterates) == doc["run"]["m"] + 1
    else:  # a failed round leaves no iterate when no copy survives it
        assert len(probabilities) in (len(rows), len(rows) - 1)
    coords = slice(2, header.index("probability"))
    for j, (z, cells) in enumerate(zip(iterates, rows)):
        assert all(len(pair) == 2 for pair in z)
        assert [c for pair in z for c in pair] == [float(c) for c in cells[coords]]
        p_cell = cells[coords.stop]
        if j == 0:
            assert p_cell == ""
        else:
            assert probabilities[j - 1] == float(p_cell)


# The exact result.run keys of each report type: a key that goes missing, or
# a field that reappears as null, changes the set.
CORE_KEYS = {"epsilon", "gamma", "image_norms", "iterates", "m", "meta", "mode",
             "norm_factors", "probabilities", "success"}
MONTECARLO_KEYS = CORE_KEYS | {"copy_counts", "flagged_rounds", "successes"}

# The last three cases reuse the golden runs' (command, doc, code).

@pytest.mark.parametrize("command, doc, code, keys", [
    pytest.param("iterate", {
        "system": {"name": "identity", "n": 2},
        "run": {"mode": "deterministic", "m": 2, "epsilon": 0.5},
    }, 0, CORE_KEYS, id="iterate-deterministic"),
    pytest.param("iterate", {
        "system": {"name": "random_unitary", "n": 3, "rng": 7},
        "run": {"mode": "montecarlo", "m": 2, "epsilon": 0.9, "seed": 11},
    }, 0, MONTECARLO_KEYS, id="iterate-montecarlo"),
    pytest.param(*REPORT_RUNS[1].values[:3], MONTECARLO_KEYS | {"failure_round"},
                 id="iterate-montecarlo-failure"),
    pytest.param(*REPORT_RUNS[0].values[:3], CORE_KEYS | {"times"}, id="integrate"),
    pytest.param(*REPORT_RUNS[2].values[:3],
                 CORE_KEYS | {"eta", "delta_steps", "delta_final", "delta_bound"},
                 id="noise-study"),
])
def test_report_run_keys_per_mode(tmp_path, command, doc, code, keys):
    run = read_report(_report_run(tmp_path, command, doc, code))["result"]["run"]
    assert set(run) == keys
    assert None not in run.values()


@pytest.mark.parametrize("command, doc, message", [
    pytest.param("noise-study", {
        "system": {"name": "identity", "n": 2},
        "run": {"mode": "noise_study", "m": 8, "eta": 0.01, "trials": 1,
                "epsilon": 0.5},
    }, "the accumulated-error bound is vacuous", id="noise-study"),
    pytest.param("integrate", {"system": "lorenz", "run": {"m": 5, "t": 0.01}},
                 "system is not measure preserving", id="lorenz-integrate"),
])
def test_warning_prints_one_stderr_line(tmp_path, capsys, command, doc, message):
    # warnings raise here, so one that bypassed the CLI's warning policy
    # would escape main()
    cfg = write_config(tmp_path, doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("warning: ") and message in err[0]


# --- malformed configs exit 2 and name the field ------------------------------------

OM5 = {"name": "orszag_mclaughlin", "n": 5}
POWER2 = {"name": "power", "k": 2}
IDENTITY2 = {"name": "identity", "n": 2}
# a 2 x 2 observable with an entry at row 5
OUT_OF_RANGE_CSV = str(Path(__file__).parent / "data" / "observable_out_of_range.csv")
# a data line of two fields, 0,0
SHORT_LINE_CSV = str(Path(__file__).parent / "data" / "observable_short_line.csv")
NO_DEGREE_MAP = {"n": 1, "entries": [{"alpha": 1, "index": [1, 1], "re": 1.0}]}
# h * entry * multiplicity = 1.0 * 1e308 * 2 overflows in the Euler map
OVERFLOWING_ODE = {"n": 1, "degree": 2,
                   "entries": [{"alpha": 1, "index": [0, 1], "re": 1e308}]}


def _case(case_id, command, system, run, field, **sections):
    return pytest.param(command, {"system": system, "run": run, **sections},
                        field, id=case_id)


MALFORMED = [
    _case("nls_vertices", "integrate", {"name": "discrete_nls", "vertices": "x"},
          {"m": 2, "t": 0.01}, "vertices"),
    _case("om_n", "integrate", {"name": "orszag_mclaughlin", "n": 3},
          {"m": 2, "t": 0.01}, "n=3"),
    _case("power_k", "iterate", {"name": "power", "k": 1}, {"m": 2}, "k=1"),
    _case("map_without_degree", "iterate", {"map": NO_DEGREE_MAP}, {"m": 2},
          "degree"),
    _case("map_not_object", "iterate", {"map": 3}, {"m": 2}, "system.map"),
    _case("output_not_object", "iterate", POWER2, {"m": 2}, "'output'",
          output=3),
    _case("observe_not_object", "observe", POWER2, {}, "'observe'", observe=3),
    _case("projector_without_j", "observe", POWER2, {}, "'j'",
          observe={"observables": [{"kind": "projector"}]}),
    _case("z0_not_pairs", "iterate", POWER2, {"m": 2, "z0": [1, 2, 3, 4, 5]},
          "run.z0"),
    _case("z0_not_unit", "iterate", POWER2, {"m": 2, "z0": [[0.5, 0.0]]},
          "run.z0"),
    _case("epsilon_zero", "iterate", POWER2, {"m": 2, "epsilon": 0},
          "run.epsilon"),
    _case("epsilon_nan", "iterate", POWER2, {"m": 2, "epsilon": math.nan},
          "run.epsilon"),
    _case("m_zero", "iterate", POWER2, {"m": 0}, "run.m"),
    _case("t_negative", "integrate", OM5, {"m": 2, "t": -1}, "run.t"),
    _case("trials_zero", "noise-study", POWER2,
          {"mode": "noise_study", "m": 2, "eta": 1e-5, "trials": 0},
          "run.trials"),
    _case("eta_negative", "noise-study", POWER2,
          {"mode": "noise_study", "m": 2, "eta": -1, "trials": 2}, "run.eta"),
    _case("samples_zero", "validate", POWER2, {"samples": 0}, "run.samples"),
    _case("seed_negative", "iterate", POWER2, {"m": 2, "seed": -1},
          "run.seed"),
    _case("lambda_above_p", "iterate", POWER2,
          {"mode": "montecarlo", "m": 2, "lambda": 0.9}, "run.lambda"),
    _case("plan_base_negative", "plan", POWER2,
          {"m": 2, "epsilon": 0.5, "plan_base": -1}, "run.plan_base"),
    _case("output_unwritable", "iterate", POWER2, {"m": 2}, "output.json",
          output={"json": "no_such_dir/report.json"}),
    _case("output_paths_collide", "iterate", POWER2, {"m": 2}, "'output.state_csv'",
          output={"state_csv": "./report.json"}),
    _case("lambda_above_resolved_p", "iterate", POWER2,
          {"mode": "montecarlo", "m": 2, "lambda": 0.3}, "run.lambda"),
    _case("plan_base_below_2p", "iterate", POWER2,
          {"mode": "montecarlo", "m": 2, "plan_base": 0.001}, "run.plan_base"),
    _case("plan_base_below_2p_plan", "plan", POWER2,
          {"m": 2, "plan_base": 0.001}, "run.plan_base"),
    _case("epsilon_above_inverse_norm", "iterate",
          {"name": "random_unitary", "n": 3, "scale": 2}, {"m": 2, "epsilon": 0.9},
          "run.epsilon"),
    _case("epsilon_above_one", "plan", POWER2, {"m": 2, "epsilon": 1.2},
          "run.epsilon"),
    _case("nls_vertices_fraction", "validate",
          {"name": "discrete_nls", "vertices": 2.9}, {}, "vertices"),
    _case("nls_k_fraction", "validate", {"name": "discrete_nls", "k": 2.5}, {},
          "'k'"),
    _case("nls_edge_fraction", "validate",
          {"name": "discrete_nls", "edges": [[0, 1.5]]}, {}, "edges"),
    _case("projector_j_fraction", "observe", POWER2, {}, "'j'",
          observe={"observables": [{"kind": "projector", "j": 1.7}]}),
    _case("fourier_mode_k_fraction", "observe", POWER2, {}, "'k'",
          observe={"observables": [{"kind": "fourier_mode", "k": 1.5}]}),
    _case("integrate_lambda_above_resolved_p", "integrate", OM5,
          {"mode": "montecarlo", "m": 2, "t": 0.01, "lambda": 0.3}, "run.lambda"),
    _case("integrate_plan_base_below_2p", "integrate", OM5,
          {"mode": "montecarlo", "m": 2, "t": 0.01, "plan_base": 1e-6},
          "run.plan_base"),
    _case("integrate_epsilon_above_inverse_norm", "integrate", "lorenz",
          {"t": 0.2, "m": 2, "epsilon": 0.9}, "run.epsilon"),
    _case("map_n_fraction", "iterate", {"map": {**NO_DEGREE_MAP, "n": 1.5,
                                                "degree": 2}}, {"m": 2}, "'n'"),
    _case("map_degree_fraction", "iterate",
          {"map": {**NO_DEGREE_MAP, "degree": 2.5}}, {"m": 2}, "'degree'"),
    _case("map_alpha_fraction", "iterate",
          {"map": {"n": 1, "degree": 2,
                   "entries": [{"alpha": 1.5, "index": [1, 1], "re": 1.0}]}},
          {"m": 2}, "entries[0].alpha"),
    _case("map_index_fraction", "iterate",
          {"map": {"n": 1, "degree": 2,
                   "entries": [{"alpha": 1, "index": [1, 1.9], "re": 1.0}]}},
          {"m": 2}, "entries[0].index"),
    _case("ode_degree_fraction", "integrate",
          {"ode": {"n": 1, "degree": 1.5,
                   "entries": [{"alpha": 1, "index": [1], "re": 1.0}]}},
          {"m": 2, "t": 0.01}, "'degree'"),
    _case("iterate_noise_study_mode", "iterate", POWER2,
          {"mode": "noise_study", "m": 2, "eta": 1e-5, "trials": 2}, "run.mode"),
    _case("integrate_noise_study_mode", "integrate", OM5,
          {"mode": "noise_study", "m": 2, "t": 0.01, "eta": 1e-5, "trials": 2},
          "run.mode"),
    _case("noise_study_montecarlo_mode", "noise-study", POWER2,
          {"mode": "montecarlo", "m": 2, "eta": 1e-5, "trials": 2}, "run.mode"),
    _case("plan_m_past_digit_bound", "plan", POWER2, {"m": 2100, "epsilon": 0.5},
          "run.m"),
    _case("plan_m_million", "plan", POWER2, {"m": 10 ** 6, "epsilon": 0.5},
          "run.m"),
    _case("montecarlo_m_past_digit_bound", "iterate", POWER2,
          {"mode": "montecarlo", "m": 3000, "epsilon": 0.5}, "run.m"),
    _case("montecarlo_m_past_copy_range", "iterate", POWER2,
          {"mode": "montecarlo", "m": 40, "epsilon": 0.5}, "run.m"),
    _case("map_entry_infinite", "iterate",
          {"map": {"n": 1, "degree": 2,
                   "entries": [{"alpha": 1, "index": [1, 1], "re": math.inf}]}},
          {"m": 2}, "system.map"),
    _case("gram_overflow", "iterate", {"name": "random_unitary", "n": 2, "scale": 1e300},
          {"m": 2}, "'system'"),
    _case("operator_keys_past_int64", "iterate",
          {"map": {"n": 130, "degree": 8,
                   "entries": [{"alpha": 130, "index": [1] * 8, "re": 1.0}]}},
          {"m": 2}, "'system'"),
    _case("euler_map_overflow", "integrate", {"ode": OVERFLOWING_ODE},
          {"m": 1, "t": 1.0}, "'system'"),
    _case("noise_study_degree_five", "noise-study", {"name": "power", "k": 5},
          {"mode": "noise_study", "m": 2, "eta": 1e-5, "trials": 2}, "'system'"),
    _case("degree_past_cap", "iterate", {"name": "power", "k": 9}, {"m": 2},
          "'system'"),
    # numpy refuses the orbit's 42.6 PiB at once, so nothing is allocated
    _case("iterate_m_past_memory", "iterate", IDENTITY2, {"m": 10 ** 15}, "run.m"),
    _case("integrate_m_past_memory", "integrate", OM5, {"m": 10 ** 15, "t": 0.01},
          "run.m"),
    _case("noise_study_m_past_memory", "noise-study", IDENTITY2,
          {"mode": "noise_study", "m": 10 ** 15, "eta": 1e-5, "trials": 1,
           "epsilon": 0.5}, "run.m"),
    # numpy refuses the study's (10^15, 3) deltas at once, before any draw
    _case("noise_study_trials_past_memory", "noise-study", IDENTITY2,
          {"mode": "noise_study", "m": 3, "eta": 1e-5, "trials": 10 ** 15,
           "epsilon": 0.5}, "run.trials"),
    _case("observe_delta_past_int64_shots", "observe", POWER2, {}, "observe.delta",
          observe={"observables": [{"kind": "identity"}], "delta": 1e-10,
                   "alpha": 0.05}),
    _case("observe_csv_index_out_of_range", "observe", POWER2, {},
          "observe.observables[0]",
          observe={"observables": [{"kind": "csv", "path": OUT_OF_RANGE_CSV}]}),
    _case("observe_csv_short_line", "observe", POWER2, {},
          "observe.observables[1]",
          observe={"observables": [{"kind": "identity"},
                                   {"kind": "csv", "path": SHORT_LINE_CSV}]}),
]


@pytest.mark.parametrize("command, doc, field", MALFORMED)
def test_malformed_config_exits_two_naming_field(tmp_path, capsys, command,
                                                 doc, field):
    # An exception escaping main() would fail the test before the asserts.
    cfg = write_config(tmp_path, doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert field in err
    assert "Traceback" not in err


def test_euler_map_overflow_prints_the_config_error_alone(tmp_path, capsys):
    # warnings raise here, so numpy's overflow warning would escape main()
    cfg = write_config(tmp_path, {"system": {"ode": OVERFLOWING_ODE},
                                  "run": {"m": 1, "t": 1.0}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["integrate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: 'system': non-finite entry (inf+0j) for row 1, multi-index "
        "(0, 1): h * entry * multiplicity overflows"]


def test_non_finite_z0_prints_the_config_error_alone(tmp_path, capsys):
    # encode refuses inf before multiplying it, where inf * 0j warned
    cfg = write_config(tmp_path, {"system": IDENTITY2, "run": {
        "m": 2, "epsilon": 0.5, "z0": [[math.inf, 0.0], [0.0, 0.0]]}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["iterate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: 'run.z0': z has a non-finite entry"]


def test_gram_overflow_prints_the_config_error_alone(tmp_path, capsys):
    # warnings raise here, so any numpy overflow warning on the way out would
    # escape main() instead of reaching stderr
    cfg = write_config(tmp_path, {"system": {"name": "random_unitary", "n": 2,
                                             "scale": 1e300}, "run": {"m": 2}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["iterate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: 'system': ||H|| is not finite: the map's entries overflow "
        "the Gram matrix B B^dag"]


@pytest.mark.parametrize("output, later", [
    ({"json": "out.txt", "csv": "out.txt"}, "csv"),
    ({"csv": "sub/../trajectory.csv", "state_csv": "trajectory.csv"}, "state_csv"),
    ({"json": "report.json", "state_csv": "report.json"}, "state_csv"),
], ids=["json_csv", "csv_state_csv", "json_state_csv"])
def test_colliding_output_paths_exit_two_naming_the_later_field(tmp_path, capsys,
                                                               output, later):
    # one file would keep only the last report written to it
    (tmp_path / "out" / "sub").mkdir(parents=True)
    cfg = write_config(tmp_path, {"system": OM5, "run": {"m": 2, "t": 0.01},
                                  "output": output})
    assert main(["integrate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"'output.{later}'" in err and "Traceback" not in err
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["sub"]


def test_config_strings_equal_to_the_json_marker_leave_the_report_intact(tmp_path):
    # write_report_json writes each float array of the run as this string
    # first; here a config value equals it and another path ends in it
    marker = euler_driver._MARKER
    observable = tmp_path / marker
    observable.write_text("row,col,re,im\n0,0,1.0,0.0\n1,1,0.5,0.0\n")
    cfg = write_config(tmp_path, {
        "system": POWER2, "run": {"m": 3, "epsilon": 0.5},
        "observe": {"observables": [{"kind": "csv", "path": str(observable)}]},
        "output": {"csv": marker}})
    out = tmp_path / "out"
    assert main(["observe", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "report.json").read_text()
    report = json.loads(text)
    assert text == json.dumps(report, sort_keys=True) + "\n"
    assert report["config"]["output"]["csv"] == marker
    assert report["config"]["observe"]["observables"][0]["path"] == str(observable)
    run = report["result"]["run"]
    assert len(run["iterates"]) == 4 and len(run["probabilities"]) == 3
    rows = [line.split(",") for line in (out / marker).read_text().splitlines()[1:]]
    assert [[float(c) for c in row[2:4]] for row in rows] == [z[0] for z in run["iterates"]]


def test_seed_override_must_be_non_negative(tmp_path, capsys):
    cfg = write_config(tmp_path, {"system": POWER2, "run": {"m": 1}})
    assert main(["iterate", "--config", cfg, "--seed", "-1"]) == 2
    assert "--seed" in capsys.readouterr().err


def test_validate_tol_decides_measure_preservation(tmp_path):
    results = []
    for tol in (1e-9, 1e9):
        cfg = write_config(tmp_path, {"system": "lorenz",
                                      "run": {"samples": 20, "tol": tol}})
        out = tmp_path / f"tol{tol}"
        assert main(["validate", "--config", cfg, "--out", str(out)]) == 0
        results.append(read_report(out)["result"]["ode"])
    assert results[0]["measure_preserving"] is False
    assert results[1]["measure_preserving"] is True
    assert results[0]["residual"] == results[1]["residual"] > 1e-9


def test_noise_study_runs_without_run_mode(tmp_path):
    cfg = write_config(tmp_path, {
        "system": {"name": "random_unitary", "n": 2, "rng": 3},
        "run": {"m": 2, "epsilon": 0.8, "eta": 1e-5, "trials": 2, "seed": 2},
    })
    out = tmp_path / "out"
    assert main(["noise-study", "--config", cfg, "--out", str(out)]) == 0
    assert len(read_report(out)["result"]["run"]["delta_final"]) == 2


def _spy(monkeypatch, module, name, calls):
    """Replace module.name by a pass-through that appends name to calls."""
    fn = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)
    monkeypatch.setattr(module, name, spy)


@pytest.mark.parametrize("system, run, code", [
    (OM5, {"m": 2, "t": 0.01}, 0),
    ("lorenz", {"m": 2, "t": 0.2, "epsilon": 0.9}, 2),
    (OM5, {"mode": "montecarlo", "m": 2, "t": 0.01, "lambda": 0.3}, 2),
    (OM5, {"mode": "montecarlo", "m": 2, "t": 0.01, "plan_base": 1e-6}, 2),
], ids=["accepted", "epsilon_rejected", "lambda_rejected", "plan_base_rejected"])
def test_integrate_builds_the_operator_once(tmp_path, monkeypatch, system,
                                             run, code):
    calls = []
    _spy(monkeypatch, euler_driver, "make_step_operator", calls)
    _spy(monkeypatch, cli, "make_step_operator", calls)
    cfg = write_config(tmp_path, {"system": system, "run": run})
    assert main(["integrate", "--config", cfg, "--out", str(tmp_path / "out")]) == code
    assert calls == ["make_step_operator"]


def test_main_reaches_the_run_and_report_through_cli_attributes(tmp_path,
                                                               monkeypatch):
    # The benchmark tracer patches these module attributes; a reference
    # taken at import would bypass them.
    calls = []
    for name in ("integrate", "report_to_doc", "write_trajectory_csv"):
        _spy(monkeypatch, cli, name, calls)
    cfg = write_config(tmp_path, {"system": OM5, "run": {"m": 2, "t": 0.01}})
    assert main(["integrate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert calls == ["integrate", "report_to_doc", "write_trajectory_csv"]


def test_observe_draws_a_huge_shot_budget_in_bounded_memory(tmp_path):
    # 1.8e14 shots, drawn as one count per eigenvalue
    cfg = write_config(tmp_path, {
        "system": POWER2, "run": {"m": 1, "epsilon": 0.5, "seed": 4},
        "observe": {"observables": [{"kind": "identity"}, {"kind": "projector", "j": 1}],
                    "delta": 1e-7, "alpha": 0.05},
    })
    out = tmp_path / "out"
    assert main(["observe", "--config", cfg, "--out", str(out)]) == 0
    identity, proj = read_report(out)["result"]["observations"]
    assert identity["shots"] == proj["shots"] == hoeffding_shots(1.0, 1e-7, 0.05)
    assert identity["estimate"] == 1.0
    assert abs(proj["estimate"] - proj["expectation"]) <= 1e-7
