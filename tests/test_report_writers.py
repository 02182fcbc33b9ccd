"""The report writers format each float array of a run once, for the JSON
report and the trajectory CSV alike, and write the bytes that formatting
each float where it is written gives (the conftest references): for every
report type, n = 1 to 6, and floats that repr() spells in every form, from
-0.0 and subnormals to exponents, nan and the infinities.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qeuler import (MonteCarloReport, NoiseReport, RunReport, dump_state_csv,
                    report_to_doc, write_report_json, write_trajectory_csv)
from conftest import (reference_json, reference_report_to_doc, reference_state_csv,
                      reference_trajectory_csv)

# repr() switches to an exponent below 1e-4 and from 1e16 on
SPECIAL = [0.0, -0.0, 5e-324, -2.5e-310, 1e-5, 1e-4, 1e16, -1e16, 9999999999999998.0,
           0.1, 1.0 / 3.0, math.nan, math.inf, -math.inf]
FLOATS = st.one_of(st.sampled_from(SPECIAL), st.floats())
KINDS = ["deterministic", "integrate", "montecarlo_success",
         "montecarlo_failed_with_survivors", "montecarlo_failed_with_none", "noise"]


def floats(draw, count: int) -> list[float]:
    return draw(st.lists(FLOATS, min_size=count, max_size=count))


@st.composite
def reports(draw):
    """A report of a drawn type, shaped as its driver shapes it."""
    kind = draw(st.sampled_from(KINDS))
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    taken = draw(st.integers(1, m)) if kind.startswith("montecarlo_failed") else m
    rows = taken if kind == "montecarlo_failed_with_none" else taken + 1
    iterates = np.array(floats(draw, 2 * n * rows)).view(complex).reshape(rows, n)
    core = dict(success=not kind.startswith("montecarlo_failed"), m=m,
                epsilon=draw(st.floats(0.01, 1.0)), iterates=iterates,
                probabilities=floats(draw, taken), norm_factors=floats(draw, taken),
                image_norms=floats(draw, taken), meta={"h_norm": draw(FLOATS)},
                times=floats(draw, rows) if kind == "integrate" else None)
    if kind.startswith("montecarlo"):
        counts = [2 ** (taken + 2)]
        for _ in range(taken):
            counts.append(counts[-1] // 2)
        return MonteCarloReport(**core, copy_counts=counts, successes=counts[1:],
                                flagged_rounds=[taken], failure_round=(
                                    None if core["success"] else taken))
    if kind == "noise":
        trials = draw(st.integers(1, 3))
        # a final delta of NaN passes no bound, and the report refuses it
        final = FLOATS.filter(lambda x: not math.isnan(x))
        delta_steps = [floats(draw, m - 1) + [draw(final)] for _ in range(trials)]
        core["meta"]["step_bounds"] = floats(draw, m)
        return NoiseReport(**core, eta=draw(FLOATS), delta_steps=delta_steps,
                           delta_final=[d[-1] for d in delta_steps],
                           delta_bound=math.inf)
    return RunReport(**core)


# strings at keys that sort after "result", and so after the run's arrays;
# the first is the text the JSON writer once wrote in place of each array
NOTES = st.dictionaries(st.text().map("z".__add__),
                        st.one_of(st.just("qeuler.FloatArray"), st.text()), max_size=3)


@settings(max_examples=150, deadline=None)
@given(reports(), NOTES)
def test_writers_write_the_reference_bytes(tmp_path_factory, report, notes):
    out = tmp_path_factory.mktemp("report")
    # the CLI's document shape: the run after the configured strings
    doc = {"command": "integrate", "config": {"output": {"csv": "t.csv"}},
           "result": {"run": report_to_doc(report)}, "schema_version": 1, **notes}
    write_report_json(doc, out / "report.json")
    reference = reference_json({**doc, "result": {"run": reference_report_to_doc(report)}})
    assert (out / "report.json").read_text() == reference
    write_trajectory_csv(report, out / "trajectory.csv")
    assert (out / "trajectory.csv").read_bytes() == reference_trajectory_csv(report).encode()


def test_json_and_csv_spell_nan_and_infinities_apart(tmp_path):
    report = RunReport(success=True, m=1, epsilon=0.5,
                       iterates=np.array([[complex(math.nan, math.inf)],
                                          [complex(-math.inf, -0.0)]]),
                       probabilities=[math.nan], norm_factors=[math.inf],
                       image_norms=[-math.inf])
    write_report_json({"run": report_to_doc(report)}, tmp_path / "report.json")
    write_trajectory_csv(report, tmp_path / "trajectory.csv")
    text = (tmp_path / "report.json").read_text()
    assert '"iterates": [[[NaN, Infinity]], [[-Infinity, -0.0]]]' in text
    assert '"image_norms": [-Infinity]' in text
    assert (tmp_path / "trajectory.csv").read_text().splitlines()[1:] == [
        "0,0.0,nan,inf,,", "1,1.0,-inf,-0.0,nan,inf"]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8).flatmap(lambda k: st.lists(FLOATS, min_size=2 * k,
                                                    max_size=2 * k)))
def test_state_csv_writes_the_reference_bytes(tmp_path_factory, parts):
    path = tmp_path_factory.mktemp("state") / "state.csv"
    vec = np.array(parts).view(complex)
    dump_state_csv(vec, path)
    assert path.read_bytes() == reference_state_csv(vec).encode()


# JSON documents with string keys: lists of dicts and of lists reach the
# writer's item-by-item walk, others its one json.dumps call
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | FLOATS | st.text(),
    lambda inner: (st.lists(inner, max_size=3) | st.tuples(inner, inner)
                   | st.dictionaries(st.text(), inner, max_size=3)), max_leaves=12)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.text(), JSON_VALUES, max_size=4))
def test_any_json_document_writes_the_reference_bytes(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("doc") / "report.json"
    write_report_json(doc, path)
    assert path.read_text() == reference_json(doc)


@pytest.mark.parametrize("doc, keys", [
    ({"a": {1: 2}}, [1]),
    ({"a": [{1: 2}]}, [1]),
    ({"a": [0, [{"b": ({"c": 1}, {2.5: 3})}]]}, [2.5]),
], ids=["dict", "dict_in_list", "deep"])
def test_a_non_string_key_is_refused_at_any_depth(tmp_path, doc, keys):
    path = tmp_path / "report.json"
    with pytest.raises(TypeError) as info:
        write_report_json(doc, path)
    assert str(info.value) == f"report keys must be strings, got {keys!r}"
    assert not path.exists()
