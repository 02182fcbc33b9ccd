"""qeuler benchmark: one workload per process, BLAS pinned to one thread.

Run from the root of a checkout:

    python3 perfbench/run.py --workload om120_integrate --seed 1 --seconds 25 --trace 0

--trace 0 measures the end-to-end metrics with tracing off: timed set-ups
alternate with timed driver calls, and the median set-up and the fastest call
are reported.  A run makes a fixed number of calls, which --seconds sets
through each workload's nominal cycle time, so that the operations attempted
do not depend on the host's speed.  --trace 1 makes an untraced and then a
traced series of calls on the same inputs and reports the per-layer metrics
and the tracing overhead; the traced outputs must be bit-identical to the
untraced ones.  Every call is one operation and is checked against the
classical oracle; a check that fails, or a call that raises, counts the
operation as failed.

The second-to-last line of standard output is the run record (host, cores,
numpy and BLAS build, thread pin, seed, workload sizes); the last line is the
result.  The record, with every sample, and the spans of a traced run are
also written under .perfbench/ in the checkout.
"""

import os

# Must precede the first numpy import, which loads BLAS and starts its threads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracing import Tracer, percentile  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics read from spans: (metric, unit, span, "dur" or "self",
# statistic).  Statistics are over every call in the traced series; "calls"
# is the number of calls per driver call.
SPAN_METRICS = [
    ("nonlin_step.apply_step.p50_us", "us", "nonlin_step.apply_step", "dur", 0.50),
    ("nonlin_step.apply_step.p95_us", "us", "nonlin_step.apply_step", "dur", 0.95),
    ("nonlin_step.apply_step.calls", "count", "nonlin_step.apply_step", "dur", "calls"),
    ("nonlin_step.build_A.ms", "ms", "nonlin_step.build_A", "dur", 0.50),
    ("nonlin_step.operator_norm.ms", "ms", "nonlin_step.operator_norm", "dur", 0.50),
    ("nonlin_step.make_step_operator.self_ms", "ms", "nonlin_step.make_step_operator", "self", 0.50),
    ("qstate.tensor_power.p50_us", "us", "qstate.tensor_power", "dur", 0.50),
    ("qstate.tensor_power.p95_us", "us", "qstate.tensor_power", "dur", 0.95),
    ("qstate.tensor_power.calls", "count", "qstate.tensor_power", "dur", "calls"),
    ("nonlin_step.postselect.p50_us", "us", "nonlin_step.postselect", "dur", 0.50),
    ("nonlin_step.step_encoded.self_us", "us", "nonlin_step.step_encoded", "self", 0.50),
    ("euler_driver.run_deterministic.self_ms", "ms", "euler_driver.run_deterministic", "self", 0.50),
    ("qstate.decode.p50_us", "us", "qstate.decode", "dur", 0.50),
    ("euler_driver.report_to_doc.ms", "ms", "euler_driver.report_to_doc", "dur", 0.50),
    ("euler_driver.write_trajectory_csv.ms", "ms", "euler_driver.write_trajectory_csv", "dur", 0.50),
    ("cli.parse_config.ms", "ms", "cli.parse_config", "dur", 0.50),
    ("cli.execute.self_ms", "ms", "cli.execute", "self", 0.50),
    ("nonlin_step.step_unitary.ms", "ms", "nonlin_step.step_unitary", "dur", 0.50),
    ("euler_driver.noise_study.self_s", "s", "euler_driver.noise_study", "self", 0.50),
    ("polysys.euler_map.ms", "ms", "polysys.euler_map", "dur", 0.50),
    ("polysys.apply_map.p50_us", "us", "polysys.apply_map", "dur", 0.50),
]
UNIT_NS = {"us": 1e3, "ms": 1e6, "s": 1e9}

# Per-layer metrics computed from outputs; zero where the layer does not run.
COMPUTED_UNITS = {
    "nonlin_step.B.bytes": "bytes",
    "nonlin_step.B.fill": "ratio",
    "cli.report.bytes": "bytes",
    "euler_driver.noise_study.tightness": "ratio",
    "ratio.step_over_oracle": "ratio",
    "trace.overhead_ms": "ms",
}

# Least driver calls in an untraced series, whatever --seconds allows.
MIN_CALLS = 3


def import_program():
    """Put the checkout's src/ first on the path; refuse to run without it."""
    src = ROOT / "src"
    if not (src / "qeuler" / "__init__.py").is_file():
        sys.exit(f"perfbench: no qeuler sources under {src}")
    sys.path.insert(0, str(src))


def blas_threads():
    """Threads the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        # Plain OpenBLAS, and the 64-bit build numpy's wheels bundle.
        for symbol in ("openblas_get_num_threads",
                       "scipy_openblas_get_num_threads64_"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(args, workload) -> dict:
    config = np.show_config(mode="dicts")
    return {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "sizes": workload.sizes(),
        "calls": call_count(args.seconds, workload),
        "host": platform.node(), "machine": platform.machine(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": config.get("Build Dependencies", {}).get("blas"),
        "thread_pin": {v: os.environ[v] for v in THREAD_VARS},
        "blas_threads": blas_threads(),
    }


class Runner:
    """Counts operations and their failures across one benchmark run."""

    def __init__(self, workload, tracer):
        self.workload, self.tracer = workload, tracer
        self.attempted = self.failed = 0
        self.wrong = False  # a main-workload operation failed
        self.problems: list[str] = []
        self.last = None  # result of the first checked call

    def fail(self, what: str, problems, counts_as_wrong: bool = True):
        self.failed += 1
        self.wrong |= counts_as_wrong
        self.problems += [f"{what}: {p}" for p in problems]
        for p in problems:
            print(f"perfbench: {what}: {p}", file=sys.stderr)

    def series(self, n_calls: int, reference=None):
        """Set-ups and exactly n_calls driver calls.

        Before each call the set-up runs workload.setup_reps times and the
        call uses the last operator, so set-up and call samples are spread
        over the same stretch of time.  Garbage is collected before each
        timed block, so no call pays for the previous call's garbage.  Every
        call is checked, and its fingerprint must equal `reference` (or the
        first call's).
        Returns (set-up seconds, call seconds, reference, last operator).
        """
        w, setups, calls, op = self.workload, [], [], None
        for _ in range(n_calls):
            raw = result = None  # drop the previous call's outputs
            for _ in range(w.setup_reps):
                op = None  # drop the previous operator before building the next
                gc.collect()
                t0 = time.perf_counter()
                op = w.setup()
                setups.append(time.perf_counter() - t0)
            self.attempted += 1
            label = f"call {self.attempted}"
            gc.collect()
            try:
                t0 = time.perf_counter()
                try:
                    raw = w.call(op)
                finally:
                    calls.append(time.perf_counter() - t0)
                result = w.collect(raw)
                problems = w.check(op, result, self.tracer)
                fp = w.fingerprint(result)
            except Exception:  # a raising call, or outputs a check cannot read
                self.fail(label, [traceback.format_exc(limit=3)])
                continue
            if reference is None:
                reference = fp
                self.last = result
            elif fp != reference:
                problems.append("outputs differ from the first call's bytes")
            if problems:
                self.fail(label, problems)
        return setups, calls, reference, op

    def probes(self):
        for name, probe in self.workload.probes():
            self.attempted += 1
            try:
                probe()
            except Exception as exc:  # the known-defect probe fails today
                self.fail(name, [f"{type(exc).__name__}: {exc}"],
                          counts_as_wrong=False)


def operator_metrics(op) -> dict:
    """Bytes held by the transfer operator's arrays, and nnz over stored values."""
    arrays = [v for v in vars(op.A).values() if isinstance(v, np.ndarray)]
    stored = sum(a.size for a in arrays if np.iscomplexobj(a))
    return {"nonlin_step.B.bytes": sum(a.nbytes for a in arrays),
            "nonlin_step.B.fill": op.A.nnz / stored if stored else 0.0}


def span_metrics(tracer, calls: int) -> dict:
    stats = tracer.durations()
    out = {}
    for metric, unit, span, kind, stat in SPAN_METRICS:
        dur, own = stats.get(span, ([], []))
        if stat == "calls":
            out[metric] = len(dur) / calls
        else:
            values = dur if kind == "dur" else own
            out[metric] = percentile(values, stat) / UNIT_NS[unit]
    step = stats.get("nonlin_step.step_encoded", ([], []))[0]
    oracle = stats.get("polysys.apply_map", ([], []))[0]
    out["ratio.step_over_oracle"] = (statistics.median(step) / statistics.median(oracle)
                                     if step and oracle else 0.0)
    return out


def call_count(seconds: float, workload) -> int:
    """Driver calls in a run of `seconds`: fixed by the workload's nominal
    cycle time, never by the clock, so every run of a workload attempts the
    same operations."""
    return max(MIN_CALLS, round(seconds / workload.cycle_s))


def run_untraced(args, workload, runner):
    """setup_s is the median set-up.  run_s is the fastest call: the host's
    speed drifts by up to half over tens of seconds, which moves a run's
    median call by as much, while a deterministic call can only be slowed by
    it, so the fastest call is the least disturbed measure of its cost."""
    setups, calls, _, _ = runner.series(call_count(args.seconds, workload))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    runner.probes()
    return ({"setup_s": statistics.median(setups),
             "run_s": min(calls), "peak_rss_mb": peak_mb},
            {"setup_s_samples": setups, "run_s_samples": calls,
             "run_s_median": statistics.median(calls)})


def run_traced(args, workload, runner, tracer):
    half = max(workload.traced_calls, call_count(args.seconds, workload) // 2)
    _, plain, reference, _ = runner.series(half)
    with tracer.installed():
        start = runner.attempted
        _, traced, _, op = runner.series(half, reference=reference)
        calls = runner.attempted - start
    runner.probes()
    metrics = {name: 0.0 for name in COMPUTED_UNITS}
    metrics |= span_metrics(tracer, calls)
    metrics |= operator_metrics(op)
    if runner.last is not None:
        metrics |= workload.computed(op, runner.last)
    metrics["trace.overhead_ms"] = 1e3 * (min(traced) - min(plain))
    return metrics, {"untraced_run_s_samples": plain,
                     "traced_run_s_samples": traced,
                     "absent_targets": tracer.absent, "spans": len(tracer.spans)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        tracer = Tracer()
        runner = Runner(workload, tracer)
        if args.trace:
            values, samples = run_traced(args, workload, runner, tracer)
            units = {m: u for m, u, *_ in SPAN_METRICS} | COMPUTED_UNITS
            tracer.write_csv(OUT / f"spans-{args.workload}.csv")
        else:
            values, samples = run_untraced(args, workload, runner)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = environment(args, workload)
    result = {"correct": not runner.wrong, "attempted": runner.attempted,
              "failed": runner.failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    (OUT / f"record-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"record": record, "samples": samples,
                    "problems": runner.problems, "result": result}, indent=1))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
