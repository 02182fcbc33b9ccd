"""Outside-in span tracing for the benchmark.

The tracer replaces public functions at the module attributes through which
the program looks them up (a module's globals), records one span per call
(name, start, end, parent) in memory, and puts the originals back when the
traced block ends.  Nothing in the program changes.  A call made through a
reference taken before installation is not seen, which is why the benchmark
calls into the program through module attributes.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from contextlib import contextmanager

# (module, attribute, span name).  A span is named after the function's home
# module; every module whose globals hold a reference to it is patched, so
# nested calls (euler_driver -> nonlin_step -> qstate) nest as spans.
TARGETS = [
    ("qeuler.cli", "main", "cli.main"),
    ("qeuler.cli", "parse_config", "cli.parse_config"),
    ("qeuler.cli", "execute", "cli.execute"),
    ("qeuler.cli", "integrate", "euler_driver.integrate"),
    ("qeuler.cli", "report_to_doc", "euler_driver.report_to_doc"),
    ("qeuler.cli", "write_trajectory_csv", "euler_driver.write_trajectory_csv"),
    ("qeuler.polysys", "euler_map", "polysys.euler_map"),
    ("qeuler.euler_driver", "euler_map", "polysys.euler_map"),
    ("qeuler.polysys", "apply_map", "polysys.apply_map"),
    ("qeuler.nonlin_step", "make_step_operator", "nonlin_step.make_step_operator"),
    ("qeuler.euler_driver", "make_step_operator", "nonlin_step.make_step_operator"),
    ("qeuler.nonlin_step", "build_A", "nonlin_step.build_A"),
    ("qeuler.nonlin_step", "operator_norm", "nonlin_step.operator_norm"),
    ("qeuler.euler_driver", "run_deterministic", "euler_driver.run_deterministic"),
    ("qeuler.euler_driver", "noise_study", "euler_driver.noise_study"),
    ("qeuler.euler_driver", "step_encoded", "nonlin_step.step_encoded"),
    ("qeuler.euler_driver", "step_unitary", "nonlin_step.step_unitary"),
    ("qeuler.nonlin_step", "tensor_power", "qstate.tensor_power"),
    ("qeuler.euler_driver", "tensor_power", "qstate.tensor_power"),
    ("qeuler.nonlin_step", "apply_step", "nonlin_step.apply_step"),
    ("qeuler.nonlin_step", "postselect", "nonlin_step.postselect"),
    ("qeuler.euler_driver", "postselect", "nonlin_step.postselect"),
    ("qeuler.euler_driver", "decode", "qstate.decode"),
]


class Tracer:
    """In-memory span recorder.

    spans[i] = [name, parent index or -1, start_ns, end_ns]; a span's index
    is its identifier.  Calls are synchronous, so the children of a span
    never overlap and its self time is its duration minus theirs.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.enabled = True
        self.absent: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [name, stack[-1] if stack else -1, clock(), 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return traced

    @contextmanager
    def installed(self, targets=TARGETS):
        """Patch every target for the duration of the block, then restore.

        Targets whose attribute no longer exists are skipped and listed in
        self.absent; their metrics read zero.
        """
        patched = []
        try:
            for module_name, attr, name in targets:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    self.absent.append(f"{module_name}.{attr}")
                    continue
                setattr(module, attr, self.wrap(name, original))
                patched.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)
        if any(getattr(m, a) is not o for m, a, o in patched):
            raise RuntimeError("tracer failed to restore a patched function")

    @contextmanager
    def paused(self):
        """Calls inside the block record no spans (benchmark-side checks)."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def durations(self) -> dict[str, tuple[list[int], list[int]]]:
        """Span name -> (durations, self times), in nanoseconds."""
        child = [0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, tuple[list[int], list[int]]] = {}
        for (name, _, start, end), inner in zip(self.spans, child):
            dur, own = out.setdefault(name, ([], []))
            dur.append(end - start)
            own.append(end - start - inner)
        return out

    def write_csv(self, path) -> None:
        with open(path, "w") as f:
            f.write("id,name,parent,start_ns,end_ns\n")
            for i, (name, parent, start, end) in enumerate(self.spans):
                f.write(f"{i},{name},{parent},{start},{end}\n")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: at q = 0.95 over 200 values, 10 lie above."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[max(math.ceil(q * len(ordered)) - 1, 0)])
