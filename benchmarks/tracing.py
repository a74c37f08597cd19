"""Outside-in span recorder for the benchmark's traced run.

The recorder wraps public functions of ``cesdirichlet`` modules from
outside the library: every module-level binding of a listed function,
including the copies other modules imported with ``from .x import f``,
is replaced by one timing wrapper, so spans follow the program's real
call graph without any edit under ``src/``.  ``patched`` restores every
binding on exit.

Each span records its name, start, end, parent span and request id.
Work counters are computed at the same boundaries from arguments and
return values only, so they repeat exactly from run to run.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

PACKAGE = "cesdirichlet"


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    request: int
    start: float
    end: float = math.nan
    error: str | None = None


# ---------------------------------------------------------------------------
# work counters, from arguments and results at the wrapped boundary
# ---------------------------------------------------------------------------

def _dense_terms(counters, args, kwargs, result, error):
    a = args[0]
    if len(a.idx):
        counters["sequences.ces_norm.dense_terms"] += int(a.idx[-1]) - int(a.idx[0])


def _power_sum_terms(counters, args, kwargs, result, error):
    _, start, stop = args[:3]
    counters["kernels.power_sum_range.terms"] += max(0, int(stop) - int(start))


def _out_terms(counters, args, kwargs, result, error):
    if result is not None:
        counters["series.convolve.out_terms"] += len(result.coeffs)


def _jagers_counts(counters, args, kwargs, result, error):
    """Candidates the greedy chain scans: at chain position k every later
    support index plus the sentinel.  A tie error carries the chain built
    up to the undecided step, which is counted as scanned too."""
    idx = args[0].idx
    if result is not None:
        chain = [c for c in result.m_chain if not math.isinf(c)]
    elif hasattr(error, "prefix_chain"):
        chain = list(error.prefix_chain)
        counters["dual.jagers_dual_norm.tie_errors"] += 1
    else:
        return
    size = len(idx)
    pos = {int(n): k for k, n in enumerate(idx)}
    counters["dual.jagers_dual_norm.candidates_scanned"] += sum(size - pos[int(c)] for c in chain)


# (module, function, counter) for every wrapped public function
TARGETS = (
    ("kernels", "sieve_primes", None),
    ("kernels", "power_sum_range", _power_sum_terms),
    ("kernels", "zeta_tail", None),
    ("kernels", "zeta_real", None),
    ("sequences", "ces_norm", _dense_terms),
    ("series", "convolve", _out_terms),
    ("dual", "jagers_dual_norm", _jagers_counts),
    ("dual", "dual_norm_oracle", None),
    ("dual", "delta_norm_exact_p2", None),
    ("dual", "delta_norm_bounds", None),
    ("multipliers", "multiplier_lower_estimate", None),
    ("multipliers", "build_test_function", None),
    ("multipliers", "find_rm", None),
    ("cli", "parse_and_dispatch", None),
    ("cli", "load_coeffs", None),
    ("reports", "emit_report", None),
)


class Recorder:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.request = 0
        self._stack: list[Span] = []

    def wrap(self, name, fn, counter=None):
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(len(spans), name, stack[-1].sid if stack else None,
                        self.request, perf_counter())
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as ex:
                span.end = perf_counter()
                stack.pop()
                span.error = type(ex).__name__
                if counter is not None:
                    counter(counters, args, kwargs, None, ex)
                raise
            span.end = perf_counter()
            stack.pop()
            if counter is not None:
                counter(counters, args, kwargs, result, None)
            return result

        wrapper.bench_original = fn
        return wrapper

    def layers(self) -> dict:
        """``{name: (calls, self seconds)}`` summed over all spans."""
        out = defaultdict(lambda: [0, 0.0])
        for span, own in zip(self.spans, self_times(self.spans)):
            out[span.name][0] += 1
            out[span.name][1] += own
        return {k: tuple(v) for k, v in out.items()}

    def write(self, path: str) -> None:
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span, own in zip(self.spans, self_times(self.spans)):
                fh.write(json.dumps({
                    "id": span.sid, "name": span.name, "parent": span.parent,
                    "request": span.request, "start": span.start, "end": span.end,
                    "self": own, "error": span.error,
                }) + "\n")


def wrapper_cost(calls: int = 10_000, repeats: int = 5) -> float:
    """Seconds one wrapped call adds to a plain call, timed on a no-op
    (counters excluded).  The best of ``repeats`` loops is taken for
    each, as ``timeit`` does, so that the machine's noise stays out."""
    def noop():
        return None

    recorder = Recorder()
    wrapped = recorder.wrap("noop", noop)
    best = {}
    for fn in (noop, wrapped):
        for _ in range(repeats):
            recorder.spans.clear()
            t0 = perf_counter()
            for _ in range(calls):
                fn()
            best[fn] = min(best.get(fn, math.inf), perf_counter() - t0)
    return max(0.0, best[wrapped] - best[noop]) / calls


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for s in spans:
        covered = 0.0
        reach = s.start
        for lo, hi in sorted(children.get(s.sid, ())):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def wrapped_bindings() -> list[str]:
    """``module.attr`` of every binding that still holds a wrapper."""
    return [f"{m.__name__}.{attr}" for m in package_modules()
            for attr, val in vars(m).items() if hasattr(val, "bench_original")]


@contextmanager
def patched(recorder: Recorder):
    """Route every binding of every target through ``recorder``."""
    wrappers = {}
    for mod, fname, counter in TARGETS:
        fn = getattr(importlib.import_module(f"{PACKAGE}.{mod}"), fname)
        wrappers[id(fn)] = (fn, recorder.wrap(f"{mod}.{fname}", fn, counter))
    saved = []
    try:
        for m in package_modules():
            for attr, val in list(vars(m).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    saved.append((m, attr, val))
                    setattr(m, attr, hit[1])
        yield recorder
    finally:
        for m, attr, val in reversed(saved):
            setattr(m, attr, val)
