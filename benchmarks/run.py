"""Benchmark of cesdirichlet: closed-loop workloads of in-process ``cesdir`` requests.

Run all three workloads and print every metric::

    python3 benchmarks/run.py
    python3 benchmarks/run.py --trace 1          # add the per-layer trace

Run one workload (the last stdout line is the JSON result)::

    python3 benchmarks/run.py --workload dual --seed 3 --trace 0

``--seconds`` defaults to ``run_seconds`` of BENCHMARK.json, which also
names the workloads and the metrics reported.

Each operation is one ``cesdir`` request, run through
``cesdirichlet.cli.parse_and_dispatch(argv)`` with stdout captured.  A
workload runs in its own process with one client and one thread: the
next request is sent when the previous one has returned.  A pass is the
workload's fixed request list.  Whole passes repeat while the next one
is expected to end within ``--seconds`` (at least one pass runs), and
each pass starts from empty zeta caches, as a fresh ``cesdir`` process
would.  Latency percentiles pool the requests of all passes; ``wall_s``
is the mean pass.

Every time reported is given at a fixed reference speed of the machine
(see ``Speed``): the shared host's single-thread speed swings by up to
half again, for seconds to minutes at a time, so each measured time is
scaled by how much slower than the reference a fixed pure-Python loop
ran around it.  The raw end-to-end times are printed beside them.

With ``--trace 1`` one more pass runs with every public layer function
wrapped (see ``tracing.py``) and the per-layer metrics are reported
instead of the end-to-end ones.  Tracing overhead is that pass's wall
time minus the mean untraced pass, and, since that difference can be
smaller than the noise between passes, also the calibrated cost of one
wrapped call times the number of spans.  Outputs are checked after the
timed passes by ``checks.py``.  Inputs, spans and scratch files live
in ``.bench_out/`` under the checkout root.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

# one thread: numpy is imported later, by the workload and the program
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = tuple((m["name"], m["unit"]) for m in SPEC["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"]) for m in SPEC["per_layer"])

# fresh-process set-ups per run, half before and half after the timed
# passes, so that their median spans the machine's slow swings in speed
SETUP_PROBES = 10
DETERMINISM_REPEATS = 3
TAIL_BEYOND = 10

# Speed calibration.  A pure-Python loop of CAL_LOOP steps takes CAL_REF_S
# at the reference speed, which is about this host's fast spells (a shared
# 2-vCPU "Intel Xeon Processor" VM at 2.1 GHz, Python 3.11: 2.5 ms fast,
# 2.8 to 3.6 ms typical).  During the timed passes a timer signal runs the
# loop every CAL_EVERY_S, inside long requests too, and its time is taken
# out of theirs; each request is scaled by CAL_REF_S over the mean loop
# time within CAL_WINDOW_S of it.  Of the loops tried (integer arithmetic,
# function calls and string work, small numpy sorts and json round
# trips), the plain integer loop tracked the slow spells best, for the
# numpy-heavy ladder requests too (mean of 15 s windows: spread 23 % raw,
# 3 % scaled), as the spells slow the interpreter itself
CAL_LOOP = 40_000
CAL_REF_S = 0.0025
CAL_EVERY_S = 0.1
CAL_WINDOW_S = 0.5

# stderr prefixes of refusals whose exception the CLI does not name
_KNOWN_ERRORS = (("error: ambiguous argmin", "ArgminTieError"),)


def _error_name(rc: int, err: str) -> str:
    for prefix, name in _KNOWN_ERRORS:
        if err.startswith(prefix):
            return name
    return f"exit-{rc}"


def call(cli, argv):
    """One request: ``(error name or None, captured stdout)``."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.parse_and_dispatch(argv)
        error = None if rc == 0 else _error_name(rc, err.getvalue())
    except Exception as ex:  # a crash is a failed request, named by its type
        error = type(ex).__name__
    return error, out.getvalue()


def _calibration_loop():
    s = 0
    for i in range(CAL_LOOP):
        s += i * i
    return s


class Speed:
    """Times of the calibration loop, by the loop's midpoint."""

    def __init__(self):
        self.at, self.took = [], []
        self._busy = False

    def sample(self, *_):
        if self._busy:  # a timer signal that arrives during a loop is dropped
            return
        self._busy = True
        t0 = perf_counter()
        _calibration_loop()
        t1 = perf_counter()
        self.at.append(0.5 * (t0 + t1))
        self.took.append(t1 - t0)
        self._busy = False

    def due(self):
        if not self.at or perf_counter() - self.at[-1] >= CAL_EVERY_S:
            self.sample()

    @contextlib.contextmanager
    def ticking(self):
        """A loop every CAL_EVERY_S from a timer signal, so inside long
        requests too: Python runs the handler between two bytecodes."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def inside(self, start: float, end: float) -> float:
        """Loop time within ``[start, end]``, to be taken out of it.  A loop
        runs between two bytecodes, so it lies wholly inside or outside."""
        return sum(self.took[bisect_left(self.at, start):bisect_right(self.at, end)])

    def scale(self, start: float, end: float) -> float:
        """Reference time per measured time for an interval: CAL_REF_S over
        the mean loop time within CAL_WINDOW_S of it (the nearest loop
        when none is that close)."""
        lo = bisect_left(self.at, start - CAL_WINDOW_S)
        hi = bisect_right(self.at, end + CAL_WINDOW_S)
        if lo == hi:
            lo = min((j for j in (lo - 1, lo) if 0 <= j < len(self.at)),
                     key=lambda j: min(abs(self.at[j] - start), abs(self.at[j] - end)))
            hi = lo + 1
        return CAL_REF_S / statistics.fmean(self.took[lo:hi])


def setup(workload: str, seed: int, directory: str):
    """Everything before the first measured request: import, input
    generation and writing, warm-up."""
    import inputs
    from cesdirichlet import cli

    wl = inputs.build(workload, seed)
    inputs.write_files(wl, directory)
    for req in wl.warmup:
        call(cli, inputs.resolve(req.argv, wl, directory))
    return cli, wl


def probe_setup(workload: str, seed: int, count: int, speed: Speed) -> list[tuple]:
    """Set-up times of ``count`` fresh processes, from spawn to ready, as
    ``(raw, at reference speed)``; calibration loops run before and after
    each."""
    times = []
    for _ in range(count):
        directory = tempfile.mkdtemp(prefix="setup-", dir=OUT)
        try:
            for _ in range(3):
                speed.sample()
            t0 = perf_counter()
            with subprocess.Popen(
                [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                 "--setup-probe", directory],
                stdout=subprocess.PIPE, text=True,
            ) as proc:
                line = proc.stdout.readline()
                t1 = perf_counter()
                proc.stdout.read()
                rc = proc.wait(timeout=120)
            if line.strip() != "ready" or rc != 0:
                raise RuntimeError(f"set-up probe failed with exit code {rc}")
            for _ in range(3):
                speed.sample()
            times.append((t1 - t0, (t1 - t0) * speed.scale(t0, t1)))
        finally:
            shutil.rmtree(directory, ignore_errors=True)
    return times


@dataclass
class Pass:
    latency: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    spans: list = field(default_factory=list)  # (start, end) of each request
    wall: float = 0.0  # without the calibration loops run during the pass


def tail(latencies, passes: int):
    """Pooled over passes, the highest percentile with TAIL_BEYOND samples
    per pass beyond it: ``(value, level %)``.  Counting the samples beyond
    per pass keeps the percentile level, and so the kind of request it
    lands on, independent of the number of passes."""
    pooled = sorted(latencies)
    beyond = TAIL_BEYOND * passes
    if len(pooled) <= beyond:
        return pooled[-1], 100.0
    return pooled[len(pooled) - beyond - 1], 100.0 * (len(pooled) - beyond) / len(pooled)


def run_pass(cli, argvs, caches, recorder=None, speed=None) -> Pass:
    """One pass.  With ``speed`` the calibration loop runs every CAL_EVERY_S
    and its time is taken out of the requests' and the pass's: from a timer
    signal, inside requests too, or, in the traced pass, only between
    requests, since a loop inside a span would count in its self time."""
    for fn in caches:
        fn.cache_clear()
    result = Pass()
    timer = speed is not None and recorder is None
    with speed.ticking() if timer else contextlib.nullcontext():
        t0 = perf_counter()
        for k, argv in enumerate(argvs):
            if speed is not None and not timer:
                speed.due()
            if recorder is not None:
                recorder.request = k
            start = perf_counter()
            error, out = call(cli, argv)
            end = perf_counter()
            result.latency.append(end - start - (speed.inside(start, end) if speed else 0.0))
            result.spans.append((start, end))
            result.errors.append(error)
            result.outputs.append(out)
        t1 = perf_counter()
    if speed is not None:
        speed.sample()
    result.wall = t1 - t0 - (speed.inside(t0, t1) if speed else 0.0)
    return result


def find_caches():
    """Every lru-cached function of the package, unpatched."""
    import tracing

    seen = {}
    for module in tracing.package_modules():
        for val in vars(module).values():
            if callable(getattr(val, "cache_clear", None)):
                seen[id(val)] = val
    return list(seen.values())


def check_outputs(wl, argvs, passes, extra_outputs):
    """Independent checks of the first pass plus byte-equality of repeats.
    Returns (problems, certified pairs)."""
    from checks import Checker

    checker = Checker(wl.files)
    first = passes[0]
    problems, pairs, seen = [], [], set()
    for k, req in enumerate(wl.requests):
        if first.errors[k] is not None or req.argv in seen:
            continue
        seen.add(req.argv)
        try:
            pairs.extend(checker.check(req.kind, argvs[k], first.outputs[k]))
        except Exception as ex:  # any disagreement or unreadable output fails the run
            problems.append(f"{' '.join(req.argv)}: {type(ex).__name__}: {ex}")
    for later in passes[1:]:
        for k in range(len(argvs)):
            if later.outputs[k] != first.outputs[k]:
                problems.append(f"output differs between passes: {' '.join(wl.requests[k].argv)}")
    for k, out in extra_outputs:
        if out != first.outputs[k]:
            problems.append(f"output differs on repeat: {' '.join(wl.requests[k].argv)}")
    return problems, pairs


def measure(workload: str, seed: int, seconds: float, trace: bool):
    import inputs
    import tracing

    speed = Speed()
    setup_times = probe_setup(workload, seed, SETUP_PROBES // 2, speed)
    directory = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    try:
        cli, wl = setup(workload, seed, directory)
        caches = find_caches()
        argvs = [inputs.resolve(r.argv, wl, directory) for r in wl.requests]

        # whole passes only, each expected to end within the time given
        passes = []
        t0 = perf_counter()
        while not passes or perf_counter() - t0 + passes[-1].wall <= seconds:
            passes.append(run_pass(cli, argvs, caches, speed=speed))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup_times += probe_setup(workload, seed, SETUP_PROBES - SETUP_PROBES // 2, speed)

        # byte-equal stdout on repeat: the cheapest successful requests once more
        first = passes[0]
        ok = [k for k in range(len(argvs)) if first.errors[k] is None]
        repeat = sorted(ok, key=lambda k: first.latency[k])[:DETERMINISM_REPEATS]
        extra = [(k, call(cli, argvs[k])[1]) for k in repeat]

        traced = None
        if trace:
            recorder = tracing.Recorder()
            zeta_tail = sys.modules["cesdirichlet.kernels"].zeta_tail
            with tracing.patched(recorder):
                traced = run_pass(cli, argvs, caches, recorder, speed)
            wrapper_cost = tracing.wrapper_cost()
            trace_scale = speed.scale(traced.spans[0][0], perf_counter())
            extra.extend(enumerate(traced.outputs))
            leftover = tracing.wrapped_bindings()
            info = zeta_tail.cache_info() if hasattr(zeta_tail, "cache_info") else None
            recorder.write(str(OUT / f"trace-{workload}-{seed}.jsonl"))

        problems, pairs = check_outputs(wl, argvs, passes, extra)
        if trace and leftover:
            problems.append(f"patched bindings left after the traced pass: {leftover}")
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    attempted = sum(len(p.latency) for p in passes)
    failures = {}
    for p in passes:
        for e in p.errors:
            if e is not None:
                failures[e] = failures.get(e, 0) + 1
    failed = sum(failures.values())
    # every time at the reference speed, and raw beside it.  A pass's wall
    # time is scaled by its requests' time-weighted scale
    scaled = [[dt * speed.scale(a, b) for dt, (a, b) in zip(p.latency, p.spans)] for p in passes]
    times = {}
    for key, setups, walls, latency in (
            ("ref", [r for _, r in setup_times],
             [p.wall * sum(s) / sum(p.latency) for p, s in zip(passes, scaled)],
             [dt for s in scaled for dt in s]),
            ("raw", [r for r, _ in setup_times], [p.wall for p in passes],
             [dt for p in passes for dt in p.latency])):
        tail_value, tail_level = tail(latency, len(passes))
        times[key] = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.fmean(walls),
            "op_p50_ms": 1e3 * statistics.median(latency),
            "op_tail_ms": 1e3 * tail_value,
        }
    e2e = dict(times["ref"])
    e2e.update({
        "ok_ratio": 1.0 - failed / attempted,
        "peak_rss_mb": peak_rss_mb,
        "width_rel_max": max((hi - lo) / hi for lo, hi in pairs),
    })
    report = {
        "workload": workload, "seed": seed, "passes": len(passes),
        "requests": len(argvs), "tail_level": tail_level, "failures": failures,
        "pass_walls": [p.wall for p in passes],
        "raw": times["raw"], "cal_loop_s": statistics.fmean(speed.took),
        "setup_times": setup_times, "problems": problems, "e2e": e2e,
        "quotient_frac_min": min(lo / hi for lo, hi in pairs),
    }
    if traced is not None:
        layers = recorder.layers()
        per = dict.fromkeys((name for name, _ in PER_LAYER), 0)
        for mod, fname, _ in tracing.TARGETS:
            calls, own = layers.get(f"{mod}.{fname}", (0, 0.0))
            per[f"{mod}.{fname}.self_s"] = own * trace_scale
            per[f"{mod}.{fname}.calls"] = calls
        per.update(recorder.counters)
        hits, misses = (info.hits, info.misses) if info is not None else (0, 0)
        per["kernels.zeta_tail.cache_lookups"] = hits + misses
        per["kernels.zeta_tail.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        per["trace.wall_s"] = traced.wall * trace_scale
        per["trace.overhead_s"] = per["trace.wall_s"] - e2e["wall_s"]
        per["trace.spans"] = len(recorder.spans)
        per["trace.wrapper_cost_s"] = wrapper_cost * len(recorder.spans) * trace_scale
        report["layers"] = per
    return report


def _print_report(rep, trace: bool):
    e2e = rep["e2e"]
    print(f"# workload {rep['workload']}  seed {rep['seed']}  passes {rep['passes']}  "
          f"requests per pass {rep['requests']}")
    raw = rep["raw"]
    print(f"# times at the reference speed; the calibration loop took {1e3 * rep['cal_loop_s']:.4g} ms "
          f"on average against {1e3 * CAL_REF_S:.4g} ms at the reference")
    notes = {
        "setup_s": f"median of {len(rep['setup_times'])} fresh-process set-ups; raw {raw['setup_s']:.6g}",
        "wall_s": f"mean wall time of one pass; raw {raw['wall_s']:.6g}, passes "
                  + " ".join(f"{w:.4g}" for w in rep["pass_walls"]),
        "op_p50_ms": f"median request latency, all passes pooled; raw {raw['op_p50_ms']:.6g}",
        "op_tail_ms": f"p{rep['tail_level']:.2f} of {rep['requests'] * rep['passes']} requests "
                      f"({TAIL_BEYOND} per pass beyond it), all passes pooled; raw {raw['op_tail_ms']:.6g}",
        "ok_ratio": f"1 - fail_ratio; fail_ratio {1.0 - e2e['ok_ratio']:.4f}, failures "
                    + (", ".join(f"{k} x{v}" for k, v in sorted(rep["failures"].items())) or "none"),
        "peak_rss_mb": "peak RSS of the workload process",
        "width_rel_max": "largest (hi-lo)/hi of the certified pairs printed"
                         + ("; pairs are (ratio, reference), so 1 - quotient_frac_min"
                            if rep["workload"] == "ladder" else ""),
    }
    for name, unit in END_TO_END:
        print(f"{name:<16} {e2e[name]:>14.6g} {unit:<6} {notes[name]}")
    if rep["workload"] == "ladder":
        print(f"{'quotient_frac_min':<16} {rep['quotient_frac_min']:>14.6g} {'ratio':<6} "
              "smallest certified ratio/reference")
    if trace:
        per = rep["layers"]
        print(f"# traced pass: {per['trace.wall_s']:.4g} s, {per['trace.spans']} spans; overhead "
              f"{per['trace.overhead_s']:+.4g} s against the untraced mean pass, "
              f"{per['trace.wrapper_cost_s']:.4g} s from the calibrated wrapper cost per span")
        print("# self time share of the traced pass:")
        shares = sorted(((v, k[:-len(".self_s")]) for k, v in per.items() if k.endswith(".self_s")),
                        reverse=True)
        for own, layer in shares:
            if own > 0:
                print(f"  {layer:<42} {own:>10.4g} s {100.0 * own / per['trace.wall_s']:6.2f} %")
        for name, unit in PER_LAYER:
            if not name.endswith(".self_s") and not name.startswith("trace."):
                print(f"  {name:<42} {per[name]:>10.6g} {unit}")
    for problem in rep["problems"]:
        print(f"CHECK FAILED: {problem}")


def result_line(rep, trace: bool) -> str:
    if trace:
        metrics = {name: {"value": rep["layers"][name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": rep["e2e"][name], "unit": unit} for name, unit in END_TO_END}
    return json.dumps({
        "correct": not rep["problems"],
        "attempted": rep["requests"] * rep["passes"],
        "failed": sum(rep["failures"].values()),
        "metrics": metrics,
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="a workload of BENCHMARK.json, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "cesdirichlet" / "__init__.py").is_file():
        sys.stderr.write(f"benchmark: no cesdirichlet sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    if args.setup_probe:
        setup(args.workload, args.seed, args.setup_probe)
        print("ready", flush=True)
        return 0

    workloads = [w["name"] for w in SPEC["workloads"]]
    if args.workload == "all":
        status = 0
        for workload in workloads:
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True, check=False,
            )
            sys.stdout.write(proc.stdout)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
                status = 1
        return status

    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}")
    OUT.mkdir(exist_ok=True)
    try:
        rep = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:
        traceback.print_exc()
        return 1
    _print_report(rep, bool(args.trace))
    print(result_line(rep, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
