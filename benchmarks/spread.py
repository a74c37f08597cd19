"""Run-to-run spread of the benchmark's metrics.

Runs ``run.py`` once per seed for each workload, one run at a time,
and prints for every metric the median of the runs, its quartiles and
the spread, the distance between the quartiles as a share of the
median (``statistics.quantiles(values, n=4)``)::

    python3 benchmarks/spread.py --workload dual --seeds 0-4
    python3 benchmarks/spread.py --seeds 0-9 --json .bench_out/spread.json

Use it to compare two commits: run it on each, with the same seeds and
``--seconds``, and set the medians against the bounds in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds, trace: int) -> dict:
    extra = [] if seconds is None else ["--seconds", str(seconds)]
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--trace", str(trace)] + extra,
        stdout=subprocess.PIPE, text=True, check=False, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(lines[-1])


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0, "values": values}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", help="repeatable; default: every workload")
    parser.add_argument("--seeds", default="0-9", help="a seed or a range such as 0-9")
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run.py's, run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", default=None, help="also write the summary here")
    args = parser.parse_args(argv)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    summary = {}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in _seeds(args.seeds):
            runs.append(run_once(workload, seed, args.seconds, args.trace))
            if not runs[-1]["correct"]:
                print(f"{workload} seed {seed}: outputs failed their checks")
        summary[workload] = summarize(runs)
        print(f"# {workload}: {len(runs)} runs")
        for name, s in summary[workload].items():
            print(f"  {name:<44} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f}")
        sys.stdout.flush()
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
