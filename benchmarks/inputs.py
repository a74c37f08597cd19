"""Seeded inputs for the three benchmark workloads.

A workload is a list of ``cesdir`` requests (one pass) plus the sparse
coefficient files they read.  Everything here is a pure function of
the workload name and the seed, so the same seed always yields the
same files and the same argv lists in the same order.

Files are kept in memory as ``name -> [(n, re, im), ...]``; request
argv lists name files by their bare name and are resolved against the
directory the files are written to.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

P_SET = ("1.5", "2", "3")

# multiplier-estimate grid of the 6b ladder suite
LADDER_LIMITS = (10 ** 6, 10 ** 7)
LADDER_MS = (10, 50, 100)
LADDER_ALPHAS = ("0.40", "0.45", "0.49")
LADDER_F6B = [(1, 1.0, 0.0), (2, 1.0, 0.0), (3, 1.0, 0.0)]
# the cheap 1e6 rung runs three times per pass (fresh seeded f each time)
# so that latency percentiles rest on more than a handful of requests
LADDER_REPEATS = {10 ** 6: 3, 10 ** 7: 1}

DUAL_RANGE = 30_000
# independent index draws per support size.  Decreasing b at p = 3 spends
# most of a second (support 200) or seconds (support 1000) before its tie
# error, so it runs on the first DUAL_P3_DRAWS draws only.  Per pass the
# four costliest requests (support 1000 at p = 2, 3; support 200 at p = 3)
# sit above the sixty support-200 decreasing requests at p = 2, whose upper
# part holds the tail (ten requests beyond it); the cheap support-200
# requests hold the median
DUAL_DRAWS = {50: 4, 200: 60, 1000: 1}
DUAL_P3_DRAWS = 2
# The support-1000 decreasing chains (p = 2, and p = 3 up to its tie error)
# take about half the pass, and their cost changes twofold from one index
# draw to another (3.5 to 7 s at p = 3).  With one such draw per seed that
# alone set the spread of the pass time between seeds, so this draw comes
# from a fixed generator, the same for every seed.  Its random-|b| twin and
# every other draw follow the seed
DUAL_FIXED_SUPPORT = 1000
DUAL_ORACLES = 24

# cli-mix: nothing records how often each verb is used, so every verb
# gets the same number of requests per pass, split evenly over its
# variants.  This even mix is an assumption, not measured usage.  Fixed
# counts keep every pass (and every seed) the same mix
CLI_MIX_PER_VERB = 100
CLI_MIX_VERBS = {
    "norm": ("norm-ces", "norm-lp", "norm-dq", "norm-ar"),
    "dual-norm": ("dual-norm",),
    "eval": ("eval",),
    "convolve": ("convolve",),
    "project": ("project",),
    "schur-test": ("schur-finite",),
    "delta-norm": ("delta-bounds", "delta-exact"),
}
CLI_MIX_COUNTS = {kind: CLI_MIX_PER_VERB // len(kinds)
                  for kinds in CLI_MIX_VERBS.values() for kind in kinds}
CLI_MIX_SMALL_FILES = 40
CLI_MIX_INT_FILES = 12
# 2-term ces norms at p = 2 on a log grid of max index 1e6..1e7; 20 per
# pass so that the tail (ten requests per pass beyond it) falls mid-grid,
# where one p keeps neighbouring costs evenly spaced
CLI_MIX_LARGE = 20
DELTA_SIGMAS = {"1.5": ("0.5", "0.75", "1.25"), "2": ("0.6", "0.8", "1.25"),
                "3": ("0.8", "1.0", "1.5")}
DELTA_TERMS = ("10000", "100000")

WORKLOADS = ("ladder", "dual", "cli-mix")
_STREAM = {name: k for k, name in enumerate(WORKLOADS)}


@dataclass(frozen=True)
class Request:
    kind: str
    argv: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    files: dict
    requests: tuple
    warmup: tuple


def _complex_values(rng, size):
    re = rng.standard_normal(size)
    im = np.where(rng.random(size) < 0.5, 0.0, rng.standard_normal(size))
    return [(float(a), float(b)) for a, b in zip(re, im)]


def _spread(groups):
    """The requests of every group spread evenly over the pass.  The order
    depends on the group sizes only, so every seed sends the same sequence
    of request kinds and the heavy requests sit at the same places."""
    keyed = sorted(((j + 0.5) / len(g), gi, j) for gi, g in enumerate(groups)
                   for j in range(len(g)))
    return tuple(groups[gi][j] for _, gi, j in keyed)


def _sparse(rng, size, top):
    idx = np.sort(rng.choice(top, size=size, replace=False) + 1)
    return [int(n) for n in idx]


def _ladder(rng) -> Workload:
    files = {"f6b.json": LADDER_F6B}
    groups = []
    for limit in LADDER_LIMITS:
        requests = []
        groups.append(requests)
        for rung in range(LADDER_REPEATS[limit]):
            for m in LADDER_MS:
                for alpha in LADDER_ALPHAS:
                    if alpha == "0.45" and rung == 0:
                        name = "f6b.json"
                    else:
                        # unit-modulus coefficients on 1, 2, 3 with seeded phases:
                        # |f|, and hence the quotient, match the 6b polynomial
                        name = f"f{len(files)}.json"
                        phases = rng.uniform(0.0, 2.0 * math.pi, 3)
                        files[name] = [(n, math.cos(t), math.sin(t))
                                       for n, t in zip((1, 2, 3), phases)]
                    requests.append(Request("multiplier-estimate", (
                        "multiplier-estimate", "--input", name, "--m", str(m),
                        "--alpha", alpha, "--prime-limit", str(limit))))
    warmup = (Request("multiplier-estimate", (
        "multiplier-estimate", "--input", "f6b.json", "--m", "10",
        "--alpha", "0.45", "--prime-limit", "100000")),)
    return Workload("ladder", files, _spread(groups), warmup)


def _dual(rng) -> Workload:
    files = {}
    groups = {}
    for support, draws in DUAL_DRAWS.items():
        for draw in range(draws):
            idx = _sparse(rng, support, DUAL_RANGE)
            for shape in ("decreasing", "random"):
                name = f"b{support}{shape[0]}{draw}.json"
                if shape == "decreasing":
                    if support == DUAL_FIXED_SUPPORT:
                        idx_d = _sparse(np.random.default_rng([DUAL_RANGE, support]), support, DUAL_RANGE)
                    else:
                        idx_d = idx
                    rows = [(n, float(n) ** -0.8, 0.0) for n in idx_d]
                else:
                    rows = [(n, float(v), 0.0) for n, v in zip(idx, rng.uniform(0.05, 1.0, support))]
                files[name] = rows
                for p in P_SET:
                    if p == "3" and shape == "decreasing" and draw >= DUAL_P3_DRAWS:
                        continue
                    groups.setdefault((support, shape, p), []).append(
                        Request("dual-norm", ("dual-norm", "--p", p, "--input", name)))
    for k in range(DUAL_ORACLES):
        name = f"o{k}.json"
        support = 3 + k % 4
        idx = _sparse(rng, support, DUAL_RANGE)
        files[name] = [(n, float(v), 0.0) for n, v in zip(idx, rng.uniform(0.05, 1.0, support))]
        groups.setdefault("oracle", []).append(Request("dual-oracle", (
            "dual-norm", "--p", P_SET[k % 3], "--input", name, "--oracle",
            "--restarts", "4", "--seed", str(int(rng.integers(1 << 16))))))
    files["warm.json"] = [(n, float(n) ** -0.8, 0.0) for n in range(1, 21)]
    warmup = (Request("dual-norm", ("dual-norm", "--p", "2", "--input", "warm.json")),
              Request("dual-oracle", ("dual-norm", "--p", "2", "--input", "o0.json",
                                      "--oracle", "--restarts", "1")))
    return Workload("dual", files, _spread(list(groups.values())), warmup)


def _cli_mix(rng) -> Workload:
    files = {}
    small = []
    for k in range(CLI_MIX_SMALL_FILES):
        name = f"s{k}.json"
        size = int(rng.integers(1, 33))
        top = (100, 1000, 10_000)[k % 3]
        idx = _sparse(rng, min(size, top), top)
        files[name] = [(n, re, im) for n, (re, im) in zip(idx, _complex_values(rng, len(idx)))]
        small.append(name)
    ints = []
    for k in range(CLI_MIX_INT_FILES):
        name = f"z{k}.json"
        size = int(rng.integers(1, 17))
        idx = _sparse(rng, size, 200)
        re = rng.integers(-9, 10, size)
        im = rng.integers(-9, 10, size)
        re[(re == 0) & (im == 0)] = 1
        files[name] = [(n, float(a), float(b)) for n, a, b in zip(idx, re, im)]
        ints.append(name)

    def pick(names):
        return names[int(rng.integers(len(names)))]

    def p_pick():
        return P_SET[int(rng.integers(3))]

    build = {
        "norm-ces": lambda: ("norm", "--space", "ces", "--p", p_pick(), "--input", pick(small)),
        "norm-lp": lambda: ("norm", "--space", "lp", "--p", p_pick(), "--input", pick(small)),
        "norm-dq": lambda: ("norm", "--space", "dq", "--p", p_pick(), "--input", pick(small)),
        "norm-ar": lambda: ("norm", "--space", "ar", "--r", ("0.25", "0.5", "1.0")[int(rng.integers(3))],
                            "--input", pick(small)),
        "dual-norm": lambda: ("dual-norm", "--p", p_pick(), "--input", pick(small)),
        "eval": lambda: ("eval", "--input", pick(small), "--sigma", ("0.75", "1.0", "1.5")[int(rng.integers(3))],
                         "--t", ("0.0", "0.5", "3.0")[int(rng.integers(3))]),
        "convolve": lambda: ("convolve", "--input", pick(ints), "--with", pick(ints),
                             "--limit", ("1000", "10000", "40000")[int(rng.integers(3))]),
        "project": lambda: ("project", "--input", pick(small + ints), "--r", ("2", "3", "5", "8")[int(rng.integers(4))]),
        "schur-finite": lambda: ("schur-test", "--kind", "finite", "--p", p_pick(), "--input", pick(small)),
        "delta-bounds": lambda: _delta_bounds(rng),
        # sigma = 1 only: below it the enclosure width is set by the analytic
        # termwise tail bracket, not by the numerics the benchmark follows
        "delta-exact": lambda: ("delta-norm", "--p", "2", "--exact", "--sigma", "1.0",
                                "--terms", DELTA_TERMS[int(rng.integers(2))]),
    }
    requests = [Request(kind, build[kind]()) for kind, count in CLI_MIX_COUNTS.items()
                for _ in range(count)]
    for k in range(CLI_MIX_LARGE):
        name = f"g{k}.json"
        top = round(10.0 ** (6.0 + k / (CLI_MIX_LARGE - 1)) * (1.0 + 0.01 * rng.uniform(-1.0, 1.0)))
        head = int(rng.integers(1, 101))
        files[name] = [(n, re, im) for n, (re, im) in zip((head, top), _complex_values(rng, 2))]
        requests.append(Request("norm-ces", ("norm", "--space", "ces", "--p", "2", "--input", name)))
    # warm up on the first small request of each kind
    warmup = tuple(next(r for r in requests if r.kind == kind) for kind in CLI_MIX_COUNTS)
    order = rng.permutation(len(requests))
    return Workload("cli-mix", files, tuple(requests[i] for i in order), warmup)


def _delta_bounds(rng):
    p = P_SET[int(rng.integers(3))]
    sigma = DELTA_SIGMAS[p][int(rng.integers(3))]
    return ("delta-norm", "--p", p, "--sigma", sigma, "--terms", DELTA_TERMS[int(rng.integers(2))])


def build(name: str, seed: int) -> Workload:
    """The workload ``name`` for ``seed``; equal arguments give equal workloads."""
    if name not in _STREAM:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = np.random.default_rng([seed, _STREAM[name]])
    return {"ladder": _ladder, "dual": _dual, "cli-mix": _cli_mix}[name](rng)


def write_files(workload: Workload, directory: str) -> None:
    for name, rows in workload.files.items():
        payload = {"coeffs": [{"n": n, "re": re, "im": im} for n, re, im in rows]}
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def resolve(argv, workload: Workload, directory: str) -> list:
    """argv with every file name replaced by its path under ``directory``."""
    return [os.path.join(directory, a) if a in workload.files else a for a in argv]
