"""Tests of the benchmark's own machinery.

    PYTHONPATH=src python3 -m pytest -q benchmarks
"""

from __future__ import annotations

import io
import json
import math
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_inputs_deterministic_per_seed(workload, tmp_path):
    a, b = inputs.build(workload, 7), inputs.build(workload, 7)
    assert a == b
    assert inputs.build(workload, 8) != a
    for d in ("x", "y"):
        (tmp_path / d).mkdir()
        inputs.write_files(a, str(tmp_path / d))
    for name in a.files:
        assert (tmp_path / "x" / name).read_bytes() == (tmp_path / "y" / name).read_bytes()
    assert all(f in a.files for r in a.requests + a.warmup
               for f in r.argv if f.endswith(".json"))


def _originals():
    return {f"{m.__name__}.{attr}": val for m in tracing.package_modules()
            for attr, val in vars(m).items() if callable(val)}


def test_traced_pass_restores_every_binding(tmp_path):
    from cesdirichlet import cli, kernels, sequences

    wl = inputs.build("cli-mix", 0)
    inputs.write_files(wl, str(tmp_path))
    argvs = [inputs.resolve(r.argv, wl, str(tmp_path)) for r in wl.warmup]
    before = _originals()
    caches = run.find_caches()
    recorder = tracing.Recorder()
    with pytest.raises(KeyboardInterrupt):
        with tracing.patched(recorder):
            # the library's own modules and the package namespace see the wrapper
            assert sequences.zeta_tail is kernels.zeta_tail
            assert hasattr(sequences.zeta_tail, "bench_original")
            assert len(tracing.wrapped_bindings()) > len(tracing.TARGETS)
            traced = run.run_pass(cli, argvs, caches, recorder)
            raise KeyboardInterrupt
    assert tracing.wrapped_bindings() == []
    assert _originals() == before
    assert not any(traced.errors)
    names = {s.name for s in recorder.spans}
    assert {"cli.parse_and_dispatch", "sequences.ces_norm", "kernels.zeta_tail"} <= names
    by_id = {s.sid: s for s in recorder.spans}
    for s in recorder.spans:
        if s.name == "sequences.ces_norm":
            assert by_id[s.parent].name == "cli.parse_and_dispatch"
            assert by_id[s.parent].request == s.request


def test_self_times_on_synthetic_tree():
    S = tracing.Span
    spans = [
        S(0, "root", None, 0, 0.0, 10.0),
        S(1, "a", 0, 0, 1.0, 4.0),
        S(2, "a.x", 1, 0, 1.5, 2.0),
        S(3, "a.y", 1, 0, 2.5, 3.5),
        S(4, "b", 0, 0, 5.0, 9.0),
        S(5, "b.x", 4, 0, 4.0, 6.0),   # starts before its parent: only 5..6 counts
        S(6, "b.y", 4, 0, 5.5, 7.0),   # overlaps b.x: the union is counted once
        S(7, "other", None, 1, 20.0, 21.0),
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx([10 - 3 - 4, 3 - 0.5 - 1, 0.5, 1.0, 4 - 2, 2.0, 1.5, 1.0])
    rec = tracing.Recorder()
    rec.spans = spans
    assert rec.layers()["a"] == (1, pytest.approx(1.5))


def test_speed_scale_uses_nearby_loops():
    speed = run.Speed()
    speed.at = [0.0, 1.0, 2.0, 10.0]
    speed.took = [run.CAL_REF_S * k for k in (1.0, 2.0, 2.0, 4.0)]
    # the loops within CAL_WINDOW_S of the interval
    assert speed.scale(1.0, 2.0) == pytest.approx(0.5)
    assert speed.scale(-0.4, 0.6) == pytest.approx(2 / 3)
    # none that close: the nearest loop
    assert speed.scale(6.0, 6.1) == pytest.approx(0.25)
    assert speed.scale(20.0, 21.0) == pytest.approx(0.25)


def test_counters_repeat_from_arguments():
    from cesdirichlet import CoeffSeq, Exponent, jagers_dual_norm

    rec = tracing.Recorder()
    wrapped = rec.wrap("dual.jagers_dual_norm", jagers_dual_norm, tracing._jagers_counts)
    b = CoeffSeq.from_pairs([(1, 3.0), (4, 2.0), (9, 1.0)])
    trace = wrapped(b, Exponent.from_p(2.0))
    finite = [c for c in trace.m_chain if not math.isinf(c)]
    positions = [list(b.idx).index(c) for c in finite]
    assert rec.counters["dual.jagers_dual_norm.candidates_scanned"] == sum(3 - k for k in positions)
    assert rec.spans[0].end >= rec.spans[0].start


def test_checks_reject_a_wrong_enclosure():
    rows = [(2, 1.0, 0.0), (7, -0.5, 0.25)]
    checker = checks.Checker({"a.json": rows})
    v = float(checker.ces_value(rows, 2.0))
    argv = ("norm", "--space", "ces", "--p", "2", "--input", "a.json")

    def out(lo, hi):
        return json.dumps({"records": [{"value": {"lo": lo, "hi": hi}}]})

    assert checker.check("norm-ces", argv, out(v * (1 - 1e-9), v * (1 + 1e-9)))
    with pytest.raises(checks.CheckFailed):
        checker.check("norm-ces", argv, out(v * (1 + 1e-6), v * (1 + 2e-6)))


def test_missing_sources_exit_nonzero(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert run.main(["--workload", "dual"]) != 0
    assert buf.getvalue() == ""
