"""Tests of the benchmark harness itself.

    python3 -m pytest bench/test_bench.py

Each test runs one or two passes of a workload in process; the classify
workload is cut to its count, monoid and first classify op to keep the
suite short.
"""

from __future__ import annotations

import json
import os
import signal

import pytest

import speed

from inputs import WORKLOADS, build_ops
from outcomes import judge
from run import ROOT, Run, import_cli, layer_unit, sweep_names
from tracing import CALL_METRICS, COUNTERS, MAXIMA, Tracer

CLI = import_cli()


@pytest.fixture(autouse=True)
def _default_sampling_seed(monkeypatch):
    monkeypatch.delenv("XQ_SEED", raising=False)


def _ops(workload: str, seed: int, tmp_path) -> list:
    ops = build_ops(workload, seed, ROOT, str(tmp_path / f"{workload}-{seed}"))
    if workload == "classify_box":
        classify = [op for op in ops if op.kind == "classify"]
        ops = [op for op in ops if op.kind != "classify"] + classify[:1]
    return ops


def _traced_pass(run: Run) -> Tracer:
    tracer = Tracer()
    tracer.install()
    try:
        run.one_pass(tracer)
    finally:
        tracer.uninstall()
    return tracer


def _counts(tracer: Tracer) -> dict:
    metrics = tracer.metrics()
    names = ([f"{n}.calls" for n in CALL_METRICS] + list(COUNTERS)
             + list(MAXIMA) + ["sphere.keep_ratio"])
    return {name: metrics[name] for name in names}


@pytest.mark.parametrize("workload", ["classify_box", "check_files",
                                      "homotopy_pairs"])
def test_traced_and_untraced_outcomes_match(workload, tmp_path):
    run = Run(CLI, _ops(workload, 3, tmp_path))
    run.one_pass()
    failed_untraced = run.failed
    _traced_pass(run)
    assert run.outcomes[0] == run.outcomes[1]
    assert run.failed == 2 * failed_untraced
    assert not run.unexpected


@pytest.mark.parametrize("workload", ["check_files", "homotopy_pairs"])
def test_traced_counts_repeat_on_one_seed(workload, tmp_path):
    counts = []
    for attempt in ("a", "b"):
        run = Run(CLI, _ops(workload, 5, tmp_path / attempt))
        counts.append(_counts(_traced_pass(run)))
    assert counts[0] == counts[1]
    assert counts[0]["quadratic.qcm_check.calls"] > 0


def test_tracing_restores_every_binding_site():
    import xq
    import xq.quadratic
    import xq.sphere
    original = xq.quadratic.qcm_check
    tracer = Tracer()
    tracer.install()
    try:
        for module in (xq, xq.quadratic, xq.sphere, xq.cli):
            assert module.qcm_check is not original
    finally:
        tracer.uninstall()
    for module in (xq, xq.quadratic, xq.sphere, xq.cli):
        assert module.qcm_check is original


def test_malformed_files_count_as_failed_not_as_harness_crash(tmp_path):
    ops = [op for op in _ops("check_files", 7, tmp_path) if op.known_defect]
    assert len(ops) == 3
    run = Run(CLI, ops)
    run.one_pass()
    assert run.attempted == 3
    assert not run.unexpected
    met = sum(code == 2 for code in run.outcomes[0])
    assert run.failed == 3 - met == len(run.defects)


class _RaisingCli:
    @staticmethod
    def run(argv):
        raise TypeError("escaped")


def test_escaping_exception_is_a_failed_op(tmp_path):
    ops = _ops("homotopy_pairs", 1, tmp_path)[:1]
    run = Run(_RaisingCli, ops)
    run.one_pass()
    assert run.outcomes == [["TypeError"]]
    assert run.failed == 1 and len(run.unexpected) == 1


def test_missing_report_fails_the_op(tmp_path):
    op = _ops("classify_box", 1, tmp_path)[0]
    assert judge(op, 0).startswith("unreadable result")


def test_wrong_witness_fails_the_oracle(tmp_path):
    ops = [op for op in _ops("homotopy_pairs", 2, tmp_path)
           if op.kind == "homotopic" and "witness" in op.expect][:1]
    run = Run(CLI, ops)
    run.one_pass()
    assert run.failed == 0
    ops[0].expect["witness"] = {"alpha2": [[0], [0], [0]], "alpha3": []}
    run.one_pass()
    assert run.failed == 1


def test_benchmark_json_names_what_a_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    reported = (list(Tracer().metrics()) + ["trace_overhead_ratio"]
                + sweep_names())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: layer_unit(name) for name in reported}


def test_meter_scales_the_calibration_loop_to_about_the_reference():
    meter = speed.Meter()
    table = speed.make_table()
    refs = sorted(meter.measure(lambda: speed.calibrate(table))[1]
                  for _ in range(21))
    assert 0.5 * speed.REFERENCE_S < refs[10] < 2 * speed.REFERENCE_S


def test_meter_disarms_its_timer_when_the_region_raises():
    before = signal.getsignal(signal.SIGALRM)

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        speed.Meter().measure(boom)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
