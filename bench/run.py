"""End-to-end benchmark of the `xq` command.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`.  One client drives `xq.cli.run` in this process and thread, in a
closed loop: an op starts when the previous one has returned.  The
workload's fixed op list (see `inputs.py`) is generated from the seed
before timing starts and is then run pass after pass until S seconds have
gone by, and at least MIN_PASSES times.  Every op's exit code and
mathematical result are checked by `outcomes.py` outside the timed region.
Times are in reference seconds (see `speed.py`).

With `--trace 0` the last line of output reports the end-to-end metrics:
wall_s (median time of one pass over the op list), op_p50_ms, op_tail_ms
(the percentile in TAIL_PERCENTILE), setup_s (median time to import the
package in a fresh interpreter) and peak_rss_mb.  With `--trace 1` the
passes of the first half of the run are untraced, then one pass runs with
spans around every layer in `tracing.LAYERS`, then the layer sweeps run
untraced; the last line reports the per-layer metrics.  The line above it
describes the machine and the run.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import inspect
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import speed
from inputs import WORKLOADS, build_ops
from outcomes import judge
from tracing import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

# The highest percentile with at least ten op samples beyond it at the
# sample count of one run at the seed commit (about 15-20 on classify_box,
# 150-200 on check_files), fixed so that faster code that completes more
# passes is read at the same percentile.  On homotopy_pairs (about 2000
# samples) p99 read host stalls, +70 % in one run of ten, so the tail is
# p90, inside the slowest group of ops (same-class rqc4 homotopic).
TAIL_PERCENTILE = {"classify_box": 50, "check_files": 90, "homotopy_pairs": 90}
MIN_PASSES = 3
SETUP_SAMPLES = 11
HOM_EVAL_EXPONENTS = range(1, 7)
ENUMERATION_BOXES = ((3, 10), (5, 30), (8, 60))


def import_cli():
    """`xq.cli` from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, SRC)
    import xq.cli
    if not os.path.abspath(xq.cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"xq imported from {xq.cli.__file__}, not {SRC}")
    return xq.cli


def measure_setup() -> float:
    """Median reference seconds to import `xq.cli` in a fresh interpreter.
    The calibration loop is defined in the child from source and timed
    right after the import, so that the child imports and allocates nothing
    before `xq`.  The first interpreter is not counted: it may write the
    bytecode cache."""
    code = "\n".join([
        "from time import perf_counter",
        "t0 = perf_counter()",
        "import xq.cli",
        "elapsed = perf_counter() - t0",
        f"LOOP_ITERATIONS = {speed.LOOP_ITERATIONS}",
        f"TABLE_BITS = {speed.TABLE_BITS}",
        inspect.getsource(speed.make_table),
        inspect.getsource(speed.calibrate),
        "table = make_table()",
        "print(elapsed, calibrate(table), calibrate(table))"])
    env = {k: v for k, v in os.environ.items() if k != "XQ_SEED"}
    env["PYTHONPATH"] = SRC
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                             capture_output=True, text=True, check=True,
                             timeout=120)
        elapsed, first, second = map(float, out.stdout.split())
        if i:
            samples.append(elapsed * speed.REFERENCE_S / ((first + second) / 2))
    return statistics.median(samples)


class Run:
    """Latencies and outcomes of the passes of one run."""

    def __init__(self, cli, ops):
        self.cli = cli
        self.ops = ops
        self.meter = speed.Meter()
        self.latencies: list[float] = []  # every untraced op, reference s
        self.pass_walls: list[float] = []  # reference s
        self.pass_walls_raw: list[float] = []
        self.outcomes: list[list] = []
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.defects: list[str] = []

    def _call(self, op):
        def call():
            try:
                return self.cli.run(list(op.argv))
            except Exception as e:  # an escaping exception is a failed op
                return type(e).__name__
        return call

    def one_pass(self, tracer: Tracer | None = None) -> tuple[float, float]:
        """Run the op list once; return its (raw, reference) seconds."""
        gc.collect()
        raw_wall = ref_wall = 0.0
        outcomes = []
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op_id = i
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                raw, ref, code = self.meter.measure(
                    self._call(op), sample_inside=tracer is None)
            raw_wall += raw
            ref_wall += ref
            outcomes.append(code)
            self.attempted += 1
            why = judge(op, code)
            if why is not None:
                self.failed += 1
                note = f"{' '.join(op.argv[:2])}: {why}"
                (self.defects if op.known_defect else self.unexpected).append(note)
            if tracer is None:
                self.latencies.append(ref)
        if tracer is not None:
            tracer.op_id = -1
        else:
            self.pass_walls.append(ref_wall)
            self.pass_walls_raw.append(raw_wall)
        self.outcomes.append(outcomes)
        return raw_wall, ref_wall

    def until(self, deadline: float, min_passes: int = MIN_PASSES) -> None:
        """Passes until the deadline, and at least `min_passes`."""
        while (len(self.pass_walls) < min_passes
               or time.perf_counter() < deadline):
            self.one_pass()


def end_to_end(run: Run, workload: str, setup_s: float) -> dict:
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tail = statistics.quantiles(run.latencies, n=100)[TAIL_PERCENTILE[workload] - 1]
    return {
        "wall_s": {"value": statistics.median(run.pass_walls), "unit": "s"},
        "op_p50_ms": {"value": 1000 * statistics.median(run.latencies),
                      "unit": "ms"},
        "op_tail_ms": {"value": 1000 * tail, "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
    }


def sweep_names() -> list[str]:
    return ([f"groups.hom_eval_e{k}_s" for k in HOM_EVAL_EXPONENTS]
            + [f"sphere.enumerate_{a}_{r}_s" for a, r in ENUMERATION_BOXES])


def sweeps(meter: speed.Meter) -> tuple[dict, list[str]]:
    """Layer sweeps: homomorphism evaluation against exponent size, and
    retraction enumeration against box size.  Returns reference seconds
    per point and the points whose result was wrong."""
    from xq.sphere import build_cylinder_Q, build_sphere_D, enumerate_retractions
    d = build_sphere_D()
    q = build_cylinder_Q(d)
    times, wrong = [], []
    for k in HOM_EVAL_EXPONENTS:
        x = d.q3.canon((10 ** k,))
        gc.collect()
        _, ref, y = meter.measure(lambda: d.d3(x))
        times.append(ref)
        if not d.q2.is_identity(y):  # d3 of D is zero
            wrong.append(f"d3(10^{k} w(e,e)) = {y}")
    for a, r in ENUMERATION_BOXES:
        gc.collect()
        _, ref, kept = meter.measure(lambda: enumerate_retractions(q, d, a, r))
        times.append(ref)
        if sorted(m.tag for m in kept) != sorted(
                (x, 1 - x, s) for x in (0, 1) for s in range(-r, r + 1)):
            wrong.append(f"enumeration {a}/{r} kept {len(kept)}")
    return dict(zip(sweep_names(), times)), wrong


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bits_max"):
        return "bits"
    if name == "structfile.bytes_read":
        return "bytes"
    return "count"


def per_layer(run: Run, workload: str, seed: int) -> tuple[dict, list[str]]:
    """Per-layer metrics from one traced pass, then the sweeps.  Self times
    are scaled to reference seconds by the traced pass's own speed."""
    tracer = Tracer()
    tracer.install()
    try:
        raw_wall, ref_wall = run.one_pass(tracer)
    finally:
        tracer.uninstall()
    tracer.write(os.path.join(WORK, f"spans-{workload}-{seed}.bin"))
    values = tracer.metrics()
    for name in values:
        if name.endswith(".self_s"):
            values[name] *= ref_wall / raw_wall
    values["trace_overhead_ratio"] = ref_wall / statistics.median(run.pass_walls)
    swept, wrong = sweeps(run.meter)
    values.update(swept)
    return ({name: {"value": value, "unit": layer_unit(name)}
             for name, value in values.items()}, wrong)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    started = time.perf_counter()
    cli = import_cli()
    os.environ.pop("XQ_SEED", None)  # sampling seeds stay at their default
    ops = build_ops(args.workload, args.seed, ROOT,
                    os.path.join(WORK, f"{args.workload}-{args.seed}"))
    run = Run(cli, ops)
    wrong: list[str] = []
    if args.trace:
        run.until(time.perf_counter() + args.seconds / 2, min_passes=1)
        metrics, wrong = per_layer(run, args.workload, args.seed)
    else:
        setup_s = measure_setup()
        run.until(time.perf_counter() + args.seconds)
        metrics = end_to_end(run, args.workload, setup_s)

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "machine": {"nproc": os.cpu_count(),
                        "python": platform.python_version(),
                        "implementation": platform.python_implementation(),
                        "platform": platform.platform()},
            "ops_per_pass": len(ops), "latency_samples": len(run.latencies),
            "op_tail_percentile": TAIL_PERCENTILE[args.workload],
            "pass_wall_s": run.pass_walls, "pass_wall_raw_s": run.pass_walls_raw,
            "elapsed_s": time.perf_counter() - started,
            "unexpected_failures": sorted(set(run.unexpected + wrong)),
            "known_defect_failures": sorted(set(run.defects))}
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": not run.unexpected and not wrong,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
