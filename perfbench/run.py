"""cqca benchmark: one seeded workload, timed, checked, one JSON line out.

Usage (from the repository root):

    python3 perfbench/run.py --workload orbit --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it measures the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it runs a fixed set of the workload's rounds twice, once
plain and once with every cqca layer wrapped in spans, and reports the
per-layer metrics.  The last line of stdout is the result object; the line
before it is the provenance record.  The package under test is imported
from ``src/`` next to this directory and nowhere else.  See README.md here
for why each workload exists and which layer metric moves which end-to-end
metric.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

PROCESS_START = time.perf_counter()

# One BLAS/OpenMP thread for this process and the import probes it starts;
# set before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

MIN_OPS = 100
SETUP_REPEATS = 5
# No new round starts after this much wall time, so a run ends well within
# three minutes even when the program under test is far slower than today.
WALL_LIMIT_S = 140.0
# Rounds the traced run covers, after the workload's prologue; fixed so
# that its counts repeat exactly for a seed.
TRACE_ROUNDS = {"orbit": 2, "words": 6, "referee": 3}


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        fail(f"cannot read {path}: {exc}")


def import_cqca():
    """Import the package from src/ of this checkout, or stop."""
    if not os.path.isfile(os.path.join(SRC, "cqca", "__init__.py")):
        fail(f"no cqca sources under {SRC}")
    sys.path.insert(0, SRC)
    import cqca
    import cqca.cli
    import cqca.oracle

    where = os.path.dirname(os.path.abspath(cqca.__file__))
    if os.path.dirname(where) != os.path.abspath(SRC):
        fail(f"cqca was imported from {where}, not from {SRC}")
    return cqca


def time_fresh_imports(entry: str, probe) -> list:
    """(start, end) clock readings of new interpreters importing the entry module."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); import {entry}"
    argv = [sys.executable, "-c", code]
    return [
        timed(probe, lambda: subprocess.run(argv, check=True, timeout=60, env=os.environ.copy()))
        for _ in range(SETUP_REPEATS)
    ]


def provenance(cqca, args, extra) -> dict:
    import hashlib
    from importlib import metadata

    import numpy

    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "cqca")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):  # a plain source tree has none
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except OSError:
            pass
    try:
        sympy_version = metadata.version("sympy")
    except metadata.PackageNotFoundError:
        sympy_version = None
    kernels = sys.modules.get("cqca.kernels")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "sympy": sympy_version,
        "backend": kernels.backend() if kernels is not None and hasattr(kernels, "backend") else None,
        "cqca": getattr(cqca, "__version__", None),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        **extra,
    }


class Tally:
    """Per-op (start, end) wall clock readings, op kinds and failures of one pass."""

    def __init__(self):
        self.spans = []
        self.kinds = []
        self.failed = 0

    @property
    def attempted(self):
        return len(self.spans)


def wall(spans) -> list:
    return [end - start for start, end in spans]


def at_reference_speed(spans, probe) -> list:
    return [probe.scale(start, end) for start, end in spans]


def timed(probe, fn):
    """Run fn; returns its (start, end) wall clock readings."""
    probe.tick()
    t0 = time.perf_counter()
    fn()
    t1 = time.perf_counter()
    probe.tick()
    return t0, t1


def run_op(op, tally, probe, tracer=None, tamper=False) -> bool:
    """Time one op, then check it outside the timed region; True if right."""
    probe.tick()
    if tracer is not None:
        tracer.begin_op()
    t0 = time.perf_counter()
    try:
        result = op.run()
        ran = True
    except Exception:
        ran = False
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.end_op()
        tracer.pause()
    probe.tick()
    tally.spans.append((t0, t1))
    tally.kinds.append(op.kind)
    try:
        ok = ran and bool(op.check(op.tamper(result) if tamper else result))
    except Exception:
        ok = False
    finally:
        if tracer is not None:
            tracer.resume()
    if not ok:
        tally.failed += 1
    return ok


def measure(workload, seconds, probe):
    """Whole rounds until `seconds` of op wall time and MIN_OPS ops have passed."""
    tally = Tally()
    rounds = 0
    for op in workload.prologue():
        run_op(op, tally, probe)
    while True:
        for op in workload.build_round(rounds):
            run_op(op, tally, probe)
        rounds += 1
        if sum(wall(tally.spans)) >= seconds and tally.attempted >= MIN_OPS:
            break
        if time.perf_counter() - PROCESS_START > WALL_LIMIT_S:
            break
    return tally, rounds


def trace_ops(workload):
    ops = list(workload.prologue())
    for j in range(TRACE_ROUNDS[workload.name]):
        ops.extend(workload.build_round(j))
    return ops


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description="cqca benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cqca = import_cqca()
    import workloads
    from speed import SpeedProbe

    cls = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        probe = SpeedProbe()
        setup = {
            "import": time_fresh_imports(cls.entry, probe),
            "build_round": [
                timed(probe, lambda: cls(args.seed, cqca, workdir).build_round(0))
                for _ in range(SETUP_REPEATS)
            ],
        }
        workload = cls(args.seed, cqca, workdir)
        if args.trace:
            metrics, tally, extra = traced_run(workload, spec, args, probe)
        else:
            tally, rounds = measure(workload, args.seconds, probe)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            tally.failed += workload.deferred_failures()
            # Reported at the reference speed; the raw wall-time values go to
            # the provenance record.
            def metrics_from(times):
                setup_s = sum(statistics.median(times(spans)) for spans in setup.values())
                return end_to_end(tally, times(tally.spans), setup_s, peak_rss_mb)

            values = metrics_from(lambda spans: at_reference_speed(spans, probe))
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
            extra = {"rounds": rounds, "wall_metrics": metrics_from(wall)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    by_kind = {}
    for kind, t in zip(tally.kinds, at_reference_speed(tally.spans, probe)):
        by_kind.setdefault(kind, []).append(t)
    extra.update(
        ops=tally.attempted,
        op_ms_by_kind={k: [len(v), round(1e3 * statistics.median(v), 3)] for k, v in sorted(by_kind.items())},
        setup_s={
            name: {"wall": wall(spans), "reference": at_reference_speed(spans, probe)}
            for name, spans in setup.items()
        },
        speed_probe_ms={
            "median": 1e3 * statistics.median(probe.samples),
            "min": 1e3 * min(probe.samples),
            "max": 1e3 * max(probe.samples),
            "samples": len(probe.samples),
        },
    )
    record = provenance(cqca, args, extra)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump({"provenance": record, "result": result}, fh, indent=1)
    print(json.dumps({"provenance": record}))
    print(json.dumps(result))
    return 0


def end_to_end(tally, times, setup_s, peak_rss_mb) -> dict:
    return {
        "setup_s": setup_s,
        "ops_per_s": tally.attempted / sum(times),
        "op_p50_ms": 1e3 * statistics.median(times),
        "op_p90_ms": 1e3 * statistics.quantiles(times, n=10)[8],
        "peak_rss_mb": peak_rss_mb,
        "success_rate": (tally.attempted - tally.failed) / tally.attempted,
    }


def traced_run(workload, spec, args, probe):
    """The workload's fixed trace rounds, plain and then traced."""
    from spans import Tracer

    ops = trace_ops(workload)
    plain = Tally()
    for op in ops:
        run_op(op, plain, probe)
    tracer = Tracer()
    tracer.install()
    traced = Tally()
    try:
        for op in ops:
            run_op(op, traced, probe, tracer)
    finally:
        tracer.uninstall()
    traced.failed += plain.failed + workload.deferred_failures()
    values = tracer.summarize()
    values["trace.overhead_pct"] = 100.0 * (
        sum(at_reference_speed(traced.spans, probe)) / sum(at_reference_speed(plain.spans, probe)) - 1.0
    )
    tracer.write(os.path.join(OUT, f"spans-{args.workload}.npz"))
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in spec["per_layer"]
    }
    traced.spans = plain.spans + traced.spans
    traced.kinds = plain.kinds + traced.kinds
    with open(os.path.join(OUT, f"layers-{args.workload}.json"), "w", encoding="utf-8") as fh:
        json.dump(values, fh, indent=1, sort_keys=True)
    return metrics, traced, {"trace_rounds": TRACE_ROUNDS[workload.name]}


if __name__ == "__main__":
    sys.exit(main())
