"""bellopt benchmark: four closed-loop workloads at the paper's own scales.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload spin-ensemble --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload variant-scan --seed 1 --seconds 20 --trace 1
    python3 benchmarks/run.py --smoke          # every workload once, at toy size

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` records spans
around every call into a ``bellopt`` module and reports the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details (provenance, latency percentiles, failures, per-module
self time).  Both, and the spans of a traced run, are also written under
``.bench_out/``.  See ``benchmarks/README.md`` for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: BLAS threads of this process and of every process it starts.  With the
#: default (one per core) a single cutoff-6 photon-pair model call varied
#: several-fold within one process on a 2-core machine; one thread made it
#: both faster and steadier.  No workload runs BLAS calls large enough to
#: gain from more threads.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: child processes that each time import plus input building for ``setup_s``
SETUP_SAMPLES = 7

#: ``units_per_s`` is the median rate over windows of whole sessions, each at
#: least this share of the run: on a shared machine a burst of foreign load
#: slows a few windows, while a slower program slows all of them
WINDOW_SHARE = 0.1

#: (metric, span name, scale to the unit, unit) of the per-layer timings
LAYER_TIMINGS = (
    ("sources.spdc_distribution.c4_ms", "sources.spdc_distribution.c4", 1e3, "ms"),
    ("sources.spdc_distribution.c6_ms", "sources.spdc_distribution.c6", 1e3, "ms"),
    ("sources.nv_distribution_us", "sources.nv_distribution", 1e6, "us"),
    ("simulate.run_ensemble_us_per_run", "simulate.run_ensemble", 1e6, "us"),
    ("simulate.write_histogram_csv_ms", "simulate.write_histogram_csv", 1e3, "ms"),
    ("variance.analytic_covariance_us", "variance.analytic_covariance", 1e6, "us"),
    ("variance.optimal_variant_us", "variance.optimal_variant", 1e6, "us"),
    ("variance.std_dev_us", "variance.std_dev", 1e6, "us"),
    ("variance.mc_covariance_us_per_run", "variance.mc_covariance", 1e6, "us"),
    ("relabel.act_us", "relabel.act", 1e6, "us"),
    ("relabel.group_axioms_hold_ms", "relabel.group_axioms_hold", 1e3, "ms"),
    ("relabel.cayley_checksum_ms", "relabel.cayley_checksum", 1e3, "ms"),
    ("relabel.invariance_report_ms", "relabel.invariance_report", 1e3, "ms"),
    ("relabel.commutant_dimension_ms", "relabel.commutant_dimension", 1e3, "ms"),
    ("space.decompose_us", "space.decompose", 1e6, "us"),
    ("space.check_distribution_us", "space.check_distribution", 1e6, "us"),
    ("inequalities.ns_equivalent_us", "inequalities.ns_equivalent", 1e6, "us"),
    ("cli.catalog_s", "cli.catalog", 1.0, "s"),
    ("cli.model_nv_s", "cli.model_nv", 1.0, "s"),
    ("cli.model_spdc_s", "cli.model_spdc", 1.0, "s"),
    ("cli.decompose_s", "cli.decompose", 1.0, "s"),
    ("cli.group_verify_s", "cli.group_verify", 1.0, "s"),
    ("cli.optimize_s", "cli.optimize", 1.0, "s"),
    ("cli.simulate_s", "cli.simulate", 1.0, "s"),
)


class OpTimeout(Exception):
    """An operation ran past its time limit."""


@contextmanager
def time_limit(seconds: float):
    """Raise ``OpTimeout`` in the main thread after ``seconds``.

    Python-level loops are interrupted at once; a long native call is
    interrupted when it returns to the interpreter.
    """
    def expire(signum, frame):
        raise OpTimeout(f"operation exceeded {seconds:g} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_loop(wl, seconds: float, first_op: int, smoke: bool) -> dict:
    """Closed loop: run operations until ``seconds`` have passed (one
    session when ``smoke``), stopping only on a session boundary."""
    from workloads import CheckFailed

    latencies, failures = [], []
    units = 0
    i = first_op
    start = time.perf_counter()
    marks = [(start, 0)]  # (time, units done) at each session boundary
    while True:
        t0 = time.perf_counter()
        span = wl.tracer.begin_op(i, "harness.op")
        try:
            with time_limit(wl.op_timeout_s):
                done = wl.op(i)
        except CheckFailed as exc:
            failures.append((i, str(exc)))
        except (OpTimeout, subprocess.TimeoutExpired) as exc:
            failures.append((i, f"op {i} timed out: {exc}"))
        except Exception as exc:  # any other error fails this operation only
            failures.append((i, f"op {i}: {''.join(traceback.format_exception_only(exc)).strip()}"))
        else:
            units += done
            latencies.append(time.perf_counter() - t0)
        finally:
            wl.tracer.end_op(span)
        i += 1
        if (i - first_op) % wl.session == 0:
            marks.append((time.perf_counter(), units))
            if smoke or marks[-1][0] - start >= seconds:
                break
    return {"elapsed_s": marks[-1][0] - start, "latencies": latencies, "units": units,
            "ops": i - first_op, "failures": failures,
            "window_rates": window_rates(marks, WINDOW_SHARE * seconds)}


def window_rates(marks: list[tuple[float, int]], min_window: float) -> list[float]:
    """Units per second over consecutive windows of at least ``min_window``
    seconds, each ending on a session boundary; a shorter remainder at the
    end of the run is left out."""
    rates = []
    t0, u0 = marks[0]
    for t, u in marks[1:]:
        if t - t0 >= min_window:
            rates.append((u - u0) / (t - t0))
            t0, u0 = t, u
    return rates


def check_run(wl) -> tuple[int, list]:
    """The workload's whole-run checks, inside a span of their own."""
    span = wl.tracer.begin_op(-1, "harness.check")
    try:
        return wl.finish()
    finally:
        wl.tracer.end_op(span)


def tally(loops: list[dict], checks: list[tuple[int, list]]) -> dict:
    failures = [f for loop in loops for f in loop["failures"]]
    failures += [f for _, fs in checks for f in fs]
    failed_ops = {op for op, _ in failures if op is not None}
    run_failures = sum(1 for op, _ in failures if op is None)
    attempted = sum(loop["ops"] for loop in loops) + sum(n for n, _ in checks)
    return {"attempted": attempted, "failed": len(failed_ops) + run_failures,
            "messages": [msg for _, msg in failures]}


def setup_samples(workload: str, seed: int, first: float) -> list[float]:
    """Import plus input building, timed in fresh processes."""
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=120)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def peak_rss_mib() -> float:
    """Peak resident set size in MiB of this process or of any process it
    started (``ru_maxrss`` is in KiB on Linux)."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def blas_info() -> dict:
    import numpy as np

    info = {"env": {var: os.environ.get(var) for var in BLAS_ENV}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(vendor=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError, AttributeError):
        info.update(vendor=None, version=None)
    info["threads"] = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                break
    return info


def provenance(args) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "bellopt").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "git_sha": sha, "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas_info(),
        "blas_threads_reason": "one BLAS thread: the default (one per core) made model "
                               "calls slower and several-fold more variable on 2 cores",
    }


def metric(value: float, unit: str) -> dict:
    """A metric entry; a value that could not be measured (every operation
    failed, so ``correct`` is false) reads 0 to keep the output valid JSON."""
    return {"value": value if math.isfinite(value) else 0.0, "unit": unit}


def end_to_end(wl, loop: dict, setup: list[float]) -> tuple[dict, dict]:
    lat = tracing.latency_summary(loop["latencies"]) if loop["latencies"] else None
    metrics = {
        "units_per_s": metric(statistics.median(loop["window_rates"]) if loop["window_rates"]
                              else loop["units"] / loop["elapsed_s"], "1/s"),
        "op_p50_ms": metric(lat["p50_ms"] if lat else float("nan"), "ms"),
        "op_tail_ms": metric(lat["tail_ms"] if lat else float("nan"), "ms"),
        "peak_rss_mb": metric(peak_rss_mib(), "MiB"),
        "setup_s": metric(statistics.median(setup), "s"),
    }
    return metrics, {"latency": lat, "setup_samples_s": setup,
                     f"{wl.unit}s_per_s": metrics["units_per_s"]["value"],
                     "window_rates": loop["window_rates"],
                     "overall_rate": loop["units"] / loop["elapsed_s"]}


def self_time_and_overhead(tracer, untraced: dict, traced: dict) -> tuple[dict, float]:
    """Per-module self time per traced operation (ms), and the tracing
    overhead: the traced half's median operation latency over the untraced
    half's, in percent."""
    ops = max(traced["ops"], 1)
    self_ms = {m: t * 1e3 / ops for m, t in sorted(tracer.self_times().items())}
    if not (traced["latencies"] and untraced["latencies"]):
        return self_ms, float("nan")
    ratio = statistics.median(traced["latencies"]) / statistics.median(untraced["latencies"])
    return self_ms, (ratio - 1.0) * 100.0


def layer_metrics(tracer, counts: dict, probed: dict, overhead: float) -> dict:
    metrics = {}
    for name, span, scale, unit in LAYER_TIMINGS:
        values = tracer.per_unit(span)
        metrics[name] = metric(statistics.median(values) * scale if values else float("nan"), unit)
    metrics["sources.spdc_distribution.c6_peak_alloc_mb"] = metric(
        probed["sources.spdc_distribution.c6_peak_alloc_mb"], "MiB")
    metrics["cli.import_s"] = metric(probed["cli.import_s"], "s")
    for name, value in counts.items():
        metrics[name] = metric(value, "count")
    metrics["trace.overhead_pct"] = metric(overhead, "%")
    return metrics


def emit(result: dict, detail: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"result": result, "detail": detail}, fh, indent=2)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result, allow_nan=False), flush=True)


def measure(args, t_start: float) -> int:
    import workloads

    wl_cls = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        wl_cls(args.seed, False, tracing.Tracer(False), OUT / "setup").build()
        print(time.perf_counter() - t_start)
        return 0
    out_dir = OUT / args.workload / f"seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    wl = wl_cls(args.seed, False, tracing.Tracer(False), out_dir)
    wl.build()
    setup_first = time.perf_counter() - t_start

    detail = {"provenance": provenance(args), "unit": wl.unit}
    if args.trace == 0:
        setup = setup_samples(args.workload, args.seed, setup_first)
        loop = run_loop(wl, args.seconds, 0, smoke=False)
        counts = tally([loop], [check_run(wl)])
        metrics, extra = end_to_end(wl, loop, setup)
        detail.update(extra)
    else:
        # first half untraced, second half traced: their median operation
        # latencies give the tracing overhead
        half = args.seconds / 2.0
        untraced = run_loop(wl, half, 0, smoke=False)
        first_check = check_run(wl)
        wl.tracer.enabled = True
        wl.counts = dict.fromkeys(wl.counts, 0)
        traced = run_loop(wl, half, untraced["ops"], smoke=False)
        second_check = check_run(wl)
        counts = tally([untraced, traced], [first_check, second_check])
        self_ms, overhead = self_time_and_overhead(wl.tracer, untraced, traced)
        layer_counts = dict(wl.counts)
        wl.tracer.dump(out_dir / "spans.json")
        import probes

        try:
            probed = probes.run_probes(wl.tracer, args.seed, out_dir)
        except Exception as exc:  # a failed probe fails the run, not the process
            counts["failed"] += 1
            counts["attempted"] += 1
            counts["messages"].append(
                "layer probe failed: " + "".join(traceback.format_exception(exc))[-2000:])
            probed = {"cli.import_s": float("nan"),
                      "sources.spdc_distribution.c6_peak_alloc_mb": float("nan")}
        metrics = layer_metrics(wl.tracer, layer_counts, probed, overhead)
        detail.update(self_ms_per_op=self_ms, traced_ops=traced["ops"],
                      untraced_ops=untraced["ops"])
    detail["error_rate"] = counts["failed"] / max(counts["attempted"], 1)
    detail["failures"] = counts["messages"][:20]
    result = {"correct": counts["failed"] == 0, "attempted": counts["attempted"],
              "failed": counts["failed"], "metrics": metrics}
    emit(result, detail, out_dir / "result.json")
    return 0


def smoke(args) -> int:
    """Every workload (or the one named) once, at toy size; no timings."""
    import workloads

    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    total = {"attempted": 0, "failed": 0}
    for name in names:
        out_dir = OUT / "smoke" / name
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        wl = workloads.WORKLOADS[name](args.seed, True, tracing.Tracer(True), out_dir)
        wl.build()
        loop = run_loop(wl, 0.0, 0, smoke=True)
        counts = tally([loop], [check_run(wl)])
        print(json.dumps({"workload": name, "attempted": counts["attempted"],
                          "failed": counts["failed"], "failures": counts["messages"][:20]}))
        total["attempted"] += counts["attempted"]
        total["failed"] += counts["failed"]
    print(json.dumps({"correct": total["failed"] == 0, **total, "metrics": {}}), flush=True)
    return 0 if total["failed"] == 0 else 1


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("spin-ensemble", "photon-pipeline",
                                               "variant-scan", "cli-session"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once at toy size, without timing")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "bellopt" / "__init__.py").is_file():
        print(f"error: no bellopt sources under {SRC}; run from a bellopt checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke(args)
    return measure(args, t_start)


if __name__ == "__main__":
    sys.exit(main())
