"""Per-layer probes for the traced run.

A traced run reads each per-layer timing from the spans of its own
workload.  Layers the workload never calls are timed here instead, by
calling them on the reference behaviors, so that every traced run reports
every per-layer metric.  The CLI import time and the allocation peak of the
cutoff-6 photon-pair model are always probed: the workloads cannot observe
them.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
import tracemalloc

from bellopt import relabel, simulate, sources, space, variance
from bellopt.inequalities import catalog, ns_equivalent
from bellopt.sampling import Allocation, SamplingScheme

from workloads import PHOTON_TRIALS, SPIN_TRIALS, CliSession

MIB = 2.0 ** 20


def run_probes(tracer, seed: int, out_dir) -> dict:
    """Time every layer call that has no span yet; return the always-probed
    figures ``cli.import_s`` and ``sources.spdc_distribution.c6_peak_alloc_mb``."""
    have = {s.name for s in tracer.spans}
    call = tracer.call
    p1 = sources.nv_distribution()
    p2 = sources.spdc_distribution()
    eh = catalog("EH")
    sigma = variance.analytic_covariance(p2, SamplingScheme(PHOTON_TRIALS))
    best = variance.optimal_variant(eh, sigma)
    elements = relabel.enumerate_group()
    ensemble_runs = 1000
    report = simulate.run_ensemble(p1, [catalog("CHSH"), catalog("CH")],
                                   SamplingScheme(SPIN_TRIALS), ensemble_runs, seed)

    # span name -> (repeats, work units per call, thunk)
    probes = {
        "sources.spdc_distribution.c4": (3, 1, lambda: sources.spdc_distribution(cutoff=4)),
        "sources.spdc_distribution.c6": (1, 1, lambda: sources.spdc_distribution(cutoff=6)),
        "sources.nv_distribution": (50, 1, sources.nv_distribution),
        "simulate.run_ensemble": (3, ensemble_runs, lambda: simulate.run_ensemble(
            p1, [catalog("CHSH"), catalog("CH")], SamplingScheme(SPIN_TRIALS),
            ensemble_runs, seed)),
        "simulate.write_histogram_csv": (5, 1, lambda: simulate.write_histogram_csv(
            report, out_dir / "probe-histogram.csv")),
        "variance.analytic_covariance": (200, 1, lambda: variance.analytic_covariance(
            p2, SamplingScheme(PHOTON_TRIALS))),
        "variance.optimal_variant": (200, 1, lambda: variance.optimal_variant(eh, sigma)),
        "variance.std_dev": (200, 1, lambda: variance.std_dev(best, sigma)),
        "variance.mc_covariance": (1, 2000, lambda: variance.mc_covariance(
            p2, SamplingScheme(PHOTON_TRIALS, Allocation.UNIFORM_RANDOM), 2000, seed)),
        "relabel.act": (200, 1, lambda: relabel.act(elements[seed % len(elements)], eh.coeffs)),
        "relabel.group_axioms_hold": (1, 1, lambda: relabel.group_axioms_hold(elements)),
        "relabel.cayley_checksum": (1, 1, lambda: relabel.cayley_checksum(elements)),
        "relabel.invariance_report": (1, 1, lambda: relabel.invariance_report(elements)),
        "relabel.commutant_dimension": (1, 1, lambda: relabel.commutant_dimension(elements)),
        "space.decompose": (200, 1, lambda: space.decompose(best.coeffs)),
        "space.check_distribution": (200, 1, lambda: space.check_distribution(p2, tol=1e-9)),
        "inequalities.ns_equivalent": (200, 1, lambda: ns_equivalent(best, eh)),
    }
    for name, (repeats, units, thunk) in probes.items():
        if name not in have:
            for _ in range(repeats):
                call(name, thunk, units=units)

    cli_spans = {f"cli.{c}" for c in CliSession.COMMANDS}
    if not cli_spans <= have:
        session = CliSession(seed, False, tracer, out_dir / "probe-cli")
        session.build()
        for i in range(session.session):
            session.op(i)

    imports = []
    for _ in range(3):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import bellopt.cli"], env=CliSession.child_env(),
                       check=True, timeout=120)
        imports.append(time.perf_counter() - t0)

    tracemalloc.start()
    try:
        sources.spdc_distribution(cutoff=6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"cli.import_s": statistics.median(imports),
            "sources.spdc_distribution.c6_peak_alloc_mb": peak / MIB}
