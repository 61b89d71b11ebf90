"""Command-line front end.

Subcommands compose the library; no numerics live here.  Every command
prints a human-readable summary and can write machine-readable JSON/CSV
artifacts; identical flags and seeds give identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import space
from .inequalities import (
    BellInequality,
    catalog,
    catalog_names,
    inequality_from_json,
    inequality_to_json,
)
from .sampling import Allocation, SamplingScheme
from .space import Subspace


def _dump_json(obj, path: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _load_behavior(path: str) -> np.ndarray:
    return space.check_distribution(space.vector_from_json(_load_json(path)))


def _scheme(args) -> SamplingScheme:
    return SamplingScheme(args.trials, Allocation(args.allocation))


def _inequalities(args) -> list[BellInequality]:
    out = [catalog(name) for name in args.name or []]
    for path in args.inequality or []:
        out.append(inequality_from_json(_load_json(path)))
    if not out:
        out = [catalog("CHSH"), catalog("CH")]
    return out


def cmd_decompose(args) -> int:
    v = space.vector_from_json(_load_json(args.input))
    d = space.decompose(v)
    report = {
        "components": {s.value: list(map(float, c)) for s, c in d.components.items()},
        "norms": {s.value: n for s, n in d.norms().items()},
    }
    report["coarse_norms"] = {
        lbl.value: float(np.linalg.norm(d[lbl]))
        for lbl in (Subspace.NO, Subspace.NS, Subspace.SI)
    }
    report["nonzero"] = [s.value for s in d.nonzero_labels(args.tolerance)]
    report["tolerance"] = args.tolerance
    print("nonzero components:", ", ".join(report["nonzero"]) or "(none)")
    for lbl, n in report["norms"].items():
        print(f"  |{lbl:8s}| = {n:.6g}")
    if args.output:
        _dump_json(report, args.output)
    return 0


def cmd_catalog(args) -> int:
    if args.list:
        for name in catalog_names():
            print(name)
        return 0
    b = catalog(args.name)
    obj = inequality_to_json(b)
    print(f"{b.name}: local bound {b.local_bound}")
    _dump_json(obj, args.output)
    return 0


def cmd_group_verify(args) -> int:
    from . import relabel
    elements = relabel.enumerate_group()
    blocks = relabel.invariance_report(elements)
    avg = relabel.averaging_projector(elements)
    report = {
        "order": len(elements),
        "axioms_hold": relabel.group_axioms_hold(elements),
        "invariant_blocks": blocks,
        "invariant_block_count": sum(blocks.values()),
        "commutant_dimension": relabel.commutant_dimension(elements),
        "averaging_projector_is_trivial_component": bool(
            np.allclose(avg, space.projector(Subspace.NO1), atol=1e-12)
        ),
        "cayley_sha256": relabel.cayley_checksum(elements),
    }
    print(f"order = {report['order']}")
    print(f"group axioms hold = {report['axioms_hold']}")
    print(f"invariant blocks = {report['invariant_block_count']}")
    print(f"commutant dimension = {report['commutant_dimension']}")
    print(f"cayley sha256 = {report['cayley_sha256'][:16]}...")
    _dump_json(report, args.output)
    return 0


def cmd_model(args) -> int:
    from . import sources
    if args.source == "nv":
        angles = None
        if args.angles:
            angles = sources.MeasurementAngles(tuple(args.angles[:2]), tuple(args.angles[2:]))
        readout = sources.ReadoutModel(args.eta_plus_a, args.eta_minus_a,
                                       args.eta_plus_b, args.eta_minus_b)
        p = sources.nv_distribution(args.lam, args.visibility, readout, angles)
    else:
        angles = None
        if args.angles:
            rad = np.deg2rad(args.angles)
            angles = sources.MeasurementAngles(tuple(rad[:2]), tuple(rad[2:]))
        p = sources.spdc_distribution(
            mu=args.mu, ratio=args.ratio_r, eta_a=args.eta_a, eta_b=args.eta_b,
            angles=angles, cutoff=args.cutoff,
        )
    chsh = catalog("CHSH")
    print(f"behavior generated ({args.source}); CHSH value = {chsh.value(p):.6g}")
    _dump_json(space.vector_to_json(p), args.output)
    return 0


def cmd_optimize(args) -> int:
    if len((args.name or []) + (args.inequality or [])) != 1:
        raise ValueError("optimize needs exactly one of --name or --inequality")
    from . import variance
    p = _load_behavior(args.input)
    (beta,) = _inequalities(args)
    scheme = _scheme(args)
    if args.cov == "analytic":
        sigma = variance.analytic_covariance(p, scheme)
    else:
        sigma, rejections = variance.mc_covariance_draws(p, scheme, args.runs, args.seed)
    bstar = variance.optimal_variant(beta, sigma)
    sd_before = variance.std_dev(beta, sigma)
    sd_after = variance.std_dev(bstar, sigma)
    value = beta.value(p)
    report = {
        "inequality": beta.name,
        "covariance": args.cov,
        "trials": args.trials,
        "value": value,
        "sd_before": sd_before,
        "sd_after": sd_after,
        "sigma_ratio_before": variance.sigma_ratio(value, beta.local_bound, sd_before),
        "sigma_ratio_after": variance.sigma_ratio(value, bstar.local_bound, sd_after),
    }
    if args.cov == "mc":
        report["rejected_draws"] = rejections
    print(f"value = {value:.6g}")
    print(f"sd: {sd_before:.6g} -> {sd_after:.6g}")
    print(f"sigma ratio: {report['sigma_ratio_before']:.3f} -> {report['sigma_ratio_after']:.3f}")
    _dump_json(inequality_to_json(bstar), args.output)
    if args.report:
        _dump_json(report, args.report)
    return 0


def cmd_simulate(args) -> int:
    if args.histogram_csv and args.bins < 1:  # refuse before drawing the ensemble
        raise ValueError(f"bins must be at least 1, got {args.bins}")
    from . import simulate
    p = _load_behavior(args.input)
    betas = _inequalities(args)
    report = simulate.run_ensemble(p, betas, _scheme(args), runs=args.runs, seed=args.seed)
    summary = report.summary()
    for name, entry in summary["inequalities"].items():
        line = f"{name:10s} mean = {entry['mean']:+.6g}  sd = {entry['sd']:.6g}"
        if "sigma_ratio" in entry:
            line += f"  s = {entry['sigma_ratio']:.3f}"
        print(line)
    if report.rejections:
        print(f"rejected draws with an empty setting block: {report.rejections}")
    if args.histogram_csv:
        simulate.write_histogram_csv(report, args.histogram_csv, bins=args.bins)
    if args.values_csv:
        simulate.write_values_csv(report, args.values_csv)
    if args.output:
        _dump_json(summary, args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellopt",
        description="Decompose (2,2,2) Bell-scenario vectors, optimize inequality "
                    "variants for finite statistics, and simulate runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    d = sub.add_parser("decompose", help="split a behavior/inequality vector into invariant components")
    d.add_argument("--input", required=True, help="JSON file with a 16-vector")
    d.add_argument("--output", help="write the full report as JSON")
    d.add_argument("--tolerance", type=float, default=1e-9)
    d.set_defaults(func=cmd_decompose)

    c = sub.add_parser("catalog", help="export a catalog inequality")
    c.add_argument("--name", default="CHSH", help=f"one of {', '.join(catalog_names())}")
    c.add_argument("--list", action="store_true", help="list catalog names and exit")
    c.add_argument("--output", help="write the inequality JSON here (default stdout)")
    c.set_defaults(func=cmd_catalog)

    g = sub.add_parser("group-verify", help="verify the relabeling-group structure")
    g.add_argument("--output", help="write the verification report as JSON")
    g.set_defaults(func=cmd_group_verify)

    m = sub.add_parser("model", help="generate a behavior from a physical source model")
    msub = m.add_subparsers(dest="source", required=True)
    nv = msub.add_parser("nv", help="deterministic entangled spin-pair source")
    nv.add_argument("--lambda", dest="lam", type=float, default=0.022, help="(default: %(default)s)")
    nv.add_argument("--visibility", type=float, default=0.873, help="(default: %(default)s)")
    nv.add_argument("--eta-plus-a", type=float, default=0.954, help="(default: %(default)s)")
    nv.add_argument("--eta-minus-a", type=float, default=0.994, help="(default: %(default)s)")
    nv.add_argument("--eta-plus-b", type=float, default=0.939, help="(default: %(default)s)")
    nv.add_argument("--eta-minus-b", type=float, default=0.998, help="(default: %(default)s)")
    nv.add_argument("--angles", type=float, nargs=4, metavar=("A0", "A1", "B0", "B1"),
                    help="measurement angles in radians (default: reference angles)")
    nv.add_argument("--output", help="write the behavior JSON here (default stdout)")
    nv.set_defaults(func=cmd_model)
    spdc = msub.add_parser("spdc", help="nondeterministic photon-pair source")
    spdc.add_argument("--mu", type=float, default=5e-4,
                      help="total mean pair number (default: %(default)s)")
    spdc.add_argument("--ratio-r", type=float, default=0.288,
                      help="H/V pair amplitude ratio (default: %(default)s)")
    spdc.add_argument("--eta-a", type=float, default=0.747, help="(default: %(default)s)")
    spdc.add_argument("--eta-b", type=float, default=0.756, help="(default: %(default)s)")
    spdc.add_argument("--angles", type=float, nargs=4, metavar=("A0", "A1", "B0", "B1"),
                      help="polarization angles in degrees (default: reference angles)")
    spdc.add_argument("--cutoff", type=int, default=4,
                      help="per-mode photon-number cutoff (default: %(default)s)")
    spdc.add_argument("--output", help="write the behavior JSON here (default stdout)")
    spdc.set_defaults(func=cmd_model)

    # flags shared by optimize (one inequality) and simulate (one or more)
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--input", required=True, help="behavior JSON")
    shared.add_argument("--name", action="append",
                        help="catalog inequality name (simulate: repeatable)")
    shared.add_argument("--inequality", action="append",
                        help="inequality JSON file (simulate: repeatable)")
    shared.add_argument("--trials", type=int, required=True)
    shared.add_argument("--allocation", choices=[a.value for a in Allocation], default="fixed")
    shared.add_argument("--seed", type=int, default=0)

    o = sub.add_parser("optimize", parents=[shared],
                       help="compute the minimal-variance variant of an inequality")
    o.add_argument("--cov", choices=("analytic", "mc"), default="analytic")
    o.add_argument("--runs", type=int, default=2000, help="runs for --cov mc")
    o.add_argument("--output", help="write the optimal variant JSON here (default stdout)")
    o.add_argument("--report", help="write the sd/ratio report JSON here")
    o.set_defaults(func=cmd_optimize)

    s = sub.add_parser("simulate", parents=[shared], help="simulate finite-trial run ensembles")
    s.add_argument("--runs", type=int, required=True)
    s.add_argument("--bins", type=int, default=80)
    s.add_argument("--histogram-csv", help="write a shared-binning histogram CSV")
    s.add_argument("--values-csv", help="write raw per-run values CSV")
    s.add_argument("--output", help="write the summary JSON here")
    s.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr, indent=2)
        sys.stderr.write("\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
