"""Acceptance suite: one test per top-level criterion, each printing a
PASS/FAIL line with its measured numbers.

Criterion 8's entrywise comparison against the published optimal-variant
matrix is expected to fail: the published matrix is a rounded presentation
(its signaling coordinates are integers in the orthonormal signaling basis)
whose spread is 6% above the exact optimum, as its own published standard
deviation confirms.  The check is asserted faithfully anyway; see the test
docstring for the numbers.
"""

import time

import numpy as np
import pytest

from bellopt import boxes
from bellopt.inequalities import (
    QUANTUM_MAXIMUM,
    catalog,
    catalog_names,
    deterministic_maximum,
    ns_equivalent,
    strip_normalization_fluff,
    vector_to_display,
)
from bellopt.relabel import (
    INVARIANT_BLOCKS,
    averaging_projector,
    commutant_dimension,
    enumerate_group,
    group_axioms_hold,
    verify_invariance,
)
from bellopt.sampling import SamplingScheme
from bellopt.simulate import run_ensemble
from bellopt.sources import nv_distribution, spdc_distribution
from bellopt.space import (
    DIM,
    Subspace,
    decompose,
    is_nonsignaling,
    project,
    projector,
    q_basis,
    subspace_signs,
    vector_index,
)
from bellopt.variance import analytic_covariance, mc_covariance, optimal_variant, std_dev
from reference_data import (
    CHSH_UNSHIFTED_VALUE,
    P1_MEAN,
    P1_SD_CH,
    P1_SD_CHSH,
    P1_TRIALS,
    P2_MEAN,
    P2_SD_CH,
    P2_SD_CHSH,
    P2_SD_EH,
    P2_SD_OPT,
    P2_SRATIO_CH,
    P2_SRATIO_EH,
    P2_SRATIO_OPT,
    P2_TRIALS,
    p1_printed,
    p2_printed,
)


def _report(name: str, checks: list) -> None:
    ok = all(c[1] for c in checks)
    print(f"\n{name}: {'PASS' if ok else 'FAIL'}")
    for label, good, detail in checks:
        print(f"    [{'ok' if good else 'XX'}] {label}: {detail}")
    assert ok, f"{name} failed: " + "; ".join(c[0] for c in checks if not c[1])


@pytest.fixture(scope="module")
def p1_model():
    return nv_distribution()


@pytest.fixture(scope="module")
def p2_model():
    return spdc_distribution()


@pytest.fixture(scope="module")
def sigma_p2(p2_model):
    return analytic_covariance(p2_model, SamplingScheme(P2_TRIALS))


def test_ac01_decomposition_property_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    vs = rng.normal(size=(1000, DIM))
    comps = {s: vs @ projector(s).T for s in
             (Subspace.NO1, Subspace.NO2, Subspace.NO3, Subspace.MARG_A,
              Subspace.MARG_B, Subspace.CORR, Subspace.SI_TO_B, Subspace.SI_TO_A)}
    recomposed = np.sum(list(comps.values()), axis=0)
    recomp_err = float(np.max(np.abs(recomposed - vs)))
    ortho_err = 0.0
    labels = list(comps)
    for i, s1 in enumerate(labels):
        for s2 in labels[i + 1:]:
            ortho_err = max(ortho_err, float(np.max(np.abs(
                np.sum(comps[s1] * comps[s2], axis=1)))))

    no_err = 0.0
    for _ in range(200):
        p = boxes.random_nonsignaling(rng)
        no_err = max(no_err, float(np.max(np.abs(
            project(p, Subspace.NO) - 0.25 * q_basis(1, 1, 1, 1)))))

    si_iff = True
    for v in boxes.nonsignaling_vertices():
        si_iff &= np.linalg.norm(project(v, Subspace.SI)) < 1e-12
        si_iff &= is_nonsignaling(v, tol=1e-12)
    for _ in range(100):
        p = boxes.random_nonsignaling(rng)
        si_iff &= np.linalg.norm(project(p, Subspace.SI)) < 1e-12
        noise = sum(rng.normal() * q_basis(*s) for s in subspace_signs(Subspace.SI))
        q = p + 1e-4 * noise / np.linalg.norm(noise)
        si_iff &= np.linalg.norm(project(q, Subspace.SI)) > 1e-9
        si_iff &= not is_nonsignaling(q, tol=1e-9)
    elapsed = time.perf_counter() - t0
    _report("AC1 decomposition properties", [
        ("recomposition of 1000 random vectors", recomp_err < 1e-12, f"max err {recomp_err:.2e}"),
        ("component orthogonality", ortho_err < 1e-12 * 1e3, f"max inner product {ortho_err:.2e}"),
        ("normalized behaviors have the uniform NO part", no_err < 1e-12, f"max err {no_err:.2e}"),
        ("nonsignaling <=> vanishing SI part (both directions)", si_iff, "vertices + mixtures + perturbations"),
        ("runtime < 1 s", elapsed < 1.0, f"{elapsed:.2f} s"),
    ])


def test_ac02_group_verification():
    t0 = time.perf_counter()
    elements = enumerate_group()
    order_ok = len(elements) == 128 and len(set(elements)) == 128
    axioms_ok = group_axioms_hold(elements)
    blocks_ok = all(verify_invariance(b, elements) for b in INVARIANT_BLOCKS)
    avg_err = float(np.max(np.abs(averaging_projector(elements) - projector(Subspace.NO1))))
    cdim = commutant_dimension(elements)
    elapsed = time.perf_counter() - t0
    _report("AC2 relabeling-group verification", [
        ("order 128", order_ok, f"{len(elements)} distinct elements"),
        ("group axioms exhaustively", axioms_ok, "closure, identity, inverses, action homomorphism"),
        ("six invariant blocks", blocks_ok and len(INVARIANT_BLOCKS) == 6,
         ", ".join(b.value for b in INVARIANT_BLOCKS)),
        ("averaging projector equals the trivial-component projector",
         avg_err < 1e-12, f"max err {avg_err:.2e}"),
        ("commutant dimension 6", cdim == 6, f"dim {cdim}"),
        ("runtime < 10 s", elapsed < 10.0, f"{elapsed:.2f} s"),
    ])


def test_ac03_catalog_equivalence(p1_model, p2_model):
    entries = [catalog(n) for n in catalog_names()]
    probes = {
        "P1": p1_model, "P2": p2_model,
        "tsirelson": boxes.tsirelson_box(), "pr-box": boxes.pr_box(),
    }
    spread = max(
        max(e.value(p) for e in entries) - min(e.value(p) for e in entries)
        for p in probes.values()
    )
    bound_max = max(abs(deterministic_maximum(e)) for e in entries)
    tsi = catalog("CHSH").value(boxes.tsirelson_box())
    _report("AC3 catalog equivalence", [
        ("identical values on P1, P2, tsirelson, pr-box", spread < 1e-12,
         f"max spread {spread:.2e}"),
        ("local bound 0 on all 16 deterministic strategies", bound_max < 1e-12,
         f"max |bound| {bound_max:.2e}"),
        ("CHSH on the tsirelson box = 2(sqrt2 - 1)",
         abs(tsi - QUANTUM_MAXIMUM) < 1e-9, f"{tsi:.12f}"),
    ])


def test_ac04_nv_model(p1_model):
    t0 = time.perf_counter()
    p = nv_distribution()
    elapsed = time.perf_counter() - t0
    dev = float(np.max(np.abs(p - p1_printed())))
    unshifted = catalog("CHSH").value(p) + 2.0
    _report("AC4 spin-pair model", [
        ("entrywise within 0.005 of the published matrix", dev < 0.005, f"max dev {dev:.4f}"),
        ("unshifted CHSH value 2.30 +- 0.01",
         abs(unshifted - CHSH_UNSHIFTED_VALUE) < 0.01, f"{unshifted:.4f}"),
        ("runtime < 1 s", elapsed < 1.0, f"{elapsed:.3f} s"),
    ])


def test_ac05_spdc_model():
    t0 = time.perf_counter()
    p = spdc_distribution()
    elapsed = time.perf_counter() - t0
    ref = p2_printed()
    rel = np.abs(p - ref) / ref
    weakest = vector_index(1, 1, 1, 1)
    main_ok = all(rel[i] < 0.10 for i in range(DIM) if i != weakest and ref[i] < 0.5)
    weak_ok = rel[weakest] < 0.50
    big_ok = bool(np.max(rel[ref > 0.5]) < 0.10)
    p6 = spdc_distribution(cutoff=6)
    trunc = float(np.max(np.abs(p6 - p) / p6))
    _report("AC5 photon-pair model", [
        ("entrywise within 10% of the published matrix", main_ok and big_ok,
         f"max rel dev {float(np.max(rel[np.arange(DIM) != weakest])):.3f}"),
        ("weakest cell within 50%", weak_ok, f"rel dev {rel[weakest]:.3f}"),
        ("cutoff 4 -> 6 changes every entry by < 1%", trunc < 0.01, f"max {trunc:.2e}"),
        ("runtime < 30 s at 625 dimensions", elapsed < 30.0, f"{elapsed:.2f} s"),
    ])


def test_ac06_run_ensemble_reproduction(p1_model):
    t0 = time.perf_counter()
    rep = run_ensemble(p1_model, [catalog("CHSH"), catalog("CH")],
                       SamplingScheme(P1_TRIALS), runs=200_000, seed=20170831)
    elapsed = time.perf_counter() - t0
    checks = [
        (f"mean {name} = {P1_MEAN} +- 0.003",
         abs(rep.mean(name) - P1_MEAN) < 0.003, f"{rep.mean(name):.4f}")
        for name in ("CHSH", "CH")
    ]
    checks += [
        ("sd CHSH within 2% of " + str(P1_SD_CHSH),
         abs(rep.sd("CHSH") / P1_SD_CHSH - 1) < 0.02, f"{rep.sd('CHSH'):.4f}"),
        ("sd CH within 2% of " + str(P1_SD_CH),
         abs(rep.sd("CH") / P1_SD_CH - 1) < 0.02, f"{rep.sd('CH'):.4f}"),
        ("runtime < 2 min", elapsed < 120.0, f"{elapsed:.1f} s"),
    ]
    _report("AC6 run-ensemble reproduction (200k runs x 245 trials)", checks)


def test_ac07_large_run_statistics(p2_model, sigma_p2):
    mean = catalog("CHSH").value(p2_model)
    sds = {n: std_dev(catalog(n), sigma_p2) for n in ("CHSH", "CH", "EH")}
    targets = {"CHSH": P2_SD_CHSH, "CH": P2_SD_CH, "EH": P2_SD_EH}
    checks = [
        (f"analytic sd {n} within 2% of {targets[n]:.3g}",
         abs(sds[n] / targets[n] - 1) < 0.02, f"{sds[n]:.4g}")
        for n in sds
    ]
    checks.append((f"mean violation within 2% of {P2_MEAN:.3g}",
                   abs(mean / P2_MEAN - 1) < 0.02, f"{mean:.4g}"))
    mc = mc_covariance(p2_model, SamplingScheme(P2_TRIALS), runs=2000, seed=404)
    mc_dev = max(
        abs(std_dev(catalog(n), mc) / sds[n] - 1) for n in sds
    )
    checks.append(("2000-run MC covariance cross-check within 5%",
                   mc_dev < 0.05, f"max dev {mc_dev:.3f}"))
    _report("AC7 large-run statistics at desk scale", checks)


def test_ac08_optimal_variant_statistics(p2_model, sigma_p2):
    bstar = optimal_variant(catalog("EH"), sigma_p2)
    opt_ref = catalog("OPT_REF")
    sd_ref = std_dev(opt_ref, sigma_p2)
    sd_star = std_dev(bstar, sigma_p2)
    mean = catalog("CHSH").value(p2_model)
    ratios = {
        "CH": (mean / std_dev(catalog("CH"), sigma_p2), P2_SRATIO_CH),
        "EH": (mean / std_dev(catalog("EH"), sigma_p2), P2_SRATIO_EH),
        "opt": (mean / sd_ref, P2_SRATIO_OPT),
    }
    checks = [
        (f"published optimal variant reproduces sd {P2_SD_OPT:.3g} within 3%",
         abs(sd_ref / P2_SD_OPT - 1) < 0.03, f"{sd_ref:.4g}"),
        ("computed optimum does not exceed the published variant's sd",
         sd_star <= sd_ref * (1 + 1e-12), f"{sd_star:.4g} <= {sd_ref:.4g}"),
        ("computed optimum keeps the nonsignaling content",
         ns_equivalent(bstar, catalog("EH")), "ns-equivalent to EH"),
    ]
    checks += [
        (f"sigma ratio {n} within 10% of {target}",
         abs(val / target - 1) < 0.10, f"{val:.3f}")
        for n, (val, target) in ratios.items()
    ]
    _report("AC8a optimal-variant statistics", checks)


def test_ac08_optimal_variant_matches_published_matrix(sigma_p2):
    """Faithful entrywise check against the published matrix; expected FAIL.

    The exact optimum's signaling coordinates in the orthonormal signaling
    basis are (-2.33, 1.29, -2.33, 1.28); the published matrix carries the
    rounded integers (-2, 1, -2, 1), which is 0.31 away entrywise and costs
    6% in spread (2.60e-6 published vs 2.45e-6 optimal, both reproduced
    here).  No admissible bound/scale transformation closes that gap, so the
    0.05 tolerance cannot be met by a correct optimizer.
    """
    bstar = strip_normalization_fluff(optimal_variant(catalog("EH"), sigma_p2))
    ref = strip_normalization_fluff(catalog("OPT_REF"))
    dev = float(np.max(np.abs(
        vector_to_display(bstar.coeffs) - vector_to_display(ref.coeffs))))
    _report("AC8b optimal variant vs published matrix (expected FAIL)", [
        ("entrywise within 0.05 after bound/scale matching", dev < 0.05,
         f"max dev {dev:.3f} (published matrix is a rounded presentation)"),
    ])


def test_ac09_optimizer_properties():
    rng = np.random.default_rng(77)
    pi_si = projector(Subspace.SI)
    pi_bar = np.eye(DIM) - pi_si
    basis = np.stack([q_basis(*s) / 4.0 for s in subspace_signs(Subspace.SI)], axis=1)
    ch = catalog("CH")
    b_nos = pi_bar @ ch.coeffs

    worst_stationarity = 0.0
    worst_oracle = 0.0
    for _ in range(100):
        A = rng.normal(size=(DIM, DIM))
        S = (A @ A.T) / DIM
        bstar = optimal_variant(ch, S)
        worst_stationarity = max(worst_stationarity,
                                 float(np.max(np.abs(pi_si @ S @ bstar.coeffs))))
        # independent quadratic solve in the 4 signaling coordinates
        M = basis.T @ S @ basis
        rhs = basis.T @ S @ b_nos
        expected = b_nos + basis @ np.linalg.solve(M, -rhs)
        worst_oracle = max(worst_oracle, float(np.max(np.abs(bstar.coeffs - expected))))

    S = analytic_covariance(boxes.tsirelson_box(), SamplingScheme(400))
    bstar = optimal_variant(catalog("EH"), S)
    worst_mean = 0.0
    for _ in range(100):
        p = boxes.random_nonsignaling(rng)
        worst_mean = max(worst_mean, abs(bstar.value(p) - catalog("EH").value(p)))

    _report("AC9 optimizer properties", [
        ("stationarity on 100 random PSD covariances", worst_stationarity < 1e-9,
         f"max gradient {worst_stationarity:.2e}"),
        ("independent quadratic-solver oracle agreement", worst_oracle < 1e-7,
         f"max deviation {worst_oracle:.2e}"),
        ("mean invariance on nonsignaling behaviors", worst_mean < 1e-12,
         f"max change {worst_mean:.2e}"),
    ])


def test_ac10_symmetric_setup_optimality():
    from bellopt.sources import nv_symmetric_distribution

    chsh = catalog("CHSH")
    results = {}
    for name, p in (("tsirelson", boxes.tsirelson_box()),
                    ("symmetrized spin-pair", nv_symmetric_distribution())):
        S = analytic_covariance(p, SamplingScheme(1000))
        bstar = optimal_variant(chsh, S)
        results[name] = float(np.linalg.norm(project(bstar.coeffs, Subspace.SI)))
    _report("AC10 output-symmetric setups keep the correlator inequality optimal", [
        (f"signaling part of the optimum vanishes ({name})", norm < 1e-9,
         f"norm {norm:.2e}")
        for name, norm in results.items()
    ])
