"""Finite-trial runs, frequency estimators, and ensembles."""

import csv

import numpy as np
import pytest

from bellopt import boxes
from bellopt.inequalities import catalog
from bellopt.sampling import Allocation, SamplingScheme
from bellopt.simulate import (
    EnsembleReport,
    RunCounts,
    frequencies,
    frequencies_ensemble,
    run_ensemble,
    simulate_run,
    write_histogram_csv,
    write_values_csv,
)
from bellopt.space import Subspace, block_indices, decompose, q_basis, vector_index
from bellopt.variance import analytic_covariance, std_dev


def test_run_counts_validation():
    with pytest.raises(ValueError):
        RunCounts(np.full(16, -1))
    rc = RunCounts(np.arange(16))
    assert rc.total == sum(range(16))
    assert rc.block_total(0, 0) == 0 + 1 + 2 + 3


def test_simulate_run_deterministic_behavior(rng):
    p = boxes.local_vertex(0, 0, 0, 0)
    rc = simulate_run(p, SamplingScheme(100), rng)
    for x in range(2):
        for y in range(2):
            n = rc.block_total(x, y)
            assert rc.counts[vector_index(0, 0, x, y)] == n
    assert rc.total == 100


def test_simulate_run_fixed_allocation_counts(rng):
    rc = simulate_run(boxes.uniform_box(), SamplingScheme(245), rng)
    totals = [rc.block_total(x, y) for y in range(2) for x in range(2)]
    assert sorted(totals, reverse=True) == [62, 61, 61, 61]


def test_simulate_run_tolerates_rounding_level_negatives(rng):
    # JSON round-trips can leave -1e-13 entries; they are admitted by the
    # distribution check and must not break the sampler
    p = boxes.local_vertex(0, 0, 0, 0).copy()
    p[vector_index(1, 1, 0, 0)] = -1e-13
    rc = simulate_run(p, SamplingScheme(40), rng)
    assert rc.total == 40


def test_simulate_run_seed_repeatable():
    p = boxes.tsirelson_box()
    a = simulate_run(p, SamplingScheme(64), np.random.default_rng(9))
    b = simulate_run(p, SamplingScheme(64), np.random.default_rng(9))
    assert np.array_equal(a.counts, b.counts)


def test_expected_counts_match_multinomial_mean():
    # Monte-Carlo check of E[N(abxy)] = N(xy) p(ab|xy) within 3 standard errors
    p = boxes.tsirelson_box()
    scheme = SamplingScheme(80)
    runs = 100_000
    freqs, _ = frequencies_ensemble(p, scheme, runs=runs, seed=31)
    mean_counts = freqs.mean(axis=0) * 20  # 20 trials per block
    for x in range(2):
        for y in range(2):
            for a in range(2):
                for b in range(2):
                    idx = vector_index(a, b, x, y)
                    expect = 20 * p[idx]
                    se = np.sqrt(20 * p[idx] * (1 - p[idx]) / runs)
                    assert abs(mean_counts[idx] - expect) < 3 * se + 1e-12


def test_frequencies_divide_by_block_totals():
    counts = np.zeros(16, dtype=int)
    counts[block_indices(0, 0)] = (25, 25, 25, 25)
    counts[block_indices(1, 0)] = (3, 1, 0, 0)
    counts[block_indices(0, 1)] = (1, 0, 0, 0)
    counts[block_indices(1, 1)] = (0, 0, 0, 2)
    f = frequencies(counts)
    assert np.array_equal(f[block_indices(0, 0)], (0.25, 0.25, 0.25, 0.25))
    assert np.array_equal(f[block_indices(1, 0)], (0.75, 0.25, 0.0, 0.0))
    for x in range(2):
        for y in range(2):
            assert f[block_indices(x, y)].sum() == pytest.approx(1.0, abs=1e-15)


def test_frequencies_reject_empty_block():
    counts = np.zeros(16, dtype=int)
    counts[0] = 10
    with pytest.raises(ValueError):
        frequencies(counts)


def test_frequency_estimator_no_component_is_constant(rng):
    p = boxes.random_nonsignaling(rng)
    for seed in range(10):
        freqs, _ = frequencies_ensemble(p, SamplingScheme(52), runs=1, seed=seed)
        d = decompose(freqs[0])
        assert np.max(np.abs(d[Subspace.NO1] - 0.25 * q_basis(1, 1, 1, 1))) < 1e-14
        assert np.linalg.norm(d[Subspace.NO2]) < 1e-14
        assert np.linalg.norm(d[Subspace.NO3]) < 1e-14
        # finite-sample noise generally signals
        assert np.linalg.norm(d.si) > 0.0


def test_run_ensemble_statistics_and_unbiasedness():
    p = boxes.tsirelson_box()
    chsh = catalog("CHSH")
    runs = 20_000
    rep = run_ensemble(p, [chsh], SamplingScheme(100), runs=runs, seed=17)
    sd = rep.sd("CHSH")
    assert abs(rep.mean("CHSH") - chsh.value(p)) < 3 * sd / np.sqrt(runs)
    # empirical spread matches the analytic covariance in the CLT regime
    expected_sd = std_dev(chsh, analytic_covariance(p, SamplingScheme(100)))
    assert sd == pytest.approx(expected_sd, rel=0.02)


def test_run_ensemble_shares_counts_and_seed():
    p = boxes.tsirelson_box()
    betas = [catalog("CHSH"), catalog("CH")]
    a = run_ensemble(p, betas, SamplingScheme(64), runs=300, seed=5)
    b = run_ensemble(p, betas, SamplingScheme(64), runs=300, seed=5)
    assert np.array_equal(a.values, b.values)
    # equivalent inequalities share their mean but spread differently
    assert a.mean("CHSH") == pytest.approx(a.mean("CH"),
                                           abs=4 * a.sd("CH") / np.sqrt(300))
    assert a.sd("CH") > 1.5 * a.sd("CHSH")


def test_ensemble_rows_match_per_run_streams(rng):
    # row i of an ensemble equals a fresh run drawn from the stream (seed, i)
    p = boxes.random_nonsignaling(rng)
    scheme = SamplingScheme(48)
    freqs, _ = frequencies_ensemble(p, scheme, runs=5, seed=99)
    for i in range(5):
        rc = simulate_run(p, scheme, np.random.default_rng([99, i]))
        assert np.array_equal(freqs[i], frequencies(rc))


def test_uniform_random_allocation_rejects_empty_blocks():
    # tiny trial counts make empty setting blocks likely; they are redrawn
    p = boxes.uniform_box()
    scheme = SamplingScheme(5, Allocation.UNIFORM_RANDOM)
    freqs, rejections = frequencies_ensemble(p, scheme, runs=300, seed=2)
    assert rejections > 0
    for row in freqs:
        for x in range(2):
            for y in range(2):
                assert row[block_indices(x, y)].sum() == pytest.approx(1.0, abs=1e-12)


def test_uniform_random_allocation_below_four_trials_raises():
    # four setting blocks cannot all be filled by fewer than four trials, so
    # rejection sampling would never terminate
    for n in (1, 2, 3):
        scheme = SamplingScheme(n, Allocation.UNIFORM_RANDOM)
        with pytest.raises(ValueError, match="at least 4 trials"):
            frequencies_ensemble(boxes.uniform_box(), scheme, runs=1, seed=0)


def test_report_summary_recomputable():
    p = boxes.tsirelson_box()
    rep = run_ensemble(p, [catalog("CHSH")], SamplingScheme(64), runs=400, seed=8)
    s = rep.summary()
    entry = s["inequalities"]["CHSH"]
    col = rep.values[:, 0]
    assert entry["mean"] == pytest.approx(col.mean(), abs=1e-12)
    assert entry["sd"] == pytest.approx(col.std(ddof=1), abs=1e-12)
    assert entry["sigma_ratio"] == pytest.approx(entry["mean"] / entry["sd"], abs=1e-12)
    assert s["runs"] == 400 and s["seed"] == 8


def test_histogram_and_values_csv(tmp_path):
    p = boxes.tsirelson_box()
    rep = run_ensemble(p, [catalog("CHSH"), catalog("CH")], SamplingScheme(64),
                       runs=500, seed=4)
    hist_path = tmp_path / "hist.csv"
    write_histogram_csv(rep, hist_path, bins=40)
    with open(hist_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["bin_left", "bin_right", "count_CHSH", "count_CH"]
    assert len(rows) == 41
    for col in (2, 3):
        assert sum(int(r[col]) for r in rows[1:]) == 500

    vals_path = tmp_path / "values.csv"
    write_values_csv(rep, vals_path)
    with open(vals_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["run", "CHSH", "CH"]
    assert len(rows) == 501
    assert float(rows[1][1]) == pytest.approx(rep.values[0, 0])
