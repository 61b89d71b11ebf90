"""Finite-trial runs, frequency estimators, and ensembles."""

import csv
import json
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellopt import boxes, simulate
from bellopt.inequalities import BellInequality, catalog
from bellopt.sampling import Allocation, SamplingScheme
from bellopt.simulate import (
    CHUNK,
    counts_ensemble,
    frequencies,
    run_ensemble,
    write_histogram_csv,
    write_values_csv,
)
from bellopt.space import (
    BEHAVIOR_TOL,
    DIM,
    Subspace,
    block_distributions,
    block_indices,
    check_distribution,
    decompose,
    q_basis,
    vector_index,
)
from bellopt.variance import analytic_covariance, mc_covariance, std_dev
from strategies import accepted_behaviors


def _vertex_frequencies(runs):
    """Frequencies of ``runs`` runs of the local vertex (0, 0, 0, 0): every
    trial of a block lands in its (a, b) = (0, 0) cell."""
    f = np.zeros(16)
    f[[vector_index(0, 0, x, y) for x in range(2) for y in range(2)]] = 1.0
    return np.tile(f, (runs, 1))


@pytest.mark.parametrize("allocation", list(Allocation))
def test_ensemble_of_a_deterministic_behavior(allocation):
    p = boxes.local_vertex(0, 0, 0, 0)
    runs = CHUNK + 3
    counts, _ = counts_ensemble(p, SamplingScheme(100, allocation), runs=runs, seed=6)
    assert np.array_equal(frequencies(counts), _vertex_frequencies(runs))


@pytest.mark.parametrize("allocation", list(Allocation))
def test_ensemble_tolerates_rounding_level_negatives(allocation):
    # JSON round-trips can leave -1e-13 entries; they are admitted by the
    # distribution check and must not break the sampler
    p = boxes.local_vertex(0, 0, 0, 0).copy()
    p[vector_index(1, 1, 0, 0)] = -1e-13
    counts, _ = counts_ensemble(p, SamplingScheme(40, allocation), runs=200, seed=1)
    assert np.array_equal(frequencies(counts), _vertex_frequencies(200))


def test_expected_counts_match_multinomial_mean():
    # Monte-Carlo check of E[N(abxy)] = N(xy) p(ab|xy) within 3 standard errors
    p = boxes.tsirelson_box()
    scheme = SamplingScheme(80)
    runs = 100_000
    counts, _ = counts_ensemble(p, scheme, runs=runs, seed=31)
    mean_counts = counts.mean(axis=0)  # 20 trials per block
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
        counts, _ = counts_ensemble(p, SamplingScheme(52), runs=1, seed=seed)
        d = decompose(frequencies(counts[0]))
        assert np.max(np.abs(d[Subspace.NO1] - 0.25 * q_basis(1, 1, 1, 1))) < 1e-14
        assert np.linalg.norm(d[Subspace.NO2]) < 1e-14
        assert np.linalg.norm(d[Subspace.NO3]) < 1e-14
        # finite-sample noise generally signals
        assert np.linalg.norm(d[Subspace.SI]) > 0.0


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


def test_run_ensemble_rejects_repeated_names():
    # reports, summaries and CSV columns are keyed by name
    p = boxes.tsirelson_box()
    unnamed = BellInequality(catalog("EH").coeffs)
    for betas, name in (([catalog("CH"), catalog("CHSH"), catalog("CH")], "'CH'"),
                        ([unnamed, BellInequality(catalog("CH").coeffs, 0.0, "beta0")],
                         "'beta0'")):
        with pytest.raises(ValueError, match=f"{name} is repeated"):
            run_ensemble(p, betas, SamplingScheme(64), runs=10, seed=5)
    rep = run_ensemble(p, [unnamed, unnamed], SamplingScheme(64), runs=10, seed=5)
    assert rep.names == ("beta0", "beta1")


def _reference_chunk(p, scheme, seed, c, k):
    """Cell counts of chunk ``c`` (k runs) and its rejections, with the chunk
    contract written out one numpy call at a time."""
    rng = np.random.default_rng([seed, c])
    p = np.clip(p, 0.0, None)
    blocks = [block_indices(x, y) for y in range(2) for x in range(2)]  # id x + 2y
    rejections = 0
    if scheme.allocation is Allocation.FIXED_EQUAL:
        n_xy = np.tile(scheme.block_counts(), (k, 1))
        draws = [rng.multinomial(n, p[idx] / p[idx].sum(), size=k)
                 for n, idx in zip(scheme.block_counts(), blocks)]
    else:  # block totals are multinomial(N, 1/4 each), whatever the behavior
        n_xy = rng.multinomial(scheme.n_trials, [0.25] * 4, size=k)
        bad = n_xy.min(axis=1) == 0
        while bad.any():
            rejections += int(bad.sum())
            n_xy[bad] = rng.multinomial(scheme.n_trials, [0.25] * 4, size=int(bad.sum()))
            bad = n_xy.min(axis=1) == 0
        draws = [rng.multinomial(n_xy[:, b], p[idx] / p[idx].sum())
                 for b, idx in enumerate(blocks)]
    counts = np.empty((k, 16), dtype=np.int64)
    for b, idx in enumerate(blocks):
        counts[:, idx] = draws[b]
    return counts, rejections


@pytest.mark.parametrize("seed, draw, scheme", [
    (20240917, 1, SamplingScheme(48)),
    (20240917, 1, SamplingScheme(245)),
    (20240917, 1, SamplingScheme(48, Allocation.UNIFORM_RANDOM)),
    (20240917, 1, SamplingScheme(5, Allocation.UNIFORM_RANDOM)),  # frequent rejections
    # block sums off 1/4 in their last bits, which changed every chunk when
    # the block totals were drawn from the behavior's shares
    (7, 4, SamplingScheme(5, Allocation.UNIFORM_RANDOM)),
], ids=["fixed-48", "fixed-245", "random-48", "random-5", "random-5-rounded-shares"])
def test_ensemble_rows_follow_the_chunk_contract(seed, draw, scheme):
    # chunk c holds runs c*CHUNK ... (c+1)*CHUNK - 1, drawn from (seed, c);
    # the last chunk here is partial
    g = np.random.default_rng(seed)
    for _ in range(draw):
        p = boxes.random_nonsignaling(g)
    runs = 2 * CHUNK + 5
    counts, rejections = counts_ensemble(p, scheme, runs=runs, seed=99)
    ref_rejections = 0
    for c, k in enumerate((CHUNK, CHUNK, 5)):
        ref, rej = _reference_chunk(p, scheme, 99, c, k)
        assert np.array_equal(counts[c * CHUNK:c * CHUNK + k], ref)
        ref_rejections += rej
    assert rejections == ref_rejections


@pytest.mark.parametrize("workers", [1, 2, 3, 8])
@pytest.mark.parametrize("scheme", [
    SamplingScheme(245),
    SamplingScheme(5, Allocation.UNIFORM_RANDOM),  # frequent rejections
], ids=["fixed-245", "random-5"])
def test_counts_do_not_depend_on_the_number_of_threads(monkeypatch, rng, scheme, workers):
    # chunk c is drawn by worker c mod WORKERS into its own rows, from its own
    # stream, so every thread count hands out the same counts and rejections;
    # frequent thread switches would expose a lost update
    p = boxes.random_nonsignaling(rng)
    monkeypatch.setattr(simulate, "WORKERS", workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for runs in (1, CHUNK, CHUNK + 1, 5 * CHUNK + 3):
            counts, rejections = counts_ensemble(p, scheme, runs=runs, seed=42)
            sizes = [min(CHUNK, runs - start) for start in range(0, runs, CHUNK)]
            ref = [_reference_chunk(p, scheme, 42, c, k) for c, k in enumerate(sizes)]
            assert np.array_equal(counts, np.concatenate([r[0] for r in ref]))
            assert rejections == sum(r[1] for r in ref)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
@pytest.mark.parametrize("on_caller", [False, True], ids=["fails-on-a-worker", "fails-on-the-caller"])
def test_a_failing_chunk_is_raised_and_no_thread_outlives_the_call(monkeypatch, on_caller, error):
    # each chunk asks the fixed-allocation scheme for its block totals; the
    # request fails on the worker thread or on the calling thread, worker 0
    block_counts = SamplingScheme.block_counts

    def failing(scheme):
        if (threading.current_thread() is threading.main_thread()) == on_caller:
            raise error("injected")
        return block_counts(scheme)

    monkeypatch.setattr(simulate, "WORKERS", 2)
    monkeypatch.setattr(SamplingScheme, "block_counts", failing)
    before = threading.active_count()
    with pytest.raises(error, match="injected"):
        counts_ensemble(boxes.uniform_box(), SamplingScheme(64), runs=4 * CHUNK, seed=1)
    assert threading.active_count() == before


def test_an_interrupt_while_waiting_for_the_workers_stops_them(monkeypatch):
    # the caller is interrupted (as by Ctrl-C or a SIGALRM handler) in its
    # first join, while the worker, slowed down here, has chunks left to draw
    block_counts, join = SamplingScheme.block_counts, threading.Thread.join
    worker_chunks, joins = [], []

    def slow(scheme):
        if threading.current_thread() is not threading.main_thread():
            worker_chunks.append(scheme)
            time.sleep(0.05)
        return block_counts(scheme)

    def interrupted(thread, timeout=None):
        joins.append(thread)
        if len(joins) == 1:
            raise KeyboardInterrupt
        return join(thread, timeout)

    monkeypatch.setattr(simulate, "WORKERS", 2)
    monkeypatch.setattr(SamplingScheme, "block_counts", slow)
    monkeypatch.setattr(threading.Thread, "join", interrupted)
    before = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        counts_ensemble(boxes.uniform_box(), SamplingScheme(64), runs=40 * CHUNK, seed=1)
    assert threading.active_count() == before
    assert len(worker_chunks) < 20  # it stopped before drawing all of its chunks


def test_one_chunk_starts_no_thread(monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(simulate, "WORKERS", 8)
    monkeypatch.setattr(simulate.threading, "Thread", no_thread)
    before = threading.active_count()
    counts, _ = counts_ensemble(boxes.uniform_box(), SamplingScheme(64), runs=CHUNK, seed=1)
    assert counts.shape == (CHUNK, 16)
    with pytest.raises(AssertionError, match="thread was started"):  # two chunks would
        counts_ensemble(boxes.uniform_box(), SamplingScheme(64), runs=CHUNK + 1, seed=1)
    assert threading.active_count() == before


@pytest.mark.parametrize("allocation", list(Allocation))
def test_ensemble_of_whole_chunks_is_a_prefix(rng, allocation):
    p = boxes.random_nonsignaling(rng)
    scheme = SamplingScheme(64, allocation)
    for m in (1, 2):
        short, _ = counts_ensemble(p, scheme, runs=m * CHUNK, seed=3)
        long, _ = counts_ensemble(p, scheme, runs=(m + 1) * CHUNK, seed=3)
        assert np.array_equal(short, long[:m * CHUNK])


@pytest.mark.parametrize("allocation", list(Allocation))
def test_counts_are_nonnegative_int64_with_the_drawn_block_totals(rng, allocation):
    p = boxes.random_nonsignaling(rng)
    scheme = SamplingScheme(245, allocation)
    runs = CHUNK + 7
    counts, rejections = counts_ensemble(p, scheme, runs=runs, seed=12)
    assert counts.dtype == np.int64 and counts.shape == (runs, 16)
    assert counts.min() >= 0
    totals = counts.reshape(runs, 4, 4).sum(axis=2)  # block id x + 2y
    if allocation is Allocation.FIXED_EQUAL:
        assert np.array_equal(totals, np.tile(scheme.block_counts(), (runs, 1)))
    else:  # each chunk's stream opens with its block totals
        assert rejections == 0
        drawn = [np.random.default_rng([12, c]).multinomial(245, [0.25] * 4, size=k)
                 for c, k in enumerate((CHUNK, 7))]
        assert np.array_equal(totals, np.concatenate(drawn))


# The ensemble engine before it handed out counts, copied verbatim as an
# oracle: run_ensemble and mc_covariance must reproduce its rows bit for bit.

def _block_totals(scheme: SamplingScheme, rng: np.random.Generator, k: int) -> np.ndarray:
    """Per-block trial counts N(xy) of k runs, shape (k, 4), block id x + 2y."""
    if scheme.allocation is Allocation.FIXED_EQUAL:
        return np.broadcast_to(scheme.block_counts(), (k, 4))
    return rng.multinomial(scheme.n_trials, [0.25] * 4, size=k)


def _cell_counts(p: np.ndarray, n_xy: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Cell counts N(abxy) of k runs with block totals ``n_xy``, shape (k, 16).

    Block b holds cells 4b ... 4b+3, so each block is one multinomial draw
    for all k runs.
    """
    counts = np.empty((n_xy.shape[0], DIM), dtype=np.int64)
    for b, pb in enumerate(p.reshape(4, 4)):
        counts[:, 4 * b:4 * b + 4] = rng.multinomial(n_xy[:, b], pb / pb.sum())
    return counts


def frequencies_ensemble(p, scheme: SamplingScheme, runs: int,
                         seed: int) -> tuple[np.ndarray, int]:
    """Frequency estimators of ``runs`` independent runs, shape (runs, 16),
    plus the total number of rejected draws.

    Uniform-random draws that leave a setting block empty are redrawn from the
    chunk's stream (the frequency estimator is undefined on them); each
    redrawn run counts one rejection.  At realistic trial counts rejections
    are vanishingly rare.
    """
    if runs < 1:
        raise ValueError("need at least one run")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    # clip the tolerance-level negatives admitted by check_distribution;
    # multinomial sampling requires exact nonnegativity
    arr = np.clip(check_distribution(p, tol=BEHAVIOR_TOL), 0.0, None)
    out = np.empty((runs, DIM))
    rejections = 0
    for c, start in enumerate(range(0, runs, CHUNK)):
        rng = np.random.default_rng([seed, c])
        k = min(CHUNK, runs - start)
        n_xy = _block_totals(scheme, rng, k)
        empty = np.flatnonzero(np.min(n_xy, axis=1) == 0)
        while empty.size:
            rejections += empty.size
            n_xy[empty] = _block_totals(scheme, rng, empty.size)
            empty = empty[np.min(n_xy[empty], axis=1) == 0]
        out[start:start + k] = frequencies(_cell_counts(arr, n_xy, rng))
    return out, rejections


@pytest.mark.parametrize("scheme", [
    SamplingScheme(245),
    SamplingScheme(48, Allocation.UNIFORM_RANDOM),
    SamplingScheme(5, Allocation.UNIFORM_RANDOM),  # frequent rejections
], ids=["fixed-245", "random-48", "random-5"])
def test_counts_give_the_frequency_engine_rows_exactly(rng, scheme):
    p = boxes.random_nonsignaling(rng)
    betas = [catalog("CHSH"), catalog("CH"), catalog("EH")]
    runs = 2 * CHUNK + 5
    freqs, rejections = frequencies_ensemble(p, scheme, runs, seed=21)
    rep = run_ensemble(p, betas, scheme, runs=runs, seed=21)
    assert np.array_equal(rep.values, freqs @ np.stack([b.coeffs for b in betas], axis=1))
    assert rep.rejections == rejections
    assert np.array_equal(mc_covariance(p, scheme, runs=runs, seed=21),
                          np.cov(freqs, rowvar=False, ddof=1))


@settings(max_examples=100, deadline=None)
@given(p=accepted_behaviors(), allocation=st.sampled_from(list(Allocation)),
       seed=st.integers(0, 2**32 - 1))
def test_shares_and_counts_match_the_clip_and_divide_oracle(p, allocation, seed):
    # the sampler's own clip and shares lines before they moved into
    # space.block_distributions, copied verbatim as the oracle; the counts
    # follow the same rule through _reference_chunk
    arr = np.clip(check_distribution(p, tol=BEHAVIOR_TOL), 0.0, None)
    shares = [pb / pb.sum() for pb in arr.reshape(4, 4)]  # block b: cells 4b ... 4b+3
    assert np.array_equal(block_distributions(p), np.stack(shares))
    scheme = SamplingScheme(245, allocation)
    counts, rejections = counts_ensemble(p, scheme, runs=50, seed=seed)
    ref, ref_rejections = _reference_chunk(p, scheme, seed, 0, 50)
    assert np.array_equal(counts, ref) and rejections == ref_rejections


def test_uniform_random_allocation_rejects_empty_blocks():
    # tiny trial counts make empty setting blocks likely; they are redrawn
    p = boxes.uniform_box()
    scheme = SamplingScheme(5, Allocation.UNIFORM_RANDOM)
    counts, rejections = counts_ensemble(p, scheme, runs=300, seed=2)
    assert rejections > 0
    for row in counts:
        assert row.sum() == 5
        for x in range(2):
            for y in range(2):
                assert row[block_indices(x, y)].sum() >= 1


def test_uniform_random_allocation_below_four_trials_raises():
    # four setting blocks cannot all be filled by fewer than four trials, so
    # rejection sampling would never terminate; the scheme itself refuses them
    for n in (1, 2, 3):
        with pytest.raises(ValueError, match="at least 4 trials"):
            SamplingScheme(n, Allocation.UNIFORM_RANDOM)


def test_ensemble_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be nonnegative, got -5"):
        counts_ensemble(boxes.uniform_box(), SamplingScheme(16), runs=2, seed=-5)


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


def test_summary_of_numpy_integer_inputs_is_json():
    # library callers may pass numpy integers for the trial count and seed
    rep = run_ensemble(boxes.tsirelson_box(), [catalog("CHSH")],
                       SamplingScheme(np.int64(64)), runs=10, seed=np.int64(1))
    s = json.loads(json.dumps(rep.summary()))
    assert s["trials"] == 64 and s["seed"] == 1


def test_one_run_has_zero_sd():
    rep = run_ensemble(boxes.tsirelson_box(), [catalog("CHSH"), catalog("CH")],
                       SamplingScheme(64), runs=1, seed=8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = rep.summary()
        for k, name in enumerate(rep.names):
            entry = s["inequalities"][name]
            assert entry == {"mean": rep.values[0, k], "sd": 0.0}
            assert rep.mean(name) == entry["mean"] and rep.sd(name) == 0.0


def test_histogram_rejects_fewer_than_one_bin(tmp_path):
    rep = run_ensemble(boxes.tsirelson_box(), [catalog("CHSH")], SamplingScheme(64),
                       runs=10, seed=4)
    for bins in (0, -3):
        path = tmp_path / f"hist{bins}.csv"
        with pytest.raises(ValueError, match=f"bins must be at least 1, got {bins}"):
            write_histogram_csv(rep, path, bins=bins)
        assert not path.exists()


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
