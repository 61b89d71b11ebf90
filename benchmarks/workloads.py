"""The four benchmark workloads.

Each workload builds its inputs from a seed (``build``), performs numbered
operations (``op``) that raise ``CheckFailed`` when an output is wrong, and
runs the checks that need the whole run (``finish``).  Every call into a
``bellopt`` module goes through ``tracer.call`` so the traced run can time
it from outside; the library itself is not modified.

The reference figures are the paper's published run statistics of the
spin-pair source (245 trials per run) and of the photon-pair source (176M
trials per run), with the tolerances of the acceptance suite.
"""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from bellopt import boxes, relabel, simulate, sources, space, variance
from bellopt.inequalities import BellInequality, catalog, inequality_to_json, ns_equivalent
from bellopt.sampling import Allocation, SamplingScheme
from bellopt.space import Subspace

# published run statistics
SPIN_TRIALS = 245
SPIN_MEAN = 0.302
SPIN_SD = {"CHSH": 0.211, "CH": 0.464}
PHOTON_TRIALS = 176_000_000
PHOTON_MEAN = 1.25e-5
PHOTON_SD = {"CHSH": 5.65e-6, "CH": 1.20e-5, "EH": 3.72e-6}
PHOTON_SD_OPT_REF = 2.60e-6
PHOTON_SIGMA_RATIO = {"CH": 1.0, "EH": 3.4, "OPT_REF": 4.8}

#: z-score of the statistical checks; a correct program fails one of them
#: with probability about 2e-9
Z = 6.0


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(a, b, rtol: float) -> bool:
    return bool(np.allclose(np.asarray(a, dtype=float), np.asarray(b, dtype=float),
                            rtol=rtol, atol=0.0))


class Workload:
    """Closed loop of operations in one process.

    ``unit`` names one unit of work; ``op`` returns how many it completed.
    ``session`` is the number of consecutive operations that form one
    indivisible piece of work: a run only stops on a session boundary.
    """

    name = ""
    unit = ""
    session = 1
    op_timeout_s = 60.0

    def __init__(self, seed: int, smoke: bool, tracer, out_dir: Path):
        self.seed = seed
        self.smoke = smoke
        self.tracer = tracer
        self.out_dir = out_dir
        self.counts = {"simulate.runs": 0, "simulate.trials_drawn": 0,
                       "simulate.rejected_draws": 0}

    def build(self) -> None:
        """Make the inputs from the seed."""

    def op(self, i: int) -> int:
        raise NotImplementedError

    def finish(self) -> tuple[int, list[tuple[int | None, str]]]:
        """Checks that need the whole run: the number of checks attempted on
        top of the operations, and each failure with the operation it
        belongs to (None for a check of the whole run)."""
        return 0, []

    def _count_runs(self, runs: int, trials: int, rejected: int = 0) -> None:
        self.counts["simulate.runs"] += runs
        self.counts["simulate.trials_drawn"] += runs * trials
        self.counts["simulate.rejected_draws"] += rejected


class SpinEnsemble(Workload):
    """The spin-pair run-ensemble reproduction: fixed-size ensembles of
    245-trial runs, each exported as a histogram CSV."""

    name = "spin-ensemble"
    unit = "run"

    def build(self) -> None:
        self.runs = 50 if self.smoke else 4000
        self.scheme = SamplingScheme(SPIN_TRIALS)
        self.p = sources.nv_distribution()
        sigma = variance.analytic_covariance(self.p, self.scheme)
        eh = catalog("EH")
        eh_star = variance.optimal_variant(eh, sigma)
        self.betas = [catalog("CHSH"), catalog("CH"), eh,
                      BellInequality(eh_star.coeffs, eh_star.local_bound, "EH*")]
        self.model_mean = np.array([b.value(self.p) for b in self.betas])
        self.model_sd = np.array([variance.std_dev(b, sigma) for b in self.betas])
        self.pooled = np.zeros((3, len(self.betas)))  # n, sum, sum of squares
        self.csv_path = self.out_dir / "histogram.csv"

    def op(self, i: int) -> int:
        call = self.tracer.call
        report = call("simulate.run_ensemble", simulate.run_ensemble, self.p, self.betas,
                      self.scheme, self.runs, self.seed * 1_000_003 + i, units=self.runs)
        call("simulate.write_histogram_csv", simulate.write_histogram_csv,
             report, self.csv_path)
        self._count_runs(report.runs, SPIN_TRIALS, report.rejections)

        v = report.values
        n = v.shape[0]
        _require(v.shape == (self.runs, len(self.betas)), f"values shape {v.shape}")
        mean = v.mean(axis=0)
        sd = v.std(axis=0, ddof=1)
        kurt = ((v - mean) ** 4).mean(axis=0) / sd ** 4
        _require(bool(np.all(np.abs(mean - self.model_mean) <= Z * self.model_sd / math.sqrt(n))),
                 f"op {i}: ensemble means {mean} vs model {self.model_mean}")
        sd_rel_se = np.sqrt(np.maximum(kurt - 1.0, 0.0) / (4.0 * n))
        _require(bool(np.all(np.abs(sd / self.model_sd - 1.0) <= Z * sd_rel_se)),
                 f"op {i}: ensemble sds {sd} vs model {self.model_sd}")
        with open(self.csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        totals = np.array([[int(c) for c in r[2:]] for r in rows[1:]]).sum(axis=0)
        _require(bool(np.all(totals == n)), f"op {i}: histogram totals {totals} != {n}")
        self.pooled += [np.full(len(mean), n), v.sum(axis=0), (v ** 2).sum(axis=0)]
        return n

    def finish(self) -> tuple[int, list[tuple[int | None, str]]]:
        """The pooled runs against the published figures, within the
        acceptance suite's tolerances plus the sampling error of the pool."""
        n, s1, s2 = self.pooled
        if n[0] < 2:
            return 0, []
        mean = s1 / n
        sd = np.sqrt((s2 - n * mean ** 2) / (n - 1))
        failures = []
        for k, beta in enumerate(self.betas):
            tol = 0.003 + Z * self.model_sd[k] / math.sqrt(n[k])
            if abs(mean[k] - SPIN_MEAN) > tol:
                failures.append((None, f"pooled mean {beta.name} {mean[k]:.4f} vs {SPIN_MEAN}"))
            if beta.name in SPIN_SD:
                tol = 0.02 + Z / math.sqrt(2.0 * n[k])
                if abs(sd[k] / SPIN_SD[beta.name] - 1.0) > tol:
                    failures.append((None, f"pooled sd {beta.name} {sd[k]:.4f} "
                                               f"vs {SPIN_SD[beta.name]}"))
        return 1, failures


class PhotonPipeline(Workload):
    """A seeded grid of photon-pair setups around the published parameters,
    each modelled at two photon-number cutoffs, optimized at 176M trials and
    cross-checked by a Monte-Carlo covariance under random allocation.
    Every eighth point is the published setup itself, checked against the
    published figures."""

    name = "photon-pipeline"
    unit = "point"

    def build(self) -> None:
        self.cutoffs = (3, 4) if self.smoke else (4, 6)
        self.mc_runs = 200 if self.smoke else 1000
        self.mc_ratios = []  # per point: MC sd / analytic sd of each inequality
        self.scheme = SamplingScheme(PHOTON_TRIALS)
        self.ineq = {n: catalog(n) for n in ("CHSH", "CH", "EH", "OPT_REF")}
        rng = np.random.default_rng([self.seed, 2])
        self.grid = []
        for k in range(64):
            if k % 8 == 0:
                self.grid.append((sources.SPDC_MU, sources.SPDC_ETA_A, sources.SPDC_ETA_B))
            else:
                self.grid.append((sources.SPDC_MU * (1.0 + rng.uniform(-0.05, 0.05)),
                                  sources.SPDC_ETA_A + rng.uniform(-0.005, 0.005),
                                  sources.SPDC_ETA_B + rng.uniform(-0.005, 0.005)))

    def _point(self, mu: float, eta_a: float, eta_b: float, cutoff: int) -> dict:
        call = self.tracer.call
        p = call(f"sources.spdc_distribution.c{cutoff}", sources.spdc_distribution,
                 mu=mu, eta_a=eta_a, eta_b=eta_b, cutoff=cutoff)
        sigma = call("variance.analytic_covariance", variance.analytic_covariance, p, self.scheme)
        out = {"p": p, "value": self.ineq["CHSH"].value(p), "sd": {}}
        for name in ("CH", "EH"):
            star = call("variance.optimal_variant", variance.optimal_variant,
                        self.ineq[name], sigma)
            out[name + "*"] = star
            _require(call("inequalities.ns_equivalent", ns_equivalent, star, self.ineq[name]),
                     f"{name}* changed the nonsignaling content")
        for name in ("CHSH", "CH", "EH", "OPT_REF", "CH*", "EH*"):
            beta = out[name] if name.endswith("*") else self.ineq[name]
            out["sd"][name] = call("variance.std_dev", variance.std_dev, beta, sigma)
        out["ratio"] = {name: call("variance.sigma_ratio", variance.sigma_ratio,
                                   out["value"], 0.0, sd)
                        for name, sd in out["sd"].items()}
        return out

    def op(self, i: int) -> int:
        mu, eta_a, eta_b = self.grid[i % len(self.grid)]
        results = [self._point(mu, eta_a, eta_b, c) for c in self.cutoffs]
        for c, r in zip(self.cutoffs, results):
            p, sd = r["p"], r["sd"]
            scale = float(np.min(p))
            _require(space.is_nonsignaling(p, tol=1e-6 * scale),
                     f"op {i}: cutoff {c} behavior signals")
            _require(r["value"] > 0.0, f"op {i}: no violation at cutoff {c}")
            for name in ("CH", "EH"):
                _require(sd[name + "*"] <= sd[name] * (1.0 + 1e-9),
                         f"op {i}: {name}* sd {sd[name + '*']:.4g} > {sd[name]:.4g}")
        lo, hi = results
        _require(float(np.max(np.abs(hi["p"] - lo["p"]))) <= 1e-6 * float(np.min(lo["p"])),
                 f"op {i}: cutoffs {self.cutoffs} disagree")
        _require(all(_close(hi["sd"][n], lo["sd"][n], 1e-6) for n in lo["sd"]),
                 f"op {i}: sds depend on the cutoff")
        if i % 8 == 0:
            self._check_published(i, lo)
        self._mc_cross_check(i, lo)
        return 1

    def _check_published(self, i: int, r: dict) -> None:
        """The acceptance suite's large-run and optimal-variant criteria."""
        sd, ratio = r["sd"], r["ratio"]
        for name, target in PHOTON_SD.items():
            _require(abs(sd[name] / target - 1.0) < 0.02, f"op {i}: sd {name} {sd[name]:.4g}")
        _require(abs(r["value"] / PHOTON_MEAN - 1.0) < 0.02, f"op {i}: mean {r['value']:.4g}")
        _require(abs(sd["OPT_REF"] / PHOTON_SD_OPT_REF - 1.0) < 0.03,
                 f"op {i}: published optimal variant sd {sd['OPT_REF']:.4g}")
        _require(sd["EH*"] <= sd["OPT_REF"] * (1.0 + 1e-12),
                 f"op {i}: computed optimum {sd['EH*']:.4g} above the published variant")
        for name, target in PHOTON_SIGMA_RATIO.items():
            _require(abs(ratio[name] / target - 1.0) < 0.10,
                     f"op {i}: sigma ratio {name} {ratio[name]:.3f}")

    def _mc_cross_check(self, i: int, r: dict) -> None:
        """Monte-Carlo covariance under uniform-random settings against the
        analytic one, within the sampling error of this point's runs; the
        pooled points are held to the acceptance suite's 5% in ``finish``."""
        scheme = SamplingScheme(PHOTON_TRIALS, Allocation.UNIFORM_RANDOM)
        mc = self.tracer.call("variance.mc_covariance", variance.mc_covariance, r["p"], scheme,
                              runs=self.mc_runs, seed=self.seed * 1_000_003 + i,
                              units=self.mc_runs)
        self._count_runs(self.mc_runs, PHOTON_TRIALS)
        ratios = [variance.std_dev(self.ineq[name], mc) / r["sd"][name] for name in PHOTON_SD]
        self.mc_ratios.append(ratios)
        tol = Z / math.sqrt(2.0 * self.mc_runs)
        for name, ratio in zip(PHOTON_SD, ratios):
            _require(abs(ratio - 1.0) < tol, f"op {i}: MC sd {name} deviates by {ratio - 1.0:+.3f}")

    def finish(self) -> tuple[int, list[tuple[int | None, str]]]:
        """The mean MC-to-analytic sd ratio over the run's points, within 5%."""
        if not self.mc_ratios:
            return 0, []
        mean = np.mean(self.mc_ratios, axis=0)
        tol = max(0.05, Z / math.sqrt(2.0 * self.mc_runs * len(self.mc_ratios)))
        self.mc_ratios = []
        return 1, [(None, f"pooled MC sd {name} deviates by {m - 1.0:+.3f}")
                   for name, m in zip(PHOTON_SD, mean) if abs(m - 1.0) > tol]


class VariantScan(Workload):
    """The optimizer alone over seeded nonsignaling behaviors, both reference
    behaviors, every relabeling of CH and EH and trial counts 1e2..1e8."""

    name = "variant-scan"
    unit = "variant"
    #: variants per operation: single variants take under a millisecond, so
    #: their tail latency would measure the scheduler, not the program
    BATCH = 64

    def build(self) -> None:
        rng = np.random.default_rng([self.seed, 3])
        self.behaviors = [boxes.random_nonsignaling(rng) for _ in range(62)]
        self.behaviors += [sources.nv_distribution(), sources.spdc_distribution()]
        self.schemes = [SamplingScheme(int(round(10.0 ** e))) for e in rng.uniform(2.0, 8.0, 32)]
        self.elements = relabel.enumerate_group()
        self.bases = [catalog("CH"), catalog("EH")]
        size = 4096
        self.plan = np.stack([
            rng.integers(len(self.behaviors), size=size),
            rng.integers(len(self.schemes), size=size),
            rng.integers(len(self.elements), size=size),
            rng.integers(len(self.bases), size=size),
        ], axis=1)

    def op(self, i: int) -> int:
        for row in range(i * self.BATCH, (i + 1) * self.BATCH):
            self._variant(row, *self.plan[row % len(self.plan)])
        return self.BATCH

    def _variant(self, row: int, b: int, t: int, g: int, k: int) -> None:
        call = self.tracer.call
        p = call("space.check_distribution", space.check_distribution,
                 self.behaviors[b], tol=1e-9)
        base = self.bases[k]
        coeffs = call("relabel.act", relabel.act, self.elements[g], base.coeffs)
        beta = BellInequality(coeffs, base.local_bound, f"{base.name}^{g}")
        sigma = call("variance.analytic_covariance", variance.analytic_covariance,
                     p, self.schemes[t])
        best = call("variance.optimal_variant", variance.optimal_variant, beta, sigma)
        sd0 = call("variance.std_dev", variance.std_dev, beta, sigma)
        sd1 = call("variance.std_dev", variance.std_dev, best, sigma)
        _require(call("inequalities.ns_equivalent", ns_equivalent, best, beta),
                 f"variant {row}: optimum not ns-equivalent to its input")
        change = call("space.decompose", space.decompose, best.coeffs - beta.coeffs)
        outside = max(float(np.max(np.abs(change.components[s])))
                      for s in change.components if s not in (Subspace.SI_TO_A, Subspace.SI_TO_B))
        _require(outside <= 1e-12 * float(np.max(np.abs(beta.coeffs))),
                 f"variant {row}: optimum changed non-signaling components by {outside:.3g}")
        _require(sd1 <= sd0 * (1.0 + 1e-9),
                 f"variant {row}: sd rose from {sd0:.6g} to {sd1:.6g}")


class CliSession(Workload):
    """The README command sequence, each command a fresh ``bellopt``
    process, checked afterwards against the same calls made in-process."""

    name = "cli-session"
    unit = "command"
    op_timeout_s = 90.0
    COMMANDS = ("catalog", "model_nv", "model_spdc", "decompose", "group_verify",
                "optimize", "simulate")
    session = len(COMMANDS)

    def build(self) -> None:
        self.sim_runs = 50 if self.smoke else 2000
        rng = np.random.default_rng([self.seed, 4])
        self.plan = [(str(rng.choice(["CHSH", "CH", "EH"])), int(rng.integers(2 ** 31)))
                     for _ in range(256)]
        self.env = self.child_env()
        self.sessions_run = 0
        self.sessions_checked = 0

    @staticmethod
    def child_env() -> dict:
        """This process's environment with the benchmarked ``bellopt``
        sources first on the import path."""
        env = dict(os.environ)
        src = str(Path(space.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        return env

    def argv(self, command: str, name: str, sim_seed: int) -> list[str]:
        return {
            "catalog": ["catalog", "--name", name, "--output", "catalog.json"],
            "model_nv": ["model", "nv", "--output", "p1.json"],
            "model_spdc": ["model", "spdc", "--output", "p2.json"],
            "decompose": ["decompose", "--input", "p2.json", "--output", "decompose.json"],
            "group_verify": ["group-verify", "--output", "group.json"],
            "optimize": ["optimize", "--input", "p2.json", "--name", name,
                         "--trials", str(PHOTON_TRIALS), "--cov", "analytic",
                         "--output", "optimize.json", "--report", "optimize-report.json"],
            "simulate": ["simulate", "--input", "p1.json", "--name", "CHSH", "--name", "CH",
                         "--trials", str(SPIN_TRIALS), "--runs", str(self.sim_runs),
                         "--seed", str(sim_seed), "--histogram-csv", "histogram.csv",
                         "--output", "simulate.json"],
        }[command]

    def session_dir(self, j: int) -> Path:
        return self.out_dir / f"session-{j}"

    def op(self, i: int) -> int:
        j, k = divmod(i, self.session)
        name, sim_seed = self.plan[j % len(self.plan)]
        command = self.COMMANDS[k]
        cwd = self.session_dir(j)
        cwd.mkdir(parents=True, exist_ok=True)
        self.sessions_run = max(self.sessions_run, j + 1)
        proc = self.tracer.call(
            f"cli.{command}", subprocess.run,
            [sys.executable, "-m", "bellopt.cli", *self.argv(command, name, sim_seed)],
            cwd=cwd, env=self.env, capture_output=True, text=True, timeout=self.op_timeout_s)
        _require(proc.returncode == 0,
                 f"{command} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return 1

    def finish(self) -> tuple[int, list[tuple[int | None, str]]]:
        """Compare the artifacts of every session run since the last check
        with in-process calls; a mismatch fails the command that wrote it."""
        call = self.tracer.call
        p1 = call("sources.nv_distribution", sources.nv_distribution)
        p2 = call("sources.spdc_distribution.c4", sources.spdc_distribution)
        group = self._group_reference()
        optimized = {}
        failures = []
        for j in range(self.sessions_checked, self.sessions_run):
            name, sim_seed = self.plan[j % len(self.plan)]
            d = self.session_dir(j)
            if name not in optimized:
                optimized[name] = self._optimize_reference(p2, name)
            checks = {
                "catalog": lambda: _load(d / "catalog.json") == _json_form(
                    inequality_to_json(catalog(name))),
                "model_nv": lambda: np.array_equal(_vector(d / "p1.json"), p1),
                "model_spdc": lambda: np.array_equal(_vector(d / "p2.json"), p2),
                "decompose": lambda: self._decompose_matches(d / "decompose.json", p2),
                "group_verify": lambda: _load(d / "group.json") == group,
                "optimize": lambda: self._optimize_matches(d, optimized[name]),
                "simulate": lambda: self._simulate_matches(d, p1, sim_seed),
            }
            for k, (command, check) in enumerate(checks.items()):
                try:
                    ok = check()
                except (OSError, ValueError, KeyError) as exc:
                    ok = False
                    command = f"{command} ({type(exc).__name__}: {exc})"
                if not ok:
                    failures.append((j * self.session + k,
                                     f"session {j}: {command} differs from the in-process call"))
        self.sessions_checked = self.sessions_run
        return 0, failures

    def _group_reference(self) -> dict:
        call = self.tracer.call
        elements = call("relabel.enumerate_group", relabel.enumerate_group)
        blocks = call("relabel.invariance_report", relabel.invariance_report, elements)
        avg = call("relabel.averaging_projector", relabel.averaging_projector, elements)
        return {
            "order": len(elements),
            "axioms_hold": call("relabel.group_axioms_hold", relabel.group_axioms_hold, elements),
            "invariant_blocks": blocks,
            "invariant_block_count": sum(blocks.values()),
            "commutant_dimension": call("relabel.commutant_dimension",
                                        relabel.commutant_dimension, elements),
            "averaging_projector_is_trivial_component": bool(
                np.allclose(avg, space.projector(Subspace.NO1), atol=1e-12)),
            "cayley_sha256": call("relabel.cayley_checksum", relabel.cayley_checksum, elements),
        }

    def _optimize_reference(self, p2, name: str) -> dict:
        call = self.tracer.call
        beta = catalog(name)
        p = call("space.check_distribution", space.check_distribution, p2, tol=1e-9)
        sigma = call("variance.analytic_covariance", variance.analytic_covariance,
                     p, SamplingScheme(PHOTON_TRIALS))
        best = call("variance.optimal_variant", variance.optimal_variant, beta, sigma)
        sd0 = call("variance.std_dev", variance.std_dev, beta, sigma)
        sd1 = call("variance.std_dev", variance.std_dev, best, sigma)
        value = beta.value(p)
        return {"variant": inequality_to_json(best), "value": value,
                "sd_before": sd0, "sd_after": sd1,
                "sigma_ratio_after": variance.sigma_ratio(value, best.local_bound, sd1)}

    def _decompose_matches(self, path: Path, p2) -> bool:
        report = _load(path)
        d = self.tracer.call("space.decompose", space.decompose, p2)
        return all(_close(report["components"][s.value], c, 1e-12)
                   for s, c in d.components.items())

    @staticmethod
    def _optimize_matches(d: Path, ref: dict) -> bool:
        variant = _load(d / "optimize.json")
        report = _load(d / "optimize-report.json")
        return (_close(variant["coeffs"], ref["variant"]["coeffs"], 1e-9)
                and variant["name"] == ref["variant"]["name"]
                and all(_close(report[k], ref[k], 1e-9)
                        for k in ("value", "sd_before", "sd_after", "sigma_ratio_after")))

    def _simulate_matches(self, d: Path, p1, sim_seed: int) -> bool:
        report = self.tracer.call(
            "simulate.run_ensemble", simulate.run_ensemble, p1, [catalog("CHSH"), catalog("CH")],
            SamplingScheme(SPIN_TRIALS), self.sim_runs, sim_seed, units=self.sim_runs)
        self._count_runs(report.runs, SPIN_TRIALS, report.rejections)
        ref_csv = d / "histogram-reference.csv"
        self.tracer.call("simulate.write_histogram_csv", simulate.write_histogram_csv,
                         report, ref_csv)
        return (_load(d / "simulate.json") == _json_form(report.summary())
                and (d / "histogram.csv").read_bytes() == ref_csv.read_bytes())


def _load(path: Path):
    with open(path) as fh:
        return json.load(fh)


def _json_form(obj):
    """``obj`` as it reads back from a JSON file."""
    return json.loads(json.dumps(obj))


def _vector(path: Path) -> np.ndarray:
    return space.vector_from_json(_load(path))


WORKLOADS = {w.name: w for w in (SpinEnsemble, PhotonPipeline, VariantScan, CliSession)}
