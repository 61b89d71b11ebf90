"""Command line: artifact generation, golden equivalence with the library."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bellopt import boxes, relabel, sources, space, variance
from bellopt.cli import main
from bellopt.inequalities import catalog, inequality_from_json
from bellopt.sampling import Allocation, SamplingScheme
from bellopt.simulate import counts_ensemble, run_ensemble
from bellopt.sources import nv_distribution, spdc_distribution


def run_cli(*argv):
    return main(list(argv))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_catalog_export(tmp_path, capsys):
    out = tmp_path / "chsh.json"
    assert run_cli("catalog", "--name", "CHSH", "--output", str(out)) == 0
    obj = read_json(out)
    assert inequality_from_json(obj).coeffs @ boxes.tsirelson_box() == pytest.approx(
        catalog("CHSH").value(boxes.tsirelson_box())
    )
    assert obj["local_bound"] == 0.0
    assert run_cli("catalog", "--list") == 0
    assert "OPT_REF" in capsys.readouterr().out


def test_catalog_unknown_name_fails(capsys):
    assert run_cli("catalog", "--name", "NOPE") == 2
    err = capsys.readouterr().err
    assert json.loads(err)["error"] == "KeyError"


def test_decompose_reports_nonzero_components(tmp_path, capsys):
    inp = tmp_path / "sig.json"
    inp.write_text(json.dumps(space.vector_to_json(boxes.setting_copy_box())))
    out = tmp_path / "report.json"
    assert run_cli("decompose", "--input", str(inp), "--output", str(out)) == 0
    report = read_json(out)
    assert set(report["nonzero"]) == {"NO1", "SI_to_B"}
    # golden equivalence with direct library calls
    d = space.decompose(boxes.setting_copy_box())
    for lbl, comp in report["components"].items():
        sub = space.Subspace(lbl)
        assert np.allclose(comp, d[sub], atol=0)
    assert "SI_to_B" in capsys.readouterr().out


def test_decompose_rejects_a_bad_tolerance(tmp_path, capsys):
    inp = tmp_path / "p.json"
    inp.write_text(json.dumps(space.vector_to_json(boxes.setting_copy_box())))
    out = tmp_path / "report.json"
    for tol in ("nan", "-1", "inf"):
        assert run_cli("decompose", "--input", str(inp), "--tolerance", tol,
                       "--output", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        err = json.loads(captured.err)
        assert err["error"] == "ValueError" and "tol must be finite" in err["message"]


def test_group_verify_report(tmp_path):
    out = tmp_path / "group.json"
    assert run_cli("group-verify", "--output", str(out)) == 0
    report = read_json(out)
    assert report["order"] == 128
    assert report["axioms_hold"] is True
    assert report["invariant_block_count"] == 6
    assert report["commutant_dimension"] == 6
    assert report["averaging_projector_is_trivial_component"] is True
    assert report["cayley_sha256"] == relabel.cayley_checksum()


def test_model_nv_default_matches_library(tmp_path):
    out = tmp_path / "p1.json"
    assert run_cli("model", "nv", "--output", str(out)) == 0
    p = space.vector_from_json(read_json(out))
    assert np.allclose(p, nv_distribution(), atol=0)


def test_model_nv_angle_flags(tmp_path):
    from bellopt.sources import MeasurementAngles, nv_distribution

    out = tmp_path / "p.json"
    assert run_cli("model", "nv", "--angles", "0", "1.5707963267948966",
                   "-2.356194490192345", "2.356194490192345",
                   "--output", str(out)) == 0
    p = space.vector_from_json(read_json(out))
    expected = nv_distribution(angles=MeasurementAngles(
        (0.0, 1.5707963267948966), (-2.356194490192345, 2.356194490192345)))
    assert np.allclose(p, expected, atol=0)


@pytest.mark.parametrize("source, defaults", [
    ("nv", {"--lambda": sources.NV_LAMBDA, "--visibility": sources.NV_VISIBILITY,
            "--eta-plus-a": sources.NV_ETA[0], "--eta-minus-a": sources.NV_ETA[1],
            "--eta-plus-b": sources.NV_ETA[2], "--eta-minus-b": sources.NV_ETA[3]}),
    ("spdc", {"--mu": sources.SPDC_MU, "--ratio-r": sources.SPDC_RATIO,
              "--eta-a": sources.SPDC_ETA_A, "--eta-b": sources.SPDC_ETA_B,
              "--cutoff": sources.SPDC_CUTOFF}),
])
def test_model_help_prints_the_source_defaults(source, defaults, capsys):
    # the parser spells the defaults out so that other commands need not
    # import sources; they must stay the sources module's constants
    with pytest.raises(SystemExit):
        run_cli("model", source, "--help")
    text = " ".join(capsys.readouterr().out.split())
    printed = dict(re.findall(r"(--[a-z-]+) [A-Z_]+ [^\[\]()]*\(default: ([^)]+)\)", text))
    assert printed.keys() == defaults.keys()
    assert all(float(printed[flag]) == value for flag, value in defaults.items())


def test_model_spdc_flags(tmp_path):
    out = tmp_path / "p2.json"
    assert run_cli("model", "spdc", "--cutoff", "3", "--mu", "2e-4", "--output", str(out)) == 0
    p = space.vector_from_json(read_json(out))
    assert np.allclose(p, spdc_distribution(mu=2e-4, cutoff=3), atol=0)


@pytest.mark.parametrize("argv, name", [
    (("spdc", "--mu", "nan"), "mu"),
    (("spdc", "--ratio-r", "inf"), "ratio"),
    (("nv", "--lambda", "nan"), "lam"),
    (("nv", "--visibility=-inf"), "visibility"),
])
def test_model_rejects_non_finite_parameters(argv, name, tmp_path, capsys):
    out = tmp_path / "p.json"
    assert run_cli("model", *argv, "--output", str(out)) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and err["message"].startswith(f"{name} must be finite")
    assert not out.exists()


@pytest.mark.parametrize("argv, name", [
    (("--mu", "2000"), "mu"),
    (("--mu", "1400", "--cutoff", "6"), "mu"),
    (("--ratio-r", "1e200"), "ratio"),
])
def test_model_spdc_rejects_parameters_it_cannot_compute(argv, name, tmp_path, capsys):
    out = tmp_path / "p.json"
    assert run_cli("model", "spdc", *argv, "--output", str(out)) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and err["message"].startswith(f"{name} = ")
    assert not out.exists()


def test_model_spdc_huge_mu_writes_only_the_json_error():
    # a fresh process, so numpy warnings would reach stderr instead of pytest
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "bellopt.cli", "model", "spdc", "--mu", "1e300"],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 2 and proc.stdout == ""
    err = json.loads(proc.stderr)
    assert err["error"] == "ValueError" and err["message"].startswith("mu = 1e+300 ")


#: a fresh process runs one command and prints which of the watched modules
#: it loaded; stdlib modules are left out, because they vary across Pythons
_LOADED = (
    "import json, sys\n"
    "from bellopt.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(json.dumps([code] + sorted(m for m in sys.modules\n"
    "                                 if m.startswith('bellopt.') or m == 'numpy.ma')))\n"
)
_NOT_RUN = {"bellopt.relabel", "bellopt.simulate", "bellopt.sources", "bellopt.variance"}


@pytest.mark.parametrize("argv, absent", [
    (["group-verify", "--output", "group.json"],
     {"bellopt.simulate", "bellopt.sources", "bellopt.variance"}),
    (["catalog", "--name", "CH", "--output", "ch.json"], _NOT_RUN),
    (["model", "nv", "--output", "p.json"],
     {"bellopt.relabel", "bellopt.simulate", "bellopt.variance"}),
    (["decompose", "--input", "p1.json", "--output", "report.json"], _NOT_RUN),
    (["optimize", "--input", "p1.json", "--name", "CH", "--trials", "245",
      "--output", "bstar.json"], {"bellopt.relabel", "bellopt.simulate", "bellopt.sources"}),
    (["simulate", "--input", "p1.json", "--trials", "245", "--runs", "20"],
     {"bellopt.relabel", "bellopt.sources", "bellopt.variance"}),
], ids=["group-verify", "catalog", "model-nv", "decompose", "optimize", "simulate"])
def test_commands_load_only_what_they_run(argv, absent, tmp_path):
    (tmp_path / "p1.json").write_text(json.dumps(space.vector_to_json(nv_distribution())))
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED, *argv], cwd=tmp_path, capture_output=True, text=True,
        timeout=120, env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    code, *loaded = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stderr
    assert "numpy.ma" not in loaded  # np.unique would import it
    assert not absent & set(loaded)


def test_package_exports_resolve_on_first_use():
    import bellopt

    assert all(getattr(bellopt, name) is not None for name in bellopt.__all__)
    assert bellopt.run_ensemble is run_ensemble and bellopt.std_dev is variance.std_dev
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        bellopt.nope


def test_optimize_artifacts(tmp_path):
    inp = tmp_path / "p1.json"
    inp.write_text(json.dumps(space.vector_to_json(nv_distribution())))
    out = tmp_path / "bstar.json"
    rep = tmp_path / "report.json"
    assert run_cli(
        "optimize", "--input", str(inp), "--name", "CH",
        "--trials", "245", "--cov", "analytic",
        "--output", str(out), "--report", str(rep),
    ) == 0
    bstar = inequality_from_json(read_json(out))
    sigma = variance.analytic_covariance(nv_distribution(), SamplingScheme(245))
    expected = variance.optimal_variant(catalog("CH"), sigma)
    assert np.allclose(bstar.coeffs, expected.coeffs, atol=0)
    report = read_json(rep)
    assert report["sd_after"] <= report["sd_before"]
    assert report["sd_before"] == pytest.approx(variance.std_dev(catalog("CH"), sigma))


def test_optimize_mc_covariance_deterministic(tmp_path):
    inp = tmp_path / "p.json"
    inp.write_text(json.dumps(space.vector_to_json(boxes.tsirelson_box())))
    outs = []
    for k in range(2):
        out = tmp_path / f"b{k}.json"
        assert run_cli(
            "optimize", "--input", str(inp), "--name", "CH", "--trials", "100",
            "--cov", "mc", "--runs", "400", "--seed", "9", "--output", str(out),
        ) == 0
        outs.append(out.read_text())
    assert outs[0] == outs[1]


def test_optimize_mc_report_counts_rejected_draws(tmp_path):
    inp = tmp_path / "p1.json"
    inp.write_text(json.dumps(space.vector_to_json(nv_distribution())))
    rep = tmp_path / "report.json"
    assert run_cli(
        "optimize", "--input", str(inp), "--name", "CH", "--trials", "6", "--cov", "mc",
        "--allocation", "random", "--runs", "300", "--seed", "2",
        "--output", str(tmp_path / "bstar.json"), "--report", str(rep),
    ) == 0
    scheme = SamplingScheme(6, Allocation.UNIFORM_RANDOM)
    _, rejections = counts_ensemble(nv_distribution(), scheme, 300, 2)
    assert rejections > 0
    assert read_json(rep)["rejected_draws"] == rejections


def test_simulate_artifacts_and_determinism(tmp_path):
    inp = tmp_path / "p1.json"
    inp.write_text(json.dumps(space.vector_to_json(nv_distribution())))
    summary_path = tmp_path / "summary.json"
    hist_path = tmp_path / "hist.csv"
    vals_path = tmp_path / "vals.csv"
    args = (
        "simulate", "--input", str(inp), "--name", "CHSH", "--name", "CH",
        "--trials", "245", "--runs", "400", "--seed", "21",
        "--histogram-csv", str(hist_path), "--values-csv", str(vals_path),
        "--output", str(summary_path),
    )
    assert run_cli(*args) == 0
    first = summary_path.read_text(), hist_path.read_text(), vals_path.read_text()
    assert run_cli(*args) == 0
    assert (summary_path.read_text(), hist_path.read_text(), vals_path.read_text()) == first

    summary = read_json(summary_path)
    expected = run_ensemble(
        nv_distribution(), [catalog("CHSH"), catalog("CH")],
        SamplingScheme(245), runs=400, seed=21,
    )
    assert summary["inequalities"]["CHSH"]["mean"] == pytest.approx(expected.mean("CHSH"))
    assert summary["inequalities"]["CH"]["sd"] == pytest.approx(expected.sd("CH"))


def test_simulate_rejects_a_repeated_name(tmp_path, capsys):
    inp = tmp_path / "p.json"
    inp.write_text(json.dumps(space.vector_to_json(boxes.uniform_box())))
    hist = tmp_path / "hist.csv"
    assert run_cli("simulate", "--input", str(inp), "--name", "CH", "--name", "CH",
                   "--trials", "16", "--runs", "2", "--histogram-csv", str(hist)) == 2
    out, err = capsys.readouterr()
    assert out == "" and not hist.exists()
    err = json.loads(err)
    assert err["error"] == "ValueError" and "'CH' is repeated" in err["message"]


def test_json_output_is_canonical(tmp_path):
    out = tmp_path / "chsh.json"
    run_cli("catalog", "--name", "CHSH", "--output", str(out))
    text = out.read_text()
    assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text


def test_missing_input_file_fails(tmp_path, capsys):
    assert run_cli("decompose", "--input", str(tmp_path / "none.json")) == 2
    err = json.loads(capsys.readouterr().err)
    assert "message" in err


def test_invalid_distribution_fails(tmp_path, capsys):
    inp = tmp_path / "bad.json"
    inp.write_text(json.dumps({"coeffs": [0.5] * 16}))
    assert run_cli("simulate", "--input", str(inp), "--trials", "16", "--runs", "2") == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ValueError"


def test_simulate_random_allocation_below_four_trials_fails(tmp_path, capsys):
    inp = tmp_path / "p.json"
    inp.write_text(json.dumps(space.vector_to_json(boxes.uniform_box())))
    assert run_cli("simulate", "--input", str(inp), "--allocation", "random",
                   "--trials", "3", "--runs", "2") == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and "at least 4 trials" in err["message"]


def test_simulate_rejects_bad_bins_and_seed(tmp_path, capsys):
    inp = tmp_path / "p.json"
    inp.write_text(json.dumps(space.vector_to_json(boxes.uniform_box())))
    hist = tmp_path / "hist.csv"
    for flags, message in ((("--bins", "0"), "bins must be at least 1, got 0"),
                           (("--bins", "-3"), "bins must be at least 1, got -3"),
                           (("--seed", "-5"), "seed must be nonnegative, got -5")):
        assert run_cli("simulate", "--input", str(inp), "--trials", "16", "--runs", "2",
                       "--histogram-csv", str(hist), *flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # refused before any run is drawn
        assert json.loads(captured.err) == {"error": "ValueError", "message": message}
        assert not hist.exists()
    assert run_cli("optimize", "--input", str(inp), "--name", "CH", "--trials", "16",
                   "--cov", "mc", "--runs", "10", "--seed", "-5") == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError", "message": "seed must be nonnegative, got -5"}


def test_optimize_rejects_ambiguous_inequality_choice(tmp_path, capsys):
    inp = tmp_path / "p.json"
    inp.write_text(json.dumps(space.vector_to_json(boxes.uniform_box())))
    ineq = tmp_path / "i.json"
    ineq.write_text(json.dumps({"coeffs": [0.0] * 16, "local_bound": 0.0}))
    assert run_cli("optimize", "--input", str(inp), "--name", "CH",
                   "--inequality", str(ineq), "--trials", "100") == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ValueError"
    assert run_cli("optimize", "--input", str(inp), "--trials", "100") == 2
