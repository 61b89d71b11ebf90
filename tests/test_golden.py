"""Golden artifacts of the README command chain.

Every command of the README chain runs in process, sized down where the
README runs long, and each artifact it writes, and its stdout, is compared
with ``tests/golden/readme_chain.json``: integers, strings and counts exactly,
CSV files by sha256, and floats to ``RTOL`` relative to the largest float in
the same top-level field of the artifact (so rounding noise next to O(1)
entries is held to the field's scale, not to its own).  A rejected input is
part of the chain: its exit code and JSON error are artifacts too.

A change that means to move an artifact regenerates the file with

    PYTHONPATH=src python tests/test_golden.py

and records the diff in CHANGES.md.  The file records the numpy version it
was made with; the multinomial streams and the linear algebra are numpy's,
so a failure names both versions.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np

from bellopt.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "readme_chain.json"
REGENERATE = "PYTHONPATH=src python tests/test_golden.py"
RTOL = 1e-12

#: the sums of blocks (1,0) (cells 4-7) and (0,1) (cells 8-11) are off by
#: 1e-3 and their last bits depend on the order of the additions; the error
#: names the first bad block in the order of the check
UNNORMALIZED = [0.25] * 4 + [0.2, 0.2, 0.2, 0.401] + [0.1, 0.2, 0.2, 0.501] + [0.25] * 4

#: (name, argv, artifacts) in README order; ``{d}`` is the working directory
CHAIN = (
    ("catalog", ["catalog", "--name", "CHSH", "--output", "{d}/chsh.json"], ["chsh.json"]),
    ("model nv", ["model", "nv", "--output", "{d}/p1.json"], ["p1.json"]),
    ("model spdc", ["model", "spdc", "--output", "{d}/p2.json"], ["p2.json"]),
    ("decompose", ["decompose", "--input", "{d}/p1.json", "--output", "{d}/report.json"],
     ["report.json"]),
    ("group-verify", ["group-verify", "--output", "{d}/group.json"], ["group.json"]),
    ("optimize analytic",
     ["optimize", "--input", "{d}/p2.json", "--name", "EH", "--trials", "176000000",
      "--cov", "analytic", "--output", "{d}/opt.json", "--report", "{d}/opt-report.json"],
     ["opt.json", "opt-report.json"]),
    ("optimize mc",
     ["optimize", "--input", "{d}/p2.json", "--name", "EH", "--trials", "176000000",
      "--cov", "mc", "--allocation", "random", "--runs", "1000", "--seed", "3",
      "--output", "{d}/opt-mc.json", "--report", "{d}/opt-mc-report.json"],
     ["opt-mc.json", "opt-mc-report.json"]),
    ("simulate",
     ["simulate", "--input", "{d}/p1.json", "--name", "CHSH", "--name", "CH",
      "--trials", "245", "--runs", "200", "--seed", "1", "--histogram-csv", "{d}/hist.csv",
      "--values-csv", "{d}/values.csv", "--output", "{d}/summary.json"],
     ["summary.json", "hist.csv", "values.csv"]),
    ("rejected input",
     ["simulate", "--input", "{d}/unnormalized.json", "--trials", "16", "--runs", "2"], []),
)


def run_chain(workdir: Path) -> dict:
    """Run ``CHAIN`` in ``workdir``; return every artifact keyed by file name,
    plus each command's exit code, its stdout and any JSON error it wrote."""
    (workdir / "unnormalized.json").write_text(json.dumps({"coeffs": UNNORMALIZED}))
    out = {"exit codes": {}}
    for name, argv, files in CHAIN:
        stdout, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
            out["exit codes"][name] = main([a.format(d=workdir) for a in argv])
        out[f"{name}: stdout"] = {"text": stdout.getvalue()}
        if err.getvalue():
            out[f"{name}: stderr"] = json.loads(err.getvalue())
        for f in files:
            data = (workdir / f).read_bytes()
            out[f] = (json.loads(data) if f.endswith(".json") else
                      {"sha256": hashlib.sha256(data).hexdigest(),
                       "lines": data.count(b"\n")})
    return out


def _floats(node):
    if isinstance(node, float):
        yield node
    elif isinstance(node, (dict, list)):
        for v in node.values() if isinstance(node, dict) else node:
            yield from _floats(v)


def mismatches(want, got, path: str, scale: float) -> list[str]:
    """Paths where ``got`` differs from ``want``: floats by more than ``RTOL``
    times the larger of |want| and ``scale``, anything else at all."""
    if isinstance(want, dict) and isinstance(got, dict):
        if sorted(want) != sorted(got):
            return [f"{path}: keys {sorted(want)} != {sorted(got)}"]
        return [m for k in want for m in mismatches(want[k], got[k], f"{path}/{k}", scale)]
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [f"{path}: length {len(want)} != {len(got)}"]
        return [m for k, (w, g) in enumerate(zip(want, got))
                for m in mismatches(w, g, f"{path}[{k}]", scale)]
    if isinstance(want, float) and isinstance(got, float):
        ok = abs(got - want) <= RTOL * max(abs(want), scale)
    else:
        ok = type(want) is type(got) and want == got
    return [] if ok else [f"{path}: {want!r} != {got!r}"]


def artifact_mismatches(want: dict, got: dict) -> list[str]:
    """``mismatches`` of every artifact, each top-level field at the scale of
    its own largest float."""
    if sorted(want) != sorted(got):
        return [f"artifacts {sorted(want)} != {sorted(got)}"]
    return [m for name in want for field in want[name]
            for m in mismatches(want[name].get(field), got[name].get(field),
                                f"{name}/{field}",
                                max(map(abs, _floats(want[name][field])), default=0.0))
            ] + [f"{name}: new fields {sorted(set(got[name]) - set(want[name]))}"
                 for name in want if set(got[name]) - set(want[name])]


def test_readme_chain_matches_golden_artifacts(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    found = artifact_mismatches(golden["artifacts"], run_chain(tmp_path))
    assert not found, (
        f"{len(found)} artifact values differ from {GOLDEN.name}, made with numpy "
        f"{golden['numpy']}; this is numpy {np.__version__}.  If the change is "
        f"intended, regenerate with `{REGENERATE}`.\n" + "\n".join(found[:20]))


def test_artifact_comparison_follows_the_stated_rules():
    want = {"a.json": {"coeffs": [1.0, 1e-17], "n": 3, "s": "x"},
            "b.json": {"sd": 2e-6, "ratio": 3.0}}
    assert artifact_mismatches(want, want) == []
    near = {"a.json": {"coeffs": [1.0 + 5e-13, -3e-17], "n": 3, "s": "x"},
            "b.json": {"sd": 2e-6 * (1 + 5e-13), "ratio": 3.0}}
    assert artifact_mismatches(want, near) == []
    far = {"a.json": {"coeffs": [1.0, 1e-11], "n": 3.0, "s": "y"},
           "b.json": {"sd": 2e-6 * (1 + 2e-12), "ratio": 3.0, "extra": 1}}
    assert artifact_mismatches(want, far) == [
        "a.json/coeffs[1]: 1e-17 != 1e-11", "a.json/n: 3 != 3.0", "a.json/s: 'x' != 'y'",
        "b.json/sd: 2e-06 != 2.000000000004e-06", "b.json: new fields ['extra']"]
    assert artifact_mismatches(want, {"a.json": want["a.json"]}) == [
        "artifacts ['a.json', 'b.json'] != ['a.json']"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        artifacts = run_chain(Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"numpy": np.__version__, "regenerate": REGENERATE,
                                  "artifacts": artifacts}, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {GOLDEN}\n")
