"""End-to-end checks of the benchmark on the smoke profile (about a minute).

    python3 -m pytest perfbench

Every workload runs at small rank, untraced and traced: each run must pass
the report-hash gate, and the traced run's counts must agree with the
report body the CLI wrote.  Tampered expectations show that the gate
rejects a wrong hash, exit code, bound or reference checksum.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
EXPECTED = json.loads((HERE / "expected.json").read_text())


def bench(capsys, workload: str, trace: int, expected: dict | None = None) -> tuple[int, dict]:
    argv = ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    code = run.main([*argv, "--profile", "smoke"], expected)
    return code, json.loads(capsys.readouterr().out.splitlines()[-1])


def test_benchmark_json_names_known_workloads():
    # verify and homology-warm are run by hand only; see README.md
    by_hand = {"verify", "homology-warm"}
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(set(run.WORKLOADS) - by_hand)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_run_passes_the_gate_and_reports_every_metric(capsys, workload, trace):
    code, res = bench(capsys, workload, trace)
    assert code == 0
    assert res["correct"] is True
    assert res["failed"] == 0 and res["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize(
    "workload, trace, field, value",
    [
        ("verify", 0, "report_hash", "0" * 64),
        ("verify", 1, "report_hash", "0" * 64),
        ("homology-warm", 0, "report_hash", "0" * 64),
        ("certify-h2", 0, "exit", 0),
        ("certify-h2", 1, "bound", {"H": 33, "Hdual": 32}),
    ],
)
def test_gate_rejects_a_body_other_than_the_recorded_one(capsys, workload, trace, field, value):
    command = run.WORKLOADS[workload].command
    expected = copy.deepcopy(EXPECTED)
    expected[command][str(run.PROFILES["smoke"].ranks[command])][field] = value
    code, res = bench(capsys, workload, trace, expected)
    assert code == 1
    assert res["correct"] is False
    assert res["failed"] >= 1


def test_a_reference_run_that_prints_another_checksum_fails_the_run(capsys, monkeypatch):
    monkeypatch.setattr(run, "REFERENCE_OUT", b"0\n")
    code, res = bench(capsys, "verify", 0)
    assert code == 1
    assert res["correct"] is False
    assert res["failed"] == 1


def test_times_are_normalised_by_the_mean_reference_run(tmp_path):
    b = run.Bench(run.WORKLOADS["verify"], run.PROFILES["smoke"], {}, tmp_path)
    b.refs = [run.Child(0, 2.0, 1.0, 30.0), run.Child(0, 4.0, 3.0, 30.0)]
    b.plains = [run.Child(0, 6.0, 4.0, 40.0), run.Child(0, 12.0, 8.0, 42.0)]
    b.setups = [run.Child(0, wall, 0.2, 20.0) for wall in (0.3, 0.6, 9.0)]
    m = {k: v["value"] for k, v in run.end_to_end(b, SPEC["end_to_end"]).items()}
    assert m["wall_s"] == pytest.approx(9.0 / 3.0 * run.REFERENCE_S)
    assert m["cpu_s"] == pytest.approx(6.0 / 2.0 * run.REFERENCE_S)
    assert m["setup_s"] == pytest.approx(0.6 / 3.0 * run.REFERENCE_S)
    assert m["peak_rss_mb"] == 41.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    argv = ["--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0"]
    out = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", *argv],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def traced_run(tmp_path, *cli_args) -> tuple[dict, dict]:
    """traced.py on one command; returns (the CLI's report body, the metrics)."""
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    argv = [sys.executable, str(HERE / "traced.py"), str(tmp_path / "trace.json"), *cli_args]
    argv += ["--threads", "1", "--out", str(tmp_path / "report.json")]
    subprocess.run(argv, env=env, cwd=tmp_path, capture_output=True, timeout=120)
    trace = json.loads((tmp_path / "trace.json").read_text())
    body = json.loads((tmp_path / "report.json").read_text())["body"]
    return body, trace["metrics"]


def test_traced_counts_agree_with_the_certify_h2_body(tmp_path):
    body, m = traced_run(tmp_path, "certify-h2", "--n", "3", "--cache-dir", str(tmp_path / "c"))
    harvests = [res["harvest"] for res in body["results"].values()]
    manifest = [fam for h in harvests for fam in h["manifest"]]
    assert m["reduction.bound"] == sum(h["bound"] for h in harvests)
    assert m["reduction.pivots"] == sum(h["pivots"] for h in harvests)
    assert m["reduction.residual_rows"] == sum(h["residual_rows"] for h in harvests)
    assert m["identities.harvest_certificates"] == sum(f["certified"] for f in manifest)
    assert m["reduction.rows"] == sum(f["rows"] for f in manifest)
    assert m["reduction.rows_zero"] == sum(f["zero_rows"] for f in manifest)
    assert m["reduction.rows_unique"] == sum(f["unique_rows"] for f in manifest)
    homs = [res["homology"] for res in body["results"].values()]
    assert m["homology.phi_nnz"] == sum(h["phi"]["nnz"] for h in homs)
    assert m["cli.relations_dump_bytes"] > 0 and m["homology.cache_bytes"] > 0
    for key in ("reduction.fold_s.H", "reduction.eliminate_s.Hdual", "homology.image_snf_s"):
        assert m[key] > 0


def test_traced_counts_agree_with_the_verify_body(tmp_path):
    body, m = traced_run(tmp_path, "verify", "--n", "3")
    families = body["suites"]["identities"]["families"].values()
    assert m["identities.suite_instances"] == sum(f["verified"] + f["failed"] for f in families)
    assert m["presentation.relators"] == body["suites"]["presentation"]["relators"]
    assert m["identities.suite_s.triangle-transport"] > 0
    assert m["reduction.rows"] == 0 and m["homology.five_term_s"] == 0
