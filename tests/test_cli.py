"""End-to-end checks of the command line front end.

Everything here drives ``main`` with an argv list and inspects the JSON
report, so these tests double as a schema freeze for the report format:
a ``body`` that is byte-stable across runs and thread counts, plus a
``meta`` block whose ``report_hash`` is the sha256 of the canonical
body serialization.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from autfplus.cli import (
    EXIT_BOUND,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_VERIFY,
    ConfigError,
    main,
    parse_config,
)
from autfplus.homology import IntMatrix
from autfplus.reduction import FAMILY_TAGS


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_report(out):
    doc = json.loads(out)
    assert set(doc) == {"body", "meta"}
    return doc


def body_hash(body):
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# -- config parsing ----------------------------------------------------


def test_parse_config_defaults():
    cfg = parse_config(["homology", "--n", "3"])
    assert cfg.command == "homology"
    assert cfg.n == 3
    assert cfg.coeff == "both"
    assert cfg.coeffs == ("H", "Hdual")
    assert cfg.families is None
    assert cfg.family_tags is None
    assert cfg.threads == 1
    assert cfg.cache_dir is None
    assert cfg.out is None


def test_parse_config_single_coefficient():
    cfg = parse_config(["certify-h2", "--n", "4", "--coeff", "Hdual"])
    assert cfg.coeffs == ("Hdual",)


def test_verify_subcommand_has_no_coeff_flag(capsys):
    cfg = parse_config(["verify", "--n", "4", "--suite", "identities"])
    assert cfg.suite == "identities"
    # coeff falls back to the default even though verify never parses it
    assert cfg.coeff == "both"
    code, _, err = run_cli(capsys, "verify", "--n", "3", "--coeff", "H")
    assert code == EXIT_CONFIG
    assert "config error" in err


def test_parse_config_rejects_small_rank():
    with pytest.raises(ConfigError):
        parse_config(["verify", "--n", "2"])


def test_parse_config_rejects_unknown_family_token():
    with pytest.raises(ConfigError) as exc:
        parse_config(["certify-h2", "--n", "3", "--families", "F1,bogus"])
    assert "bogus" in str(exc.value)


def test_parse_config_rejects_bad_thread_count():
    with pytest.raises(ConfigError):
        parse_config(["homology", "--n", "3", "--threads", "0"])


def test_family_filter_splits_suite_and_harvest_tokens():
    cfg = parse_config(["certify-h2", "--n", "3", "--families", "F1,lemmas,F6"])
    assert cfg.families == ("F1", "lemmas", "F6")
    # only the F-tags reach the harvest
    assert cfg.family_tags == ("F1", "F6")


def test_bad_invocations_exit_with_config_code(capsys):
    for argv in (
        ["verify", "--n", "1"],
        ["frobnicate", "--n", "3"],
        ["homology"],  # missing --n
        ["homology", "--n", "3", "--coeff", "Z"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_CONFIG, argv
        assert out == ""
        assert "config error" in err


# -- verify ------------------------------------------------------------


def test_verify_rank3_report(capsys):
    code, out, err = run_cli(capsys, "verify", "--n", "3")
    assert code == EXIT_OK
    doc = load_report(out)
    body = doc["body"]
    assert body["command"] == "verify"
    assert body["n"] == 3
    assert set(body["suites"]) == {"presentation", "identities"}

    pres = body["suites"]["presentation"]
    assert pres["failures"] == []
    assert pres["relators"] == sum(pres["families"].values())
    assert pres["gersten"]["failures"] == []
    assert pres["gersten"]["relators"] > 0

    idents = body["suites"]["identities"]
    assert idents["failures"] == []
    fams = idents["families"]
    base = {k: v for k, v in fams.items() if k.startswith("transport-base")}
    assert sum(v["verified"] for v in base.values()) == 384
    assert not any(k.startswith("triangle-transport") for k in fams)  # needs four distinct indices
    assert all(v["failed"] == 0 for v in fams.values())
    assert sum(v["verified"] for v in fams.values()) == 828


def test_verify_suite_selection(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "3", "--suite", "identities")
    assert code == EXIT_OK
    assert set(load_report(out)["body"]["suites"]) == {"identities"}

    code, out, _ = run_cli(capsys, "verify", "--n", "3", "--families", "presentations")
    assert code == EXIT_OK
    assert set(load_report(out)["body"]["suites"]) == {"presentation"}

    # harvest-only tokens do not restrict the verify suites
    code, out, _ = run_cli(capsys, "verify", "--n", "3", "--families", "F2", "--suite", "presentation")
    assert code == EXIT_OK
    assert set(load_report(out)["body"]["suites"]) == {"presentation"}


# -- report envelope ---------------------------------------------------


def test_report_hash_matches_canonical_body(capsys):
    code, out, _ = run_cli(capsys, "homology", "--n", "3", "--coeff", "H")
    assert code == EXIT_OK
    doc = load_report(out)
    meta = doc["meta"]
    assert meta["report_hash"] == body_hash(doc["body"])
    assert meta["threads"] == 1
    assert "version" in meta
    assert set(meta["timings"]) == {"H"}
    assert "image_snf" in meta["timings"]["H"]["five_term"]


def test_report_body_stable_across_runs_and_thread_counts(capsys):
    hashes = []
    threads = []
    for argv in (
        ["homology", "--n", "3", "--coeff", "H"],
        ["homology", "--n", "3", "--coeff", "H"],
        ["homology", "--n", "3", "--coeff", "H", "--threads", "2"],
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        doc = load_report(out)
        hashes.append(doc["meta"]["report_hash"])
        threads.append(doc["meta"]["threads"])
    assert len(set(hashes)) == 1
    assert threads == [1, 1, 2]


# -- homology ----------------------------------------------------------


def test_homology_rank3_blocks(capsys):
    code, out, _ = run_cli(capsys, "homology", "--n", "3")
    assert code == EXIT_OK
    body = load_report(out)["body"]
    assert body["command"] == "homology"
    assert set(body["results"]) == {"H", "Hdual"}

    h = body["results"]["H"]
    assert h["symbols"] == 12
    assert h["d1"]["rows"] == 3
    assert h["d1"]["cols"] == 36
    assert h["phi"]["rows"] == 36
    assert h["phi"]["cols"] == 3 * h["relators"]
    assert h["kernel_rank"] == 33
    assert h["image_rank"] == 33
    assert h["h1"] == "0"
    # every invariant factor of the image is a power of two: odd part 1
    assert all(odd == 1 for _, odd, _ in h["image_divisors"])
    assert h["modp_ranks"] and all(k.isdigit() for k in h["modp_ranks"])

    hd = body["results"]["Hdual"]
    assert hd["kernel_rank"] == 33
    assert hd["image_rank"] == 32
    assert hd["h1"] == "L"


def test_homology_cache_reuse_is_hash_stable(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    _, out_fresh, _ = run_cli(capsys, "homology", "--n", "3", "--coeff", "Hdual")
    _, out_cold, _ = run_cli(
        capsys, "homology", "--n", "3", "--coeff", "Hdual", "--cache-dir", cache
    )
    _, out_warm, _ = run_cli(
        capsys, "homology", "--n", "3", "--coeff", "Hdual", "--cache-dir", cache
    )
    h_fresh = load_report(out_fresh)["meta"]["report_hash"]
    h_cold = load_report(out_cold)["meta"]["report_hash"]
    h_warm = load_report(out_warm)["meta"]["report_hash"]
    assert h_fresh == h_cold == h_warm
    assert (tmp_path / "cache" / "d1-n3-Hdual.mat").exists()
    assert (tmp_path / "cache" / "phi-n3-Hdual.mat").exists()


# -- certify-h2 --------------------------------------------------------


def test_certify_h2_rank3_reports_bound_gap(capsys):
    code, out, err = run_cli(capsys, "certify-h2", "--n", "3", "--coeff", "H")
    assert code == EXIT_BOUND
    assert "NOT certified" in err
    res = load_report(out)["body"]["results"]["H"]
    harvest = res["harvest"]
    assert harvest["bound"] == 53
    assert harvest["generators"] == 198
    assert harvest["families"] == list(FAMILY_TAGS)
    cert = res["certificate"]
    assert cert["ok"] is False
    assert "53" in cert["reason"]
    # the gap is honest: homology block still carries the true image rank
    assert res["homology"]["image_rank"] == 33


def test_certify_h2_rank4_certifies_and_writes_artifacts(tmp_path, capsys):
    cache = tmp_path / "cache"
    report_path = tmp_path / "report.json"
    code, out, err = run_cli(
        capsys,
        "certify-h2",
        "--n",
        "4",
        "--coeff",
        "H",
        "--cache-dir",
        str(cache),
        "--out",
        str(report_path),
    )
    assert code == EXIT_OK
    assert out == ""  # report went to the file, stderr keeps the progress lines
    assert "certified" in err
    assert "certify-h2 n=4 H: F3 conjugation_transport:" in err  # per-family progress

    doc = load_report(report_path.read_text())
    assert doc["meta"]["report_hash"] == body_hash(doc["body"])
    res = doc["body"]["results"]["H"]

    harvest = res["harvest"]
    assert harvest["bound"] == 92
    assert harvest["bound"] == res["homology"]["image_rank"]
    assert harvest["module"] == "L^92"
    assert harvest["residual_rows"] == 0
    assert harvest["survivors"] == 92
    tags = [rep["tag"] for rep in harvest["manifest"]]
    assert tags == list(FAMILY_TAGS)
    assert all(rep["certified"] for rep in harvest["manifest"])
    # the reported matrix is the compacted relation lattice: pivots plus
    # whatever residual rows survived, nothing else
    assert harvest["matrix"]["rows"] == harvest["pivots"] + harvest["residual_rows"]
    assert all(rep["rows"] >= rep["zero_rows"] + rep["unique_rows"] for rep in harvest["manifest"])

    cert = res["certificate"]
    assert cert["ok"] is True
    assert cert["bound"] == 92
    assert "surjection" in cert["argument"]
    assert cert["transfer"]

    # run telemetry lives in meta only
    timings = doc["meta"]["timings"]["H"]
    assert timings["eliminator"]["retired"] == harvest["pivots"]
    assert {"collect", "eliminate", "harvest"} <= set(timings)
    assert set(timings["five_term"]) == {
        "assemble", "chain_check", "d1_snf", "echelon", "image_snf", "modp_check"
    }

    dump = cache / "relations-n4-H.mat"
    assert dump.exists()
    mat = IntMatrix.parse(dump.read_text())
    assert (mat.nrows, mat.ncols) == (
        harvest["matrix"]["rows"],
        harvest["matrix"]["cols"],
    )
    assert mat.nnz() == harvest["matrix"]["nnz"]
    assert (cache / "d1-n4-H.mat").exists()
    assert (cache / "phi-n4-H.mat").exists()


def test_out_into_missing_directory_writes_a_report(tmp_path, capsys):
    report_path = tmp_path / "not" / "yet" / "report.json"
    code, out, _ = run_cli(capsys, "homology", "--n", "3", "--out", str(report_path))
    assert code == EXIT_OK
    assert out == ""
    doc = load_report(report_path.read_text())
    assert doc["meta"]["report_hash"] == body_hash(doc["body"])
    assert sorted(p.name for p in report_path.parent.iterdir()) == ["report.json"]
    # the atomic write leaves the permissions a plain write would
    plain = tmp_path / "plain.json"
    plain.write_text("")
    assert report_path.stat().st_mode == plain.stat().st_mode


# The benchmark's report-hash gate, read from its own file so the promise of
# byte-identical bodies is enforced by the test suite as well.
_EXPECTED = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "expected.json").read_text()
)


@pytest.mark.parametrize("command,n", [("verify", 3), ("certify-h2", 3), ("homology", 5)])
def test_report_hash_matches_benchmark_expectation(capsys, command, n):
    want = _EXPECTED[command][str(n)]
    code, out, _ = run_cli(capsys, command, "--n", str(n))
    assert code == want["exit"]
    assert load_report(out)["meta"]["report_hash"] == want["report_hash"]


def test_certify_h2_family_subset_is_reported(capsys):
    code, out, _ = run_cli(
        capsys, "certify-h2", "--n", "3", "--coeff", "H", "--families", "F1,F6"
    )
    assert code == EXIT_BOUND  # thinner harvest, weaker bound, still honest
    harvest = load_report(out)["body"]["results"]["H"]["harvest"]
    assert harvest["families"] == ["F1", "F6"]
    assert [rep["tag"] for rep in harvest["manifest"]] == ["F1", "F6"]
    assert harvest["bound"] >= 180


def test_internal_inconsistency_maps_to_verify_exit(monkeypatch, capsys):
    # a harvest bound below the image rank would mean a bogus relation row;
    # the CLI must refuse to emit a report in that state
    import autfplus.cli as cli_mod

    class _Stub:
        bound = 0

    monkeypatch.setattr(cli_mod, "harvest", lambda *a, **k: _Stub())
    code, out, err = run_cli(capsys, "certify-h2", "--n", "3", "--coeff", "H")
    assert code == EXIT_VERIFY
    assert out == ""
    assert "ConsistencyError" in err
