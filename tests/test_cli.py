"""End-to-end checks of the command line front end.

Everything here drives ``main`` with an argv list and inspects the JSON
report, so these tests double as a schema freeze for the report format:
a ``body`` that is byte-stable across runs and thread counts, plus a
``meta`` block whose ``report_hash`` is the sha256 of the canonical
body serialization.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from autfplus import cli
from autfplus.cli import (
    EXIT_BOUND,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_VERIFY,
    ConfigError,
    main,
    parse_config,
)
from autfplus.homology import IntMatrix, _atomic_write_text
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


def test_family_filter_splits_suite_and_harvest_tokens(capsys):
    cfg = parse_config(["certify-h2", "--n", "3", "--families", "F1,F6"])
    assert cfg.families == ("F1", "F6")
    # --families takes harvest F-tags only; the verify suites are chosen by
    # --suite.  A suite token or an empty list would harvest nothing, so
    # each is a config error
    for families in ("lemmas", "F1,lemmas,F6", "presentations", ","):
        code, out, err = run_cli(capsys, "certify-h2", "--n", "3", "--coeff", "H", "--families", families)
        assert code == EXIT_CONFIG, families
        assert out == ""
        assert "config error" in err


def test_repeated_family_tag_is_a_config_error(capsys):
    # a repeated tag would be reported twice in the body but harvested once
    with pytest.raises(ConfigError, match="repeated family tags: F1"):
        parse_config(["certify-h2", "--n", "3", "--families", "F1,F1,F2"])
    code, out, err = run_cli(capsys, "certify-h2", "--n", "3", "--families", "F2,F1, F2")
    assert code == EXIT_CONFIG
    assert out == ""
    assert "repeated family tags: F2" in err


def test_unusable_output_paths_are_config_errors(capsys, tmp_path, monkeypatch):
    # each is refused before any work: a run that got that far would end
    # in a traceback after computing everything
    monkeypatch.setattr(cli, "_COMMANDS", {})
    a_file = tmp_path / "file"
    a_file.write_text("")
    for argv in (
        ["homology", "--n", "3", "--cache-dir", str(a_file)],
        ["certify-h2", "--n", "3", "--cache-dir", str(a_file)],
        ["homology", "--n", "3", "--cache-dir", str(a_file / "cache")],
        ["homology", "--n", "3", "--out", str(tmp_path)],
        ["verify", "--n", "3", "--out", str(tmp_path)],
        ["certify-h2", "--n", "3", "--out", str(tmp_path)],
        ["verify", "--n", "3", "--out", str(a_file / "sub" / "report.json")],
        ["homology", "--n", "3", "--cache-dir", "", "--out", str(tmp_path / "r.json")],
        ["verify", "--n", "3", "--out", ""],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_CONFIG, argv
        assert out == ""
        # the error names the path it refuses, or the option left empty
        shown = f"{argv[argv.index('') - 1]} is empty" if "" in argv else str(tmp_path)
        assert "config error" in err and shown in err
    # directories that do not exist yet are made by the run
    new = str(tmp_path / "new" / "cache")
    cfg = parse_config(["homology", "--n", "3", "--cache-dir", new, "--out", new + "/r.json"])
    assert (cfg.cache_dir, cfg.out) == (new, new + "/r.json")
    assert parse_config(["homology", "--n", "3", "--cache-dir", str(tmp_path)]).cache_dir == str(tmp_path)


def test_unwritable_output_directories_are_config_errors(capsys, tmp_path, monkeypatch):
    # os.access stands in for directory modes, which a root process ignores
    locked = tmp_path / "locked"
    locked.mkdir()
    real = os.access
    monkeypatch.setattr(cli.os, "access", lambda p, mode: p != str(locked) and real(p, mode))
    monkeypatch.setattr(cli, "_COMMANDS", {})
    for argv in (
        ["homology", "--n", "3", "--cache-dir", str(locked)],
        ["certify-h2", "--n", "3", "--cache-dir", str(locked / "new" / "cache")],
        ["verify", "--n", "3", "--out", str(locked / "report.json")],
        ["homology", "--n", "3", "--out", str(locked / "sub" / "report.json")],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_CONFIG, argv
        assert out == ""
        assert f"{locked} is a directory this process cannot write to" in err, argv
    # a writable directory beside it is accepted
    ok = str(tmp_path / "ok")
    assert parse_config(["homology", "--n", "3", "--cache-dir", ok]).cache_dir == ok


def test_bad_invocations_exit_with_config_code(capsys):
    for argv in (
        ["verify", "--n", "1"],
        ["frobnicate", "--n", "3"],
        ["homology"],  # missing --n
        ["homology", "--n", "3", "--coeff", "Z"],
        # options a command would ignore are not parsed
        ["homology", "--n", "3", "--families", "F1"],
        ["verify", "--n", "3", "--cache-dir", "cache"],
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

    code, out, _ = run_cli(capsys, "verify", "--n", "3", "--suite", "presentation")
    assert code == EXIT_OK
    assert set(load_report(out)["body"]["suites"]) == {"presentation"}

    # --suite alone selects: verify takes no --families
    for families in ("presentations", "lemmas", "F2"):
        code, out, err = run_cli(capsys, "verify", "--n", "3", "--families", families)
        assert code == EXIT_CONFIG, families
        assert out == ""
        assert "config error" in err


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
    doc = load_report(out)
    body = doc["body"]
    assert body["command"] == "homology"
    for coeff in ("H", "Hdual"):
        assert doc["meta"]["timings"][coeff]["peak_rss_kib"]["five_term"] > 0
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
    # d1 and phi files are keyed by name alone: drop one entry from each,
    # and a run must still rebuild the matrices rather than read the files
    for name in ("d1-n3-Hdual.mat", "phi-n3-Hdual.mat"):
        path = tmp_path / "cache" / name
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:1] + lines[2:]))
    code, out_tampered, _ = run_cli(
        capsys, "homology", "--n", "3", "--coeff", "Hdual", "--cache-dir", cache
    )
    assert code == EXIT_OK
    hashes = {
        load_report(out)["meta"]["report_hash"]
        for out in (out_fresh, out_cold, out_warm, out_tampered)
    }
    assert len(hashes) == 1
    assert (tmp_path / "cache" / "d1-n3-Hdual.mat").exists()
    assert (tmp_path / "cache" / "phi-n3-Hdual.mat").exists()


def test_homology_does_not_read_back_snf_or_echelon_entries(tmp_path, capsys):
    cache = tmp_path / "cache"
    args = ("homology", "--n", "3", "--coeff", "H", "--cache-dir", str(cache))
    code, out, _ = run_cli(capsys, *args)
    assert code == EXIT_OK
    outs = [out]
    # every SNF entry loses its unit first divisor
    snfs = sorted(cache.glob("snf-*.json"))
    assert len(snfs) == 2
    written = {p: p.read_bytes() for p in snfs}
    for path in snfs:
        doc = json.loads(path.read_text())
        assert doc["divisors"][0] == 1
        doc["divisors"][0] = 2
        path.write_text(json.dumps(doc, sort_keys=True))
    code, out, _ = run_cli(capsys, *args)
    assert code == EXIT_OK
    outs.append(out)
    # the lead of echelon column 1 becomes 3, which would leave odd torsion
    (echelon,) = cache.glob("echelon-*.mat")
    text = echelon.read_text()
    lines = text.splitlines(keepends=True)
    assert lines[3] == "1 1 1\n"
    lines[3] = "1 1 3\n"
    echelon.write_text("".join(lines))
    code, out, _ = run_cli(capsys, *args)
    assert code == EXIT_OK
    outs.append(out)
    hashes = {load_report(out)["meta"]["report_hash"] for out in outs}
    assert len(hashes) == 1 and hashes.pop().startswith("93e51aa0")
    # both entries are written again from the computed results
    assert all(p.read_bytes() == written[p] for p in snfs)
    assert echelon.read_text() == text


def test_a_homology_module_leaves_nothing_behind(capsys):
    # each module's five-term data, d1 and phi with it, dies with the
    # module; only the per-rank tables, warmed by the first run, stay
    import gc
    import tracemalloc

    assert run_cli(capsys, "homology", "--n", "4", "--coeff", "H")[0] == EXIT_OK
    gc.collect()
    tracemalloc.start()
    try:
        code = main(["homology", "--n", "4", "--coeff", "both"])
        capsys.readouterr()
        gc.collect()
        left = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert left <= 64 * 1024, f"{left} bytes left traced"


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
    assert timings["eliminator"]["skipped"] > 0  # pushes of an already queued key
    assert {"collect", "eliminate", "audit", "harvest"} <= set(timings)
    rss = timings["peak_rss_kib"]
    assert set(rss) == {"collect", "eliminate"}
    assert 0 < rss["collect"] <= rss["eliminate"]  # a high-water mark only rises
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


def test_a_failed_atomic_write_leaves_no_temp_file(tmp_path):
    # a directory at the target path makes the final os.replace fail
    target = tmp_path / "report.json"
    target.mkdir()
    with pytest.raises(OSError):
        _atomic_write_text(str(target), "{}")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]


def test_atomic_write_steps_past_a_taken_temp_name(tmp_path):
    taken = tmp_path / f".tmp-{os.getpid()}-0.part"
    taken.write_text("someone else's")
    _atomic_write_text(str(tmp_path / "report.json"), "{}")
    assert (tmp_path / "report.json").read_text() == "{}"
    assert taken.read_text() == "someone else's"
    assert sorted(p.name for p in tmp_path.iterdir()) == [taken.name, "report.json"]


# The benchmark's report-hash gate, read from its own file so the promise of
# byte-identical bodies is enforced by the test suite as well.
_EXPECTED = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "expected.json").read_text()
)


@pytest.mark.parametrize(
    "command,n",
    [("verify", 3), ("certify-h2", 3), ("certify-h2", 4), ("homology", 5), ("homology", 6)],
)
def test_report_hash_matches_benchmark_expectation(capsys, command, n):
    want = _EXPECTED[command][str(n)]
    code, out, _ = run_cli(capsys, command, "--n", str(n))
    assert code == want["exit"]
    assert load_report(out)["meta"]["report_hash"] == want["report_hash"]


@pytest.mark.parametrize("seed", ["0", "12345"])
def test_report_hashes_do_not_depend_on_the_hash_seed(tmp_path, seed):
    # fresh processes, since the seed is fixed at interpreter start;
    # certify-h2 runs both modules, the run expected.json records
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed)
    for command in ("verify", "certify-h2"):
        report = tmp_path / f"{command}.json"
        done = subprocess.run(
            [sys.executable, "-m", "autfplus.cli", command, "--n", "3", "--out", str(report)],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        want = _EXPECTED[command]["3"]
        assert done.returncode == want["exit"], done.stderr
        assert json.loads(report.read_text())["meta"]["report_hash"] == want["report_hash"]


def test_certify_h2_reports_collection_seconds_per_family(capsys):
    # meta and the progress lines carry per-family seconds; the body and its
    # hash stay as the benchmark recorded them
    want = _EXPECTED["certify-h2"]["3"]
    code, out, err = run_cli(capsys, "certify-h2", "--n", "3")
    assert code == want["exit"]
    doc = load_report(out)
    assert doc["meta"]["report_hash"] == want["report_hash"]
    for coeff in ("H", "Hdual"):
        timings = doc["meta"]["timings"][coeff]
        families = timings["families"]
        assert list(families) == list(FAMILY_TAGS)
        assert all(v >= 0 for v in families.values())
        assert sum(families.values()) <= timings["collect"] + 0.001 * len(families)
        for tag in FAMILY_TAGS:
            assert re.search(rf"certify-h2 n=3 {coeff}: {tag} \w+: .* in \d+\.\d\d s$", err, re.M)


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


def test_a_misnamed_relator_instance_stops_homology(monkeypatch, capsys):
    # phi places each relator instance by renaming its family's first
    # word; the chain condition passes a permuted column, so an instance
    # whose indices do not rename that word must stop the run with exit 2
    from autfplus import homology

    rels = list(homology.reduced_relators(4))
    k = next(k for k, rel in enumerate(rels) if rel.label == "R2-2(1,2,4)")
    rels[k] = rels[k]._replace(indices=(2, 1, 4))
    monkeypatch.setattr(homology, "reduced_relators", lambda n: tuple(rels))
    code, out, err = run_cli(capsys, "homology", "--n", "4")
    assert code == EXIT_VERIFY
    assert out == ""
    assert "ConsistencyError: R2-2(1,2,4) is not its family's first word renamed" in err


# -- src holds what the commands run -----------------------------------
# Every function and method in src is entered by one of three small runs,
# or is listed here with the reason it stays.  A helper that no command
# runs belongs in tests/ as an oracle, or nowhere.

_UNREACHED_BY_REASON = {
    "tests/test_acceptance.py builds the group ring and reads artefacts": {
        "homology:IntMatrix.parse",
        "homology:fox_derivative",
    },
    "error paths": {
        "cli:_Parser.error",
        "identities:IdentityCertificate.status",
        "presentation:format_xword",
    },
    "perfbench/traced.py reads the dense SNF witnesses": {
        "homology:_dense",
    },
}

_TRACE = """
import json, sys
from autfplus.cli import main
tmp = sys.argv[1]
entered = set()

def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)

sys.setprofile(profile)
cache = ["--cache-dir", tmp + "/cache"]
for argv in (["verify", "--n", "3"], ["homology", "--n", "3", *cache],
             ["certify-h2", "--n", "4", "--coeff", "H", *cache]):
    main(argv + ["--out", tmp + "/report.json"])
sys.setprofile(None)
print(json.dumps(sorted({(c.co_filename, c.co_firstlineno) for c in entered})))
"""


def _src_functions(src: Path) -> dict:
    """(file, first line) -> "module:Qual.name" for every non-dunder def in
    src, nested ones included.  A decorated def's code starts at its first
    decorator."""
    out = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[(str(path), line)] = name
                walk(child, path, name + ".")
            else:
                walk(child, path, prefix)

    for path in sorted(src.glob("*.py")):
        walk(ast.parse(path.read_text()), path.resolve(), f"{path.stem}:")
    return out


def test_src_functions_are_reached_or_listed(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    # a fresh process, so that no cache filled by another test hides a call
    done = subprocess.run(
        [sys.executable, "-c", _TRACE, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr
    entered = {tuple(key) for key in json.loads(done.stdout)}
    functions = _src_functions(src / "autfplus")
    unreached = {name for key, name in functions.items() if key not in entered}
    listed = set().union(*_UNREACHED_BY_REASON.values())
    assert sorted(unreached - listed) == [], "never run: move to tests/ or delete"
    assert sorted(listed - unreached) == [], "listed but run or gone: unlist"


# -- start-up ----------------------------------------------------------

_START_UP = """
import sys
sys.path.insert(0, sys.argv[1])
import autfplus.cli
print(sorted(m for m in ("_hashlib", "hashlib", "dataclasses", "inspect", "tempfile")
             if m in sys.modules))
"""


def test_importing_the_cli_loads_no_openssl_or_dataclasses():
    # every run pays for what the import loads: OpenSSL through hashlib,
    # inspect, ast and dis through dataclasses, and random and shutil
    # through tempfile, are megabytes and milliseconds that no certificate
    # needs; -S keeps site's imports out
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-S", "-c", _START_UP, str(src)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
