"""Acceptance gate for the shipped certificates.

One test per acceptance criterion, each ending in a single PASS/FAIL line
with the measured quantities (run with ``pytest -v -s`` to see the lines
as they land).  The expensive rank-6 certificate run happens once in a
session fixture and feeds criteria 3, 4 and 5; everything else recomputes
from scratch at the stated sizes, so this file alone takes a few minutes.
"""

from __future__ import annotations

import json
import random
import time

import pytest

from autfplus import words
from autfplus.cli import EXIT_OK, main
from autfplus.homology import (
    GroupRingElt,
    IntMatrix,
    check_chain_condition,
    d1_matrix,
    five_term_data,
    fox_derivative,
    h2_certificate,
    phi_matrix,
    snf,
)
from autfplus.identities import identity_suite
from autfplus.presentation import eval_xword, gersten_relators, reduced_relators
from autfplus.reduction import harvest


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[C{num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"C{num}: {detail}"


# -- shared expensive runs ---------------------------------------------


@pytest.fixture(scope="session")
def rank6_run(tmp_path_factory):
    """Full rank-6 certificate via the CLI, both coefficient modules."""
    tmp = tmp_path_factory.mktemp("rank6")
    out = tmp / "report.json"
    t0 = time.monotonic()
    code = main(
        [
            "certify-h2",
            "--n",
            "6",
            "--coeff",
            "both",
            "--cache-dir",
            str(tmp / "cache"),
            "--out",
            str(out),
        ]
    )
    elapsed = time.monotonic() - t0
    doc = json.loads(out.read_text())
    return {"code": code, "doc": doc, "elapsed": elapsed, "cache": tmp / "cache"}


@pytest.fixture(scope="session")
def rank5_run():
    """Library-level rank-5 harvest + homology, both coefficient modules."""
    out = {}
    for coeff in ("H", "Hdual"):
        pres = harvest(5, coeff)
        data = five_term_data(5, coeff)
        cert = h2_certificate(5, coeff, pres.bound, data=data)
        out[coeff] = (pres, data, cert)
    return out


# -- criteria ----------------------------------------------------------


def test_criterion_1_presentation_soundness():
    # every relator of both presentations evaluates to the identity
    # automorphism, exactly, for the full shipped rank range
    t0 = time.monotonic()
    checked = 0
    for n in range(3, 7):
        for rel in reduced_relators(n):
            assert eval_xword(n, rel.word).is_identity(), rel.label
            checked += 1
    for n in range(3, 6):
        for label, word in gersten_relators(n):
            assert eval_xword(n, word).is_identity(), label
            checked += 1
    elapsed = time.monotonic() - t0
    _report(
        1,
        elapsed < 30.0,
        f"{checked} relators at n=3..6 (plus the finite presentations at "
        f"n=3..5) all act trivially; {elapsed:.1f}s < 30s",
    )


def test_criterion_2_identity_suite_rank6():
    # zero tolerance: every enumerated instance must certify by free
    # reduction, and any failure ships a residual witness
    t0 = time.monotonic()
    total = 0
    bad = []
    for entry in identity_suite(6):
        total += 1
        if not entry.certificate.verified:
            bad.append((entry.family, entry.instance, len(entry.certificate.residual)))
    elapsed = time.monotonic() - t0
    for family, instance, residual_len in bad[:5]:
        print(f"    residual witness: {family} {instance} length {residual_len}")
    _report(
        2,
        not bad and total == 119880,
        f"{total - len(bad)}/{total} rank-6 identity instances certified "
        f"(expected 119880) in {elapsed:.1f}s",
    )


def test_criterion_3_first_homology(rank6_run, rank5_run):
    found = {}
    for coeff in ("H", "Hdual"):
        found[(4, coeff)] = five_term_data(4, coeff).h1.describe()
        found[(5, coeff)] = rank5_run[coeff][1].h1.describe()
        block = rank6_run["doc"]["body"]["results"][coeff]["homology"]
        found[(6, coeff)] = block["h1"]
    want = {(n, "H"): "0" for n in (4, 5, 6)}
    want.update({(n, "Hdual"): "L" for n in (4, 5, 6)})
    _report(
        3,
        found == want,
        "H1 over Z[1/2] for n=4,5,6: trivial with abelianized coefficients, "
        f"free of rank one with dual coefficients (got {found})",
    )


def test_criterion_4_rank_targets(rank6_run):
    res = rank6_run["doc"]["body"]["results"]
    h = res["H"]["homology"]
    hd = res["Hdual"]["homology"]
    n = 6
    kernel_formula = 2 * n * (n * n - n) - n
    odd_parts_trivial = all(odd == 1 for _, odd, _ in h["image_divisors"])
    ok = (
        kernel_formula == 354
        and h["kernel_rank"] == 354
        and hd["kernel_rank"] == 354
        and h["image_rank"] == 354
        and hd["image_rank"] == 353
        and odd_parts_trivial
    )
    _report(
        4,
        ok,
        f"rank-6 kernel rank {h['kernel_rank']} (= 2n(n^2-n)-n = {kernel_formula}), "
        f"image ranks {h['image_rank']}/{hd['image_rank']} (abelianized/dual), "
        f"all invariant factors 2-powers: {odd_parts_trivial}",
    )


def test_criterion_5_main_theorem_certificate(rank6_run):
    res = rank6_run["doc"]["body"]["results"]
    certs = {c: res[c]["certificate"] for c in ("H", "Hdual")}
    bounds = {c: res[c]["harvest"]["bound"] for c in ("H", "Hdual")}
    elapsed = rank6_run["elapsed"]
    ok = (
        rank6_run["code"] == EXIT_OK
        and bounds == {"H": 354, "Hdual": 353}
        and certs["H"]["ok"]
        and certs["Hdual"]["ok"]
        and "surjection" in certs["H"]["argument"]
        and certs["H"]["transfer"]
        and certs["Hdual"]["transfer"]
        and elapsed <= 4 * 3600
    )
    _report(
        5,
        ok,
        f"rank-6 certificate: exit {rank6_run['code']}, generator bounds "
        f"{bounds['H']}/{bounds['Hdual']}, both second-homology modules trivial "
        f"over Z[1/2], index-2 transfer remark attached; {elapsed / 60:.1f} min <= 4h",
    )


def test_criterion_6_property_suites(rank6_run, capsys):
    rng = random.Random(0xC6)
    detail = []

    # free-reduction agreement against an independent fixpoint scanner
    def scan_reduce(seq):
        seq = list(seq)
        changed = True
        while changed:
            changed = False
            for i in range(len(seq) - 1):
                if seq[i] == -seq[i + 1]:
                    del seq[i : i + 2]
                    changed = True
                    break
        return tuple(seq)

    for _ in range(10_000):
        raw = [
            rng.choice([s for s in range(-4, 5) if s])
            for _ in range(rng.randrange(0, 26))
        ]
        assert words.reduce_word(raw) == scan_reduce(raw)
    detail.append("10^4 reduction cases")

    # the derivative expansion recovers w - 1 on random words
    one = GroupRingElt([((), 1)])
    for _ in range(1_000):
        w = tuple(
            rng.choice([s for s in range(-4, 5) if s])
            for _ in range(rng.randrange(0, 13))
        )
        acc = GroupRingElt()
        for x in range(1, 5):
            acc = acc + fox_derivative(w, x) * (GroupRingElt([((x,), 1)]) - one)
        assert acc == GroupRingElt([(w, 1)]) - one
    detail.append("10^3 derivative expansions")

    # d1 . phi = 0 exactly for every matrix pair the pipeline builds
    pairs = 0
    for n in range(3, 6):
        for coeff in ("H", "Hdual"):
            check_chain_condition(d1_matrix(n, coeff), phi_matrix(n, coeff))
            pairs += 1
    for coeff in ("H", "Hdual"):
        d1 = IntMatrix.parse((rank6_run["cache"] / f"d1-n6-{coeff}.mat").read_text())
        phi = IntMatrix.parse((rank6_run["cache"] / f"phi-n6-{coeff}.mat").read_text())
        check_chain_condition(d1, phi)
        pairs += 1
    detail.append(f"chain condition on {pairs} matrix pairs (n=3..6)")

    # normal-form reconstruction with unimodular witnesses, on the real
    # boundary matrices and on random ones
    verified = 0
    for mat in (d1_matrix(3, "H"), d1_matrix(4, "Hdual"), phi_matrix(3, "H")):
        snf(mat).verify(mat)
        verified += 1
    for _ in range(20):
        rows = rng.randrange(1, 8)
        cols = rng.randrange(1, 8)
        mat = IntMatrix(rows, cols)
        for i in range(rows):
            for j in range(cols):
                v = rng.randrange(-9, 10)
                if v and rng.random() < 0.7:
                    mat.data[(i, j)] = v
        snf(mat).verify(mat)
        verified += 1
    detail.append(f"{verified} normal-form reconstructions")

    # bit-identical report bodies across thread counts
    bodies = []
    for argv in (
        ["homology", "--n", "3", "--threads", "1"],
        ["homology", "--n", "3", "--threads", "2"],
        ["certify-h2", "--n", "3", "--coeff", "H", "--threads", "1"],
        ["certify-h2", "--n", "3", "--coeff", "H", "--threads", "4"],
    ):
        main(argv)
        doc = json.loads(capsys.readouterr().out)
        bodies.append(
            json.dumps(doc["body"], sort_keys=True, separators=(",", ":")).encode()
        )
    assert bodies[0] == bodies[1]
    assert bodies[2] == bodies[3]
    detail.append("thread-count determinism (bit-identical bodies)")

    _report(6, True, "; ".join(detail))


def test_criterion_7_small_rank_honesty(rank5_run):
    # the general-n statement is out of reach here; the certificate rests
    # on the rank-6 run, so smaller ranks are reported as found, with no
    # fixed expectation at n=5 and a demonstrated failure mode at n=3
    lines = []
    consistent = True
    for coeff in ("H", "Hdual"):
        pres, data, cert = rank5_run[coeff]
        consistent &= pres.bound >= data.image_rank
        gap = pres.bound - data.image_rank
        lines.append(
            f"n=5 {coeff}: bound {pres.bound} vs image rank {data.image_rank} "
            f"({'tight, certifies' if cert.ok else f'slack {gap}, no certificate'})"
        )

    # at n=3 the harvest families that need many distinct letters are
    # empty, and the bound goes visibly slack
    pres3 = harvest(3, "H")
    data3 = five_term_data(3, "H")
    f3 = next(rep for rep in pres3.manifest if rep.tag == "F3")
    degraded = pres3.bound > data3.image_rank and f3.instances == 0
    lines.append(
        f"n=3 H: bound {pres3.bound} vs image rank {data3.image_rank} "
        f"(slack {pres3.bound - data3.image_rank}; letter-hungry family "
        f"instances: {f3.instances})"
    )
    _report(7, consistent and degraded, "; ".join(lines))
