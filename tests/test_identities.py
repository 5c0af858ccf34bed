"""Certified relator identities: suite smoke tests plus the near-miss
factorizations that the certifier must keep rejecting.

Each rejected variant differs from the shipped construction by one plausible
transcription slip (a transposed conjugator, a swapped inverse, a dropped
factor).  The fixtures pin the exact residual the free reduction leaves
behind so a regression in the word calculus can't silently turn a rejection
into an acceptance -- or vice versa.
"""

from __future__ import annotations

import random

import pytest

from autfplus import words
from autfplus.identities import (
    BASE_CASES,
    CertificationError,
    Factor,
    RelatorExpression,
    _canon_comm_letters,
    base_case,
    base_case_tag,
    canon_commutator,
    canon_h,
    canon_r,
    certify,
    conj_transport,
    eq21_null,
    eq41_null,
    expand,
    expression,
    identity_suite,
    power_split_null,
    suite_summary,
    transport_chain,
    transport_target,
)
from autfplus.nielsen import monomial_letter_perm
from autfplus.presentation import (
    embed_E,
    eval_xword,
    gen_count,
    h_xword,
    r_xword,
    reduced_relators,
    twist_xword,
    w_xword,
)
from autfplus.words import commutator, inverse, multiply


# -- full suite at small rank ------------------------------------------


def test_suite_rank3_all_verified():
    entries = list(identity_suite(3))
    assert len(entries) == 828
    assert all(e.certificate.verified for e in entries)
    summary = suite_summary(entries)
    # every family is clean ...
    assert all(failed == 0 for _, failed in summary.values())
    # ... and the 5-letter transport family is empty at rank 3: it needs
    # three distinct indices clear of the transport pair, which do not fit.
    assert "triangle-transport" not in summary
    assert summary["transport-base"] == [384, 0]


def test_suite_rank4_spot_families():
    fams = ("triangle-target-inversion", "sample-commutator-rewrite",
            "fourth-power-halving")
    entries = list(identity_suite(4, families=fams))
    assert entries and all(e.certificate.verified for e in entries)
    assert {e.family.split("[")[0] for e in entries} == set(fams)


def test_suite_entry_lines_are_tagged():
    entry = next(iter(identity_suite(3, families=("pair-swap-sign-cases",))))
    assert entry.line().endswith("verified")
    assert entry.family == "pair-swap-sign-cases"


# -- rejected variant 1: transposed right conjugator -------------------
# [A^-1, B^-1] = (A^-1 B^-1) [A, B] (B A); writing the trailing product in
# the other order yields [A^-1, B^-1]^2 instead.


def test_inverted_pair_commutator_rewrite_directions():
    n = 4
    t1, t2 = embed_E(n, 1, 2), embed_E(n, 3, 2)
    s1, s2 = embed_E(n, 1, -2), embed_E(n, 3, -2)
    assert s1 == inverse(t1) and s2 == inverse(t2)
    lhs = commutator(s1, s2)
    core = commutator(t1, t2)

    corrected = multiply(s1, s2, core, t2, t1)
    assert corrected == lhs

    transposed = multiply(s1, s2, core, t1, t2)
    residual = multiply(inverse(lhs), transposed)
    assert residual == lhs  # the variant expands to the square
    assert eval_xword(n, residual).is_identity()

    # the shipped single-factor rewrite agrees with the corrected direction
    got = RelatorExpression(n, canon_commutator(n, (1, -2), (3, -2))).expand()
    assert got == lhs


# -- rejected variant 2: dropped middle factor in the pair transport ----
# Transporting h_cd around w_ab splits into six boundary terms and four
# conjugated middle blocks.  Dropping the h-block leaves a residual that is
# exactly a conjugate of h_cd^-1 -- certified non-identity, evaluation
# still trivial.


def test_pair_transport_missing_middle_factor_rejected():
    n, a, b, c, d = 4, 1, 2, 3, 4
    E = lambda x, y: embed_E(n, x, y)
    tw = lambda x: monomial_letter_perm(a, b, x)
    w = w_xword(n, a, b)
    winv = inverse(w)

    def boundary_rev(cc, dd):
        return multiply(E(tw(cc), tw(dd)),
                        inverse(multiply(winv, E(cc, dd), w)))

    def boundary_fwd(cc, dd):
        return multiply(inverse(multiply(winv, E(cc, dd), w)),
                        E(tw(cc), tw(dd)))

    t1 = boundary_rev(-d, -c)
    t2 = boundary_rev(-c, d)
    t3 = boundary_rev(d, c)
    t4 = boundary_fwd(d, -c)
    t5 = boundary_fwd(c, d)
    t6 = boundary_fwd(-d, c)
    variant = multiply(
        t3,
        winv, E(d, c), w, t2, winv, inverse(E(d, c)), w,
        winv, E(d, c), E(-c, d), w, t1,
        winv, inverse(E(-c, d)), inverse(E(d, c)), w,
        winv, inverse(E(-d, c)), inverse(E(c, d)), w, t4,
        winv, E(c, d), E(-d, c), w,
        winv, inverse(E(-d, c)), w, t5, winv, E(-d, c), w,
        t6)

    lhs = h_xword(n, tw(c), tw(d))
    residual = multiply(inverse(lhs), variant)
    assert len(residual) == 18
    assert eval_xword(n, residual).is_identity()

    # cyclic core of the residual is a rotation of h_cd^-1: the variant is
    # off by exactly one conjugated inverse-pair block
    core = list(residual)
    while len(core) >= 2 and core[0] == -core[-1]:
        core = core[1:-1]
    core = tuple(core)
    hw = h_xword(n, c, d)
    assert len(core) == len(hw)
    rotations = {core[i:] + core[:i] for i in range(len(core))}
    assert inverse(hw) in rotations and hw not in rotations

    # the machine-built null expression for the same transport is exact
    assert eq41_null(n, a, b, c, d).verified


# -- rejected variant 3: swapped inverse-pair orientation ---------------
# Appending the inverse-pair product to flip the transport pair's signs
# needs h first and h^-1 second; the swapped orientation (with the
# one-sign-flipped third factor it suggests) misses by a long residual.


def test_sign_flip_route_orientation():
    n, i, j, l, k = 4, 1, 2, 3, 4
    w = w_xword(n, i, j)
    winv = inverse(w)
    h = h_xword(n, i, j)
    Elk = embed_E(n, l, k)
    lhs = commutator(winv, Elk)
    # for letters untouched by the pair the commutator IS the transport
    assert lhs == transport_target(n, i, j, embed_E(n, l, -k))

    exact = multiply(winv, Elk, h, inverse(Elk), w,
                     winv, inverse(h), w,
                     transport_target(n, -i, -j, embed_E(n, l, -k)))
    assert exact == lhs

    swapped = multiply(winv, Elk, inverse(h), inverse(Elk), w,
                       winv, h, w,
                       commutator(w_xword(n, -i, j), Elk))
    residual = multiply(inverse(lhs), swapped)
    assert len(residual) == 28
    assert eval_xword(n, residual).is_identity()


# -- rejected variants 4 and 5: transport base cases --------------------
# Two of the eight single-generator base cases have plausible three-block
# factorizations (analogous to the six that do work) which fail free
# certification.  The shipped construction derives both cases from already
# certified ones instead; see the module docstring of `identities`.


def test_source_inverse_base_case_variant_rejected():
    n, a, b, d = 4, 1, 2, 3
    E = lambda x, y: embed_E(n, x, y)
    u1 = multiply(E(-b, a), E(-a, -b))
    u2 = multiply(E(-b, a), E(b, -d), E(-a, -b))
    variant = multiply(
        u1, r_xword(n, b, -d, -a), inverse(u1),
        u2, inverse(r_xword(n, -a, d, b)), inverse(u2),
        commutator(E(-b, a), E(b, -d)))
    target = transport_target(n, a, b, E(-a, d))
    residual = multiply(inverse(target), variant)
    assert len(residual) == 14
    assert eval_xword(n, residual).is_identity()

    # shipped route through the sign-flipped source pair is exact
    assert RelatorExpression(n, base_case(n, a, b, -a, d)).expand() == target


def test_destination_inverse_base_case_variant_rejected():
    n, a, b, c = 4, 1, 2, 3
    E = lambda x, y: embed_E(n, x, y)
    u1 = multiply(E(-b, a), E(-a, -b))
    u2 = multiply(E(-b, a), E(c, a))
    variant = multiply(
        u1, commutator(E(b, -a), E(c, a)), inverse(u1),
        u2, inverse(r_xword(n, c, -b, -a)), inverse(u2),
        u2, inverse(r_xword(n, c, -a, -b)), inverse(u2))
    target = transport_target(n, a, b, E(c, -a))
    residual = multiply(inverse(target), variant)
    assert len(residual) == 16
    assert eval_xword(n, residual).is_identity()

    # shipped route through the inverted destination letter is exact
    assert RelatorExpression(n, base_case(n, a, b, c, -a)).expand() == target


# -- canonical single-relator rewrites ---------------------------------


def test_canon_h_sign_cases():
    n = 3
    for a, b, exp, conj_empty in [(1, 2, 1, True), (-1, -2, -1, True),
                                  (-1, 2, 1, False), (1, -2, -1, False)]:
        fs = canon_h(n, a, b)
        assert len(fs) == 1
        assert fs[0].relator == "R4-1(1,2)"
        assert fs[0].exponent == exp
        assert bool(fs[0].conj) != conj_empty
        assert RelatorExpression(n, fs).expand() == h_xword(n, a, b)


def test_canon_r_inverted_target():
    n = 3
    fs = canon_r(n, 1, -3, 2)
    assert len(fs) == 2  # inverted canonical instance + one commuting pair
    assert RelatorExpression(n, fs).expand() == r_xword(n, 1, -3, 2)
    direct = canon_r(n, 1, 3, 2)
    assert len(direct) == 1 and not direct[0].conj


def test_canon_commutator_trivial_and_bad():
    assert canon_commutator(3, (1, 2), (1, 2)) == ()
    with pytest.raises(ValueError):
        canon_commutator(3, (1, 2), (2, 3))  # not a commuting pair


# -- base case tagging --------------------------------------------------


def test_commutator_misses_are_a_cached_sentinel():
    n = 3
    (s,) = embed_E(n, 1, 2)
    (t,) = embed_E(n, 2, 3)
    for a, b in ((s, t), (-s, t), (s, -t), (-s, -t)):
        assert _canon_comm_letters(n, a, b) is None
        hits = _canon_comm_letters.cache_info().hits
        assert _canon_comm_letters(n, a, b) is None
        assert _canon_comm_letters.cache_info().hits == hits + 1
    (u,) = embed_E(n, 3, 2)
    assert _canon_comm_letters(n, s, u) == canon_commutator(n, (1, 2), (3, 2)) != ()


def test_base_case_tags():
    assert base_case_tag(1, 2, 1, 3) == "src-hit"
    assert base_case_tag(1, 2, 2, 3) == "src-hit"
    assert base_case_tag(1, 2, -1, 3) == "src-a-inv"
    assert base_case_tag(1, 2, -2, 3) == "src-b-inv"
    assert base_case_tag(1, 2, 3, 1) == "dst-a"
    assert base_case_tag(1, 2, 3, -1) == "dst-a-inv"
    assert base_case_tag(1, 2, 3, 2) == "dst-b"
    assert base_case_tag(1, 2, 3, -2) == "dst-b-inv"
    assert base_case_tag(1, 2, 3, 4) == "disjoint"
    for tag in ("src-hit", "disjoint"):
        assert tag in BASE_CASES
    with pytest.raises(ValueError):
        base_case_tag(1, 2, 1, -2)
    with pytest.raises(ValueError):
        base_case_tag(1, 2, -2, 1)


# -- null expressions ---------------------------------------------------


def test_null_expressions_at_full_rank():
    assert eq21_null(6, 1, 2, 3, 4, 5).verified
    assert eq21_null(6, -2, 5, 1, -4, 6).verified
    assert eq41_null(6, 3, -1, 2, 5).verified
    assert power_split_null(6, 2, 4, 1).verified


def test_null_expression_input_validation():
    with pytest.raises(ValueError):
        eq21_null(4, 1, 2, 3, 3, 4)  # repeated triangle letters
    with pytest.raises(ValueError):
        eq21_null(4, 1, 2, 1, 2, 3)  # meets the pair twice
    with pytest.raises(ValueError):
        eq41_null(4, 1, -1, 3, 4)  # degenerate transport pair
    with pytest.raises(ValueError):
        power_split_null(4, 1, 1, 2)


def test_transport_chain_two_pairs():
    n = 4
    V = embed_E(n, 3, 4)
    pairs = ((1, 2), (2, 3))
    expr = transport_chain(n, pairs, V)
    u = multiply(w_xword(n, 1, 2), w_xword(n, 2, 3))
    twisted = twist_xword(n, 2, 3, twist_xword(n, 1, 2, V))
    target = multiply(inverse(multiply(inverse(u), V, u)), twisted)
    assert expand(expr) == target


def test_conj_transport_validates_pair():
    with pytest.raises(ValueError):
        conj_transport(4, 1, -1, embed_E(4, 2, 3))
    with pytest.raises(ValueError):
        conj_transport(4, 1, 5, embed_E(4, 2, 3))


# -- certification plumbing --------------------------------------------


def test_certify_rejects_non_relator_lhs():
    n = 3
    expr = expression(n, canon_h(n, 1, 2))
    with pytest.raises(ValueError):
        certify(embed_E(n, 1, 2), expr)


def test_certificate_reports_failure_with_residual():
    n = 3
    expr = expression(n, canon_h(n, 1, 2))
    cert = certify(h_xword(n, 1, 3), expr)  # wrong target, still a relator
    assert not cert.verified
    assert cert.residual
    assert cert.status.startswith("failed")
    good = certify(h_xword(n, 1, 2), expr)
    assert good.verified and good.status == "verified-free-level"


def test_certification_error_carries_residual():
    err = CertificationError("mismatch", (1, -2))
    assert err.residual == (1, -2)


def test_expression_validation():
    n = 3
    with pytest.raises(ValueError):
        expression(n, (Factor((), "R9-9(1,2)", 1),))
    with pytest.raises(ValueError):
        expression(n, (Factor((), "R4-1(1,2)", 2),))
    with pytest.raises(ValueError):
        expression(n, (Factor((), embed_E(n, 1, 2), 1),))  # not a relator


def test_expression_algebra():
    n = 3
    e = expression(n, canon_h(n, 1, 2))
    assert expand(e.inverse()) == inverse(expand(e))
    u = embed_E(n, 2, 3)
    assert expand(e.conjugated(u)) == words.conjugate(expand(e), u)
    assert expand(e * e.inverse()) == ()


def test_expand_matches_a_factorwise_product():
    # one reduction stack over every u, r^{+-1}, u^-1 against the product of
    # the separately reduced factor words; conjugators are left unreduced
    n = 4
    rng = random.Random(23)
    X = gen_count(n)
    labels = [rel.label for rel in reduced_relators(n)]
    literal = h_xword(n, 1, 2)
    for _ in range(300):
        fs = []
        for _ in range(rng.randint(0, 7)):
            conj = tuple(
                rng.choice((1, -1)) * rng.randint(1, X) for _ in range(rng.randint(0, 6))
            )
            rid = literal if rng.random() < 0.1 else rng.choice(labels)
            fs.append(Factor(conj, rid, rng.choice((1, -1))))
        e = RelatorExpression(n, tuple(fs))
        assert e.expand() == words.multiply(*(f.word(n) for f in fs))
