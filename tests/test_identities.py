"""Certified relator identities: suite smoke tests plus the near-miss
factorizations that the certifier must keep rejecting.

Each rejected variant differs from the shipped construction by one plausible
transcription slip (a transposed conjugator, a swapped inverse, a dropped
factor).  The fixtures pin the exact residual the free reduction leaves
behind so a regression in the word calculus can't silently turn a rejection
into an acceptance -- or vice versa.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autfplus import identities, words
from autfplus.homology import ConsistencyError
from autfplus.identities import (
    BASE_CASES,
    SUITE_FAMILIES,
    CertificationError,
    Factor,
    RelatorExpression,
    _canon_comm_letters,
    _conj_factors,
    append_pair_route,
    base_case,
    base_case_tag,
    canon_commutator,
    canon_h,
    canon_r,
    certify,
    eq21_null,
    eq41_null,
    identity_suite,
    power_split_null,
    transport_chain,
    transport_instances,
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
from autfplus.reduction import FAMILIES
from autfplus.words import commutator, inverse, multiply


# -- oracles for what only the tests ask of an expression ----------------


def conj_transport(n, a, b, V) -> RelatorExpression:
    """The certified transport expression of V around w_ab, without its word."""
    return identities._transport(n, a, b, V)[0]


def _factor_word(f: Factor, n: int):
    """u r^{+-1} u^-1 for the factor f, reduced."""
    return words.conjugate(identities._signed_table(n)[f.relator, f.exponent], f.conj)


def _inverse(e: RelatorExpression) -> RelatorExpression:
    """The formal inverse: the factors inverted, in reverse order."""
    return RelatorExpression(e.n, tuple(f.inverse() for f in reversed(e.factors)))


# -- full suite at small rank ------------------------------------------


def test_suite_rank3_all_verified():
    entries = list(identity_suite(3))
    assert len(entries) == 828
    assert all(e.certificate.verified for e in entries)
    counts = Counter(e.family.split("[")[0] for e in entries)
    # the 5-letter transport family is empty at rank 3: it needs three
    # distinct indices clear of the transport pair, which do not fit.
    assert "triangle-transport" not in counts
    assert counts["transport-base"] == 384


def test_suite_rank4_spot_families():
    fams = ("triangle-target-inversion", "sample-commutator-rewrite",
            "fourth-power-halving")
    entries = [e for name, gen in SUITE_FAMILIES if name in fams for e in gen(4)]
    assert entries and all(e.certificate.verified for e in entries)
    assert {e.family.split("[")[0] for e in entries} == set(fams)


def test_suite_entry_lines_are_tagged():
    entry = next(iter(dict(SUITE_FAMILIES)["pair-swap-sign-cases"](3)))
    assert entry.certificate.verified
    assert entry.family == "pair-swap-sign-cases"
    assert entry.instance == "(1,2)"


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
    with pytest.raises(ValueError, match=r"^\[E\(1,\+,2\), E\(2,\+,3\)\] is not"):
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
    # pairs that name no symbol are refused by embed_E, whichever piece
    # builds them first
    for build in (lambda: eq21_null(4, 2, -2, 1, 3, 4), lambda: eq21_null(4, 1, 5, 2, 3, 4),
                  lambda: eq41_null(4, 1, 2, 3, -3), lambda: eq41_null(4, 1, 2, 3, 5),
                  lambda: base_case(4, 1, -1, 2, 3), lambda: base_case(4, 1, 2, 3, 3),
                  lambda: r_xword(4, 1, 2, 1), lambda: r_xword(4, 1, -1, 2)):
        with pytest.raises(ValueError, match="invalid letter pair"):
            build()


def test_transport_chain_two_pairs():
    n = 4
    V = embed_E(n, 3, 4)
    pairs = ((1, 2), (2, 3))
    expr, word = transport_chain(n, pairs, V)
    u = multiply(w_xword(n, 1, 2), w_xword(n, 2, 3))
    twisted = twist_xword(n, 2, 3, twist_xword(n, 1, 2, V))
    target = multiply(inverse(multiply(inverse(u), V, u)), twisted)
    # the composed word is the one the whole expression expands to
    assert word == expr.expand() == _expand_reference(expr) == target


def test_conj_transport_validates_pair():
    with pytest.raises(ValueError):
        conj_transport(4, 1, -1, embed_E(4, 2, 3))
    with pytest.raises(ValueError):
        conj_transport(4, 1, 5, embed_E(4, 2, 3))
    with pytest.raises(ValueError, match="invalid letter pair"):
        conj_transport(4, 0, 2, embed_E(4, 2, 3))


# -- certification plumbing --------------------------------------------


def test_certify_rejects_non_relator_lhs():
    n = 3
    expr = RelatorExpression(n, canon_h(n, 1, 2))
    with pytest.raises(ValueError):
        certify(embed_E(n, 1, 2), expr)


def test_certificate_reports_failure_with_residual():
    n = 3
    expr = RelatorExpression(n, canon_h(n, 1, 2))
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
        RelatorExpression(n, (Factor((), "R9-9(1,2)", 1),))
    with pytest.raises(ValueError):
        RelatorExpression(n, (Factor((), "R4-1(1,2)", 2),))
    with pytest.raises(ValueError):
        # a literal word is not a label, even when it is a relator
        RelatorExpression(n, (Factor((), h_xword(n, 1, 2), 1),))


def test_expression_algebra():
    n = 3
    e = RelatorExpression(n, canon_h(n, 1, 2))
    assert _inverse(e).expand() == inverse(e.expand())
    u = embed_E(n, 2, 3)
    conj = RelatorExpression(n, _conj_factors(e.factors, u))
    assert conj.expand() == words.conjugate(e.expand(), u)
    assert _conj_factors(e.factors, ()) == e.factors
    assert RelatorExpression(n, e.factors + _inverse(e).factors).expand() == ()


def test_a_source_hit_base_case_is_the_append_pair_route():
    n = 3
    hits = [inst for inst in transport_instances(n, 2) if base_case_tag(*inst) == "src-hit"]
    assert hits
    for a, b, c, d in hits:
        assert base_case(n, a, b, c, d) == append_pair_route(n, a, b, c, d)


def test_an_unsound_canonical_relator_is_a_consistency_error(monkeypatch):
    # raised, not asserted, so that python -O keeps the check
    bad = reduced_relators(3)[5]
    monkeypatch.setattr(identities, "is_relator_elt", lambda n, w: w != bad.word)
    identities._signed_table.cache_clear()
    try:
        with pytest.raises(ConsistencyError, match=re.escape(bad.label)):
            identities._signed_table(3)
    finally:
        identities._signed_table.cache_clear()


def test_expand_matches_a_factorwise_product():
    # one reduction stack over every u, r^{+-1}, u^-1 against the product of
    # the separately reduced factor words; conjugators are left unreduced
    n = 4
    rng = random.Random(23)
    X = gen_count(n)
    labels = [rel.label for rel in reduced_relators(n)]
    for _ in range(300):
        fs = []
        for _ in range(rng.randint(0, 7)):
            conj = tuple(
                rng.choice((1, -1)) * rng.randint(1, X) for _ in range(rng.randint(0, 6))
            )
            fs.append(Factor(conj, rng.choice(labels), rng.choice((1, -1))))
        e = RelatorExpression(n, tuple(fs))
        assert e.expand() == words.multiply(*(_factor_word(f, n) for f in fs))


# -- expansion against the letter-by-letter oracle ------------------------
# expand() pushes only what differs between consecutive conjugators, and
# the transport nulls take their residual from words certified piece by
# piece.  The oracle below pushes every letter of every u, r^{+-1} and u^-1.


def _expand_reference(expr):
    """The full expansion, one letter at a time onto one reduction stack."""
    table = {rel.label: rel.word for rel in reduced_relators(expr.n)}
    out = []
    for f in expr.factors:
        r = table[f.relator]
        if f.exponent == -1:
            r = inverse(r)
        for s in f.conj + r + inverse(f.conj):
            if out and out[-1] == -s:
                out.pop()
            else:
                out.append(s)
    return tuple(out)


@pytest.mark.parametrize("n", [3, 4])
def test_expand_matches_the_reference_on_every_harvest_null(n):
    seen = 0
    for _, _, builder in FAMILIES:
        for _, cert in builder(n):
            full = _expand_reference(cert.rhs)
            assert cert.rhs.expand() == full
            # the residual a transport null takes from its pieces is the
            # full expansion too
            assert cert.residual == full == ()
            seen += 1
    assert seen


@pytest.mark.parametrize("n", [3, 4])
def test_expand_matches_the_reference_on_every_suite_expression(n):
    for entry in identity_suite(n):
        cert = entry.certificate
        full = _expand_reference(cert.rhs)
        assert cert.rhs.expand() == full
        assert cert.residual == multiply(inverse(cert.lhs), full)


_LABELS4 = [rel.label for rel in reduced_relators(4)]
_symbols4 = st.integers(min_value=1, max_value=gen_count(4)).flatmap(
    lambda s: st.sampled_from((s, -s)))
_conj_words = st.lists(_symbols4, max_size=6).map(tuple)


@st.composite
def _expressions(draw):
    """Factors whose conjugators extend a few shared heads, so consecutive
    conjugators often share a prefix; some are empty, some unreduced."""
    heads = draw(st.lists(_conj_words, min_size=1, max_size=3))
    fs = []
    for _ in range(draw(st.integers(0, 8))):
        conj = draw(st.sampled_from(heads)) + draw(_conj_words)
        if draw(st.booleans()):
            conj = ()
        fs.append(Factor(conj, draw(st.sampled_from(_LABELS4)), draw(st.sampled_from((1, -1)))))
    return RelatorExpression(4, tuple(fs))


@settings(max_examples=300, deadline=None)
@given(_expressions())
def test_expand_matches_the_reference_on_generated_expressions(expr):
    assert expr.expand() == _expand_reference(expr)
    assert _inverse(expr).expand() == inverse(_expand_reference(expr))


_reduced_words = _conj_words.map(words.reduce_word)


@st.composite
def _conjugations(draw):
    """(c, u), both reduced, with u drawn to meet c in each way the splice
    can: no cancellation, u = c^-1, part of c cancelled, c a prefix of u^-1."""
    c = draw(_reduced_words)
    x, y = draw(_reduced_words), draw(_reduced_words)
    k = draw(st.integers(0, len(c)))
    u = draw(st.sampled_from((
        x,
        inverse(c),
        x + inverse(c[:k]),
        inverse(c + y),
    )))
    return c, words.reduce_word(u)


@settings(max_examples=400, deadline=None)
@given(_conjugations(), st.sampled_from(_LABELS4), st.sampled_from((1, -1)))
def test_factor_conjugated_splices_to_the_reduced_product(cu, label, e):
    c, u = cu
    got = Factor(c, label, e).conjugated(u)
    assert got == Factor(words.multiply(u, c), label, e)
    assert got.conj == words.reduce_word(got.conj)


def test_factor_is_immutable_and_hashable():
    f = Factor((1, -2), "R4-1(1,2)", 1)
    with pytest.raises(AttributeError):
        f.conj = ()
    assert hash(f) == hash(Factor((1, -2), "R4-1(1,2)", 1))
    assert len({f, Factor((1, -2), "R4-1(1,2)", 1), f.inverse()}) == 2
    assert f.conjugated(()) == f and f.inverse().inverse() == f


def test_a_null_with_another_instances_transport_is_not_verified(monkeypatch):
    # the null residuals trust the transport word they are handed; one taken
    # from another instance (certified for its own V) must leave a residual
    n = 4
    real = identities._transport

    def other(n, a, b, V):
        return real(n, a, b, words.multiply(V, embed_E(n, 3, 4)))

    monkeypatch.setattr(identities, "_transport", other)
    for cert in (eq21_null(n, 1, 2, 3, 4, 1), eq41_null(n, 1, 2, 3, 4),
                 power_split_null(n, 1, 2, 3)):
        assert not cert.verified
        assert cert.residual == _expand_reference(cert.rhs) != ()


_BAD_FACTORS = (Factor((), "R9-9(1,2)", 1), Factor((), "R4-1(1,2)", 2))


@pytest.mark.parametrize("bad", _BAD_FACTORS, ids=("label", "exponent"))
@pytest.mark.parametrize("source, build", [
    ("canon_r", lambda: eq21_null(4, 1, 2, 3, 4, 1)),
    ("base_case", lambda: eq21_null(4, 1, 2, 3, 4, 1)),
    ("canon_h", lambda: eq41_null(4, 1, 2, 3, 4)),
    ("base_case", lambda: eq41_null(4, 1, 2, 3, 4)),
    ("base_case", lambda: power_split_null(4, 1, 2, 3)),
], ids=("eq21-canon_r", "eq21-base_case", "eq41-canon_h", "eq41-base_case",
        "power_split-base_case"))
def test_a_bad_factor_in_any_null_piece_raises(monkeypatch, source, build, bad):
    # every RelatorExpression checks its factors when it is made, the pieces
    # of a null or transport chain and the joined product alike; so a bad
    # label or exponent slipped into the factors behind any one piece must
    # raise, whichever of those expressions first holds it
    real = getattr(identities, source)
    assert build().verified  # warm the caches, so every build makes the same calls
    calls = []
    monkeypatch.setattr(identities, source, lambda *a: (calls.append(a), real(*a))[1])
    build()
    assert calls
    for k in range(len(calls)):
        seen = []

        def spoiled(*args, k=k):
            seen.append(args)
            fs = real(*args)
            return fs[:1] + (bad,) + fs[1:] if len(seen) == k + 1 else fs

        monkeypatch.setattr(identities, source, spoiled)
        with pytest.raises(ValueError, match="exponent must be|unknown relator label"):
            build()


# -- the order of the certificate streams --------------------------------

# sha256 of the compact JSON list of instance keys each certificate stream
# yields, in order: (family, instance) for the identity suite, the instance
# tuple for the harvest families.  `verify` reports only counts and its
# first failures, so no report hash pins the order of these streams; the
# digests do, for any rewrite of how the instances are enumerated.
STREAM_ORDER_SHA256 = {
    (3, "transport-base"): "8f5c12240e9cea5853081f936ca269997e3cbdf5307343e618ba46c664b7cc07",
    (3, "triangle-target-inversion"): "56bb387135a21856f9d4f49be3a6f0783f0044319554f0fbbc1251e0c41f20a3",
    (3, "pair-swap-sign-cases"): "37ad3706bc1ce90e441e0db896427a8c18c40aac364df6c10e38759085a435c0",
    (3, "sample-commutator-rewrite"): "bdd474d8faf828b1abb563d487bbcdc5eacfc130ac9b8d0089a9ff626b7d3881",
    (3, "pair-swap-transport"): "2dee95956b7fc7103169ace87c4efc72138697d2770ac36c8cbaf091f1213620",
    (3, "fourth-power-halving"): "8da5a9e64869d8bd227c225899955a4d858bc0447d10b02776ed479befc7ba90",
    (3, "triangle-transport"): "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    (3, "F1"): "e7fcf02522d9ec1f4c599ce5f625d1d76f03865d86fb2ffdf3154f557c1809c0",
    (3, "F2"): "7340f9349428c1e024f7fc85e3919bd0f93ee38981f70cc0dced00222cb81e3a",
    (3, "F3"): "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    (3, "F4"): "215d12d963868d6ec235d777f99bee3c4bb9e53ed7c7e280cd4eab4f203aece0",
    (3, "F5"): "70ecb34dda654fccd795f00fccabaad8e54b5aaf42c0074d8f20befc24589799",
    (3, "F6"): "37f8cefe85f3e6b72bbeb7ea41ff2b875e04cc0d42b7206edf0dbf53ccf2bfd4",
    (4, "transport-base"): "500c48d04e0025a608241a4a44552587c00d0f775a0542fe85635b899f6cf912",
    (4, "triangle-target-inversion"): "371dd6e4d87ba75dab1004fe96cd981c27497b45d6160b3e52487c09a0a11732",
    (4, "pair-swap-sign-cases"): "549350d721203bd68a7df53f479ceaead9c33a9e42d6736c63228da265f944dd",
    (4, "sample-commutator-rewrite"): "7a3b2ba93f3d3527a6d8fa30e359434e403fe139339a2bcfa2981c6b02c0a544",
    (4, "pair-swap-transport"): "3a20beb9773def621a0b787e137979bb78a976ddb808b9a725e474143bbfd1b4",
    (4, "fourth-power-halving"): "7c6f56e134e74de1fd422ad2e64bf1ca04d08f5f2fb28c541d12b0ce9f52dac5",
    (4, "triangle-transport"): "b03b07c66da8e0fa87e0637476b50b55bf68f2c2c4b4dba7a7f288f2467ff116",
    (4, "F1"): "4958825a4aa6cf7a55fc63f94d0687a1dac7576c14ab14511859deb4d4fcfad2",
    (4, "F2"): "c21a8ad2e9fbfb3ac8c80ae306b1206535d7145fb0ee5b9fbff0166c64bddbb9",
    (4, "F3"): "418b463c2a0c89badc81f38ea40062ddf771c5b2d6734d57cf9f62c0449f7c6e",
    (4, "F4"): "99c8190c8f3a0561360c8af5b5f3fee2c7b131cee1500e69055f0edfe75789c9",
    (4, "F5"): "c3544b619077e0385e6c53cf88a4dde8c2961cd851ac780988242dfad59be0c9",
    (4, "F6"): "6ff3f18461a61962f0aff1535347d43843380b8dafb95dd020a288ba12bc4b7c",
}

_STREAMS = dict(SUITE_FAMILIES) | {tag: builder for tag, _, builder in FAMILIES}


@pytest.mark.parametrize("n, stream", sorted(STREAM_ORDER_SHA256))
def test_certificate_stream_order_is_pinned(n, stream):
    if stream in dict(SUITE_FAMILIES):
        keys = [[e.family, e.instance] for e in _STREAMS[stream](n)]
    else:
        keys = [list(inst) for inst, _ in _STREAMS[stream](n)]
    digest = hashlib.sha256(json.dumps(keys, separators=(",", ":")).encode()).hexdigest()
    assert digest == STREAM_ORDER_SHA256[n, stream]


# -- the certificates themselves ------------------------------------------

# sha256 of the compact JSON list of every certificate each harvest family
# yields, in order: its factors as [conj, relator, exponent] followed by its
# residual.  The instance keys above say which certificates are built; these
# say what each one is, so a rewrite of how factors are composed must give
# the same factors, conjugators and residuals.
CERTIFICATE_SHA256 = {
    (3, "F1"): "5ea7c804d628582ffa0a991c3502d1f078e724ef593044299d41086fb1bdb786",
    (3, "F2"): "2e7cce1c874a41f3f60a7183d035f4bb14effc2168cfad7cd8a54d6f1a644ae5",
    (3, "F3"): "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    (3, "F4"): "4c93496905d17cb29c7a6b4ea1e18362295757295d09443dc0848ffe44f5055c",
    (3, "F5"): "1b1f87366c96f86118d8fdbf0c7df73dbfe511f83f24bdb95f0ab2b504b45ddf",
    (3, "F6"): "2f97bab2642d3e8a171e17ce322073ff6aa565d0380aeec9cdaf9aac64d39629",
    (4, "F1"): "16e25bd7ebef61bc6aa3d1e8c48af0607fb08ce76c028d683c6ba8447ffa4023",
    (4, "F2"): "c7cc77989dfd4bf7df99732daf5e808bf1783de83d4d486b4bd6c411ce6189a1",
    (4, "F3"): "2b5277c03f22320c6fdfcdba9399ecce5f26dcf22159d16f825f28c07a57ee27",
    (4, "F4"): "aea32950ac84c46d91206897befac6ce05b907fae626c0bbcac0f13021d65f66",
    (4, "F5"): "df3d1bb6a70d5b3ebe211855687b25a49af698caf519c6bddf7bbeb0ddc4c728",
    (4, "F6"): "54280fcf94114f1d3d8ce75e17c319d0903e8b43d8870138540231177633021d",
}


@pytest.mark.parametrize("n, tag", sorted(CERTIFICATE_SHA256))
def test_harvest_certificates_are_pinned(n, tag):
    doc = [
        [[list(f.conj), f.relator, f.exponent] for f in cert.rhs.factors] + [list(cert.residual)]
        for _, cert in _STREAMS[tag](n)
    ]
    digest = hashlib.sha256(json.dumps(doc, separators=(",", ":")).encode()).hexdigest()
    assert digest == CERTIFICATE_SHA256[n, tag]
