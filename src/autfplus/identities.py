"""Certified identities among relators.

Everything here manipulates formal products of conjugated relators
(``u r^{+-1} u^-1`` factors), expands them back into the free group on the
alphabet, and certifies equalities by free reduction.  A certificate either
verifies exactly or carries the nonzero residual word as a witness; failed
certificates must never be consumed downstream.

The heavy lifting is the rewriting of ``(w_ab^-1 E_cd w_ab)^-1 E_{c^s d^s}``
into canonical relator factors (``conj_transport``), built inductively from
eight single-generator base cases keyed on how {c, d} meets {a, b}.  On top
of that sit the two null-expression builders used by the coefficient-module
reduction: transporting a triangle relator (``eq21_null``) and transporting
an inverse-pair product (``eq41_null``) around the order-4 monomial word.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence, Union

from . import words
from .words import Word
from .nielsen import monomial_letter_perm
from .presentation import (
    check_rank,
    embed_E,
    format_xword,
    h_xword,
    is_relator_elt,
    letters_of_symbol,
    r_xword,
    reduced_relators,
    twist_xword,
    w_xword,
)

RelatorId = Union[str, Word]


class CertificationError(RuntimeError):
    """An identity that must hold exactly failed to free-reduce to it."""

    def __init__(self, message: str, residual: Word = ()):
        super().__init__(message)
        self.residual = residual


# -- relator lookup tables ---------------------------------------------


@lru_cache(maxsize=None)
def _label_table(n: int) -> dict:
    return {rel.label: rel.word for rel in reduced_relators(n)}


@lru_cache(maxsize=None)
def _word_table(n: int) -> dict:
    """Reduced xword -> (canonical label, exponent).

    Direct words win over inverses so that e.g. a commutator that is itself
    canonical with swapped arguments resolves with exponent +1.
    """
    table: dict = {}
    for rel in reduced_relators(n):
        table.setdefault(rel.word, (rel.label, 1))
    for rel in reduced_relators(n):
        table.setdefault(words.inverse(rel.word), (rel.label, -1))
    return table


@lru_cache(maxsize=None)
def _sound_labels(n: int) -> frozenset:
    bad = [rel.label for rel in reduced_relators(n)
           if not is_relator_elt(n, rel.word)]
    assert not bad, f"canonical relators not sound at n={n}: {bad[:4]}"
    return frozenset(_label_table(n))


def relator_word(n: int, rid: RelatorId) -> Word:
    """The reduced xword of a relator id (canonical label or literal word)."""
    if isinstance(rid, str):
        return _label_table(n)[rid]
    return words.reduce_word(rid)


# -- formal conjugated-relator products --------------------------------


@dataclass(frozen=True)
class Factor:
    """One ``u r^{+-1} u^-1`` term of a relator expression."""

    conj: Word
    relator: RelatorId
    exponent: int

    def word(self, n: int) -> Word:
        r = relator_word(n, self.relator)
        if self.exponent == -1:
            r = words.inverse(r)
        return words.conjugate(r, self.conj)

    def inverse(self) -> "Factor":
        return Factor(self.conj, self.relator, -self.exponent)

    def conjugated(self, u: Word) -> "Factor":
        return Factor(words.multiply(u, self.conj), self.relator, self.exponent)


def _inv_factors(fs: Sequence[Factor]) -> tuple:
    return tuple(f.inverse() for f in reversed(fs))


def _conj_factors(fs: Sequence[Factor], u: Word) -> tuple:
    if not u:
        return tuple(fs)
    return tuple(f.conjugated(u) for f in fs)


@dataclass(frozen=True)
class RelatorExpression:
    """Formal product of conjugated relators over the rank-n alphabet."""

    n: int
    factors: tuple

    def __post_init__(self):
        sound = _sound_labels(self.n)
        for f in self.factors:
            if f.exponent not in (1, -1):
                raise ValueError(f"exponent must be +-1, got {f.exponent}")
            if isinstance(f.relator, str):
                if f.relator not in sound:
                    raise ValueError(f"unknown relator label {f.relator!r}")
            elif not is_relator_elt(self.n, words.reduce_word(f.relator)):
                raise ValueError("factor relator does not evaluate to the "
                                 "identity automorphism")

    def __mul__(self, other: "RelatorExpression") -> "RelatorExpression":
        assert self.n == other.n
        return RelatorExpression(self.n, self.factors + other.factors)

    def inverse(self) -> "RelatorExpression":
        return RelatorExpression(self.n, _inv_factors(self.factors))

    def conjugated(self, u: Word) -> "RelatorExpression":
        return RelatorExpression(self.n, _conj_factors(self.factors, u))

    def expand(self) -> Word:
        # u, r^{+-1} and u^-1 of every factor go straight onto one reduction
        # stack; free reduction is confluent, so no factor is reduced first
        n = self.n
        out: list = []
        push, pop = out.append, out.pop
        for f in self.factors:
            u = f.conj
            r = relator_word(n, f.relator)
            if f.exponent == -1:
                r = words.inverse(r)
            for s in u + r + words.inverse(u):
                if out and out[-1] == -s:
                    pop()
                else:
                    push(s)
        return tuple(out)


def expression(n: int, factors: Iterable[Factor]) -> RelatorExpression:
    return RelatorExpression(n, tuple(factors))


def expand(e: RelatorExpression) -> Word:
    """Freely reduced product of the u r^{+-1} u^-1 factors of e."""
    return e.expand()


@dataclass(frozen=True)
class IdentityCertificate:
    lhs: Word
    rhs: RelatorExpression
    residual: Word

    @property
    def verified(self) -> bool:
        return not self.residual

    @property
    def status(self) -> str:
        if self.verified:
            return "verified-free-level"
        return f"failed(residual length {len(self.residual)})"


def certify(lhs: Word, rhs: RelatorExpression) -> IdentityCertificate:
    """Check lhs = expand(rhs) as reduced words in the free group.

    lhs must itself be a relator element (evaluate to the identity
    automorphism); anything else is a hard error, not a failed certificate.
    """
    lhs = words.reduce_word(lhs)
    if not is_relator_elt(rhs.n, lhs):
        raise ValueError("lhs does not evaluate to the identity automorphism")
    residual = words.multiply(words.inverse(lhs), expand(rhs))
    return IdentityCertificate(lhs, rhs, residual)


def _certified_factors(n: int, target: Word, fs: Sequence[Factor],
                       what: str) -> tuple:
    got = RelatorExpression(n, tuple(fs)).expand()
    if got != target:
        residual = words.multiply(words.inverse(target), got)
        raise CertificationError(
            f"{what}: expansion disagrees with target "
            f"(residual length {len(residual)})", residual)
    return tuple(fs)


# -- canonical form of single relator instances ------------------------


def canon_commutator(n: int, pair1, pair2) -> tuple:
    """Factors rewriting [E_pair1, E_pair2] as one conjugated canonical
    commuting-pair relator (empty when the two letters coincide)."""
    (s,) = embed_E(n, *pair1)
    (t,) = embed_E(n, *pair2)
    fs = _canon_comm_letters(n, s, t)
    if fs is None:
        raise ValueError(
            f"[{format_xword(n, (s,))}, {format_xword(n, (t,))}] "
            "is not a commuting-pair relator")
    return fs


@lru_cache(maxsize=None)
def _canon_comm_letters(n: int, s: int, t: int) -> tuple | None:
    """canon_commutator on signed letters; None when [s, t] is not a
    commuting-pair relator (callers probing rungs expect such misses)."""
    target = words.commutator((s,), (t,))
    if not target:
        return ()
    if s < 0:
        # [x^-1, y] = x^-1 [y, x] x
        inner = _canon_comm_letters(n, t, -s)
        u = (s,)
    elif t < 0:
        # [x, y^-1] = y^-1 [y, x] y
        inner = _canon_comm_letters(n, -t, s)
        u = (t,)
    else:
        hit = _word_table(n).get(target)
        if hit is None:
            return None
        inner = (Factor((), hit[0], hit[1]),)
        u = ()
    if inner is None:
        return None
    fs = _conj_factors(inner, u)
    return _certified_factors(n, target, fs, "canon_commutator")


@lru_cache(maxsize=None)
def canon_r(n: int, a: int, c: int, b: int) -> tuple:
    """Factors rewriting the triangle relator r_{a c}(b) canonically.

    For positive c this is a single table hit; for inverted targets the
    relator is a conjugate of an inverted canonical instance times one
    commuting-pair relator.
    """
    target = r_xword(n, a, c, b)
    if c > 0:
        label, exp = _word_table(n)[target]
        assert exp == 1
        fs = (Factor((), label, 1),)
    else:
        inner = canon_r(n, a, -c, b)
        assert len(inner) == 1 and not inner[0].conj
        u = words.multiply(embed_E(n, b, c), embed_E(n, a, c))
        fs = ((Factor(u, inner[0].relator, -1),)
              + canon_commutator(n, (b, c), (a, c)))
    return _certified_factors(n, target, fs, f"canon_r({a},{c},{b})")


@lru_cache(maxsize=None)
def canon_h(n: int, a: int, b: int) -> tuple:
    """Factors rewriting the inverse-pair product h_{a b} canonically.

    Sign cases: inverting the first letter conjugates by the monomial word,
    inverting the second also inverts the relator, and inverting both gives
    exactly the inverse word.
    """
    target = h_xword(n, a, b)
    label = f"R4-1({abs(a)},{abs(b)})"
    if a > 0 and b > 0:
        fs = (Factor((), label, 1),)
    elif a < 0 and b > 0:
        fs = (Factor(words.inverse(w_xword(n, -a, b)), label, 1),)
    elif a > 0 and b < 0:
        fs = (Factor(words.inverse(w_xword(n, a, -b)), label, -1),)
    else:
        fs = (Factor((), label, -1),)
    return _certified_factors(n, target, fs, f"canon_h({a},{b})")


# -- single-generator conjugation base cases ---------------------------

#: how {c, d} meets the transport pair {a, b}, for reporting
BASE_CASES = ("src-hit", "src-a-inv", "src-b-inv", "dst-a", "dst-a-inv",
              "dst-b", "dst-b-inv", "disjoint")


def base_case_tag(a: int, b: int, c: int, d: int) -> str:
    if len({abs(c), abs(d)} & {abs(a), abs(b)}) > 1:
        raise ValueError(f"double overlap: pair ({a},{b}) letter ({c},{d})")
    if c == a or c == b:
        return "src-hit"
    if c == -a:
        return "src-a-inv"
    if c == -b:
        return "src-b-inv"
    if d == a:
        return "dst-a"
    if d == -a:
        return "dst-a-inv"
    if d == b:
        return "dst-b"
    if d == -b:
        return "dst-b-inv"
    return "disjoint"


def transport_target(n: int, a: int, b: int, V: Word) -> Word:
    """(w_ab^-1 V w_ab)^-1 V^sigma, the word every transport must equal."""
    winv = words.inverse(w_xword(n, a, b))
    return words.multiply(words.inverse(words.conjugate(V, winv)),
                          twist_xword(n, a, b, V))


@lru_cache(maxsize=None)
def base_case(n: int, a: int, b: int, c: int, d: int) -> tuple:
    """Factors for transporting the single generator with letters (c, d)
    around the monomial word of (a, b).

    Every case is certified exactly at construction; a failure raises
    rather than producing an unusable list.
    """
    assert abs(a) != abs(b) and abs(c) != abs(d)
    tag = base_case_tag(a, b, c, d)
    E = embed_E

    def m(*ws):
        return words.multiply(*ws)

    if tag == "src-hit":
        # double conjugation: pull one inverse-pair product through, flip
        # the signs of the transport pair, and recurse (lands in an
        # inverted-source case, so the recursion stops there).
        winv = words.inverse(w_xword(n, a, b))
        hf = canon_h(n, a, b)
        fs = (_conj_factors(hf, m(winv, E(n, c, -d)))
              + _conj_factors(_inv_factors(hf), winv)
              + base_case(n, -a, -b, c, d))
    elif tag == "src-a-inv":
        # not taken from the printed display (which fails certification, see
        # the ledger): instead solve the sign-flipped-source transport of
        # E_{b d} -- a source-hit case -- for this target, using
        # w_{a^-1 b} = w_ab^-1 h_ab.
        winv = words.inverse(w_xword(n, a, b))
        hf = canon_h(n, a, b)
        tp = base_case(n, -a, b, b, d)
        fs = (_conj_factors(_inv_factors(tp), winv)
              + _conj_factors(_inv_factors(hf), winv)
              + _conj_factors(hf, m(words.inverse(E(n, b, d)), winv)))
    elif tag == "src-b-inv":
        u1 = m(E(n, -b, a), E(n, -a, -b))
        u2 = E(n, -b, a)
        u3 = m(E(n, -a, -d), E(n, -b, a))
        fs = (_conj_factors(canon_commutator(n, (b, -a), (-b, -d)), u1)
              + _conj_factors(canon_r(n, -a, -d, -b), u2)
              + _conj_factors(canon_r(n, -b, d, -a), u3))
    elif tag == "dst-a":
        u1 = m(E(n, -b, a), E(n, -a, -b))
        u2 = m(E(n, -b, a), E(n, c, b))
        fs = (_conj_factors(canon_commutator(n, (b, -a), (c, -a)), u1)
              + _conj_factors(_inv_factors(canon_r(n, c, -b, -a)), u2)
              + _conj_factors(_inv_factors(canon_r(n, c, -a, -b)), u2))
    elif tag == "dst-a-inv":
        # not taken from the printed display (fails certification, see the
        # ledger): E_{c a^-1} is the inverse letter of the dst-a case, and
        # transporting an inverse letter conjugates the inverted transport
        # by w^-1 g w.
        w = w_xword(n, a, b)
        g = E(n, c, a)
        u = m(words.inverse(w), g, w)
        fs = _conj_factors(_inv_factors(base_case(n, a, b, c, a)), u)
    elif tag == "dst-b":
        u1 = m(E(n, -b, a), E(n, -a, -b), E(n, c, -b))
        fs = (_conj_factors(canon_r(n, c, -a, b), u1)
              + _conj_factors(canon_r(n, c, b, -a), u1)
              + canon_commutator(n, (-b, a), (c, -a)))
    elif tag == "dst-b-inv":
        u1 = m(E(n, -b, a), E(n, -a, -b), E(n, c, a))
        u2 = m(E(n, -b, a), E(n, c, a))
        fs = (_conj_factors(_inv_factors(canon_r(n, c, -a, b)), u1)
              + _conj_factors(canon_r(n, c, -b, -a), u2)
              + _conj_factors(canon_commutator(n, (c, -b), (-a, -b)), u2)
              + canon_commutator(n, (-b, a), (c, a)))
    else:
        u1 = m(E(n, -b, a), E(n, -a, -b))
        u2 = E(n, -b, a)
        fs = (_conj_factors(canon_commutator(n, (b, -a), (c, -d)), u1)
              + _conj_factors(canon_commutator(n, (-a, -b), (c, -d)), u2)
              + canon_commutator(n, (-b, a), (c, -d)))
    target = transport_target(n, a, b, E(n, c, d))
    return _certified_factors(n, target, fs,
                              f"base_case[{tag}] ({a},{b}|{c},{d})")


# -- inductive transport -----------------------------------------------


def conj_transport(n: int, a: int, b: int, V: Word) -> RelatorExpression:
    """Express (w_ab^-1 V w_ab)^-1 V^sigma in conjugated canonical relators.

    Built letter by letter from the base cases; the t-th base expression is
    conjugated by w^-1 (suffix after t)^-1 w.  The result is certified
    against the expanded target before it is returned.
    """
    if abs(a) == abs(b) or not (1 <= abs(a) <= n and 1 <= abs(b) <= n):
        raise ValueError(f"invalid transport pair ({a}, {b})")
    V = words.reduce_word(V)
    w = w_xword(n, a, b)
    winv = words.inverse(w)
    out: list = []
    for t, y in enumerate(V):
        u_t = words.multiply(winv, words.inverse(V[t + 1:]), w)
        c, d = letters_of_symbol(n, y)
        out.extend(_conj_factors(base_case(n, a, b, c, d), u_t))
    expr = RelatorExpression(n, tuple(out))
    target = transport_target(n, a, b, V)
    got = expr.expand()
    if got != target:
        raise CertificationError(
            "conj_transport expansion disagrees with its target",
            words.multiply(words.inverse(target), got))
    return expr


def transport_chain(n: int, pairs: Sequence, V: Word) -> RelatorExpression:
    """Transport V around a product of monomial words, left to right.

    Expands to (u^-1 V u)^-1 V^{sigma_1 ... sigma_k} for u the concatenation
    of the monomial words of `pairs`.
    """
    if not pairs:
        return RelatorExpression(n, ())
    (a, b) = pairs[0]
    rest = pairs[1:]
    head = conj_transport(n, a, b, V)
    if not rest:
        return head
    uprime = words.multiply(*(w_xword(n, p, q) for p, q in rest))
    tail = transport_chain(n, rest, twist_xword(n, a, b, V))
    return head.conjugated(words.inverse(uprime)) * tail


# -- null expressions used by the module reduction ---------------------


def eq21_null(n: int, a: int, b: int, c: int, d: int,
              e: int) -> IdentityCertificate:
    """Null expression transporting the triangle relator r_{c d}(e) around
    the monomial word of (a, b): conjugate of the relator, times its
    transport, times the inverse of the twisted relator, reduces to 1.
    """
    if len({abs(c), abs(d), abs(e)}) != 3:
        raise ValueError(f"triangle letters must be distinct: {c},{d},{e}")
    if abs(a) == abs(b):
        raise ValueError(f"invalid transport pair ({a},{b})")
    if len({abs(c), abs(d), abs(e)} & {abs(a), abs(b)}) > 1:
        raise ValueError("triangle letters meet the transport pair twice")
    V = r_xword(n, c, d, e)
    winv = words.inverse(w_xword(n, a, b))
    X = _conj_factors(canon_r(n, c, d, e), winv)
    T = conj_transport(n, a, b, V).factors
    C = canon_r(n, monomial_letter_perm(a, b, c), monomial_letter_perm(a, b, d),
                monomial_letter_perm(a, b, e))
    null = RelatorExpression(n, X + T + _inv_factors(C))
    return certify((), null)


def eq41_null(n: int, a: int, b: int, c: int, d: int) -> IdentityCertificate:
    """Null expression transporting the inverse-pair product h_{c d} around
    the monomial word of (a, b)."""
    if abs(c) == abs(d) or abs(a) == abs(b):
        raise ValueError(f"invalid letter pairs ({a},{b}), ({c},{d})")
    if len({abs(c), abs(d)} & {abs(a), abs(b)}) > 1:
        raise ValueError("pair letters meet the transport pair twice")
    V = h_xword(n, c, d)
    winv = words.inverse(w_xword(n, a, b))
    X = _conj_factors(canon_h(n, c, d), winv)
    T = conj_transport(n, a, b, V).factors
    C = canon_h(n, monomial_letter_perm(a, b, c), monomial_letter_perm(a, b, d))
    null = RelatorExpression(n, X + T + _inv_factors(C))
    return certify((), null)


def power_split_null(n: int, i: int, j: int, k: int) -> IdentityCertificate:
    """Null expression splitting the 8th power of the monomial word.

    w_ij^8 factors as two transported braces (one moving w_jk^2 around
    w_ij^-4, one moving w_ij^-4 around w_jk^2), so the product of the two
    braces and two inverted 4th-power relators reduces to 1.  This is what
    lets the reduction halve the 4th power over the 2-inverted coefficients.
    """
    if len({i, j, k}) != 3:
        raise ValueError(f"indices must be distinct: {i},{j},{k}")
    brace1 = transport_chain(n, ((i, -j),) * 4, words.power(w_xword(n, j, k), 2))
    brace2 = transport_chain(n, ((j, k),) * 2,
                             words.power(words.inverse(w_xword(n, i, j)), 4))
    quarter = Factor((), f"R5-1({i},{j})", -1)
    null = brace1 * brace2 * RelatorExpression(n, (quarter, quarter))
    return certify((), null)


# -- identity suite ----------------------------------------------------


def _signed(n: int) -> list:
    return [s * i for i in range(1, n + 1) for s in (1, -1)]


def _fmt_tuple(*parts) -> str:
    return "(" + ",".join(str(p) for p in parts) + ")"


@dataclass
class SuiteEntry:
    family: str
    instance: str
    certificate: IdentityCertificate

    def line(self) -> str:
        cert = self.certificate
        if cert.verified:
            return f"{self.family}\t{self.instance}\tverified"
        return (f"{self.family}\t{self.instance}\tfailed\t"
                f"residual={len(cert.residual)}")


def _base_entries(n: int) -> Iterator[SuiteEntry]:
    for a in _signed(n):
        for b in _signed(n):
            if abs(a) == abs(b):
                continue
            for c in _signed(n):
                for d in _signed(n):
                    if abs(c) == abs(d):
                        continue
                    if len({abs(c), abs(d)} & {abs(a), abs(b)}) > 1:
                        continue
                    tag = base_case_tag(a, b, c, d)
                    expr = RelatorExpression(n, base_case(n, a, b, c, d))
                    target = transport_target(n, a, b, embed_E(n, c, d))
                    yield SuiteEntry(f"transport-base[{tag}]",
                                     _fmt_tuple(a, b, c, d),
                                     certify(target, expr))


def _triangle_inversion_entries(n: int) -> Iterator[SuiteEntry]:
    for a in _signed(n):
        for c in range(1, n + 1):
            for b in _signed(n):
                if len({abs(a), c, abs(b)}) != 3:
                    continue
                expr = RelatorExpression(n, canon_r(n, a, -c, b))
                yield SuiteEntry("triangle-target-inversion",
                                 _fmt_tuple(a, -c, b),
                                 certify(r_xword(n, a, -c, b), expr))


def _pair_sign_entries(n: int) -> Iterator[SuiteEntry]:
    for a in _signed(n):
        for b in _signed(n):
            if abs(a) == abs(b):
                continue
            expr = RelatorExpression(n, canon_h(n, a, b))
            yield SuiteEntry("pair-swap-sign-cases", _fmt_tuple(a, b),
                             certify(h_xword(n, a, b), expr))


def _sample_rewrite_entries(n: int) -> Iterator[SuiteEntry]:
    # the corrected single-conjugation rewrite of an inverted-target
    # commuting pair; the version with the misstated right conjugator is
    # exercised (and shown to fail) in the test suite instead.
    for i in range(1, n + 1):
        for k in range(1, n + 1):
            for j in range(1, n + 1):
                if len({i, k, j}) != 3:
                    continue
                lhs = words.commutator(embed_E(n, i, -j), embed_E(n, k, -j))
                expr = RelatorExpression(
                    n, canon_commutator(n, (i, -j), (k, -j)))
                yield SuiteEntry("sample-commutator-rewrite",
                                 _fmt_tuple(i, j, k), certify(lhs, expr))


def _triangle_transport_entries(n: int) -> Iterator[SuiteEntry]:
    for a in _signed(n):
        for b in _signed(n):
            if abs(a) == abs(b):
                continue
            for c in _signed(n):
                for d in _signed(n):
                    for e in _signed(n):
                        if len({abs(c), abs(d), abs(e)}) != 3:
                            continue
                        if len({abs(c), abs(d), abs(e)}
                               & {abs(a), abs(b)}) > 1:
                            continue
                        yield SuiteEntry("triangle-transport",
                                         _fmt_tuple(a, b, c, d, e),
                                         eq21_null(n, a, b, c, d, e))


def _pair_transport_entries(n: int) -> Iterator[SuiteEntry]:
    for a in _signed(n):
        for b in _signed(n):
            if abs(a) == abs(b):
                continue
            for c in _signed(n):
                for d in _signed(n):
                    if abs(c) == abs(d):
                        continue
                    if len({abs(c), abs(d)} & {abs(a), abs(b)}) > 1:
                        continue
                    yield SuiteEntry("pair-swap-transport",
                                     _fmt_tuple(a, b, c, d),
                                     eq41_null(n, a, b, c, d))


def _power_split_entries(n: int) -> Iterator[SuiteEntry]:
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                if len({i, j, k}) != 3:
                    continue
                yield SuiteEntry("fourth-power-halving", _fmt_tuple(i, j, k),
                                 power_split_null(n, i, j, k))


SUITE_FAMILIES = (
    ("transport-base", _base_entries),
    ("triangle-target-inversion", _triangle_inversion_entries),
    ("pair-swap-sign-cases", _pair_sign_entries),
    ("sample-commutator-rewrite", _sample_rewrite_entries),
    ("pair-swap-transport", _pair_transport_entries),
    ("fourth-power-halving", _power_split_entries),
    ("triangle-transport", _triangle_transport_entries),
)


def identity_suite(n: int, families: Sequence = None) -> Iterator[SuiteEntry]:
    """Stream every suite instance; heavy families last."""
    check_rank(n)
    for name, gen in SUITE_FAMILIES:
        if families is not None and name not in families:
            continue
        yield from gen(n)


def suite_summary(entries: Iterable[SuiteEntry]) -> dict:
    """Aggregate counts per family: {family: [verified, failed]}."""
    out: dict = {}
    for entry in entries:
        slot = out.setdefault(entry.family.split("[")[0], [0, 0])
        slot[0 if entry.certificate.verified else 1] += 1
    return out
