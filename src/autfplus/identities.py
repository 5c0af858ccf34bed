"""Certified identities among relators.

Everything here manipulates formal products of conjugated relators
(``u r^{+-1} u^-1`` factors), expands them back into the free group on the
alphabet, and certifies equalities by free reduction.  A certificate either
verifies exactly or carries the nonzero residual word as a witness; failed
certificates must never be consumed downstream.

The heavy lifting is the rewriting of ``(w_ab^-1 E_cd w_ab)^-1 E_{c^s d^s}``
into canonical relator factors (``_transport``), built inductively from
eight single-generator base cases keyed on how {c, d} meets {a, b}.  On top
of that sit the two null-expression builders used by the coefficient-module
reduction: transporting a triangle relator (``eq21_null``) and transporting
an inverse-pair product (``eq41_null``) around the order-4 monomial word.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, permutations
from operator import neg
from typing import Callable, Iterator, NamedTuple, Sequence

from . import words
from .homology import ConsistencyError
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
    relator_label,
    signed_tuples,
    twist_xword,
    w_xword,
)

class CertificationError(RuntimeError):
    """An identity that must hold exactly failed to free-reduce to it."""

    def __init__(self, message: str, residual: Word = ()):
        super().__init__(message)
        self.residual = residual


# -- relator lookup tables ---------------------------------------------


@lru_cache(maxsize=None)
def _signed_table(n: int) -> dict:
    """(label, exponent) -> the relator word raised to that exponent, for
    exponents +-1; built once every relator is checked to evaluate to the
    identity, and a ConsistencyError names those that do not."""
    rels = reduced_relators(n)
    bad = [rel.label for rel in rels if not is_relator_elt(n, rel.word)]
    if bad:
        raise ConsistencyError(f"canonical relators not sound at n={n}: {bad[:4]}")
    out = {}
    for rel in rels:
        out[rel.label, 1] = rel.word
        out[rel.label, -1] = words.inverse(rel.word)
    return out


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


# -- formal conjugated-relator products --------------------------------


class Factor(NamedTuple):
    """One ``u r^{+-1} u^-1`` term of a relator expression; ``relator`` is
    a canonical label and ``conj`` a reduced word."""

    conj: Word
    relator: str
    exponent: int

    def inverse(self) -> "Factor":
        return Factor(self.conj, self.relator, -self.exponent)

    def conjugated(self, u: Word) -> "Factor":
        # u and conj are reduced, so their product cancels only at the
        # junction, and is spliced there
        c = self.conj
        k, m = 0, min(len(u), len(c))
        while k < m and u[-1 - k] == -c[k]:
            k += 1
        return Factor(u[:len(u) - k] + c[k:], self.relator, self.exponent)


def _inv_factors(fs: Sequence[Factor]) -> tuple:
    return tuple(f.inverse() for f in reversed(fs))


def _conj_factors(fs: Sequence[Factor], u: Word) -> tuple:
    if not u:
        return tuple(fs)
    return tuple(f.conjugated(u) for f in fs)


class RelatorExpression(NamedTuple("RelatorExpression", [("n", int), ("factors", tuple)])):
    """Formal product of conjugated relators over the rank-n alphabet; each
    factor is checked against the relator table when the product is made."""

    __slots__ = ()

    def __new__(cls, n: int, factors: tuple):
        table = _signed_table(n)
        for f in factors:
            if (f.relator, f.exponent) not in table:
                if f.exponent not in (1, -1):
                    raise ValueError(f"exponent must be +-1, got {f.exponent}")
                raise ValueError(f"unknown relator label {f.relator!r}")
        return super().__new__(cls, n, factors)

    def expand(self) -> Word:
        # Consecutive factors u r u^-1 and v s v^-1 meet as u^-1 v, so only
        # what follows the common prefix of u and v goes onto the reduction
        # stack.  Free reduction is confluent: dropping those cancelling
        # pairs leaves the word that every u, r^{+-1}, u^-1 in full gives.
        table = _signed_table(self.n)
        out: list = []
        push, pop = out.append, out.pop
        prev: Word = ()
        for f in self.factors:
            u = f.conj
            k = 0
            for x, y in zip(prev, u):
                if x != y:
                    break
                k += 1
            for s in chain(map(neg, reversed(prev[k:])), u[k:],
                           table[f.relator, f.exponent]):
                if out and out[-1] == -s:
                    pop()
                else:
                    push(s)
            prev = u
        for s in map(neg, reversed(prev)):
            if out and out[-1] == -s:
                pop()
            else:
                push(s)
        return tuple(out)


class IdentityCertificate(NamedTuple):
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
    """Check lhs = rhs.expand() as reduced words in the free group.

    lhs must itself be a relator element (evaluate to the identity
    automorphism); anything else is a hard error, not a failed certificate.
    """
    lhs = words.reduce_word(lhs)
    if not is_relator_elt(rhs.n, lhs):
        raise ValueError("lhs does not evaluate to the identity automorphism")
    residual = words.multiply(words.inverse(lhs), rhs.expand())
    return IdentityCertificate(lhs, rhs, residual)


def _certified(expr: RelatorExpression, target: Word,
               what: str) -> RelatorExpression:
    """expr, once it is checked to expand to target exactly."""
    got = expr.expand()
    if got != target:
        residual = words.multiply(words.inverse(target), got)
        raise CertificationError(
            f"{what}: expansion disagrees with target "
            f"(residual length {len(residual)})", residual)
    return expr


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
    return _certified(RelatorExpression(n, fs), target,
                      "canon_commutator").factors


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
        # an invariant of the table, re-derived by _certified below
        assert exp == 1
        fs = (Factor((), label, 1),)
    else:
        inner = canon_r(n, a, -c, b)
        # an invariant of the c > 0 case, re-derived by _certified below
        assert len(inner) == 1 and not inner[0].conj
        u = words.multiply(embed_E(n, b, c), embed_E(n, a, c))
        fs = ((Factor(u, inner[0].relator, -1),)
              + canon_commutator(n, (b, c), (a, c)))
    return _certified(RelatorExpression(n, fs), target,
                      f"canon_r({a},{c},{b})").factors


@lru_cache(maxsize=None)
def canon_h(n: int, a: int, b: int) -> tuple:
    """Factors rewriting the inverse-pair product h_{a b} canonically.

    Sign cases: inverting the first letter conjugates by the monomial word,
    inverting the second also inverts the relator, and inverting both gives
    exactly the inverse word.
    """
    target = h_xword(n, a, b)
    label = relator_label("R4-1", abs(a), abs(b))
    if a > 0 and b > 0:
        fs = (Factor((), label, 1),)
    elif a < 0 and b > 0:
        fs = (Factor(words.inverse(w_xword(n, -a, b)), label, 1),)
    elif a > 0 and b < 0:
        fs = (Factor(words.inverse(w_xword(n, a, -b)), label, -1),)
    else:
        fs = (Factor((), label, -1),)
    return _certified(RelatorExpression(n, fs), target,
                      f"canon_h({a},{b})").factors


# -- single-generator conjugation base cases ---------------------------

#: how {c, d} meets the transport pair {a, b}, for reporting
BASE_CASES = ("src-hit", "src-a-inv", "src-b-inv", "dst-a", "dst-a-inv",
              "dst-b", "dst-b-inv", "disjoint")


def meets_at_most_once(a: int, b: int, letters: Sequence[int]) -> bool:
    """Whether the indices of the letters meet those of the transport pair
    (a, b) at most once: the instances a transport is built for."""
    return len({abs(a), abs(b)}.intersection(map(abs, letters))) <= 1


def transport_instances(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """(a, b, *letters) for every transport pair (a, b) and k letters with
    pairwise distinct indices that meet it at most once, in the order of
    nested loops over a, b and the letters."""
    letters = list(signed_tuples(n, k))
    for a, b in signed_tuples(n, 2):
        for t in letters:
            if meets_at_most_once(a, b, t):
                yield (a, b, *t)


def base_case_tag(a: int, b: int, c: int, d: int) -> str:
    if not meets_at_most_once(a, b, (c, d)):
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
    rather than producing an unusable list.  Letter pairs that name no
    symbol raise ValueError from embed_E.
    """
    tag = base_case_tag(a, b, c, d)
    E = embed_E
    m = words.multiply
    if tag == "src-hit":
        fs = append_pair_route(n, a, b, c, d)
    elif tag == "src-a-inv":
        # not taken from the printed display (which fails certification, see
        # rejected variant 4 in tests/test_identities.py): instead solve the
        # sign-flipped-source transport of E_{b d} -- a source-hit case --
        # for this target, using w_{a^-1 b} = w_ab^-1 h_ab.
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
        # not taken from the printed display (fails certification, see
        # rejected variant 5 in tests/test_identities.py): E_{c a^-1} is the
        # inverse letter of the dst-a case, and transporting an inverse
        # letter conjugates the inverted transport by w^-1 g w.
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
    return _certified(RelatorExpression(n, fs), target,
                      f"base_case[{tag}] ({a},{b}|{c},{d})").factors


def append_pair_route(n: int, a: int, b: int, c: int, d: int) -> tuple:
    """Factors for transporting the generator (c, d) around the monomial
    word of (a, b) through the sign-flipped pair: one inverse-pair product
    pulled through by double conjugation, then the transport around
    (-a, -b).  base_case takes this route for a source hit, where (-a, -b)
    is an inverted-source case; the basis-change harvest family checks it
    against base_case everywhere else.  Not certified here."""
    winv = words.inverse(w_xword(n, a, b))
    hf = canon_h(n, a, b)
    return (_conj_factors(hf, words.multiply(winv, embed_E(n, c, -d)))
            + _conj_factors(_inv_factors(hf), winv)
            + base_case(n, -a, -b, c, d))


# -- inductive transport -----------------------------------------------


def _transport(n: int, a: int, b: int,
               V: Word) -> tuple[RelatorExpression, Word]:
    """Express (w_ab^-1 V w_ab)^-1 V^sigma in conjugated canonical relators.

    Built letter by letter from the base cases; the t-th base expression is
    conjugated by w^-1 (suffix after t)^-1 w.  The result is certified
    against the expanded target, which is returned with it.
    """
    V = words.reduce_word(V)
    w = w_xword(n, a, b)
    winv = words.inverse(w)
    out: list = []
    for t, y in enumerate(V):
        u_t = words.multiply(winv, words.inverse(V[t + 1:]), w)
        c, d = letters_of_symbol(n, y)
        out.extend(_conj_factors(base_case(n, a, b, c, d), u_t))
    target = transport_target(n, a, b, V)
    return _certified(RelatorExpression(n, tuple(out)), target,
                      "transport"), target


def transport_chain(n: int, pairs: Sequence,
                    V: Word) -> tuple[RelatorExpression, Word]:
    """Transport V around a product of monomial words, left to right.

    Returns the expression and its expansion (u^-1 V u)^-1 V^{sigma_1 ...
    sigma_k}, for u the concatenation of the monomial words of `pairs`.
    The expansion is composed as g w_head g^-1 w_tail from the certified
    words of the first transport and of the rest of the chain, with g the
    inverse of the rest's monomial words; the factors likewise, as the
    head's conjugated by g followed by the rest's.
    """
    if not pairs:
        return RelatorExpression(n, ()), ()
    (a, b) = pairs[0]
    rest = pairs[1:]
    head, w_head = _transport(n, a, b, V)
    if not rest:
        return head, w_head
    g = words.inverse(words.multiply(*(w_xword(n, p, q) for p, q in rest)))
    tail, w_tail = transport_chain(n, rest, twist_xword(n, a, b, V))
    return (RelatorExpression(n, _conj_factors(head.factors, g) + tail.factors),
            words.multiply(g, w_head, words.inverse(g), w_tail))


# -- null expressions used by the module reduction ---------------------
# A null is a product of pieces whose words are known: the transports were
# certified against their target words as they were built, and the few
# canonical factors around them are expanded here.  Free reduction is
# confluent, so the reduced product of those words is the expansion of the
# whole null, and no transport is expanded a second time.


def _expanded(expr: RelatorExpression) -> tuple[RelatorExpression, Word]:
    return expr, expr.expand()


def _null_certificate(
        *pieces: tuple[RelatorExpression, Word]) -> IdentityCertificate:
    """certify((), product of the pieces), given each piece with its word;
    pieces of different ranks raise ValueError."""
    n = pieces[0][0].n
    if any(e.n != n for e, _ in pieces):
        raise ValueError(f"null pieces of ranks {sorted({e.n for e, _ in pieces})}")
    null = RelatorExpression(n, tuple(chain.from_iterable(e.factors for e, _ in pieces)))
    return IdentityCertificate((), null, words.multiply(*(w for _, w in pieces)))


def _transport_null(n: int, a: int, b: int, V: Word,
                    canon: Callable[..., tuple],
                    letters: tuple) -> IdentityCertificate:
    """Null expression transporting the relator V, rewritten canonically by
    canon(n, *letters), around the monomial word of (a, b): conjugate of the
    relator, times its transport, times the inverse of the twisted relator,
    reduces to 1."""
    winv = words.inverse(w_xword(n, a, b))
    X = RelatorExpression(n, _conj_factors(canon(n, *letters), winv))
    C = canon(n, *(monomial_letter_perm(a, b, x) for x in letters))
    return _null_certificate(_expanded(X), _transport(n, a, b, V),
                             _expanded(RelatorExpression(n, _inv_factors(C))))


def eq21_null(n: int, a: int, b: int, c: int, d: int,
              e: int) -> IdentityCertificate:
    """Null expression transporting the triangle relator r_{c d}(e) around
    the monomial word of (a, b)."""
    if len({abs(c), abs(d), abs(e)}) != 3:
        raise ValueError(f"triangle letters must be distinct: {c},{d},{e}")
    if not meets_at_most_once(a, b, (c, d, e)):
        raise ValueError("triangle letters meet the transport pair twice")
    return _transport_null(n, a, b, r_xword(n, c, d, e), canon_r, (c, d, e))


def eq41_null(n: int, a: int, b: int, c: int, d: int) -> IdentityCertificate:
    """Null expression transporting the inverse-pair product h_{c d} around
    the monomial word of (a, b)."""
    if not meets_at_most_once(a, b, (c, d)):
        raise ValueError("pair letters meet the transport pair twice")
    return _transport_null(n, a, b, h_xword(n, c, d), canon_h, (c, d))


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
    quarter = Factor((), relator_label("R5-1", i, j), -1)
    return _null_certificate(
        brace1, brace2, _expanded(RelatorExpression(n, (quarter, quarter))))


# -- identity suite ----------------------------------------------------


def _fmt_tuple(*parts) -> str:
    return "(" + ",".join(str(p) for p in parts) + ")"


class SuiteEntry(NamedTuple):
    family: str
    instance: str
    certificate: IdentityCertificate


def _base_entries(n: int) -> Iterator[SuiteEntry]:
    for a, b, c, d in transport_instances(n, 2):
        tag = base_case_tag(a, b, c, d)
        expr = RelatorExpression(n, base_case(n, a, b, c, d))
        target = transport_target(n, a, b, embed_E(n, c, d))
        yield SuiteEntry(f"transport-base[{tag}]", _fmt_tuple(a, b, c, d),
                         certify(target, expr))


def _triangle_inversion_entries(n: int) -> Iterator[SuiteEntry]:
    for a, c, b in signed_tuples(n, 3):
        if c < 0:
            continue
        expr = RelatorExpression(n, canon_r(n, a, -c, b))
        yield SuiteEntry("triangle-target-inversion", _fmt_tuple(a, -c, b),
                         certify(r_xword(n, a, -c, b), expr))


def _pair_sign_entries(n: int) -> Iterator[SuiteEntry]:
    for a, b in signed_tuples(n, 2):
        expr = RelatorExpression(n, canon_h(n, a, b))
        yield SuiteEntry("pair-swap-sign-cases", _fmt_tuple(a, b),
                         certify(h_xword(n, a, b), expr))


def _sample_rewrite_entries(n: int) -> Iterator[SuiteEntry]:
    # the corrected single-conjugation rewrite of an inverted-target
    # commuting pair; the version with the misstated right conjugator is
    # exercised (and shown to fail) in the test suite instead.
    for i, k, j in permutations(range(1, n + 1), 3):
        lhs = words.commutator(embed_E(n, i, -j), embed_E(n, k, -j))
        expr = RelatorExpression(n, canon_commutator(n, (i, -j), (k, -j)))
        yield SuiteEntry("sample-commutator-rewrite", _fmt_tuple(i, j, k),
                         certify(lhs, expr))


def _triangle_transport_entries(n: int) -> Iterator[SuiteEntry]:
    for inst in transport_instances(n, 3):
        yield SuiteEntry("triangle-transport", _fmt_tuple(*inst),
                         eq21_null(n, *inst))


def _pair_transport_entries(n: int) -> Iterator[SuiteEntry]:
    for inst in transport_instances(n, 2):
        yield SuiteEntry("pair-swap-transport", _fmt_tuple(*inst),
                         eq41_null(n, *inst))


def _power_split_entries(n: int) -> Iterator[SuiteEntry]:
    for ijk in permutations(range(1, n + 1), 3):
        yield SuiteEntry("fourth-power-halving", _fmt_tuple(*ijk),
                         power_split_null(n, *ijk))


SUITE_FAMILIES = (
    ("transport-base", _base_entries),
    ("triangle-target-inversion", _triangle_inversion_entries),
    ("pair-swap-sign-cases", _pair_sign_entries),
    ("sample-commutator-rewrite", _sample_rewrite_entries),
    ("pair-swap-transport", _pair_transport_entries),
    ("fourth-power-halving", _power_split_entries),
    ("triangle-transport", _triangle_transport_entries),
)


def identity_suite(n: int) -> Iterator[SuiteEntry]:
    """Stream every suite instance; heavy families last."""
    check_rank(n)
    for _, gen in SUITE_FAMILIES:
        yield from gen(n)

