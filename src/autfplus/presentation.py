"""Presentations of the special automorphism group by Nielsen-map symbols.

Two presentations are provided:

- the *reduced* one on generator symbols ``E(i,+,j) / E(i,-,j)`` (target
  letter always positive; a symbol with inverted target letter is encoded
  as a group inverse, which structurally absorbs the inverse-pair relator
  family of the bigger presentation);
- the classical one on all letter pairs, kept for small-rank soundness
  cross-checks.

Words over the generator alphabet ("xwords") reuse the free-word calculus
from `words`: a symbol with 1-based index s appears as the letter ``s``,
its inverse as ``-s``.  Relator enumeration is family-major and
lexicographic in the index tuples, so the lists are stable.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple, Sequence

from . import words
from .nielsen import Automorphism, identity_aut, monomial_letter_perm, nielsen_aut
from .words import Word

MIN_RANK = 3


def check_rank(n: int) -> None:
    if n < MIN_RANK:
        raise ValueError(f"presentations need rank >= {MIN_RANK}, got {n}")


def gen_count(n: int) -> int:
    return 2 * n * (n - 1)


@lru_cache(maxsize=None)
def gen_symbols(n: int) -> tuple[tuple[int, int], ...]:
    """The generator symbols in canonical order, as (source letter, target)
    pairs: symbol s (1-based) moves the signed letter gen_symbols(n)[s-1][0]
    by the positive letter [1].  Sources run 1, -1, 2, -2, ..., targets
    ascend."""
    return tuple((eps * i, j) for i in range(1, n + 1) for eps in (1, -1)
                 for j in range(1, n + 1) if j != i)


@lru_cache(maxsize=None)
def symbol_of_pair(n: int) -> dict[tuple[int, int], int]:
    """(a, b) -> signed symbol: the inverse of gen_symbols, a negative
    target naming the inverse symbol."""
    out = {}
    for s, (a, b) in enumerate(gen_symbols(n), 1):
        out[a, b] = s
        out[a, -b] = -s
    return out


def embed_E(n: int, a: int, b: int) -> Word:
    """The Nielsen map with letter pair (a, b) as a length-1 xword.

    A negative target letter b yields the inverse of the symbol with
    target -b (the inverse-pair relator holds by construction).
    """
    s = symbol_of_pair(n).get((a, b))
    if s is None:
        raise ValueError(f"invalid letter pair ({a}, {b}) at rank {n}")
    return (s,)


def letters_of_symbol(n: int, s: int) -> tuple[int, int]:
    """Inverse of embed_E on single symbols: signed alphabet index -> (a, b).
    Raises ValueError unless 1 <= |s| <= gen_count(n)."""
    table = gen_symbols(n)
    if not 0 < abs(s) <= len(table):
        raise ValueError(f"{s} names no symbol at rank {n}")
    a, b = table[abs(s) - 1]
    return (a, b if s > 0 else -b)


# -- standard xwords ---------------------------------------------------


def w_xword(n: int, a: int, b: int) -> Word:
    """The monomial map a -> b^-1, b -> a as a 3-symbol xword."""
    return words.multiply(embed_E(n, b, a), embed_E(n, -a, b), embed_E(n, -b, -a))


def h_xword(n: int, a: int, b: int) -> Word:
    return words.multiply(w_xword(n, a, b), w_xword(n, -a, b))


def r_xword(n: int, a: int, c: int, b: int) -> Word:
    """r_{a c}(b) = [E_ab, E_bc] E_{a c^-1}: the triangle relator through b."""
    comm = words.commutator(embed_E(n, a, b), embed_E(n, b, c))
    return words.multiply(comm, embed_E(n, a, -c))


# -- evaluation map pi: F -> Aut^+ -------------------------------------


@lru_cache(maxsize=None)
def symbol_aut(n: int, s: int) -> Automorphism:
    """Automorphism named by a signed alphabet index."""
    return nielsen_aut(n, *letters_of_symbol(n, s))


def eval_xword(n: int, xw: Word) -> Automorphism:
    """pi: compose the Nielsen maps named by the symbols, left to right."""
    out = identity_aut(n)
    for s in xw:
        out = out.compose(symbol_aut(n, s))
    return out


def is_relator_elt(n: int, xw: Word) -> bool:
    return eval_xword(n, xw).is_identity()


# -- reduced relator list ----------------------------------------------


def relator_label(family: str, *idx: int) -> str:
    """The label of the relator instance of a family at the indices idx,
    e.g. "R4-1(1,2)"."""
    return f"{family}({','.join(map(str, idx))})"


class Relator(NamedTuple):
    label: str
    family: str
    indices: tuple[int, ...]
    word: Word


@lru_cache(maxsize=None)
def reduced_relators(n: int) -> tuple[Relator, ...]:
    """All relator instances of the reduced presentation, stable order.

    Built once per rank; the tuple is shared by every caller.

    Families are enumerated over *ordered* tuples of pairwise distinct
    indices, exactly as the patterns are written; symmetric patterns thus
    appear once per ordering.  Three families run over pairs, eight over
    triples, three over quadruples, so
    |R| = 3 n(n-1) + 8 n(n-1)(n-2) + 3 n(n-1)(n-2)(n-3)   (2130 at n=6);
    tests pin this against an independent brute-force count.
    """
    check_rank(n)
    E = lambda a, b: embed_E(n, a, b)
    comm = words.commutator
    rels: list[Relator] = []

    def add(family: str, idx: Sequence[int], word: Word) -> None:
        rels.append(Relator(relator_label(family, *idx), family, tuple(idx), word))

    for i, j in permutations(range(1, n + 1), 2):
        add("R2-1", (i, j), comm(E(i, j), E(-i, j)))
    for i, j, k in permutations(range(1, n + 1), 3):
        add("R2-2", (i, j, k), comm(E(i, j), E(k, j)))
    for i, j, k in permutations(range(1, n + 1), 3):
        add("R2-3", (i, j, k), comm(E(-i, j), E(k, j)))
    for i, j, k in permutations(range(1, n + 1), 3):
        add("R2-4", (i, j, k), comm(E(-i, j), E(-k, j)))
    for i, j, k in permutations(range(1, n + 1), 3):
        add("R2-5", (i, j, k), comm(E(i, j), E(-i, k)))
    for i, j, k, l in permutations(range(1, n + 1), 4):
        add("R2-6", (i, j, k, l), comm(E(i, j), E(k, l)))
    for i, j, k, l in permutations(range(1, n + 1), 4):
        add("R2-7", (i, j, k, l), comm(E(-i, j), E(k, l)))
    for i, j, k, l in permutations(range(1, n + 1), 4):
        add("R2-8", (i, j, k, l), comm(E(-i, j), E(-k, l)))
    for i, j, k in permutations(range(1, n + 1), 3):
        add("R3-1", (i, j, k), r_xword(n, i, j, k))
    for i, j, k in permutations(range(1, n + 1), 3):
        add("R3-2", (i, j, k), r_xword(n, i, j, -k))
    for i, j, k in permutations(range(1, n + 1), 3):
        add("R3-3", (i, j, k), r_xword(n, -i, j, k))
    for i, j, k in permutations(range(1, n + 1), 3):
        add("R3-4", (i, j, k), r_xword(n, -i, j, -k))
    for i, j in permutations(range(1, n + 1), 2):
        add("R4-1", (i, j), h_xword(n, i, j))
    for i, j in permutations(range(1, n + 1), 2):
        add("R5-1", (i, j), words.power(w_xword(n, i, j), 4))
    return tuple(rels)


@lru_cache(maxsize=None)
def relator_index(n: int) -> Mapping[str, int]:
    """label -> 0-based position in reduced_relators(n) (stable, read-only)."""
    return MappingProxyType({r.label: k for k, r in enumerate(reduced_relators(n))})


# -- classical letter-pair presentation (small-rank cross-checks) -------


def signed_tuples(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """k-tuples of signed letters with pairwise distinct indices, in the
    order of k nested loops over the letters 1, -1, 2, -2, ..., n, -n."""
    letters = [s * i for i in range(1, n + 1) for s in (1, -1)]
    return (t for t in product(letters, repeat=k) if len(set(map(abs, t))) == k)


def gersten_relators(n: int) -> list[tuple[str, Word]]:
    """Relators of the letter-pair presentation, mapped onto the reduced
    alphabet via embed_E (inverse-pair relators cancel structurally and
    are kept as empty-word sanity rows)."""
    check_rank(n)
    E = lambda a, b: embed_E(n, a, b)
    pairs = list(signed_tuples(n, 2))
    out: list[tuple[str, Word]] = []
    for a, b in pairs:
        out.append((f"R1({a},{b})", words.multiply(E(a, b), E(a, -b))))
    for (a, b), (c, d) in product(pairs, repeat=2):
        if a == c or a == d or a == -d or b == c or b == -c:
            continue
        out.append((f"R2({a},{b},{c},{d})", words.commutator(E(a, b), E(c, d))))
    for a, b, c in signed_tuples(n, 3):
        out.append((f"R3({a},{b},{c})", r_xword(n, a, c, b)))
    for a, b in pairs:
        out.append((f"R4({a},{b})", h_xword(n, a, b)))
        out.append((f"R5({a},{b})", words.power(w_xword(n, a, b), 4)))
    return out


# -- text form and symbol twists --------------------------------------


def format_xword(n: int, xw: Word) -> str:
    if not xw:
        return "1"
    parts = []
    for s in xw:
        a, b = letters_of_symbol(n, s)
        parts.append(f"E({abs(a)},{'+' if a > 0 else '-'},{abs(b)})" + ("" if s > 0 else "^-1"))
    return "*".join(parts)


def twist_xword(n: int, a: int, b: int, xw: Word) -> Word:
    """Apply the monomial letter permutation symbol-wise to an xword."""
    out: list[int] = []
    for s in xw:
        c, d = letters_of_symbol(n, s)
        e = embed_E(n, monomial_letter_perm(a, b, c), monomial_letter_perm(a, b, d))
        out.extend(e)
    return words.reduce_word(out)
