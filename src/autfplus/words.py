"""Free-group word calculus.

Words in a free group of rank n are immutable tuples of nonzero signed
integers: the letter ``i`` (1-based) stands for the i-th basis generator,
``-i`` for its inverse.  The empty tuple is the identity.  Every function
here returns freely reduced words; reduction is stack-based (single pass),
never a repeated full rescan.

The same machinery is reused verbatim for words over any finite alphabet
of symbols numbered 1..N (e.g. words over presentation generators), since
nothing below depends on the rank.
"""

from __future__ import annotations

from typing import Iterable

Word = tuple[int, ...]

EMPTY: Word = ()


def multiply(*words: Iterable[int]) -> Word:
    """Freely reduced product of any number of words."""
    out: list[int] = []
    for w in words:
        for a in w:
            if not a:
                raise ValueError("0 is not a letter")
            if out and out[-1] == -a:
                out.pop()
            else:
                out.append(a)
    return tuple(out)


#: Freely reduce one letter sequence: its product with no other word.
reduce_word = multiply


def inverse(w: Iterable[int]) -> Word:
    return tuple(-a for a in reversed(tuple(w)))


def conjugate(w: Word, u: Word) -> Word:
    """The conjugate u * w * u^-1 (reduced)."""
    return multiply(u, w, inverse(u))


def commutator(u: Word, v: Word) -> Word:
    """[u, v] = u v u^-1 v^-1, reduced."""
    return multiply(u, v, inverse(u), inverse(v))


def power(w: Word, k: int) -> Word:
    """w^k for any integer k (k may be negative or zero)."""
    base = reduce_word(w)
    if k < 0:
        base = inverse(base)
        k = -k
    out: Word = EMPTY
    for _ in range(k):
        out = multiply(out, base)
    return out

