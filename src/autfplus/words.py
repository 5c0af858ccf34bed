"""Free-group word calculus.

Words in a free group of rank n are immutable tuples of nonzero signed
integers: the letter ``i`` (1-based) stands for the i-th basis generator,
``-i`` for its inverse.  The empty tuple is the identity.  Every function
here returns freely reduced words; reduction is stack-based (single pass),
never a repeated full rescan.

The same machinery is reused verbatim for words over any finite alphabet
of symbols numbered 1..N (e.g. words over presentation generators), since
nothing below depends on the rank beyond optional validation.
"""

from __future__ import annotations

import re
from typing import Iterable

Word = tuple[int, ...]

EMPTY: Word = ()


def reduce_word(letters: Iterable[int]) -> Word:
    """Freely reduce a letter sequence (stack method, one pass)."""
    out: list[int] = []
    for a in letters:
        assert a != 0, "0 is not a letter"
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


def is_reduced(letters: Iterable[int]) -> bool:
    prev = 0
    for a in letters:
        if a == 0 or a == -prev:
            return False
        prev = a
    return True


def multiply(*words: Iterable[int]) -> Word:
    """Freely reduced product of any number of words."""
    out: list[int] = []
    for w in words:
        for a in w:
            assert a != 0, "0 is not a letter"
            if out and out[-1] == -a:
                out.pop()
            else:
                out.append(a)
    return tuple(out)


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
    base = reduce_word(w) if not is_reduced(w) else tuple(w)
    if k < 0:
        base = inverse(base)
        k = -k
    out: Word = EMPTY
    for _ in range(k):
        out = multiply(out, base)
    return out


def validate_word(w: Iterable[int], rank: int) -> Word:
    """Check letters lie in 1..rank and the word is reduced; return it.

    Raises ValueError on out-of-range letters (rank mismatch at module
    boundaries) and AssertionError on unreduced input.
    """
    t = tuple(w)
    for a in t:
        if a == 0 or abs(a) > rank:
            raise ValueError(f"letter {a} outside rank-{rank} alphabet")
    assert is_reduced(t), f"word not freely reduced: {t}"
    return t


_TOKEN = re.compile(r"^x(\d+)(?:\^(-?\d+))?$", re.IGNORECASE)


def parse_word(text: str) -> Word:
    """Parse `x1*x2^-1*x3` style syntax (case-insensitive).

    `1` and the empty string denote the identity.  A token may carry any
    integer exponent; the printer only ever emits `^-1`.
    """
    s = text.strip().replace(" ", "")
    if s in ("", "1"):
        return EMPTY
    letters: list[int] = []
    for tok in s.split("*"):
        m = _TOKEN.match(tok)
        if not m:
            raise ValueError(f"bad word token: {tok!r}")
        idx = int(m.group(1))
        if idx == 0:
            raise ValueError("generator indices are 1-based")
        exp = int(m.group(2)) if m.group(2) else 1
        sign = 1 if exp > 0 else -1
        letters.extend([sign * idx] * abs(exp))
    return reduce_word(letters)


def format_word(w: Word) -> str:
    """Inverse of parse_word; identity prints as `1`."""
    if not w:
        return "1"
    parts = []
    for a in w:
        parts.append(f"x{a}" if a > 0 else f"x{-a}^-1")
    return "*".join(parts)
