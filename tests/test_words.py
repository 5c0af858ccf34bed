"""Free-group word machinery: reduction, inversion, products."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from autfplus.words import (
    commutator,
    conjugate,
    inverse,
    multiply,
    power,
    reduce_word,
)


def naive_reduce(letters):
    """Quadratic oracle: rescan for adjacent inverse pairs until stable."""
    out = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            if out[i] == -out[i + 1]:
                del out[i : i + 2]
                changed = True
                break
    return tuple(out)


def is_reduced(letters):
    """True when no letter is 0 or the inverse of the one before it."""
    prev = 0
    for a in letters:
        if a == 0 or a == -prev:
            return False
        prev = a
    return True


letters = st.integers(min_value=-4, max_value=4).filter(lambda x: x != 0)
raw_words = st.lists(letters, max_size=24).map(tuple)


@given(raw_words)
def test_reduce_matches_naive_oracle(w):
    assert reduce_word(w) == naive_reduce(w)


def test_reduce_against_oracle_bulk():
    rng = random.Random(7)
    for _ in range(2000):
        w = [rng.choice([s * k for s in (1, -1) for k in range(1, 5)])
             for _ in range(rng.randrange(0, 30))]
        assert reduce_word(w) == naive_reduce(w)


@given(raw_words)
def test_reduce_idempotent(w):
    r = reduce_word(w)
    assert reduce_word(r) == r
    assert is_reduced(r)


@given(raw_words)
def test_word_times_inverse_cancels(w):
    assert multiply(w, inverse(w)) == ()
    assert multiply(inverse(w), w) == ()


@given(raw_words)
def test_double_inverse(w):
    # inverse is a raw reverse-and-negate; it does not reduce
    assert inverse(inverse(w)) == tuple(w)
    assert reduce_word(inverse(w)) == inverse(reduce_word(w))


@given(raw_words, raw_words, raw_words)
@settings(max_examples=60)
def test_multiply_associative(u, v, w):
    assert multiply(multiply(u, v), w) == multiply(u, multiply(v, w))


@given(raw_words, raw_words)
def test_conjugate_and_commutator(u, w):
    u, w = reduce_word(u), reduce_word(w)
    assert conjugate(w, ()) == w
    assert commutator(u, u) == ()
    # [u, w] * w u w^-1 = u
    assert multiply(commutator(u, w), conjugate(u, w)) == u


def test_power_basics():
    w = (1, 2)
    assert power(w, 0) == ()
    assert power(w, 3) == (1, 2, 1, 2, 1, 2)
    assert power(w, -2) == inverse(power(w, 2))
    assert power((1, -1), 5) == ()
    assert power((1, 2, -2), 2) == (1, 1)  # the base is reduced first

