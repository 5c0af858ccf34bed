"""Automorphisms of the free group and their two coefficient actions."""

from __future__ import annotations

import random
from functools import lru_cache

import pytest
from sympy import Matrix

from autfplus.nielsen import (
    Automorphism,
    identity_aut,
    induced_matrix,
    monomial_letter_perm,
    nielsen_aut,
)
from autfplus.presentation import embed_E, eval_xword, gen_count, symbol_aut
from autfplus.words import inverse, multiply, reduce_word

N = 4


def compose(*auts):
    """Left-to-right composition of any number of automorphisms."""
    out = auts[0]
    for a in auts[1:]:
        out = out.compose(a)
    return out


def monomial_aut(n, a, b):
    """The order-4 monomial map a -> b^-1, b -> a (other letters fixed)."""
    return compose(nielsen_aut(n, b, a), nielsen_aut(n, -a, b), nielsen_aut(n, -b, -a))


def det(s):
    """Determinant of the map s induces on the abelianization."""
    return Matrix(induced_matrix(s)).det()


def matmul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


@lru_cache(maxsize=None)
def letter_action(n, coeff, s):
    """Dense oracle for the action of the symbol s: on H the sympy inverse of
    its induced matrix, on H* the transpose of that matrix.  It inverts the
    matrix itself and never reads the symbol -s."""
    m = Matrix(induced_matrix(symbol_aut(n, s)))
    m = m.inv() if coeff == "H" else m.T
    return tuple(tuple(int(m[i, j]) for j in range(n)) for i in range(n))


def rand_aut(rng, n=N):
    s = identity_aut(n)
    for _ in range(rng.randrange(1, 6)):
        a = rng.randrange(1, n + 1)
        b = rng.choice([x for x in range(1, n + 1) if x != a])
        s = s.compose(nielsen_aut(n, a, rng.choice([b, -b])))
    return s


def test_nielsen_images():
    e = nielsen_aut(N, 1, 2)
    assert e.apply((1,)) == (1, 2)
    assert e.apply((2,)) == (2,)
    assert e.apply((-1,)) == (-2, -1)
    assert nielsen_aut(N, 1, -2).apply((1,)) == (1, -2)
    with pytest.raises(ValueError):
        nielsen_aut(N, 1, 1)


def test_compose_reads_left_to_right():
    s, t = nielsen_aut(N, 1, 2), nielsen_aut(N, 2, 3)
    st_ = s.compose(t)
    w = (1, -2)
    assert st_.apply(w) == t.apply(s.apply(w))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_symbol_and_its_negation_compose_to_the_identity(n):
    # maps carry images only; the inverse of symbol s is symbol -s
    X = gen_count(n)
    for s in [*range(1, X + 1), *range(-X, 0)]:
        assert symbol_aut(n, s).compose(symbol_aut(n, -s)).is_identity()


def test_inverse_word_evaluates_to_the_inverse_map():
    rng = random.Random(3)
    for n in (3, 4, 5):
        X = gen_count(n)
        for _ in range(20):
            xw = tuple(rng.choice((1, -1)) * rng.randint(1, X) for _ in range(rng.randint(1, 12)))
            s, t = eval_xword(n, xw), eval_xword(n, inverse(xw))
            assert s.compose(t).is_identity() and t.compose(s).is_identity()
            w = reduce_word(tuple(rng.choice([1, -1, 2, -3, n]) for _ in range(6)))
            assert t.apply(s.apply(w)) == w


def test_apply_is_homomorphism():
    rng = random.Random(5)
    for _ in range(40):
        s = rand_aut(rng)
        u = reduce_word(tuple(rng.choice([1, 2, -2, 3, -4]) for _ in range(5)))
        v = reduce_word(tuple(rng.choice([-1, 2, 3, -3, 4]) for _ in range(5)))
        assert s.apply(multiply(u, v)) == multiply(s.apply(u), s.apply(v))
        assert s.apply(inverse(u)) == reduce_word(inverse(s.apply(u)))


def test_induced_matrix_antihomomorphism_under_left_to_right():
    # columns of the matrix list images in the abelianization, so
    # composing words left-to-right multiplies matrices right-to-left
    rng = random.Random(11)
    for _ in range(40):
        s, t = rand_aut(rng), rand_aut(rng)
        assert induced_matrix(s.compose(t)) == matmul(induced_matrix(t), induced_matrix(s))


def test_monomial_images_and_letter_perm():
    w = monomial_aut(N, 1, 2)
    assert w.apply((1,)) == (-2,)
    assert w.apply((2,)) == (1,)
    assert w.apply((3,)) == (3,)
    for c in (1, 2, -1, -2, 3, -4):
        assert w.apply((c,)) == (monomial_letter_perm(1, 2, c),)
    # the square inverts both letters of the pair
    w2 = w.compose(w)
    assert w2.apply((1,)) == (-1,) and w2.apply((2,)) == (-2,)


def test_determinants_and_specialness():
    # every Nielsen map, hence every word in them, is special (det +1)
    assert det(identity_aut(N)) == 1
    assert det(nielsen_aut(N, 2, -3)) == 1
    assert det(monomial_aut(N, 1, 2)) == 1  # signed transposition: det (-1)*(-1)
    flip = Automorphism(N, [(-1,), (2,), (3,), (4,)])
    assert flip.compose(flip).is_identity()
    assert det(flip) == -1


def test_coeff_action_conventions():
    # the symbol of the Nielsen map x1 -> x1 x2; column p of its action
    # matrix is the image of the p-th basis vector
    (s,) = embed_E(N, 1, 2)
    col = lambda coeff, p: tuple(row[p - 1] for row in letter_action(N, coeff, s))
    # H: act by the matrix of the inverse automorphism
    assert col("H", 1) == (1, -1, 0, 0)
    assert col("H", 2) == (0, 1, 0, 0)
    # dual: act by the transpose of the matrix of the automorphism itself
    assert col("Hdual", 2) == (1, 1, 0, 0)
    assert col("Hdual", 1) == (1, 0, 0, 0)

