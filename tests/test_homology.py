"""Fox calculus, exact linear algebra, and the five-term pipeline.

The integer linear algebra is all hand-rolled (SNF with transform
witnesses, column echelon, mod-p ranks), so everything here is checked
against independent oracles: sympy's Smith decomposition and the earlier
dense numpy SNF and mod-p rank (which the sparse ones must match value for
value) on random small matrices, the fundamental derivative identities on
random words, phi against its Fox-calculus definition (the right
derivatives, which live here as test oracles, pushed through the
coefficient action), and the frozen small-rank values of the pipeline
itself.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import subprocess
import sys
from functools import lru_cache
from operator import add, sub
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_decomp

from autfplus import homology, words
from autfplus.homology import (
    CROSS_CHECK_PRIMES,
    ConsistencyError,
    GroupRingElt,
    IntMatrix,
    LModule,
    SNFResult,
    _dense,
    _letter_times,
    _lmodule_from_cokernel,
    _matrix,
    _rows,
    _transvection,
    check_chain_condition,
    column_echelon,
    d1_matrix,
    divisor_profile,
    five_term_data,
    fox_derivative,
    h2_certificate,
    phi_matrix,
    rank_mod_p,
    snf,
    snf_cached,
    two_adic_split,
)
from autfplus.presentation import embed_E, gen_count, reduced_relators
from test_nielsen import letter_action

# -- fox calculus -------------------------------------------------------

ALPHABET = 4
letters = st.integers(min_value=1, max_value=ALPHABET).flatmap(
    lambda i: st.sampled_from([i, -i])
)
raw_words = st.lists(letters, max_size=14).map(tuple)


def _one() -> GroupRingElt:
    return GroupRingElt([((), 1)])


def _gen(x: int) -> GroupRingElt:
    return GroupRingElt([((x,), 1)])


def fox_derivative_right(w, s) -> GroupRingElt:
    """Right free derivative: D(x)=1, D(x^-1)=-x^-1, D(uv)=D(u).v + D(v).

    This is the flavour that pairs with the boundary convention
    (x-block: m |-> x.m - m); it satisfies sum_x (x - 1).D_x(w) = w - 1,
    so relator columns land in ker(d1) on the nose.  phi is defined by it.
    """
    assert s > 0
    acc: dict = {}
    for t, y in enumerate(w):
        if y == s:
            suf = w[t + 1 :]
            acc[suf] = acc.get(suf, 0) + 1
        elif y == -s:
            suf = w[t:]
            acc[suf] = acc.get(suf, 0) - 1
    return GroupRingElt(acc)


@given(raw_words)
def test_fox_left_fundamental_identity(w):
    # sum_x (dw/dx) . (x - 1) = w - 1
    acc = GroupRingElt()
    for x in range(1, ALPHABET + 1):
        acc = acc + fox_derivative(w, x) * (_gen(x) - _one())
    assert acc == GroupRingElt([(w, 1)]) - _one()


@given(raw_words)
def test_fox_right_fundamental_identity(w):
    # sum_x (x - 1) . D_x(w) = w - 1
    acc = GroupRingElt()
    for x in range(1, ALPHABET + 1):
        acc = acc + (_gen(x) - _one()) * fox_derivative_right(w, x)
    assert acc == GroupRingElt([(w, 1)]) - _one()


@given(raw_words, raw_words)
def test_fox_left_product_rule(u, v):
    # d(uv)/dx = du/dx + u . dv/dx
    for x in (1, ALPHABET):
        lhs = fox_derivative(words.multiply(u, v), x)
        rhs = fox_derivative(u, x) + GroupRingElt([(u, 1)]) * fox_derivative(v, x)
        assert lhs == rhs


def test_fox_examples():
    assert fox_derivative((1,), 1) == _one()
    assert fox_derivative((-1,), 1) == -GroupRingElt([((-1,), 1)])
    assert fox_derivative((1, 2), 2) == GroupRingElt([((1,), 1)])
    # conjugate: d(x y x^-1)/dx = 1 - x y x^-1
    assert fox_derivative((1, 2, -1), 1) == _one() - GroupRingElt([((1, 2, -1), 1)])
    assert fox_derivative((1, 2, -1), 3) == GroupRingElt()


# -- group ring ---------------------------------------------------------


@given(raw_words, raw_words, raw_words)
def test_group_ring_axioms(a, b, c):
    ea, eb, ec = (GroupRingElt([(w, 1)]) for w in (a, b, c))
    assert (ea + eb) * ec == ea * ec + eb * ec
    assert ea * (eb * ec) == (ea * eb) * ec
    assert ea * _one() == ea
    assert ea - ea == GroupRingElt()
    assert 2 * ea == ea + ea


# two letters and short words, so that terms often meet and cancel
_short_words = st.lists(st.integers(1, 2).flatmap(lambda i: st.sampled_from([i, -i])),
                        max_size=3).map(tuple)
_terms = st.lists(st.tuples(_short_words, st.integers(-3, 3)), max_size=6)


def _ring_oracle(pairs) -> dict:
    """{reduced word: summed coefficient}, zero sums dropped, by a plain dict."""
    acc: dict = {}
    for w, c in pairs:
        w = words.reduce_word(w)
        acc[w] = acc.get(w, 0) + c
    return {w: c for w, c in acc.items() if c}


@given(_terms, _terms, st.integers(-3, 3))
def test_group_ring_operations_match_a_dict_oracle(x, y, k):
    a, b = GroupRingElt(x), GroupRingElt(y)
    assert a.terms == _ring_oracle(x) and b.terms == _ring_oracle(y)
    assert (a + b).terms == _ring_oracle(x + y)
    assert (a - b).terms == _ring_oracle(x + [(w, -c) for w, c in y])
    assert (-a).terms == _ring_oracle([(w, -c) for w, c in x])
    assert (a * b).terms == _ring_oracle([(u + v, c * d) for u, c in x for v, d in y])
    assert (a * k).terms == (k * a).terms == _ring_oracle([(w, c * k) for w, c in x])
    assert (a - a).terms == (a * 0).terms == {}


def test_group_ring_reduces_keys():
    e = GroupRingElt([((1, -1, 2), 3), ((2,), -3)])
    assert not e.terms
    assert GroupRingElt([((1, 2, -2), 1)]).terms == {(1,): 1}


# -- coefficient actions ------------------------------------------------


def _matmul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


@lru_cache(maxsize=None)
def word_action(n, coeff, xw):
    """Action matrix of pi(xw), by suffix recursion through _letter_times.

    The coefficient action the harvest fold used before `fold_matrix`
    recursed on the conjugator itself; kept as an oracle for it and for phi.
    """
    if not xw:
        return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    return _letter_times(n, coeff, xw[0], word_action(n, coeff, xw[1:]))


def evaluate_ring_elt(n, coeff, e, action=word_action):
    """Push a group-ring element through the coefficient action (ring map);
    `action(n, coeff, w)` gives the matrix of one word."""
    acc = [[0] * n for _ in range(n)]
    for w, c in e.terms.items():
        m = action(n, coeff, w)
        for i in range(n):
            for j in range(n):
                acc[i][j] += c * m[i][j]
    return tuple(tuple(row) for row in acc)


def _plain_action(n, coeff, w):
    """The action of a word as a left-to-right product of dense letter
    matrices; shares no code with word_action."""
    prod = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    for y in w:
        prod = _matmul(prod, letter_action(n, coeff, y))
    return prod


def test_word_action_is_multiplicative():
    n = 3
    u = (1, -3, 2)
    v = (4, 2)
    for coeff in ("H", "Hdual"):
        a = word_action(n, coeff, u)
        b = word_action(n, coeff, v)
        ab = word_action(n, coeff, words.multiply(u, v))
        assert ab == _matmul(a, b)
    eye = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    assert word_action(n, "H", ()) == eye
    # longer words, against a plain left-to-right product of letter actions
    rng = random.Random(29)
    X = gen_count(n)
    for coeff in ("H", "Hdual"):
        for length in (7, 12, 20, 31):
            w = tuple(rng.choice((1, -1)) * rng.randint(1, X) for _ in range(length))
            assert word_action(n, coeff, w) == _plain_action(n, coeff, w)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_letter_times_matches_the_plain_product(n):
    # every signed letter, both modules, against the triple-loop product
    # with the dense oracle, which inverts each induced matrix itself
    rng = random.Random(100 + n)
    X = gen_count(n)
    for coeff in ("H", "Hdual"):
        for s in [*range(1, X + 1), *range(-X, 0)]:
            for _ in range(3):
                m = tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n))
                assert _letter_times(n, coeff, s, m) == _matmul(letter_action(n, coeff, s), m)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_d1_blocks_are_the_dense_letter_actions_minus_the_identity(n):
    X = gen_count(n)
    for coeff in ("H", "Hdual"):
        entries = {}
        for s in range(1, X + 1):
            m = letter_action(n, coeff, s)
            for i in range(n):
                for j in range(n):
                    entries[(i, (s - 1) * n + j)] = m[i][j] - (i == j)
        assert d1_matrix(n, coeff) == IntMatrix(n, n * X, entries)


@pytest.mark.parametrize("coeff", ["H", "Hdual"])
@pytest.mark.parametrize("bad", [
    ((1, 1, 0), (0, 1, 1), (0, 0, 1)),  # moves two rows
    ((1, 0, 0), (2, 1, 0), (0, 0, 1)),  # one row, but a 2 off the diagonal
    ((1, 0, 0), (0, 1, 0), (0, -2, 1)),
], ids=("two-rows", "plus-two", "minus-two"))
def test_transvection_refuses_any_other_shape(monkeypatch, coeff, bad):
    monkeypatch.setattr(homology, "induced_matrix", lambda aut: [list(row) for row in bad])
    with pytest.raises(ConsistencyError, match="one-row transvection"):
        _transvection.__wrapped__(3, coeff, 1)  # bypass the cache, which stays clean


def test_evaluate_ring_elt_is_linear():
    n = 3
    e1 = GroupRingElt([((1, 2), 1)])
    e2 = GroupRingElt([((-3,), 2)])
    for coeff in ("H", "Hdual"):
        m1 = evaluate_ring_elt(n, coeff, e1)
        m2 = evaluate_ring_elt(n, coeff, e2)
        ms = evaluate_ring_elt(n, coeff, e1 + e2)
        assert ms == tuple(
            tuple(m1[i][j] + m2[i][j] for j in range(n)) for i in range(n)
        )


# -- sparse matrices ----------------------------------------------------


def to_dense(a: IntMatrix) -> list[list[int]]:
    rows = [[0] * a.ncols for _ in range(a.nrows)]
    for (i, j), v in a.data.items():
        rows[i][j] = v
    return rows


def from_dense(rows) -> IntMatrix:
    return IntMatrix(len(rows), len(rows[0]) if rows else 0,
                     {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row)})


def _entry(a: IntMatrix, i: int, j: int) -> int:
    """The (i, j) entry of a, 0 where none is stored."""
    return a.data.get((i, j), 0)


def _random_matrix(rng: random.Random, m: int, n: int, density=0.6) -> IntMatrix:
    out = IntMatrix(m, n)
    for i in range(m):
        for j in range(n):
            if rng.random() < density:
                v = rng.randint(-9, 9)
                if v:
                    out.data[(i, j)] = v
    return out


def test_intmatrix_dump_parse_roundtrip():
    rng = random.Random(7)
    a = _random_matrix(rng, 5, 7)
    b = IntMatrix.parse(a.dump())
    assert a == b
    assert a.content_hash() == b.content_hash()
    a.data[(0, 0)] = _entry(a, 0, 0) + 1
    assert a.content_hash() != b.content_hash()
    # the constructor drops the zeros it is given
    c = IntMatrix(a.nrows, a.ncols, {**a.data, (2, 3): 0})
    assert (2, 3) not in c.data and all(c.data.values())


@pytest.mark.parametrize("text, match", [
    ("", "must start with 'nrows ncols'"),
    ("2\n0 0 1\n", "must start with 'nrows ncols'"),
    ("2 2 2\n", "must start with 'nrows ncols'"),
    ("2 x\n", "invalid literal"),
    ("-1 2\n", "negative matrix shape"),
    ("2 2\n0 0\n", "is not 'row col value'"),
    ("2 2\n0 1 1 1\n", "is not 'row col value'"),
    ("2 2\n0 0 1\n5 7 3\n0 0 4\n", r"entry \(5, 7\) outside the 2 x 2 shape"),
    ("2 2\n0 2 1\n", "outside"),
    ("2 2\n-1 0 1\n", "outside"),
    ("2 2\n0 1 0\n", r"stored zero at \(0, 1\)"),
    ("2 2\n0 0 1\n0 0 4\n", r"entry \(0, 0\) does not follow \(0, 0\)"),
    ("2 2\n1 0 1\n0 1 4\n", r"entry \(0, 1\) does not follow \(1, 0\)"),
], ids=("empty", "short-header", "long-header", "non-int", "negative-shape",
        "short-entry", "long-entry", "row-out-of-range", "col-out-of-range",
        "negative-index", "stored-zero", "repeated-entry", "decreasing-entry"))
def test_intmatrix_parse_refuses_what_dump_never_writes(text, match):
    # artefacts are read back with parse, so it checks by raising, which
    # python -O keeps, not through an assert
    with pytest.raises(ValueError, match=match):
        IntMatrix.parse(text)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("coeff", ["H", "Hdual"])
def test_intmatrix_parse_reads_back_d1_and_phi(n, coeff):
    for m in (d1_matrix(n, coeff), phi_matrix(n, coeff)):
        assert IntMatrix.parse(m.dump()) == m


def test_matrix_is_the_inverse_of_rows():
    # seeded sparse rows, columns in random order, with zero rows, 0 x k and
    # n x 0 shapes: _rows(_matrix(.)) gives them back, each row's columns in
    # their order
    rng = random.Random(26)
    for _ in range(200):
        m, k = rng.randint(0, 6), rng.randint(0, 6)
        density = rng.choice((0.0, 0.3, 0.8))
        rows = []
        for _ in range(m):
            cols = [j for j in range(k) if rng.random() < density]
            rng.shuffle(cols)
            rows.append({j: rng.choice((-3, -1, 1, 2, 5)) for j in cols})
        mat = _matrix(rows, k)
        assert (mat.nrows, mat.ncols) == (m, k)
        back = _rows(mat)
        assert [list(r.items()) for r in back] == [list(r.items()) for r in rows]
        # data is filled row by row, in each row's order
        assert list(mat.data.items()) == [((i, j), v) for i, r in enumerate(rows) for j, v in r.items()]


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("coeff", ["H", "Hdual"])
def test_rows_and_matrix_round_trip_phi(n, coeff):
    phi = phi_matrix(n, coeff)
    back = _matrix(_rows(phi), phi.ncols)
    assert back == phi
    # the round trip groups phi's entries by row, each row's in phi's order,
    # and a second one changes nothing, the order included
    assert list(back.data) == sorted(phi.data, key=lambda ij: ij[0])
    assert list(_matrix(_rows(back), back.ncols).data.items()) == list(back.data.items())
    digest = hashlib.sha256(repr(list(phi.data.items())).encode()).hexdigest()
    assert digest == DATA_ORDER_SHA256[(n, coeff, "phi")]


def test_chain_condition_check_matches_a_dense_product():
    # the sparse product behind check_chain_condition against a dense one:
    # a nonzero product raises and names its smallest (row, col, value), a
    # zero one passes, also when it is zero only by cancellation
    rng = random.Random(11)
    raised = passed = 0
    for trial in range(60):
        m, k, n = rng.randint(1, 5), rng.randint(1, 6), rng.randint(1, 5)
        a = _random_matrix(rng, m, k, density=rng.choice((0.2, 0.5, 0.9)))
        b = _random_matrix(rng, k, n, density=rng.choice((0.2, 0.5, 0.9)))
        if trial % 3 == 0:
            # [a | -a] times [b ; b]: every entry cancels
            a = IntMatrix(m, 2 * k, {**a.data, **{(i, j + k): -v for (i, j), v in a.data.items()}})
            b = IntMatrix(2 * k, n, {**b.data, **{(i + k, j): v for (i, j), v in b.data.items()}})
        da, db = to_dense(a), to_dense(b)
        want = [(i, j, sum(da[i][t] * db[t][j] for t in range(a.ncols)))
                for i in range(m) for j in range(n)]
        want = [e for e in want if e[2]]
        if want:
            with pytest.raises(ConsistencyError, match=re.escape(f"has entry {want[0]}")):
                check_chain_condition(a, b)
            raised += 1
        else:
            check_chain_condition(a, b)
            passed += 1
    assert raised > 10 and passed > 10


# -- SNF vs the sympy oracle --------------------------------------------


def _oracle_divisors(a: IntMatrix) -> list[int]:
    m = Matrix(to_dense(a))
    d, s, t = smith_normal_decomp(m)
    assert s * m * t == d
    out = [abs(d[i, i]) for i in range(min(a.nrows, a.ncols))]
    # oracle emits the chain with units first as well, but be permissive
    # about ordering of the zero tail
    return sorted(x for x in out if x) + [0] * out.count(0)


def test_snf_matches_sympy_oracle_on_randoms():
    rng = random.Random(2024)
    for trial in range(25):
        m = rng.randint(1, 6)
        n = rng.randint(1, 7)
        a = _random_matrix(rng, m, n, density=rng.choice((0.3, 0.7, 1.0)))
        res = snf(a)
        res.verify(a)
        mine = sorted(x for x in res.divisors if x) + [0] * list(res.divisors).count(0)
        assert mine == _oracle_divisors(a), f"trial {trial}"


def _dense_snf(a: IntMatrix, hits: set[str]) -> SNFResult:
    """The earlier dense SNF on numpy object arrays, kept as the oracle the
    sparse one must match value for value; ``hits`` records the re-pick and
    divisibility-fix branches as they run."""

    def eye(k):
        e = np.zeros((k, k), dtype=object)
        e[np.arange(k), np.arange(k)] = 1
        return e

    def pick_pivot(sub):
        nz = sub != 0
        if not nz.any():
            return None
        unit = (sub == 1) | (sub == -1)
        if unit.any():
            i, j = np.argwhere(unit)[0]
            return int(i), int(j)
        return min((abs(int(sub[i, j])), int(i), int(j)) for i, j in np.argwhere(nz))[1:]

    m, n = a.nrows, a.ncols
    A = np.zeros((m, n), dtype=object)
    for (i, j), v in a.data.items():
        A[i, j] = v
    U, UiT, VT, Vi = eye(m), eye(m), eye(n), eye(n)
    mn = min(m, n)
    t = 0
    while t < mn:
        while True:
            pick = pick_pivot(A[t:, t:])
            if pick is None:
                break
            i2, j2 = pick[0] + t, pick[1] + t
            if i2 != t:
                A[[t, i2]] = A[[i2, t]]
                U[[t, i2]] = U[[i2, t]]
                UiT[[t, i2]] = UiT[[i2, t]]
            if j2 != t:
                A[:, [t, j2]] = A[:, [j2, t]]
                VT[[t, j2]] = VT[[j2, t]]
                Vi[[t, j2]] = Vi[[j2, t]]
            if A[t, t] < 0:
                A[t, :] = -A[t, :]
                U[t, :] = -U[t, :]
                UiT[t, :] = -UiT[t, :]
            p = int(A[t, t])
            q = A[t + 1 :, t] // p
            if (q != 0).any():
                A[t + 1 :, t:] = A[t + 1 :, t:] - q[:, None] * A[t, t:]
                U[t + 1 :, :] = U[t + 1 :, :] - q[:, None] * U[t, :]
                UiT[t, :] = UiT[t, :] + np.dot(q, UiT[t + 1 :, :])
            if (A[t + 1 :, t] != 0).any():
                hits.add("repick")
                continue
            q2 = A[t, t + 1 :] // p
            if (q2 != 0).any():
                A[:, t + 1 :] = A[:, t + 1 :] - np.outer(A[:, t], q2)
                VT[t + 1 :, :] = VT[t + 1 :, :] - q2[:, None] * VT[t, :]
                Vi[t, :] = Vi[t, :] + np.dot(q2, Vi[t + 1 :, :])
            if (A[t, t + 1 :] != 0).any():
                hits.add("repick")
                continue
            if p != 1:
                bad = np.argwhere(A[t + 1 :, t + 1 :] % p != 0)
                if len(bad):
                    hits.add("fix")
                    i3 = t + 1 + int(bad[0][0])
                    A[t, :] = A[t, :] + A[i3, :]
                    U[t, :] = U[t, :] + U[i3, :]
                    UiT[i3, :] = UiT[i3, :] - UiT[t, :]
                    continue
            break
        if pick is None:
            break
        t += 1
    def rows(mat):
        return [{j: int(x) for j, x in enumerate(row) if x} for row in mat]

    return SNFResult(
        nrows=m,
        ncols=n,
        divisors=tuple(int(A[i, i]) for i in range(mn)),
        u_rows=rows(U),
        uinv_rows=rows(UiT.T),
        v_rows=rows(VT.T),
        vinv_rows=rows(Vi),
    )


@pytest.mark.parametrize(
    "rows,branch", [([[2, 0], [0, 3]], "fix"), ([[3, 5], [5, 3]], "repick")]
)
def test_snf_branches_match_the_dense_oracle(rows, branch):
    a = from_dense(rows)
    hits: set[str] = set()
    assert snf(a) == _dense_snf(a, hits)
    assert branch in hits


def test_snf_matches_the_dense_oracle_value_for_value():
    # every field, witnesses included, on seeded random matrices of every
    # shape from 0 x k to 7 x 7: dense and sparse, signed entries, and
    # matrices whose entries are all non-units
    rng = random.Random(4242)
    hits: set[str] = set()
    trials = 0
    for m in range(8):
        for n in range(8):
            for _ in range(36):
                density = rng.choice((0.15, 0.4, 0.8, 1.0))
                a = _random_matrix(rng, m, n, density=density)
                if rng.random() < 0.3:
                    for key, v in a.data.items():
                        a.data[key] = rng.choice((2, 3, 4, 6, 9, 10, 15)) * (v // abs(v))
                res = snf(a)
                assert res == _dense_snf(a, hits), (m, n, a.triplets())
                assert res.u == _dense(res.u_rows, m) and res.uinv == _dense(res.uinv_rows, m)
                assert res.v == _dense(res.v_rows, n) and res.vinv == _dense(res.vinv_rows, n)
                trials += 1
    assert trials >= 2000
    assert hits == {"repick", "fix"}


def test_snf_hidden_unit_divisor():
    # no entry is a unit, yet the lattice has a unit divisor
    a = from_dense([[3, 5], [5, 3]])
    res = snf(a)
    assert res.divisors == (1, 16)
    res.verify(a)


def test_snf_divisor_chain_and_determinism():
    a = from_dense([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    r1 = snf(a)
    r2 = snf(a)
    assert r1.divisors == r2.divisors and r1.u_rows == r2.u_rows and r1.v_rows == r2.v_rows
    nz = [d for d in r1.divisors if d]
    for d, e in zip(nz, nz[1:]):
        assert e % d == 0


def test_snf_verify_catches_tampering():
    a = from_dense([[2, 1, 0], [4, 0, 6]])
    res = snf(a)
    res.verify(a)

    def stored(field, i, j, x):
        rows = [dict(row) for row in getattr(res, field)]
        rows[i][j] = x
        return res._replace(**{field: rows})

    def changed(field, i, j):  # one entry off by one; none of them becomes 0
        return stored(field, i, j, getattr(res, field)[i].get(j, 0) + 1)

    assert 0 not in res.v_rows[0]  # so that a stored zero there changes no product
    tampered = [
        res._replace(divisors=(res.divisors[0], res.divisors[1] + 2)),
        changed("u_rows", 0, 1),
        changed("uinv_rows", 1, 0),
        changed("v_rows", 2, 2),
        changed("vinv_rows", 0, 2),
        res._replace(divisors=(2, 1)),  # chain order broken
        # a divisor too many or too few: raised, not asserted, so that
        # python -O keeps the check
        res._replace(divisors=res.divisors + res.divisors[-1:]),
        res._replace(divisors=res.divisors[:1]),
    ]
    # the shape check names the witness; it runs before any product, which
    # would raise IndexError on a column >= k, or would not see a stored zero
    misshapen = [
        res._replace(uinv_rows=res.v_rows),  # witness of the wrong shape
        # faults only sparse rows can hold
        stored("v_rows", 0, 0, 0),  # a stored zero
        stored("u_rows", 0, 2, 1),  # a column index >= k
        stored("v_rows", 1, 3, 1),
        stored("u_rows", 1, -1, 1),  # a column index < 0
        stored("v_rows", 0, -3, 1),
        res._replace(v_rows=res.v_rows[:2]),  # a missing row
    ]
    for bad in tampered:
        with pytest.raises(ConsistencyError):
            bad.verify(a)
    for bad in misshapen:
        with pytest.raises(ConsistencyError, match="SNF witness"):
            bad.verify(a)
    # checked against a matrix of another shape
    with pytest.raises(ConsistencyError, match="2 x 3 matrix checked against a 2 x 2 one"):
        res.verify(from_dense([[2, 1], [4, 0]]))


def test_rank_mod_p_agrees_with_divisors():
    rng = random.Random(99)
    for _ in range(10):
        a = _random_matrix(rng, 5, 5, density=0.8)
        divs = [d for d in snf(a).divisors if d]
        for p in CROSS_CHECK_PRIMES:
            assert rank_mod_p(a, p) == sum(1 for d in divs if d % p)
    # tall and sparse, like the echelons of the pipeline: most rows below a
    # pivot have a zero in its column
    for _ in range(10):
        a = _random_matrix(rng, 60, 12, density=0.05)
        for k in range(12):
            a.data[(5 * k, k)] = rng.choice((2, 3, 5, 7, 15))
        divs = [d for d in snf(a).divisors if d]
        for p in CROSS_CHECK_PRIMES:
            assert rank_mod_p(a, p) == sum(1 for d in divs if d % p)


def _dense_rank_mod_p(mat: IntMatrix, p: int) -> int:
    """The earlier dense numpy elimination (int64, entries reduced mod p on
    entry), kept as the oracle the sparse kernel must match value for value."""
    m, n = mat.nrows, mat.ncols
    if not m or not n:
        return 0
    a = np.zeros((m, n), dtype=np.int64)
    for (i, j), v in mat.data.items():
        a[i, j] = v % p
    r = 0
    for c in range(n):
        rows = np.flatnonzero(a[r:, c])
        if not len(rows):
            continue
        i = r + int(rows[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        below = np.flatnonzero(a[r + 1 :, c]) + r + 1
        if len(below):
            a[below] = (a[below] - np.outer(a[below, c], a[r])) % p
        r += 1
        if r == m:
            break
    return r


def test_rank_mod_p_matches_the_dense_oracle_value_for_value():
    rng = random.Random(606)
    primes = (3, 5, 7, 11)
    cases = []
    for m in range(13):
        for n in range(13):
            cases.append(IntMatrix(m, n))  # all zero, and every 0 x k, k x 0
            for density in (0.2, 0.6, 1.0):
                entries = {}
                for i in range(m):
                    for j in range(n):
                        if rng.random() < density:
                            # signed, multiples of each prime, and one too
                            # wide for a fixed-width kernel
                            v = rng.choice((rng.randint(-24, 24), 1155 * rng.randint(-2, 2)))
                            entries[(i, j)] = v if rng.random() < 0.95 else 2**70 + v
                cases.append(IntMatrix(m, n, entries))
    for _ in range(20):
        a = _random_matrix(rng, 60, 12, density=0.05)
        for k in range(12):
            a.data[(5 * k, k)] = rng.choice((2, 3, 5, 7, 11, 15))
        cases.append(a)
    deficient = 0
    for a in cases:
        for p in primes:
            got = rank_mod_p(a, p)
            assert got == _dense_rank_mod_p(a, p), (a.dump(), p)
            deficient += got < min(a.nrows, a.ncols)
    assert deficient > 100  # the cancellations were exercised, not just full rank


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("coeff", ["H", "Hdual"])
def test_rank_mod_p_matches_the_dense_oracle_on_phi(n, coeff):
    phi = phi_matrix(n, coeff)
    for mat in (phi, column_echelon(phi)):
        for p in CROSS_CHECK_PRIMES:
            assert rank_mod_p(mat, p) == _dense_rank_mod_p(mat, p)


_NO_NUMPY = """
import json, sys
import autfplus.cli
assert "numpy" not in sys.modules, "importing the CLI loaded numpy"
sys.modules["numpy"] = None  # any later import of numpy raises ImportError
from autfplus.cli import main
out = {}
for command, n in (("homology", 5), ("certify-h2", 3)):
    path = sys.argv[1] + "/" + command + ".json"
    code = main([command, "--n", str(n), "--out", path])
    with open(path) as f:
        out[command] = [code, json.load(f)["meta"]["report_hash"]]
print(json.dumps(out))
"""


def test_cli_runs_without_numpy(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    expected = json.loads((Path(src).parent / "perfbench" / "expected.json").read_text())
    for command, n in (("homology", 5), ("certify-h2", 3)):
        want = expected[command][str(n)]
        assert got[command] == [want["exit"], want["report_hash"]], command


def test_the_shared_sha256_is_hashlib_sha256():
    # report_hash, content_hash and seal all hash through homology.sha256
    data = [
        b"",
        b"phi-n4-H.mat",
        "\u00e9\u2202\u03c6 \U0001d53d".encode(),  # non-ASCII, as UTF-8
        bytes(range(256)) * 4096,  # 1 MiB
        phi_matrix(4, "H").dump().encode(),
    ]
    for x in data:
        assert homology.sha256(x).hexdigest() == hashlib.sha256(x).hexdigest()


def test_column_echelon_preserves_the_image_lattice():
    rng = random.Random(5)
    for _ in range(10):
        a = _random_matrix(rng, 6, 9, density=0.5)
        e = column_echelon(a)
        assert e.ncols <= min(a.nrows, a.ncols)
        assert snf(e).nonzero_divisors() == snf(a).nonzero_divisors()
        # echelon structure: strictly increasing leading rows, positive leads
        leads = []
        for j in range(e.ncols):
            col = sorted((i, v) for (i, jj), v in e.data.items() if jj == j)
            assert col and col[0][1] > 0
            leads.append(col[0][0])
        assert leads == sorted(set(leads))


# -- L = Z[1/2] bookkeeping ---------------------------------------------


def is_unit_in_L(d: int) -> bool:
    """True for +-2^k, the nonzero integers that are units of L."""
    return d != 0 and two_adic_split(abs(d))[1] == 1


def test_two_adic_split_and_units():
    assert two_adic_split(1) == (0, 1)
    assert two_adic_split(24) == (3, 3)
    assert is_unit_in_L(1) and is_unit_in_L(-8) and is_unit_in_L(128)
    assert not is_unit_in_L(0) and not is_unit_in_L(6) and not is_unit_in_L(3)


def test_two_adic_split_matches_the_halving_loop():
    def halving(d):
        k = 0
        while d % 2 == 0:
            d //= 2
            k += 1
        return k, d

    rng = random.Random(17)
    samples = [*range(1, 257)]
    samples += [rng.randint(1, 10**6) << rng.randint(0, 120) for _ in range(500)]
    samples += [rng.getrandbits(rng.randint(1, 300)) | 1 for _ in range(100)]
    for d in samples:
        assert two_adic_split(d) == halving(d), d


def test_to_L_examples():
    def to_L(a):
        """Cokernel of a, read over L: 2-power divisors are units and
        disappear, the rest keep their odd parts."""
        return _lmodule_from_cokernel(a.nrows, snf(a).divisors)

    assert to_L(from_dense([[4]])) == LModule(0, ())  # 2-powers die over L
    assert to_L(from_dense([[6]])) == LModule(0, (3,))
    mod = to_L(IntMatrix(3, 1, {(0, 0): 12}))
    assert mod == LModule(2, (3,))
    assert mod.describe() == "L^2 + L/3"
    assert str(to_L(IntMatrix(1, 1, {}))) == "L"
    assert LModule(0, ()).describe() == "0"
    assert LModule(1, ()).min_generators() == 1


def test_divisor_profile():
    assert divisor_profile((1, 1, 2, 0)) == (((0, 1), 2), ((1, 1), 1))
    assert divisor_profile((2, 2, 12)) == (((1, 1), 2), ((2, 3), 1))
    assert divisor_profile(()) == ()


# -- boundary matrices and the chain condition --------------------------


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("coeff", ["H", "Hdual"])
def test_chain_condition_holds(n, coeff):
    check_chain_condition(d1_matrix(n, coeff), phi_matrix(n, coeff))


def _fox_phi(n, coeff, derivative=fox_derivative_right, action=word_action) -> IntMatrix:
    """phi from its definition: block x of column (r, p) is column p of the
    derivative of r with respect to x, pushed through the action."""
    X = gen_count(n)
    rels = reduced_relators(n)
    entries = {}
    for r_idx, rel in enumerate(rels):
        for x in range(1, X + 1):
            m = evaluate_ring_elt(n, coeff, derivative(rel.word, x), action)
            for i in range(n):
                for p in range(n):
                    entries[((x - 1) * n + i, r_idx * n + p)] = m[i][p]
    return IntMatrix(n * X, n * len(rels), entries)


def _phi_matrix_left_derivative(n, coeff) -> IntMatrix:
    # The rejected column convention: left derivatives in place of right
    # ones, kept to show that it breaks the chain condition with this d1.
    # (Building d1 from inverse letters instead does NOT break anything:
    # that sum vanishes on every trivial-action word, so it cannot
    # distinguish the conventions.)
    return _fox_phi(n, coeff, derivative=fox_derivative)


def _reference_phi(n, coeff) -> IntMatrix:
    """The dense assembly of every relator: full n x n suffix actions and
    one dense block per symbol, scattered relator, block, row, column.
    phi_matrix assembles only each family's first instance this way and
    places the others by renaming their indices."""
    rels = reduced_relators(n)
    out = IntMatrix(n * gen_count(n), n * len(rels))
    eye = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    for r_idx, rel in enumerate(rels):
        w = rel.word
        suffix = [eye] * (len(w) + 1)
        for t in range(len(w) - 1, -1, -1):
            suffix[t] = _letter_times(n, coeff, w[t], suffix[t + 1])
        blocks: dict[int, list[list[int]]] = {}
        for t, y in enumerate(w):
            m = suffix[t + 1] if y > 0 else suffix[t]
            sign = 1 if y > 0 else -1
            blk = blocks.setdefault(abs(y), [[0] * n for _ in range(n)])
            for i in range(n):
                for j in range(n):
                    blk[i][j] += sign * m[i][j]
        for sym, blk in blocks.items():
            for i in range(n):
                for p in range(n):
                    if blk[i][p]:
                        out.data[((sym - 1) * n + i, r_idx * n + p)] = blk[i][p]
    return out


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("coeff", ["H", "Hdual"])
def test_phi_matches_its_fox_definition(n, coeff):
    # every relator r, symbol x and basis index p, through word_action and
    # through plain dense products of letter matrices
    phi = phi_matrix(n, coeff)
    assert phi == _fox_phi(n, coeff)
    assert phi == _fox_phi(n, coeff, action=_plain_action)


def test_fox_definition_catches_a_zeroed_phi_column():
    n, coeff = 3, "H"
    phi = phi_matrix(n, coeff)
    col = max(j for _, j in phi.data)
    bad = IntMatrix(phi.nrows, phi.ncols, {k: v for k, v in phi.data.items() if k[1] != col})
    assert bad.nnz() < phi.nnz()
    check_chain_condition(d1_matrix(n, coeff), bad)  # a zero column lies in ker(d1)
    assert bad != _fox_phi(n, coeff)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
@pytest.mark.parametrize("coeff", ["H", "Hdual"])
def test_phi_keeps_the_dense_assembly_order(n, coeff):
    assert list(phi_matrix(n, coeff).data.items()) == list(_reference_phi(n, coeff).data.items())


def test_a_permuted_phi_column_passes_the_chain_condition():
    # every column of phi lies in ker(d1) on its own, so the chain
    # condition cannot see two columns of one relator swapped
    n, coeff = 4, "H"
    phi = phi_matrix(n, coeff)
    col = {0: 1, 1: 0}  # the first relator's columns for e_1 and e_2
    data = {(i, col.get(j, j)): v for (i, j), v in phi.data.items()}
    swapped = IntMatrix(phi.nrows, phi.ncols, data)
    assert swapped != phi
    check_chain_condition(d1_matrix(n, coeff), swapped)


def test_phi_rechecks_each_family_last_instance(monkeypatch):
    # renaming is sound only for an action that commutes with renaming the
    # indices; E(3,+,2) acting with the wrong sign breaks that, and the
    # last R2-1 instance, R2-1(3,2), recomputed from its word, shows it.
    # (An instance whose indices do not rename its word: tests/test_cli.py.)
    bad = embed_E(3, 3, 2)[0]

    def transvection(n, coeff, s):
        i, j, op = _transvection(n, coeff, s)
        return (i, j, sub if op is add else add) if abs(s) == bad else (i, j, op)

    monkeypatch.setattr(homology, "_transvection", transvection)
    with pytest.raises(ConsistencyError, match=r"R2-1\(3,2\): its renamed blocks"):
        phi_matrix(3, "H")


PHI_SHA256 = {
    (3, "H"): "a9760f69799a54c7f185f57504c96233a8e8917d6ddf875945f35dc55e47d7e9",
    (3, "Hdual"): "6c7f7cb74b3d54bd57131666304f0a92b47ff3be86b6d1a6ce3aad63660bff88",
    (4, "H"): "a77dded38e89c7d55c0b867877a45f9443e008745e4af0c7fa03324b61b3459c",
    (4, "Hdual"): "6764c5bc8c1a17b79b7463c5b73a36a5a58d215ed09d608fe359edfc154bb354",
    (5, "H"): "c1a2a6bc596a2d2f6de00647c2306f45ebaac8fb31c4211c97b32110a5858f6b",
    (5, "Hdual"): "c94fa7a5ab8f26270c75acc5096015df52fe59cfbc238f3f04a8636c334a5d27",
    (6, "H"): "a2e197b0717f5eba5d854c62c695301799887666555a4386b8b3e0c051b6c991",
    (6, "Hdual"): "c63b74795e6225977315f6292e0250d55db2a49890d92165d4be338ef13af191",
    (7, "H"): "31c9175f6a16749b05429efb1992943cfd52459921b593cfc6c7a0bef1ac8d28",
    (7, "Hdual"): "d1357d01a57325b64252d11faa9d11ab58395fc15b0e944c8d197b009a0d7bc1",
}


@pytest.mark.parametrize("n,coeff", sorted(PHI_SHA256))
def test_phi_bytes_are_pinned(n, coeff):
    assert phi_matrix(n, coeff).content_hash() == PHI_SHA256[(n, coeff)]


# sha256 of repr(list(m.data.items())): the entries *and* their insertion
# order, which the echelon and the SNF witness bytes depend on
DATA_ORDER_SHA256 = {
    (3, "H", "d1"): "86d2334741a271673a3a4883f8ddac48d255f7db6dc0ed3f4a3f6b33fc60a1b8",
    (3, "H", "phi"): "8a2dc56f66de798cb0fdc636b2e979906f218a7fdc2903bddd856a5151338d3d",
    (3, "Hdual", "d1"): "72a0d190c38ec438a6675133070a9f3139a01564d987b072851a8377962f9610",
    (3, "Hdual", "phi"): "d8c3417b750601ad4a77cb92b8c7717f58dce637600732926d26510debd45ebc",
    (4, "H", "d1"): "ed51b4ea79fbe0fe116aebe379d32cf2a7ce1c46e67fc1f5471b5d2cb5276a56",
    (4, "H", "phi"): "39cc014a9ec8d6b288cdcdb61b0a7a4ac5142ef9bb884ca4447b6875bbf55910",
    (4, "Hdual", "d1"): "4a4968cee336a2828d223cb16f9260d35497aafe3cb14e67287121b2a902cff5",
    (4, "Hdual", "phi"): "720c0cd340cb8a9946433a4b10f5abcda9b571be093efe5f8c18f0884cb63672",
    (5, "H", "d1"): "c1888b61e662964e4a8f91f51ed61e44cdf2869d60239f9d44941f8ef875df71",
    (5, "H", "phi"): "b83ce6bbf6eb6524128d1396b99f4499de382cada5efd57eb7572bc366cd3885",
    (5, "Hdual", "d1"): "695ecf8e438e6ebdbdf2e5dd8a22caaa3462552892b2cd51c58482fe3c26ed68",
    (5, "Hdual", "phi"): "3274cfc23326f3e41448d804e994da538aa3637e0af580bea1c22820ca143b60",
    (6, "H", "d1"): "732b1c45554798af32d860d9c117a5dfa804873c4bcb70c02673ba5098f6ae3c",
    (6, "H", "phi"): "8e4976c3e7a61464fa2f56bf0c31a4187d76c93814212fe52400e1c63fb90b09",
    (6, "Hdual", "d1"): "02a20e1db9bdbb9fb748b3c60fc98e69e050b61e7081aae4582a2d542fb5ab2a",
    (6, "Hdual", "phi"): "cd6050b268518212ad01866b91b6d3615c713f30b2905bcb9c38ab9181c4ce9c",
    (7, "H", "d1"): "a86ebd7b14c6ddf94ec9f89913f49506e26601eace1e2cc768eb5dd79dc1b234",
    (7, "H", "phi"): "c140d29a5af7421ff531ccb0e1cdc166976103bcfa0458e2049016707e51a294",
    (7, "Hdual", "d1"): "afcfc3c7b1ecfb214867854cd66e30ff2d9623568d39894b41cbacd5f9a24529",
    (7, "Hdual", "phi"): "23f2e714db2464c0aa3bf72faef99512920d8e7d76e2dd7a41aa25dd68fd193e",
}


@pytest.mark.parametrize("n,coeff,name", sorted(DATA_ORDER_SHA256))
def test_d1_and_phi_insertion_order_is_pinned(n, coeff, name):
    m = {"d1": d1_matrix, "phi": phi_matrix}[name](n, coeff)
    digest = hashlib.sha256(repr(list(m.data.items())).encode()).hexdigest()
    assert digest == DATA_ORDER_SHA256[(n, coeff, name)]


def test_left_derivative_columns_break_the_chain_condition():
    for coeff in ("H", "Hdual"):
        with pytest.raises(ConsistencyError):
            check_chain_condition(
                d1_matrix(3, coeff), _phi_matrix_left_derivative(3, coeff)
            )


def test_d1_shape_and_blocks():
    n = 3
    d1 = d1_matrix(n, "H")
    assert (d1.nrows, d1.ncols) == (n, n * gen_count(n))
    # first symbol block is (action of symbol 1) - I
    m = letter_action(n, "H", 1)
    blk = [[_entry(d1, i, j) for j in range(n)] for i in range(n)]
    assert blk == [
        [m[i][j] - (1 if i == j else 0) for j in range(n)] for i in range(n)
    ]


# -- the five-term pipeline at small rank -------------------------------

FROZEN_SMALL = {
    # (n, coeff): (kernel rank, image L-rank, h1 over L)
    (3, "H"): (33, 33, "0"),
    (3, "Hdual"): (33, 32, "L"),
    (4, "H"): (92, 92, "0"),
    (4, "Hdual"): (92, 91, "L"),
}


@pytest.mark.parametrize("n,coeff", sorted(FROZEN_SMALL))
def test_five_term_small_rank_values(n, coeff):
    data = five_term_data(n, coeff)
    kernel, image, h1 = FROZEN_SMALL[(n, coeff)]
    assert data.kernel_rank == kernel == 2 * n * (n * n - n) - n
    assert data.image_rank == image
    assert str(data.h1) == h1
    assert all(is_unit_in_L(d) for d in data.image_divisors)
    assert data.modp_ranks, "mod-p cross checks must have run"
    if n == 3:
        # the witnesses of both normal forms, and mod-p ranks that the
        # column echelon must not change
        data.d1_snf.verify(data.d1)
        data.image_snf.verify(data.echelon)
        for p, r in data.modp_ranks.items():
            assert rank_mod_p(data.phi, p) == r


def test_h1_convenience_wrapper():
    assert str(five_term_data(3, "Hdual").h1) == "L"


def test_h2_certificate_accepts_and_rejects():
    data = five_term_data(3, "H")
    good = h2_certificate(3, "H", bound=33, data=data)
    assert good.ok and good.reason == "certified"
    assert "surjection" in homology.CERT_ARGUMENT
    assert "transfer" in homology.TRANSFER_REMARK.lower()
    bad = h2_certificate(3, "H", bound=53, data=data)
    assert not bad.ok
    assert "53" in bad.reason
    dual = h2_certificate(3, "Hdual", bound=32, data=five_term_data(3, "Hdual"))
    assert dual.ok and dual.image_coker == LModule(1, ())


# -- caching ------------------------------------------------------------


def test_cache_dir_checkpoints(tmp_path):
    cache = tmp_path / "cache"
    d1 = five_term_data(3, "H", cache_dir=str(cache))
    files = sorted(os.listdir(cache))
    artefacts = [cache / "d1-n3-H.mat", cache / "phi-n3-H.mat"]
    keyed = [cache / f for f in files if f.startswith(("snf-", "echelon-"))]
    assert all(p.exists() for p in artefacts)
    assert {p.name.split("-")[0] for p in keyed} == {"snf", "echelon"}
    before = {p: p.read_bytes() for p in artefacts + keyed}
    for p in before:
        os.utime(p, ns=(0, 0))  # backdated, so that a rewrite shows
    d2 = five_term_data(3, "H", cache_dir=str(cache))
    assert sorted(os.listdir(cache)) == files
    # every entry is computed and written again, byte for byte the same;
    # none is read back
    assert all(p.read_bytes() == b and p.stat().st_mtime_ns for p, b in before.items())
    assert d1.image_divisors == d2.image_divisors
    assert d1.d1 == d2.d1 and d1.echelon == d2.echelon


def test_snf_cached_roundtrip(tmp_path):
    a = from_dense([[2, 4], [6, 10]])
    r1 = snf_cached(a, str(tmp_path))
    (path,) = tmp_path.iterdir()
    written = path.read_bytes()
    os.utime(path, ns=(0, 0))
    r2 = snf_cached(a, str(tmp_path))
    # recomputed and rewritten with the same bytes
    assert r1 == r2
    assert path.read_bytes() == written and path.stat().st_mtime_ns
    r2.verify(a)


WITNESSES = (("u", "nrows"), ("uinv", "nrows"), ("v", "ncols"), ("vinv", "ncols"))


def _dense_snf_doc(text: str) -> dict:
    """The dense document that the text of a sparse snf-*.json stands for.

    Each witness row is a list of [column, value] pairs; the decoder insists
    on nrows or ncols rows, columns in range and strictly increasing, and no
    stored zero, so that one dense document has exactly one sparse text."""
    doc = json.loads(text)
    for key, k in WITNESSES:
        assert len(doc[key]) == doc[k], key
        dense = []
        for pairs in doc[key]:
            cols = [j for j, _ in pairs]
            assert cols == sorted(set(cols)) and all(0 <= j < doc[k] for j in cols), key
            row = [0] * doc[k]
            for j, v in pairs:
                assert v != 0, key
                row[j] = v
            dense.append(row)
        doc[key] = dense
    return doc


def test_snf_cached_writes_the_text_of_json_dumps(tmp_path):
    # the artefact is json.dumps of the sparse rows, and it decodes to the
    # dense document, on every shape from 0 x k to 7 x 7, with signed
    # multi-digit entries in the matrix and the witnesses
    rng = random.Random(5150)
    multi_digit = 0
    for m in range(8):
        for n in range(8):
            for _ in range(4):
                a = _random_matrix(rng, m, n, density=rng.choice((0.3, 0.7, 1.0)))
                for key, v in a.data.items():
                    a.data[key] = v * rng.choice((1, 1, 13, 101))
                res = snf_cached(a, str(tmp_path))
                doc = {"nrows": m, "ncols": n, "divisors": list(res.divisors)}
                sparse = dict(doc)
                for key, _ in WITNESSES:
                    doc[key] = getattr(res, key)
                    rows = getattr(res, f"{key}_rows")
                    sparse[key] = [[[j, v] for j, v in sorted(row.items())] for row in rows]
                path = tmp_path / f"snf-{a.content_hash()[:24]}.json"
                text = path.read_text()
                assert text == json.dumps(sparse, sort_keys=True), (m, n, a.triplets())
                assert _dense_snf_doc(text) == doc, (m, n, a.triplets())
                multi_digit += any(
                    x <= -10 for key in ("u", "uinv", "v", "vinv") for row in doc[key] for x in row
                )
    assert multi_digit >= 50


# sha256 of column_echelon(phi).dump() and of the dense json.dumps text of the
# snf-*.json entries written for d1 and for that echelon, as the dense
# kernels produced them; the sparse files are decoded back to that text
WITNESS_SHA256 = {
    (4, "H"): (
        "ee82c13532e78410877d2c220fe6f87a1b9b672d6bc96c768edb2a9cc270574c",
        "606d054248cdcdaeb432fd22190ef710b59b8f8d88a45069ac54df8c71fb73e6",
        "fec8e21ece64fd4ac3154608ad82f04e0f59b6bd93445376e32abc5f5fa6cf1c",
    ),
    (4, "Hdual"): (
        "86d8f99f41766cbbc82b4b73a6a8c0c8fe40b1f8919653a93c466dea85d770da",
        "310a9169696a003b2d42719dbf892869bf7271e89c77b34935b5742968920ff5",
        "4f52d96bc85fe47463722c88a039a07279275aadd9061536965cefc01e8c35ad",
    ),
    (5, "H"): (
        "8417afdb1d46d5081f5e07b43bad602bb6a60c2fc1678136b9c87a19e237dfcc",
        "d7766fdd8e68573f883cb9986f5012d5fc53f91a74bbe14503d5b5f445f1f810",
        "546a0d9763620e7b46deb2c3d8a94bf20f047c289a58482e4e8555ae65947f51",
    ),
    (5, "Hdual"): (
        "5a66fa2642dd4c04106132e480d09a0ecef6b3647b8f77cb4ea0e3de0d7995e2",
        "d6452a0d9293228d0738157640924532b7ea76c0c557c35fad4bc5557b074d32",
        "804ff9387fb83522dd1d1d8c7d071752f3256f1fd3e00339f5e9e989737b2122",
    ),
}


@pytest.mark.parametrize("n,coeff", sorted(WITNESS_SHA256))
def test_echelon_and_snf_witness_bytes_are_pinned(tmp_path, n, coeff):
    def sha(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    d1 = d1_matrix(n, coeff)
    ech = column_echelon(phi_matrix(n, coeff))
    got = [sha(ech.dump().encode())]
    for mat in (d1, ech):
        snf_cached(mat, str(tmp_path))
        text = (tmp_path / f"snf-{mat.content_hash()[:24]}.json").read_text()
        got.append(sha(json.dumps(_dense_snf_doc(text), sort_keys=True).encode()))
    assert tuple(got) == WITNESS_SHA256[(n, coeff)]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_five_term_data_dumps_each_written_matrix_once(tmp_path, monkeypatch):
    dump = IntMatrix.dump
    dumped = []

    def counted(self):
        dumped.append(self)
        return dump(self)

    monkeypatch.setattr(IntMatrix, "dump", counted)
    data = five_term_data(4, "Hdual", cache_dir=str(tmp_path))
    # d1, phi and the echelon are the matrices written, each dumped once
    assert [id(m) for m in dumped] == [id(data.d1), id(data.phi), id(data.echelon)]
    texts = {name: (tmp_path / f"{name}-n4-Hdual.mat").read_text() for name in ("d1", "phi")}
    assert texts == {"d1": dump(data.d1), "phi": dump(data.phi)}
    # and every content-keyed name is the digest of the text written
    ech = (tmp_path / f"echelon-{_sha(texts['phi'])[:24]}.mat").read_text()
    assert ech == dump(data.echelon)
    assert sorted(os.listdir(tmp_path)) == sorted([
        "d1-n4-Hdual.mat",
        "phi-n4-Hdual.mat",
        f"echelon-{_sha(texts['phi'])[:24]}.mat",
        f"snf-{_sha(texts['d1'])[:24]}.json",
        f"snf-{_sha(ech)[:24]}.json",
    ])


def test_a_sealed_matrix_cannot_keep_a_stale_name(tmp_path):
    a = from_dense([[2, 4], [6, 10]])
    raw = a.data
    text = a.seal()
    assert a.content_hash() == _sha(text) == _sha(a.dump())
    # a change in place fails loudly
    with pytest.raises(TypeError):
        a.data[(0, 0)] = 3
    with pytest.raises(AttributeError):
        a.data.pop((0, 1))
    # the matrix keeps a copy of its own, so the dict it was built in is free
    raw[(0, 0)] = 3
    assert _entry(a, 0, 0) == 2 and a.content_hash() == _sha(text)
    # rebinding data, nrows or ncols gives the new content its own name
    for field, value in (("data", raw), ("nrows", 3), ("ncols", 3)):
        b = from_dense([[2, 4], [6, 10]])
        b.seal()
        setattr(b, field, value)
        assert b.content_hash() == _sha(b.dump()) != _sha(text), field
        snf_cached(b, str(tmp_path))
        assert (tmp_path / f"snf-{_sha(b.dump())[:24]}.json").exists(), field
    assert not (tmp_path / f"snf-{_sha(text)[:24]}.json").exists()
    # the same content under a new dict keeps the name
    a.data = {(1, 1): 10, (0, 0): 2, (1, 0): 6, (0, 1): 4}
    assert a.content_hash() == _sha(text)
