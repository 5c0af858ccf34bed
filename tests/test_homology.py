"""Fox calculus, exact linear algebra, and the five-term pipeline.

The integer linear algebra is all hand-rolled (SNF with transform
witnesses, column echelon, mod-p ranks), so everything here is checked
against independent oracles: sympy's Smith decomposition on random small
matrices, the fundamental derivative identities on random words, and the
frozen small-rank values of the pipeline itself.
"""

from __future__ import annotations

import os
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_decomp

from autfplus import words
from autfplus.homology import (
    CROSS_CHECK_PRIMES,
    ConsistencyError,
    FiveTermData,
    GroupRingElt,
    IntMatrix,
    LModule,
    SNFResult,
    _letter_times,
    _phi_matrix_left_derivative,
    check_chain_condition,
    column_echelon,
    d1_matrix,
    divisor_profile,
    evaluate_ring_elt,
    five_term_data,
    fox_derivative,
    fox_derivative_right,
    h2_certificate,
    is_unit_in_L,
    letter_action,
    phi_matrix,
    rank_mod_p,
    snf,
    snf_cached,
    to_L,
    two_adic_split,
    word_action,
)
from autfplus.presentation import GenSym, gen_count, gen_index

# -- fox calculus -------------------------------------------------------

ALPHABET = 4
letters = st.integers(min_value=1, max_value=ALPHABET).flatmap(
    lambda i: st.sampled_from([i, -i])
)
raw_words = st.lists(letters, max_size=14).map(tuple)


def _one() -> GroupRingElt:
    return GroupRingElt.one()


def _gen(x: int) -> GroupRingElt:
    return GroupRingElt.from_word((x,))


@given(raw_words)
def test_fox_left_fundamental_identity(w):
    # sum_x (dw/dx) . (x - 1) = w - 1
    acc = GroupRingElt.zero()
    for x in range(1, ALPHABET + 1):
        acc = acc + fox_derivative(w, x) * (_gen(x) - _one())
    assert acc == GroupRingElt.from_word(w) - _one()


@given(raw_words)
def test_fox_right_fundamental_identity(w):
    # sum_x (x - 1) . D_x(w) = w - 1
    acc = GroupRingElt.zero()
    for x in range(1, ALPHABET + 1):
        acc = acc + (_gen(x) - _one()) * fox_derivative_right(w, x)
    assert acc == GroupRingElt.from_word(w) - _one()


@given(raw_words, raw_words)
def test_fox_left_product_rule(u, v):
    # d(uv)/dx = du/dx + u . dv/dx
    for x in (1, ALPHABET):
        lhs = fox_derivative(words.multiply(u, v), x)
        rhs = fox_derivative(u, x) + GroupRingElt.from_word(u) * fox_derivative(v, x)
        assert lhs == rhs


def test_fox_examples():
    assert fox_derivative((1,), 1) == _one()
    assert fox_derivative((-1,), 1) == -GroupRingElt.from_word((-1,))
    assert fox_derivative((1, 2), 2) == GroupRingElt.from_word((1,))
    # conjugate: d(x y x^-1)/dx = 1 - x y x^-1
    assert fox_derivative((1, 2, -1), 1) == _one() - GroupRingElt.from_word((1, 2, -1))
    assert fox_derivative((1, 2, -1), 3) == GroupRingElt.zero()


def test_fox_accepts_gensym():
    n = 3
    sym = GenSym(1, 1, 2)
    idx = gen_index(n, 1, 1, 2)
    w = (idx, -idx, idx)  # unreduced on purpose; derivatives reduce keys
    assert fox_derivative(w, sym, n) == fox_derivative(w, idx)
    with pytest.raises(AssertionError):
        fox_derivative(w, sym)  # GenSym without the rank


# -- group ring ---------------------------------------------------------


@given(raw_words, raw_words, raw_words)
def test_group_ring_axioms(a, b, c):
    ea, eb, ec = map(GroupRingElt.from_word, (a, b, c))
    assert (ea + eb) * ec == ea * ec + eb * ec
    assert ea * (eb * ec) == (ea * eb) * ec
    assert ea * _one() == ea
    assert ea - ea == GroupRingElt.zero()
    assert 2 * ea == ea + ea


def test_group_ring_reduces_keys():
    e = GroupRingElt([((1, -1, 2), 3), ((2,), -3)])
    assert e.is_zero()
    assert GroupRingElt.from_word((1, 2, -2)).coeff((1,)) == 1


# -- coefficient actions ------------------------------------------------


def _matmul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


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
            prod = eye
            for y in w:
                prod = _matmul(prod, letter_action(n, coeff, y))
            assert word_action(n, coeff, w) == prod


@pytest.mark.parametrize("n", [3, 4])
def test_letter_times_matches_the_plain_product(n):
    # every signed letter, both modules, against the triple-loop product
    rng = random.Random(100 + n)
    X = gen_count(n)
    for coeff in ("H", "Hdual"):
        for s in [*range(1, X + 1), *range(-X, 0)]:
            for _ in range(3):
                m = tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n))
                assert _letter_times(n, coeff, s, m) == _matmul(letter_action(n, coeff, s), m)


def test_evaluate_ring_elt_is_linear():
    n = 3
    e1 = GroupRingElt.from_word((1, 2))
    e2 = GroupRingElt.from_word((-3,), 2)
    for coeff in ("H", "Hdual"):
        m1 = evaluate_ring_elt(n, coeff, e1)
        m2 = evaluate_ring_elt(n, coeff, e2)
        ms = evaluate_ring_elt(n, coeff, e1 + e2)
        assert ms == tuple(
            tuple(m1[i][j] + m2[i][j] for j in range(n)) for i in range(n)
        )


# -- sparse matrices ----------------------------------------------------


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
    a.set(0, 0, a.get(0, 0) + 1)
    assert a.content_hash() != b.content_hash()
    a.set(2, 3, 0)
    assert (2, 3) not in a.data or a.get(2, 3) != 0


def test_intmatrix_mul_matches_dense():
    rng = random.Random(11)
    a = _random_matrix(rng, 4, 6)
    b = _random_matrix(rng, 6, 5)
    got = a.mul(b).to_dense()
    da, db = a.to_dense(), b.to_dense()
    want = [
        [sum(da[i][k] * db[k][j] for k in range(6)) for j in range(5)]
        for i in range(4)
    ]
    assert got == want


# -- SNF vs the sympy oracle --------------------------------------------


def _oracle_divisors(a: IntMatrix) -> list[int]:
    m = Matrix(a.to_dense())
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


def test_snf_hidden_unit_divisor():
    # no entry is a unit, yet the lattice has a unit divisor
    res = snf([[3, 5], [5, 3]])
    assert res.divisors == (1, 16)
    res.verify(IntMatrix.from_dense([[3, 5], [5, 3]]))


def test_snf_divisor_chain_and_determinism():
    a = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    r1 = snf(a)
    r2 = snf(a)
    assert r1.divisors == r2.divisors and r1.u == r2.u and r1.v == r2.v
    nz = [d for d in r1.divisors if d]
    for d, e in zip(nz, nz[1:]):
        assert e % d == 0


def test_snf_verify_catches_tampering():
    a = IntMatrix.from_dense([[2, 0], [0, 6]])
    res = snf(a)
    bad = SNFResult(
        nrows=res.nrows,
        ncols=res.ncols,
        divisors=(res.divisors[0], res.divisors[1] + 2),
        u=res.u,
        uinv=res.uinv,
        v=res.v,
        vinv=res.vinv,
    )
    with pytest.raises(ConsistencyError):
        bad.verify(a)


def test_rank_mod_p_agrees_with_divisors():
    rng = random.Random(99)
    for _ in range(10):
        a = _random_matrix(rng, 5, 5, density=0.8)
        divs = [d for d in snf(a).divisors if d]
        for p in CROSS_CHECK_PRIMES:
            assert rank_mod_p(a, p) == sum(1 for d in divs if d % p)


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
            col = e.column(j)
            assert col and col[0][1] > 0
            leads.append(col[0][0])
        assert leads == sorted(set(leads))


# -- L = Z[1/2] bookkeeping ---------------------------------------------


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
    assert to_L(snf([[4]])).is_trivial()  # 2-powers die over L
    assert to_L(snf([[6]])) == LModule(0, (3,))
    mod = to_L(snf(IntMatrix(3, 1, {(0, 0): 12})))
    assert mod == LModule(2, (3,))
    assert mod.describe() == "L^2 + L/3"
    assert str(to_L(snf(IntMatrix(1, 1, {})))) == "L"
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
    blk = [[d1.get(i, j) for j in range(n)] for i in range(n)]
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
    data = five_term_data(n, coeff, deep_check=(n == 3))
    kernel, image, h1 = FROZEN_SMALL[(n, coeff)]
    assert data.kernel_rank == kernel == 2 * n * (n * n - n) - n
    assert data.image_rank == image
    assert str(data.h1) == h1
    assert all(is_unit_in_L(d) for d in data.image_divisors)
    assert data.modp_ranks, "mod-p cross checks must have run"


def test_h1_convenience_wrapper():
    assert str(five_term_data(3, "Hdual").h1) == "L"


def test_h2_certificate_accepts_and_rejects():
    data = five_term_data(3, "H")
    good = h2_certificate(3, "H", bound=33, data=data)
    assert good.ok and good.reason == "certified"
    assert "surjection" in good.argument
    assert "transfer" in good.transfer_remark.lower()
    bad = h2_certificate(3, "H", bound=53, data=data)
    assert not bad.ok
    assert "53" in bad.reason
    dual = h2_certificate(3, "Hdual", bound=32, data=five_term_data(3, "Hdual"))
    assert dual.ok and dual.image_coker == LModule(1, ())


# -- caching ------------------------------------------------------------


def test_cache_dir_checkpoints(tmp_path):
    cache = str(tmp_path / "cache")
    d1 = five_term_data(3, "H", cache_dir=cache)
    files = sorted(os.listdir(cache))
    assert "d1-n3-H.mat" in files and "phi-n3-H.mat" in files
    assert any(f.startswith("snf-") for f in files)
    assert any(f.startswith("echelon-") for f in files)
    stamps = {f: os.path.getmtime(os.path.join(cache, f)) for f in files}
    d2 = five_term_data(3, "H", cache_dir=cache)
    assert sorted(os.listdir(cache)) == files
    assert all(os.path.getmtime(os.path.join(cache, f)) == stamps[f] for f in files)
    assert d1.image_divisors == d2.image_divisors
    assert d1.d1 == d2.d1 and d1.echelon == d2.echelon


def test_snf_cached_roundtrip(tmp_path):
    a = IntMatrix.from_dense([[2, 4], [6, 10]])
    r1 = snf_cached(a, str(tmp_path))
    r2 = snf_cached(a, str(tmp_path))
    assert r1.divisors == r2.divisors and r1.u == r2.u
    r2.verify(a)
