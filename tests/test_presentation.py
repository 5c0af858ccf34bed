"""Generating symbols, relator families, and presentation soundness."""

from __future__ import annotations

import hashlib
import json
import re

import pytest

from autfplus.nielsen import Automorphism
from autfplus.presentation import (
    check_rank,
    embed_E,
    eval_xword,
    format_xword,
    gen_count,
    gen_symbols,
    gersten_relators,
    h_xword,
    is_relator_elt,
    letters_of_symbol,
    reduced_relators,
    relator_index,
    twist_xword,
    w_xword,
)
from autfplus.words import inverse, multiply

EXPECTED_RELATOR_COUNTS = {3: 66, 4: 300, 5: 900, 6: 2130}


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_every_instance_renames_its_family_first_word(n):
    # homology.phi_matrix computes each family's first instance only and
    # places the others by renaming the indices: the first instance is
    # R(1, 2, ...), and R(i, j, ...) is its word with 1, 2, ... sent to
    # i, j, ...
    first = {}
    for rel in reduced_relators(n):
        base = first.setdefault(rel.family, rel)
        assert base.indices == tuple(range(1, len(base.indices) + 1)), base.label
        assert len(rel.indices) == len(base.indices)
        sigma = dict(zip(base.indices, rel.indices))
        move = lambda a: sigma[abs(a)] if a > 0 else -sigma[abs(a)]
        renamed = tuple(embed_E(n, *map(move, letters_of_symbol(n, y)))[0] for y in base.word)
        assert rel.word == renamed, rel.label


def test_check_rank():
    with pytest.raises(ValueError):
        check_rank(2)
    check_rank(3)


def _closed_form_index(n, i, eps, j):
    """1-based index of the symbol moving x_i^eps by x_j, in closed form:
    blocks of 2(n-1) symbols per source index, the + half first, targets
    ascending with i skipped."""
    block = (i - 1) * 2 * (n - 1) + (0 if eps == 1 else n - 1)
    off = j - 1 if j < i else j - 2
    return block + off + 1


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_symbol_count_and_index_bijection(n):
    # the table against the closed-form index, and embed_E, letters_of_symbol
    # and format_xword against the table
    assert gen_count(n) == 2 * n * (n - 1)
    syms = gen_symbols(n)
    assert len(syms) == gen_count(n) == len(set(syms))
    for s, (a, j) in enumerate(syms, 1):
        i, eps = abs(a), (1 if a > 0 else -1)
        assert j > 0 and j != i and i <= n and j <= n
        assert _closed_form_index(n, i, eps, j) == s
        assert embed_E(n, a, j) == (s,) and embed_E(n, a, -j) == (-s,)
        assert letters_of_symbol(n, s) == (a, j) and letters_of_symbol(n, -s) == (a, -j)
        text = f"E({i},{'+' if eps > 0 else '-'},{j})"
        assert format_xword(n, (s, -s)) == f"{text}*{text}^-1"


@pytest.mark.parametrize("a, b", [(1, 1), (2, -2), (-3, 3), (0, 1), (1, 0),
                                  (4, 1), (1, 4), (-4, 2), (2, -4)])
def test_embed_refuses_pairs_that_name_no_symbol(a, b):
    # equal indices, a zero letter, or a letter beyond rank 3
    with pytest.raises(ValueError, match="invalid letter pair"):
        embed_E(3, a, b)


@pytest.mark.parametrize("n", [3, 4, 6])
def test_embed_letters_roundtrip(n):
    for s in range(1, gen_count(n) + 1):
        for signed in (s, -s):
            a, b = letters_of_symbol(n, signed)
            assert embed_E(n, a, b) == (signed,)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_relator_counts(n):
    rels = reduced_relators(n)
    assert len(rels) == EXPECTED_RELATOR_COUNTS[n]
    labels = [r.label for r in rels]
    assert len(set(labels)) == len(labels)
    pat = re.compile(r"^R[2-5]-\d\(-?\d+(,-?\d+)*\)$")
    assert all(pat.match(lb) for lb in labels)
    idx = relator_index(n)
    assert [idx[lb] for lb in labels] == list(range(len(labels)))


def test_per_rank_tables_are_built_once():
    # every module shares one relator tuple and one symbol tuple per rank
    assert reduced_relators(4) is reduced_relators(4)
    assert isinstance(reduced_relators(4), tuple)
    assert gen_symbols(4) is gen_symbols(4)
    assert relator_index(4) is relator_index(4)


@pytest.mark.parametrize("n", [3, 4])
def test_relators_evaluate_to_identity(n):
    for rel in reduced_relators(n):
        assert eval_xword(n, rel.word).is_identity(), rel.label
        assert is_relator_elt(n, rel.word)


def test_single_symbol_is_not_a_relator_element():
    assert not is_relator_elt(3, (1,))


@pytest.mark.parametrize("n", [3, 4])
def test_gersten_relators_evaluate_to_identity(n):
    rels = gersten_relators(n)
    assert rels
    for label, word in rels:
        assert eval_xword(n, word).is_identity(), label


# sha256 of the compact JSON list of gersten_relators(n): labels, words and
# their order.
GERSTEN_SHA256 = {
    3: "5fb3b55de5d703d2babb9bdbab81d697c8130b5f1bcc0c6c9cea2a18e04f7382",
    4: "8e77ef125b65e289722f2783fb64f6adece4b7d589e93cee2b95e4fb2acca172",
    5: "7d464af2ea9c61f2e6f0ffe5ffe1d44d8477031518bfc9200d0fb74441bb58fb",
}


@pytest.mark.parametrize("n", sorted(GERSTEN_SHA256))
def test_gersten_relator_order_is_pinned(n):
    text = json.dumps(gersten_relators(n), separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == GERSTEN_SHA256[n]


def test_w_and_h_words_evaluate_correctly():
    n = 4
    w = eval_xword(n, w_xword(n, 1, 2))
    # the monomial map x1 -> x2^-1, x2 -> x1
    assert w == Automorphism(n, [(-2,), (1,), (3,), (4,)])
    # the square of the swap inverts both letters; the h-word measures
    # exactly that and is itself a relator element
    w2 = w.compose(w)
    assert w2.apply((1,)) == (-1,) and w2.apply((2,)) == (-2,)
    assert eval_xword(n, h_xword(n, 1, 2)).is_identity()
    assert is_relator_elt(n, h_xword(n, 1, 2))


def test_twist_is_conjugation_by_the_monomial_word():
    n = 4
    w = eval_xword(n, w_xword(n, 1, 2))
    for xw in [embed_E(n, 3, 1), embed_E(n, 1, 2), multiply(embed_E(n, 2, 3), embed_E(n, 4, -1))]:
        tw = twist_xword(n, 1, 2, xw)
        lhs = eval_xword(n, tw)
        rhs = eval_xword(n, inverse(w_xword(n, 1, 2))).compose(eval_xword(n, xw)).compose(w)
        assert lhs == rhs

