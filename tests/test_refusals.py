"""Inputs that the public entries refuse, and the asserts left in src.

Each refusal raises ValueError, not an assert, so it holds under
`python -O` too; CI runs this module that way as well.  The asserts that
remain in src are internal invariants, each under a comment that names
the run-time check re-deriving it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from autfplus import identities, words
from autfplus.homology import (
    IntMatrix,
    _transvection,
    check_chain_condition,
    five_term_data,
    fox_derivative,
    h2_certificate,
    rank_mod_p,
    two_adic_split,
)
from autfplus.identities import RelatorExpression
from autfplus.nielsen import Automorphism
from autfplus.presentation import format_xword, letters_of_symbol
from autfplus.reduction import harvest


@pytest.mark.parametrize("w", [(0,), (1, 0, 2), (1, -1, 0)])
def test_multiply_refuses_the_letter_zero(w):
    with pytest.raises(ValueError, match="0 is not a letter"):
        words.multiply(w)
    with pytest.raises(ValueError, match="0 is not a letter"):
        words.multiply((1, 2), w)


@pytest.mark.parametrize("shape", [(-1, 2), (2, -1), (-3, -3)])
def test_intmatrix_refuses_a_negative_shape(shape):
    with pytest.raises(ValueError, match="negative matrix shape"):
        IntMatrix(*shape)


@pytest.mark.parametrize("s", [0, 13, -13])
def test_letters_of_symbol_refuses_what_names_no_symbol(s):
    # rank 3 has the symbols 1..12 and their inverses
    with pytest.raises(ValueError, match="names no symbol"):
        letters_of_symbol(3, s)
    with pytest.raises(ValueError, match="names no symbol"):
        format_xword(3, (1, s))


@pytest.mark.parametrize("s", [0, -1, 1.0, "1"])
def test_fox_derivative_refuses_a_non_positive_index(s):
    with pytest.raises(ValueError, match="positive int"):
        fox_derivative((1, 2), s)


def test_the_coefficient_module_is_checked_at_every_entry():
    with pytest.raises(ValueError, match="unknown coefficient module"):
        _transvection(3, "HH", 1)
    with pytest.raises(ValueError, match="unknown coefficient module"):
        five_term_data(3, "HH")
    with pytest.raises(ValueError, match="unknown coefficient module"):
        harvest(3, "HH")


@pytest.mark.parametrize("p", [-3, 0, 1, 2, 9, 15])
def test_rank_mod_p_refuses_anything_but_an_odd_prime(p):
    with pytest.raises(ValueError, match="odd prime"):
        rank_mod_p(IntMatrix(2, 2, {(0, 0): 1}), p)


@pytest.mark.parametrize("d", [0, -1, -8])
def test_two_adic_split_refuses_a_non_positive_number(d):
    with pytest.raises(ValueError, match="d > 0"):
        two_adic_split(d)


def test_automorphism_refuses_images_of_the_wrong_count():
    with pytest.raises(ValueError, match="2 images for rank 3"):
        Automorphism(3, ((1,), (2,)))


def test_h2_certificate_refuses_data_of_another_rank_or_module():
    data = five_term_data(3, "H")
    for n, coeff in ((4, "H"), (3, "Hdual")):
        with pytest.raises(ValueError, match="five-term data of n=3, H"):
            h2_certificate(n, coeff, 33, data)


def test_null_certificate_refuses_pieces_of_different_ranks():
    pieces = ((RelatorExpression(3, ()), ()), (RelatorExpression(4, ()), ()))
    with pytest.raises(ValueError, match=r"ranks \[3, 4\]"):
        identities._null_certificate(*pieces)


def test_chain_condition_refuses_matrices_that_do_not_compose():
    with pytest.raises(ValueError, match="3 columns but phi 2 rows"):
        check_chain_condition(IntMatrix(1, 3), IntMatrix(2, 1))


def test_every_assert_left_in_src_names_the_check_that_rederives_it():
    src = Path(__file__).resolve().parents[1] / "src" / "autfplus"
    found = []
    for path in sorted(src.glob("*.py")):
        lines = path.read_text().splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, ast.Assert):
                # the comment block right above the assert
                k = node.lineno - 2
                block = []
                while k >= 0 and lines[k].strip().startswith("#"):
                    block.append(lines[k])
                    k -= 1
                found.append(f"{path.name}:{node.lineno}")
                assert "re-derived" in " ".join(block), f"{path.name}:{node.lineno}"
    # the invariants of _merge and canon_r; no input check is an assert
    assert len(found) == 3, found
