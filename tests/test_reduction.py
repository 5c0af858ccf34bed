"""Relation harvesting and the exact generator-bound elimination over L.

The eliminator is the one hand-rolled hot path that the certificate leans
on, so its accounting is tested against the Smith-normal-form oracle on
random matrices: however the pivoting plays out, (bound, cokernel module)
must agree with what the full integer SNF says over L = Z[1/2].
"""

from __future__ import annotations

import hashlib
import json
import random
from functools import lru_cache

import pytest

from autfplus import reduction
from autfplus.homology import LModule, five_term_data, phi_matrix, snf, two_adic_split
from autfplus.identities import Factor, canon_h, certify, expression
from autfplus.presentation import embed_E, h_xword, relator_index
from autfplus.reduction import (
    FAMILY_TAGS,
    ExactEliminator,
    GenIndex,
    HarvestError,
    ModulePresentation,
    RowStore,
    _KMAX,
    _account,
    _collect_rows,
    _resolve_families,
    flat_index,
    fold,
    generator_count_E,
    harvest,
    modp_scout,
    relation_from_null,
    survivor_basis,
    survivor_summary,
    unflatten,
)

# -- generator indexing -------------------------------------------------


def test_flat_index_bijection():
    n = 3
    ncols = generator_count_E(n)
    assert ncols == 66 * n
    seen = set()
    for col in range(ncols):
        g = unflatten(n, col)
        assert isinstance(g, GenIndex) and 1 <= g.basis <= n
        assert flat_index(n, g) == col
        seen.add(g)
    assert len(seen) == ncols
    assert str(GenIndex("R3-1(1,2,3)", 2)) == "R3-1(1,2,3)(x)e2"


# -- folding fixtures ---------------------------------------------------
# Frozen closed forms for conjugation by one elementary symbol: slots away
# from the moved index are untouched; the moved slot picks up the target
# slot; the dual action moves the target slot with a sign.


def test_fold_closed_forms():
    n = 4
    u = embed_E(n, 1, 2)
    lab = "R3-1(1,2,3)"
    base = relator_index(n)[lab] * n
    assert fold(n, u, lab, 3, "H") == {base + 2: 1}
    assert fold(n, u, lab, 1, "H") == {base + 0: 1, base + 1: 1}
    assert fold(n, u, lab, 2, "Hdual") == {base + 1: 1, base + 0: -1}
    assert fold(n, u, lab, 3, "Hdual") == {base + 2: 1}
    assert fold(n, (), lab, 1, "H") == {base + 0: 1}


def test_relation_rows_from_trivial_null_are_zero():
    n = 3
    f = Factor((), "R4-1(1,2)", 1)
    cert = certify((), expression(n, (f, f.inverse())))
    assert cert.verified
    for coeff in ("H", "Hdual"):
        rows = relation_from_null(cert, coeff)
        assert len(rows) == n and all(row == {} for row in rows)


def test_relation_rows_reject_unverified_certificates():
    n = 3
    cert = certify(h_xword(n, 1, 3), expression(n, canon_h(n, 1, 2)))
    assert not cert.verified
    with pytest.raises(ValueError):
        relation_from_null(cert, "H")


def test_relation_rows_single_factor_match_fold():
    n = 3
    u = embed_E(n, 2, 3)
    cert = certify(
        expression(n, (Factor(u, "R4-1(1,2)", 1),)).expand(),
        expression(n, (Factor(u, "R4-1(1,2)", 1),)),
    )
    rows = relation_from_null(cert, "H")
    for p in range(1, n + 1):
        assert rows[p - 1] == fold(n, u, "R4-1(1,2)", p, "H")


# -- row store ----------------------------------------------------------


def test_row_store_normalizes_and_dedupes():
    store = RowStore(10)
    assert store.add_row({}) == "zero"
    assert store.add_row({1: 2, 3: -4}) == "new"
    assert store.add_row({1: 1, 3: -2}) == "dup"  # same row up to a 2-power
    assert store.add_row({1: 4, 3: -8}) == "dup"
    assert store.add_row({1: 3, 3: -6}) == "new"  # odd content is kept as is
    assert store.stats == {"rows": 5, "zero": 1, "dup": 2}
    assert store.rows[0] == {1: 1, 3: -2}


# -- eliminator vs the SNF oracle ---------------------------------------


def _random_rows(rng: random.Random, nrows: int, ncols: int) -> list[dict[int, int]]:
    vals = (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 8)
    rows = []
    for _ in range(nrows):
        row = {
            c: rng.choice(vals) for c in range(ncols) if rng.random() < 0.5
        }
        if row:
            rows.append(row)
    return rows


def _presented_module(rows: list[dict[int, int]], ncols: int) -> LModule:
    """Oracle: Z^ncols / row span, read over L via the full integer SNF."""
    dense = [[row.get(c, 0) for c in range(ncols)] for row in rows]
    divisors = snf(dense or [[0] * ncols]).nonzero_divisors()
    torsion = tuple(
        odd for odd in (two_adic_split(abs(d))[1] for d in divisors) if odd != 1
    )
    return LModule(free_rank=ncols - len(divisors), torsion=torsion)


@pytest.mark.parametrize("seed", range(8))
def test_eliminator_accounting_matches_full_snf(seed):
    rng = random.Random(seed)
    n = 3  # family steering needs a real rank; columns stay in range
    ncols = rng.randint(4, 12)
    rows = _random_rows(rng, rng.randint(2, 14), ncols)
    elim = ExactEliminator(n, ncols, [dict(r) for r in rows])
    survivors, residual = elim.finish()
    bound, divisors, module = _account(len(survivors), survivors, residual)

    oracle = _presented_module(rows, ncols)
    assert module == oracle
    assert bound == module.min_generators() == oracle.min_generators()
    assert len(survivors) + len(elim.pivot_cols) == ncols


def test_eliminator_handles_odd_only_rows():
    # no eligible pivot at all: everything lands in the residual and the
    # hidden unit is still found by the normal form
    rows = [{0: 3, 1: 5}, {0: 5, 1: 3}]
    elim = ExactEliminator(3, 2, [dict(r) for r in rows])
    survivors, residual = elim.finish()
    assert elim.pivot_cols == [] and len(residual) == 2
    bound, divisors, module = _account(len(survivors), survivors, residual)
    # divisors (1, 16): both are units over L, so nothing survives
    assert sorted(abs(d) for d in divisors) == [1, 16]
    assert bound == 0 and module.is_trivial()


def test_eligible_table_matches_the_valuation_rule():
    # a pivot entry is +-2^k with k <= _KMAX, and maps to its k
    for v in [*range(-64, 0), *range(1, 65)]:
        d, k = abs(v), 0
        while d % 2 == 0:
            d //= 2
            k += 1
        want = k if d == 1 and k <= _KMAX else None
        assert reduction._ELIGIBLE.get(v) == want, v


# -- the full elimination at small rank ---------------------------------

# sha256 of (pivot columns, pivot rows, residual rows) of the elimination of
# every harvested row, rows as sorted (column, value) lists.  The report
# body carries only the matrix's nnz, so these pin the pivot sequence
# itself: a faster eliminator must retire the same rows in the same order.
PIVOT_FINGERPRINTS = {
    (3, "H"): "5545edc7b9fede7752541cd648eded90e5d9d557aded3b12fa91914c88266380",
    (3, "Hdual"): "6e1268f034a0141218abde6b7d3c9588c5cb8815090528233ddd1696b87d0fb3",
    (4, "H"): "85b8123244b9d2d739c35ae1f9add9b23f9f486321551cc2fa9cdced3b51532c",
    (4, "Hdual"): "9de23a471ac8d0847ad4e8ff7a649768f21be4936377dd44946612d5f40744ed",
}


@lru_cache(maxsize=None)
def _full_elimination(n: int, coeff: str):
    store, _ = _collect_rows(n, coeff, FAMILY_TAGS, None)
    elim = ExactEliminator(n, generator_count_E(n), store.rows)
    _, residual = elim.finish()
    return elim, residual


@pytest.mark.parametrize("n, coeff", sorted(PIVOT_FINGERPRINTS))
def test_pivot_sequence_fingerprint(n, coeff):
    elim, residual = _full_elimination(n, coeff)
    doc = [
        elim.pivot_cols,
        [sorted(r.items()) for r in elim.pivot_rows],
        [sorted(r.items()) for r in residual],
    ]
    digest = hashlib.sha256(json.dumps(doc, separators=(",", ":")).encode()).hexdigest()
    assert digest == PIVOT_FINGERPRINTS[n, coeff]


# Heap pops by what they found, merges and the largest entry bit-length at
# n = 4: the heap traffic of the pivot search, which repeats exactly.
ELIMINATOR_STATS = {
    "H": {
        "dead_row": 60551, "column_gone": 29702, "ineligible": 65,
        "score_raised": 12575, "score_lowered": 5, "retired": 1108,
        "merges": 60799, "max_bits": 3,
    },
    "Hdual": {
        "dead_row": 54124, "column_gone": 28539, "ineligible": 17,
        "score_raised": 7067, "score_lowered": 46, "retired": 1109,
        "merges": 56355, "max_bits": 5,
    },
}


@pytest.mark.parametrize("coeff", sorted(ELIMINATOR_STATS))
def test_eliminator_counters(coeff):
    elim, _ = _full_elimination(4, coeff)
    assert elim.stats == ELIMINATOR_STATS[coeff]
    assert elim.stats["retired"] == len(elim.pivot_cols)


# -- harvest at small rank ---------------------------------------------

FROZEN_HARVEST = {
    # (n, coeff): (bound, module string)
    (3, "H"): (53, "L^53"),
    (3, "Hdual"): (50, "L^50"),
    (4, "H"): (92, "L^92"),
    (4, "Hdual"): (91, "L^91"),
}


@pytest.fixture(scope="module")
def harvest3H():
    return harvest(3, "H")


def test_harvest_rank3_values(harvest3H):
    pres = harvest3H
    assert (pres.bound, str(pres.module)) == FROZEN_HARVEST[(3, "H")]
    assert pres.generator_count == 198
    assert pres.residual_rows == 0 and pres.residual_divisors == ()
    assert pres.pivot_count + len(pres.survivors) == pres.generator_count
    assert pres.stats["retired"] == pres.pivot_count
    assert set(pres.timings) == {"collect", "eliminate"}
    # the 5-letter transport family has no admissible tuples at rank 3;
    # the bound is honest but cannot reach the kernel rank (33)
    f3 = [r for r in pres.manifest if r.tag == "F3"][0]
    assert f3.instances == 0
    assert pres.bound > five_term_data(3, "H").image_rank


def test_harvest_rank3_dual():
    pres = harvest(3, "Hdual")
    assert (pres.bound, str(pres.module)) == FROZEN_HARVEST[(3, "Hdual")]
    assert pres.residual_rows == 0


def test_harvest_manifest_rank3(harvest3H):
    got = {r.tag: (r.instances, r.certified, r.unique_rows) for r in harvest3H.manifest}
    assert got == {
        "F1": (6, 6, 18),
        "F2": (48, 48, 132),
        "F3": (0, 0, 0),
        "F4": (12, 12, 36),
        "F5": (36, 36, 72),
        "F6": (18, 18, 0),  # definitional family: certified, no new content
    }


@pytest.mark.parametrize("coeff", ["H", "Hdual"])
def test_harvest_rank4_is_tight(coeff):
    pres = harvest(4, coeff)
    assert (pres.bound, str(pres.module)) == FROZEN_HARVEST[(4, coeff)]
    assert pres.residual_rows == 0
    # certificate pinch: the bound meets the boundary-image rank exactly
    assert pres.bound == five_term_data(4, coeff).image_rank


def test_family_subset_only_weakens_the_bound(harvest3H):
    thin = harvest(3, "H", families=("F1", "F6"))
    assert thin.bound > harvest3H.bound
    # 18 fourth-power rows can retire at most 18 of the 198 generators
    assert thin.bound >= 180
    boundary_rank = five_term_data(3, "H").image_rank
    assert harvest3H.bound >= boundary_rank


def test_modp_scout_is_a_lower_bound(harvest3H):
    bound_p, rank_p = modp_scout(3, "H")
    assert bound_p <= harvest3H.bound
    assert bound_p + rank_p == harvest3H.generator_count
    thin_bound, _ = modp_scout(3, "H", families=("F1",))
    assert thin_bound <= harvest(3, "H", families=("F1",)).bound


def test_resolve_families():
    assert _resolve_families(None) == list(FAMILY_TAGS)
    assert _resolve_families(("F2", "F1")) == ["F2", "F1"]
    with pytest.raises(ValueError):
        _resolve_families(("F1", "F9"))


def test_harvest_input_validation():
    with pytest.raises(ValueError):
        harvest(3, "H", families=("bogus",))
    with pytest.raises(AssertionError):
        harvest(3, "Q")


def test_harvest_rejects_rows_outside_ker_phi(monkeypatch):
    # corrupt the first harvested row on a generator whose relator column
    # is nonzero; the row is new to the store, so the ker(phi) check sees it
    phi = phi_matrix(3, "H")
    g = min(j for _, j in phi.data)
    real = reduction.relation_from_null
    calls = []

    def corrupted(cert, coeff):
        rows = real(cert, coeff)
        if not calls:
            row = rows[0]
            row[g] = row.get(g, 0) + 1
            if not row[g]:
                del row[g]
        calls.append(cert)
        return rows

    monkeypatch.setattr(reduction, "relation_from_null", corrupted)
    with pytest.raises(HarvestError, match="ker"):
        harvest(3, "H")


# -- survivor reporting -------------------------------------------------


def test_survivor_basis_and_summary(harvest3H):
    basis = survivor_basis(3, "H", pres=harvest3H)
    assert len(basis) == harvest3H.bound
    assert all(isinstance(g, GenIndex) for g in basis)
    summary = survivor_summary(3, basis)
    assert sum(summary.values()) == harvest3H.bound
    # only commuting-pair and triangle generators survive the steering
    assert all(k.startswith(("R2", "R3")) for k in summary)
    assert any("|p==i" in k for k in summary) and any("|p!=i" in k for k in summary)


def test_survivor_basis_refuses_uncertified_bounds(harvest3H):
    doctored = ModulePresentation(
        n=harvest3H.n,
        coeff=harvest3H.coeff,
        generator_count=harvest3H.generator_count,
        matrix=harvest3H.matrix,
        module=harvest3H.module,
        bound=harvest3H.bound - 1,
        survivors=harvest3H.survivors,
        pivot_count=harvest3H.pivot_count,
        residual_rows=1,
        residual_divisors=(4,),  # an L-unit left in the residual
        manifest=harvest3H.manifest,
    )
    with pytest.raises(HarvestError):
        survivor_basis(3, "H", pres=doctored)


def test_compacted_matrix_presents_the_same_module(harvest3H):
    mat = harvest3H.matrix
    assert mat.ncols == harvest3H.generator_count
    rows = [
        {j: mat.get(i, j) for j in range(mat.ncols) if mat.get(i, j)}
        for i in range(mat.nrows)
    ]
    assert _presented_module(rows, mat.ncols) == harvest3H.module
