"""Relation harvesting and the exact generator-bound elimination over L.

The eliminator is the one hand-rolled hot path that the certificate leans
on, so its accounting is tested against the Smith-normal-form oracle on
random matrices: however the pivoting plays out, (bound, cokernel module)
must agree with what the full integer SNF says over L = Z[1/2].
"""

from __future__ import annotations

import hashlib
import heapq
import json
import random
from collections import defaultdict
from functools import lru_cache

import pytest

from autfplus import homology, reduction, words
from autfplus.homology import (
    ConsistencyError,
    IntMatrix,
    LModule,
    SNFResult,
    five_term_data,
    phi_matrix,
    rank_mod_p,
    snf,
    two_adic_split,
)
from autfplus.identities import Factor, RelatorExpression, canon_h, certify
from autfplus.nielsen import COEFF_SPACES
from autfplus.presentation import embed_E, gen_count, h_xword, reduced_relators, relator_index
from autfplus.reduction import (
    FAMILY_TAGS,
    ExactEliminator,
    HarvestError,
    RowStore,
    _ELIGIBLE,
    _KMAX,
    _account,
    _audit_elimination,
    _collect_rows,
    _column_ints,
    _compact_matrix,
    _family_rank_by_col,
    _normalize_row,
    _phi_columns,
    _resolve_families,
    fold_matrix,
    generator_count_E,
    harvest,
    relation_from_null,
    survivor_summary,
)
from test_homology import word_action


def collect(n, coeff, chosen=FAMILY_TAGS):
    """_collect_rows with the relator columns of phi and no progress."""
    return _collect_rows(n, coeff, chosen, _phi_columns(n, coeff), None)


# -- folding fixtures ---------------------------------------------------
# Frozen closed forms for conjugation by one elementary symbol: slots away
# from the moved index are untouched; the moved slot picks up the target
# slot; the dual action moves the target slot with a sign.


def fold(n, u, rid, p, coeff):
    """Sparse row of (u r u^-1) tensor e_p on the generating set, as a dict
    keyed by flat generator index."""
    m = fold_matrix(n, coeff, u, {})
    base = relator_index(n)[rid] * n
    return {base + i: m[i][p - 1] for i in range(n) if m[i][p - 1]}


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
    cert = certify((), RelatorExpression(n, (f, f.inverse())))
    assert cert.verified
    for coeff in ("H", "Hdual"):
        rows = relation_from_null(cert, coeff, {})
        assert len(rows) == n and all(row == {} for row in rows)


def test_relation_rows_reject_unverified_certificates():
    n = 3
    cert = certify(h_xword(n, 1, 3), RelatorExpression(n, canon_h(n, 1, 2)))
    assert not cert.verified
    with pytest.raises(ValueError):
        relation_from_null(cert, "H", {})


def test_relation_rows_single_factor_match_fold():
    n = 3
    u = embed_E(n, 2, 3)
    cert = certify(
        RelatorExpression(n, (Factor(u, "R4-1(1,2)", 1),)).expand(),
        RelatorExpression(n, (Factor(u, "R4-1(1,2)", 1),)),
    )
    rows = relation_from_null(cert, "H", {})
    for p in range(1, n + 1):
        assert rows[p - 1] == fold(n, u, "R4-1(1,2)", p, "H")


def _fold_reference(cert, coeff):
    """relation_from_null as it was: each factor's n x n fold matrix,
    through the word_action oracle, added into the rows entry by entry."""
    n = cert.rhs.n
    order = relator_index(n)
    rows = [dict() for _ in range(n)]
    for f in cert.rhs.factors:
        m = word_action(n, coeff, words.inverse(words.reduce_word(f.conj)))
        base = order[f.relator] * n
        for p in range(n):
            row = rows[p]
            for i in range(n):
                v = m[i][p]
                if v:
                    key = base + i
                    nv = row.get(key, 0) + f.exponent * v
                    if nv:
                        row[key] = nv
                    else:
                        del row[key]
    return rows


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("coeff", ["H", "Hdual"])
def test_relation_rows_match_the_per_factor_fold(n, coeff):
    # every certificate of every family, row for row, through one fold memo
    # per family as the harvest keeps it
    count = 0
    for _, _, builder in reduction.FAMILIES:
        memo = {}
        for _, cert in builder(n):
            assert relation_from_null(cert, coeff, memo) == _fold_reference(cert, coeff)
            count += 1
    assert count


@pytest.mark.parametrize("coeff", ["H", "Hdual"])
def test_fold_matrix_of_an_unreduced_word_is_that_of_its_reduction(coeff):
    n = 4
    rng = random.Random(41)
    X = gen_count(n)
    for _ in range(200):
        u = [rng.choice((1, -1)) * rng.randint(1, X) for _ in range(rng.randint(0, 8))]
        for _ in range(rng.randint(1, 3)):  # insert cancelling pairs
            s = rng.choice((1, -1)) * rng.randint(1, X)
            at = rng.randint(0, len(u))
            u[at:at] = [s, -s]
        u = tuple(u)
        assert u != words.reduce_word(u)
        m = fold_matrix(n, coeff, u, {})
        assert m == fold_matrix(n, coeff, words.reduce_word(u), {})
        assert m == word_action(n, coeff, words.inverse(words.reduce_word(u)))


# -- row store ----------------------------------------------------------


# (row, outcome): 2-power multiples and reordered keys are duplicates
_STORE_SEQUENCE = (
    ({}, "zero"),
    ({1: 2, 3: -4}, "new"),
    ({1: 1, 3: -2}, "dup"),  # same row up to a 2-power
    ({1: 4, 3: -8}, "dup"),
    ({1: 3, 3: -6}, "new"),  # odd content is kept as is
    ({3: -6, 1: 3}, "dup"),  # same row, keys in another order
    ({1: 1, 4: -2}, "new"),
    ({2: 5}, "new"),
    ({2: -20}, "new"),
    ({2: 20}, "dup"),
)


def test_row_store_normalizes_and_dedupes(monkeypatch):
    def fill():
        store = RowStore(10)
        assert [store.add_row(row) for row, _ in _STORE_SEQUENCE] == [
            want for _, want in _STORE_SEQUENCE
        ]
        assert store.stats == {"rows": 10, "zero": 1, "dup": 4}
        assert store.rows == [{1: 1, 3: -2}, {1: 3, 3: -6}, {1: 1, 4: -2}, {2: 5}, {2: -5}]
        return store

    fill()
    # every hash collides: equality alone decides, so distinct rows are all kept
    monkeypatch.setattr(reduction, "_row_key", lambda row: 0)
    store = fill()
    assert store._index == {0: (0, 1, 2, 3, 4)}
    store.close()
    assert store._index is None


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
    entries = {(i, c): v for i, row in enumerate(rows) for c, v in row.items()}
    divisors = snf(IntMatrix(len(rows), ncols, entries)).nonzero_divisors()
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
    bound, divisors, module = _account(survivors, residual)

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
    bound, divisors, module = _account(survivors, residual)
    # divisors (1, 16): both are units over L, so nothing survives
    assert sorted(abs(d) for d in divisors) == [1, 16]
    assert bound == 0 and module == LModule(0, ())


def test_account_verifies_the_residual_snf(monkeypatch):
    # synthetic residual rows over survivor columns 2, 5, 7: the SNF of the
    # residual is checked against its witnesses, and a tampered one raises
    survivors = [2, 5, 7]
    residual = [{2: 3, 5: 5}, {2: 5, 5: 3, 7: 6}, {7: 9}]
    checked = []
    verify = SNFResult.verify
    monkeypatch.setattr(
        SNFResult, "verify", lambda res, mat: (checked.append(mat), verify(res, mat))
    )
    bound, divisors, module = _account(survivors, residual)
    assert len(checked) == 1
    assert divisors == (1, 1, 144) and bound == 1 and module == LModule(0, (9,))

    real_snf = homology.snf

    def tampered(a):
        res = real_snf(a)
        res.v_rows[0] = {**res.v_rows[0], len(res.v_rows): 1}  # column past the end
        return res

    monkeypatch.setattr(homology, "snf", tampered)
    with pytest.raises(ConsistencyError):
        _account(survivors, residual)
    # an empty residual factors nothing
    assert _account(survivors, []) == (3, (), LModule(3, ()))


def test_eligible_table_matches_the_valuation_rule():
    # a pivot entry is +-2^k with k <= _KMAX, and maps to its k
    for v in [*range(-64, 0), *range(1, 65)]:
        d, k = abs(v), 0
        while d % 2 == 0:
            d //= 2
            k += 1
        want = k if d == 1 and k <= _KMAX else None
        assert reduction._ELIGIBLE.get(v) == want, v


def _reference_merge(row, piv, c):
    """row <- 2^k * row - s*v * piv, clearing column c (pivot entry s*2^k);
    returns the columns the row lost and the columns it gained."""
    u = piv[c]
    k = _ELIGIBLE[u]
    v = row[c]
    if k:
        for cc in row:
            row[cc] <<= k
    mult = v if u > 0 else -v
    lost, gained = [], []
    for cc, pv in piv.items():
        old = row.get(cc)
        if old is None:
            row[cc] = -mult * pv
            gained.append(cc)
        else:
            nv = old - mult * pv
            if nv:
                row[cc] = nv
            else:
                del row[cc]
                lost.append(cc)
    assert c not in row
    return lost, gained


class _ReferenceEliminator(ExactEliminator):
    """The lazy-heap pivot search without `_last`, occupancy counters or the
    occupancy-first scan: every push goes on the heap, every eligible entry
    of a row is scored on `len(col_rows[c])`, and the caller updates the
    column index from the lists a merge returns.  The order oracle for
    ExactEliminator; only `finish` is inherited."""

    def __init__(self, n, ncols, rows):
        self.n = n
        self.ncols = ncols
        self.fam_rank = _family_rank_by_col(n)
        self.rows = rows
        self.col_rows = [set() for _ in range(ncols)]
        for rid, row in enumerate(rows):
            for c in row:
                self.col_rows[c].add(rid)
        self.pivot_cols, self.pivot_rows = [], []
        self.stats = dict.fromkeys(
            ("dead_row", "column_gone", "ineligible", "score_raised",
             "score_lowered", "skipped", "retired", "merges", "fill", "max_bits"), 0
        )
        self._heap = []
        for rid in range(len(rows)):
            self._push_best(rid)

    def _best_entry(self, rid: int) -> tuple | None:
        row = self.rows[rid]
        if not row:
            return None
        fam = self.fam_rank
        col_rows = self.col_rows
        nr = len(row) - 1
        best = None
        for c, v in row.items():
            k = _ELIGIBLE.get(v)
            if k is None:
                continue
            score = nr * (len(col_rows[c]) - 1)
            if best is not None and score > best[0]:
                continue
            key = (score, k, fam[c], c, rid)
            if best is None or key < best:
                best = key
        return best

    def _push_best(self, rid: int) -> None:
        entry = self._best_entry(rid)
        if entry is not None:
            heapq.heappush(self._heap, entry)

    def _drop_row(self, rid: int) -> None:
        for c in self.rows[rid]:
            self.col_rows[c].discard(rid)
        self.rows[rid] = None

    def run(self) -> None:
        heap = self._heap
        rows = self.rows
        col_rows = self.col_rows
        fam_rank = self.fam_rank
        push_best = self._push_best
        heappop, heappush = heapq.heappop, heapq.heappush
        st = self.stats
        while heap:
            entry = heappop(heap)
            score, k, fam, c, rid = entry
            row = rows[rid]
            if not row:
                st["dead_row"] += 1  # a dead row has no entry to push again
                continue
            v = row.get(c)
            if v is None:
                st["column_gone"] += 1
                push_best(rid)
                continue
            kk = _ELIGIBLE.get(v)
            if kk is None:
                st["ineligible"] += 1
                push_best(rid)
                continue
            cur = ((len(row) - 1) * (len(col_rows[c]) - 1), kk, fam_rank[c], c, rid)
            if cur != entry:
                st["score_raised" if cur > entry else "score_lowered"] += 1
                heappush(heap, cur)
                continue
            # retire (rid, c) and clear column c everywhere else
            st["retired"] += 1
            piv = row
            self._drop_row(rid)
            self.pivot_cols.append(c)
            self.pivot_rows.append(piv)
            for rid2 in sorted(col_rows[c]):
                tgt = rows[rid2]
                lost, gained = _reference_merge(tgt, piv, c)
                st["merges"] += 1
                st["fill"] += len(gained)
                _normalize_row(tgt)
                for cc in lost:
                    col_rows[cc].discard(rid2)
                for cc in gained:
                    col_rows[cc].add(rid2)
                if not tgt:
                    rows[rid2] = None
                else:
                    push_best(rid2)
            # column c is drained; a fresh set releases its grown table
            col_rows[c] = set()


def _assert_occupancy_counts(elim):
    """Every column's counter equals the number of live rows holding it,
    counted from the rows; every live entry (c, rid) is listed in
    `col_rows[c]`; and the listed rows, filtered to live holders of their
    column, are exactly those entries."""
    live = {(c, rid) for rid, row in enumerate(elim.rows) if row for c in row}
    counts = [0] * elim.ncols
    for c, _ in live:
        counts[c] += 1
    assert elim.occ == counts
    listed = {(c, rid) for c, ids in enumerate(elim.col_rows) for rid in ids}
    assert live <= listed
    assert {(c, rid) for c, rid in listed if c in (elim.rows[rid] or ())} == live


_POPS = ("dead_row", "column_gone", "ineligible", "score_raised", "score_lowered")


def _sparse_rows(rng: random.Random, nrows: int, ncols: int) -> list[dict[int, int]]:
    """Sparse rows over +-1, +-2, +-4, +-8 and +-3, about a fifth of them
    single-entry."""
    vals = (-8, -4, -3, -2, -1, 1, 2, 3, 4, 8)
    density = rng.uniform(0.1, 0.4)
    rows = []
    for _ in range(nrows):
        if rng.random() < 0.2:
            rows.append({rng.randrange(ncols): rng.choice(vals)})
            continue
        row = {c: rng.choice(vals) for c in range(ncols) if rng.random() < density}
        if row:
            rows.append(row)
    return rows


# A matrix on which a row pops a key, pushes nothing, and later computes
# that same key again: an eliminator whose pops never cleared `_last`
# would skip the second push and leave the reference order here.
_REQUEUED_KEY = (16, [
    {0: -3, 1: 3, 4: -3, 7: 1, 10: 3}, {0: -4, 1: -3, 2: 4, 9: 2}, {1: -3, 3: -8, 9: 3},
    {0: -3, 5: 2, 6: -8, 7: -4, 11: 3, 13: -2, 14: -3},
    {0: -2, 5: 1, 7: 4, 8: 4, 9: -4, 13: 4}, {9: -4}, {7: -2},
    {2: -4, 4: -1, 8: 2, 11: 1, 13: -2},
    {0: 1, 2: 3, 3: 1, 4: 1, 8: 4, 10: 2, 11: 8, 12: -4, 14: -8},
    {2: -8, 3: -3, 15: 4}, {15: -1}, {0: -1, 5: -1, 8: -2}, {9: -1},
    {1: -4, 2: -8, 4: -3, 5: 2, 7: -4, 9: -3, 15: -1}, {3: -8, 9: -2, 11: -8, 14: 3},
    {0: 4, 9: -3, 13: -2, 14: 8}, {0: 4, 4: -2, 8: 3, 11: -1, 12: 8, 13: -1},
    {0: 3, 1: -8, 3: -4, 6: 8, 8: 3, 14: -1}, {0: 1, 1: -1, 2: -8, 5: 4, 11: 3, 12: 2, 14: 8},
    {5: 4},
])


def _order_cases():
    yield _REQUEUED_KEY
    rng = random.Random(20240601)
    for _ in range(300):
        ncols = rng.randint(3, 30)
        yield ncols, _sparse_rows(rng, rng.randint(2, 40), ncols)


def test_eliminator_keeps_the_reference_pivot_order():
    ran = dict.fromkeys(_POPS, 0)
    for ncols, rows in _order_cases():
        # each eliminator works on its rows in place, so each gets a copy
        ref = _ReferenceEliminator(3, ncols, [dict(r) for r in rows])
        ref_survivors, ref_residual = ref.finish()
        elim = ExactEliminator(3, ncols, [dict(r) for r in rows])
        survivors, residual = elim.finish()
        assert elim.pivot_cols == ref.pivot_cols
        assert elim.pivot_rows == ref.pivot_rows
        assert (survivors, residual) == (ref_survivors, ref_residual)
        for name in ("retired", "merges", "fill", "max_bits"):
            assert elim.stats[name] == ref.stats[name], name
        _assert_occupancy_counts(elim)
        # a skipped push only drops pops that the reference wasted
        for name in _POPS:
            assert elim.stats[name] <= ref.stats[name], name
            ran[name] += elim.stats[name]
        assert ref.stats["skipped"] == 0
    assert all(ran.values()), ran


def test_a_merge_that_does_not_list_a_gained_column_is_caught(monkeypatch):
    real = reduction._merge

    def merge(row, piv, c, rid, col_rows, occ):
        # counts every gained column in occ, but lists it in a throwaway index
        return real(row, piv, c, rid, defaultdict(list), occ)

    monkeypatch.setattr(reduction, "_merge", merge)
    caught = 0
    for ncols, rows in _order_cases():
        ref = _ReferenceEliminator(3, ncols, [dict(r) for r in rows])
        ref.finish()
        elim = ExactEliminator(3, ncols, [dict(r) for r in rows])
        elim.finish()
        try:
            _assert_occupancy_counts(elim)
        except AssertionError:
            caught += 1
            continue
        caught += (elim.pivot_cols, elim.pivot_rows) != (ref.pivot_cols, ref.pivot_rows)
    assert caught


def test_eliminator_works_on_the_list_it_is_given():
    rows = [dict(r) for r in _REQUEUED_KEY[1]]
    given = list(rows)
    elim = ExactEliminator(3, _REQUEUED_KEY[0], rows)
    assert elim.rows is rows
    _, residual = elim.finish()
    assert len(rows) == len(given)
    # pivot and residual rows are the given dicts, merged where they are;
    # a retired row's slot is cleared and a residual row keeps its own
    ids = {id(r): rid for rid, r in enumerate(given)}
    assert elim.pivot_rows and residual
    for row in elim.pivot_rows:
        assert rows[ids[id(row)]] is None
    for row in residual:
        assert rows[ids[id(row)]] is row


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
    (5, "H"): "6356974fc06bab2f4644935a8eed2f6ec23cf3ee11559de0e54e65ae5e4e1f65",
    (5, "Hdual"): "95cbec5de88e5e05f7babbf286d16ffc48e3da64dd0e8f87392691add9e8e9d5",
}


@lru_cache(maxsize=None)
def _full_elimination(n: int, coeff: str):
    store, _, _ = collect(n, coeff)
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


# Heap pops by what they found, pushes skipped as already queued, merges
# and the largest entry bit-length at n = 4: the heap traffic of the pivot
# search, which repeats exactly.
ELIMINATOR_STATS = {
    "H": {
        "dead_row": 33136, "column_gone": 16211, "ineligible": 31,
        "score_raised": 7426, "score_lowered": 5, "skipped": 27514,
        "retired": 1108, "merges": 60799, "fill": 61415, "max_bits": 3,
    },
    "Hdual": {
        "dead_row": 31724, "column_gone": 17606, "ineligible": 16,
        "score_raised": 4353, "score_lowered": 46, "skipped": 23194,
        "retired": 1109, "merges": 56355, "fill": 51289, "max_bits": 5,
    },
}

# The same pop counts before pushes of an already queued key were skipped.
# Skipping drops only wasted pops, so no count may rise above these.
REFERENCE_POPS = {
    "H": {"dead_row": 60551, "column_gone": 29702, "ineligible": 65, "score_raised": 12575},
    "Hdual": {"dead_row": 54124, "column_gone": 28539, "ineligible": 17, "score_raised": 7067},
}


@pytest.mark.parametrize("coeff", sorted(ELIMINATOR_STATS))
def test_eliminator_counters(coeff):
    elim, _ = _full_elimination(4, coeff)
    assert elim.stats == ELIMINATOR_STATS[coeff]
    assert elim.stats["retired"] == len(elim.pivot_cols)
    for name, ceiling in REFERENCE_POPS[coeff].items():
        assert ELIMINATOR_STATS[coeff][name] <= ceiling, name
    # the column occupancy index and the counts every fill score reads
    # match the rows
    _assert_occupancy_counts(elim)


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
    assert set(pres.timings) == {"collect", "eliminate", "audit", "families"}
    assert list(pres.timings["families"]) == list(FAMILY_TAGS)
    assert sum(pres.timings["families"].values()) <= pres.timings["collect"]
    assert 0 < pres.peak_rss_kib["collect"] <= pres.peak_rss_kib["eliminate"]
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


def modp_scout(n, coeff, families=None):
    """Fast lower reconnaissance of the bound: (generators - rank mod p).

    Reducing mod an odd prime can only keep MORE divisors invertible than
    L does, so this value is a lower bound for the exact generator bound
    the elimination over L certifies.  Returns (bound_mod_p, rank_mod_p).
    """
    assert coeff in COEFF_SPACES, coeff
    chosen = _resolve_families(families)
    ncols = generator_count_E(n)
    store, _, _ = collect(n, coeff, chosen)
    rank = rank_mod_p(_compact_matrix(store.rows, [], ncols), 3)
    return ncols - rank, rank


def test_modp_scout_is_a_lower_bound(harvest3H):
    bound_p, rank_p = modp_scout(3, "H")
    assert bound_p <= harvest3H.bound
    assert bound_p + rank_p == harvest3H.generator_count
    # the scout's kernel against the dense mod-3 rank of the same rows
    store, _, _ = collect(3, "H")
    assert rank_p == rank_mod_p(_compact_matrix(store.rows, [], store.ncols), 3)
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
    with pytest.raises(ValueError, match="unknown coefficient module"):
        harvest(3, "Q")


def test_harvest_rejects_rows_outside_ker_phi(monkeypatch):
    # corrupt the first harvested row on a generator whose relator column
    # is nonzero; the row is new to the store, so the ker(phi) check sees it
    phi = phi_matrix(3, "H")
    g = min(j for _, j in phi.data)
    real = reduction.relation_from_null
    calls = []

    def corrupted(cert, coeff, memo):
        rows = real(cert, coeff, memo)
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


def test_harvest_keeps_one_fold_memo_per_family_and_releases_the_dedup_index(monkeypatch):
    # every fold of a family goes through one memo of its own, and the memo
    # ends up holding exactly the prefixes of that family's conjugators:
    # nothing from another family or module
    real_rows = reduction.relation_from_null
    folds = []  # (certificate, the memo its folds went through)

    def spied_rows(cert, coeff, memo):
        folds.append((cert, memo))
        return real_rows(cert, coeff, memo)

    monkeypatch.setattr(reduction, "relation_from_null", spied_rows)
    pres = harvest(3, "H")
    assert len(folds) == sum(rep.certified for rep in pres.manifest)
    by_memo = {}
    for cert, memo in folds:
        by_memo.setdefault(id(memo), (memo, []))[1].append(cert)
    families = [rep for rep in pres.manifest if rep.certified]
    assert [len(certs) for _, certs in by_memo.values()] == [rep.certified for rep in families]
    for memo, certs in by_memo.values():
        prefixes = {
            f.conj[:t] for cert in certs for f in cert.rhs.factors for t in range(len(f.conj) + 1)
        }
        assert set(memo) == prefixes
    store, _, _ = collect(3, "Hdual")
    assert store._index is None and store.rows


@pytest.mark.parametrize("coeff", COEFF_SPACES)
def test_rows_share_one_int_per_column(coeff):
    # every key of every collected row, and of every pivot and residual row
    # the eliminator leaves, is the column's own int object
    n = 4
    cols = _column_ints(n)
    store, _, _ = collect(n, coeff)
    assert all(c is cols[c] for row in store.rows for c in row)
    elim = ExactEliminator(n, generator_count_E(n), store.rows)
    _, residual = elim.finish()
    assert all(c is cols[c] for row in elim.pivot_rows + residual for c in row)


# -- the elimination audit ---------------------------------------------
# Each mutation corrupts the eliminator's output in a way one audit check
# must catch; the harvest then refuses with a ConsistencyError (exit 2).


def _corrupt_finish(monkeypatch, mutate):
    real = ExactEliminator.finish

    def finish(self):
        survivors, residual = real(self)
        mutate(self)
        return survivors, residual

    monkeypatch.setattr(ExactEliminator, "finish", finish)


def test_audit_rejects_a_pivot_without_an_L_unit(monkeypatch):
    def mutate(elim):
        row = elim.pivot_rows[5]
        for c in row:
            row[c] *= 3  # still in ker(phi), still triangular

    _corrupt_finish(monkeypatch, mutate)
    with pytest.raises(ConsistencyError, match="pivot row 5 has no L-unit"):
        harvest(3, "H")


def test_audit_rejects_an_entry_at_an_earlier_pivot_column(monkeypatch):
    def mutate(elim):
        first = elim.pivot_rows[0]
        # a later pivot row plus the first one: still in ker(phi), and its
        # own pivot entry is untouched, but it now meets pivot column 0
        t = next(t for t, c in enumerate(elim.pivot_cols) if t and c not in first)
        row = elim.pivot_rows[t]
        for c, v in first.items():
            row[c] = row.get(c, 0) + v

    _corrupt_finish(monkeypatch, mutate)
    with pytest.raises(ConsistencyError, match="earlier pivot column"):
        harvest(3, "H")


def test_audit_rejects_a_wrong_merge_multiplier(monkeypatch):
    real = reduction._merge

    def merge(row, piv, c, *index):
        # clears column c as it should, but subtracts the rest of the pivot
        # row twice
        return real(row, {cc: v if cc == c else 2 * v for cc, v in piv.items()}, c, *index)

    monkeypatch.setattr(reduction, "_merge", merge)
    with pytest.raises(ConsistencyError, match=r"row \d+ is not in ker\(phi\)"):
        harvest(3, "H")


def test_audit_checks_residual_rows():
    phi_cols = _phi_columns(3, "H")
    with pytest.raises(ConsistencyError, match="residual row 0 has an entry at a pivot column"):
        _audit_elimination([0], [{0: 1}], [{0: 3}], {})
    g = min(phi_cols)
    with pytest.raises(ConsistencyError, match="residual row 0 is not in ker"):
        _audit_elimination([], [], [{g: 1}], phi_cols)
    _audit_elimination([0, 1], [{0: -2, 1: 3}, {1: 4}], [{2: 3}], {})


# -- survivor reporting -------------------------------------------------


def label_survivor_summary(n, survivors):
    """Oracle: the survivor summary read off each column's relator label,
    split back into its family and first index."""
    out = {}
    for c in survivors:
        label, basis = reduced_relators(n)[c // n].label, c % n + 1
        fam = label.split("(")[0]
        if fam.startswith("R3"):
            first = int(label.split("(")[1].split(",")[0])
            key = f"{fam}|p!=i" if basis != first else f"{fam}|p==i"
        else:
            key = fam
        out[key] = out.get(key, 0) + 1
    return dict(sorted(out.items()))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_survivor_summary_matches_the_label_reading(n):
    ncols = generator_count_E(n)
    assert ncols == {3: 66, 4: 300, 5: 900, 6: 2130}[n] * n  # relator x basis slot
    for c in range(ncols):
        assert survivor_summary(n, [c]) == label_survivor_summary(n, [c]), c
    assert survivor_summary(n, range(ncols)) == label_survivor_summary(n, range(ncols))


def test_survivor_basis_and_summary(harvest3H):
    # no L-unit is left in the residual, so the survivors are a minimal
    # spanning family: as many as the bound
    assert not harvest3H.residual_divisors
    assert len(harvest3H.survivors) == harvest3H.bound == 53
    summary = survivor_summary(3, harvest3H.survivors)
    # only commuting-pair and triangle generators survive the steering
    assert summary == {
        "R2-2": 2, "R2-3": 6, "R2-4": 2, "R2-5": 6,
        "R3-1|p!=i": 5, "R3-1|p==i": 5, "R3-2|p!=i": 3, "R3-2|p==i": 6,
        "R3-3|p!=i": 6, "R3-3|p==i": 6, "R3-4|p==i": 6,
    }


def test_compacted_matrix_presents_the_same_module(harvest3H):
    mat = harvest3H.matrix
    assert mat.ncols == harvest3H.generator_count
    rows = [
        {j: mat.data[i, j] for j in range(mat.ncols) if (i, j) in mat.data}
        for i in range(mat.nrows)
    ]
    assert _presented_module(rows, mat.ncols) == harvest3H.module
