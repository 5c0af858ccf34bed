"""The coinvariants engine.

Presents the tensor of the abelianized relation module with the chosen
coefficients on the generating set {relator x basis vector}, harvests
relation rows from machine-certified null expressions, and bounds the
minimal number of generators over L = Z[1/2].

Every row traces to one verified certificate: a product of conjugated
relators that reduces to the empty word in the free group on the Nielsen
symbols.  Abelianizing such a product and folding each conjugated factor
back onto its bare relator (the tensor-balancing move) turns it into an
integer row that must vanish in the true module, so the module presented
here surjects onto the truth and its minimal generator count is a valid
upper bound.

Rows are kept over Z; the ring L enters only through which pivots count
as units (anything of the form +-2^k) and through the reading of the
residual elementary divisors.
"""

from __future__ import annotations

import heapq
import resource
import time
from functools import lru_cache
from itertools import chain, permutations, product
from math import gcd
from operator import add, neg, sub
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import presentation, words
from .homology import (
    ConsistencyError,
    IntMatrix,
    LModule,
    SmallMatrix,
    _eye_small,
    _letter_times,
    _lmodule_from_cokernel,
    column_echelon,
    phi_matrix,
    snf_cached,
    two_adic_split,
)
from .identities import (
    Factor,
    IdentityCertificate,
    RelatorExpression,
    _canon_comm_letters,
    _conj_factors,
    _inv_factors,
    append_pair_route,
    base_case,
    base_case_tag,
    canon_h,
    certify,
    eq21_null,
    eq41_null,
    meets_at_most_once,
    power_split_null,
)
from .nielsen import COEFF_SPACES
from .presentation import (
    gen_count,
    letters_of_symbol,
    reduced_relators,
    relator_index,
    w_xword,
)
from .words import Word


# -- generator indices -------------------------------------------------


def generator_count_E(n: int) -> int:
    """|E| = |R| * n: column r * n + (p - 1) is relator r tensor basis slot p."""
    return len(reduced_relators(n)) * n


@lru_cache(maxsize=None)
def _column_ints(n: int) -> tuple[int, ...]:
    """The column indices of E as one int object each, shared as keys by
    every relation row and every entry the eliminator fills in: less
    memory, and dict lookups that match on identity."""
    return tuple(range(generator_count_E(n)))


@lru_cache(maxsize=None)
def _family_rank_by_col(n: int) -> tuple:
    # Elimination steering: kill 4th powers first, then commuting pairs,
    # then inverse-pair products, leaving the triangle relators to survive.
    order = {"R5": 0, "R2": 1, "R4": 2, "R3": 3}
    out = []
    for rel in reduced_relators(n):
        out.extend([order[rel.family.split("-")[0]]] * n)
    return tuple(out)


# -- folding -----------------------------------------------------------


def fold_matrix(n: int, coeff: str, u: Word, memo: dict[Word, SmallMatrix]) -> SmallMatrix:
    """Coefficient matrix folding (u r u^-1) tensor m down to r tensor m'.

    Column p is the vector of (the inverse of the evaluated conjugator)
    acting on the p-th basis vector; both coefficient modules go through
    the same formula because the action of a word is multiplicative.  The
    inverse of u is the inverse of its last letter followed by the inverse
    of the rest, so the matrix is built by prefix recursion on u itself:
    conjugators that share a head share its matrix in `memo`, which maps
    every prefix built so far to its matrix, and `_letter_times` reuses the
    rows a letter leaves alone.  A letter's matrix times its inverse's is
    the identity, so an unreduced u folds like its reduced word.

    The harvest keeps one memo per family, so no matrix outlives the
    family it was built for.  Reuse across families is nil, as each family
    conjugates by words of its own shape: one memo per family builds 2 to
    3% more matrices than one for the whole module.  Inside a family it is
    large: a certificate's factors share long heads (a transport conjugates
    each of its base cases by w^-1 (suffix)^-1 w), and consecutive
    certificates share more, so a memo per certificate builds 1.4 to 1.9
    times as many matrices and takes 1 to 2 s more per module at n = 6.
    """
    m = memo.get(u)
    if m is None:
        if u:
            m = _letter_times(n, coeff, -u[-1], fold_matrix(n, coeff, u[:-1], memo))
        else:
            m = _eye_small(n)
        memo[u] = m
    return m


def relation_from_null(
    cert: IdentityCertificate, coeff: str, memo: dict[Word, SmallMatrix]
) -> list[dict[int, int]]:
    """One integer relation row per basis vector from a verified null.

    Each conjugated-relator factor folds onto its bare relator block with
    the sign of its exponent; the sum over factors vanishes in the true
    module because the expression expands to the empty word.  The fold
    matrices are summed per relator first, with C-level maps over their
    entries, and each relator's sum is scattered into the rows once.
    `memo` is the prefix memo of `fold_matrix`, kept by the caller.
    """
    if not cert.verified:
        raise ValueError(f"refusing rows from an unverified certificate: {cert.status}")
    expr = cert.rhs
    n = expr.n
    # relator -> its summed fold matrix, flattened row by row
    blocks: dict[str, list[int]] = {}
    for f in expr.factors:
        m = chain.from_iterable(fold_matrix(n, coeff, f.conj, memo))
        acc = blocks.get(f.relator)
        if acc is None:  # a relator's block starts from its first matrix
            blocks[f.relator] = list(m) if f.exponent == 1 else list(map(neg, m))
        else:
            blocks[f.relator] = list(map(add if f.exponent == 1 else sub, acc, m))
    order = relator_index(n)
    cols = _column_ints(n)
    rows: list[dict[int, int]] = [dict() for _ in range(n)]
    for rel, acc in blocks.items():
        base = order[rel] * n
        for k, v in enumerate(acc):
            if v:
                i, p = divmod(k, n)
                rows[p][cols[base + i]] = v
    return rows


# -- harvest families --------------------------------------------------

NullStream = Iterator[tuple[tuple, IdentityCertificate]]


def _ladder_factors(n: int, body: Word, z: int) -> tuple | None:
    """Letterwise commutator ladder: [y_1...y_s, z] as a product of
    conjugated commuting-pair relators, factor order t = s..1 with
    conjugator the length-(t-1) prefix.  None when some rung is not a
    commuting pair."""
    fs: list[Factor] = []
    for t in range(len(body) - 1, -1, -1):
        rung = _canon_comm_letters(n, body[t], z)
        if rung is None:
            return None
        fs.extend(_conj_factors(rung, body[:t]))
    return tuple(fs)


def _f1_power_halving(n: int) -> NullStream:
    for ijk in permutations(range(1, n + 1), 3):
        yield ijk, power_split_null(n, *ijk)


def _f2_commutation_ladders(n: int) -> NullStream:
    X = gen_count(n)
    signed = [s for s in range(1, X + 1)] + [-s for s in range(1, X + 1)]
    # (a) ladders over the non-commuting canonical relator bodies
    for rel in reduced_relators(n):
        if rel.family.startswith("R2"):
            continue  # commuting pairs are the rungs, not the bodies
        for z in signed:
            ladder = _ladder_factors(n, rel.word, z)
            if ladder is None:
                continue
            route_b = (Factor((), rel.label, 1), Factor((z,), rel.label, -1))
            null = RelatorExpression(n, ladder + _inv_factors(route_b))
            yield (rel.label, z), certify((), null)
    # (b) ladders over inverted monomial words against a disjoint symbol:
    # w^-1 z w = z T^-1 with T the certified single-letter transport, so
    # the ladder and the conjugated transport cancel.
    for a, b in permutations(range(1, n + 1), 2):
        for sa, sb in product((1, -1), repeat=2):
            body = words.inverse(w_xword(n, sa * a, sb * b))
            for z in signed:
                c, d = letters_of_symbol(n, z)
                if {abs(c), abs(d)} & {a, b}:
                    continue
                ladder = _ladder_factors(n, body, z)
                if ladder is None:
                    continue
                T = base_case(n, sa * a, sb * b, c, d)
                null = RelatorExpression(n, ladder + _conj_factors(T, (z,)))
                yield (sa * a, sb * b, z), certify((), null)


# Transport shapes for the triangle relators: (transport pair | triangle),
# written over four distinct indices (i, j, k, l) as (variable, sign) pairs.
_EQ21_SHAPES: tuple[tuple[tuple[str, int], ...], ...] = (
    (("l", 1), ("j", 1), ("i", 1), ("j", 1), ("k", 1)),
    (("l", -1), ("j", 1), ("i", 1), ("j", 1), ("k", 1)),
    (("k", -1), ("l", 1), ("i", 1), ("j", 1), ("l", 1)),
    (("i", -1), ("l", 1), ("l", 1), ("j", 1), ("k", 1)),
    (("i", -1), ("l", 1), ("l", 1), ("j", 1), ("k", -1)),
    (("l", 1), ("k", 1), ("i", 1), ("j", 1), ("k", 1)),
    (("l", -1), ("i", 1), ("i", 1), ("j", 1), ("k", 1)),
    (("k", 1), ("l", 1), ("i", 1), ("j", 1), ("k", -1)),
    (("l", -1), ("k", 1), ("i", -1), ("j", 1), ("k", -1)),
    (("l", -1), ("j", 1), ("i", 1), ("k", 1), ("j", 1)),
    (("l", 1), ("k", 1), ("i", -1), ("j", 1), ("k", 1)),
    (("l", -1), ("j", 1), ("i", -1), ("k", 1), ("j", 1)),
    (("i", 1), ("l", -1), ("l", 1), ("j", 1), ("k", 1)),
    (("l", 1), ("k", 1), ("i", 1), ("j", 1), ("k", -1)),
)


def _f3_conjugation_transport(n: int) -> NullStream:
    for ijkl in permutations(range(1, n + 1), 4):
        env = dict(zip("ijkl", ijkl))
        for shape in _EQ21_SHAPES:
            inst = tuple(s * env[v] for v, s in shape)
            yield inst, eq21_null(n, *inst)


def _f4_h_transport(n: int) -> NullStream:
    for i, j, k in permutations(range(1, n + 1), 3):
        yield (k, -i, i, j), eq41_null(n, k, -i, i, j)
        yield (k, i, i, j), eq41_null(n, k, i, i, j)


def _f5_basis_change(n: int) -> NullStream:
    """Two routes to the same single-letter transport: the direct base case
    against the append-inverse-pair route through the sign-flipped pair."""
    X = gen_count(n)
    for a, b in permutations(range(1, n + 1), 2):
        for z in range(1, X + 1):
            c, d = letters_of_symbol(n, z)
            if not meets_at_most_once(a, b, (c, d)):
                continue
            if base_case_tag(a, b, c, d) == "src-hit":
                continue  # the direct case IS the append route there
            direct = base_case(n, a, b, c, d)
            route = append_pair_route(n, a, b, c, d)
            null = RelatorExpression(n, direct + _inv_factors(route))
            yield (a, b, c, d), certify((), null)


def _f6_h_sign_chains(n: int) -> NullStream:
    """Coherence of the four sign cases of the inverse-pair canonical form.

    These cancel factor-for-factor (the canonical table is defined by the
    underlying word identities), so their rows are zero; the family stays
    in the run to certify the table and to document that it carries no
    independent row content.
    """
    for a, b in permutations(range(1, n + 1), 2):
        winv = words.inverse(w_xword(n, a, b))
        for sa, sb in ((-1, 1), (1, -1), (-1, -1)):
            direct = canon_h(n, sa * a, sb * b)
            via: tuple = canon_h(n, a, b)
            if (sa, sb) == (-1, 1):
                via = _conj_factors(via, winv)
            elif (sa, sb) == (1, -1):
                via = _conj_factors(_inv_factors(via), winv)
            else:
                via = _inv_factors(via)
            null = RelatorExpression(n, direct + _inv_factors(via))
            yield (sa * a, sb * b), certify((), null)


FAMILIES: tuple[tuple[str, str, Callable[[int], NullStream]], ...] = (
    ("F1", "power_halving", _f1_power_halving),
    ("F2", "commutation_ladders", _f2_commutation_ladders),
    ("F3", "conjugation_transport", _f3_conjugation_transport),
    ("F4", "h_transport", _f4_h_transport),
    ("F5", "basis_change", _f5_basis_change),
    ("F6", "h_sign_chains", _f6_h_sign_chains),
)

FAMILY_TAGS = tuple(tag for tag, _, _ in FAMILIES)


# -- the elimination engine --------------------------------------------


def _normalize_row(row: dict[int, int]) -> None:
    """Strip the common 2-power (a unit scaling over L) to keep entries small."""
    if not row:
        return
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g & 1:
            return
    k = two_adic_split(g)[0]
    if k:
        for c in row:
            row[c] >>= k


def _row_key(row: dict[int, int]) -> int:
    """Hash of a row that does not depend on the order of its keys."""
    return hash(frozenset(row.items()))


class RowStore:
    """Normalized, deduplicated collection of harvested relation rows.

    Duplicates are found through an index from a row's hash to the position
    in `rows` of the stored row with that hash (a tuple of positions when
    hashes collide).  A hash match counts as a duplicate only when the
    stored row is equal, so a collision never drops a row.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: list[dict[int, int]] = []
        self._index: dict[int, int | tuple[int, ...]] | None = {}
        self.stats = {"rows": 0, "zero": 0, "dup": 0}

    def add_row(self, row: dict[int, int]) -> str:
        self.stats["rows"] += 1
        if not row:
            self.stats["zero"] += 1
            return "zero"
        row = dict(row)
        _normalize_row(row)
        key = _row_key(row)
        hit = self._index.get(key)
        pos = len(self.rows)
        if hit is None:
            self._index[key] = pos
        else:
            hits = (hit,) if isinstance(hit, int) else hit
            if any(self.rows[i] == row for i in hits):
                self.stats["dup"] += 1
                return "dup"
            self._index[key] = hits + (pos,)
        self.rows.append(row)
        return "new"

    def close(self) -> None:
        """Release the dedup index once collection ends; no row can be added
        after this."""
        self._index = None


# Largest 2-adic valuation accepted for an elimination pivot.  A +-2^k
# pivot scales the target row by 2^k before subtracting, so small k keeps
# integers from compounding along elimination chains; higher powers that
# slip to the residual are still counted exactly by its normal form.
_KMAX = 2


# The entries that may serve as pivots, +-2^k with k <= _KMAX, mapped to k.
_ELIGIBLE: dict[int, int] = {s << k: k for k in range(_KMAX + 1) for s in (1, -1)}


def _merge(
    row: dict[int, int],
    piv: dict[int, int],
    c: int,
    rid: int,
    col_rows: list[list[int]],
    occ: list[int],
) -> int:
    """row <- 2^k * row - s*v * piv, clearing column c (pivot entry s*2^k).

    Row rid is `row`: each column it loses or gains moves its count in
    `occ`, and each column it gains joins the column index `col_rows`.
    Returns the number of columns it gained.
    """
    u = piv[c]
    k = _ELIGIBLE[u]  # the pivot entry is eligible by construction
    v = row[c]
    if k:
        for cc in row:
            row[cc] <<= k
    mult = v if u > 0 else -v
    fill = 0
    for cc, pv in piv.items():
        old = row.get(cc)
        if old is None:
            row[cc] = -mult * pv
            col_rows[cc].append(rid)
            occ[cc] += 1
            fill += 1
        else:
            nv = old - mult * pv
            if nv:
                row[cc] = nv
            else:
                del row[cc]
                occ[cc] -= 1
    # the pivot's own entry cancels v exactly; re-derived at run time by
    # _audit_elimination, which refuses any row left at a pivot column
    assert c not in row
    return fill


class ExactEliminator:
    """Exact unit-pivot elimination over L with fill-minimizing pivoting.

    Owns the row list it is given and works on it in place, with no copy:
    rows are merged and normalised where they are, and the slot of a
    retired or emptied row becomes None.  Each step retires one row on a
    +-2^k entry chosen to minimize the classical fill estimate
    (row length - 1) * (column occupancy - 1), then clears that column
    from every remaining row.  Retired rows only mention columns still
    alive at retirement, so the retired block is triangular with L-unit
    diagonal; together with the fully reduced residual this preserves the
    L-lattice exactly and justifies counting the bound as
    (columns) - (pivots) - (L-unit divisors of the residual).

    `occ[c]` counts the live rows with an entry at column c, the occupancy
    every score reads.  `col_rows[c]` is an append-only list of row ids: a
    row joins it when it gains c and never leaves, and retiring c merges
    into the distinct listed rows that are still live and still hold c.
    That is exact: every live row that holds c gained it after the list was
    last drained, so the list names it; a retired column never reappears in
    a row, so a drained list stays empty.

    The pivot search is a lazy heap of (score, k, family, column, row)
    keys.  A popped key is checked against the row's current state: a dead
    row is dropped, a vanished or ineligible column re-pushes the row's best
    key, a changed score re-pushes that column's current key, and a key that
    still holds retires its row.  `_last[rid]` holds row rid's most recently
    pushed key that has not been popped: a push equal to it is skipped
    (`skipped`), and a pop equal to it clears the slot, so a key computed
    again after its pop goes back on the heap.  That keeps the pivot
    sequence, because a second copy of a queued key can only pop as a
    no-op.  Equal keys are identical tuples, so when the first copy pops,
    the second is next in line.  If the first copy retires the row, or
    pushes a smaller key that pops next in the same state and retires the
    row, the second copy finds the row dead.  Otherwise the second copy
    pops next, in the same state, and pushes what the first copy pushed: a
    duplicate again, so the argument repeats.
    """

    def __init__(self, n: int, ncols: int, rows: list[dict[int, int]]):
        self.ncols = ncols
        self.fam_rank = _family_rank_by_col(n)
        self.rows: list[dict[int, int] | None] = rows
        self.col_rows: list[list[int]] = [[] for _ in range(ncols)]
        for rid, row in enumerate(self.rows):
            for c in row:
                self.col_rows[c].append(rid)
        self.occ: list[int] = [len(ids) for ids in self.col_rows]
        self.pivot_cols: list[int] = []
        self.pivot_rows: list[dict[int, int]] = []
        # heap pops by what they found, pushes skipped as already queued,
        # merges, the entries those merges added to rows (fill), and (after
        # finish) the largest entry bit-length over the pivot and residual
        # rows
        self.stats: dict[str, int] = dict.fromkeys(
            ("dead_row", "column_gone", "ineligible", "score_raised",
             "score_lowered", "skipped", "retired", "merges", "fill", "max_bits"), 0
        )
        self._heap: list[tuple] = []
        self._last: list[tuple | None] = [None] * len(self.rows)
        for rid, row in enumerate(self.rows):
            self._push(rid, row.items())

    def _push(self, rid: int, entries: Iterable[tuple[int, int]]) -> None:
        """Queue the best key of row rid among its (column, value) `entries`,
        unless it is the row's key already queued or no entry is eligible."""
        occ = self.occ
        fam = self.fam_rank
        # the score nr * (occ - 1) with nr >= 1 orders like occ, so a column
        # fuller than the best so far is skipped before anything else; a
        # one-entry row has a single candidate, so the order does not matter
        best = None
        best_occ = len(self.rows) + 1
        for c, v in entries:
            o = occ[c]
            if o > best_occ:
                continue
            k = _ELIGIBLE.get(v)
            if k is None:
                continue
            key = (o, k, fam[c], c)
            if best is None or key < best:
                best = key
                best_occ = o
        if best is None:
            return
        o, k, f, c = best
        entry = ((len(self.rows[rid]) - 1) * (o - 1), k, f, c, rid)
        if entry == self._last[rid]:
            self.stats["skipped"] += 1
        else:
            self._last[rid] = entry
            heapq.heappush(self._heap, entry)

    def _drop_row(self, rid: int) -> None:
        occ = self.occ
        for c in self.rows[rid]:
            occ[c] -= 1
        self.rows[rid] = None

    def run(self) -> None:
        heap = self._heap
        rows = self.rows
        col_rows = self.col_rows
        occ = self.occ
        fam_rank = self.fam_rank
        last = self._last
        push = self._push
        heappop = heapq.heappop
        st = self.stats
        while heap:
            entry = heappop(heap)
            score, k, fam, c, rid = entry
            if entry == last[rid]:
                last[rid] = None
            row = rows[rid]
            if not row:
                st["dead_row"] += 1  # a dead row has no entry to push again
                continue
            v = row.get(c)
            if v is None:
                st["column_gone"] += 1
                push(rid, row.items())
                continue
            kk = _ELIGIBLE.get(v)
            if kk is None:
                st["ineligible"] += 1
                push(rid, row.items())
                continue
            cur = ((len(row) - 1) * (occ[c] - 1), kk, fam_rank[c], c, rid)
            if cur != entry:
                st["score_raised" if cur > entry else "score_lowered"] += 1
                push(rid, ((c, v),))  # that column's current key, cur
                continue
            # retire (rid, c) and clear column c everywhere else
            st["retired"] += 1
            piv = row
            self._drop_row(rid)
            self.pivot_cols.append(c)
            self.pivot_rows.append(piv)
            for rid2 in sorted({r for r in col_rows[c] if c in (rows[r] or ())}):
                tgt = rows[rid2]
                st["fill"] += _merge(tgt, piv, c, rid2, col_rows, occ)
                st["merges"] += 1
                _normalize_row(tgt)
                if not tgt:
                    rows[rid2] = None
                else:
                    push(rid2, tgt.items())
            # column c is drained (occ[c] is 0) and never filled again; a
            # fresh list releases the old one
            col_rows[c] = []

    def finish(self) -> tuple[list[int], list[dict[int, int]]]:
        self.run()
        seen: set[frozenset] = set()
        cleaned: list[dict[int, int]] = []
        for row in self.rows:
            if not row:
                continue
            key = frozenset(row.items())
            if key not in seen:
                seen.add(key)
                cleaned.append(row)
        self.stats["max_bits"] = max(
            (abs(v).bit_length() for r in self.pivot_rows + cleaned for v in r.values()),
            default=0,
        )
        pivset = set(self.pivot_cols)
        survivors = [c for c in range(self.ncols) if c not in pivset]
        return survivors, cleaned


# -- harvest -----------------------------------------------------------


class FamilyReport(NamedTuple):
    tag: str
    name: str
    instances: int
    certified: int
    rows: int
    zero_rows: int
    unique_rows: int


class ModulePresentation(NamedTuple):
    n: int
    coeff: str
    generator_count: int
    matrix: IntMatrix  # compacted equivalent presentation (pivot + residual rows)
    module: LModule  # cokernel over L
    bound: int  # minimal generator count of the presented module
    survivors: tuple[int, ...]
    pivot_count: int
    residual_rows: int
    residual_divisors: tuple[int, ...]
    manifest: tuple[FamilyReport, ...]
    # not part of any certificate: the eliminator's counters, the seconds
    # spent collecting (in all and per family), eliminating and auditing
    # rows, and the process's high-water RSS after collection and after
    # elimination
    stats: dict[str, int]
    timings: dict[str, float | dict[str, float]]
    peak_rss_kib: dict[str, int]


class HarvestError(RuntimeError):
    pass


def peak_rss_kib() -> int:
    """High-water resident set size of this process so far: getrusage's
    ru_maxrss, which Linux reports in KiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _resolve_families(families: Sequence[str] | None) -> list[str]:
    chosen = list(families) if families is not None else list(FAMILY_TAGS)
    unknown = [f for f in chosen if f not in FAMILY_TAGS]
    if unknown:
        raise ValueError(f"unknown families: {unknown}")
    return chosen


def _in_ker_phi(row: dict[int, int], phi_cols: dict[int, list[tuple[int, int]]]) -> bool:
    acc: dict[int, int] = {}
    for g, c in row.items():
        for i, v in phi_cols.get(g, ()):
            acc[i] = acc.get(i, 0) + c * v
    return not any(acc.values())


def _phi_columns(n: int, coeff: str) -> dict[int, list[tuple[int, int]]]:
    """The relator columns of phi, as (row, value) lists keyed by column."""
    phi_cols: dict[int, list[tuple[int, int]]] = {}
    for (i, j), v in phi_matrix(n, coeff).data.items():
        phi_cols.setdefault(j, []).append((i, v))
    return phi_cols


def _audit_elimination(
    pivot_cols: list[int],
    pivot_rows: list[dict[int, int]],
    residual_rows: list[dict[int, int]],
    phi_cols: dict[int, list[tuple[int, int]]],
) -> None:
    """Check the eliminator's output before the bound is read off it.

    Pivot row t has an L-unit at its pivot column and no entry at an
    earlier pivot column, and no residual row has an entry at any pivot
    column: the retired block is triangular with L-unit diagonal, as the
    ExactEliminator argument needs.  Every pivot and residual row is an
    L-combination of certified rows, which all lie in ker(phi), so it lies
    there too; a slip in the merge arithmetic shows as a row that leaves it.
    """
    order = {c: t for t, c in enumerate(pivot_cols)}
    for t, (c, row) in enumerate(zip(pivot_cols, pivot_rows)):
        if _ELIGIBLE.get(row.get(c)) is None:
            raise ConsistencyError(f"pivot row {t} has no L-unit at its pivot column {c}")
        if any(order.get(cc, t) < t for cc in row):
            raise ConsistencyError(f"pivot row {t} has an entry at an earlier pivot column")
    for j, row in enumerate(residual_rows):
        if any(cc in order for cc in row):
            raise ConsistencyError(f"residual row {j} has an entry at a pivot column")
    for kind, rows in (("pivot", pivot_rows), ("residual", residual_rows)):
        for j, row in enumerate(rows):
            if not _in_ker_phi(row, phi_cols):
                raise ConsistencyError(f"{kind} row {j} is not in ker(phi)")


def _collect_rows(
    n: int,
    coeff: str,
    chosen: Sequence[str],
    phi_cols: dict[int, list[tuple[int, int]]],
    progress: Callable[[str], None] | None,
) -> tuple[RowStore, list[FamilyReport], dict[str, float]]:
    """Fold every certificate of the chosen families into the row store,
    and time each family's certificates, folds and row checks.

    Each new row is checked against the relator columns `phi_cols` (see
    `_phi_columns`): a null expression is zero in the relation module, so
    its row must lie in ker(phi).  That check is independent of the free reduction that verified the
    certificate.  Duplicates differ from a checked row by a power of 2 and
    zero rows lie in every kernel, so new rows are all that need checking.

    Each family folds through a prefix memo of its own (see
    `fold_matrix`), dropped when the family ends.  Once collection ends,
    nothing reads the store's dedup index again, so it is released.
    """
    ncols = generator_count_E(n)
    store = RowStore(ncols)
    reports: list[FamilyReport] = []
    seconds: dict[str, float] = {}
    for tag, name, builder in FAMILIES:
        if tag not in chosen:
            continue
        t0 = time.perf_counter()
        instances = certified = rows = zeros = news = 0
        memo: dict[Word, SmallMatrix] = {}
        for inst, cert in builder(n):
            instances += 1
            if not cert.verified:
                raise HarvestError(
                    f"{tag}/{name} instance {inst}: certificate failed ({cert.status})"
                )
            certified += 1
            for row in relation_from_null(cert, coeff, memo):
                rows += 1
                res = store.add_row(row)
                if res == "zero":
                    zeros += 1
                elif res == "new":
                    if not _in_ker_phi(row, phi_cols):
                        raise HarvestError(
                            f"{tag}/{name} instance {inst}: relation row is not in ker(phi)"
                        )
                    news += 1
        reports.append(
            FamilyReport(tag, name, instances, certified, rows, zeros, news)
        )
        seconds[tag] = time.perf_counter() - t0
        if progress:
            progress(
                f"{tag} {name}: {instances} instances, {rows} rows "
                f"({news} new, {zeros} zero) in {seconds[tag]:.2f} s"
            )
    store.close()
    return store, reports, seconds


def harvest(
    n: int,
    coeff: str,
    families: Sequence[str] | None = None,
    progress: Callable[[str], None] | None = None,
) -> ModulePresentation:
    """Collect all family rows, run exact elimination over L, audit its
    output, and bound the minimal generator count of the presented module."""
    if coeff not in COEFF_SPACES:
        raise ValueError(f"unknown coefficient module {coeff!r}")
    presentation.check_rank(n)
    chosen = _resolve_families(families)
    ncols = generator_count_E(n)
    t0 = time.perf_counter()
    phi_cols = _phi_columns(n, coeff)  # for the row checks and the audit
    store, reports, family_seconds = _collect_rows(n, coeff, chosen, phi_cols, progress)
    t1 = time.perf_counter()
    rss = {"collect": peak_rss_kib()}
    if progress:
        progress(f"collected {len(store.rows)} unique rows; eliminating")
    # the eliminator takes the store's rows over and works on them in place
    elim = ExactEliminator(n, ncols, store.rows)
    survivors, residual_rows = elim.finish()
    rss["eliminate"] = peak_rss_kib()
    t2 = time.perf_counter()
    _audit_elimination(elim.pivot_cols, elim.pivot_rows, residual_rows, phi_cols)
    t3 = time.perf_counter()
    if progress:
        progress(
            f"{len(elim.pivot_cols)} pivots, {len(residual_rows)} residual rows, "
            f"{len(survivors)} survivors"
        )
    bound, divisors, module = _account(survivors, residual_rows)
    matrix = _compact_matrix(elim.pivot_rows, residual_rows, ncols)
    timings = {
        "collect": t1 - t0,
        "eliminate": t2 - t1 + time.perf_counter() - t3,
        "audit": t3 - t2,
        "families": family_seconds,
    }
    return ModulePresentation(
        n=n,
        coeff=coeff,
        generator_count=ncols,
        matrix=matrix,
        module=module,
        bound=bound,
        survivors=tuple(survivors),
        pivot_count=len(elim.pivot_cols),
        residual_rows=len(residual_rows),
        residual_divisors=divisors,
        manifest=tuple(reports),
        stats=elim.stats,
        timings=timings,
        peak_rss_kib=rss,
    )


def _account(
    survivors: list[int], residual_rows: list[dict[int, int]]
) -> tuple[int, tuple[int, ...], LModule]:
    """Read the bound off the residual: B = survivors - L-unit divisors,
    which is the minimal generator count of the cokernel over L.  The SNF
    of the residual is checked against its witnesses like every other."""
    divisors: tuple[int, ...] = ()
    if residual_rows:
        col_of = {c: k for k, c in enumerate(survivors)}
        # transpose (residual rows become columns), compress the column
        # lattice by sparse integer echelon, then factor the slab that's left
        mat = IntMatrix(len(survivors), len(residual_rows))
        for j, row in enumerate(residual_rows):
            for c, v in row.items():
                mat.data[(col_of[c], j)] = v
        divisors = snf_cached(column_echelon(mat), None).nonzero_divisors()
    module = _lmodule_from_cokernel(len(survivors), divisors)
    return module.min_generators(), divisors, module


def _compact_matrix(
    pivot_rows: list[dict[int, int]],
    residual_rows: list[dict[int, int]],
    ncols: int,
) -> IntMatrix:
    rows = list(pivot_rows) + list(residual_rows)
    mat = IntMatrix(len(rows), ncols)
    for i, row in enumerate(rows):
        for c, v in row.items():
            mat.data[(i, c)] = v
    return mat


# -- survivor documentation --------------------------------------------


def survivor_summary(n: int, survivors: Iterable[int]) -> dict[str, int]:
    """Count survivor columns per relator family, splitting the triangle
    families by whether the tensor slot avoids the relator's first index
    (the shape the hand reduction leaves alive)."""
    rels = reduced_relators(n)
    out: dict[str, int] = {}
    for c in survivors:
        rel = rels[c // n]
        key = rel.family
        if key.startswith("R3"):
            key += "|p!=i" if c % n + 1 != rel.indices[0] else "|p==i"
        out[key] = out.get(key, 0) + 1
    return dict(sorted(out.items()))
