"""Fox calculus and exact integer linear algebra for the five-term sequence.

The chain-level picture: write F for the big free group on the Nielsen
generator symbols and pi: F -> Aut+ for the evaluation map.  The first
homology of F with coefficients in M is the kernel of the block boundary

    d1 : sum over symbols x of M  ->  M,     (x-block) m |-> x.m - m,

and every relator word contributes a column through its free differential,
evaluated through pi into the coefficient action.  d1 composed with that
column map vanishes identically (the relators act trivially), which pins
the derivative flavour: right derivatives pair with these blocks, left
derivatives fail the very first test.

All arithmetic is exact, on sparse dicts of Python ints: the Smith normal
form, its witness check and the column echelon work on {index: value} rows
and columns.  So does the mod-p rank routine, which is a cross-check,
never a source of results; the package has no runtime dependency.
"""

from __future__ import annotations

import json
import os
import time
from functools import lru_cache
from itertools import chain
from operator import add, sub
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

# The interpreter's own SHA-256, as random.py takes its SHA-512: importing
# hashlib loads OpenSSL, about 3.7 MB of every run's peak RSS.  The one
# sha256 of the package; cli imports it from here.
try:
    from _sha2 import sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # 3.10, 3.11
    except ImportError:
        from hashlib import sha256

from . import presentation, words
from .nielsen import COEFF_SPACES, H, induced_matrix
from .presentation import gen_count, gen_symbols, reduced_relators, symbol_aut, symbol_of_pair
from .words import Word


class ConsistencyError(RuntimeError):
    """An internal exactness check failed (chain condition, SNF witness...)."""


# -- group ring --------------------------------------------------------


class GroupRingElt:
    """Finite integer combination of reduced words, keyed by word."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Word, int] | Iterable[tuple[Word, int]] | None = None):
        clean: dict[Word, int] = {}
        if terms is not None:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for w, c in items:
                w = words.reduce_word(w)
                c = clean.get(w, 0) + c
                if c:
                    clean[w] = c
                elif w in clean:
                    del clean[w]
        self.terms = clean

    def __add__(self, other: "GroupRingElt") -> "GroupRingElt":
        return GroupRingElt(chain(self.terms.items(), other.terms.items()))

    def __neg__(self) -> "GroupRingElt":
        return self * -1

    def __sub__(self, other: "GroupRingElt") -> "GroupRingElt":
        return self + (-other)

    def __mul__(self, other: "GroupRingElt | int") -> "GroupRingElt":
        if isinstance(other, int):
            return GroupRingElt((w, c * other) for w, c in self.terms.items())
        return GroupRingElt((words.multiply(wa, wb), ca * cb)
                            for wa, ca in self.terms.items()
                            for wb, cb in other.terms.items())

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GroupRingElt) and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "GroupRingElt(0)"
        parts = [f"{c}*[{','.join(map(str, w))}]" for w, c in sorted(self.terms.items())]
        return "GroupRingElt(" + " + ".join(parts) + ")"


def fox_derivative(w: Word, s: int) -> GroupRingElt:
    """Left free derivative d/dx: d(x)=1, d(x^-1)=-x^-1, d(uv)=du + u.dv.

    The symbol x is given by its positive alphabet index s.  Satisfies the
    fundamental identity sum_x (dw/dx).(x - 1) = w - 1.
    """
    if not isinstance(s, int) or s <= 0:
        raise ValueError(f"the symbol index must be a positive int, got {s!r}")
    return GroupRingElt((w[:t], 1) if y == s else (w[:t + 1], -1)
                        for t, y in enumerate(w) if abs(y) == s)


# -- coefficient actions -----------------------------------------------

SmallMatrix = tuple[tuple[int, ...], ...]


def _eye_small(n: int) -> SmallMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


@lru_cache(maxsize=None)
def _transvection(n: int, coeff: str, s: int) -> tuple:
    """The coefficient action of the symbol s (signed index) on M as the
    transvection (i, j, op): row i of its matrix is e_i op e_j, with op
    `add` or `sub`, and every other row is that of the identity.

    Multiplicative in the left-to-right composition order: the action of a
    word is the product of its letter matrices in reading order.  On H the
    symbol acts by the induced matrix of its inverse, the symbol -s; on H*
    by the transpose of its own induced matrix.  Any other shape than one
    such row raises ConsistencyError, and an unknown coeff ValueError.
    """
    if coeff not in COEFF_SPACES:
        raise ValueError(f"unknown coefficient module {coeff!r}")
    if coeff == H:
        m = induced_matrix(symbol_aut(n, -s))
    else:
        m = list(zip(*induced_matrix(symbol_aut(n, s))))
    eye = _eye_small(n)
    moved = [i for i, row in enumerate(m) if tuple(row) != eye[i]]
    if len(moved) == 1:
        (i,) = moved
        row = m[i]
        off = [(t, v) for t, v in enumerate(row) if v and t != i]
        if row[i] == 1 and len(off) == 1 and off[0][1] in (1, -1):
            j, v = off[0]
            return i, j, add if v == 1 else sub
    raise ConsistencyError(f"symbol {s} is not a one-row transvection on {coeff}")


def _letter_times(n: int, coeff: str, s: int, m: SmallMatrix) -> SmallMatrix:
    """The action of the symbol s times m: m with its row i replaced by
    m[i] op m[j]; the other rows are those of m, as they are."""
    i, j, op = _transvection(n, coeff, s)
    return m[:i] + (tuple(map(op, m[i], m[j])),) + m[i + 1:]


# -- sparse integer matrices -------------------------------------------

# Sparse rows {col: nonzero int}: the working form of every SNF matrix and
# of every matrix product (`_product`).
Row = dict[int, int]


class IntMatrix:
    """Sparse exact-integer matrix: {(row, col): nonzero int}, 0-based."""

    __slots__ = ("nrows", "ncols", "data", "_sealed")

    def __init__(self, nrows: int, ncols: int, data: dict[tuple[int, int], int] | None = None):
        if nrows < 0 or ncols < 0:
            raise ValueError(f"negative matrix shape {nrows} x {ncols}")
        self.nrows = nrows
        self.ncols = ncols
        self.data = {} if data is None else {k: v for k, v in data.items() if v}
        self._sealed: tuple | None = None  # (data, nrows, ncols, digest), see seal

    def nnz(self) -> int:
        return len(self.data)

    def triplets(self) -> list[tuple[int, int, int]]:
        return sorted((i, j, v) for (i, j), v in self.data.items())

    def dump(self) -> str:
        """Documented interchange format: first line 'nrows ncols', then one
        'row col value' line per nonzero, sorted by (row, col)."""
        lines = ["%d %d\n" % (self.nrows, self.ncols)]
        lines += ["%d %d %d\n" % t for t in self.triplets()]
        return "".join(lines)

    @classmethod
    def parse(cls, text: str) -> "IntMatrix":
        """Read back what dump() writes and refuse, with ValueError, what it
        never writes: a malformed header, an entry outside the shape, a
        stored zero, or entries not strictly increasing in (row, col)."""
        lines = [ln.split() for ln in text.splitlines() if ln.strip()]
        if not lines or len(lines[0]) != 2:
            raise ValueError("matrix text must start with 'nrows ncols'")
        nr, nc = map(int, lines[0])
        if nr < 0 or nc < 0:
            raise ValueError(f"negative matrix shape {nr} x {nc}")
        data: dict[tuple[int, int], int] = {}
        last = (-1, -1)
        for parts in lines[1:]:
            if len(parts) != 3:
                raise ValueError(f"matrix entry {' '.join(parts)!r} is not 'row col value'")
            i, j, v = map(int, parts)
            if not (0 <= i < nr and 0 <= j < nc):
                raise ValueError(f"entry ({i}, {j}) outside the {nr} x {nc} shape")
            if not v:
                raise ValueError(f"stored zero at ({i}, {j})")
            if (i, j) <= last:
                raise ValueError(f"entry ({i}, {j}) does not follow {last}")
            last = (i, j)
            data[last] = v
        return cls(nr, nc, data)

    def content_hash(self) -> str:
        """sha256 of dump(); for a sealed matrix, the digest seal kept."""
        sealed = self._sealed
        if sealed is not None and sealed[:3] == (self.data, self.nrows, self.ncols):
            return sealed[3]
        return sha256(self.dump().encode()).hexdigest()

    def seal(self) -> str:
        """dump(), with its digest kept as the content hash, so that a written
        matrix is serialized once.  data becomes a read-only view of its own
        copy, so a later change fails loudly; after data, nrows or ncols is
        rebound, the digest is kept only if the content is the same."""
        text = self.dump()
        self.data = MappingProxyType(dict(self.data))
        digest = sha256(text.encode()).hexdigest()
        self._sealed = (self.data, self.nrows, self.ncols, digest)
        return text

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.data == other.data
        )

    def __repr__(self) -> str:
        return f"IntMatrix({self.nrows}x{self.ncols}, nnz={self.nnz()})"


# -- boundary and relator-column matrices ------------------------------


def d1_matrix(n: int, coeff: str) -> IntMatrix:
    """Block boundary, n rows by n*|X| columns; x-block is (action of x) - I."""
    presentation.check_rank(n)
    X = gen_count(n)
    out = IntMatrix(n, n * X)
    for s in range(1, X + 1):
        # (e_i op e_j) - e_i: the one entry op(0, 1) = +-1 at (i, j)
        i, j, op = _transvection(n, coeff, s)
        out.data[(i, (s - 1) * n + j)] = op(0, 1)
    return out


def _fox_blocks(n: int, coeff: str, w: Word) -> list[tuple[int, list[tuple[int, int, int]]]]:
    """Relator word w's nonzero blocks by the definition: block x is the sum
    of the actions of w[t+1:] at each letter x, less those of w[t:] at each
    x^-1, as dense products.  Gives (x, [(row, col, value), ...]) by the
    first appearance of x in w, each block's entries by (row, col)."""
    suffix = [_eye_small(n)] * (len(w) + 1)
    for t in range(len(w) - 1, -1, -1):
        suffix[t] = _letter_times(n, coeff, w[t], suffix[t + 1])
    blocks: dict[int, list[list[int]]] = {}
    for t, y in enumerate(w):
        m, op = (suffix[t + 1], add) if y > 0 else (suffix[t], sub)
        blk = blocks.get(abs(y), ((0,) * n,) * n)
        blocks[abs(y)] = [list(map(op, a, b)) for a, b in zip(blk, m)]
    return [(x, [(i, p, v) for i, row in enumerate(blk) for p, v in enumerate(row) if v])
            for x, blk in blocks.items()]


def phi_matrix(n: int, coeff: str) -> IntMatrix:
    """Relator columns inside the block sum: n*|X| rows by n*|R| columns.

    Column (r, p) carries, in each symbol block x, the evaluated right
    derivative of r with respect to x applied to the p-th basis vector.

    A family's instance R(i, j, ...) is its first word with each letter
    index k moved to sigma(k): the first instance's indices go to
    (i, j, ...), the others to the rest in increasing order.  sigma acts on
    M by a permutation matrix P, the symbol sigma(x) acts as P (action of x)
    P^-1, and Fox calculus commutes with the renaming, so entry (k, p) of
    block x of the first instance is entry (sigma k, sigma p) of block
    sigma(x) here.  Only first instances are computed (`_fox_blocks`).  A
    word that is not the renamed first word, or a family's last instance
    whose renamed blocks are not its own `_fox_blocks`, raises
    ConsistencyError.

    Entries are inserted relator by relator, block by the symbol's first
    appearance in the word, then row, then column.  The column echelon
    reads `data` in that order, and the echelon and SNF artefacts are
    pinned byte for byte, so the tests pin the order too.
    """
    presentation.check_rank(n)
    rels = reduced_relators(n)
    out = IntMatrix(n * gen_count(n), n * len(rels))
    pair_symbol = symbol_of_pair(n)
    last = {rel.family: r_idx for r_idx, rel in enumerate(rels)}
    first: dict[str, tuple] = {}
    for r_idx, (label, family, indices, word) in enumerate(rels):
        # sigma on 0-based indices; the first instance's is the identity,
        # or its own word fails the check below
        to = [k - 1 for k in indices] + [k for k in range(n) if k + 1 not in indices]
        if family not in first:
            blocks = _fox_blocks(n, coeff, word)
            first[family] = word, blocks, [(x, *gen_symbols(n)[x - 1]) for x, _ in blocks]
        base, blocks, pairs = first[family]
        ren = {}
        for x, a, b in pairs:
            y = pair_symbol[to[a - 1] + 1 if a > 0 else -to[-a - 1] - 1, to[b - 1] + 1]
            ren[x], ren[-x] = y, -y
        if list(word) != [ren[y] for y in base]:
            raise ConsistencyError(f"{label} is not its family's first word renamed")
        col = r_idx * n
        placed = []
        for x, ents in blocks:
            row = (ren[x] - 1) * n
            placed += sorted([((row + to[k], col + to[p]), v) for k, p, v in ents])
        if r_idx == last[family] and placed != [
            (((x - 1) * n + k, col + p), v)
            for x, ents in _fox_blocks(n, coeff, word) for k, p, v in ents
        ]:
            raise ConsistencyError(f"{label}: its renamed blocks are not its Fox derivatives")
        out.data.update(placed)
    return out


def check_chain_condition(d1: IntMatrix, phi: IntMatrix) -> None:
    """Hard check that every relator column lies in ker(d1); a violation
    names the smallest nonzero (row, col, value) of d1.phi."""
    if d1.ncols != phi.nrows:
        raise ValueError(f"d1 has {d1.ncols} columns but phi {phi.nrows} rows")
    prod = _product(_rows(d1), _rows(phi))
    bad = min(((i, j, v) for i, row in enumerate(prod) for j, v in row.items()), default=None)
    if bad is not None:
        raise ConsistencyError(f"chain condition violated: d1.phi has entry {bad}")


# -- Smith normal form with transform witnesses ------------------------


class SNFResult(NamedTuple):
    """U . A . V = diag(divisors), with U, V unimodular (inverses included).

    The four witnesses are held as row-major sparse rows {col: nonzero int};
    `u`, `uinv`, `v` and `vinv` expand them into dense nested lists.
    """

    nrows: int
    ncols: int
    divisors: tuple[int, ...]
    u_rows: list[Row]
    uinv_rows: list[Row]
    v_rows: list[Row]
    vinv_rows: list[Row]

    u = property(lambda self: _dense(self.u_rows, self.nrows))
    uinv = property(lambda self: _dense(self.uinv_rows, self.nrows))
    v = property(lambda self: _dense(self.v_rows, self.ncols))
    vinv = property(lambda self: _dense(self.vinv_rows, self.ncols))

    def rank(self) -> int:
        return sum(1 for d in self.divisors if d)

    def nonzero_divisors(self) -> tuple[int, ...]:
        return tuple(d for d in self.divisors if d)

    def verify(self, a: IntMatrix) -> None:
        """Recheck the factorization and the transform witnesses exactly."""
        if (a.nrows, a.ncols) != (self.nrows, self.ncols):
            raise ConsistencyError(
                f"SNF of a {self.nrows} x {self.ncols} matrix checked against "
                f"a {a.nrows} x {a.ncols} one")
        divs = self.divisors
        if len(divs) != min(self.nrows, self.ncols):
            raise ConsistencyError(
                f"{len(divs)} divisors for a {self.nrows} x {self.ncols} matrix")
        for i in range(len(divs) - 1):
            d, e = divs[i], divs[i + 1]
            if d == 0:
                if e != 0:
                    raise ConsistencyError("zero divisor precedes a nonzero one")
            elif e % d != 0:
                raise ConsistencyError(f"divisor chain broken at {i}: {d} !| {e}")
        m, n = self.nrows, self.ncols
        U, Ui, V, Vi = self.u_rows, self.uinv_rows, self.v_rows, self.vinv_rows
        for name, rows, k in (("U", U, m), ("Uinv", Ui, m), ("V", V, n), ("Vinv", Vi, n)):
            _check_square(name, rows, k)
        if _product(U, Ui) != _unit_rows(m):
            raise ConsistencyError("U.Uinv != I")
        if _product(V, Vi) != _unit_rows(n):
            raise ConsistencyError("V.Vinv != I")
        # U.A.V == D  <=>  A.V == Uinv.D, and the right side is just column
        # scaling, so the only product is A's sparse rows times V.
        av = _product(_rows(a), V)
        uid = [{j: x * divs[j] for j, x in row.items() if j < len(divs) and divs[j]} for row in Ui]
        if av != uid:
            raise ConsistencyError("U.A.V != diag(divisors)")


def _axpy(dst: Row, src: Row, q: int, index: list[set[int]] | None = None, r: int = 0) -> None:
    """dst += q * src, dropping zeros; an index (column -> rows holding it)
    is kept in step with dst as row r."""
    for c, v in src.items():
        x = dst.get(c, 0) + q * v
        if x:
            if index is not None and c not in dst:
                index[c].add(r)
            dst[c] = x
        elif c in dst:
            del dst[c]
            if index is not None:
                index[c].discard(r)


def _unit_rows(k: int) -> list[Row]:
    return [{i: 1} for i in range(k)]


def _rows(mat: IntMatrix) -> list[Row]:
    """The matrix as its nrows sparse rows."""
    out: list[Row] = [{} for _ in range(mat.nrows)]
    for (i, j), v in mat.data.items():
        out[i][j] = v
    return out


def _matrix(rows: list[Row], ncols: int) -> IntMatrix:
    """The inverse of `_rows`: the matrix of the sparse rows, `data` filled
    row by row."""
    mat = IntMatrix(len(rows), ncols)
    mat.data = {(i, j): v for i, row in enumerate(rows) for j, v in row.items()}
    return mat


def _product(x: list[Row], y: list[Row]) -> list[Row]:
    """The product of two matrices given as sparse rows, y one per column of x."""
    out = []
    for row in x:
        acc: Row = {}
        for k, v in row.items():
            _axpy(acc, y[k], v)
        out.append(acc)
    return out


def _check_square(name: str, rows: list[Row], k: int) -> None:
    """k sparse rows with every column in 0..k-1 and no stored zero."""
    if len(rows) != k:
        raise ConsistencyError(f"SNF witness {name} has {len(rows)} rows, not {k}")
    for i, row in enumerate(rows):
        for j, v in row.items():
            if not 0 <= j < k or not v:
                raise ConsistencyError(f"SNF witness {name} row {i} holds {v} at column {j}")


def _transpose(rows: list[Row], k: int) -> list[Row]:
    out: list[Row] = [{} for _ in range(k)]
    for i, row in enumerate(rows):
        for j, v in row.items():
            out[j][i] = v
    return out


def _sparse_pivot(A: list[Row], t: int) -> tuple[int, int] | None:
    """The first unit of rows t.. in row-major order, else the least
    (|value|, row, col)."""
    for i in range(t, len(A)):
        units = [j for j, v in A[i].items() if v == 1 or v == -1]
        if units:
            return i, min(units)
    best = min(((abs(v), i, j) for i in range(t, len(A)) for j, v in A[i].items()), default=None)
    return None if best is None else best[1:]


def _dense(rows: list[Row], k: int) -> list[list[int]]:
    """The k x k matrix of sparse rows, as nested lists."""
    out = [[0] * k for _ in range(k)]
    for i, row in enumerate(rows):
        for j, v in row.items():
            out[i][j] = v
    return out


def snf(a: IntMatrix) -> SNFResult:
    """Exact Smith normal form with full unimodular transform witnesses.

    Deterministic: the pivot is the first unit of the trailing block in
    row-major order, else the least (|value|, row, col).  Divisors come out
    nonnegative in a divisibility chain.  All five matrices are sparse rows;
    the rows of A below the pivot are found through a column index.
    """
    m, n = a.nrows, a.ncols
    A: list[Row] = [{} for _ in range(m)]
    cols: list[set[int]] = [set() for _ in range(n)]
    for (i, j), v in a.data.items():
        A[i][j] = v
        cols[j].add(i)
    U, UiT = _unit_rows(m), _unit_rows(m)  # UiT: transpose of Uinv, column ops become row ops
    VT, Vi = _unit_rows(n), _unit_rows(n)  # VT: transpose of V
    mn = min(m, n)
    t = 0
    while t < mn:
        # rows >= t hold columns >= t only, so row t.. is the trailing block
        while True:
            pick = _sparse_pivot(A, t)
            if pick is None:
                break
            i2, j2 = pick
            if i2 != t:
                for c in A[t].keys() ^ A[i2].keys():
                    cols[c] ^= {t, i2}
                A[t], A[i2] = A[i2], A[t]
                U[t], U[i2] = U[i2], U[t]
                UiT[t], UiT[i2] = UiT[i2], UiT[t]
            if j2 != t:
                for r in cols[t] | cols[j2]:
                    row = A[r]
                    vt, vj = row.pop(t, 0), row.pop(j2, 0)
                    if vt:
                        row[j2] = vt
                    if vj:
                        row[t] = vj
                cols[t], cols[j2] = cols[j2], cols[t]
                VT[t], VT[j2] = VT[j2], VT[t]
                Vi[t], Vi[j2] = Vi[j2], Vi[t]
            if A[t][t] < 0:
                A[t], U[t], UiT[t] = ({c: -v for c, v in r.items()} for r in (A[t], U[t], UiT[t]))
            p = A[t][t]
            for i in cols[t] - {t}:
                q = A[i][t] // p
                if q:
                    _axpy(A[i], A[t], -q, cols, i)
                    _axpy(U[i], U[t], -q)
                    _axpy(UiT[t], UiT[i], q)
            if len(cols[t]) > 1:
                continue  # smaller residues surfaced; re-pick the pivot
            for j, v in list(A[t].items()):
                q = v // p if j != t else 0
                if q:
                    _axpy(A[t], {j: p}, -q, cols, t)  # A[t][j] -= q * p
                    _axpy(VT[j], VT[t], -q)
                    _axpy(Vi[t], Vi[j], q)
            if len(A[t]) > 1:
                continue
            if p != 1:
                i3 = next((i for i in range(t + 1, m) if any(v % p for v in A[i].values())), None)
                if i3 is not None:
                    _axpy(A[t], A[i3], 1, cols, t)
                    _axpy(U[t], U[i3], 1)
                    _axpy(UiT[i3], UiT[t], -1)
                    continue
            break
        if pick is None:
            break
        t += 1
    return SNFResult(
        nrows=m,
        ncols=n,
        divisors=tuple(A[i].get(i, 0) for i in range(mn)),
        u_rows=U,
        uinv_rows=_transpose(UiT, m),
        v_rows=_transpose(VT, n),
        vinv_rows=Vi,
    )


# -- L = Z[1/2] bookkeeping --------------------------------------------


def two_adic_split(d: int) -> tuple[int, int]:
    """d = 2^k * odd, d > 0: return (k, odd)."""
    if d <= 0:
        raise ValueError(f"two_adic_split needs d > 0, got {d}")
    k = (d & -d).bit_length() - 1
    return k, d >> k


class LModule(NamedTuple):
    """Finitely generated module over Z[1/2]: free rank plus odd torsion."""

    free_rank: int
    torsion: tuple[int, ...]  # odd parts > 1 of the nonunit divisors, in chain order

    def min_generators(self) -> int:
        return self.free_rank + len(self.torsion)

    def describe(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("L")
        elif self.free_rank > 1:
            parts.append(f"L^{self.free_rank}")
        parts.extend(f"L/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"

    def __str__(self) -> str:
        return self.describe()


def _lmodule_from_cokernel(ambient_rank: int, divisors: Sequence[int]) -> LModule:
    nonzero = [d for d in divisors if d]
    tors = []
    for d in nonzero:
        odd = two_adic_split(abs(d))[1]
        if odd != 1:
            tors.append(odd)
    return LModule(free_rank=ambient_rank - len(nonzero), torsion=tuple(tors))


def divisor_profile(divisors: Sequence[int]) -> tuple[tuple[tuple[int, int], int], ...]:
    """Run-length profile of nonzero divisors as ((2-adic val, odd part), count)."""
    out: list[tuple[tuple[int, int], int]] = []
    for d in divisors:
        if not d:
            continue
        key = two_adic_split(abs(d))
        if out and out[-1][0] == key:
            out[-1] = (key, out[-1][1] + 1)
        else:
            out.append((key, 1))
    return tuple(out)


# -- incremental integer column echelon --------------------------------


def _combine(x: int, u: Row, y: int, w: Row) -> Row:
    """x * u + y * w as a new sparse row."""
    out = {c: x * v for c, v in u.items()} if x else {}
    if y:
        _axpy(out, w, y)
    return out


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """g, x, y with a*x + b*y = g = gcd(a, b) > 0 (for a, b not both 0)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def column_echelon(mat: IntMatrix) -> IntMatrix:
    """Integer column echelon of the column span (unimodular column ops only).

    Streams the columns, as sparse {row: value} dicts, in index order through
    a pivot table keyed by leading row; gcd-combines on leading-entry
    collisions.  The output has one column per pivot row, sorted, leading
    entries positive, and spans exactly the same submodule of Z^nrows as the
    input columns.  Zero columns disappear (they do not affect the span).
    """
    cols: dict[int, Row] = {}
    for (i, j), v in mat.data.items():
        cols.setdefault(j, {})[i] = v
    pivots: dict[int, Row] = {}
    for j in sorted(cols):
        c = cols[j]
        while c:
            lead = min(c)
            p = pivots.get(lead)
            if p is None:
                pivots[lead] = c if c[lead] > 0 else {i: -v for i, v in c.items()}
                break
            a, b = p[lead], c[lead]
            if b % a == 0:
                _axpy(c, p, -(b // a))
            else:
                g, x, y = _xgcd(a, b)
                pivots[lead], c = _combine(x, p, y, c), _combine(a // g, c, -(b // g), p)
    return _matrix(_transpose([pivots[lead] for lead in sorted(pivots)], mat.nrows), len(pivots))


# -- mod-p rank (cross-check only) ------------------------------------


def rank_mod_p(mat: IntMatrix, p: int) -> int:
    """Rank of the matrix over GF(p), on sparse rows of Python ints.

    Rows are reduced mod p and inserted, in row order, into a basis of monic
    rows keyed by their leading (smallest) column; the rank is the size of
    that basis.  Rank over a field does not depend on the pivot order, and
    nothing but the `_rows` conversion is shared with the SNF path, so the
    routine only ever cross-checks exact results.
    """
    if not (p > 2 and all(p % k for k in range(2, int(p**0.5) + 1))):
        raise ValueError(f"rank_mod_p needs an odd prime, got {p}")
    basis: dict[int, Row] = {}
    for row in _rows(mat):
        row = {c: w for c, v in row.items() if (w := v % p)}
        while row:
            lead = min(row)
            piv = basis.get(lead)
            if piv is None:
                inv = pow(row[lead], -1, p)
                basis[lead] = {c: v * inv % p for c, v in row.items()}
                break
            f = row[lead]
            for c, v in piv.items():
                w = (row.get(c, 0) - f * v) % p
                if w:
                    row[c] = w
                else:  # f * v is a unit, so c was in the row
                    del row[c]
    return len(basis)


CROSS_CHECK_PRIMES = (3, 5, 7)


# -- caching / checkpoints ---------------------------------------------


def _atomic_write_text(path: str, text: str) -> None:
    """Write the text to path through a temp file beside it, created with
    the mode open() would give it (0o666 less the umask)."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    k = 0
    while True:
        tmp = os.path.join(d, f".tmp-{os.getpid()}-{k}.part")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            k += 1
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _snf_json(res: SNFResult) -> str:
    """json.dumps(..., sort_keys=True) of the SNF, each witness as its sparse
    rows: per row, the [column, value] pairs of its nonzeros by column."""
    doc = {"divisors": list(res.divisors), "ncols": res.ncols, "nrows": res.nrows}
    for key in ("u", "uinv", "v", "vinv"):
        doc[key] = [sorted(row.items()) for row in getattr(res, f"{key}_rows")]
    return json.dumps(doc, sort_keys=True)


def snf_cached(a: IntMatrix, cache_dir: str | None) -> SNFResult:
    """SNF with its witnesses verified; given a cache dir, also written there
    as an artefact named by the content hash of the matrix, never read back."""
    res = snf(a)
    res.verify(a)
    if cache_dir is not None:
        path = os.path.join(cache_dir, f"snf-{a.content_hash()[:24]}.json")
        _atomic_write_text(path, _snf_json(res))
    return res


def _echelon_cached(mat: IntMatrix, cache_dir: str | None) -> IntMatrix:
    """Column echelon; given a cache dir, also written there as an artefact
    named by the content hash of the input, never read back."""
    res = column_echelon(mat)
    if cache_dir is not None:
        path = os.path.join(cache_dir, f"echelon-{mat.content_hash()[:24]}.mat")
        _atomic_write_text(path, res.seal())
    return res


def _matrix_checkpoint(
    name: str, n: int, coeff: str, cache_dir: str | None, builder: Callable[[int, str], IntMatrix]
) -> IntMatrix:
    """Build the matrix and, given a cache dir, write it there as an artefact.

    The file is keyed by its name alone, so it is never read back: an
    edited or stale copy must not become part of a certificate.
    """
    res = builder(n, coeff)
    if cache_dir is not None:
        _atomic_write_text(os.path.join(cache_dir, f"{name}-n{n}-{coeff}.mat"), res.seal())
    return res


# -- the five-term pipeline --------------------------------------------


class FiveTermData(NamedTuple):
    """Everything the boundary side of the five-term sequence yields at (n, M)."""

    n: int
    coeff: str
    relator_count: int
    d1: IntMatrix
    phi: IntMatrix
    echelon: IntMatrix
    d1_snf: SNFResult
    image_snf: SNFResult
    d1_rank: int
    kernel_rank: int
    image_rank: int
    image_divisors: tuple[int, ...]
    h1: LModule
    modp_ranks: dict[int, int]
    timings: dict[str, float]


def five_term_data(n: int, coeff: str, cache_dir: str | None = None) -> FiveTermData:
    """Assemble d1 and the relator columns, then extract kernel and image data.

    ker(d1) is the kernel of an integer matrix, hence saturated, hence a
    direct summand of the ambient block sum; a basis of it extends to a
    basis of the ambient lattice.  The elementary divisors of the image of
    the relator columns inside ker(d1) therefore equal those of the image
    inside the ambient lattice, which the column echelon + SNF compute
    directly — no change of basis to kernel coordinates is needed.  (The
    small-rank tests confirm this against the explicit kernel-coordinate
    route through the d1 transforms.)
    """
    if coeff not in COEFF_SPACES:
        raise ValueError(f"unknown coefficient module {coeff!r}")
    presentation.check_rank(n)
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    d1 = _matrix_checkpoint("d1", n, coeff, cache_dir, d1_matrix)
    phi = _matrix_checkpoint("phi", n, coeff, cache_dir, phi_matrix)
    timings["assemble"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    check_chain_condition(d1, phi)
    timings["chain_check"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    sd1 = snf_cached(d1, cache_dir)
    d1_rank = sd1.rank()
    kernel_rank = d1.ncols - d1_rank
    timings["d1_snf"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    ech = _echelon_cached(phi, cache_dir)
    timings["echelon"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    image_snf = snf_cached(ech, cache_dir)
    image_rank = image_snf.rank()
    timings["image_snf"] = time.perf_counter() - t0

    if image_rank > kernel_rank:
        raise ConsistencyError(
            f"image rank {image_rank} exceeds kernel rank {kernel_rank} at n={n}, {coeff}"
        )

    t0 = time.perf_counter()
    divisors = image_snf.nonzero_divisors()
    modp: dict[int, int] = {}
    for p in CROSS_CHECK_PRIMES:
        predicted = sum(1 for d in divisors if d % p)
        got = rank_mod_p(ech, p)
        if got != predicted:
            raise ConsistencyError(
                f"mod-{p} rank {got} disagrees with SNF prediction {predicted}"
            )
        modp[p] = got
    timings["modp_check"] = time.perf_counter() - t0

    h1 = _lmodule_from_cokernel(kernel_rank, divisors)
    return FiveTermData(
        n=n,
        coeff=coeff,
        relator_count=len(reduced_relators(n)),
        d1=d1,
        phi=phi,
        echelon=ech,
        d1_snf=sd1,
        image_snf=image_snf,
        d1_rank=d1_rank,
        kernel_rank=kernel_rank,
        image_rank=image_rank,
        image_divisors=divisors,
        h1=h1,
        modp_ranks=modp,
        timings=timings,
    )


# -- the degree-two certificate ----------------------------------------

CERT_ARGUMENT = (
    "The relation-module coinvariants surject onto the image of the boundary "
    "columns.  When that image is free over L of rank equal to the certified "
    "generator bound B, the composite is a surjection from a module generated "
    "by B elements onto a free module of rank B; over a PID such a surjection "
    "is an isomorphism, so the coinvariants map injectively and the kernel of "
    "the five-term comparison map vanishes.  That kernel is H_2 of the special "
    "automorphism group with these coefficients."
)

TRANSFER_REMARK = (
    "The special automorphism group has index 2 in the full one.  With 2 "
    "invertible in the coefficient ring, restriction followed by transfer is "
    "multiplication by 2, an isomorphism, so the homology of the full group "
    "is a direct summand of the homology of the index-2 subgroup (standard "
    "transfer argument, stated here, not computed).  Vanishing for the "
    "special subgroup therefore forces vanishing for the full group."
)


class H2Certificate(NamedTuple):
    bound: int
    image_coker: LModule  # ker(d1) / image, over L
    ok: bool
    reason: str


def h2_certificate(n: int, coeff: str, bound: int, data: FiveTermData) -> H2Certificate:
    """Certify H_2 = 0 at (n, coeff) from a generator bound for the coinvariants.

    Succeeds iff the image of the relator columns has L-rank equal to the
    bound AND the structural expectation holds: for H the image fills
    ker(d1) over L; for the dual it is free of corank exactly 1 (the
    missing rank is the L in the tail of the sequence).  Failure returns a
    certificate with ok=False and the offending data; only five-term data
    of another (n, coeff) raises, with ValueError.
    """
    if (data.n, data.coeff) != (n, coeff):
        raise ValueError(f"five-term data of n={data.n}, {data.coeff} given for n={n}, {coeff}")
    coker = data.h1
    expected_corank = 0 if coeff == H else 1
    problems = []
    if data.image_rank != data.kernel_rank - expected_corank:
        problems.append(
            f"image L-rank {data.image_rank} != kernel rank {data.kernel_rank}"
            f" - {expected_corank}"
        )
    if coker.torsion:
        problems.append(f"odd torsion survives in the cokernel: {coker.torsion}")
    if coker.free_rank != expected_corank:
        problems.append(
            f"cokernel free rank {coker.free_rank} != expected {expected_corank}"
        )
    if bound != data.image_rank:
        problems.append(f"generator bound {bound} != image L-rank {data.image_rank}")
    ok = not problems
    return H2Certificate(
        bound=bound,
        image_coker=coker,
        ok=ok,
        reason="certified" if ok else "; ".join(problems),
    )
