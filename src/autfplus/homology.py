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

All arithmetic is exact: sparse dicts and numpy object arrays holding
Python ints.  numpy with a fixed-width dtype appears only in the mod-p
rank routine, which is a cross-check, never a source of results.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import presentation, words
from .nielsen import COEFF_SPACES, H, induced_matrix
from .presentation import GenSym, gen_count, gen_index, reduced_relators, symbol_aut
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

    @staticmethod
    def zero() -> "GroupRingElt":
        return GroupRingElt()

    @staticmethod
    def from_word(w: Word, coeff: int = 1) -> "GroupRingElt":
        return GroupRingElt([(w, coeff)])

    @staticmethod
    def one() -> "GroupRingElt":
        return GroupRingElt.from_word(words.EMPTY)

    def coeff(self, w: Word) -> int:
        return self.terms.get(words.reduce_word(w), 0)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "GroupRingElt") -> "GroupRingElt":
        out = dict(self.terms)
        for w, c in other.terms.items():
            c = out.get(w, 0) + c
            if c:
                out[w] = c
            elif w in out:
                del out[w]
        e = GroupRingElt()
        e.terms = out
        return e

    def __neg__(self) -> "GroupRingElt":
        e = GroupRingElt()
        e.terms = {w: -c for w, c in self.terms.items()}
        return e

    def __sub__(self, other: "GroupRingElt") -> "GroupRingElt":
        return self + (-other)

    def __mul__(self, other: "GroupRingElt | int") -> "GroupRingElt":
        if isinstance(other, int):
            e = GroupRingElt()
            if other:
                e.terms = {w: c * other for w, c in self.terms.items()}
            return e
        acc: dict[Word, int] = {}
        for wa, ca in self.terms.items():
            for wb, cb in other.terms.items():
                w = words.multiply(wa, wb)
                c = acc.get(w, 0) + ca * cb
                if c:
                    acc[w] = c
                elif w in acc:
                    del acc[w]
        e = GroupRingElt()
        e.terms = acc
        return e

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GroupRingElt) and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "GroupRingElt(0)"
        parts = [f"{c}*[{','.join(map(str, w))}]" for w, c in sorted(self.terms.items())]
        return "GroupRingElt(" + " + ".join(parts) + ")"


def _symbol_index(x: "GenSym | int", n: int | None) -> int:
    if isinstance(x, GenSym):
        assert n is not None, "rank n is required to index a GenSym"
        return gen_index(n, x.i, x.eps, x.j)
    assert isinstance(x, int) and x > 0
    return x


def fox_derivative(w: Word, x: "GenSym | int", n: int | None = None) -> GroupRingElt:
    """Left free derivative d/dx: d(x)=1, d(x^-1)=-x^-1, d(uv)=du + u.dv.

    x may be a positive alphabet index or a GenSym (pass n for the latter).
    Satisfies the fundamental identity sum_x (dw/dx).(x - 1) = w - 1.
    """
    s = _symbol_index(x, n)
    acc: dict[Word, int] = {}
    for t, y in enumerate(w):
        if y == s:
            pre = w[:t]
            acc[pre] = acc.get(pre, 0) + 1
        elif y == -s:
            pre = w[: t + 1]
            acc[pre] = acc.get(pre, 0) - 1
    return GroupRingElt(acc)


def fox_derivative_right(w: Word, x: "GenSym | int", n: int | None = None) -> GroupRingElt:
    """Right-handed variant: D(x)=1, D(x^-1)=-x^-1, D(uv)=D(u).v + D(v).

    This is the flavour that pairs with the boundary convention
    (x-block: m |-> x.m - m); it satisfies sum_x (x - 1).D_x(w) = w - 1,
    so relator columns land in ker(d1) on the nose.
    """
    s = _symbol_index(x, n)
    acc: dict[Word, int] = {}
    for t, y in enumerate(w):
        if y == s:
            suf = w[t + 1 :]
            acc[suf] = acc.get(suf, 0) + 1
        elif y == -s:
            suf = w[t:]
            acc[suf] = acc.get(suf, 0) - 1
    return GroupRingElt(acc)


# -- coefficient actions -----------------------------------------------

SmallMatrix = tuple[tuple[int, ...], ...]


def _eye_small(n: int) -> SmallMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


@lru_cache(maxsize=None)
def letter_action(n: int, coeff: str, s: int) -> SmallMatrix:
    """Matrix of the coefficient action of the symbol s (signed index) on M.

    Multiplicative in the left-to-right composition order: the action of a
    word is the product of its letter matrices in reading order.
    """
    assert coeff in COEFF_SPACES
    aut = symbol_aut(n, s)
    if coeff == H:
        m = induced_matrix(aut.inverse())
    else:
        m = [list(col) for col in zip(*induced_matrix(aut))]
    return tuple(tuple(row) for row in m)


@lru_cache(maxsize=None)
def _letter_rows(n: int, coeff: str, s: int) -> tuple:
    """Rows of letter_action as tuples of their nonzero (t, v) entries, with
    None standing for a row of the identity."""
    out = []
    for i, row in enumerate(letter_action(n, coeff, s)):
        entries = tuple((t, v) for t, v in enumerate(row) if v)
        out.append(None if entries == ((i, 1),) else entries)
    return tuple(out)


def _letter_times(n: int, coeff: str, s: int, m: SmallMatrix) -> SmallMatrix:
    """letter_action(n, coeff, s) times m, touching only the letter's
    nonzero entries; identity rows reuse the row of m as it is."""
    out = []
    for i, entries in enumerate(_letter_rows(n, coeff, s)):
        if entries is None:
            out.append(m[i])
            continue
        acc = None
        for t, v in entries:
            mt = m[t]
            if acc is None:
                acc = mt if v == 1 else [v * x for x in mt]
            else:
                acc = [a + v * x for a, x in zip(acc, mt)]
        out.append(tuple(acc))
    return tuple(out)


@lru_cache(maxsize=300000)
def word_action(n: int, coeff: str, xw: Word) -> SmallMatrix:
    """Action matrix of pi(xw) on the coefficient space.

    Built by suffix recursion, so words that share a tail (the conjugators
    of a harvest) share its cached product.
    """
    if not xw:
        return _eye_small(n)
    return _letter_times(n, coeff, xw[0], word_action(n, coeff, xw[1:]))


def evaluate_ring_elt(n: int, coeff: str, e: GroupRingElt) -> SmallMatrix:
    """Push a group-ring element through the coefficient action (ring map)."""
    acc = [[0] * n for _ in range(n)]
    for w, c in e.terms.items():
        m = word_action(n, coeff, w)
        for i in range(n):
            row = m[i]
            ai = acc[i]
            for j in range(n):
                ai[j] += c * row[j]
    return tuple(tuple(row) for row in acc)


# -- sparse integer matrices -------------------------------------------


class IntMatrix:
    """Sparse exact-integer matrix: {(row, col): nonzero int}, 0-based."""

    __slots__ = ("nrows", "ncols", "data")

    def __init__(self, nrows: int, ncols: int, data: dict[tuple[int, int], int] | None = None):
        assert nrows >= 0 and ncols >= 0
        self.nrows = nrows
        self.ncols = ncols
        self.data = {} if data is None else {k: v for k, v in data.items() if v}

    def get(self, i: int, j: int) -> int:
        return self.data.get((i, j), 0)

    def set(self, i: int, j: int, v: int) -> None:
        assert 0 <= i < self.nrows and 0 <= j < self.ncols
        if v:
            self.data[(i, j)] = v
        else:
            self.data.pop((i, j), None)

    def add_at(self, i: int, j: int, v: int) -> None:
        self.set(i, j, self.data.get((i, j), 0) + v)

    def nnz(self) -> int:
        return len(self.data)

    def triplets(self) -> list[tuple[int, int, int]]:
        return sorted((i, j, v) for (i, j), v in self.data.items())

    def dump(self) -> str:
        """Documented interchange format: first line 'nrows ncols', then one
        'row col value' line per nonzero, sorted by (row, col)."""
        lines = [f"{self.nrows} {self.ncols}"]
        lines.extend(f"{i} {j} {v}" for i, j, v in self.triplets())
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "IntMatrix":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        nr, nc = map(int, lines[0].split())
        out = cls(nr, nc)
        for ln in lines[1:]:
            i, j, v = ln.split()
            out.set(int(i), int(j), int(v))
        return out

    def content_hash(self) -> str:
        return hashlib.sha256(self.dump().encode()).hexdigest()

    def to_dense(self) -> list[list[int]]:
        rows = [[0] * self.ncols for _ in range(self.nrows)]
        for (i, j), v in self.data.items():
            rows[i][j] = v
        return rows

    def to_object_array(self) -> np.ndarray:
        a = np.zeros((self.nrows, self.ncols), dtype=object)
        for (i, j), v in self.data.items():
            a[i, j] = v
        return a

    @classmethod
    def from_dense(cls, rows: Sequence[Sequence[int]], ncols: int | None = None) -> "IntMatrix":
        nr = len(rows)
        nc = ncols if ncols is not None else (len(rows[0]) if nr else 0)
        out = cls(nr, nc)
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                if v:
                    out.data[(i, j)] = v
        return out

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        assert self.ncols == other.nrows
        by_row: dict[int, list[tuple[int, int]]] = {}
        for (k, j), v in other.data.items():
            by_row.setdefault(k, []).append((j, v))
        acc: dict[tuple[int, int], int] = {}
        for (i, k), v in self.data.items():
            for j, w in by_row.get(k, ()):
                key = (i, j)
                c = acc.get(key, 0) + v * w
                if c:
                    acc[key] = c
                elif key in acc:
                    del acc[key]
        return IntMatrix(self.nrows, other.ncols, acc)

    def column(self, j: int) -> list[tuple[int, int]]:
        return sorted((i, v) for (i, jj), v in self.data.items() if jj == j)

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


@lru_cache(maxsize=32)
def d1_matrix(n: int, coeff: str) -> IntMatrix:
    """Block boundary, n rows by n*|X| columns; x-block is (action of x) - I."""
    presentation.check_rank(n)
    X = gen_count(n)
    out = IntMatrix(n, n * X)
    for s in range(1, X + 1):
        m = letter_action(n, coeff, s)
        base = (s - 1) * n
        for i in range(n):
            for j in range(n):
                v = m[i][j] - (1 if i == j else 0)
                if v:
                    out.data[(i, base + j)] = v
    return out


def _phi_matrix_left_derivative(n: int, coeff: str) -> IntMatrix:
    # The rejected column convention: left derivatives in place of right
    # ones.  Kept only so tests can demonstrate it breaks the chain
    # condition with this d1.  (Building d1 from inverse letters instead
    # does NOT break anything: that sum vanishes on every trivial-action
    # word, so it cannot distinguish the conventions.)
    X = gen_count(n)
    rels = reduced_relators(n)
    out = IntMatrix(n * X, n * len(rels))
    for r_idx, rel in enumerate(rels):
        for s in range(1, X + 1):
            m = evaluate_ring_elt(n, coeff, fox_derivative(rel.word, s))
            for i in range(n):
                for j in range(n):
                    if m[i][j]:
                        out.data[((s - 1) * n + i, r_idx * n + j)] = m[i][j]
    return out


@lru_cache(maxsize=32)
def phi_matrix(n: int, coeff: str) -> IntMatrix:
    """Relator columns inside the block sum: n*|X| rows by n*|R| columns.

    Column (r, p) carries, in each symbol block x, the evaluated right
    derivative of r with respect to x applied to the p-th basis vector.
    Assembled incrementally with suffix action matrices, one letter times
    a small matrix per letter.
    """
    presentation.check_rank(n)
    rels = reduced_relators(n)
    X = gen_count(n)
    out = IntMatrix(n * X, n * len(rels))
    eye = _eye_small(n)
    for r_idx, rel in enumerate(rels):
        w = rel.word
        s = len(w)
        suffix = [eye] * (s + 1)
        for t in range(s - 1, -1, -1):
            suffix[t] = _letter_times(n, coeff, w[t], suffix[t + 1])
        blocks: dict[int, list[list[int]]] = {}
        for t, y in enumerate(w):
            sym = abs(y)
            m = suffix[t + 1] if y > 0 else suffix[t]
            sign = 1 if y > 0 else -1
            blk = blocks.get(sym)
            if blk is None:
                blk = blocks[sym] = [[0] * n for _ in range(n)]
            for i in range(n):
                bi = blk[i]
                mi = m[i]
                for j in range(n):
                    bi[j] += sign * mi[j]
        base_col = r_idx * n
        for sym, blk in blocks.items():
            base_row = (sym - 1) * n
            for i in range(n):
                bi = blk[i]
                for p in range(n):
                    if bi[p]:
                        out.data[(base_row + i, base_col + p)] = bi[p]
    return out


def check_chain_condition(d1: IntMatrix, phi: IntMatrix) -> None:
    """Hard check that every relator column lies in ker(d1)."""
    prod = d1.mul(phi)
    if prod.data:
        bad = prod.triplets()[0]
        raise ConsistencyError(f"chain condition violated: d1.phi has entry {bad}")


# -- Smith normal form with transform witnesses ------------------------


@dataclass
class SNFResult:
    """U . A . V = diag(divisors), with U, V unimodular (inverses included)."""

    nrows: int
    ncols: int
    divisors: tuple[int, ...]
    u: list[list[int]]
    uinv: list[list[int]]
    v: list[list[int]]
    vinv: list[list[int]]

    def rank(self) -> int:
        return sum(1 for d in self.divisors if d)

    def nonzero_divisors(self) -> tuple[int, ...]:
        return tuple(d for d in self.divisors if d)

    def verify(self, a: IntMatrix) -> None:
        """Recheck the factorization and the transform witnesses exactly."""
        assert (a.nrows, a.ncols) == (self.nrows, self.ncols)
        divs = self.divisors
        assert len(divs) == min(self.nrows, self.ncols)
        for i in range(len(divs) - 1):
            d, e = divs[i], divs[i + 1]
            if d == 0:
                if e != 0:
                    raise ConsistencyError("zero divisor precedes a nonzero one")
            elif e % d != 0:
                raise ConsistencyError(f"divisor chain broken at {i}: {d} !| {e}")
        U = np.array(self.u, dtype=object)
        Ui = np.array(self.uinv, dtype=object)
        V = np.array(self.v, dtype=object)
        Vi = np.array(self.vinv, dtype=object)
        m, n = self.nrows, self.ncols
        if not np.array_equal(np.dot(U, Ui), _obj_eye(m)):
            raise ConsistencyError("U.Uinv != I")
        if not np.array_equal(np.dot(V, Vi), _obj_eye(n)):
            raise ConsistencyError("V.Vinv != I")
        # U.A.V == D  <=>  A.V == Uinv.D, and the right side is just column
        # scaling, so the expensive product uses A's sparsity only.
        av = np.zeros((m, n), dtype=object)
        for (i, k), val in a.data.items():
            row = av[i]
            vk = V[k]
            for j in range(n):
                if vk[j]:
                    row[j] += val * vk[j]
        uid = np.zeros((m, n), dtype=object)
        for j, d in enumerate(divs):
            if d:
                uid[:, j] = Ui[:, j] * d
        if not np.array_equal(av, uid):
            raise ConsistencyError("U.A.V != diag(divisors)")


def _obj_eye(k: int) -> np.ndarray:
    a = np.zeros((k, k), dtype=object)
    if k:
        a[np.arange(k), np.arange(k)] = 1
    return a


def _pick_pivot(sub: np.ndarray) -> tuple[int, int] | None:
    nz = sub != 0
    if not nz.any():
        return None
    unit = (sub == 1) | (sub == -1)
    if unit.any():
        i, j = np.argwhere(unit)[0]
        return int(i), int(j)
    best = None
    for i, j in np.argwhere(nz):
        v = abs(int(sub[i, j]))
        key = (v, int(i), int(j))
        if best is None or key < best:
            best = key
    assert best is not None
    return best[1], best[2]


def snf(a: "IntMatrix | Sequence[Sequence[int]]") -> SNFResult:
    """Exact Smith normal form with full unimodular transform witnesses.

    Deterministic: pivots are chosen by (|value|, row, col), preferring
    units.  Divisors come out nonnegative in a divisibility chain.
    """
    if not isinstance(a, IntMatrix):
        a = IntMatrix.from_dense(a)
    m, n = a.nrows, a.ncols
    A = a.to_object_array()
    U = _obj_eye(m)
    UiT = _obj_eye(m)  # transpose of Uinv: column ops become row ops
    VT = _obj_eye(n)  # transpose of V
    Vi = _obj_eye(n)
    mn = min(m, n)
    t = 0
    while t < mn:
        while True:
            pick = _pick_pivot(A[t:, t:])
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
            col = A[t + 1 :, t]
            q = col // p
            if (q != 0).any():
                A[t + 1 :, t:] = A[t + 1 :, t:] - q[:, None] * A[t, t:]
                U[t + 1 :, :] = U[t + 1 :, :] - q[:, None] * U[t, :]
                UiT[t, :] = UiT[t, :] + np.dot(q, UiT[t + 1 :, :])
            if (A[t + 1 :, t] != 0).any():
                continue  # smaller residues surfaced; re-pick the pivot
            row = A[t, t + 1 :]
            q2 = row // p
            if (q2 != 0).any():
                A[:, t + 1 :] = A[:, t + 1 :] - np.outer(A[:, t], q2)
                VT[t + 1 :, :] = VT[t + 1 :, :] - q2[:, None] * VT[t, :]
                Vi[t, :] = Vi[t, :] + np.dot(q2, Vi[t + 1 :, :])
            if (A[t, t + 1 :] != 0).any():
                continue
            if p != 1:
                rem = A[t + 1 :, t + 1 :] % p
                bad = np.argwhere(rem != 0)
                if len(bad):
                    i3 = t + 1 + int(bad[0][0])
                    A[t, :] = A[t, :] + A[i3, :]
                    U[t, :] = U[t, :] + U[i3, :]
                    UiT[i3, :] = UiT[i3, :] - UiT[t, :]
                    continue
            break
        if pick is None:
            break
        t += 1
    divisors = tuple(int(A[i, i]) for i in range(mn))
    return SNFResult(
        nrows=m,
        ncols=n,
        divisors=divisors,
        u=U.tolist(),
        uinv=UiT.T.tolist(),
        v=VT.T.tolist(),
        vinv=Vi.tolist(),
    )


# -- L = Z[1/2] bookkeeping --------------------------------------------


def two_adic_split(d: int) -> tuple[int, int]:
    """d = 2^k * odd, d > 0: return (k, odd)."""
    assert d > 0
    k = (d & -d).bit_length() - 1
    return k, d >> k


def is_unit_in_L(d: int) -> bool:
    return d != 0 and two_adic_split(abs(d))[1] == 1


@dataclass(frozen=True)
class LModule:
    """Finitely generated module over Z[1/2]: free rank plus odd torsion."""

    free_rank: int
    torsion: tuple[int, ...]  # odd parts > 1 of the nonunit divisors, in chain order

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

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


def to_L(s: SNFResult) -> LModule:
    """Cokernel of the factored matrix, read over L: 2-power divisors are
    units and disappear, the rest keep their odd parts."""
    return _lmodule_from_cokernel(s.nrows, s.divisors)


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

    Streams the columns in index order through a pivot table keyed by
    leading row; gcd-combines on leading-entry collisions.  The output has
    one column per pivot row, sorted, leading entries positive, and spans
    exactly the same submodule of Z^nrows as the input columns.  Zero
    columns disappear (they do not affect the span).
    """
    nr = mat.nrows
    cols: dict[int, list[tuple[int, int]]] = {}
    for (i, j), v in mat.data.items():
        cols.setdefault(j, []).append((i, v))
    pivots: dict[int, np.ndarray] = {}
    for j in range(mat.ncols):
        entries = cols.get(j)
        if not entries:
            continue
        c = np.zeros(nr, dtype=object)
        for i, v in entries:
            c[i] = v
        while True:
            nz = np.flatnonzero(c != 0)
            if not len(nz):
                break
            lead = int(nz[0])
            p = pivots.get(lead)
            if p is None:
                if c[lead] < 0:
                    c = -c
                pivots[lead] = c
                break
            a = int(p[lead])
            b = int(c[lead])
            if b % a == 0:
                c = c - (b // a) * p
            else:
                g, x, y = _xgcd(a, b)
                pivots[lead] = x * p + y * c
                c = (a // g) * c - (b // g) * p
    out = IntMatrix(nr, len(pivots))
    for jj, lead in enumerate(sorted(pivots)):
        col = pivots[lead]
        for i in np.flatnonzero(col != 0):
            out.data[(int(i), jj)] = int(col[i])
    return out


# -- mod-p rank fast path (cross-check only) ---------------------------


def rank_mod_p(mat: IntMatrix, p: int) -> int:
    """Rank of the matrix over GF(p) by vectorized elimination (int64).

    Entries are reduced mod p on entry, so fixed width cannot overflow;
    this routine only ever cross-checks exact results.
    """
    assert p > 2 and all(p % k for k in range(2, int(p**0.5) + 1)), p
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
        below = a[r + 1 :, c]
        if below.any():
            a[r + 1 :] = (a[r + 1 :] - np.outer(below, a[r])) % p
        r += 1
        if r == m:
            break
    return r


CROSS_CHECK_PRIMES = (3, 5, 7)


# -- caching / checkpoints ---------------------------------------------


def _atomic_write_text(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=".part")
    try:
        # mkstemp creates 0600; give the file the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def snf_cached(a: IntMatrix, cache_dir: str | None) -> SNFResult:
    """SNF with an on-disk cache keyed by the content hash of the matrix."""
    if cache_dir is None:
        return snf(a)
    key = a.content_hash()[:24]
    path = os.path.join(cache_dir, f"snf-{key}.json")
    if os.path.exists(path):
        with open(path) as f:
            doc = json.load(f)
        if doc.get("nrows") == a.nrows and doc.get("ncols") == a.ncols:
            return SNFResult(
                nrows=doc["nrows"],
                ncols=doc["ncols"],
                divisors=tuple(doc["divisors"]),
                u=doc["u"],
                uinv=doc["uinv"],
                v=doc["v"],
                vinv=doc["vinv"],
            )
    res = snf(a)
    _atomic_write_text(
        path,
        json.dumps(
            {
                "nrows": res.nrows,
                "ncols": res.ncols,
                "divisors": list(res.divisors),
                "u": res.u,
                "uinv": res.uinv,
                "v": res.v,
                "vinv": res.vinv,
            },
            sort_keys=True,
        ),
    )
    return res


def _echelon_cached(mat: IntMatrix, cache_dir: str | None) -> IntMatrix:
    if cache_dir is None:
        return column_echelon(mat)
    key = mat.content_hash()[:24]
    path = os.path.join(cache_dir, f"echelon-{key}.mat")
    if os.path.exists(path):
        with open(path) as f:
            return IntMatrix.parse(f.read())
    res = column_echelon(mat)
    _atomic_write_text(path, res.dump())
    return res


def _matrix_checkpoint(
    name: str, n: int, coeff: str, cache_dir: str | None, builder: Callable[[int, str], IntMatrix]
) -> IntMatrix:
    if cache_dir is None:
        return builder(n, coeff)
    path = os.path.join(cache_dir, f"{name}-n{n}-{coeff}.mat")
    if os.path.exists(path):
        with open(path) as f:
            return IntMatrix.parse(f.read())
    res = builder(n, coeff)
    _atomic_write_text(path, res.dump())
    return res


# -- the five-term pipeline --------------------------------------------


@dataclass
class FiveTermData:
    """Everything the boundary side of the five-term sequence yields at (n, M)."""

    n: int
    coeff: str
    gen_count: int
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
    timings: dict[str, float] = field(default_factory=dict)


def five_term_data(
    n: int, coeff: str, cache_dir: str | None = None, deep_check: bool = False
) -> FiveTermData:
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
    assert coeff in COEFF_SPACES, coeff
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
    if deep_check:
        sd1.verify(d1)
    d1_rank = sd1.rank()
    kernel_rank = d1.ncols - d1_rank
    timings["d1_snf"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    ech = _echelon_cached(phi, cache_dir)
    timings["echelon"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    image_snf = snf_cached(ech, cache_dir)
    if deep_check:
        image_snf.verify(ech)
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
        if deep_check:
            full = rank_mod_p(phi, p)
            if full != got:
                raise ConsistencyError(
                    f"mod-{p} rank changed under column echelon: {full} -> {got}"
                )
        modp[p] = got
    timings["modp_check"] = time.perf_counter() - t0

    h1 = _lmodule_from_cokernel(kernel_rank, divisors)
    return FiveTermData(
        n=n,
        coeff=coeff,
        gen_count=gen_count(n),
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


@dataclass(frozen=True)
class H2Certificate:
    n: int
    coeff: str
    bound: int
    kernel_rank: int
    image_rank: int
    image_coker: LModule  # ker(d1) / image, over L
    profile: tuple[tuple[tuple[int, int], int], ...]
    ok: bool
    reason: str

    @property
    def argument(self) -> str:
        return CERT_ARGUMENT

    @property
    def transfer_remark(self) -> str:
        return TRANSFER_REMARK


def h2_certificate(
    n: int,
    coeff: str,
    bound: int,
    cache_dir: str | None = None,
    data: FiveTermData | None = None,
) -> H2Certificate:
    """Certify H_2 = 0 at (n, coeff) from a generator bound for the coinvariants.

    Succeeds iff the image of the relator columns has L-rank equal to the
    bound AND the structural expectation holds: for H the image fills
    ker(d1) over L; for the dual it is free of corank exactly 1 (the
    missing rank is the L in the tail of the sequence).  Failure returns a
    certificate with ok=False and the offending data; nothing raises.
    """
    if data is None:
        data = five_term_data(n, coeff, cache_dir=cache_dir)
    assert data.n == n and data.coeff == coeff
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
        n=n,
        coeff=coeff,
        bound=bound,
        kernel_rank=data.kernel_rank,
        image_rank=data.image_rank,
        image_coker=coker,
        profile=divisor_profile(data.image_divisors),
        ok=ok,
        reason="certified" if ok else "; ".join(problems),
    )
