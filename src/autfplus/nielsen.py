"""Automorphisms of a rank-n free group.

An Automorphism stores the images of the n basis generators.  Every map
the package builds is a word in Nielsen maps, whose inverses are Nielsen
maps again (invert the second letter), so no inverse images are kept.
Composition is eager: image words are fully reduced on the spot, giving
canonical forms (thousands of relator verifications depend on equality
of reduced images being cheap).

Conventions fixed once and enforced by tests:

- automorphisms act on words on the right; ``s.compose(t)`` is "apply s,
  then t", i.e. ``s.compose(t).apply(w) == t.apply(s.apply(w))``;
- ``induced_matrix(s)`` has column k = coordinates of the abelianized
  image of the k-th generator, so ``induced_matrix(s.compose(t)) ==
  induced_matrix(t) @ induced_matrix(s)``;
- the coefficient modules carry *left* actions: on the abelianization H
  the action of s is by ``induced_matrix(inverse of s)``, on the dual
  H* by ``induced_matrix(s)`` transposed (``homology._transvection``); the
  inverse of the symbol with signed index s is the symbol -s.
"""

from __future__ import annotations

from typing import Sequence

from .words import Word, inverse, reduce_word

Matrix = list[list[int]]


class Automorphism:
    __slots__ = ("rank", "images")

    def __init__(self, rank: int, images: Sequence[Word]):
        if len(images) != rank:
            raise ValueError(f"{len(images)} images for rank {rank}")
        self.rank = rank
        self.images = tuple(images)

    # -- word actions ---------------------------------------------------

    def apply(self, w: Word) -> Word:
        """Image of the word w under this automorphism."""
        return _substitute(self.images, w)

    # -- group structure ------------------------------------------------

    def compose(self, other: "Automorphism") -> "Automorphism":
        """self followed by other (left-to-right)."""
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        return Automorphism(self.rank, tuple(other.apply(w) for w in self.images))

    def is_identity(self) -> bool:
        return all(w == (i + 1,) for i, w in enumerate(self.images))

    # -- value semantics ------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Automorphism):
            return NotImplemented
        return self.rank == other.rank and self.images == other.images

    def __hash__(self) -> int:
        return hash((self.rank, self.images))

    def __repr__(self) -> str:
        imgs = ", ".join(f"x{i+1}->{w}" for i, w in enumerate(self.images))
        return f"Automorphism({imgs})"


def _substitute(table: tuple[Word, ...], w: Word) -> Word:
    out: list[int] = []
    for a in w:
        img = table[a - 1] if a > 0 else inverse(table[-a - 1])
        for b in img:
            if out and out[-1] == -b:
                out.pop()
            else:
                out.append(b)
    return tuple(out)


def identity_aut(n: int) -> Automorphism:
    return Automorphism(n, tuple((i,) for i in range(1, n + 1)))


def nielsen_aut(n: int, a: int, b: int) -> Automorphism:
    """The Nielsen map sending the letter a to a*b, fixing letters c != a^-1, a.

    a, b are signed letters; requires b not in {a, -a}.  On generators:
    if a = x_i then x_i -> x_i * b; if a = x_i^-1 then x_i -> b^-1 * x_i.
    The inverse is the same map with b inverted.
    """
    if b == a or b == -a:
        raise ValueError(f"invalid Nielsen pair a={a}, b={b}")
    if not (1 <= abs(a) <= n and 1 <= abs(b) <= n):
        raise ValueError(f"letters {a},{b} outside rank {n}")
    i = abs(a)
    images = [(k,) for k in range(1, n + 1)]
    images[i - 1] = reduce_word((i, b) if a > 0 else (-b, i))
    return Automorphism(n, images)


def monomial_letter_perm(a: int, b: int, c: int) -> int:
    """Signed-letter permutation induced by the monomial map a -> b^-1, b -> a.

    Fixed points are all letters with index different from a, b.
    """
    if c == a:
        return -b
    if c == -a:
        return b
    if c == b:
        return a
    if c == -b:
        return -a
    return c


# -- induced action on the abelianization ------------------------------


def induced_matrix(s: Automorphism) -> Matrix:
    """n x n integer matrix; column k = abelianized image of generator k."""
    n = s.rank
    m = [[0] * n for _ in range(n)]
    for k, w in enumerate(s.images):
        col = m  # rows indexed first
        for a in w:
            if a > 0:
                col[a - 1][k] += 1
            else:
                col[-a - 1][k] -= 1
    return m


# -- coefficient modules ----------------------------------------------

H = "H"
HDUAL = "Hdual"
COEFF_SPACES = (H, HDUAL)
