"""A fixed pure-Python workload that measures how fast the host runs right now.

    python3 perfbench/reference.py

run.py runs it as a fresh process before and after every timed command, and
divides the command's times by the mean of the two reference times around
it.  The shared host speeds up and slows down by tens of percent within
minutes; the reference slows down with it, so the ratio keeps the
program's own cost and drops most of the host's.

It imports nothing from autfplus, so no change to the program moves it.
It does the kinds of work the program spends its time on: free reduction
of words held as int tuples, dict and frozenset hashing over a working set
of tens of MB, and integer row elimination with growing coefficients.
The work is a fixed function of a fixed seed.
"""

from __future__ import annotations

import random


def free_reduce(word: tuple[int, ...]) -> tuple[int, ...]:
    out: list[int] = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def words(rng: random.Random) -> int:
    letters = [i for i in range(-6, 7) if i]
    pool = [tuple(rng.choice(letters) for _ in range(rng.randrange(4, 12))) for _ in range(60_000)]
    index: dict[tuple[int, ...], int] = {}
    for w in pool:
        index.setdefault(free_reduce(w), len(index))
    seen = set()
    acc = 0
    for _ in range(120_000):
        w = free_reduce(pool[rng.randrange(len(pool))] + pool[rng.randrange(len(pool))])
        acc += index.get(w, -1)
        seen.add(frozenset(w))
    return acc + len(seen)


def eliminate(rng: random.Random) -> int:
    rows = [{rng.randrange(300): rng.randrange(-3, 4) or 1 for _ in range(8)} for _ in range(1_500)]
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        while row:
            col = min(row)
            if col not in pivots:
                pivots[col] = row
                break
            p = pivots[col]
            f, g = row[col], p[col]
            new = {k: v * g for k, v in row.items()}
            for k, v in p.items():
                new[k] = new.get(k, 0) - f * v
            row = {k: v for k, v in new.items() if v}
            if max(map(abs, row.values()), default=0) > 1 << 64:
                break
    return len(pivots)


def main() -> int:
    rng = random.Random(2024)
    print(words(rng) + eliminate(rng))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
