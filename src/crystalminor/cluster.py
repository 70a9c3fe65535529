"""Seed matrices and mutation for staircase words.

The exchange matrix construction references the symbols p, q, k+, l+
without spelling them out; we adopt the convention of the standard
double Bruhat seed construction, which the source text delegates to its
references: the word is extended by letters i_k := k for k in [-1,-r],
k+ is the next position to the right carrying the same letter in
absolute value (n+1 if none), p := max(k,l) and q := min(k+,l+).  This
convention is pinned by the skew-symmetrizability and mutation
properties in the test suite rather than by printed entries.

``seed_matrix`` counts its (r + n) x (r + n - distinct letters) entries
first and refuses more than ``DEFAULT_CAP`` before it builds any.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .bruhat import WordSpec
from .crystal import cartan
from .defaults import DEFAULT_CAP
from .errors import IndexOutOfRange

Matrix = tuple[tuple[int, ...], ...]

# Tuples here are built from lists, not generators: CPython builds the latter
# at a guessed length and resizes it, so each call parks one more tuple on
# the free list of the real length, memory only a full collection returns.


def _sgn(x: int) -> int:
    return (x > 0) - (x < 0)


def e_set(w: WordSpec) -> tuple[int, ...]:
    """Exchange indices: -1..-r followed by positions with a later repeat."""
    letters = w.letters()
    later = tuple([k for k in range(1, w.n + 1) if letters[k - 1] in letters[k:]])
    return tuple(range(-1, -w.r - 1, -1)) + later


def _entry(signed: dict[int, int], succ: dict[int, int], k: int, l: int) -> int:
    """Entry (k, l) from the signed letter and the successor of each index."""
    kp = succ[k]
    lp = succ[l]
    p = max(k, l)
    q = min(kp, lp)
    if p == q:
        return -_sgn((k - l) * signed[p])
    if p < q and k != l and kp != lp:
        cond = _sgn(signed[p] * signed[q]) * (k - l) * (kp - lp)
        if cond > 0:
            a = cartan(abs(signed[k]), abs(signed[l]))
            return -_sgn((k - l) * signed[p] * a)
    return 0


@dataclass(frozen=True)
class SeedMatrix:
    """Integer matrix with explicit row and column index labels."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    entries: Matrix

    def __post_init__(self) -> None:
        entries = tuple([tuple([int(x) for x in row]) for row in self.entries])
        object.__setattr__(self, "entries", entries)
        if len(entries) != len(self.rows):
            raise ValueError("one entry row per row label")
        if any(len(row) != len(self.cols) for row in entries):
            raise ValueError("one entry per column label")
        if not set(self.cols) <= set(self.rows):
            raise ValueError("column labels must be row labels too")

    def entry(self, k: int, l: int) -> int:
        return self.entries[self.rows.index(k)][self.cols.index(l)]

    def principal_part(self) -> "SeedMatrix":
        """Square submatrix on the column labels."""
        sub = tuple([tuple([self.entry(k, l) for l in self.cols]) for k in self.cols])
        return SeedMatrix(self.cols, self.cols, sub)

    def is_sign_skew_symmetric(self) -> bool:
        return is_sign_skew_symmetric(self.principal_part().entries)

    def mutate(self, k: int) -> "SeedMatrix":
        """Matrix mutation in the direction of column label k."""
        if k not in self.cols:
            raise IndexOutOfRange(k, what="mutation direction")
        entries = _mutate(self.entries, self.rows.index(k), self.cols.index(k))
        return replace(self, entries=entries)

    def to_json(self) -> str:
        payload = {
            "rows": list(self.rows),
            "cols": list(self.cols),
            "entries": [list(row) for row in self.entries],
        }
        return json.dumps(payload, separators=(",", ":"))


def seed_matrix(w: WordSpec) -> SeedMatrix:
    """Exchange matrix of the word, rows -1..-r,1..n, columns e_set(w);
    refused before it is built when it has more than DEFAULT_CAP entries."""
    # the columns are all rows but the last position of each distinct letter
    size = (w.r + w.n) * (w.r + w.n - len(set(w.letters())))
    if size > DEFAULT_CAP:
        raise ValueError(f"the seed matrix has {size} entries, more than {DEFAULT_CAP}")
    rows = tuple(range(-1, -w.r - 1, -1)) + tuple(range(1, w.n + 1))
    cols = e_set(w)
    # signed letter of every index (k itself for k < 0) and its successor:
    # the next index to the right with the same letter, or n+1
    signed = dict(zip(rows, rows[: w.r] + w.letters()))
    succ = {}
    later: dict[int, int] = {}
    for k in sorted(rows, reverse=True):
        succ[k] = later.get(abs(signed[k]), w.n + 1)
        later[abs(signed[k])] = k
    entries = tuple([tuple([_entry(signed, succ, k, l) for l in cols]) for k in rows])
    return SeedMatrix(rows, cols, entries)


def _check_square(matrix: Sequence[Sequence[int]]) -> Matrix:
    rows = tuple([tuple([int(x) for x in row]) for row in matrix])
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("matrix must be square")
    return rows


def _mutate(rows: Matrix, kr: int, kc: int) -> Matrix:
    """Matrix mutation (Fomin-Zelevinsky) in the direction with row index
    kr and column index kc, both 0-based; rows may outnumber columns."""
    pivot = rows[kr]
    return tuple([
        tuple([
            -a if i == kr or j == kc
            else a + (abs(row[kc]) * pivot[j] + row[kc] * abs(pivot[j])) // 2
            for j, a in enumerate(row)
        ])
        for i, row in enumerate(rows)
    ])


def mutate(matrix: Sequence[Sequence[int]], k: int) -> Matrix:
    """Square-matrix mutation in direction k (1-based)."""
    rows = _check_square(matrix)
    if not 1 <= k <= len(rows):
        raise IndexOutOfRange(k, what="mutation direction")
    return _mutate(rows, k - 1, k - 1)


def is_sign_skew_symmetric(matrix: Sequence[Sequence[int]]) -> bool:
    rows = _check_square(matrix)
    n = len(rows)
    for i in range(n):
        for j in range(n):
            if (rows[i][j] == 0) != (rows[j][i] == 0):
                return False
            if rows[i][j] * rows[j][i] > 0:
                return False
    return True


def skew_symmetrizer(matrix: Sequence[Sequence[int]]) -> tuple[int, ...] | None:
    """Positive integer diagonal d with d_i b_ij = -d_j b_ji, if one exists."""
    rows = _check_square(matrix)
    n = len(rows)
    if not is_sign_skew_symmetric(rows):
        return None
    d: list[Fraction | None] = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        queue = [start]
        while queue:
            i = queue.pop()
            for j in range(n):
                if rows[i][j] == 0:
                    continue
                want = -d[i] * Fraction(rows[i][j], rows[j][i])
                if d[j] is None:
                    d[j] = want
                    queue.append(j)
                elif d[j] != want:
                    return None
    scale = lcm(*(x.denominator for x in d)) if n else 1
    ints = [int(x * scale) for x in d]
    if n:
        g = gcd(*ints)
        ints = [x // g for x in ints]
    for i in range(n):
        for j in range(n):
            if ints[i] * rows[i][j] != -ints[j] * rows[j][i]:
                return None
    return tuple(ints)

