"""Staircase reduced words, unipotent matrices and generalized minors.

A word spec fixes the rank ``r`` and a reduced word of the staircase shape
(1, 2, ..., r, 1, 2, ..., r-1, ..., 1, ..., i_n): ``m`` descending cycles
with the last one cut off at ``i_n``.  Position ``k`` of such a word carries
the variable ``Y[s,j]`` where ``s`` counts completed cycles and ``j`` is the
letter; these are exactly the variables with a single-index alias.

Substituting the position variables into a product of negative factors, one
per letter, yields a matrix over Laurent polynomials whose initial minors
this module extracts (``delta_L``).  A minor never builds that matrix: it
starts from the d identity rows it needs and applies the word's factors as
column operations (``apply_word``), then takes the determinant of the first
d columns.  Numerically the same matrix can be
scaled by a diagonal with determinant one; ``delta_G`` takes its minors,
and ``phi_map`` rewrites such coordinates as a diagonal times a product of
lower elementary factors so both descriptions can be compared entrywise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import prod
from typing import Mapping, Sequence

from .crystal import ell
from .errors import (
    IndexOutOfRange,
    InvalidExtension,
    MissingAssignment,
    NotInTorus,
    ZeroAssignment,
)
from .laurent import LaurentPoly, Monomial, VarId

# ---------------------------------------------------------------------------
# words and positions


@dataclass(frozen=True)
class WordSpec:
    """Staircase word at rank r with m cycles, the last of length `last`.

    >>> WordSpec(4, 4, 1).letters()
    (1, 2, 3, 4, 1, 2, 3, 1, 2, 1)
    """

    r: int
    m: int
    last: int

    def __post_init__(self):
        if self.r < 1:
            raise ValueError(f"rank must be >= 1, got {self.r}")
        if not 1 <= self.m <= self.r:
            raise ValueError(f"cycle count {self.m} out of range [1, {self.r}]")
        if not 1 <= self.last <= self.r - self.m + 1:
            raise ValueError(
                f"final letter {self.last} out of range [1, {self.r - self.m + 1}]"
            )

    @property
    def n(self) -> int:
        return ell(self.r, self.m - 1) + self.last

    def cycle_length(self, c: int) -> int:
        """Length of cycle c, counted from 1."""
        if not 1 <= c <= self.m:
            raise IndexOutOfRange(c, "cycle")
        return self.last if c == self.m else self.r - c + 1

    def letters(self) -> tuple[int, ...]:
        out = []
        for c in range(1, self.m + 1):
            out.extend(range(1, self.cycle_length(c) + 1))
        return tuple(out)

    def position(self, k: int) -> tuple[int, int]:
        """(completed cycles s, letter j) of position k; k = ell(r,s) + j."""
        if not 1 <= k <= self.n:
            raise IndexOutOfRange(k, "word position")
        s = 0
        while ell(self.r, s + 1) < k:
            s += 1
        return s, k - ell(self.r, s)

    def letter(self, k: int) -> int:
        return self.position(k)[1]

    def position_var(self, k: int) -> VarId:
        s, j = self.position(k)
        return VarId(s, j)

    def variables(self) -> tuple[VarId, ...]:
        return tuple(self.position_var(k) for k in range(1, self.n + 1))

    def is_full_longest(self) -> bool:
        return self.m == self.r

    def extension(self) -> "WordSpec | None":
        """The unique one-letter staircase extension, None at the full word."""
        if self.last < self.r - self.m + 1:
            return WordSpec(self.r, self.m, self.last + 1)
        if self.m < self.r:
            return WordSpec(self.r, self.m + 1, 1)
        return None

    @staticmethod
    def from_letters(r: int, letters: Sequence[int]) -> "WordSpec":
        """Parse an explicit letter list, insisting on the staircase shape."""
        if not letters:
            raise ValueError("empty word")
        m = 1
        last = 0
        expect = 1
        for pos, letter in enumerate(letters, start=1):
            if letter == expect:
                last = letter
                expect += 1
            elif letter == 1 and last == r - m + 1 and m < r:
                m += 1
                last = 1
                expect = 2
            else:
                raise ValueError(
                    f"letter {letter} at position {pos} breaks the staircase shape"
                )
        spec = WordSpec(r, m, last)
        assert spec.letters() == tuple(letters)
        return spec


@dataclass(frozen=True)
class MinorSpec:
    """A word position k marking one initial minor of the cell matrix."""

    word: WordSpec
    k: int

    def __post_init__(self):
        if not 1 <= self.k <= self.word.n:
            raise IndexOutOfRange(self.k, "word position")

    @property
    def d(self) -> int:
        """Size of the minor: the letter at position k."""
        return self.word.letter(self.k)

    @property
    def mprime(self) -> int:
        """The cycle containing position k, counted from 1."""
        return self.word.position(self.k)[0] + 1

    @property
    def rows(self) -> tuple[int, ...]:
        mp = self.mprime
        return tuple(range(mp + 1, mp + self.d + 1))

    @property
    def cols(self) -> tuple[int, ...]:
        return tuple(range(1, self.d + 1))


# ---------------------------------------------------------------------------
# matrices over a ring (Laurent polynomials or rationals)


def _coerce(t):
    if isinstance(t, VarId):
        return LaurentPoly.from_monomial(Monomial.of((t, 1)))
    if isinstance(t, int):
        return Fraction(t)
    return t


def _ring(t) -> tuple:
    """(zero, one) of the ring an entry lives in."""
    if isinstance(t, LaurentPoly):
        return LaurentPoly.zero(), LaurentPoly.one()
    return Fraction(0), Fraction(1)


def _inv(t):
    if isinstance(t, LaurentPoly):
        return t.inverse()
    if t == 0:
        raise ZeroDivisionError("cannot invert zero")
    return 1 / Fraction(t)


def _identity(size: int, one, zero):
    return [[one if a == b else zero for b in range(size)] for a in range(size)]


def gen_y(r: int, i: int, t):
    """Lower elementary factor: identity plus t in slot (i+1, i)."""
    t = _coerce(t)
    zero, one = _ring(t)
    mat = _identity(r + 1, one, zero)
    mat[i][i - 1] = t
    return mat


def gen_xneg(r: int, i: int, t):
    """Negative-direction factor: the 2x2 block [[1/t, 0], [1, t]] at (i, i+1).

    >>> from crystalminor.laurent import VarId
    >>> [[str(e) for e in row] for row in gen_xneg(1, 1, VarId(0, 1))]
    [['Y[0,1]^-1', '0'], ['1', 'Y[0,1]']]
    """
    t = _coerce(t)
    zero, one = _ring(t)
    mat = _identity(r + 1, one, zero)
    mat[i - 1][i - 1] = _inv(t)
    mat[i][i - 1] = one
    mat[i][i] = t
    return mat


def mat_mul(a, b):
    size = len(a)
    out = []
    for row in range(size):
        new_row = []
        for col in range(size):
            acc = a[row][0] * b[0][col]
            for k in range(1, size):
                acc = acc + a[row][k] * b[k][col]
            new_row.append(acc)
        out.append(new_row)
    return out


def apply_word(rows, steps):
    """Right-multiply a block of rows by negative factors, one step at a time.

    Step ``(i, t)`` stands for ``gen_xneg(r, i, t)``, which changes only
    columns i and i+1: ``col_i <- col_i / t + col_{i+1}`` and
    ``col_{i+1} <- col_{i+1} * t``.  So a word of n letters costs O(n) ring
    operations per row instead of n dense (r+1)^3 products, and zero entries
    cost nothing.  Works over any ring ``gen_xneg`` accepts (Laurent
    polynomials or rationals); the input rows are left unchanged.

    >>> from fractions import Fraction
    >>> rows = [[Fraction(int(a == b)) for b in range(3)] for a in range(3)]
    >>> [str(e) for e in apply_word(rows[1:2], [(1, 2), (2, 3)])[0]]
    ['1', '2/3', '0']
    >>> apply_word(rows, [(1, 2), (2, 3)]) == mat_mul(gen_xneg(2, 1, 2), gen_xneg(2, 2, 3))
    True
    """
    out = [list(row) for row in rows]
    for i, t in steps:
        t = _coerce(t)
        t_inv = _inv(t)
        for row in out:
            a, b = row[i - 1], row[i]
            if b:
                row[i - 1] = a * t_inv + b if a else b
                row[i] = b * t
            elif a:
                row[i - 1] = a * t_inv
    return out


def _symbolic_rows(w: WordSpec, rows: Sequence[int]):
    """Rows (1-based) of the symbolic cell matrix, by column operations."""
    zero, one = LaurentPoly.zero(), LaurentPoly.one()
    identity_rows = [[one if c == a else zero for c in range(1, w.r + 2)] for a in rows]
    return apply_word(identity_rows, zip(w.letters(), w.variables()))


def xL_matrix(w: WordSpec):
    """Symbolic cell matrix: the product of one negative factor per letter,
    position k carrying the variable Y[s,j] of that position."""
    return _symbolic_rows(w, range(1, w.r + 2))


def det(matrix):
    """Determinant by cofactor expansion along the rows in their given
    order, memoized by the set of columns left.

    The expansion at a column set uses row size - len(cols).  Zero entries
    are skipped, and a row with no nonzero entry left gives the ring's zero.
    Works over any commutative ring whose elements support +, *, unary -.
    """
    size = len(matrix)
    if size == 0:
        raise ValueError("empty matrix")
    memo: dict[frozenset, object] = {}

    def go(cols: frozenset):
        row = matrix[size - len(cols)]
        if len(cols) == 1:
            (col,) = cols
            return row[col]
        if cols in memo:
            return memo[cols]
        cols_list = sorted(cols)
        acc = None
        for pos, col in enumerate(cols_list):
            entry = row[col]
            if not entry:
                continue
            term = entry * go(cols - {col})
            if pos % 2:
                term = -term
            acc = term if acc is None else acc + term
        if acc is None:
            acc = row[cols_list[0]] * 0
        memo[cols] = acc
        return acc

    return go(frozenset(range(size)))


def submatrix(matrix, rows: Sequence[int], cols: Sequence[int]):
    """Rows and columns are 1-based."""
    return [[matrix[a - 1][b - 1] for b in cols] for a in rows]


@lru_cache(maxsize=4096)
def _delta_L_cached(word: WordSpec, k: int) -> LaurentPoly:
    # only the minor's d rows are built; its columns are the first d
    spec = MinorSpec(word, k)
    return det([row[: spec.d] for row in _symbolic_rows(word, spec.rows)])


def delta_L(spec: MinorSpec) -> LaurentPoly:
    """The minor of the symbolic cell matrix marked by position k."""
    return _delta_L_cached(spec.word, spec.k)


def delta_L_truncation_check(w: WordSpec, k: int) -> bool:
    """Does the position-k minor survive the one-letter word extension?

    True when the extended word yields the identical polynomial and the new
    position's variable stays out of it.  Raises InvalidExtension when no
    extension exists or when the appended letter repeats the letter at k.
    """
    base = delta_L(MinorSpec(w, k))
    ext = w.extension()
    if ext is None:
        raise InvalidExtension("the full longest word has no extension")
    if ext.letter(ext.n) == w.letter(k):
        raise InvalidExtension(
            f"appended letter {ext.letter(ext.n)} repeats the letter at position {k}"
        )
    extended = delta_L(MinorSpec(ext, k))
    return extended == base and ext.position_var(ext.n) not in extended.variables()


# ---------------------------------------------------------------------------
# numeric side: torus vectors and the coordinate change


def _check_torus(a: Sequence[Fraction], r: int) -> tuple[Fraction, ...]:
    vec = tuple(Fraction(x) for x in a)
    if len(vec) != r + 1:
        raise NotInTorus(f"diagonal needs {r + 1} entries, got {len(vec)}")
    if any(x == 0 for x in vec):
        raise NotInTorus("diagonal entries must be nonzero")
    if prod(vec) != 1:
        raise NotInTorus(f"diagonal product is {prod(vec)}, not 1")
    return vec


def _check_values(w: WordSpec, t: Mapping[VarId, Fraction]) -> dict[VarId, Fraction]:
    out = {}
    for v in w.variables():
        if v not in t:
            raise MissingAssignment(v)
        val = Fraction(t[v])
        if val == 0:
            raise ZeroAssignment(v)
        out[v] = val
    return out


def diag_matrix(a: Sequence[Fraction]):
    size = len(a)
    return [
        [Fraction(a[row]) if row == col else Fraction(0) for col in range(size)]
        for row in range(size)
    ]


def xL_value(w: WordSpec, t: Mapping[VarId, Fraction]):
    """Numeric cell matrix at explicit position values."""
    vals = _check_values(w, t)
    acc = None
    for k in range(1, w.n + 1):
        factor = gen_xneg(w.r, w.letter(k), vals[w.position_var(k)])
        acc = factor if acc is None else mat_mul(acc, factor)
    return acc


def cell_matrix_value(w: WordSpec, a: Sequence[Fraction], t: Mapping[VarId, Fraction]):
    """diag(a) times the numeric cell matrix; the matrix delta_G minors."""
    return mat_mul(diag_matrix(_check_torus(a, w.r)), xL_value(w, t))


def lower_product_value(w: WordSpec, a: Sequence[Fraction], t: Mapping[VarId, Fraction]):
    """diag(a) times one lower elementary factor per letter."""
    vals = _check_values(w, t)
    acc = diag_matrix(_check_torus(a, w.r))
    for k in range(1, w.n + 1):
        acc = mat_mul(acc, gen_y(w.r, w.letter(k), vals[w.position_var(k)]))
    return acc


def phi_map(
    w: WordSpec, a: Sequence[Fraction], t: Mapping[VarId, Fraction]
) -> tuple[tuple[Fraction, ...], dict[VarId, Fraction]]:
    """Rewrite cell coordinates as lower-elementary coordinates.

    Input (a; t) describes diag(a) times the product of negative factors at
    the position values t.  The output (moved diagonal, value map) describes
    the same matrix as a diagonal times a product of lower elementary
    factors:

        cell_matrix_value(w, a, t)
            == lower_product_value(w, *phi_map-as-arguments*)

    which tests check entrywise.  Both outputs are keyed like the input: the
    value map assigns a rational to every position variable of w.
    """
    vec = _check_torus(a, w.r)
    vals = _check_values(w, t)

    def t_at(cycle: int, x: int) -> Fraction:
        # cycle counted from 1; positions outside the cycle contribute 1
        if 1 <= x <= w.cycle_length(cycle):
            return vals[VarId(cycle - 1, x)]
        return Fraction(1)

    tau: dict[VarId, Fraction] = {}
    for k in range(1, w.n + 1):
        s, j = w.position(k)
        num = Fraction(1)
        for cycle in range(s + 2, w.m + 1):
            num *= t_at(cycle, j - 1)
        for cycle in range(s + 1, w.m + 1):
            num *= t_at(cycle, j + 1)
        den = t_at(s + 1, j)
        for cycle in range(s + 2, w.m + 1):
            den *= t_at(cycle, j) ** 2
        tau[VarId(s, j)] = num / den

    moved = list(vec)
    for k in range(1, w.n + 1):
        i = w.letter(k)
        tk = vals[w.position_var(k)]
        moved[i - 1] /= tk
        moved[i] *= tk
    return tuple(moved), tau


def delta_G(spec: MinorSpec, a: Sequence[Fraction], t: Mapping[VarId, Fraction]) -> Fraction:
    """The position-k minor of diag(a) times the numeric cell matrix.

    Equals the product of the diagonal entries over the minor's rows times
    the symbolic minor evaluated at t; tests and the command line cross
    check the two routes.
    """
    mat = cell_matrix_value(spec.word, a, t)
    return det(submatrix(mat, spec.rows, spec.cols))
