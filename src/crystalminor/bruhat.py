"""Staircase reduced words, unipotent matrices and generalized minors.

A word spec fixes the rank ``r`` and a prefix of the staircase reduced word
of the longest element, (1, 2, ..., r, 1, 2, ..., r-1, ..., 1): ``m``
cycles, the last one cut off at the letter ``last``.  Position ``k`` of such
a word carries the variable ``Y[s,j]`` where ``s`` counts completed cycles
and ``j`` is the letter; these are exactly the variables with a
single-index alias.  One table of these variables, built from the cycles,
answers every position question: letters, variables, (s, j) of a position.

Substituting the position variables into a product of negative factors, one
per letter, yields a matrix over Laurent polynomials whose initial minors
this module extracts (``delta_L``).  No matrix product is ever formed: a
minor starts from the d identity rows it needs and applies the word's
factors as column operations (``apply_word``), then takes the determinant of
the first d columns.  ``apply_word`` takes each factor as the three entries
of its 2x2 block in the ring of the rows, so it knows no ring: the symbolic
side passes one-term polynomials and the one polynomial, the numeric side
integers.  ``det`` knows no ring either: the caller supplies the fold that
sums signed products of entries and cofactors, ``LaurentPoly.signed_dot``
on the symbolic side and ``rational_dot`` on the numeric side.

The numeric side (``delta_G``, ``cell_matrix_value``,
``lower_product_value``, ``phi_map``) works over the integers: each reads
its point (a; t) once (``_point``), the diagonal before the values, as int
numerators and denominators, and every rational after that is an int pair.
The cell matrix is dressed by a diagonal with determinant one, which scales
its rows, so the word is applied to rows of that diagonal; each row keeps
its diagonal entry's denominator and each column one denominator shared by
all rows, updated factor by factor (``_integer_rows``).  ``delta_G`` takes
the minors of that matrix from its d rows and builds one ``Fraction`` per
minor.  ``phi_map`` rewrites such coordinates as a diagonal times a product
of lower elementary factors, each of them a column operation too
(``lower_product_value``), and builds one ``Fraction`` per output entry.
The two matrices are only ever compared with each other, so both stay
integers (``RationalRows``), compared entrywise by cross-multiplication,
and build no ``Fraction``.  The dense factors themselves live only in the
tests, as references.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, prod
from typing import Mapping, Sequence

from .errors import IndexOutOfRange, NotInTorus
from .laurent import LaurentPoly, VarId, pack, rational_values

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
        return len(self._table)

    @cached_property
    def _table(self) -> tuple[VarId, ...]:
        # the position variables Y[s,j], cycle by cycle; tuple() of a list,
        # not of a generator: CPython builds the latter at a guessed length
        # and resizes it, so each call parks one more tuple on the free list
        # of the real length (up to 2,000 per length)
        return tuple([
            VarId(s, j)
            for s in range(self.m)
            for j in range(1, (self.last if s == self.m - 1 else self.r - s) + 1)
        ])

    @cached_property
    def _steps(self) -> tuple[tuple[int, LaurentPoly, LaurentPoly, LaurentPoly], ...]:
        # apply_word's (letter, 1/t, 1, t) per position variable, shared by
        # every symbolic minor of this word
        one = LaurentPoly.one()
        steps = []
        for v in self._table:
            key = pack([(v, 1)])
            t, t_inv = LaurentPoly.from_packed({key: 1}, 1), LaurentPoly.from_packed({-key: 1}, 1)
            steps.append((v.i, t_inv, one, t))
        return tuple(steps)

    def variables(self) -> tuple[VarId, ...]:
        """The position variables in word order, built once per word."""
        return self._table

    def letters(self) -> tuple[int, ...]:
        return tuple([v.i for v in self._table])

    def letter(self, k: int) -> int:
        return self.position_var(k).i

    def position_var(self, k: int) -> VarId:
        if not 1 <= k <= self.n:
            raise IndexOutOfRange(k, "word position")
        return self._table[k - 1]

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
        """The staircase word whose letters these are: a prefix of the
        longest word's (1, ..., r, 1, ..., r-1, ..., 1)."""
        if not letters:
            raise ValueError("empty word")
        if r < 1:
            raise ValueError(f"rank must be >= 1, got {r}")
        longest = (j for c in range(r, 0, -1) for j in range(1, c + 1))
        for pos, letter in enumerate(letters, start=1):
            if letter != next(longest, None):
                raise ValueError(
                    f"letter {letter} at position {pos} breaks the staircase shape"
                )
        return WordSpec(r, letters.count(1), letters[-1])


@dataclass(frozen=True)
class MinorSpec:
    """A word position k marking one initial minor of the cell matrix."""

    word: WordSpec
    k: int

    def __post_init__(self):
        if not 1 <= self.k <= self.word.n:
            raise IndexOutOfRange(self.k, "word position")

    # derived once per spec; equality, hash and repr read the fields only

    @cached_property
    def d(self) -> int:
        """Size of the minor: the letter at position k."""
        return self.word.letter(self.k)

    @cached_property
    def mprime(self) -> int:
        """The cycle containing position k, counted from 1."""
        return self.word.position_var(self.k).s + 1

    @cached_property
    def rows(self) -> tuple[int, ...]:
        mp = self.mprime
        return tuple(range(mp + 1, mp + self.d + 1))


# ---------------------------------------------------------------------------
# matrices over a ring (Laurent polynomials or rationals)


def apply_word(rows, steps):
    """Right-multiply a block of rows by one factor per step.

    Step ``(i, alpha, beta, gamma)`` stands for the identity with the 2x2
    block [[alpha, 0], [beta, gamma]] at rows and columns (i, i+1), its
    entries given in the ring of the rows.  It changes only columns i and
    i+1: ``col_i <- col_i * alpha + col_{i+1} * beta`` and ``col_{i+1} <-
    col_{i+1} * gamma``.  So a word of n letters costs O(n) ring operations
    per row, and zero entries cost nothing.  The negative factor at t is
    ``(i, 1/t, 1, t)``; the symbolic side passes the one polynomial as beta,
    whose product returns its left operand.  The input rows are left
    unchanged.

    >>> apply_word([[1, 0, 0], [0, 2, 0]], [(1, 3, 5, 7)])
    [[3, 0, 0], [10, 14, 0]]
    >>> key = pack([(VarId(0, 1), 1)])
    >>> y, y_inv = LaurentPoly.from_packed({key: 1}, 1), LaurentPoly.from_packed({-key: 1}, 1)
    >>> unit = [[LaurentPoly.one(), LaurentPoly.zero()], [LaurentPoly.zero(), LaurentPoly.one()]]
    >>> [[str(e) for e in row] for row in apply_word(unit, [(1, y_inv, LaurentPoly.one(), y)])]
    [['Y[0,1]^-1', '0'], ['1', 'Y[0,1]']]
    """
    out = [list(row) for row in rows]
    for i, alpha, beta, gamma in steps:
        for row in out:
            a, b = row[i - 1], row[i]
            if b:
                row[i - 1] = a * alpha + b * beta if a else b * beta
                row[i] = b * gamma
            elif a:
                row[i - 1] = a * alpha
    return out


def _symbolic_rows(w: WordSpec, rows: Sequence[int]):
    """Rows (1-based) of the symbolic cell matrix, by column operations."""
    zero, one = LaurentPoly.zero(), LaurentPoly.one()
    identity_rows = [[one if c == a else zero for c in range(1, w.r + 2)] for a in rows]
    return apply_word(identity_rows, w._steps)


def det(matrix, fold):
    """Determinant by cofactor expansion along the rows in their given
    order, memoized by the columns left as an int bitmask (bit c for
    column c).

    With j columns left the expansion uses row size - j and takes those
    columns in ascending order, the sign alternating by position among them;
    the last row reads the one column its mask has left.  The caller
    supplies the ring's sum of products: ``fold`` takes a list of (sign,
    entry, cofactor) triples, sign ±1, and returns the sum of sign * entry
    * cofactor, the ring's zero for an empty list.  Zero entries are
    skipped, so a row with no nonzero entry left gives that zero.

    >>> det([[Fraction(2), Fraction(1)], [Fraction(3), Fraction(4)]], rational_dot)
    Fraction(5, 1)
    """
    size = len(matrix)
    if size == 0:
        raise ValueError("empty matrix")
    memo: dict[int, object] = {}
    last = size - 1

    def go(cols: int, i: int):
        row = matrix[i]
        if i == last:
            return row[cols.bit_length() - 1]
        if cols in memo:
            return memo[cols]
        triples = []
        sign, rest = 1, cols
        while rest:
            low = rest & -rest  # the lowest column left
            rest ^= low
            entry = row[low.bit_length() - 1]
            if entry:
                triples.append((sign, entry, go(cols ^ low, i + 1)))
            sign = -sign
        memo[cols] = acc = fold(triples)
        return acc

    return go((1 << size) - 1, 0)


def rational_dot(triples):
    """The sum of sign * a * b over (sign, a, b) triples of integers or
    rationals, 0 for none: the fold ``det`` takes over Z and Q."""
    total = 0
    for sign, a, b in triples:
        total = total - a * b if sign < 0 else total + a * b
    return total


def delta_L_uncached(spec: MinorSpec) -> LaurentPoly:
    """The minor of the symbolic cell matrix marked by position k, computed
    afresh and kept nowhere: what every verify sweep calls."""
    # only the minor's d rows are built; its columns are the first d
    return det([row[: spec.d] for row in _symbolic_rows(spec.word, spec.rows)], LaurentPoly.signed_dot)


@lru_cache(maxsize=4096)
def delta_L(spec: MinorSpec) -> LaurentPoly:
    """``delta_L_uncached`` memoized per spec, for requests that repeat in
    one process; the ``minor`` command is its one caller in the package."""
    return delta_L_uncached(spec)


# bench/workloads.py's forget_minors clears the memo by this name, or nothing
_delta_L_cached = delta_L


# ---------------------------------------------------------------------------
# numeric side: torus vectors and the coordinate change


def _point(w: WordSpec, a: Sequence[Fraction], t: Mapping[VarId, Fraction]):
    """A point (a; t) read once, the diagonal first: the numerators and the
    denominators of a, r + 1 nonzero rationals whose product is one
    (NotInTorus otherwise), and ``rational_values``' int pairs of t."""
    # a Fraction subclass converts too
    pairs = [(x if type(x) is Fraction else Fraction(x)).as_integer_ratio() for x in a]
    if len(pairs) != w.r + 1:
        raise NotInTorus(f"diagonal needs {w.r + 1} entries, got {len(pairs)}")
    nums, dens = map(list, zip(*pairs))
    if 0 in nums:
        raise NotInTorus("diagonal entries must be nonzero")
    top, bottom = prod(nums), prod(dens)
    if top != bottom:
        raise NotInTorus(f"diagonal product is {Fraction(top, bottom)}, not 1")
    return nums, dens, rational_values(w.variables(), t)


def _integer_rows(point, rows: Sequence[int], lower: bool = False):
    """Rows (1-based) of diag(a) times one factor per position value, in
    word order, over the integers; point is ``_point``'s reading of (a; t).

    Returns (N, dens, sigma): the entry in row ``rows[j]`` and column c is
    ``N[j][c - 1] / (dens[j] * sigma[c - 1])``, where dens[j] is the
    denominator of that row's diagonal entry and sigma holds one
    denominator per column, shared by all rows.  The factor at letter i
    with value p/q is the negative one, block [[q/p, 0], [1, p/q]] at
    columns (i, i+1), or with ``lower`` the lower elementary one, block
    [[1, 0], [p/q, 1]].  Either puts column i over one denominator, cut by
    the gcd g of its two terms' scales; the negative factor scales column
    i+1 by p/q, cut by the gcd of p and that column's denominator.  Only
    sigma changes here, so each step's (alpha, beta, gamma) is known before
    ``apply_word`` runs.
    """
    nums, row_dens, values = point
    sigma = [1] * len(nums)
    steps = []
    for v, (p, q) in values.items():
        i = v.i
        s, s1 = sigma[i - 1], sigma[i]  # denominators of columns i and i+1
        g = gcd(q * s1, p * s)
        alpha, beta = q * s1 // g, p * s // g
        if lower:
            sigma[i - 1] = alpha * s
            gamma = 1
        else:
            sigma[i - 1] = beta * s1
            g2 = gcd(p, s1)
            gamma, sigma[i] = p // g2, q * s1 // g2
        steps.append((i, alpha, beta, gamma))
    start = [[n if c == row else 0 for c, n in enumerate(nums, start=1)] for row in rows]
    return apply_word(start, steps), [row_dens[row - 1] for row in rows], sigma


_ONE = (1, 1)


@dataclass(frozen=True, eq=False)
class RationalRows:
    """A matrix of rationals kept as ``_integer_rows`` computes it: entry
    (j, c) is ``N[j][c] / (dens[j] * sigma[c])``, each denominator a
    nonzero int of either sign.

    Two of them are equal when their shapes are and, entry by entry,
    ``n1 * d2 * s2 == n2 * d1 * s1``, which is exact for any signs and
    builds no Fraction.  Nothing else equals one, and they have no hash.

    >>> m = RationalRows([[2, 0], [3, 6]], [1, -3], [2, 1])
    >>> m == RationalRows([[-2, 0], [-1, 2]], [-1, 1], [2, -1]), m != [[1, 0], [Fraction(-1, 2), -2]]
    (True, True)
    """

    N: list[list[int]]
    dens: list[int]
    sigma: list[int]

    def __eq__(self, other):
        if not isinstance(other, RationalRows):
            return NotImplemented
        if len(self.N) != len(other.N) or len(self.sigma) != len(other.sigma):
            return False
        sigma, sigma2 = self.sigma, other.sigma
        for row, d, row2, d2 in zip(self.N, self.dens, other.N, other.dens):
            for n, s, n2, s2 in zip(row, sigma, row2, sigma2):
                if n * d2 * s2 != n2 * d * s:
                    return False
        return True


def cell_matrix_value(w: WordSpec, a: Sequence[Fraction], t: Mapping[VarId, Fraction]) -> RationalRows:
    """diag(a) times the numeric cell matrix, the matrix delta_G minors, as
    the integer rows of a ``RationalRows``: it builds no Fraction."""
    return RationalRows(*_integer_rows(_point(w, a, t), range(1, w.r + 2)))


def lower_product_value(w: WordSpec, a: Sequence[Fraction], t: Mapping[VarId, Fraction]) -> RationalRows:
    """diag(a) times one lower elementary factor per letter, as the integer
    rows of a ``RationalRows``: it builds no Fraction.

    The factor at letter i is the identity plus t in slot (i+1, i), so it
    adds t times column i+1 to column i.
    """
    return RationalRows(*_integer_rows(_point(w, a, t), range(1, w.r + 2), lower=True))


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
    value map assigns a rational to every position variable of w.  Every
    value is carried as an integer numerator and denominator, and each
    output entry becomes one Fraction at the end.
    """
    nums, dens, pairs = _point(w, a, t)
    # t[c, x] is grid[c][x]: the pair of VarId(c, x), (1, 1) off the word
    grid = [[_ONE] * (w.r + 2) for _ in range(w.m)]
    for (s, j), pair in pairs.items():
        grid[s][j] = pair

    tau: dict[VarId, Fraction] = {}
    for v, (d, n) in pairs.items():
        # tau[s, j] = n / d = prod t[c, j - 1] / t[c, j]**2 over s < c < m,
        # times prod t[c, j + 1] over s <= c < m, over t[s, j]
        s, j = v
        for row in grid[s + 1:]:
            x, y = row[j - 1]
            p, q = row[j]
            n, d = n * x * q * q, d * y * p * p
        for row in grid[s:]:
            x, y = row[j + 1]
            n, d = n * x, d * y
        tau[v] = Fraction(n, d)

    for (_, i), (p, q) in pairs.items():
        # moved[i - 1] /= t and moved[i] *= t
        nums[i - 1] *= q
        dens[i - 1] *= p
        nums[i] *= p
        dens[i] *= q
    return tuple(map(Fraction, nums, dens)), tau


def delta_G(spec: MinorSpec, a: Sequence[Fraction], t: Mapping[VarId, Fraction]) -> Fraction:
    """The position-k minor of diag(a) times the numeric cell matrix.

    Equals the product of the diagonal entries over the minor's rows times
    the symbolic minor evaluated at t; tests and the command line cross
    check the two routes.
    """
    # only the minor's d rows are built; its columns are the first d
    w, d = spec.word, spec.d
    N, dens, sigma = _integer_rows(_point(w, a, t), spec.rows)
    return Fraction(det([row[:d] for row in N], rational_dot), prod(dens) * prod(sigma[:d]))
