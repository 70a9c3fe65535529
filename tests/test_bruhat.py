"""Words, permutations, cell matrices, minors, coordinate changes."""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crystalminor import bruhat, cli, laurent
from crystalminor.bruhat import (
    MinorSpec,
    RationalRows,
    WordSpec,
    _delta_L_cached,
    apply_word,
    cell_matrix_value,
    delta_G,
    delta_L,
    delta_L_uncached,
    det,
    lower_product_value,
    phi_map,
    rational_dot,
)
from crystalminor.crystal import CrystalConfig, tau_render_poly
from crystalminor.errors import (
    IndexOutOfRange,
    MissingAssignment,
    NotInTorus,
    ZeroAssignment,
)
from crystalminor.laurent import LaurentPoly, Monomial, VarId, rational_values
from crystalminor.verify import all_word_specs


# ---------------------------------------------------------------------------
# words


def test_word_letters_full_longest():
    assert WordSpec(4, 4, 1).letters() == (1, 2, 3, 4, 1, 2, 3, 1, 2, 1)
    assert WordSpec(2, 1, 2).letters() == (1, 2)
    assert WordSpec(1, 1, 1).letters() == (1,)


def test_word_shape_validation():
    with pytest.raises(ValueError):
        WordSpec(4, 5, 1)
    with pytest.raises(ValueError):
        WordSpec(4, 2, 4)  # second cycle holds at most 3 letters
    with pytest.raises(ValueError):
        WordSpec(3, 1, 0)


def test_word_round_trips_from_letters():
    for r in range(1, 6):
        for m in range(1, r + 1):
            for last in range(1, r - m + 2):
                w = WordSpec(r, m, last)
                assert WordSpec.from_letters(r, w.letters()) == w


def test_from_letters_rejects_non_staircase():
    for r, bad in ((2, (2,)), (2, (1, 1)), (3, (1, 2, 1)), (2, (1, 2, 1, 2)), (2, ())):
        with pytest.raises(ValueError):
            WordSpec.from_letters(r, bad)


def longest_word(r: int) -> list[int]:
    """Letters of the staircase word of the longest element at rank r."""
    return [j for c in range(r, 0, -1) for j in range(1, c + 1)]


def from_letters_reference(r: int, letters) -> WordSpec | str:
    """The spec whose letters these are, found among all specs of rank r,
    or the message of the refusal: the empty word, a rank below 1, or the
    first letter that does not follow the longest word."""
    if not letters:
        return "empty word"
    if r < 1:
        return f"rank must be >= 1, got {r}"
    for spec in all_word_specs(r, min_r=r):
        if spec.letters() == tuple(letters):
            return spec
    longest = longest_word(r)
    pos = next(p for p in range(1, len(letters) + 1)
               if p > len(longest) or letters[p - 1] != longest[p - 1])
    return f"letter {letters[pos - 1]} at position {pos} breaks the staircase shape"


@st.composite
def near_staircase_words(draw):
    """A rank from -1 to 6 and a list of letters: a prefix of the longest
    word with a letter changed, inserted, dropped or appended, or any list
    of small letters."""
    r = draw(st.integers(-1, 6))
    longest = longest_word(max(r, 1))
    letters = longest[: draw(st.integers(0, len(longest)))]
    edit = draw(st.sampled_from(["none", "change", "insert", "drop", "append", "any"]))
    letter = st.integers(0, max(r, 1) + 2)
    if edit == "any":
        letters = draw(st.lists(letter, max_size=len(longest) + 2))
    elif edit == "append":
        letters += draw(st.lists(letter, min_size=1, max_size=3))
    elif edit != "none" and letters:
        at = draw(st.integers(0, len(letters) - 1))
        if edit == "change":
            letters[at] = draw(letter)
        elif edit == "insert":
            letters.insert(at, draw(letter))
        else:
            del letters[at]
    return r, letters


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(near_staircase_words())
def test_from_letters_matches_prefix_reference_property(case):
    r, letters = case
    want = from_letters_reference(r, letters)
    try:
        got = WordSpec.from_letters(r, letters)
    except ValueError as e:
        got = str(e)
    assert got == want


def test_from_letters_names_the_letter_that_overruns_its_cycle():
    with pytest.raises(ValueError, match="^letter 4 at position 4 breaks the staircase shape$"):
        WordSpec.from_letters(3, [1, 2, 3, 4, 1])
    with pytest.raises(ValueError, match="^letter 4 at position 4 breaks the staircase shape$"):
        WordSpec.from_letters(3, [1, 2, 3, 4])
    with pytest.raises(ValueError, match="^letter 3 at position 6 breaks the staircase shape$"):
        WordSpec.from_letters(3, [1, 2, 3, 1, 2, 3])
    with pytest.raises(ValueError, match="^rank must be >= 1, got 0$"):
        WordSpec.from_letters(0, [2])


def test_positions_and_variables():
    w = WordSpec(4, 4, 1)
    assert w.n == 10
    assert w.position_var(6) == VarId(1, 2) == (1, 2)
    assert w.position_var(9) == VarId(2, 2)
    assert w.position_var(10) == VarId(3, 1)
    assert w.letter(8) == 1
    assert w.variables() == tuple(w.position_var(k) for k in range(1, 11))
    assert w.variables() is w.variables()  # built once per word
    assert w == WordSpec(4, 4, 1) and hash(w) == hash(WordSpec(4, 4, 1))
    with pytest.raises(IndexOutOfRange):
        w.position_var(11)
    with pytest.raises(IndexOutOfRange):
        w.position_var(0)


def test_extension_chain():
    w = WordSpec(3, 1, 1)
    seen = [w]
    while (nxt := seen[-1].extension()) is not None:
        seen.append(nxt)
    assert seen[-1] == WordSpec(3, 3, 1)
    assert [s.n for s in seen] == list(range(1, 7))
    assert WordSpec(3, 3, 1).extension() is None


def test_minor_spec_intro_position():
    spec = MinorSpec(WordSpec(4, 4, 1), 6)
    assert spec.d == 2
    assert spec.mprime == 2
    assert spec.rows == (3, 4)


def test_minor_spec_derives_its_fields_once():
    w = WordSpec(4, 4, 1)
    spec = MinorSpec(w, 6)
    assert spec.rows is spec.rows
    assert (spec.d, spec.mprime, spec.rows) == (2, 2, (3, 4))
    # the cached fields stay out of equality, hash and repr
    fresh = MinorSpec(w, 6)
    assert spec == fresh and hash(spec) == hash(fresh)
    assert repr(spec) == repr(fresh) == "MinorSpec(word=WordSpec(r=4, m=4, last=1), k=6)"
    assert spec != MinorSpec(w, 5)


def test_minor_spec_edges():
    w = WordSpec(4, 4, 1)
    first = MinorSpec(w, 1)
    assert (first.d, first.mprime, first.rows) == (1, 1, (2,))
    last = MinorSpec(w, 10)
    assert (last.d, last.mprime, last.rows) == (1, 4, (5,))
    with pytest.raises(IndexOutOfRange):
        MinorSpec(w, 0)
    with pytest.raises(IndexOutOfRange):
        MinorSpec(w, 11)


# ---------------------------------------------------------------------------
# permutations


def u_leq(w: WordSpec, k: int) -> tuple[int, ...]:
    """Images of 1..r+1 under s_{i_1} ... s_{i_k}, the product of the first
    k letters of w, where s_i swaps i and i+1."""
    images = list(range(1, w.r + 2))
    for i in w.letters()[:k]:
        images[i - 1], images[i] = images[i], images[i - 1]
    return tuple(images)


def test_u_leq_full_longest_reverses():
    w = WordSpec(4, 4, 1)
    assert u_leq(w, 10) == (5, 4, 3, 2, 1)
    assert u_leq(WordSpec(2, 2, 1), 3) == (3, 2, 1)


def test_u_leq_intro_interval_image():
    w = WordSpec(4, 4, 1)
    assert set(u_leq(w, 6)[:2]) == {3, 4}


def test_rows_equal_permuted_interval_everywhere():
    for r in range(1, 5):
        for m in range(1, r + 1):
            for last in range(1, r - m + 2):
                w = WordSpec(r, m, last)
                for k in range(1, w.n + 1):
                    spec = MinorSpec(w, k)
                    assert set(spec.rows) == set(u_leq(w, k)[: spec.d])


# ---------------------------------------------------------------------------
# generators and determinants; the dense factors are the references that the
# row and column operations of bruhat are checked against


def _frac_matrix(mat):
    return [[Fraction(e) for e in row] for row in mat]


def _ring(t):
    """t lifted into its ring (a VarId becomes its Laurent variable), with
    that ring's zero and one."""
    if isinstance(t, VarId):
        t = LaurentPoly.from_terms([(Monomial.of((t, 1)), 1)])
    if isinstance(t, LaurentPoly):
        return t, LaurentPoly.zero(), LaurentPoly.one()
    return Fraction(t), Fraction(0), Fraction(1)


def _identity(size: int, one, zero):
    return [[one if a == b else zero for b in range(size)] for a in range(size)]


def gen_y(r: int, i: int, t):
    """Lower elementary factor: identity plus t in slot (i+1, i)."""
    t, zero, one = _ring(t)
    mat = _identity(r + 1, one, zero)
    mat[i][i - 1] = t
    return mat


def gen_xneg(r: int, i: int, t):
    """Negative-direction factor: the 2x2 block [[1/t, 0], [1, t]] at (i, i+1)."""
    t, zero, one = _ring(t)
    mat = _identity(r + 1, one, zero)
    if isinstance(t, LaurentPoly):
        # a Laurent t is one position variable, a unit
        ((m, c),) = t.terms
        mat[i - 1][i - 1] = LaurentPoly.from_terms([(m.inverse(), c)])
    else:
        mat[i - 1][i - 1] = 1 / t
    mat[i][i - 1] = one
    mat[i][i] = t
    return mat


def diag_matrix(a):
    return [[Fraction(x) if row == col else Fraction(0) for col in range(len(a))]
            for row, x in enumerate(a)]


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


def _dense_cell_matrix(w: WordSpec, values):
    """Reference: the word's factors multiplied out as dense matrices."""
    factors = [gen_xneg(w.r, i, t) for i, t in zip(w.letters(), values)]
    return functools.reduce(mat_mul, factors)


def submatrix(matrix, rows, cols):
    """Rows and columns are 1-based."""
    return [[matrix[a - 1][b - 1] for b in cols] for a in rows]


def _gauss_det(matrix) -> Fraction:
    mat = [list(row) for row in matrix]
    size = len(mat)
    sign = 1
    out = Fraction(1)
    for c in range(size):
        pivot = next((rr for rr in range(c, size) if mat[rr][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            mat[c], mat[pivot] = mat[pivot], mat[c]
            sign = -sign
        out *= mat[c][c]
        for rr in range(c + 1, size):
            f = mat[rr][c] / mat[c][c]
            for cc in range(c, size):
                mat[rr][cc] -= f * mat[c][cc]
    return sign * out


def alpha(r: int, i: int, t: Fraction):
    """Coweight torus factor: t at (i, i), 1/t at (i+1, i+1)."""
    mat = _frac_matrix([[int(a == b) for b in range(r + 1)] for a in range(r + 1)])
    mat[i - 1][i - 1], mat[i][i] = t, 1 / t
    return mat


def test_generator_shapes():
    t = Fraction(3, 2)
    assert alpha(2, 1, t) == _frac_matrix([[t, 0, 0], [0, Fraction(2, 3), 0], [0, 0, 1]])
    assert gen_y(2, 2, t) == _frac_matrix([[1, 0, 0], [0, 1, 0], [0, t, 1]])
    assert gen_xneg(2, 2, t) == _frac_matrix([[1, 0, 0], [0, Fraction(2, 3), 0], [0, 1, t]])


def test_negative_factor_splits_into_lower_times_torus():
    rng = random.Random(4242)
    for _ in range(40):
        r = rng.randint(1, 4)
        i = rng.randint(1, r)
        t = Fraction(rng.choice([x for x in range(-8, 9) if x]), rng.randint(1, 8))
        lhs = mat_mul(gen_y(r, i, t), alpha(r, i, 1 / t))
        assert lhs == gen_xneg(r, i, t)


def test_torus_moves_past_lower_factors():
    # conjugation scales the argument by c^2, 1/c, or not at all
    rng = random.Random(515)
    for _ in range(60):
        r = rng.randint(2, 4)
        i, j = rng.randint(1, r), rng.randint(1, r)
        c = Fraction(rng.choice([x for x in range(-6, 7) if x]), rng.randint(1, 6))
        t = Fraction(rng.choice([x for x in range(-6, 7) if x]), rng.randint(1, 6))
        alpha_inv = alpha(r, i, 1 / c)
        lhs = mat_mul(alpha_inv, gen_y(r, j, t))
        if i == j:
            moved = c * c * t
        elif abs(i - j) == 1:
            moved = t / c
        else:
            moved = t
        assert lhs == mat_mul(gen_y(r, j, moved), alpha_inv)


def test_det_matches_gaussian_elimination():
    rng = random.Random(77)
    for _ in range(50):
        size = rng.randint(1, 5)
        mat = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(size)]
            for _ in range(size)
        ]
        assert det(mat, rational_dot) == _gauss_det(mat)
    # integers, with size one and zero rows among them
    integer_cases = [[[7]], [[0]], [[1, 2, 3], [0, 0, 0], [4, 5, 6]], [[0, 0], [2, 5]]]
    for _ in range(50):
        size = rng.randint(1, 5)
        integer_cases.append([[rng.randint(-4, 4) for _ in range(size)] for _ in range(size)])
    for mat in integer_cases:
        got = det(mat, rational_dot)
        assert type(got) is int and got == _gauss_det([[Fraction(x) for x in row] for row in mat])


def _det_reference(matrix, fold):
    """The cofactor expansion memoized by frozensets of columns."""
    size = len(matrix)
    memo = {}

    def go(cols):
        row = matrix[size - len(cols)]
        if len(cols) == 1:
            (col,) = cols
            return row[col]
        if cols in memo:
            return memo[cols]
        triples = []
        for pos, col in enumerate(sorted(cols)):
            if row[col]:
                triples.append((-1 if pos % 2 else 1, row[col], go(cols - {col})))
        memo[cols] = acc = fold(triples)
        return acc

    return go(frozenset(range(size)))


def _recording(calls, fold):
    def wrapped(triples):
        calls.append(list(triples))
        return fold(triples)
    return wrapped


def test_det_folds_once_per_column_set():
    # a dense 5x5 matrix has 26 column sets of two or more columns; without
    # the memo the expansion folds 1 + 5 + 20 + 60 = 86 times
    mat = [[(3 * r + 2 * c) % 7 + 1 for c in range(5)] for r in range(5)]
    calls, ref_calls = [], []
    assert det(mat, _recording(calls, rational_dot)) == _det_reference(mat, _recording(ref_calls, rational_dot))
    assert len(calls) == 26
    # the fold sees the same triples in the same order as the set-keyed expansion
    assert calls == ref_calls
    w = WordSpec(3, 3, 1)
    cell = _dense_cell_matrix(w, w.variables())
    calls, ref_calls = [], []
    assert det(cell, _recording(calls, LaurentPoly.signed_dot)) == LaurentPoly.one()
    _det_reference(cell, _recording(ref_calls, LaurentPoly.signed_dot))
    assert calls == ref_calls


def test_det_of_cell_matrix_is_one():
    for r in range(1, 4):
        w = WordSpec(r, r, 1)
        assert det(_dense_cell_matrix(w, w.variables()), LaurentPoly.signed_dot) == LaurentPoly.one()


def _leibniz_det(matrix) -> LaurentPoly:
    """Sum over permutations of the signed products of one entry per row."""
    total = LaurentPoly.zero()
    size = len(matrix)
    for perm in itertools.permutations(range(size)):
        term = functools.reduce(operator.mul, (matrix[i][perm[i]] for i in range(size)),
                                LaurentPoly.one())
        inversions = sum(perm[a] > perm[b] for a in range(size) for b in range(a + 1, size))
        total = total + (-term if inversions % 2 else term)
    return total


small_polys = st.builds(
    LaurentPoly.from_terms,
    st.lists(st.tuples(
        st.builds(lambda pairs: Monomial.of(*pairs), st.lists(
            st.tuples(st.builds(VarId, st.integers(0, 1), st.integers(1, 2)), st.integers(-2, 2)),
            max_size=2)),
        st.integers(-3, 3)), max_size=2),
)


@st.composite
def laurent_matrices(draw):
    """A square matrix of small polynomials, zero entries frequent, some
    rows all zero."""
    size = draw(st.integers(1, 5))
    entry = st.one_of(st.just(LaurentPoly.zero()), small_polys)
    rows = [draw(st.lists(entry, min_size=size, max_size=size)) for _ in range(size)]
    for i in draw(st.sets(st.integers(0, size - 1), max_size=1)):
        rows[i] = [LaurentPoly.zero()] * size
    return rows


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(laurent_matrices())
def test_det_matches_leibniz_expansion_over_laurent_entries(matrix):
    assert det(matrix, LaurentPoly.signed_dot) == _leibniz_det(matrix)


# ---------------------------------------------------------------------------
# the rank-four cell matrix, entry by entry

EXPECTED_CELL = {
    (1, 1): "1/(τ_1τ_5τ_8τ_10)",
    (2, 1): "τ_1τ_5τ_8/(τ_2τ_6τ_9) + τ_1τ_5/(τ_2τ_6τ_10) + τ_1/(τ_2τ_8τ_10) + 1/(τ_5τ_8τ_10)",
    (2, 2): "τ_1τ_5τ_8τ_10/(τ_2τ_6τ_9)",
    (3, 1): "τ_2τ_6/(τ_3τ_7) + τ_2τ_8/(τ_3τ_9) + τ_5τ_8/(τ_6τ_9) + τ_2/(τ_3τ_10) + τ_5/(τ_6τ_10) + 1/(τ_8τ_10)",
    (3, 2): "τ_2τ_6τ_10/(τ_3τ_7) + τ_2τ_8τ_10/(τ_3τ_9) + τ_5τ_8τ_10/(τ_6τ_9)",
    (3, 3): "τ_2τ_6τ_9/(τ_3τ_7)",
    (4, 1): "τ_3/τ_4 + τ_6/τ_7 + τ_8/τ_9 + 1/τ_10",
    (4, 2): "τ_3τ_10/τ_4 + τ_6τ_10/τ_7 + τ_8τ_10/τ_9",
    (4, 3): "τ_3τ_9/τ_4 + τ_6τ_9/τ_7",
    (4, 4): "τ_3τ_7/τ_4",
    (5, 1): "1",
    (5, 2): "τ_10",
    (5, 3): "τ_9",
    (5, 4): "τ_7",
    (5, 5): "τ_4",
}

GOLDEN_MINOR = "τ_2/τ_4 + τ_3τ_5/(τ_4τ_6) + τ_5/τ_7 + τ_3/(τ_4τ_8) + τ_6/(τ_7τ_8) + 1/τ_9"


def test_cell_matrix_rank_four_golden():
    cfg = CrystalConfig(4)
    w = WordSpec(4, 4, 1)
    mat = _dense_cell_matrix(w, w.variables())
    for row in range(1, 6):
        for col in range(1, 6):
            want = EXPECTED_CELL.get((row, col), "0")
            assert tau_render_poly(cfg, mat[row - 1][col - 1]) == want, (row, col)


def test_delta_L_intro_golden():
    spec = MinorSpec(WordSpec(4, 4, 1), 6)
    assert tau_render_poly(CrystalConfig(4), delta_L(spec)) == GOLDEN_MINOR


def test_delta_L_small_words():
    cfg = CrystalConfig(2)
    w = WordSpec(2, 2, 1)
    assert tau_render_poly(cfg, delta_L(MinorSpec(w, 1))) == "τ_1/τ_2 + 1/τ_3"
    # a position at the very end of its color's story gives the unit minor
    assert delta_L(MinorSpec(WordSpec(2, 1, 2), 2)) == LaurentPoly.one()
    assert delta_L(MinorSpec(WordSpec(1, 1, 1), 1)) == LaurentPoly.one()


def test_delta_L_matches_dense_reference_minors():
    for r in range(1, 7):
        for m in range(1, r + 1):
            for last in range(1, r - m + 2):
                w = WordSpec(r, m, last)
                dense = _dense_cell_matrix(w, w.variables())
                for k in range(1, w.n + 1):
                    spec = MinorSpec(w, k)
                    want = det(submatrix(dense, spec.rows, range(1, spec.d + 1)), LaurentPoly.signed_dot)
                    assert delta_L(spec) == want, (w, k)


def test_minor_rows_are_as_wide_as_the_columns_the_word_touches(monkeypatch):
    # the word's factors touch columns up to its largest letter + 1, so a
    # one-letter word at rank 10^6 builds rows of width 2, not 10^6 + 1
    widths = []

    def recording(rows, steps):
        widths.append({len(row) for row in rows})
        return apply_word(rows, steps)

    monkeypatch.setattr(bruhat, "apply_word", recording)
    assert delta_L_uncached(MinorSpec(WordSpec(10**6, 1, 1), 1)) == LaurentPoly.one()
    assert widths == [{2}]
    for w in all_word_specs(5):
        for k in range(1, w.n + 1):
            widths.clear()
            delta_L_uncached(MinorSpec(w, k))
            # a word past its first cycle holds every letter: width r + 1
            assert widths == [{w.r + 1 if w.m > 1 else w.last + 1}], (w, k)


def test_apply_word_on_rationals_matches_dense_product():
    rng = random.Random(8622)
    for r in range(1, 6):
        for m in range(1, r + 1):
            for last in range(1, r - m + 2):
                w = WordSpec(r, m, last)
                values = [
                    Fraction(rng.choice([x for x in range(-7, 8) if x]), rng.randint(1, 7))
                    for _ in range(w.n)
                ]
                dense = _dense_cell_matrix(w, values)
                rows = sorted(rng.sample(range(r + 1), rng.randint(1, r + 1)))
                start = [[Fraction(int(a == b)) for b in range(r + 1)] for a in rows]
                untouched = [list(row) for row in start]
                steps = [(i, 1 / t, Fraction(1), t) for i, t in zip(w.letters(), values)]
                assert apply_word(start, steps) == [dense[a] for a in rows]
                assert start == untouched


def _block(size: int, i: int, alpha, beta, gamma):
    """Dense reference for apply_word's step: the identity with the block
    [[alpha, 0], [beta, gamma]] at rows and columns (i, i+1)."""
    mat = [[int(a == b) for b in range(size)] for a in range(size)]
    mat[i - 1][i - 1], mat[i][i - 1], mat[i][i] = alpha, beta, gamma
    return mat


def test_apply_word_general_step_on_ints_matches_dense_product():
    rng = random.Random(2417)
    for _ in range(200):
        size = rng.randint(2, 6)
        steps = []
        for _ in range(rng.randint(1, 12)):
            alpha, beta, gamma = (rng.randint(-9, 9) for _ in range(3))
            if alpha * gamma == 1 or beta == 1:
                continue
            steps.append((rng.randint(1, size - 1), alpha, beta, gamma))
        start = [[rng.randint(-5, 5) for _ in range(size)] for _ in range(rng.randint(1, size))]
        untouched = [list(row) for row in start]
        dense = functools.reduce(mat_mul, [_block(size, *step) for step in steps], _identity(size, 1, 0))
        assert apply_word(start, steps) == [
            [sum(row[k] * dense[k][c] for k in range(size)) for c in range(size)] for row in start
        ]
        assert start == untouched


def test_times_the_one_polynomial_is_the_left_operand():
    p = LaurentPoly.from_terms([(Monomial.of((VarId(0, 1), -2)), 3), (Monomial.one(), -1)])
    assert p * LaurentPoly.one() is p
    assert LaurentPoly.one() * p == p


def test_delta_L_memo_is_bounded():
    # a long-lived process that asks for many distinct minors keeps at most
    # 4,096 of them; no verify sweep reads the memo (see test_verify)
    assert _delta_L_cached.cache_info().maxsize == 4096


def test_minor_changes_when_same_letter_returns():
    # the same-letter skip in check_truncation is not vacuous: position 1 of (1, 2)
    # picks up a new term once the word grows to (1, 2, 1)
    before = delta_L(MinorSpec(WordSpec(2, 1, 2), 1))
    after = delta_L(MinorSpec(WordSpec(2, 2, 1), 1))
    assert before != after


# ---------------------------------------------------------------------------
# numeric side


def _random_torus(rng: random.Random, r: int) -> list[Fraction]:
    vec = [
        Fraction(rng.choice([x for x in range(-5, 6) if x]), rng.randint(1, 5))
        for _ in range(r)
    ]
    prod = Fraction(1)
    for x in vec:
        prod *= x
    vec.append(1 / prod)
    return vec


def _random_values(rng: random.Random, w: WordSpec) -> dict[VarId, Fraction]:
    return {
        v: Fraction(rng.choice([x for x in range(-6, 7) if x]), rng.randint(1, 6))
        for v in w.variables()
    }


def test_torus_validation():
    w = WordSpec(2, 2, 1)
    t = {v: Fraction(1) for v in w.variables()}
    spec = MinorSpec(w, 1)
    with pytest.raises(NotInTorus, match=r"^diagonal needs 3 entries, got 2$"):
        delta_G(spec, [Fraction(2), Fraction(1)], t)
    with pytest.raises(NotInTorus, match=r"^diagonal entries must be nonzero$"):
        delta_G(spec, [Fraction(2), Fraction(0), Fraction(1)], t)
    with pytest.raises(NotInTorus, match=r"^diagonal product is 2, not 1$"):
        delta_G(spec, [Fraction(2), Fraction(1), Fraction(1)], t)
    with pytest.raises(NotInTorus, match=r"^diagonal product is -3/10, not 1$"):
        delta_G(spec, [Fraction(-3, 4), Fraction(2, 5), 1], t)


def test_value_validation():
    w = WordSpec(2, 2, 1)
    a = [Fraction(1)] * 3
    good = {v: Fraction(1) for v in w.variables()}
    bad_zero = dict(good)
    bad_zero[VarId(0, 1)] = Fraction(0)
    with pytest.raises(ZeroAssignment):
        cell_matrix_value(w, a, bad_zero)
    missing = dict(good)
    del missing[VarId(1, 1)]
    with pytest.raises(MissingAssignment):
        cell_matrix_value(w, a, missing)


def test_torus_error_precedes_value_error():
    # with both inputs bad, every numeric entry point reports the torus
    w = WordSpec(2, 2, 1)
    bad_a = [Fraction(2)] * 3
    entry_points = (functools.partial(delta_G, MinorSpec(w, 1)), functools.partial(cell_matrix_value, w),
                    functools.partial(lower_product_value, w), functools.partial(phi_map, w))
    for bad_t in ({v: Fraction(0) for v in w.variables()}, {}):
        for f in entry_points:
            with pytest.raises(NotInTorus):
                f(bad_a, bad_t)


class _Ratio(Fraction):
    """A Fraction subclass: converted to a plain Fraction like an int is."""


def _error(f):
    try:
        f()
    except Exception as err:  # noqa: BLE001 - compared by type and text
        return type(err), str(err)
    return None


def test_int_fraction_and_subclass_inputs_agree():
    # inputs that are plain Fractions are taken as they are; ints and
    # subclasses convert, to equal values and the same errors
    w = WordSpec(2, 2, 1)
    ms = MinorSpec(w, 1)
    a = [Fraction(2), Fraction(3), Fraction(1, 6)]
    t = {v: Fraction(j + 2) for j, v in enumerate(w.variables())}
    forms = [lambda x: x, _Ratio, lambda x: int(x) if x.denominator == 1 else x]
    poly = delta_L(ms)

    def outputs(a_in, t_in):
        return (delta_G(ms, a_in, t_in), cell_matrix_value(w, a_in, t_in),
                lower_product_value(w, a_in, t_in), poly.evaluate(t_in), phi_map(w, a_in, t_in))

    def errors(a_in, t_in):
        return (_error(lambda: delta_G(ms, a_in, t_in)), _error(lambda: poly.evaluate(t_in)),
                _error(lambda: phi_map(w, a_in, t_in)))

    want = outputs(a, t)
    for form in forms:
        fa, ft = [form(x) for x in a], {v: form(x) for v, x in t.items()}
        got = outputs(fa, ft)
        assert got == want
        moved, tau = got[-1]
        assert all(type(x) is Fraction for x in (got[3], *moved, *tau.values()))
        pairs = rational_values(ft, ft)
        assert pairs == {v: x.as_integer_ratio() for v, x in t.items()}
        assert all(type(x) is int for pair in pairs.values() for x in pair)
        nums, dens, values = bruhat._point(w, fa, ft)
        assert all(type(x) is int for part in (nums, dens, *values.values()) for x in part)
    bad_a = [[Fraction(2), Fraction(0), Fraction(1, 2)], [Fraction(2), Fraction(1), Fraction(1)],
             [Fraction(2), Fraction(1, 2)]]
    bad_t = [{**t, VarId(0, 1): Fraction(0)}, {v: x for v, x in t.items() if v != VarId(1, 1)}]
    for a_in, t_in in [(b, t) for b in bad_a] + [(a, b) for b in bad_t]:
        want = errors(a_in, t_in)
        assert want[0] is not None and want[2] is not None
        for form in forms:
            fa, ft = [form(x) for x in a_in], {v: form(x) for v, x in t_in.items()}
            assert errors(fa, ft) == want


def test_phi_map_rank_one_golden():
    w = WordSpec(1, 1, 1)
    a = [Fraction(3), Fraction(1, 3)]
    t = {VarId(0, 1): Fraction(5)}
    moved, tau = phi_map(w, a, t)
    assert moved == (Fraction(3, 5), Fraction(5, 3))
    assert tau == {VarId(0, 1): Fraction(1, 5)}


def test_phi_map_rank_two_goldens():
    w = WordSpec(2, 1, 2)
    a = [Fraction(1)] * 3
    t1, t2 = Fraction(2), Fraction(7, 3)
    _, tau = phi_map(w, a, {VarId(0, 1): t1, VarId(0, 2): t2})
    assert tau[VarId(0, 1)] == t2 / t1
    assert tau[VarId(0, 2)] == 1 / t2

    w = WordSpec(2, 2, 1)
    t3 = Fraction(5, 4)
    _, tau = phi_map(w, a, {VarId(0, 1): t1, VarId(0, 2): t2, VarId(1, 1): t3})
    assert tau[VarId(0, 1)] == t2 / (t1 * t3 * t3)
    assert tau[VarId(0, 2)] == t3 / t2
    assert tau[VarId(1, 1)] == 1 / t3


def _phi_map_reference(w: WordSpec, a, t):
    """phi_map step by step in Fraction arithmetic, for valid inputs."""
    vec = tuple(Fraction(x) for x in a)
    vals = {v: Fraction(t[v]) for v in w.variables()}

    def t_at(cycle: int, x: int) -> Fraction:
        # cycle counted from 1; positions outside the word contribute 1
        return vals.get(VarId(cycle - 1, x), 1)

    tau = {}
    for v in w.variables():
        s, j = v
        num = Fraction(1)
        for cycle in range(s + 2, w.m + 1):
            num *= t_at(cycle, j - 1)
        for cycle in range(s + 1, w.m + 1):
            num *= t_at(cycle, j + 1)
        den = t_at(s + 1, j)
        for cycle in range(s + 2, w.m + 1):
            den *= t_at(cycle, j) ** 2
        tau[v] = num / den

    moved = list(vec)
    for i, tk in zip(w.letters(), vals.values()):
        moved[i - 1] /= tk
        moved[i] *= tk
    return tuple(moved), tau


def test_phi_map_matches_fraction_reference():
    # equal values, the same types and the same key order, at random and
    # at adversarial points (shared primes, values past 64 bits)
    rng = random.Random(2727)
    cases = [(w, _random_torus(rng, w.r), _random_values(rng, w))
             for w in all_word_specs(4) for _ in range(4)]
    for w, a, t in cases + list(_adversarial_cases()):
        moved, tau = phi_map(w, a, t)
        want_moved, want_tau = _phi_map_reference(w, a, t)
        assert type(moved) is tuple and moved == want_moved, (w, a, t)
        assert all(type(x) is Fraction for x in moved + tuple(tau.values()))
        assert list(tau.items()) == list(want_tau.items()), (w, a, t)


def _counted_inputs(monkeypatch, w: WordSpec, seed: int):
    """A random torus point and position values of w as instances of a
    Fraction subclass patched in as bruhat's and laurent's Fraction, so both
    take them as they are; each Fraction built after the call is recorded
    in `built` and each equality test in `compared`."""
    built, compared = [], []

    class Counted(Fraction):
        __hash__ = Fraction.__hash__

        def __new__(cls, *args):
            built.append(args)
            return super().__new__(cls, *args)

        def __eq__(self, other):
            compared.append(other)
            return super().__eq__(other)

    rng = random.Random(seed)
    a = [Counted(x) for x in _random_torus(rng, w.r)]
    t = {v: Counted(x) for v, x in _random_values(rng, w).items()}
    monkeypatch.setattr(bruhat, "Fraction", Counted)
    monkeypatch.setattr(laurent, "Fraction", Counted)
    built.clear()
    return a, t, built, compared


def test_phi_map_builds_one_fraction_per_output_entry(monkeypatch):
    # and reading the point compares no Fraction
    w = WordSpec(3, 2, 2)
    a, t, built, compared = _counted_inputs(monkeypatch, w, 27)
    moved, tau = phi_map(w, a, t)
    assert len(built) == len(moved) + len(tau) == w.r + 1 + w.n
    assert (moved, tau) == _phi_map_reference(w, a, t)
    compared.clear()
    bruhat._point(w, a, t)
    assert compared == []


def test_phi_matrices_build_no_fraction(monkeypatch):
    # and the position values are read as int pairs, building none; one phi
    # sample, the comparison included, builds only phi_map's r + 1 + n outputs
    w = WordSpec(3, 2, 2)
    a, t, built, _ = _counted_inputs(monkeypatch, w, 30)
    rational_values(w.variables(), t)
    assert built == []
    for m in cell_matrix_value(w, a, t), lower_product_value(w, a, t):
        assert 0 < sum(1 for row in m.N for n in row if n) < (w.r + 1) ** 2
    assert built == []
    moved, tau = phi_map(w, a, t)
    assert len(built) == len(moved) + len(tau) == w.r + 1 + w.n
    assert cell_matrix_value(w, a, t) == lower_product_value(w, moved, tau)
    assert len(built) == w.r + 1 + w.n


def _entries(m: RationalRows) -> list[list[Fraction]]:
    """The entries of m as Fractions, from its documented formula."""
    return [[Fraction(n, d * s) for n, s in zip(row, m.sigma)] for row, d in zip(m.N, m.dens)]


# numerators and denominators for RationalRows: zeros, ±1, the shared
# primes 2 and 3, and values past 64 bits; denominators of either sign
_ROW_NUMS = [0, 0, 1, -1, 2, -3, 6, -12, 18, 2 ** 61 - 1, -(3 ** 45)]
_ROW_DENS = [1, -1, 2, -2, 3, -6, 9, 2 ** 64, -(3 ** 41)]


def _rational_rows_cases():
    """Pairs of RationalRows: equal values under rescaled rows and columns,
    the same with one entry or denominator changed, and mismatched shapes."""
    rng = random.Random(3030)
    for _ in range(400):
        height, width = rng.randint(1, 3), rng.randint(1, 3)
        N = [[rng.choice(_ROW_NUMS) for _ in range(width)] for _ in range(height)]
        dens = [rng.choice(_ROW_DENS) for _ in range(height)]
        sigma = [rng.choice(_ROW_DENS) for _ in range(width)]
        u = [rng.choice(_ROW_DENS) for _ in range(height)]
        v = [rng.choice(_ROW_DENS) for _ in range(width)]
        N2 = [[n * u[j] * v[c] for c, n in enumerate(row)] for j, row in enumerate(N)]
        dens2 = [d * x for d, x in zip(dens, u)]
        sigma2 = [s * x for s, x in zip(sigma, v)]
        j, c = rng.randrange(height), rng.randrange(width)
        match rng.randrange(5):
            case 0:
                N2[j][c] += rng.choice([1, -1, 2 ** 70])
            case 1:
                N2[j][c] = -N2[j][c]
            case 2:
                sigma2[c] = -sigma2[c]
            case 3:
                dens2[j] *= rng.choice([2, -3])
        yield RationalRows(N, dens, sigma), RationalRows(N2, dens2, sigma2)
        yield RationalRows(N, dens, sigma), RationalRows(N2[:-1], dens2[:-1], sigma2)
        yield RationalRows(N, dens, sigma), RationalRows([row[:-1] for row in N2], dens2, sigma2[:-1])


def test_rational_rows_equality_matches_fraction_entries():
    # cross-multiplied equality against entrywise Fraction equality between
    # two RationalRows; nothing else, not even the list of its own entries,
    # equals one, in either operand order
    outcomes = set()
    for m1, m2 in _rational_rows_cases():
        rows1, rows2 = _entries(m1), _entries(m2)
        want = rows1 == rows2
        outcomes.add(want)
        assert (m1 == m2, m2 == m1, m1 != m2, m2 != m1) == (want, want, not want, not want), (m1, m2)
        assert (m1 == rows1, rows1 == m1, m1 != rows1, rows1 != m1) == (False, False, True, True)
    assert outcomes == {True, False}
    m = RationalRows([[1, 0]], [2], [-3, 1])
    assert m != "rows"
    with pytest.raises(TypeError):
        hash(m)


def test_phi_map_factorizes_the_cell_matrix():
    rng = random.Random(2024)
    for r in range(1, 4):
        for m in range(1, r + 1):
            for last in range(1, r - m + 2):
                w = WordSpec(r, m, last)
                for _ in range(5):
                    a = _random_torus(rng, r)
                    t = _random_values(rng, w)
                    moved, tau = phi_map(w, a, t)
                    assert cell_matrix_value(w, a, t) == lower_product_value(w, moved, tau)


def test_numeric_route_matches_dense_reference():
    # delta_G and delta_L share apply_word, so the torus-factor identity
    # alone cannot catch a wrong word product; the dense factors can
    rng = random.Random(1104)
    for w in all_word_specs(4):
        for _ in range(3):
            a = _random_torus(rng, w.r)
            t = _random_values(rng, w)
            values = [t[v] for v in w.variables()]
            cell = mat_mul(diag_matrix(a), _dense_cell_matrix(w, values))
            assert _entries(cell_matrix_value(w, a, t)) == cell, w
            lower = functools.reduce(
                mat_mul, [gen_y(w.r, i, x) for i, x in zip(w.letters(), values)], diag_matrix(a)
            )
            assert _entries(lower_product_value(w, a, t)) == lower, w
            for k in range(1, w.n + 1):
                spec = MinorSpec(w, k)
                want = det(submatrix(cell, spec.rows, range(1, spec.d + 1)), rational_dot)
                assert delta_G(spec, a, t) == want, (w, k)


# rationals whose numerators and denominators share the primes 2 and 3, so
# that the integer route's gcd reductions fire, with ±1 and two values far
# past 64 bits
_SHARED = [Fraction(sign * 2 ** i * 3 ** j) for sign in (1, -1) for i in range(3) for j in range(-2, 3)]
_WIDE = [Fraction(2 ** 61 - 1, 3 ** 40), Fraction(-(2 ** 61 - 1), 3 ** 40)]


def _adversarial_torus(rng: random.Random, r: int, pool) -> list[Fraction]:
    vec = [rng.choice(pool) for _ in range(r)]
    last = Fraction(1)
    for x in vec:
        last /= x
    return vec + [last]


def _adversarial_cases():
    rng = random.Random(6161)
    for pool in (_SHARED + _WIDE, [Fraction(1), Fraction(-1)]):
        for w in all_word_specs(4):
            for _ in range(2):
                t = {v: rng.choice(pool) for v in w.variables()}
                yield w, _adversarial_torus(rng, w.r, pool), t


def test_integer_route_matches_dense_rationals_on_adversarial_values(monkeypatch):
    # every result against the dense Fraction product and Gaussian
    # elimination; the negative factors take two gcds per letter, (g, g2),
    # and both must cut something somewhere
    gcds = []

    def recording_gcd(x, y):
        gcds.append(math.gcd(x, y))
        return gcds[-1]

    monkeypatch.setattr(bruhat, "gcd", recording_gcd)
    g_cut = g2_cut = False
    for w, a, t in _adversarial_cases():
        values = [t[v] for v in w.variables()]
        cell = mat_mul(diag_matrix(a), _dense_cell_matrix(w, values))
        gcds.clear()
        assert _entries(cell_matrix_value(w, a, t)) == cell, (w, a, t)
        g_cut |= any(g > 1 for g in gcds[0::2])
        g2_cut |= any(g > 1 for g in gcds[1::2])
        lower = functools.reduce(
            mat_mul, [gen_y(w.r, i, x) for i, x in zip(w.letters(), values)], diag_matrix(a)
        )
        assert _entries(lower_product_value(w, a, t)) == lower, (w, a, t)
        for k in range(1, w.n + 1):
            spec = MinorSpec(w, k)
            got = delta_G(spec, a, t)
            assert type(got) is Fraction
            assert got == _gauss_det(submatrix(cell, spec.rows, range(1, spec.d + 1))), (w, k, a, t)
    assert g_cut and g2_cut


def test_minor_command_prints_the_dense_reference_at_wide_values(capsys):
    w = WordSpec(3, 3, 1)
    k = 2
    wide, shared = _WIDE[0], Fraction(-4, 9)
    a = [wide, shared, Fraction(3), 1 / (wide * shared * 3)]
    values = [wide, shared, Fraction(-1), _WIDE[1], Fraction(6), Fraction(1, 2)]
    spec = MinorSpec(w, k)
    cell = mat_mul(diag_matrix(a), _dense_cell_matrix(w, values))
    want = _gauss_det(submatrix(cell, spec.rows, range(1, spec.d + 1)))
    text = ",".join
    argv = ["minor", "--r", "3", "--word", text(map(str, w.letters())), "--k", str(k),
            "--a", text(map(str, a)), "--t", text(map(str, values))]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == f"{want}\n"


def test_delta_G_torus_factor_identity():
    rng = random.Random(321)
    for r in range(1, 4):
        w = WordSpec(r, r, 1)
        for k in range(1, w.n + 1):
            spec = MinorSpec(w, k)
            for _ in range(3):
                a = _random_torus(rng, r)
                t = _random_values(rng, w)
                factor = Fraction(1)
                for row in spec.rows:
                    factor *= a[row - 1]
                assert delta_G(spec, a, t) == factor * delta_L(spec).evaluate(t)


def test_delta_G_trivial_diagonal():
    w = WordSpec(2, 2, 1)
    spec = MinorSpec(w, 1)
    t = {VarId(0, 1): Fraction(2), VarId(0, 2): Fraction(3), VarId(1, 1): Fraction(5)}
    a = [Fraction(1)] * 3
    # tau_1/tau_2 + 1/tau_3 at (2, 3, 5)
    assert delta_G(spec, a, t) == Fraction(2, 3) + Fraction(1, 5)
