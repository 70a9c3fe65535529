from __future__ import annotations

import json
import random

import pytest

from crystalminor import cluster
from crystalminor.bruhat import WordSpec
from crystalminor.cluster import (
    SeedMatrix,
    e_set,
    is_sign_skew_symmetric,
    mutate,
    seed_matrix,
    skew_symmetrizer,
)
from crystalminor.errors import IndexOutOfRange


def all_words(max_r: int):
    for r in range(1, max_r + 1):
        for m in range(1, r + 1):
            for last in range(1, r - m + 2):
                yield WordSpec(r, m, last)


def test_e_set_goldens():
    assert e_set(WordSpec(2, 2, 1)) == (-1, -2, 1)
    assert e_set(WordSpec(4, 4, 1)) == (-1, -2, -3, -4, 1, 2, 3, 5, 6, 8)
    assert e_set(WordSpec(3, 3, 1)) == (-1, -2, -3, 1, 2, 4)


def test_e_set_matches_independent_scan():
    for w in all_words(4):
        letters = w.letters()
        expect = [-k for k in range(1, w.r + 1)]
        for k in range(1, w.n + 1):
            if any(letters[l - 1] == letters[k - 1] for l in range(k + 1, w.n + 1)):
                expect.append(k)
        assert e_set(w) == tuple(expect)


def test_seed_matrix_rank_one():
    m = seed_matrix(WordSpec(1, 1, 1))
    assert m.rows == (-1, 1)
    assert m.cols == (-1,)
    assert m.entries == ((0,), (-1,))


def test_seed_matrix_rank_two_golden():
    m = seed_matrix(WordSpec(2, 2, 1))
    assert m.rows == (-1, -2, 1, 2, 3)
    assert m.cols == (-1, -2, 1)
    assert m.entries == (
        (0, -1, 1),
        (1, 0, -1),
        (-1, 1, 0),
        (0, -1, 1),
        (0, 0, -1),
    )
    assert m.entry(2, -2) == -1
    assert m.entry(3, 1) == -1


def test_seed_matrix_over_the_cap_is_refused_before_an_entry_is_built(monkeypatch):
    # 401 rows and 400 columns
    monkeypatch.setattr(cluster, "_entry", lambda *args: pytest.fail(f"built an entry {args[2:]}"))
    with pytest.raises(ValueError) as refused:
        seed_matrix(WordSpec(400, 1, 1))
    assert str(refused.value) == "the seed matrix has 160400 entries, more than 100000"


def test_seed_matrix_shape_validation():
    with pytest.raises(ValueError):
        SeedMatrix((1, 2), (3,), ((0,), (0,)))  # col label not a row label
    with pytest.raises(ValueError):
        SeedMatrix((1, 2), (1,), ((0,),))  # missing entry row
    with pytest.raises(ValueError):
        SeedMatrix((1, 2), (1,), ((0, 0), (0, 0)))  # row too wide


def test_principal_part_sign_skew_symmetric():
    for w in all_words(4):
        assert seed_matrix(w).is_sign_skew_symmetric()


def test_principal_part_is_skew_symmetric():
    # single-laced case: the symmetrizer can be taken to be the identity
    for w in all_words(4):
        p = seed_matrix(w).principal_part().entries
        n = len(p)
        assert all(p[i][j] == -p[j][i] for i in range(n) for j in range(n))


def test_skew_symmetrizer_exists_for_words():
    for w in all_words(4):
        d = skew_symmetrizer(seed_matrix(w).principal_part().entries)
        assert d is not None
        assert all(x > 0 for x in d)


def test_skew_symmetrizer_nontrivial():
    mat = ((0, 2), (-1, 0))
    assert skew_symmetrizer(mat) == (1, 2)
    assert skew_symmetrizer(((0, 1), (1, 0))) is None
    assert skew_symmetrizer(((0, 1, 0), (-1, 0, 1), (1, -1, 0))) is None


def test_skew_symmetrizer_refuses_an_inconsistent_cycle():
    # sign-skew-symmetric, but rows 0 and 1 force d_2 = d_0 / 2 and d_2 = d_0
    assert is_sign_skew_symmetric(((0, 1, 1), (-1, 0, 1), (-2, -1, 0)))
    assert skew_symmetrizer(((0, 1, 1), (-1, 0, 1), (-2, -1, 0))) is None


def test_skew_symmetrizer_checks_its_integer_diagonal(monkeypatch):
    # the rational diagonal is (1, 1/2); scaled by 1 instead of 2 it
    # truncates to (1, 0), which the final check refuses
    assert skew_symmetrizer(((0, 1), (-2, 0))) == (2, 1)
    monkeypatch.setattr(cluster, "lcm", lambda *args: 1)
    assert skew_symmetrizer(((0, 1), (-2, 0))) is None


def test_is_sign_skew_symmetric():
    assert is_sign_skew_symmetric(((0, 1), (-1, 0)))
    assert is_sign_skew_symmetric(((0, 0), (0, 0)))
    assert not is_sign_skew_symmetric(((0, 1), (0, 0)))
    assert not is_sign_skew_symmetric(((0, 1), (1, 0)))
    assert not is_sign_skew_symmetric(((1, 0), (0, 0)))


def test_mutate_rank_two_flip():
    assert mutate(((0, 1), (-1, 0)), 1) == ((0, -1), (1, 0))


def test_mutate_golden_with_fill_in():
    mat = ((0, 1, 0), (-1, 0, 1), (0, -1, 0))
    got = mutate(mat, 2)
    assert got == ((0, -1, 1), (1, 0, -1), (-1, 1, 0))


def test_mutate_involution_random():
    rng = random.Random(77)
    for _ in range(50):
        n = rng.randrange(2, 6)
        mat = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = rng.randrange(-2, 3)
                mat[i][j] = v
                mat[j][i] = -v
        mat = tuple(tuple(row) for row in mat)
        k = rng.randrange(1, n + 1)
        assert mutate(mutate(mat, k), k) == mat


def test_mutate_bounds():
    with pytest.raises(IndexOutOfRange):
        mutate(((0,),), 0)
    with pytest.raises(IndexOutOfRange):
        mutate(((0,),), 2)
    with pytest.raises(ValueError):
        mutate(((0, 1),), 1)


def test_mutation_preserves_sign_skew_symmetry():
    rng = random.Random(20260817)
    for w in all_words(3):
        mat = seed_matrix(w).principal_part().entries
        n = len(mat)
        for _ in range(20):
            k = rng.randrange(1, n + 1)
            mat = mutate(mat, k)
            assert is_sign_skew_symmetric(mat)


def test_seed_matrix_mutation_matches_square_mutation():
    # mutating the rectangular matrix and then restricting agrees with
    # mutating the principal square directly
    for w in (WordSpec(2, 2, 1), WordSpec(3, 3, 1), WordSpec(4, 2, 2)):
        sm = seed_matrix(w)
        for k in sm.cols:
            pos = sm.cols.index(k) + 1
            left = sm.mutate(k).principal_part().entries
            right = mutate(sm.principal_part().entries, pos)
            assert left == right


def test_seed_matrix_mutation_direction_must_be_column():
    sm = seed_matrix(WordSpec(2, 2, 1))
    with pytest.raises(IndexOutOfRange):
        sm.mutate(3)  # row label, not a column label


def test_seed_matrix_json():
    text = seed_matrix(WordSpec(1, 1, 1)).to_json()
    assert json.loads(text) == {
        "rows": [-1, 1],
        "cols": [-1],
        "entries": [[0], [-1]],
    }
