from __future__ import annotations

import json
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crystalminor import cli
from crystalminor.bruhat import MinorSpec, WordSpec, delta_L
from crystalminor.crystal import CrystalConfig, apply_e, tau_render, tau_render_poly
from crystalminor.errors import NotTauRenderable, RankTooSmall
from crystalminor.laurent import LaurentPoly, Monomial, VarId, pack, poly_to_json
from crystalminor.paths import (
    Path,
    PathSpec,
    PathStats,
    _unit,
    cbar,
    closed_form_sum,
    count_paths,
    d1_closed_form,
    edge_label,
    enumerate_paths,
    k_arrays,
    label,
    path_sum,
    paths_dot,
    paths_json,
    paths_text,
    rebuild,
    stats,
)

# the six paths of the width-2, three-step, shift-2 family, in order
GOLDEN_ROWS = (
    ((1, 2), (1, 2), (2, 3), (3, 4)),
    ((1, 2), (1, 3), (2, 3), (3, 4)),
    ((1, 2), (1, 3), (2, 4), (3, 4)),
    ((1, 2), (2, 3), (2, 3), (3, 4)),
    ((1, 2), (2, 3), (2, 4), (3, 4)),
    ((1, 2), (2, 3), (3, 4), (3, 4)),
)
GOLDEN_LABELS = (
    "1/τ_9",
    "τ_6/(τ_7τ_8)",
    "τ_3/(τ_4τ_8)",
    "τ_5/τ_7",
    "τ_3τ_5/(τ_4τ_6)",
    "τ_2/τ_4",
)
GOLDEN_MINOR = "τ_2/τ_4 + τ_3τ_5/(τ_4τ_6) + τ_5/τ_7 + τ_3/(τ_4τ_8) + τ_6/(τ_7τ_8) + 1/τ_9"

SPEC232 = PathSpec(2, 3, 2)

SWEEP = [
    PathSpec(d, m, mp)
    for d in (1, 2, 3)
    for m in (1, 2, 3, 4)
    for mp in range(1, m + 1)
]


def brute_paths(spec: PathSpec) -> set[Path]:
    """Filtering generator independent of the DFS in enumerate_paths."""
    found = set()
    for steps in product(product((0, 1), repeat=spec.d), repeat=spec.m):
        rows = [spec.source()]
        for step in steps:
            rows.append(tuple(a + b for a, b in zip(rows[-1], step)))
        try:
            p = Path(tuple(rows))
        except ValueError:
            continue
        if p.mprime == spec.mprime:
            found.add(p)
    return found


def test_spec_validation():
    with pytest.raises(ValueError):
        PathSpec(0, 3, 2)
    with pytest.raises(ValueError):
        PathSpec(1, 3, 0)
    with pytest.raises(ValueError):
        PathSpec(1, 3, 4)
    assert SPEC232.depth == 1
    assert SPEC232.source() == (1, 2)
    assert SPEC232.target() == (3, 4)


def test_path_validation():
    Path(GOLDEN_ROWS[0])
    with pytest.raises(ValueError):
        Path(((1, 2), (1, 3)))  # last level not consecutive
    with pytest.raises(ValueError):
        Path(((1, 2), (2, 2), (3, 4), (3, 4)))  # not strictly increasing
    with pytest.raises(ValueError):
        Path(((1, 2), (1, 4), (3, 4), (3, 4)))  # step of size two
    with pytest.raises(ValueError):
        Path(((1, 3), (2, 3), (2, 3), (3, 4)))  # first level not 1..d
    with pytest.raises(ValueError):
        Path(((1, 2),))
    p = Path(GOLDEN_ROWS[3])
    assert (p.d, p.m, p.mprime) == (2, 3, 2)
    assert [row[0] for row in p.rows] == [1, 2, 2, 3]
    assert [row[1] for row in p.rows] == [2, 3, 3, 4]


def test_enumeration_golden():
    got = enumerate_paths(SPEC232)
    assert tuple(p.rows for p in got) == GOLDEN_ROWS


def test_enumeration_is_lexicographic():
    for spec in SWEEP:
        flats = [sum(p.rows, ()) for p in enumerate_paths(spec)]
        assert flats == sorted(flats)
        assert len(set(flats)) == len(flats)


def test_enumeration_matches_brute_force():
    for spec in SWEEP:
        got = enumerate_paths(spec)
        assert set(got) == brute_paths(spec)
        # generated paths skip validation; the validating constructor agrees
        for p in got:
            assert Path(p.rows) == p


def test_forced_path():
    for d, m in ((1, 1), (2, 4), (3, 3)):
        spec = PathSpec(d, m, m)
        got = enumerate_paths(spec)
        assert len(got) == 1
        assert all(
            got[0].rows[s + 1][i] == got[0].rows[s][i] + 1
            for s in range(m)
            for i in range(d)
        )
        assert label(spec, got[0], d + m) == Monomial.one()
        assert path_sum(spec, d + m) == LaurentPoly.one()


def test_width_one_count_is_binomial():
    for m in range(1, 7):
        for mp in range(1, m + 1):
            assert len(enumerate_paths(PathSpec(1, m, mp))) == math.comb(m, mp)


def test_labels_golden():
    cfg = CrystalConfig(4)
    got = [tau_render(cfg, label(SPEC232, p, 4)) for p in enumerate_paths(SPEC232)]
    assert got == list(GOLDEN_LABELS)


def test_edge_labels_golden():
    cfg = CrystalConfig(4)
    # the three edges out of the source and one deeper edge, by hand
    assert tau_render(cfg, edge_label(4, 3, 0, (1, 2), (1, 2))) == "1/τ_9"
    assert tau_render(cfg, edge_label(4, 3, 0, (1, 2), (1, 3))) == "1/τ_8"
    assert tau_render(cfg, edge_label(4, 3, 0, (1, 2), (2, 3))) == "1"
    assert tau_render(cfg, edge_label(4, 3, 1, (2, 3), (2, 4))) == "τ_5/τ_6"
    assert tau_render(cfg, edge_label(4, 3, 2, (3, 4), (3, 4))) == "τ_2/τ_4"


def test_path_sum_golden():
    cfg = CrystalConfig(4)
    assert tau_render_poly(cfg, path_sum(SPEC232, 4)) == GOLDEN_MINOR


def test_path_sum_has_unit_coefficients():
    for spec in SWEEP:
        r = spec.d + spec.m - 1
        poly = path_sum(spec, r)
        assert len(poly) == len(enumerate_paths(spec))
        assert all(c == 1 for _, c in poly.terms)


def test_labels_injective():
    for spec in SWEEP:
        r = spec.d + spec.m - 1
        labels = [label(spec, p, r) for p in enumerate_paths(spec)]
        assert len(set(labels)) == len(labels)


def test_label_checks_shape():
    p = enumerate_paths(SPEC232)[0]
    with pytest.raises(ValueError):
        label(PathSpec(2, 3, 1), p, 4)


def test_rank_too_small():
    p = enumerate_paths(SPEC232)[0]
    with pytest.raises(RankTooSmall):
        label(SPEC232, p, 2)
    with pytest.raises(RankTooSmall):
        closed_form_sum(SPEC232, 2)
    with pytest.raises(RankTooSmall):
        d1_closed_form(3, 2, 2)
    for r in (0, -1):
        for compute in (path_sum, closed_form_sum):
            with pytest.raises(RankTooSmall, match=f"^rank must be >= 1, got {r}$"):
                compute(SPEC232, r)


def test_cbar_slots():
    assert cbar(4, 0, 1) == Monomial.of((VarId(0, 1), -1))
    assert cbar(4, 2, 2) == Monomial.of((VarId(2, 1), 1), (VarId(2, 2), -1))
    # slot r+1 is a unit, so only the numerator survives
    assert cbar(4, 0, 5) == Monomial.of((VarId(0, 4), 1))
    with pytest.raises(RankTooSmall):
        cbar(4, 3, 2)


def test_stats_golden():
    p1 = Path(GOLDEN_ROWS[0])
    st = stats(p1)
    assert st == PathStats(q=((0, 0),), kk=((1, 2),))
    forced = enumerate_paths(PathSpec(3, 3, 3))[0]
    assert stats(forced) == PathStats(q=(), kk=())


def test_stats_invariants():
    for spec in SWEEP:
        for p in enumerate_paths(spec):
            st = stats(p)
            assert len(st.q) == spec.depth and len(st.kk) == spec.depth
            for j0 in range(spec.depth):
                for i0 in range(spec.d):
                    # index relation in 1-based form: q = k + j - i - 1
                    assert st.q[j0][i0] == st.kk[j0][i0] + j0 - i0 - 1
                row = st.kk[j0]
                assert all(row[i] < row[i + 1] for i in range(spec.d - 1))
                assert 1 <= row[0] and row[-1] <= spec.mprime + spec.d
                qrow = st.q[j0]
                assert all(qrow[i] <= qrow[i + 1] for i in range(spec.d - 1))
            for i0 in range(spec.d):
                col = [st.kk[j0][i0] for j0 in range(spec.depth)]
                assert all(a <= b for a, b in zip(col, col[1:]))
                if col:
                    assert i0 + 1 <= col[0] and col[-1] <= spec.mprime + i0 + 1


def test_stats_count_stationary_random():
    rng = random.Random(20260817)
    for _ in range(40):
        spec = rng.choice(SWEEP)
        paths = enumerate_paths(spec)
        p = paths[rng.randrange(len(paths))]
        for i in range(1, spec.d + 1):
            seq = [row[i - 1] for row in p.rows]
            flat = sum(1 for a, b in zip(seq, seq[1:]) if a == b)
            assert flat == spec.depth


def test_rebuild_round_trip():
    for spec in SWEEP:
        paths = enumerate_paths(spec)
        for p in paths:
            assert rebuild(spec, stats(p).kk) == p
        arrays = list(k_arrays(spec))
        assert len(arrays) == len(paths)
        for arr in arrays:
            assert stats(rebuild(spec, arr)).kk == arr


def test_rebuild_rejects_bad_arrays():
    with pytest.raises(ValueError):
        rebuild(SPEC232, ((1, 2), (1, 2)))  # wrong depth
    with pytest.raises(ValueError):
        rebuild(SPEC232, ((5, 6),))  # stationary step past the last level
    with pytest.raises(ValueError):
        rebuild(SPEC232, ((2, 2),))  # collapses a level


def test_label_from_stats():
    # the label factors through the stationary data alone
    for spec in SWEEP:
        r = spec.d + spec.m - 1
        for p in enumerate_paths(spec):
            st = stats(p)
            mono = Monomial.one()
            for j0 in range(spec.depth):
                for i0 in range(spec.d):
                    mono = mono * cbar(r, spec.m - st.q[j0][i0] - 1, st.kk[j0][i0])
            assert mono == label(spec, p, r)


def test_k_arrays_golden():
    assert [arr[0] for arr in k_arrays(SPEC232)] == [
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
    ]


def test_long_shapes_need_no_recursion():
    assert sum(1 for _ in k_arrays(PathSpec(1, 1100, 1))) == 1100
    assert len(enumerate_paths(PathSpec(1, 1100, 1100))) == 1


def test_closed_form_golden():
    cfg = CrystalConfig(4)
    assert tau_render_poly(cfg, closed_form_sum(SPEC232, 4)) == GOLDEN_MINOR


def test_closed_form_matches_path_sum():
    for d in range(1, 6):
        for m in range(1, 6):
            for mp in range(1, m + 1):
                spec = PathSpec(d, m, mp)
                r = d + m - 1
                assert closed_form_sum(spec, r) == path_sum(spec, r)


def test_closed_form_forced():
    assert closed_form_sum(PathSpec(2, 3, 3), 4) == LaurentPoly.one()


def test_closed_form_at_depth_zero_builds_no_array_rows(monkeypatch):
    # PathSpec(40, 5, 5) has C(45, 40) = 1,221,759 possible array rows and
    # one path, whose array is empty
    def refuse(spec):
        raise AssertionError("array rows built at depth 0")

    monkeypatch.setattr("crystalminor.paths._array_rows", refuse)
    assert closed_form_sum(PathSpec(40, 5, 5), 50) == LaurentPoly.one()
    assert closed_form_sum(PathSpec(2, 3, 3), 4) == LaurentPoly.one()


def test_d1_closed_form_matches_path_sum():
    for m in range(1, 6):
        for mp in range(1, m + 1):
            assert d1_closed_form(m, mp, m) == path_sum(PathSpec(1, m, mp), m)


def test_d1_term_count():
    for m in range(1, 6):
        for mp in range(1, m + 1):
            assert len(d1_closed_form(m, mp, m)) == math.comb(m, mp)


def test_d1_forced():
    assert d1_closed_form(3, 3, 3) == LaurentPoly.one()


def test_d1_against_minor():
    cfg = CrystalConfig(4)
    golden = "τ_2/τ_3 + τ_5/τ_6 + 1/τ_8"
    assert tau_render_poly(cfg, d1_closed_form(3, 2, 4)) == golden
    # the same data sits at position 5 of the eight-letter staircase word
    ms = MinorSpec(WordSpec(4, 3, 1), 5)
    assert (ms.d, ms.mprime) == (1, 2)
    assert delta_L(ms) == d1_closed_form(3, 2, 4)
    # position 8 of the full ten-letter word lives one cycle deeper
    ms8 = MinorSpec(WordSpec(4, 4, 1), 8)
    assert (ms8.d, ms8.mprime) == (1, 3)
    assert delta_L(ms8) == d1_closed_form(4, 3, 4)
    assert delta_L(ms8) == path_sum(PathSpec(1, 4, 3), 4)


def test_path_sum_matches_minor():
    # positions whose letter equals the word's last letter, small ranks
    for r in (2, 3, 4):
        for m in range(1, r + 1):
            for last in range(1, r - m + 2):
                w = WordSpec(r, m, last)
                for k in range(1, w.n + 1):
                    if w.letter(k) != last:
                        continue
                    ms = MinorSpec(w, k)
                    spec = PathSpec(ms.d, m, ms.mprime)
                    assert path_sum(spec, r) == delta_L(ms)


def test_labels_closed_under_raising():
    # raising operators with color below mprime + d keep the label set stable
    cases = [(SPEC232, 4), (PathSpec(1, 3, 1), 3), (PathSpec(2, 4, 2), 5), (PathSpec(3, 3, 1), 5)]
    for spec, r in cases:
        cfg = CrystalConfig(r)
        labels = {label(spec, p, r) for p in enumerate_paths(spec)}
        for mono in labels:
            for i in cfg.colors():
                raised = apply_e(cfg, mono, i)
                if raised is None:
                    continue
                if i < spec.mprime + spec.d:
                    assert raised in labels


def test_raising_escapes_at_top_color():
    # at color mprime + d the set is not stable: a witness from the
    # golden family leaves through a negative-shift variable
    labels = {label(SPEC232, p, 4) for p in enumerate_paths(SPEC232)}
    cfg = CrystalConfig(4)
    escaped = [
        apply_e(cfg, mono, 4)
        for mono in labels
        if apply_e(cfg, mono, 4) is not None and apply_e(cfg, mono, 4) not in labels
    ]
    assert escaped


def test_json_export():
    text = paths_json(SPEC232, 4)
    data = json.loads(text)
    assert len(data) == 6
    assert data[0]["rows"] == [[1, 2], [1, 2], [2, 3], [3, 4]]
    assert [e["label"] for e in data] == list(GOLDEN_LABELS)
    assert paths_json(SPEC232, 4) == text


def test_dot_export():
    text = paths_dot(SPEC232, 4)
    lines = text.splitlines()
    assert lines[0] == "digraph paths {"
    assert lines[-1] == "}"
    edges = [ln for ln in lines if " -> " in ln]
    nodes = [ln for ln in lines if ln.endswith('";')]
    assert len(nodes) == 8
    assert len(edges) == 12
    assert '  "(3;1,2)" -> "(2;1,2)" [label="1/τ_9"];' in edges
    assert '  "(3;1,2)" -> "(2;2,3)" [label="1"];' in edges
    assert '  "(2;2,3)" -> "(1;2,4)" [label="τ_5/τ_6"];' in edges
    assert '  "(1;3,4)" -> "(0;3,4)" [label="τ_2/τ_4"];' in edges
    assert paths_dot(SPEC232, 4) == text


def path_count(spec: PathSpec) -> int:
    """Number of paths of the shape, by counting paths per vertex level by level."""
    counts = Counter({spec.source(): 1})
    for _ in range(spec.m):
        grown = Counter()
        for row, c in counts.items():
            for bits in product((0, 1), repeat=spec.d):
                nxt = tuple(a + b for a, b in zip(row, bits))
                if all(x < y for x, y in zip(nxt, nxt[1:])) and all(
                    a <= spec.mprime + i + 1 for i, a in enumerate(nxt)
                ):
                    grown[nxt] += c
        counts = grown
    return counts[spec.target()]


# shapes with d <= 3 and m <= 8 small enough to label path by path, and
# long width-one shapes
SMALL_SHAPES = [
    spec
    for spec in (PathSpec(d, m, mp) for d in (1, 2, 3) for m in range(1, 9) for mp in range(1, m + 1))
    if path_count(spec) <= 150
]
LONG_SHAPES = [PathSpec(1, m, mp) for m in (12, 25, 60) for mp in (1, m - 1, m)]
SHAPE_PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=50)


@st.composite
def shapes_and_ranks(draw):
    """A shape and any rank from -1 to d + m, so that some are too small.

    A rank below 1 is refused by every label.  From rank 1 up, a shape
    with a missing slot anywhere misses one on the first edge of its first
    path, so the tables built in full must raise the error of the first
    path in order.
    """
    spec = draw(st.one_of(st.sampled_from(SMALL_SHAPES), st.sampled_from(LONG_SHAPES)))
    return spec, draw(st.integers(-1, spec.d + spec.m))


def outcome(compute):
    """The polynomial with its text and JSON, or the RankTooSmall message."""
    try:
        poly = compute()
    except RankTooSmall as e:
        return "RankTooSmall", str(e)
    return poly, str(poly), poly_to_json(poly)


def test_path_count_matches_enumeration():
    for spec in SWEEP:
        assert count_paths(spec) == path_count(spec) == len(enumerate_paths(spec))
    # too many to enumerate: 1,081,724,803,600 paths
    assert count_paths(PathSpec(2, 24, 12)) == path_count(PathSpec(2, 24, 12)) == 1081724803600


def lgv_count(spec: PathSpec) -> int:
    """Number of paths of the shape by Lindström–Gessel–Viennot: the
    determinant of the single-entry counts C(m, mprime + j - i), taken by
    exact Fraction elimination."""
    rows = [[Fraction(math.comb(spec.m, spec.mprime + j - i) if spec.mprime + j >= i else 0)
             for j in range(spec.d)] for i in range(spec.d)]
    det = Fraction(1)
    for k in range(spec.d):
        pivot = next((i for i in range(k, spec.d) if rows[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            det = -det
        det *= rows[k][k]
        for i in range(k + 1, spec.d):
            f = rows[i][k] / rows[k][k]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[k])]
    assert det.denominator == 1
    return int(det)


# shapes that take the brute-force counter a second or more each
LGV_SHAPES = [PathSpec(*s) for s in (
    (6, 14, 7), (5, 20, 10), (7, 10, 5), (9, 10, 5), (8, 9, 4), (4, 24, 12), (4, 30, 27),
)]


def test_count_paths_matches_lgv_determinant():
    for spec in LGV_SHAPES:
        assert count_paths(spec) == lgv_count(spec), spec
    # the reference agrees with the brute-force counter where both reach
    for spec in SWEEP:
        assert lgv_count(spec) == path_count(spec), spec


def test_count_paths_builds_no_table(monkeypatch):
    def refuse(*args):
        raise AssertionError("count_paths built a path table")

    monkeypatch.setattr("crystalminor.paths._path_table", refuse)
    # an 8 x 12 x 12 box: counting it over its path table takes over a minute
    assert count_paths(PathSpec(8, 24, 12)) == lgv_count(PathSpec(8, 24, 12))


def test_path_count_is_symmetric_in_the_box_sides():
    # sides (x, y, z) are the shape PathSpec(x, y + z, y): d = x, mprime = y
    for sides in product(range(4), repeat=3):
        specs = {PathSpec(x, y + z, y) for x, y, z in permutations(sides) if x and y}
        counts = {path_count(spec) for spec in specs} | {count_paths(spec) for spec in specs}
        assert len(counts) <= 1, sides


@SHAPE_PROPERTY
@given(shapes_and_ranks())
def test_path_sum_matches_label_sum_property(case):
    spec, r = case
    want = outcome(
        lambda: LaurentPoly.from_terms((label(spec, p, r), 1) for p in enumerate_paths(spec))
    )
    assert outcome(lambda: path_sum(spec, r)) == want


def cbar_sum(spec: PathSpec, r: int) -> LaurentPoly:
    """Closed form by hand: one cbar product per stationary-value array.

    At depth 0 the one array is empty and its term is 1, but the one path
    must still fit rank r: its reference label refuses a rank too small.
    """
    if not spec.depth:
        (p,) = enumerate_paths(spec)
        label(spec, p, r)
    terms = []
    for arr in k_arrays(spec):
        mono = Monomial.one()
        for j0, row in enumerate(arr):
            for i0, k in enumerate(row):
                mono = mono * cbar(r, spec.m - k - j0 + i0, k)
        terms.append((mono, 1))
    return LaurentPoly.from_terms(terms)


@SHAPE_PROPERTY
@given(shapes_and_ranks())
def test_closed_form_matches_cbar_products_property(case):
    spec, r = case
    assert outcome(lambda: closed_form_sum(spec, r)) == outcome(lambda: cbar_sum(spec, r))


def test_sums_raise_the_first_bad_slot_of_the_first_edge(capsys):
    """A shape whose first edge misses two different slots: each sum, and
    each CLI command over it, names the first of them, as the references
    do."""
    spec, r = PathSpec(3, 4, 2), 3
    assert spec in SMALL_SHAPES and -1 <= r <= spec.d + spec.m
    first = enumerate_paths(spec)[0]
    c = spec.m - 1
    slots = [j for a_new, a_old in zip(first.rows[1], first.rows[0]) for j in (a_new - 1, a_old)]
    bad = [j for j in slots if j not in (0, r + 1) and not 1 <= j <= r - c]
    assert len(set(bad)) >= 2
    want = ("RankTooSmall", f"slot {bad[0]} of cycle {c} does not exist at rank {r}")
    assert outcome(lambda: label(spec, first, r)) == want
    assert outcome(lambda: cbar_sum(spec, r)) == want
    assert outcome(lambda: path_sum(spec, r)) == want
    assert outcome(lambda: closed_form_sum(spec, r)) == want
    for command in ("sum", "closed-form"):
        argv = ["paths", command, "--d", "3", "--m", "4", "--mprime", "2", "--r", str(r)]
        assert cli.main(argv) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", f"error: {want[1]}\n")


def test_a_rank_too_small_is_refused_before_anything_is_built(monkeypatch):
    def refuse(*args):
        raise AssertionError("built a table before refusing the rank")

    monkeypatch.setattr("crystalminor.paths._path_table", refuse)
    monkeypatch.setattr("crystalminor.paths._array_rows", refuse)
    cases = [
        (path_sum, PathSpec(20000, 1, 1), 2, "slot 4 of cycle 0 does not exist at rank 2"),
        (path_sum, PathSpec(400, 3, 1), 4, "slot 3 of cycle 2 does not exist at rank 4"),
        (closed_form_sum, PathSpec(400, 3, 1), 4, "slot 3 of cycle 2 does not exist at rank 4"),
        (closed_form_sum, PathSpec(3, 4, 2), 3, "slot 1 of cycle 3 does not exist at rank 3"),
    ]
    for compute, spec, r, message in cases:
        assert outcome(lambda: compute(spec, r)) == ("RankTooSmall", message), (compute, spec)


def test_sums_pack_each_slot_once_and_build_no_pairs(monkeypatch):
    """Both sums pack one unit per (cycle, slot), none on a repeat call,
    and build no label from (variable, exponent) pairs."""
    spec, r = PathSpec(3, 7, 4), 9
    want = path_sum(spec, r), closed_form_sum(spec, r)
    packed = []

    def counting_pack(pairs):
        pairs = tuple(pairs)
        packed.append(pairs)
        return pack(pairs)

    def refuse(*args):
        raise AssertionError("a label built from pairs")

    _unit.cache_clear()
    monkeypatch.setattr("crystalminor.paths.pack", counting_pack)
    assert (path_sum(spec, r), closed_form_sum(spec, r)) == want
    assert packed and all(len(pairs) == 1 and pairs[0][1] == 1 for pairs in packed)
    variables = [pairs[0][0] for pairs in packed]
    assert len(set(variables)) == len(variables)
    packed.clear()
    assert (path_sum(spec, r), closed_form_sum(spec, r)) == want
    assert packed == []
    _unit.cache_clear()
    monkeypatch.setattr("crystalminor.paths._edge_pairs", refuse)
    monkeypatch.setattr("crystalminor.paths._ratio_pairs", refuse)
    assert (path_sum(spec, r), closed_form_sum(spec, r)) == want


@st.composite
def brute_force_shapes(draw):
    """Shapes with d * m <= 10, small enough for the 2^(dm) filter."""
    d = draw(st.integers(1, 4))
    m = draw(st.integers(1, 10 // d))
    return PathSpec(d, m, draw(st.integers(1, m)))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(brute_force_shapes())
def test_enumeration_matches_brute_force_property(spec):
    want = sorted(brute_paths(spec), key=lambda p: sum(p.rows, ()))
    assert list(enumerate_paths(spec)) == want


def vertex(m: int, s: int, row) -> str:
    return f"({m - s};{','.join(str(a) for a in row)})"


def reference_text(spec: PathSpec, r: int):
    """paths enum text lines, each path labelled from its rows."""
    cfg = CrystalConfig(r)
    for p in enumerate_paths(spec):
        route = "->".join(vertex(spec.m, s, row) for s, row in enumerate(p.rows))
        yield f"{route}  {tau_render(cfg, label(spec, p, r))}"


def reference_json(spec: PathSpec, r: int) -> str:
    cfg = CrystalConfig(r)
    entries = [
        {"rows": [list(row) for row in p.rows], "label": tau_render(cfg, label(spec, p, r))}
        for p in enumerate_paths(spec)
    ]
    return json.dumps(entries, ensure_ascii=False, separators=(",", ":"))


def reference_dot(spec: PathSpec, r: int) -> str:
    """DOT text with vertices and edges in order of first appearance, path
    by path and level by level, each edge labelled when first seen."""
    cfg = CrystalConfig(r)
    nodes: list[str] = []
    edges: dict = {}
    for p in enumerate_paths(spec):
        for s, row in enumerate(p.rows):
            name = vertex(spec.m, s, row)
            if name not in nodes:
                nodes.append(name)
            if s:
                key = (vertex(spec.m, s - 1, p.rows[s - 1]), name)
                if key not in edges:
                    edges[key] = edge_label(r, spec.m, s - 1, p.rows[s - 1], row)
    lines = ["digraph paths {", "  rankdir=TB;", "  node [shape=plaintext];"]
    lines += [f'  "{name}";' for name in nodes]
    lines += [f'  "{a}" -> "{b}" [label="{tau_render(cfg, mono)}"];' for (a, b), mono in edges.items()]
    return "\n".join(lines + ["}"]) + "\n"


def collect(make):
    """Every item of make() up to the first error, and that error's type
    and text."""
    out = []
    try:
        for item in make():
            out.append(item)
    except (RankTooSmall, NotTauRenderable, ValueError) as e:
        return out, type(e).__name__, str(e)
    return out, None, None


@SHAPE_PROPERTY
@given(shapes_and_ranks())
def test_text_and_json_labels_match_label_property(case):
    spec, r = case
    assert collect(lambda: paths_text(spec, r)) == collect(lambda: reference_text(spec, r))
    assert collect(lambda: [paths_json(spec, r)]) == collect(lambda: [reference_json(spec, r)])


@SHAPE_PROPERTY
@given(shapes_and_ranks())
def test_dot_order_matches_first_appearance_property(case):
    spec, r = case
    assert collect(lambda: [paths_dot(spec, r)]) == collect(lambda: [reference_dot(spec, r)])
