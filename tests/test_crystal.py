"""Crystal operators, components, Demazure subsets, tau aliases."""

from __future__ import annotations

import json
import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crystalminor import crystal
from crystalminor.bruhat import WordSpec
from crystalminor.errors import CapExceeded, ColorOutOfRange, ExponentOverflow, NotTauRenderable
from crystalminor.crystal import (
    CrystalConfig,
    DemazureSpec,
    a_monomial,
    apply_e,
    apply_f,
    component,
    demazure,
    demazure_polynomial,
    graph_to_dot,
    graph_to_json,
    kashiwara_rows,
    node_stats,
    tau_index,
    tau_render,
    tau_render_poly,
)
from crystalminor.laurent import EXPONENT_LIMIT, LaurentPoly, Monomial, VarId


def _m(*pairs):
    return Monomial.of(*((VarId(s, i), e) for s, i, e in pairs))


def test_a_monomial_interior_and_edges():
    cfg = CrystalConfig(4)
    assert a_monomial(cfg, 0, 2) == _m((0, 2, 1), (1, 2, 1), (1, 1, -1), (0, 3, -1))
    assert a_monomial(cfg, 1, 1) == _m((1, 1, 1), (2, 1, 1), (1, 2, -1))
    assert a_monomial(cfg, 0, 4) == _m((0, 4, 1), (1, 4, 1), (1, 3, -1))
    # rank one keeps only the two same-color factors
    assert a_monomial(CrystalConfig(1), 3, 1) == _m((3, 1, 1), (4, 1, 1))
    with pytest.raises(ColorOutOfRange):
        a_monomial(cfg, 0, 5)


def test_stats_of_single_variable():
    cfg = CrystalConfig(4)
    st = node_stats(cfg, _m((-1, 3, 1)))
    assert st.weight == (0, 0, 1, 0)
    assert st.phi == (0, 0, 1, 0)
    assert st.epsilon == (0, 0, 0, 0)


def test_stats_empty_monomial():
    cfg = CrystalConfig(3)
    st = node_stats(cfg, Monomial.one())
    assert st.weight == (0, 0, 0)
    assert st.phi == (0, 0, 0)
    assert st.epsilon == (0, 0, 0)


def test_phi_includes_empty_partial_sum():
    cfg = CrystalConfig(2)
    st = node_stats(cfg, _m((0, 1, -1)))
    assert st.phi == (0, 0)
    assert st.epsilon == (1, 0)


def test_kashiwara_rows_simple():
    cfg = CrystalConfig(4)
    # inverse variable: raising acts just below its shift
    assert kashiwara_rows(cfg, _m((2, 2, -1)), 2) == (1, None)
    # plain variable: lowering acts at its shift
    assert kashiwara_rows(cfg, _m((-1, 3, 1)), 3) == (None, -1)
    # partial sums -1, 0, -1: raising acts below the shift after the last 0
    assert kashiwara_rows(cfg, _m((0, 1, -1), (1, 1, 1), (2, 1, -1)), 1) == (1, None)


def test_kashiwara_rows_plateau():
    cfg = CrystalConfig(1)
    # profile +1 at 0, -1 at 1, +1 at 3, -1 at 5: partial sums 1,0,1,0
    m = _m((0, 1, 1), (1, 1, -1), (3, 1, 1), (5, 1, -1))
    raise_row, lower_row = kashiwara_rows(cfg, m, 1)
    assert lower_row == 0  # first shift attaining phi = 1
    assert raise_row == 4  # last shift where the running sum still sits at 1


def test_operator_pair_inverts():
    cfg = CrystalConfig(4)
    m = _m((-1, 3, 1))
    down = apply_f(cfg, m, 3)
    assert down is not None
    assert apply_e(cfg, down, 3) == m


def test_first_lowering_step_of_intro_seed():
    cfg = CrystalConfig(4)
    m = _m((-1, 3, 1))
    assert apply_f(cfg, m, 3) == _m((-1, 4, 1), (0, 2, 1), (0, 3, -1))
    assert apply_f(cfg, m, 1) is None
    assert apply_f(cfg, m, 2) is None
    assert apply_f(cfg, m, 4) is None


# ---------------------------------------------------------------------------
# the rank-four component with ten nodes, frozen edge by edge

INTRO_EDGES = [
    ("τ_{-2}", 3, "τ_{-1}τ_2/τ_3"),
    ("τ_{-1}τ_2/τ_3", 2, "τ_{-1}τ_5/τ_6"),
    ("τ_{-1}τ_2/τ_3", 4, "τ_2/τ_4"),
    ("τ_2/τ_4", 2, "τ_3τ_5/(τ_4τ_6)"),
    ("τ_{-1}τ_5/τ_6", 1, "τ_{-1}/τ_8"),
    ("τ_{-1}τ_5/τ_6", 4, "τ_3τ_5/(τ_4τ_6)"),
    ("τ_3τ_5/(τ_4τ_6)", 1, "τ_3/(τ_4τ_8)"),
    ("τ_3τ_5/(τ_4τ_6)", 3, "τ_5/τ_7"),
    ("τ_{-1}/τ_8", 4, "τ_3/(τ_4τ_8)"),
    ("τ_5/τ_7", 1, "τ_6/(τ_7τ_8)"),
    ("τ_3/(τ_4τ_8)", 3, "τ_6/(τ_7τ_8)"),
    ("τ_6/(τ_7τ_8)", 2, "1/τ_9"),
]


def _intro_component():
    cfg = CrystalConfig(4)
    return cfg, component(cfg, _m((-1, 3, 1)))


def test_intro_component_shape():
    cfg, g = _intro_component()
    assert g.node_count() == 10
    assert g.edge_count() == 12
    rendered = {
        (tau_render(cfg, g.nodes[a].monomial), i, tau_render(cfg, g.nodes[b].monomial))
        for a, i, b in g.edges
    }
    assert rendered == set(INTRO_EDGES)


def test_intro_component_extremes():
    cfg, g = _intro_component()
    sources = g.sources()
    sinks = [n for n in g.nodes if not any(n.phi)]
    assert len(sources) == 1 and len(sinks) == 1
    assert tau_render(cfg, sources[0].monomial) == "τ_{-2}"
    assert sources[0].weight == (0, 0, 1, 0)
    assert tau_render(cfg, sinks[0].monomial) == "1/τ_9"
    assert sinks[0].weight == (0, -1, 0, 0)


def test_component_fundamental_sizes():
    # the component seeded at a single variable of color d has binomial size
    for r in range(1, 6):
        cfg = CrystalConfig(r)
        for d in range(1, r + 1):
            g = component(cfg, _m((0, d, 1)))
            assert g.node_count() == math.comb(r + 1, d)


def test_component_cap():
    cfg = CrystalConfig(4)
    with pytest.raises(CapExceeded):
        component(cfg, _m((-1, 3, 1)), cap=5)


def test_component_deterministic():
    cfg = CrystalConfig(4)
    g1 = component(cfg, _m((-1, 3, 1)))
    g2 = component(cfg, _m((-1, 3, 1)))
    assert [n.monomial for n in g1.nodes] == [n.monomial for n in g2.nodes]
    assert g1.edges == g2.edges


def _crystal_axioms(cfg, g):
    """Check the defining axioms on every node of a component."""
    for node in g.nodes:
        m = node.monomial
        for i in cfg.colors():
            ii = i - 1
            # phi - epsilon is the pairing of the weight with color i
            assert node.phi[ii] - node.epsilon[ii] == node.weight[ii]
            assert node.phi[ii] >= 0 and node.epsilon[ii] >= 0
            up = apply_e(cfg, m, i)
            assert (up is None) == (node.epsilon[ii] == 0)
            if up is not None:
                st = node_stats(cfg, up)
                # weight moves by the color-i root
                for j in cfg.colors():
                    expected = 2 if j == i else (-1 if abs(j - i) == 1 else 0)
                    assert st.weight[j - 1] - node.weight[j - 1] == expected
                assert st.epsilon[ii] == node.epsilon[ii] - 1
                assert st.phi[ii] == node.phi[ii] + 1
                assert apply_f(cfg, up, i) == m
            down = apply_f(cfg, m, i)
            assert (down is None) == (node.phi[ii] == 0)
            if down is not None:
                st = node_stats(cfg, down)
                assert st.phi[ii] == node.phi[ii] - 1
                assert st.epsilon[ii] == node.epsilon[ii] + 1
                assert apply_e(cfg, down, i) == m


def test_axioms_on_intro_component():
    cfg, g = _intro_component()
    _crystal_axioms(cfg, g)


def test_axioms_on_fundamental_components():
    for r in (2, 3):
        cfg = CrystalConfig(r)
        for d in range(1, r + 1):
            _crystal_axioms(cfg, component(cfg, _m((0, d, 1))))


def test_operator_locality():
    # the acting shift only depends on the color-i part of the monomial
    rng = random.Random(808)
    cfg = CrystalConfig(3)
    for _ in range(200):
        pairs = [
            (rng.randint(-2, 2), rng.randint(1, 3), rng.randint(-2, 2))
            for _ in range(rng.randint(1, 5))
        ]
        m = _m(*pairs)
        for i in cfg.colors():
            stripped = Monomial.of(*((v, e) for v, e in m.factors if v.i == i))
            assert kashiwara_rows(cfg, m, i) == kashiwara_rows(cfg, stripped, i)


# ---------------------------------------------------------------------------
# Demazure subsets

GOLDEN_DEMAZURE = [
    "τ_2/τ_4",
    "τ_3τ_5/(τ_4τ_6)",
    "τ_5/τ_7",
    "τ_3/(τ_4τ_8)",
    "τ_6/(τ_7τ_8)",
    "1/τ_9",
]


def test_demazure_intro_golden():
    cfg = CrystalConfig(4)
    spec = DemazureSpec(word=(1, 2, 3, 4, 1, 2), sign="minus", seed=_m((2, 2, -1)))
    got = demazure(cfg, spec)
    assert len(got) == 6
    assert {tau_render(cfg, m) for m in got} == set(GOLDEN_DEMAZURE)
    poly = demazure_polynomial(cfg, spec)
    assert tau_render_poly(cfg, poly) == " + ".join(GOLDEN_DEMAZURE)


def test_demazure_empty_word():
    cfg = CrystalConfig(2)
    seed = _m((1, 2, -1))
    assert demazure(cfg, DemazureSpec((), "minus", seed)) == (seed,)


def test_demazure_rejects_bad_seed():
    cfg = CrystalConfig(2)
    with pytest.raises(ValueError):
        demazure(cfg, DemazureSpec((1,), "minus", _m((0, 1, 1))))
    with pytest.raises(ValueError):
        demazure(cfg, DemazureSpec((1,), "plus", _m((0, 1, -1))))


def test_demazure_rejects_bad_color():
    cfg = CrystalConfig(2)
    with pytest.raises(ColorOutOfRange):
        demazure(cfg, DemazureSpec((3,), "minus", _m((0, 1, -1))))


def test_demazure_plus_mirrors_minus_on_fundamental():
    # growing down from the top of a fundamental component sweeps it all
    cfg = CrystalConfig(3)
    top = _m((0, 2, 1))
    full_word = (1, 2, 3, 1, 2, 1)
    got = demazure(cfg, DemazureSpec(full_word, "plus", top))
    assert len(got) == math.comb(4, 2)
    assert set(got) == {n.monomial for n in component(cfg, top).nodes}


def test_demazure_suffix_containment():
    cfg = CrystalConfig(4)
    word = (1, 2, 3, 4, 1, 2)
    seed = _m((2, 2, -1))
    sets = []
    for j in range(len(word) + 1):
        sets.append(set(demazure(cfg, DemazureSpec(word[j:], "minus", seed))))
    for earlier, later in zip(sets[1:], sets):
        assert earlier <= later


def test_demazure_cap():
    cfg = CrystalConfig(4)
    spec = DemazureSpec((1, 2, 3, 4, 1, 2), "minus", _m((2, 2, -1)))
    with pytest.raises(CapExceeded):
        demazure(cfg, spec, cap=3)


# ---------------------------------------------------------------------------
# tau aliases and rendering


def test_tau_index_window():
    assert tau_index(4, VarId(2, 2)) == 9
    assert tau_index(4, VarId(3, 1)) == 10
    assert tau_index(4, VarId(-1, 3)) == -2
    assert tau_index(4, VarId(-1, 4)) == -1
    assert tau_index(4, VarId(0, 1)) == 1
    for r in range(1, 7):
        w = WordSpec(r, r, 1)
        for k in range(1, w.n + 1):
            assert tau_index(r, w.position_var(k)) == k
        for k in range(-r, 0):
            assert tau_index(r, VarId(-1, r + 1 + k)) == k


def test_tau_index_rejects_outside_window():
    for v in (VarId(3, 2), VarId(-2, 1), VarId(4, 1), VarId(-1, 5)):
        with pytest.raises(NotTauRenderable):
            tau_index(4, v)


def test_tau_render_forms():
    cfg = CrystalConfig(4)
    assert tau_render(cfg, _m((-1, 3, 1))) == "τ_{-2}"
    assert tau_render(cfg, _m((2, 2, -1))) == "1/τ_9"
    assert tau_render(cfg, _m((0, 3, 1), (1, 1, 1), (0, 4, -1), (1, 2, -1))) == "τ_3τ_5/(τ_4τ_6)"
    assert tau_render(cfg, _m((1, 1, 1), (1, 3, -1))) == "τ_5/τ_7"
    assert tau_render(cfg, _m((0, 1, 2), (0, 2, -2))) == "τ_1^2/τ_2^2"
    assert tau_render(cfg, Monomial.one()) == "1"


def test_tau_render_poly_uses_canonical_order():
    cfg = CrystalConfig(4)
    terms = [
        _m((0, 2, 1), (0, 4, -1)),
        _m((0, 3, 1), (1, 1, 1), (0, 4, -1), (1, 2, -1)),
        _m((1, 1, 1), (1, 3, -1)),
        _m((0, 3, 1), (0, 4, -1), (2, 1, -1)),
        _m((1, 2, 1), (1, 3, -1), (2, 1, -1)),
        _m((2, 2, -1)),
    ]
    rng = random.Random(99)
    rng.shuffle(terms)
    poly = LaurentPoly.from_terms((m, 1) for m in terms)
    assert tau_render_poly(cfg, poly) == " + ".join(GOLDEN_DEMAZURE)


@pytest.mark.parametrize("const, text", [(2, "2"), (-3, "-3")])
def test_constant_term_prints_its_coefficient(const, text):
    cfg = CrystalConfig(4)
    poly = LaurentPoly.from_terms([(Monomial.one(), const), (_m((2, 2, -1)), 1)])
    assert str(poly) == f"{text} + Y[2,2]^-1"
    assert tau_render_poly(cfg, poly) == f"{text} + 1/τ_9"
    alone = LaurentPoly.from_terms([(Monomial.one(), const)])
    assert str(alone) == tau_render_poly(cfg, alone) == text


@pytest.mark.parametrize("coeff, y_text, tau_text", [
    (2, "2Y[2,2]^-1", "2/τ_9"),
    (-3, "-3Y[2,2]^-1", "-3/τ_9"),
    (-1, "-Y[2,2]^-1", "-1/τ_9"),
])
def test_coefficient_takes_the_place_of_an_empty_tau_numerator(coeff, y_text, tau_text):
    cfg = CrystalConfig(4)
    poly = LaurentPoly.from_terms([(_m((2, 2, -1)), coeff)])
    assert str(poly) == y_text
    assert tau_render_poly(cfg, poly) == tau_text
    both = poly + LaurentPoly.from_terms([(_m((1, 1, 1), (1, 3, -1)), coeff)])
    assert tau_render_poly(cfg, both) == f"{coeff}τ_5/τ_7 + {tau_text}".replace("-1τ", "-τ")


def test_monomial_text_spells_both_forms():
    cfg = CrystalConfig(4)
    m = _m((1, 1, 1), (1, 3, -1))
    assert crystal.monomial_text(cfg, m, "tau") == "τ_5/τ_7"
    assert crystal.monomial_text(cfg, m, "y") == str(m) == "Y[1,1]Y[1,3]^-1"


# ---------------------------------------------------------------------------
# export


def test_graph_dot_contains_nodes_and_edges():
    cfg, g = _intro_component()
    dot = graph_to_dot(g)
    assert dot.startswith("digraph crystal {")
    assert '[label="τ_{-2}"];' in dot
    assert dot.count(" -> ") == 12


def test_graph_json_round_trip_fields():
    _, g = _intro_component()
    data = json.loads(graph_to_json(g))
    assert data["r"] == 4
    assert len(data["nodes"]) == 10
    assert len(data["edges"]) == 12
    assert data["nodes"][0]["tau"] == "τ_{-2}"
    assert data["nodes"][0]["weight"] == [0, 0, 1, 0]
    ids = [n["id"] for n in data["nodes"]]
    assert ids == list(range(10))


def test_graph_json_null_tau_outside_window():
    cfg = CrystalConfig(2)
    g = component(cfg, _m((0, 1, 1)))
    data = json.loads(graph_to_json(g))
    assert any(n["tau"] is None for n in data["nodes"])


# ---------------------------------------------------------------------------
# operator properties on random monomials


def _reference_phi_data(m, i):
    """(phi, total, prefix) for color i, from an explicit list of partial sums."""
    prefix = []
    run = 0
    for v, e in m.factors:
        if v.i == i:
            run += e
            prefix.append((v.s, run))
    phi = max([0] + [v for _, v in prefix])
    return phi, run, prefix


def _reference_rows(m, i):
    """(raise, lower) shifts located on the list of partial sums."""
    phi, total, prefix = _reference_phi_data(m, i)
    lower = None
    if phi > 0:
        lower = next(s for s, v in prefix if v == phi)
    raise_ = None
    if phi > total:
        if phi == 0:
            zeros = [idx for idx, (_, v) in enumerate(prefix) if v == 0]
            raise_ = prefix[zeros[-1] + 1 if zeros else 0][0] - 1
        else:
            last = max(idx for idx, (_, v) in enumerate(prefix) if v == phi)
            raise_ = prefix[last + 1][0] - 1
    return raise_, lower


PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=80)


@st.composite
def rank_and_monomial(draw):
    """A rank and a monomial that may also carry colors above the rank."""
    r = draw(st.integers(1, 4))
    pairs = draw(st.lists(
        st.tuples(st.builds(VarId, st.integers(-3, 4), st.integers(1, r + 1)), st.integers(-3, 3)),
        max_size=10,
    ))
    return CrystalConfig(r), Monomial.of(*pairs)


@PROPERTY
@given(rank_and_monomial())
def test_kashiwara_rows_match_reference_property(cfg_m):
    cfg, m = cfg_m
    for i in cfg.colors():
        assert kashiwara_rows(cfg, m, i) == _reference_rows(m, i)


@PROPERTY
@given(rank_and_monomial())
def test_node_stats_match_per_color_reference_property(cfg_m):
    cfg, m = cfg_m
    stats = node_stats(cfg, m)
    for i in cfg.colors():
        phi, total, _ = _reference_phi_data(m, i)
        got = (stats.weight[i - 1], stats.phi[i - 1], stats.epsilon[i - 1])
        assert got == (total, phi, phi - total)


@PROPERTY
@given(rank_and_monomial())
def test_node_stats_shifts_match_kashiwara_rows_property(cfg_m):
    cfg, m = cfg_m
    # the walk's shifts: one _color_scan per color of _split
    cols = crystal._split(m, cfg.colors())
    assert len(cols) == cfg.r
    for i in cfg.colors():
        _, _, up, down = crystal._color_scan(cols[i - 1])
        assert (up, down) == kashiwara_rows(cfg, m, i) == _reference_rows(m, i)


@PROPERTY
@given(rank_and_monomial())
def test_operators_invert_and_step_by_one_property(cfg_m):
    cfg, m = cfg_m
    here = node_stats(cfg, m)
    for i in cfg.colors():
        ii = i - 1
        up, down = apply_e(cfg, m, i), apply_f(cfg, m, i)
        assert (up is None) == (here.epsilon[ii] == 0)
        assert (down is None) == (here.phi[ii] == 0)
        if up is not None:
            assert apply_f(cfg, up, i) == m
            stats = node_stats(cfg, up)
            assert (stats.phi[ii], stats.epsilon[ii]) == (here.phi[ii] + 1, here.epsilon[ii] - 1)
        if down is not None:
            assert apply_e(cfg, down, i) == m
            stats = node_stats(cfg, down)
            assert (stats.phi[ii], stats.epsilon[ii]) == (here.phi[ii] - 1, here.epsilon[ii] + 1)


def test_a_monomial_cache_is_bounded():
    cfg = CrystalConfig(3)
    assert a_monomial(cfg, 7, 2) is a_monomial(cfg, 7, 2)
    assert crystal._a_pair.cache_info().maxsize == 1024


def _set_deduplicated_component(cfg, seed, cap):
    """(monomials, edges) by the breadth-first search that records an edge
    from both of its ends and keeps its first sighting."""
    monomials, index = [seed], {seed: 0}
    edges, seen = [], set()
    at = 0
    while at < len(monomials):
        m = monomials[at]
        for i in cfg.colors():
            for step, forward in ((apply_f, True), (apply_e, False)):
                other = step(cfg, m, i)
                if other is None:
                    continue
                if other not in index:
                    index[other] = len(monomials)
                    monomials.append(other)
                    if len(monomials) > cap:
                        raise CapExceeded(cap)
                k = index[other]
                edge = (at, i, k) if forward else (k, i, at)
                if edge not in seen:
                    seen.add(edge)
                    edges.append(edge)
        at += 1
    return monomials, edges


@PROPERTY
@given(rank_and_monomial())
def test_component_edges_come_in_set_deduplicated_bfs_order_property(cfg_m):
    cfg, seed = cfg_m
    try:
        want = _set_deduplicated_component(cfg, seed, 300)
    except CapExceeded:
        with pytest.raises(CapExceeded):
            component(cfg, seed, cap=300)
        return
    g = component(cfg, seed, cap=300)
    assert ([n.monomial for n in g.nodes], list(g.edges)) == want
    # the walk rescans only the colors a step touches; a full scan agrees
    assert list(g.nodes) == [node_stats(cfg, n.monomial) for n in g.nodes]


def _full_walk_demazure(cfg, spec, cap):
    """Demazure closure that walks every member's string to its end with
    the per-color operators."""
    step = apply_e if spec.sign == "minus" else apply_f
    out, seen = [spec.seed], {spec.seed}
    for i in reversed(spec.word):
        for m in list(out):
            cur = step(cfg, m, i)
            while cur is not None:
                if cur not in seen:
                    seen.add(cur)
                    out.append(cur)
                    if len(out) > cap:
                        raise CapExceeded(cap)
                cur = step(cfg, cur, i)
    return tuple(out)


@st.composite
def demazure_specs(draw):
    """A rank, a word in its colors and an extremal seed: exponents all of
    one sign make epsilon = 0 (plus) or phi = 0 (minus) in every color."""
    r = draw(st.integers(1, 4))
    sign = draw(st.sampled_from(["minus", "plus"]))
    word = tuple(draw(st.lists(st.integers(1, r), max_size=10)))
    pairs = draw(st.lists(
        st.tuples(st.builds(VarId, st.integers(-2, 3), st.integers(1, r + 1)), st.integers(1, 2)),
        max_size=5,
    ))
    if sign == "minus":
        pairs = [(v, -e) for v, e in pairs]
    return CrystalConfig(r), DemazureSpec(word, sign, Monomial.of(*pairs))


@PROPERTY
@given(demazure_specs())
def test_demazure_matches_full_walks_property(cfg_spec):
    cfg, spec = cfg_spec
    try:
        want = _full_walk_demazure(cfg, spec, 300)
    except CapExceeded:
        with pytest.raises(CapExceeded):
            demazure(cfg, spec, cap=300)
        return
    assert demazure(cfg, spec, cap=300) == want


@PROPERTY
@given(demazure_specs())
def test_demazure_polynomial_matches_full_walks_property(cfg_spec):
    cfg, spec = cfg_spec
    try:
        want = LaurentPoly.from_terms((m, 1) for m in _full_walk_demazure(cfg, spec, 300))
    except CapExceeded:
        with pytest.raises(CapExceeded):
            demazure_polynomial(cfg, spec, cap=300)
        return
    assert demazure_polynomial(cfg, spec, cap=300) == want


@PROPERTY
@given(demazure_specs())
def test_demazure_polynomial_bound_is_the_largest_member_exponent_property(cfg_spec):
    cfg, spec = cfg_spec
    try:
        members = _full_walk_demazure(cfg, spec, 300)
    except CapExceeded:
        return
    top = max([abs(e) for m in members for _, e in m.factors], default=0)
    assert demazure_polynomial(cfg, spec, cap=300)._bound == top


def _walk_behind(run, cfg, arg):
    """The walk that run(cfg, arg, cap=300) makes, whether or not it passes
    the cap."""
    made = []

    class Recorded(crystal._Walk):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    with mock.patch.object(crystal, "_Walk", Recorded):
        try:
            run(cfg, arg, cap=300)
        except CapExceeded:
            pass
    return made[0]


@PROPERTY
@given(rank_and_monomial(), demazure_specs())
def test_every_interned_state_belongs_to_a_member_property(cfg_m, cfg_spec):
    for walk in (_walk_behind(component, *cfg_m), _walk_behind(demazure, *cfg_spec)):
        assert {j for ids in walk.ids for j in ids} == set(range(len(walk.states)))


def test_component_builds_each_state_operator_once(monkeypatch):
    cfg = CrystalConfig(4)
    calls = []
    real_a_pair = crystal._a_pair

    def a_pair(r, s, i):
        calls.append((s, i))
        return real_a_pair(r, s, i)

    monkeypatch.setattr(crystal, "_a_pair", a_pair)
    g = component(cfg, _m((-1, 1, 2), (-1, 2, 1), (-1, 4, 1)))
    states = {(i, col) for node in g.nodes for i, col in enumerate(crystal._split(node.monomial, cfg.colors()), 1)}
    # at most a raising and a lowering operator built per state, while the
    # walk takes 2 * 960 steps, one from each end of every edge
    assert (g.edge_count(), len(states)) == (960, 147)
    assert 0 < len(calls) <= 2 * len(states)


def test_walk_keeps_colors_with_equal_factors_apart():
    # colors 1, 2 and 4 of the seed have no factors: three states, so a
    # move stored for one of them never moves another color
    cfg = CrystalConfig(4)
    walk = crystal._Walk(cfg, _m((-1, 3, 1)), 100)
    assert len(set(walk.ids[0])) == 4
    assert [walk.states[j] for j in walk.ids[0]] == [(), (), ((VarId(-1, 3), 1),), ()]
    g = component(cfg, _m((-1, 3, 1)))
    assert [n.monomial for n in g.nodes] == _set_deduplicated_component(cfg, _m((-1, 3, 1)), 100)[0]
    assert list(g.nodes) == [node_stats(cfg, n.monomial) for n in g.nodes]


def test_exponent_past_the_limit_through_a_stored_move():
    # letter 1 makes member 1, whose color 3 is the seed's; letter 2 then
    # lowers the seed and member 1 at shift 0, and the second of those
    # reaches Y[0,3]^LIMIT by the color-3 move that the first one stored
    cfg = CrystalConfig(3)
    seed = _m((0, 1, 1), (0, 2, 1), (0, 3, EXPONENT_LIMIT - 1))
    spec = DemazureSpec((2, 1), "plus", seed)
    walk = crystal._demazure_walk(cfg, spec, 100)
    past = [k for k, m in enumerate(walk.monomials()) if (VarId(0, 3), EXPONENT_LIMIT) in m.factors]
    assert len(past) == 2 and walk.ids[0][2] == walk.ids[1][2]
    # the move of a color-3 state by A[0,2]^-1 (shift 0, color 2, half 1)
    assert walk.moves[walk.ids[0][2], 0, 2, 1] == walk.ids[past[0]][2] == walk.ids[past[1]][2]
    assert demazure(cfg, spec) == _full_walk_demazure(cfg, spec, 100)
    with pytest.raises(ExponentOverflow, match=f"^exponent {EXPONENT_LIMIT} of a polynomial term"):
        demazure_polynomial(cfg, spec)
