"""The named check layer: results, determinism, swept word specs."""

import dataclasses
import re
import weakref
from collections import Counter

import pytest

from crystalminor import verify
from crystalminor.bruhat import WordSpec, _delta_L_cached
from crystalminor.crystal import (
    CrystalConfig,
    CrystalGraph,
    apply_e,
    apply_f,
    cartan,
    demazure_polynomial,
    node_stats,
    tau_render_poly,
)
from crystalminor.errors import CapExceeded
from crystalminor.laurent import EXPONENT_LIMIT, LaurentPoly, Monomial, VarId, pack
from crystalminor.verify import (
    CHECKS,
    all_word_specs,
    check_axioms,
    check_minor_chain,
    check_truncation,
    crystal_axiom_failures,
    demazure_data,
    matched_positions,
    phi_word_check,
)
from crystalminor.crystal import component


def test_all_word_specs_counts():
    assert len(list(all_word_specs(1))) == 1
    assert len(list(all_word_specs(2))) == 4
    # for each rank r the staircase words number r(r+1)/2
    assert len(list(all_word_specs(4))) == 1 + 3 + 6 + 10
    assert [w.r for w in all_word_specs(2)] == [1, 2, 2, 2]


def test_matched_positions():
    w = WordSpec(4, 4, 1)
    assert matched_positions(w) == (1, 5, 8, 10)
    w = WordSpec(4, 3, 2)
    assert matched_positions(w) == (2, 6, 9)


def test_demazure_data_golden():
    spec = demazure_data(WordSpec(4, 3, 2), 6)
    assert spec.word == (1, 2, 3, 4, 1, 2)
    assert spec.sign == "minus"
    assert spec.seed == Monomial.of((VarId(2, 2), -1))


def test_demazure_data_last_cycle_seed_is_one():
    w = WordSpec(3, 3, 1)
    spec = demazure_data(w, w.n)
    assert spec.seed.is_one()
    poly = demazure_polynomial(CrystalConfig(3), spec)
    assert tau_render_poly(CrystalConfig(3), poly) == "1"


def test_all_checks_pass_small():
    for name, fn in CHECKS.items():
        res = fn(2)
        assert res.passed, (name, res.detail)
        assert res.name == name
        assert res.summary().startswith(f"PASS {name}: ")
        assert list(res.lines) == sorted(res.lines)
        assert all(line.startswith(f"PASS {name} ") for line in res.lines)


def test_checks_deterministic():
    for name, fn in CHECKS.items():
        assert fn(2) == fn(2), name


def test_random_checks_respect_seed():
    a = CHECKS["prop5-1"](2, samples=3, seed=7)
    b = CHECKS["prop5-1"](2, samples=3, seed=7)
    assert a == b
    assert a.passed


def test_truncation_check():
    res = check_truncation(3)
    assert res.passed
    assert "extensions" in res.detail


@pytest.mark.parametrize("fault", ["extended minor differs", "minor names the new variable"])
def test_truncation_check_fails_on_a_faulty_minor(monkeypatch, fault):
    real = verify.delta_L_uncached
    if fault == "extended minor differs":
        # a constant that grows with the word, so no extension keeps its
        # minor; the minor at r=2 word=1 k=1 is 1 and the extension has two letters
        faulty = lambda spec: real(spec) + LaurentPoly.from_terms([(Monomial.one(), spec.word.n)])
        shown = "only in extended: 3; only in original: 2"
    else:
        # at r=2 the word (1) extends by Y[0,2]
        faulty = lambda spec: LaurentPoly.from_terms([(Monomial.of((VarId(0, 2), 1)), 1)])
        shown = "fresh variable Y[0,2] in the extended minor"
    monkeypatch.setattr(verify, "delta_L_uncached", faulty)
    res = check_truncation(3)
    assert not res.passed
    assert res.summary() == f"FAIL lemma5-4: changed at r=2 word=1 k=1; {shown}"
    assert res.lines == ("FAIL lemma5-4 r=2 word=1 k=1 changed",)


def test_term_count_failure_shows_both_counts(monkeypatch):
    real = verify.comb
    monkeypatch.setattr(verify, "comb", lambda n, k: real(n, k) + 1)
    res = CHECKS["thm5-6"](2)
    assert res.summary() == "FAIL thm5-6: term count at r=1 word=1 k=1: 1, expected 2"
    assert res.lines == ("FAIL thm5-6 r=1 word=1 k=1 term count",)


def test_truncation_check_is_registered():
    assert CHECKS["lemma5-4"] is check_truncation


# small arguments for every check; lemma5-4 reads each original minor twice,
# once against its extension and again as the extension of the word before,
# and computes it both times
SMALL_ARGS = {
    "thm5-5": (3,), "prop6-1": (3,), "thm5-6": (3,), "prop5-1": (2, 1),
    "prop6-10": (3,), "prop2-4": (2, 1), "lemma5-4": (3,), "axioms": (2,),
}


def test_memo_guard_covers_every_check():
    assert set(SMALL_ARGS) == set(CHECKS)


@pytest.mark.parametrize("name, args", list(SMALL_ARGS.items()))
def test_sweeps_that_read_each_minor_once_leave_the_memo_empty(name, args):
    _delta_L_cached.cache_clear()
    assert CHECKS[name](*args).passed
    assert _delta_L_cached.cache_info().currsize == 0


def test_empty_sweep_fails():
    for res in (check_minor_chain(1), check_truncation(1)):
        assert not res.passed
        assert res.summary().startswith(f"FAIL {res.name}: empty sweep")
    assert not phi_word_check(WordSpec(2, 1, 2), samples=0).passed


def test_phi_word_check():
    res = phi_word_check(WordSpec(3, 2, 2), samples=5)
    assert res.passed
    assert res.detail == "r=3 word=1,2,3,1,2 samples=5"


def test_axiom_failures_empty_on_component():
    cfg = CrystalConfig(3)
    g = component(cfg, Monomial.of((VarId(-1, 2), 1)))
    assert crystal_axiom_failures(cfg, g) == []


def test_axiom_checker_catches_truncation():
    # cut a component in half: the fragment must fail the axiom scan
    from crystalminor.crystal import CrystalGraph

    cfg = CrystalConfig(3)
    g = component(cfg, Monomial.of((VarId(-1, 1), 1)))
    half = CrystalGraph(g.r, g.nodes[:2], tuple(
        e for e in g.edges if e[0] < 2 and e[1] < 2
    ))
    assert crystal_axiom_failures(cfg, half)


def _reference_operator(cfg, m, i, lower):
    """e_i (lower 0) or f_i (lower 1) of m as the axiom check sees it: the
    shift from ``verify.kashiwara_rows``, then the Monomial product with
    ``verify.a_monomial`` or its inverse; None when undefined."""
    shift = verify.kashiwara_rows(cfg, m, i)[lower]
    if shift is None:
        return None
    a = verify.a_monomial(cfg, shift, i)
    return m * (a.inverse() if lower else a)


def _reference_axiom_failures(cfg, graph):
    """The axiom checker that applies an operator per check: e_i and f_i at
    every node, then again at the other end of each edge."""
    bad = []
    for node in graph.nodes:
        for i in cfg.colors():
            phi, eps = node.phi[i - 1], node.epsilon[i - 1]
            if phi < 0 or eps < 0:
                bad.append(f"negative string data at {node.monomial} color {i}")
            if phi - eps != node.weight[i - 1]:
                bad.append(f"phi - eps != weight at {node.monomial} color {i}")
            up = _reference_operator(cfg, node.monomial, i, 0)
            if (up is not None) != (eps > 0):
                bad.append(f"raising defined iff eps positive fails at {node.monomial} color {i}")
            if up is not None:
                if up not in graph:
                    bad.append(f"raising leaves component at {node.monomial} color {i}")
                    continue
                stats = graph.nodes[graph.index_of(up)]
                for j in cfg.colors():
                    if stats.weight[j - 1] != node.weight[j - 1] + cartan(j, i):
                        bad.append(f"weight step at {node.monomial} colors {i},{j}")
                if stats.epsilon[i - 1] != eps - 1 or stats.phi[i - 1] != phi + 1:
                    bad.append(f"string step at {node.monomial} color {i}")
                if _reference_operator(cfg, up, i, 1) != node.monomial:
                    bad.append(f"lowering does not invert raising at {node.monomial} color {i}")
            down = _reference_operator(cfg, node.monomial, i, 1)
            if (down is not None) != (phi > 0):
                bad.append(f"lowering defined iff phi positive fails at {node.monomial} color {i}")
            if down is not None:
                if down not in graph:
                    bad.append(f"lowering leaves component at {node.monomial} color {i}")
                    continue
                if _reference_operator(cfg, down, i, 0) != node.monomial:
                    bad.append(f"raising does not invert lowering at {node.monomial} color {i}")
    return bad


AXIOM_SEEDS = [
    (3, Monomial.of((VarId(-1, 2), 1))),
    (3, Monomial.of((VarId(-1, 1), 1), (VarId(-1, 2), 1))),
    (4, Monomial.of((VarId(-1, 3), 1))),
    (4, demazure_data(WordSpec(4, 3, 2), 6).seed),
    # exponents past 2**31: the packed keys carry, and the check must stay exact
    (2, Monomial.of((VarId(0, 1), -2**40), (VarId(1, 1), 2**40), (VarId(-1, 2), 1))),
    (2, Monomial.of((VarId(0, 2), -2**40), (VarId(1, 2), 2**40), (VarId(-1, 1), 2))),
]


def _corrupted(g):
    """(name, graph) for copies of g with one node dropped, one node's
    string data or weight altered, two monomials swapped, or one monomial
    duplicated."""
    nodes, n = list(g.nodes), g.node_count()
    picks = sorted({0, 1, n // 2, n - 1})

    def graph(new_nodes):
        return CrystalGraph(g.r, tuple(new_nodes), g.edges)

    def bumped(values, at, by):
        return tuple(v + by if j == at else v for j, v in enumerate(values))

    for k in picks:
        yield f"drop {k}", graph(nodes[:k] + nodes[k + 1:])
        node = nodes[k]
        for field in ("phi", "epsilon", "weight"):
            for i in range(g.r):
                for by in (1, -1):
                    altered = dataclasses.replace(node, **{field: bumped(getattr(node, field), i, by)})
                    yield f"{field}[{i}] {by:+} at {k}", graph(nodes[:k] + [altered] + nodes[k + 1:])
    for a, b in [(0, 1), (0, n - 1), (1, n // 2)] + [(src, dst) for src, _, dst in g.edges[:3]]:
        swapped = list(nodes)
        swapped[a] = dataclasses.replace(nodes[a], monomial=nodes[b].monomial)
        swapped[b] = dataclasses.replace(nodes[b], monomial=nodes[a].monomial)
        yield f"swap {a},{b}", graph(swapped)
        twice = list(nodes)
        twice[a] = dataclasses.replace(nodes[a], monomial=nodes[b].monomial)
        yield f"duplicate {b} at {a}", graph(twice)


@pytest.mark.parametrize("r, seed", AXIOM_SEEDS)
def test_axiom_failures_match_the_per_check_reference(r, seed):
    cfg = CrystalConfig(r)
    g = component(cfg, seed)
    assert crystal_axiom_failures(cfg, g) == _reference_axiom_failures(cfg, g) == []
    flagged = 0
    for name, broken in _corrupted(g):
        want = _reference_axiom_failures(cfg, broken)
        assert crystal_axiom_failures(cfg, broken) == want, name
        flagged += bool(want)
    assert flagged > 10


@pytest.mark.parametrize("r, seed", AXIOM_SEEDS)
def test_reference_operator_is_the_crystal_operator(r, seed):
    cfg = CrystalConfig(r)
    for node in component(cfg, seed).nodes:
        for i in cfg.colors():
            assert _reference_operator(cfg, node.monomial, i, 0) == apply_e(cfg, node.monomial, i)
            assert _reference_operator(cfg, node.monomial, i, 1) == apply_f(cfg, node.monomial, i)


@pytest.mark.parametrize("operator", ["apply_e", "apply_f"])
@pytest.mark.parametrize("result", ["none", "itself", "other node", "outside"])
def test_axiom_failures_match_the_reference_under_a_faulty_operator(monkeypatch, operator, result):
    """The operator's result at node 4 and one color is faulty: "none" drops
    the shift there in ``kashiwara_rows``; the other results replace the
    A[s,i] of that shift and color, which every node whose operator acts
    there then sees too."""
    cfg = CrystalConfig(4)
    g = component(cfg, Monomial.of((VarId(-1, 3), 1)))
    node = g.nodes[4]
    target = node.monomial
    lower = operator == "apply_f"
    # a color at which the operator is defined there
    color = 1 + (node.phi if lower else node.epsilon).index(1)
    if result == "none":
        real_rows = verify.kashiwara_rows

        def faulty_rows(cfg, m, i):
            rows = real_rows(cfg, m, i)
            if m == target and i == color:
                return (rows[0], None) if lower else (None, rows[1])
            return rows

        monkeypatch.setattr(verify, "kashiwara_rows", faulty_rows)
    else:
        # the operator multiplies by A[shift,color], or by its inverse when lowering
        wanted = {
            "itself": target,
            "other node": g.nodes[7].monomial,
            "outside": Monomial.of((VarId(9, 1), 1)),
        }[result]
        fault = wanted * target.inverse()
        fault = fault.inverse() if lower else fault
        shift = verify.kashiwara_rows(cfg, target, color)[lower]
        real_a = verify.a_monomial
        monkeypatch.setattr(verify, "a_monomial",
                            lambda cfg, s, i: fault if (s, i) == (shift, color) else real_a(cfg, s, i))
    assert _reference_operator(cfg, target, color, lower) == (None if result == "none" else wanted)
    want = _reference_axiom_failures(cfg, g)
    assert want and crystal_axiom_failures(cfg, g) == want


def test_axiom_check_scans_once_per_node_and_color(monkeypatch):
    cfg = CrystalConfig(4)
    g = component(cfg, demazure_data(WordSpec(4, 3, 2), 6).seed)
    scans, multipliers = [], []
    real_rows, real_a = verify.kashiwara_rows, verify.a_monomial

    def rows(cfg, m, i):
        scans.append((m, i))
        return real_rows(cfg, m, i)

    def a(cfg, s, i):
        multipliers.append((s, i))
        return real_a(cfg, s, i)

    monkeypatch.setattr(verify, "kashiwara_rows", rows)
    monkeypatch.setattr(verify, "a_monomial", a)
    assert crystal_axiom_failures(cfg, g) == []
    # each (node, color) once: N * r scans, where raising and lowering apart made 2 * N * r
    assert Counter(scans) == Counter((node.monomial, i) for node in g.nodes for i in cfg.colors())
    assert multipliers and len(set(multipliers)) == len(multipliers)


def _graph(r, *monomials):
    return CrystalGraph(r, tuple(node_stats(CrystalConfig(r), m) for m in monomials), ())


def test_axiom_check_refuses_an_exponent_range_its_keys_cannot_tell_apart():
    # two fresh variables on adjacent slots: Y[7777,1]^(2**32) and Y[7777,2]
    # pack to the same int, so no packed key may stand for either
    low, high = VarId(7777, 1), VarId(7777, 2)
    assert pack([(low, 1)]) << 32 == pack([(high, 1)])
    wide, narrow = Monomial.of((low, 2**32)), Monomial.of((high, 1))
    assert wide != narrow and pack(wide.factors) == pack(narrow.factors)
    cfg = CrystalConfig(2)
    with pytest.raises(ValueError, match=r"^exponent range 4294967296 of Y\[7777,1\] reaches 2147483648;"):
        crystal_axiom_failures(cfg, _graph(2, wide, narrow))
    edge = _graph(2, Monomial.of((low, EXPONENT_LIMIT)), Monomial.of((high, 1)))
    with pytest.raises(ValueError, match="^exponent range 2147483648 of Y"):
        crystal_axiom_failures(cfg, edge)
    # one below the limit, the check runs and agrees with the reference
    below = _graph(2, Monomial.of((low, EXPONENT_LIMIT - 1)), Monomial.of((high, 1)))
    assert crystal_axiom_failures(cfg, below) == _reference_axiom_failures(cfg, below) != []


def test_axioms_detail_counts():
    res = check_axioms(3)
    assert res.passed
    assert res.lines[0].startswith("PASS axioms fundamental r=1 d=1 nodes=2")


@pytest.mark.parametrize(
    "check, route, side, other",
    [
        ("thm5-5", "path_sum", "path sum", "minor"),
        ("prop6-1", "path_sum", "path sum", "minor"),
        ("prop6-10", "closed_form_sum", "closed form", "path sum"),
        ("thm5-6", "d1_closed_form", "closed form", "minor"),
    ],
)
def test_failure_detail_names_the_dropped_term(monkeypatch, check, route, side, other):
    real = getattr(verify, route)
    dropped = []

    def lossy(*args):
        poly = real(*args)
        if not dropped and len(poly) > 1:
            dropped.append(poly.terms[0])
            return LaurentPoly.from_terms(poly.terms[1:])
        return poly

    monkeypatch.setattr(verify, route, lossy)
    res = CHECKS[check](3)
    assert not res.passed
    lost = str(LaurentPoly.from_terms(dropped))
    assert res.detail.endswith(f"; only in {side}: 0; only in {other}: {lost}")
    assert res.summary().startswith(f"FAIL {check}: ")
    failed = [line for line in res.lines if line.startswith(f"FAIL {check} ")]
    assert len(failed) == 1
    assert all(line.startswith(f"PASS {check} ") for line in res.lines if line not in failed)
    # single-digit specs at r <= 3, so the text after the status sorts like the key
    specs = [line.split(" ", 2)[2] for line in res.lines]
    assert specs == sorted(specs)


def test_minor_chain_resumed_past_a_cap_failure_skips_that_position(monkeypatch):
    # the runner stops at the first failure; a caller that drives the
    # generator on gets the next positions checked afresh, not the failed
    # position compared against the previous position's closure
    want = [line.split(" ", 2)[2] for line in check_minor_chain(3).lines]
    real = verify.demazure_polynomial
    calls = []

    def capped(*args, cap):
        calls.append(cap)
        if len(calls) in (1, 3):
            raise CapExceeded(cap)
        return real(*args, cap=cap)

    monkeypatch.setattr(verify, "demazure_polynomial", capped)
    sweep = check_minor_chain.__wrapped__(3)
    lines = []
    with pytest.raises(StopIteration) as stop:
        while True:
            lines.append(next(sweep))
    failed = [text for text, failure in lines if failure is not None]
    assert failed == [f"r=2 word=1 k=1 demazure cap {calls[0]} exceeded",
                      f"r=2 word=1,2,1 k=1 demazure cap {calls[2]} exceeded"]
    assert [text for text, failure in lines if failure is None] == want
    assert stop.value.value == ("9 words, 12 positions, 4-way equal, r <= 3", 12)
    assert len(calls) == 14


class _TrackedPoly(LaurentPoly):
    """A LaurentPoly that a weak reference can watch."""


def test_minor_chain_frees_each_route_before_building_the_next(monkeypatch):
    # each route is compared with the minor and freed before the next route
    # is built, so at most the minor and one route are alive at once
    alive = []
    built = Counter()

    def tracked(name, build):
        def wrapper(*args, **kwargs):
            assert [ref for ref in alive if ref() is not None] == [], name
            value = build(*args, **kwargs)
            out = _TrackedPoly(value._coeffs, value._bound)
            alive.append(weakref.ref(out))
            built[name] += 1
            return out
        return wrapper

    for name in ("demazure_polynomial", "path_sum", "closed_form_sum"):
        monkeypatch.setattr(verify, name, tracked(name, getattr(verify, name)))
    result = check_minor_chain(3)
    assert result.passed
    assert built == {"demazure_polynomial": 14, "path_sum": 14, "closed_form_sum": 14}


def test_failure_detail_shows_at_most_three_terms_per_side():
    p = LaurentPoly.from_terms((Monomial.of((VarId(0, i), 1)), 1) for i in range(1, 6))
    detail = verify._difference("left", p, "right", LaurentPoly.one())
    assert detail == "only in left: Y[0,5] + Y[0,4] + Y[0,3] (+2 more); only in right: 1"


def _spec_key(line: str) -> tuple[int, ...]:
    """The numeric spec fields of one sweep line, in sweep order: the group
    (fundamental components before minor seeds), r, the word's (m, last),
    k, then d, m, mprime of a path shape."""
    fields = dict(re.findall(r"(\w+)=(\S+)", line))
    key = [int(" minor-seed " in line)]
    if "r" in fields:
        key.append(int(fields["r"]))
    if "word" in fields:
        w = WordSpec.from_letters(int(fields["r"]), [int(x) for x in fields["word"].split(",")])
        key += [w.m, w.last]
    key += [int(fields[name]) for name in ("k", "d", "m", "mprime") if name in fields]
    return tuple(key)


SWEEP_BOUNDS = {
    "thm5-5": {"max_r": 4},
    "prop6-1": {"max_r": 4},
    "prop6-10": {"max_dim": 3},
    "thm5-6": {"max_r": 4},
    "prop5-1": {"max_r": 3, "samples": 1},
    "prop2-4": {"max_r": 3, "samples": 1},
    "lemma5-4": {"max_r": 4},
    "axioms": {"max_r": 3},
}


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_sweep_lines_follow_the_numeric_order_of_their_specs(name):
    res = CHECKS[name](**SWEEP_BOUNDS[name])
    assert res.passed, res.detail
    keys = [_spec_key(line) for line in res.lines]
    # one line per spec, compared as numbers and not as text
    assert len(keys) > 3 and keys == sorted(set(keys)), name
