"""Arithmetic layer: exact monomial/polynomial behavior."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crystalminor import laurent
from crystalminor.errors import ExponentOverflow, MissingAssignment, ZeroAssignment
from crystalminor.laurent import (
    EXPONENT_LIMIT,
    LaurentPoly,
    Monomial,
    VarId,
    mono_to_json,
    pack,
    parse_monomial,
    poly_to_json,
)


def _m(*pairs):
    return Monomial.of(*((VarId(s, i), e) for s, i, e in pairs))


def mono_from_json(data):
    return Monomial.of(*((VarId(s, i), e) for s, i, e in data))


def poly_from_json(text):
    return LaurentPoly.from_terms((mono_from_json(t["vars"]), t["coeff"]) for t in json.loads(text))


def test_mono_mul_cancels_inverse_pair():
    a = _m((0, 1, 1), (0, 2, -1))
    b = _m((0, 2, 1), (0, 1, -1))
    assert a * b == Monomial.one()
    assert str(a * b) == "1"


def test_mono_mul_merges_exponents():
    a = _m((1, 1, 2), (0, 3, -1))
    b = _m((1, 1, -1), (2, 2, 4))
    assert a * b == _m((0, 3, -1), (1, 1, 1), (2, 2, 4))


def test_mono_text_form():
    assert str(_m((0, 2, 1), (0, 4, -1))) == "Y[0,2]Y[0,4]^-1"
    assert str(_m((1, 1, 3))) == "Y[1,1]^3"
    assert str(Monomial.one()) == "1"


def test_var_order_is_lex():
    assert VarId(-1, 4) < VarId(0, 1) < VarId(0, 2) < VarId(1, 1)


def test_color_index_must_be_positive():
    with pytest.raises(ValueError):
        Monomial.of((VarId(0, 0), 1))


def test_poly_add_cancellation():
    p = LaurentPoly.from_terms([(_m((0, 1, 1)), 2)])
    q = LaurentPoly.from_terms([(_m((0, 1, 1)), -2)])
    assert (p + q).is_zero()
    assert str(p + q) == "0"


def test_poly_mul_difference_of_squares():
    x = LaurentPoly.from_terms([(_m((0, 1, 1)), 1)])
    one = LaurentPoly.one()
    prod = (x + one) * (x - one)
    assert prod == x * x - one


def test_poly_eval_exact():
    # Y[0,1]^-1 at Y[0,1] = 2 is exactly one half
    p = LaurentPoly.from_terms([(_m((0, 1, -1)), 1)])
    val = p.evaluate({VarId(0, 1): Fraction(2)})
    assert val == Fraction(1, 2)


def test_poly_eval_missing_and_zero():
    p = LaurentPoly.from_terms([(_m((0, 1, 1), (1, 2, -1)), 1)])
    with pytest.raises(MissingAssignment):
        p.evaluate({VarId(0, 1): Fraction(1)})
    with pytest.raises(ZeroAssignment):
        p.evaluate({VarId(0, 1): Fraction(1), VarId(1, 2): Fraction(0)})


def test_term_order_highest_variable_first():
    # the two middle terms differ only below their distinct top variables:
    # the term whose top variable carries a negative exponent sorts later
    hi = _m((1, 1, 1), (1, 3, -1))
    lo = _m((0, 3, 1), (0, 4, -1), (2, 1, -1))
    p = LaurentPoly.from_terms([(lo, 1)]) + LaurentPoly.from_terms([(hi, 1)])
    assert list(p.monomials()) == [hi, lo]


def test_term_order_ties_broken_below():
    a = _m((0, 1, 2), (0, 2, 1))
    b = _m((0, 1, 1), (0, 2, 1))
    p = LaurentPoly.from_terms([(b, 1), (a, 1)])
    # same top variable, larger exponent first
    assert list(p.monomials()) == [a, b]


def _random_mono(rng: random.Random) -> Monomial:
    pairs = []
    for _ in range(rng.randint(0, 4)):
        pairs.append((VarId(rng.randint(-2, 3), rng.randint(1, 4)), rng.randint(-3, 3)))
    return Monomial.of(*pairs)


def _random_poly(rng: random.Random) -> LaurentPoly:
    return LaurentPoly.from_terms(
        (_random_mono(rng), rng.randint(-5, 5)) for _ in range(rng.randint(0, 5))
    )


def test_ring_axioms_random():
    rng = random.Random(20314)
    for _ in range(200):
        p, q, r = (_random_poly(rng) for _ in range(3))
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + LaurentPoly.zero() == p
        assert p * LaurentPoly.one() == p


def test_mono_inverse_random():
    rng = random.Random(977)
    for _ in range(100):
        m = _random_mono(rng)
        assert m * m.inverse() == Monomial.one()


def test_eval_is_ring_map_random():
    rng = random.Random(5150)
    for _ in range(60):
        p, q = _random_poly(rng), _random_poly(rng)
        vals = {}
        for v in p.variables() | q.variables():
            num = rng.choice([x for x in range(-6, 7) if x != 0])
            vals[v] = Fraction(num, rng.randint(1, 6))
        assert (p + q).evaluate(vals) == p.evaluate(vals) + q.evaluate(vals)
        assert (p * q).evaluate(vals) == p.evaluate(vals) * q.evaluate(vals)


def test_json_round_trip():
    rng = random.Random(31)
    for _ in range(50):
        p = _random_poly(rng)
        assert poly_from_json(poly_to_json(p)) == p
    m = _m((0, 2, 1), (1, 1, -2))
    assert mono_from_json(mono_to_json(m)) == m


def test_json_is_canonical_text():
    p = LaurentPoly.from_terms([(_m((0, 1, 1)), 1)]) + LaurentPoly.one()
    assert poly_to_json(p) == '[{"coeff":1,"vars":[[0,1,1]]},{"coeff":1,"vars":[]}]'


def test_parse_monomial_forms():
    assert parse_monomial("Y[-1,3]") == _m((-1, 3, 1))
    assert parse_monomial("1/Y[2,2]") == _m((2, 2, -1))
    assert parse_monomial("Y[2,2]^-1") == _m((2, 2, -1))
    assert parse_monomial("Y[0,1] * Y[1,2]^2") == _m((0, 1, 1), (1, 2, 2))
    assert parse_monomial("Y[0,1]Y[0,2]^-1") == _m((0, 1, 1), (0, 2, -1))
    assert parse_monomial("1") == Monomial.one()
    assert parse_monomial("Y[1,1]/(Y[1,2]Y[2,1])") == _m((1, 1, 1), (1, 2, -1), (2, 1, -1))


def test_parse_monomial_rejects_garbage():
    for bad in ("Z[0,1]", "Y[0,1", "Y[0,1]/Y[1,1]/Y[2,1]"):
        with pytest.raises(ValueError):
            parse_monomial(bad)


def test_parse_monomial_reports_malformed_numbers():
    cases = {
        "Y[0,1]^": "malformed exponent at offset 7 in 'Y[0,1]^'",
        "Y[0,1]^-": "malformed exponent at offset 7 in 'Y[0,1]^-'",
        "Y[0,]": "malformed color at offset 4 in 'Y[0,]'",
        "Y[,1]": "malformed shift at offset 2 in 'Y[,1]'",
        "Y[x,1]": "malformed shift at offset 2 in 'Y[x,1]'",
        "Y[0]": "malformed index at offset 0 in 'Y[0]'",
        "Y[1,1]/Y[2,x]": "malformed color at offset 4 in 'Y[2,x]'",
    }
    for bad, message in cases.items():
        with pytest.raises(ValueError) as info:
            parse_monomial(bad)
        assert str(info.value) == message


def test_parse_round_trips_str():
    rng = random.Random(404)
    for _ in range(100):
        m = _random_mono(rng)
        assert parse_monomial(str(m)) == m


# ---------------------------------------------------------------------------
# properties


def _reference_cmp(a: Monomial, b: Monomial) -> int:
    """The canonical term order as a comparator, walking both factor lists
    from the highest variable; kept here as an independent reference."""
    fa, fb = a.factors, b.factors
    ia, ib = len(fa) - 1, len(fb) - 1
    while ia >= 0 or ib >= 0:
        va = fa[ia][0] if ia >= 0 else None
        vb = fb[ib][0] if ib >= 0 else None
        if va == vb:
            ea, eb = fa[ia][1], fb[ib][1]
            if ea != eb:
                return -1 if ea > eb else 1
            ia -= 1
            ib -= 1
        elif vb is None or (va is not None and va > vb):
            return -1 if fa[ia][1] > 0 else 1
        else:
            return 1 if fb[ib][1] > 0 else -1
    return 0


PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

monos = st.builds(
    lambda pairs: Monomial.of(*pairs),
    st.lists(
        st.tuples(st.builds(VarId, st.integers(-2, 3), st.integers(1, 4)), st.integers(-3, 3)),
        max_size=4,
    ),
)
term_lists = st.lists(st.tuples(monos, st.integers(-4, 4)), max_size=6)
polys = st.builds(LaurentPoly.from_terms, term_lists)


@PROPERTY
@given(polys, polys, polys)
def test_ring_axioms_property(p, q, r):
    zero, one = LaurentPoly.zero(), LaurentPoly.one()
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p + q == q + p
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert p + zero == p and p * one == p
    assert (p * zero).is_zero()
    assert (p + (-p)).is_zero() and p - q == p + (-q)


pair_lists = st.lists(
    st.tuples(st.builds(VarId, st.integers(-2, 3), st.integers(1, 4)), st.integers(-3, 3)),
    max_size=6,
)


@PROPERTY
@given(pair_lists, st.randoms(use_true_random=False))
def test_pack_matches_monomial_property(pairs, rng):
    # every variable again with its exponent negated: repeats that cancel
    cancelling = pairs + [(v, -e) for v, e in pairs]
    rng.shuffle(cancelling)
    for case in (pairs, pairs + pairs, cancelling):
        assert pack(case) == pack(Monomial.of(*case).factors)
        assert pack(iter(case)) == pack(case)
    assert pack(cancelling) == 0


@PROPERTY
@given(st.integers(-3, 3), st.integers(-3, 0), st.integers(-3, 3))
def test_pack_refuses_color_below_one_property(s, i, e):
    bad = VarId(s, i)
    for pairs in ([(bad, e)], [(VarId(0, 1), 1), (bad, e)]):
        with pytest.raises(ValueError, match="^color index must be >= 1"):
            pack(pairs)
        with pytest.raises(ValueError, match="^color index must be >= 1"):
            Monomial.of(*pairs)


@PROPERTY
@given(st.lists(st.tuples(st.sampled_from([1, -1]), polys, polys), max_size=5))
def test_signed_dot_matches_pairwise_sum_property(triples):
    want = LaurentPoly.zero()
    for sign, a, b in triples:
        want = want + (-(a * b) if sign < 0 else a * b)
    got = LaurentPoly.signed_dot(triples)
    assert got == want and got.terms == want.terms
    assert len(got) == len(got.terms) and all(c for _, c in got.terms)
    # each product again with the other sign and its factors swapped
    cancelled = LaurentPoly.signed_dot(triples + [(-sign, b, a) for sign, a, b in triples])
    assert cancelled == LaurentPoly.zero() and len(cancelled) == 0 and cancelled.terms == ()
    assert LaurentPoly.signed_dot([]) == LaurentPoly.zero()


@PROPERTY
@given(polys)
def test_terms_follow_reference_order(p):
    monomials = [m for m, _ in p.terms]
    pairs = zip(monomials, monomials[1:])
    assert all(_reference_cmp(a, b) < 0 for a, b in pairs)
    assert len(set(monomials)) == len(p)


@PROPERTY
@given(monos, monos)
def test_monomial_order_matches_reference(a, b):
    c = _reference_cmp(a, b)
    assert (a._sort_key() < b._sort_key()) == (c < 0)
    assert (a._sort_key() <= b._sort_key()) == (c <= 0)
    assert (c == 0) == (a == b)


@st.composite
def factor_sets(draw):
    """Two monomials whose factor sets interleave, lie one below the other,
    cancel completely, cancel in part, or overlap at random."""
    kind = draw(st.sampled_from(["interleaved", "disjoint", "cancelling", "partly cancelling",
                                 "random"]))
    variables = sorted(draw(st.sets(st.builds(VarId, st.integers(-3, 4), st.integers(1, 4)),
                                    max_size=10)))
    exponents = st.integers(-3, 3).filter(bool)
    factors = [(v, draw(exponents)) for v in variables]
    if kind == "interleaved":
        a, b = Monomial.of(*factors[::2]), Monomial.of(*factors[1::2])
    elif kind == "disjoint":
        half = draw(st.integers(0, len(factors)))
        a, b = Monomial.of(*factors[:half]), Monomial.of(*factors[half:])
    elif kind == "cancelling":
        a = Monomial.of(*factors)
        b = a.inverse()
    elif kind == "partly cancelling":
        a = Monomial.of(*factors)
        b = Monomial.of(*((v, -e if draw(st.booleans()) else draw(exponents)) for v, e in factors))
    else:
        a, b = draw(monos), draw(monos)
    return a, b


@PROPERTY
@given(factor_sets())
def test_monomial_product_matches_accumulated_factors_property(ab):
    a, b = ab
    # the packed route, independent of Monomial.of and exact this far below EXPONENT_LIMIT
    want = Monomial.unpack(pack(a.factors) + pack(b.factors))
    for product in (a * b, b * a):
        assert product == want and hash(product) == hash(want)
        assert product.factors == want.factors
        variables = [v for v, _ in product.factors]
        assert variables == sorted(set(variables))
        assert all(e != 0 for _, e in product.factors)


@PROPERTY
@given(term_lists, st.randoms(use_true_random=False))
def test_equal_polys_hash_equal_whatever_the_term_order(terms, rng):
    shuffled = list(terms)
    rng.shuffle(shuffled)
    p, q = LaurentPoly.from_terms(terms), LaurentPoly.from_terms(shuffled)
    summed = LaurentPoly.zero()
    for m, c in shuffled:
        summed = summed + LaurentPoly.from_terms([(m, c)])
    assert p == q == summed
    assert hash(p) == hash(q) == hash(summed)
    assert str(p) == str(q) == str(summed)


@PROPERTY
@given(monos)
def test_parse_inverts_str_property(m):
    assert parse_monomial(str(m)) == m


@PROPERTY
@given(polys)
def test_json_round_trip_property(p):
    text = poly_to_json(p)
    back = poly_from_json(text)
    assert back == p
    assert poly_to_json(back) == text


# ---------------------------------------------------------------------------
# packed monomials

LIMIT = EXPONENT_LIMIT
# exponents at the edges of 8- and 16-bit digits, up to the largest one a
# packed digit holds
EDGE_EXPONENTS = [127, 128, 32767, 32768, 2**31 - 1]


def _reference_product(monomials):
    """Factor tuple of a product: exponents added per variable, zeros
    dropped, sorted by variable."""
    acc = {}
    for m in monomials:
        for v, e in m.factors:
            acc[v] = acc.get(v, 0) + e
    return tuple(sorted((v, e) for v, e in acc.items() if e))


@st.composite
def codec_cases(draw):
    """A bound and monomials over a few variables with exponents within
    it, often exactly at it."""
    bound = draw(st.one_of(st.integers(0, 3), st.sampled_from(EDGE_EXPONENTS)))
    variables = draw(st.lists(
        st.builds(VarId, st.integers(-3, 3), st.integers(1, 4)), min_size=1, max_size=6, unique=True
    ))
    exps = st.one_of(st.sampled_from([-bound, bound]), st.integers(-bound, bound))
    monomials = draw(st.lists(
        st.lists(st.tuples(st.sampled_from(variables), exps), max_size=4).map(
            lambda pairs: Monomial.of(*dict(pairs).items())
        ),
        min_size=1, max_size=4,
    ))
    return bound, monomials


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(codec_cases())
def test_codec_round_trip_property(case):
    _, monomials = case
    for m in monomials:
        back = Monomial.unpack(pack(m.factors))
        assert back.factors == _reference_product([m])
        assert back == m and str(back) == str(m)
        assert pack(m.inverse().factors) == -pack(m.factors)
    want = _reference_product(monomials)
    if all(abs(e) < LIMIT for _, e in want):
        packed = sum(pack(m.factors) for m in monomials)
        assert Monomial.unpack(packed).factors == want


def test_codec_refuses_exponents_past_the_bound():
    v, w = VarId(0, 1), VarId(2, 3)
    for e in [0, 1, 2, 3] + EDGE_EXPONENTS:
        for sign in (1, -1):
            at_bound = Monomial.of((v, 1), (w, sign * e))
            assert Monomial.unpack(pack(at_bound.factors)) == at_bound
            assert LaurentPoly.from_terms([(at_bound, 2)]).terms == ((at_bound, 2),)
    for sign in (1, -1):
        past = Monomial.of((w, sign * LIMIT))
        with pytest.raises(ExponentOverflow, match=f"^exponent {LIMIT} of a polynomial term"):
            LaurentPoly.from_terms([(Monomial.one(), 1), (past, 1)])
        with pytest.raises(ExponentOverflow):
            LaurentPoly.from_terms([(past, 1)])
        # a monomial on its own keeps unbounded exponents
        assert (past * past).factors == ((w, sign * 2 * LIMIT),)


def test_codec_refuses_what_it_cannot_hold():
    x = VarId(0, 1)
    top = LaurentPoly.from_terms([(Monomial.of((x, LIMIT - 1)), 1)])
    with pytest.raises(ExponentOverflow):
        top * LaurentPoly.from_terms([(Monomial.of((x, 1)), 1)])
    # the proven bound, not the exponent, decides: the product would hold
    # the exponent LIMIT - 2, but its bound LIMIT reaches the limit
    with pytest.raises(ExponentOverflow):
        top * LaurentPoly.from_terms([(Monomial.of((x, -1)), 1)])
    with pytest.raises(ExponentOverflow):
        LaurentPoly.from_packed({0: 1}, LIMIT)
    assert issubclass(ExponentOverflow, OverflowError)
    assert top * LaurentPoly.one() == top and (top * LaurentPoly.zero()).is_zero()
    assert (top + top).terms == ((Monomial.of((x, LIMIT - 1)), 2),)
    assert LaurentPoly.from_packed({0: 1, 5: 0}, LIMIT - 1) == LaurentPoly.one()
    assert Monomial.unpack(0) == Monomial.one()
    with pytest.raises(ExponentOverflow, match=f"^exponent {LIMIT} of a polynomial term"):
        LaurentPoly.from_terms([(Monomial.of((x, LIMIT)), 1)])


def test_a_product_bound_at_2_31_is_refused_and_one_below_computes():
    x = VarId(0, 1)
    half = LaurentPoly.from_terms([(Monomial.of((x, 2**30)), 1)])
    with pytest.raises(ExponentOverflow, match=r"^exponent bound 2147483648 reaches the limit 2\*\*31$"):
        half * half
    below = LaurentPoly.from_terms([(Monomial.of((x, 2**30 - 1)), 1)])
    assert (half * below).terms == ((Monomial.of((x, 2**31 - 1)), 1),)


# the parent design as a reference: a dict from Monomial to coefficient,
# multiplied with Monomial.__mul__


def _ref(terms) -> dict:
    acc = {}
    for m, c in terms:
        acc[m] = acc.get(m, 0) + c
    return {m: c for m, c in acc.items() if c}


def _ref_add(a: dict, b: dict) -> dict:
    return _ref(list(a.items()) + list(b.items()))


def _ref_mul(a: dict, b: dict) -> dict:
    return _ref([(ma * mb, ca * cb) for ma, ca in a.items() for mb, cb in b.items()])


def _ref_terms(a: dict) -> tuple:
    return tuple(sorted(a.items(), key=cmp_to_key(lambda s, t: _reference_cmp(s[0], t[0]))))


wide_exponents = st.one_of(
    st.integers(-3, 3), st.sampled_from([LIMIT - 1, 1 - LIMIT, LIMIT // 2, -(LIMIT // 2)])
)
wide_monos = st.dictionaries(
    st.builds(VarId, st.integers(-1, 2), st.integers(1, 3)), wide_exponents, max_size=3
).map(lambda exps: Monomial.of(*exps.items()))
wide_term_lists = st.lists(st.tuples(wide_monos, st.integers(-3, 3)), max_size=5)


def _bound(terms) -> int:
    return max((abs(e) for m, _ in terms for _, e in m.factors), default=0)


@PROPERTY
@given(wide_term_lists, wide_term_lists)
def test_packed_arithmetic_matches_reference(ta, tb):
    p, q = LaurentPoly.from_terms(ta), LaurentPoly.from_terms(tb)
    rp, rq = _ref(ta), _ref(tb)
    assert p.terms == _ref_terms(rp) and len(p) == len(rp)
    assert (p + q).terms == _ref_terms(_ref_add(rp, rq))
    assert (-p).terms == _ref_terms({m: -c for m, c in rp.items()})
    for m, _ in ta + tb:
        assert dict(p.terms).get(m, 0) == rp.get(m, 0)
    if not p or not q or _bound(ta) + _bound(tb) < LIMIT:
        assert (p * q).terms == _ref_terms(_ref_mul(rp, rq))
    else:
        with pytest.raises(ExponentOverflow):
            p * q


def _outcome(f):
    """(result, its bound) or the text of the ExponentOverflow that f raises."""
    try:
        p = f()
    except ExponentOverflow as err:
        return str(err)
    return p, p._bound


@PROPERTY
@given(wide_term_lists, wide_monos, st.integers(-5, 5).filter(bool))
def test_one_term_product_is_the_signed_dot_triple(ta, mono, coeff):
    # the key shift that * takes for a one-term right operand gives the
    # triple's terms and bound, and refuses a bound at the limit alike
    p, q = LaurentPoly.from_terms(ta), LaurentPoly.from_terms([(mono, coeff)])
    assert len(q) == 1
    assert _outcome(lambda: p * q) == _outcome(lambda: LaurentPoly.signed_dot(((1, p, q),)))


def test_one_term_product_next_to_the_limit():
    x, y = VarId(0, 1), VarId(1, 2)
    p = LaurentPoly.from_terms([(Monomial.of((x, LIMIT - 2)), 3), (Monomial.of((y, -1)), -2)])
    q = LaurentPoly.from_terms([(Monomial.of((x, 1)), -7)])
    assert (p * q).terms == ((Monomial.of((x, LIMIT - 1)), -21), (Monomial.of((x, 1), (y, -1)), 14))
    assert (p * q)._bound == LIMIT - 1
    with pytest.raises(ExponentOverflow, match=r"^exponent bound 2147483648 reaches the limit 2\*\*31$"):
        (p * q) * q
    assert (LaurentPoly.zero() * q).is_zero() and (LaurentPoly.zero() * q)._bound == 0


# ---------------------------------------------------------------------------
# evaluation over integer pairs against step-by-step Fraction arithmetic


def _evaluate_reference(p: LaurentPoly, assignment) -> Fraction:
    """The value of p by Fraction products and sums, term by term."""
    values = {v: Fraction(assignment[v]) for m, _ in p.terms for v, _ in m.factors}
    out = Fraction(0)
    for m, c in p.terms:
        for v, e in m.factors:
            c *= values[v] ** e
        out += c
    return out


EVAL_VARS = [VarId(s, i) for s in range(2) for i in range(1, 4)]
_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
# every variable's numerator and denominator are distinct primes, so term
# denominators differ and the running denominator merges by the lcm
coprime_values = st.permutations(_PRIMES).flatmap(
    lambda primes: st.lists(st.sampled_from([1, -1]), min_size=len(EVAL_VARS), max_size=len(EVAL_VARS)).map(
        lambda signs: {v: Fraction(sign * primes[2 * n], primes[2 * n + 1])
                       for n, (v, sign) in enumerate(zip(EVAL_VARS, signs))}
    )
)
small_values = st.fixed_dictionaries(
    {v: st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 6)) for v in EVAL_VARS}
)
eval_polys = st.builds(
    LaurentPoly.from_terms,
    st.lists(
        st.tuples(
            st.builds(lambda pairs: Monomial.of(*pairs),
                      st.lists(st.tuples(st.sampled_from(EVAL_VARS), st.integers(-6, 6)), max_size=4)),
            st.sampled_from([c for c in range(-5, 6) if c]),
        ),
        max_size=6,
    ),
)


@PROPERTY
@given(eval_polys, st.one_of(coprime_values, small_values))
@example(LaurentPoly.zero(), {v: Fraction(2, 3) for v in EVAL_VARS})
@example(LaurentPoly.from_terms([(_m((0, 1, -6), (1, 3, 5)), -5)]),
         {v: Fraction(-7, 4 + n) for n, v in enumerate(EVAL_VARS)})
def test_evaluate_matches_fraction_reference_property(p, values):
    got = p.evaluate(values)
    assert type(got) is Fraction
    assert got == _evaluate_reference(p, values)


def test_evaluate_builds_one_fraction_over_the_lcm_of_the_denominators(monkeypatch):
    # 1/6 + 1/10 - 2/15: the running denominator is their lcm, 30, not the
    # product 900, and the one Fraction is built from it
    built = []

    class Counted(Fraction):
        def __new__(cls, *args):
            built.append(args)
            return super().__new__(cls, *args)

    x, y, z = VarId(0, 1), VarId(0, 2), VarId(0, 3)
    p = LaurentPoly.from_terms([(Monomial.of((v, -1)), 1) for v in (x, y, z)])
    values = {x: Counted(6), y: Counted(10), z: Counted(-15, 2)}
    monkeypatch.setattr(laurent, "Fraction", Counted)
    built.clear()
    assert p.evaluate(values) == Fraction(2, 15)
    assert len(built) == 1 and abs(built[0][1]) == 30
