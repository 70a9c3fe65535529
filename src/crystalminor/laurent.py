"""Exact Laurent-monomial and Laurent-polynomial arithmetic.

Variables are doubly indexed: ``VarId(s, i)`` stands for the generator
``Y[s,i]`` with shift ``s`` (any integer) and color ``i >= 1``.  A Monomial
is a finite product of integer powers of such generators and a LaurentPoly
is a finite sum of integer multiples of monomials.  All arithmetic is exact;
coefficients stay in Z, and evaluation works on the integer numerators and
denominators of its values and returns one ``fractions.Fraction``.

There is no general division: only monomials have an ``inverse()``.

A polynomial is a dict from a packed monomial to a nonzero coefficient.
A variable gets the next slot of one process-wide table when first packed;
``pack`` is the one loop that assigns slots, and it packs any product of
generator powers, a Monomial's factors or (variable, exponent) pairs from
a caller that builds no Monomial, as the int sum of ``e * 2**(32 * slot)``
(signed digits of ``_WIDTH`` = 32 bits), so the unit is 0, a product is int
addition, an inverse is negation, and a growing table touches no key.
Exponents of terms must stay below ``EXPONENT_LIMIT`` = 2**31 in absolute
value: each polynomial carries a proven exponent bound (the max under
``+``, the sum under ``*``), and one that reaches the limit raises
``ExponentOverflow`` instead of wrapping.  A Monomial alone has no limit
and keeps only its factors.  The first use of ``.terms``, ``str``, JSON or
``evaluate`` unpacks each key once and sorts the terms in canonical order
(``Monomial._sort_key``), independent of the order of the slots.

The kernel is also the one place that turns an assignment into nonzero
rationals (``rational_values``), each read once as an int numerator and
denominator, for ``LaurentPoly.evaluate`` and for the numeric cell matrices
of ``bruhat``.

>>> a = Monomial.of((VarId(0, 1), 1), (VarId(0, 2), -1))
>>> str(a)
'Y[0,1]Y[0,2]^-1'
>>> str(a * a.inverse())
'1'
>>> Monomial.unpack(pack(a.factors) + pack(a.factors)) == a * a
True
"""

from __future__ import annotations

import itertools
import json
import struct
import sys
from fractions import Fraction
from math import gcd
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from .errors import ExponentOverflow, MissingAssignment, ZeroAssignment

_WIDTH = 32
EXPONENT_LIMIT = 1 << (_WIDTH - 1)
_HALF_DIGIT = EXPONENT_LIMIT.to_bytes(_WIDTH // 8, sys.byteorder)
# the unsigned memoryview format of one digit; no match stops the import
_DIGIT = next(f for f in "BHIQ" if struct.calcsize(f) == _WIDTH // 8)


class VarId(NamedTuple):
    """Identifier of the generator Y[s,i]; ordered lexicographically."""

    s: int
    i: int

    def __str__(self) -> str:
        return f"Y[{self.s},{self.i}]"


def _check_var(v: VarId) -> VarId:
    if v.i < 1:
        raise ValueError(f"color index must be >= 1, got {v}")
    return v


# process-wide slot table (variable -> _WIDTH * slot, slot -> variable); each
# update is one atomic call, so threads that meet a new variable agree
_SLOTS = itertools.count()
_SHIFT: dict[VarId, int] = {}
_SLOT_VARS: dict[int, VarId] = {}


def pack(pairs: Iterable[tuple[VarId, int]]) -> int:
    """The packed int of the product of ``v**e`` over (variable, exponent)
    pairs: the int sum of ``e * 2**(_WIDTH * slot)``, with no exponent limit
    and no Monomial built.  Repeated variables add, so cancelling ones vanish.

    The one loop that assigns slots: a variable gets the next slot on first
    use, and one with color < 1 is refused then, as ``Monomial.of`` does.

    Below the limit each digit is its exponent.  Past it digits carry, but
    two products whose exponents differ by less than 2**_WIDTH in every
    variable still pack to equal ints only when they are equal: the lowest
    differing digit would have to be a multiple of 2**_WIDTH.

    >>> y = VarId(0, 1)
    >>> pack([(y, 2), (VarId(0, 2), 1), (y, -2)]) == pack([(VarId(0, 2), 1)])
    True
    """
    key = 0
    for v, e in pairs:
        shift = _SHIFT.get(v)
        if shift is None:
            _check_var(v)
            slot = next(_SLOTS)
            _SLOT_VARS[slot] = v
            shift = _SHIFT.setdefault(v, _WIDTH * slot)
        key += e << shift
    return key


def rational_values(variables: Iterable[VarId],
                    assignment: Mapping[VarId, Fraction]) -> dict[VarId, tuple[int, int]]:
    """Each variable's value as its (numerator, denominator) int pair, in
    the order given, the denominator positive and the pair in lowest terms.
    The first variable with no value raises MissingAssignment, the first
    with a zero value ZeroAssignment."""
    out = {}
    for v in variables:
        if v not in assignment:
            raise MissingAssignment(v)
        value = assignment[v]
        if type(value) is not Fraction:  # a subclass converts too
            value = Fraction(value)
        out[v] = pair = value.as_integer_ratio()
        if not pair[0]:
            raise ZeroAssignment(v)
    return out


class Monomial:
    """An immutable product of integer powers of generators.

    Factors are kept sorted by variable with zero exponents dropped, so
    equal monomials are equal objects in the dict/set sense.

    >>> Monomial.of((VarId(1, 2), 3), (VarId(0, 1), 1), (VarId(0, 1), -1)).factors
    ((VarId(s=1, i=2), 3),)
    """

    __slots__ = ("_factors", "_hash")

    def __init__(self, factors: tuple[tuple[VarId, int], ...]):
        # internal: factors must already be sorted, deduplicated, zero-free
        self._factors = factors
        self._hash = hash(factors)

    @staticmethod
    def one() -> "Monomial":
        return _ONE

    @staticmethod
    def of(*pairs: tuple[VarId, int]) -> "Monomial":
        """Build a monomial from (variable, exponent) pairs.

        Repeated variables accumulate; zero net exponents vanish.  The one
        merge of factor tuples: ``*`` passes both operands' factors here.
        """
        acc: dict[VarId, int] = {}
        for v, e in pairs:
            _check_var(v)
            acc[v] = acc.get(v, 0) + int(e)
        return Monomial(tuple(sorted((v, e) for v, e in acc.items() if e != 0)))

    @property
    def factors(self) -> tuple[tuple[VarId, int], ...]:
        """Sorted (variable, exponent) pairs, exponents nonzero."""
        return self._factors

    def is_one(self) -> bool:
        return not self._factors

    def __mul__(self, other: "Monomial") -> "Monomial":
        if not isinstance(other, Monomial):
            return NotImplemented
        return Monomial.of(*self._factors, *other._factors)

    def inverse(self) -> "Monomial":
        return Monomial(tuple((v, -e) for v, e in self._factors))

    @staticmethod
    def unpack(key: int) -> "Monomial":
        """The monomial packed as key, factors in canonical order.  The bias
        makes each digit its exponent plus EXPONENT_LIMIT, an unsigned
        _WIDTH-bit word."""
        n = key.bit_length() // _WIDTH + 1
        biased = key + int.from_bytes(_HALF_DIGIT * n, sys.byteorder)
        digits = memoryview(biased.to_bytes(n * _WIDTH // 8, sys.byteorder)).cast(_DIGIT)
        factors = [(_SLOT_VARS[j], d - EXPONENT_LIMIT) for j, d in enumerate(digits) if d != EXPONENT_LIMIT]
        return Monomial(tuple(sorted(factors)))

    def _sort_key(self) -> tuple[int, ...]:
        """Key of the canonical term order.

        Monomials compare at the highest variable where their exponents
        differ (absent variables count as exponent zero), and the larger
        exponent sorts first.  The key walks the factors from the highest
        variable down and concatenates one block per factor, ``(0, -s, -i,
        -e)`` for a positive exponent and ``(2, s, i, -e)`` for a negative
        one, then a ``(1,)`` terminator.  Plain tuple comparison of two keys
        then decides at the first differing factor: the block tags order a
        positive exponent before an absent variable before a negative one.

        >>> Monomial.of((VarId(0, 2), 1), (VarId(1, 1), -3))._sort_key()
        (2, 1, 1, 3, 0, 0, -2, -1, 1)
        """
        out: list[int] = []
        for (s, i), e in reversed(self._factors):
            out += (0, -s, -i, -e) if e > 0 else (2, s, i, -e)
        out.append(1)
        return tuple(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self._factors == other._factors

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        if not self._factors:
            return "1"
        parts = []
        for v, e in self._factors:
            parts.append(str(v) if e == 1 else f"{v}^{e}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Monomial({str(self)!r})"


_ONE = Monomial(())


def _checked(bound: int) -> int:
    """bound, a proven exponent bound, if it is below the limit."""
    if bound >= EXPONENT_LIMIT:
        raise ExponentOverflow(f"exponent bound {bound}", EXPONENT_LIMIT)
    return bound


class LaurentPoly:
    """A finite Z-linear combination of monomials.

    A dict from packed monomial to nonzero coefficient, with a proven
    bound on every exponent's absolute value (see the module docstring).

    >>> p = LaurentPoly.from_terms([(Monomial.of((VarId(0, 1), 1)), 1)])
    >>> q = p + LaurentPoly.one()
    >>> str(q)
    'Y[0,1] + 1'
    >>> str(q - q)
    '0'
    """

    __slots__ = ("_coeffs", "_bound", "_terms")

    def __init__(self, coeffs: dict[int, int], bound: int):
        # internal: packed keys within bound, nonzero coefficients, never mutated
        self._coeffs = coeffs
        self._bound = bound
        self._terms = None

    @staticmethod
    def zero() -> "LaurentPoly":
        return _ZERO

    @staticmethod
    def one() -> "LaurentPoly":
        return _POLY_ONE

    @staticmethod
    def from_terms(terms: Iterable[tuple[Monomial, int]]) -> "LaurentPoly":
        acc: dict[int, int] = {}
        bound = 0
        for m, c in terms:
            b = max([abs(e) for _, e in m.factors], default=0)
            if b >= EXPONENT_LIMIT:
                raise ExponentOverflow(f"exponent {b} of a polynomial term", EXPONENT_LIMIT)
            bound = max(bound, b)
            key = pack(m.factors)
            acc[key] = acc.get(key, 0) + int(c)
        return LaurentPoly.from_packed(acc, bound)

    @staticmethod
    def from_packed(counts: Mapping[int, int], bound: int) -> "LaurentPoly":
        """The polynomial with coefficient counts[key] at each packed key; the
        caller proves that no exponent exceeds bound in absolute value."""
        return LaurentPoly({key: c for key, c in counts.items() if c}, _checked(bound))

    @property
    def terms(self) -> tuple[tuple[Monomial, int], ...]:
        """(monomial, coefficient) pairs in canonical order."""
        terms = self._terms
        if terms is None:
            items = [(Monomial.unpack(key), c) for key, c in self._coeffs.items()]
            items.sort(key=lambda t: t[0]._sort_key())
            terms = self._terms = tuple(items)
        return terms

    def monomials(self) -> Iterator[Monomial]:
        for m, _ in self.terms:
            yield m

    def variables(self) -> set[VarId]:
        return {v for m, _ in self.terms for v, _ in m.factors}

    def is_zero(self) -> bool:
        return not self._coeffs

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __len__(self) -> int:
        return len(self._coeffs)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not a:
            return other
        if not b:
            return self
        if len(a) < len(b):
            a, b = b, a  # copy the larger side, fold in the smaller
        acc = dict(a)
        for key, c in b.items():
            c += acc.get(key, 0)
            if c:
                acc[key] = c
            else:
                del acc[key]
        return LaurentPoly(acc, max(self._bound, other._bound))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({key: -c for key, c in self._coeffs.items()}, self._bound)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        """One ``signed_dot`` triple, unless other has one term: then each
        key of self shifts by its key (distinct keys stay distinct, and a
        product of nonzero ints is nonzero), and by the one polynomial not
        at all."""
        if other is _POLY_ONE:
            return self
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if len(other._coeffs) != 1 or not self._coeffs:
            return LaurentPoly.signed_dot(((1, self, other),))
        ((kb, cb),) = other._coeffs.items()
        bound = _checked(self._bound + other._bound)
        return LaurentPoly({ka + kb: ca * cb for ka, ca in self._coeffs.items()}, bound)

    @staticmethod
    def signed_dot(triples: Iterable[tuple[int, "LaurentPoly", "LaurentPoly"]]) -> "LaurentPoly":
        """The sum of ``sign * a * b`` over (sign, a, b) triples, sign ±1.

        The kernel's loop over pairs of terms (``*`` is one triple unless
        its right operand has one term): every term product is folded into
        one dict, zeros are filtered once at the end, and the bound is the
        largest of the products' bounds; no product or partial sum is built
        as a polynomial of its own.  No triples give zero.  Keys past the
        limit may have carried; the bound check refuses them.
        """
        acc: dict[int, int] = {}
        get = acc.get
        bound = 0
        for sign, a, b in triples:
            if not a._coeffs or not b._coeffs:
                continue
            top = a._bound + b._bound
            if top > bound:
                bound = top
            left, right = a._coeffs.items(), b._coeffs.items()
            if sign < 0:
                left = [(ka, -ca) for ka, ca in left]
            for ka, ca in left:
                for kb, cb in right:
                    key = ka + kb
                    acc[key] = get(key, 0) + ca * cb
        return LaurentPoly.from_packed(acc, bound)

    def evaluate(self, assignment: Mapping[VarId, Fraction]) -> Fraction:
        """Exact value at nonzero rationals, one Fraction built at the end.

        Each variable is checked and read once, as its (numerator,
        denominator) pair p/q, by ``rational_values``, in order of first
        appearance over the terms and their factors.  A term is one int over
        another: v**e multiplies them by p**e and q**e, or by q**-e and p**-e
        when e is negative.  The terms are summed over one running denominator,
        merged with each term's by their lcm.
        """
        terms = self.terms
        pairs = rational_values(dict.fromkeys(v for m, _ in terms for v, _ in m.factors), assignment)
        num, den = 0, 1
        for m, c in terms:
            d = 1
            for v, e in m.factors:
                p, q = pairs[v]
                if e > 0:
                    c *= p ** e
                    d *= q ** e
                else:
                    c *= q ** -e
                    d *= p ** -e
            if d == den:
                num += c
            else:
                g = gcd(den, d)
                num = num * (d // g) + c * (den // g)
                den = den // g * d
        return Fraction(num, den)

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def render(self, mono: Callable[[Monomial], str] = str) -> str:
        """Terms in canonical order joined with ' + ', each monomial spelled
        by ``mono``; the constant term prints as its coefficient, and any other
        coefficient but ±1 replaces the empty numerator of a '1/...' spelling.

        >>> p = LaurentPoly.from_terms([(Monomial.one(), 2), (Monomial.of((VarId(0, 1), -1)), -1)])
        >>> p.render()
        '2 + -Y[0,1]^-1'
        >>> (p + p + p).render(lambda m: "1/y")
        '6 + -3/y'
        """
        if not self._coeffs:
            return "0"
        parts = []
        for m, c in self.terms:
            if m.is_one():
                parts.append(str(c))
            elif c == 1:
                parts.append(mono(m))
            elif c == -1:
                parts.append("-" + mono(m))
            else:
                text = mono(m)
                parts.append(f"{c}{text[1:] if text.startswith('1/') else text}")
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"LaurentPoly({str(self)!r})"


_ZERO = LaurentPoly({}, 0)
_POLY_ONE = LaurentPoly({0: 1}, 0)


# ---------------------------------------------------------------------------
# serialization


def mono_to_json(m: Monomial) -> list[list[int]]:
    return [[v.s, v.i, e] for v, e in m.factors]


def poly_to_json(p: LaurentPoly) -> str:
    """Canonical JSON text: a list of {coeff, vars} in term order."""
    return json.dumps(
        [{"coeff": c, "vars": mono_to_json(m)} for m, c in p.terms],
        separators=(",", ":"),
    )


# ---------------------------------------------------------------------------
# parsing


def parse_monomial(text: str) -> Monomial:
    """Parse a monomial written with Y-generators.

    Accepts products of ``Y[s,i]`` factors with optional ``^e`` exponents,
    separated by nothing, '*', or whitespace, and an optional single '/'
    splitting numerator from denominator.  A bare '1' is the empty product.

    >>> str(parse_monomial("1/Y[2,2]"))
    'Y[2,2]^-1'
    >>> parse_monomial("Y[0,1] * Y[1,2]^-3") == Monomial.of(
    ...     (VarId(0, 1), 1), (VarId(1, 2), -3))
    True
    """
    text = text.strip()
    if "/" in text:
        num_text, _, den_text = text.partition("/")
        if "/" in den_text:
            raise ValueError(f"more than one '/' in {text!r}")
        num = _parse_product(num_text)
        den = _parse_product(den_text)
        return num * den.inverse()
    return _parse_product(text)


def _parse_product(text: str) -> Monomial:
    text = text.strip().strip("()")
    if text in ("", "1"):
        return Monomial.one()
    pairs: list[tuple[VarId, int]] = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch in " \t*":
            pos += 1
            continue
        if ch != "Y":
            raise ValueError(f"unexpected {ch!r} at offset {pos} in {text!r}")
        close = text.find("]", pos)
        if close < 0 or text[pos + 1] != "[":
            raise ValueError(f"malformed factor at offset {pos} in {text!r}")
        inner = text[pos + 2 : close]
        s_str, comma, i_str = inner.partition(",")
        if not comma:
            raise ValueError(f"malformed index at offset {pos} in {text!r}")
        s = _parse_int(s_str, "shift", pos + 2, text)
        i = _parse_int(i_str, "color", pos + 3 + len(s_str), text)
        v = _check_var(VarId(s, i))
        pos = close + 1
        exp = 1
        if pos < n and text[pos] == "^":
            pos += 1
            start = pos
            if pos < n and text[pos] in "+-":
                pos += 1
            while pos < n and text[pos].isdigit():
                pos += 1
            exp = _parse_int(text[start:pos], "exponent", start, text)
        pairs.append((v, exp))
    return Monomial.of(*pairs)


def _parse_int(token: str, what: str, offset: int, text: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"malformed {what} at offset {offset} in {text!r}") from None
