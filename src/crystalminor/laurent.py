"""Exact Laurent-monomial and Laurent-polynomial arithmetic.

Variables are doubly indexed: ``VarId(s, i)`` stands for the generator
``Y[s,i]`` with shift ``s`` (any integer) and color ``i >= 1``.  A Monomial
is a finite product of integer powers of such generators and a LaurentPoly
is a finite sum of integer multiples of monomials.  All arithmetic is exact;
coefficients stay in Z and evaluation produces ``fractions.Fraction``.

There is no general division.  Monomials are units, so they carry an
``inverse()``, and that is the only reciprocal the module offers.

A polynomial is held as a dict from monomial to nonzero coefficient, so
``+``, ``-`` and ``*`` only accumulate and never sort.  The canonical term
order (see ``Monomial._sort_key``) is computed at the boundary: the first
use of ``.terms``, ``str``, ``hash`` or the JSON form sorts the terms once
and caches the tuple.  Equality compares the dicts and needs no order.

>>> a = Monomial.of((VarId(0, 1), 1), (VarId(0, 2), -1))
>>> str(a)
'Y[0,1]Y[0,2]^-1'
>>> str(a * a.inverse())
'1'
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from .errors import MissingAssignment, ZeroAssignment

Rational = Fraction


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


class Monomial:
    """An immutable product of integer powers of generators.

    Factors are kept sorted by variable with zero exponents dropped, so
    equal monomials are equal objects in the dict/set sense.

    >>> m = Monomial.of((VarId(1, 2), 3))
    >>> m.exponent(VarId(1, 2))
    3
    >>> m.exponent(VarId(0, 1))
    0
    """

    __slots__ = ("_factors", "_hash", "_key")

    def __init__(self, factors: tuple[tuple[VarId, int], ...]):
        # internal: factors must already be sorted, deduplicated, zero-free
        self._factors = factors
        self._hash = hash(factors)
        self._key = None

    @staticmethod
    def one() -> "Monomial":
        return _ONE

    @staticmethod
    def of(*pairs: tuple[VarId, int]) -> "Monomial":
        """Build a monomial from (variable, exponent) pairs.

        Repeated variables accumulate; zero net exponents vanish.
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

    def exponent(self, v: VarId) -> int:
        for w, e in self._factors:
            if w == v:
                return e
        return 0

    def variables(self) -> Iterator[VarId]:
        for v, _ in self._factors:
            yield v

    def is_one(self) -> bool:
        return not self._factors

    def __mul__(self, other: "Monomial") -> "Monomial":
        if not isinstance(other, Monomial):
            return NotImplemented
        if not other._factors:
            return self
        if not self._factors:
            return other
        # both factor tuples are already valid: add exponents, drop zeros
        acc = dict(self._factors)
        for v, e in other._factors:
            e += acc.get(v, 0)
            if e:
                acc[v] = e
            else:
                del acc[v]
        return Monomial(tuple(sorted(acc.items())))

    def inverse(self) -> "Monomial":
        return Monomial(tuple((v, -e) for v, e in self._factors))

    def __pow__(self, n: int) -> "Monomial":
        if n == 0:
            return _ONE
        return Monomial(tuple((v, e * n) for v, e in self._factors))

    def evaluate(self, assignment: Mapping[VarId, Fraction]) -> Fraction:
        out = Fraction(1)
        for v, e in self._factors:
            if v not in assignment:
                raise MissingAssignment(v)
            val = Fraction(assignment[v])
            if val == 0:
                raise ZeroAssignment(v)
            out *= val**e
        return out

    def _sort_key(self) -> tuple[int, ...]:
        """Key of the canonical term order, computed once and cached.

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
        key = self._key
        if key is None:
            out: list[int] = []
            for (s, i), e in reversed(self._factors):
                out += (0, -s, -i, -e) if e > 0 else (2, s, i, -e)
            out.append(1)
            key = self._key = tuple(out)
        return key

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self._factors == other._factors

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Monomial") -> bool:
        return self._sort_key() < other._sort_key()

    def __le__(self, other: "Monomial") -> bool:
        return self._sort_key() <= other._sort_key()

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


class LaurentPoly:
    """A finite Z-linear combination of monomials.

    The terms live in a dict from monomial to nonzero coefficient; the
    canonical order is sorted on first use of ``terms``, ``str``, ``hash``
    or the JSON form and cached, since the polynomial is immutable.

    >>> p = LaurentPoly.from_monomial(Monomial.of((VarId(0, 1), 1)))
    >>> q = p + LaurentPoly.one()
    >>> str(q)
    'Y[0,1] + 1'
    >>> str(q - q)
    '0'
    """

    __slots__ = ("_coeffs", "_terms")

    def __init__(self, coeffs: dict[Monomial, int]):
        # internal: coefficients must be nonzero; the dict is never mutated
        self._coeffs = coeffs
        self._terms = None

    @staticmethod
    def zero() -> "LaurentPoly":
        return _ZERO

    @staticmethod
    def one() -> "LaurentPoly":
        return _POLY_ONE

    @staticmethod
    def from_monomial(m: Monomial, coeff: int = 1) -> "LaurentPoly":
        if coeff == 0:
            return _ZERO
        return LaurentPoly({m: int(coeff)})

    @staticmethod
    def from_terms(terms: Iterable[tuple[Monomial, int]]) -> "LaurentPoly":
        acc: dict[Monomial, int] = {}
        for m, c in terms:
            acc[m] = acc.get(m, 0) + int(c)
        return LaurentPoly({m: c for m, c in acc.items() if c})

    @property
    def terms(self) -> tuple[tuple[Monomial, int], ...]:
        """(monomial, coefficient) pairs in canonical order."""
        terms = self._terms
        if terms is None:
            items = sorted(self._coeffs.items(), key=lambda t: t[0]._sort_key())
            terms = self._terms = tuple(items)
        return terms

    def coefficient(self, m: Monomial) -> int:
        return self._coeffs.get(m, 0)

    def monomials(self) -> Iterator[Monomial]:
        for m, _ in self.terms:
            yield m

    def variables(self) -> set[VarId]:
        out: set[VarId] = set()
        for m in self._coeffs:
            out.update(m.variables())
        return out

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
        for m, c in b.items():
            c += acc.get(m, 0)
            if c:
                acc[m] = c
            else:
                del acc[m]
        return LaurentPoly(acc)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({m: -c for m, c in self._coeffs.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            if not other:
                return _ZERO
            return LaurentPoly({m: c * other for m, c in self._coeffs.items()})
        if isinstance(other, Monomial):
            # multiplying by a unit is injective: no terms merge
            return LaurentPoly({m * other: c for m, c in self._coeffs.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        acc: dict[Monomial, int] = {}
        get = acc.get
        right = other._coeffs.items()
        for ma, ca in self._coeffs.items():
            for mb, cb in right:
                m = ma * mb
                acc[m] = get(m, 0) + ca * cb
        return LaurentPoly({m: c for m, c in acc.items() if c})

    __rmul__ = __mul__

    def evaluate(self, assignment: Mapping[VarId, Fraction]) -> Fraction:
        """Exact value at nonzero rationals, in canonical term order.

        Raises MissingAssignment if a variable has no value and
        ZeroAssignment if any used value is zero.
        """
        out = Fraction(0)
        for m, c in self.terms:
            out += c * m.evaluate(assignment)
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self.terms)

    def render(self, mono: Callable[[Monomial], str] = str) -> str:
        """Terms in canonical order joined with ' + ', each monomial spelled
        by ``mono``; the constant term prints as its coefficient.

        >>> p = LaurentPoly.from_terms([(Monomial.one(), 2), (Monomial.of((VarId(0, 1), -1)), -1)])
        >>> p.render()
        '2 + -Y[0,1]^-1'
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
                parts.append(f"{c}{mono(m)}")
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"LaurentPoly({str(self)!r})"


_ZERO = LaurentPoly({})
_POLY_ONE = LaurentPoly({_ONE: 1})


# ---------------------------------------------------------------------------
# packed monomials


class PackedCodec:
    """Monomials over a fixed set of variables, each packed into one int.

    The caller proves that no exponent it decodes exceeds ``bound`` in
    absolute value.  Each variable gets a slot, in variable order, of
    ``width`` bits: the least of 8, 16, 32 and 64 that holds ``2 * bound``.
    A slot holds its exponent plus ``bound``, so ``one`` (every slot at
    ``bound``) packs 1 and adding ``step(m)`` multiplies by m.  Packing is
    additive, so partial sums may leave the slots freely; only the value
    decoded has to obey the bound.  ``decode`` reads the slots in variable
    order, so its factors come out canonically sorted.  A bound too wide
    for 64-bit slots, an exponent past the bound, a variable without a
    slot and a value outside the slots raise ``OverflowError``; nothing
    wraps silently.

    >>> x, y = VarId(0, 1), VarId(1, 2)
    >>> codec = PackedCodec([y, x], bound=2)
    >>> codec.width, codec.one == 2 + (2 << 8)
    (8, True)
    >>> packed = codec.one + codec.step(Monomial.of((x, 2))) + codec.step(Monomial.of((y, -1)))
    >>> str(codec.decode(packed))
    'Y[0,1]^2Y[1,2]^-1'
    >>> codec.step(Monomial.of((x, 3)))
    Traceback (most recent call last):
    ...
    OverflowError: exponent 3 of Y[0,1] exceeds the bound 2
    """

    __slots__ = ("variables", "bound", "width", "one", "_shift", "_format", "_bytes")

    def __init__(self, variables: Iterable[VarId], bound: int):
        if bound < 0:
            raise ValueError(f"exponent bound must be >= 0, got {bound}")
        for width, fmt in ((8, "B"), (16, "H"), (32, "I"), (64, "Q")):
            if 2 * bound < 1 << width:
                break
        else:
            raise OverflowError(f"exponent bound {bound} needs slots wider than 64 bits")
        self.variables = tuple(sorted(set(variables)))
        self.bound = bound
        self.width = width
        self._shift = {v: n * width for n, v in enumerate(self.variables)}
        self._format = fmt
        self._bytes = len(self.variables) * width // 8
        self.one = sum(bound << s for s in self._shift.values())

    def step(self, m: Monomial) -> int:
        """Offset that multiplies a packed monomial by m."""
        out = 0
        for v, e in m.factors:
            s = self._shift.get(v)
            if s is None:
                raise OverflowError(f"{v} has no slot")
            if abs(e) > self.bound:
                raise OverflowError(f"exponent {e} of {v} exceeds the bound {self.bound}")
            out += e << s
        return out

    def decode(self, packed: int) -> Monomial:
        """The monomial packed in ``packed``, factors in canonical order."""
        # to_bytes raises OverflowError for a negative or too long value
        digits = memoryview(packed.to_bytes(self._bytes, sys.byteorder)).cast(self._format)
        bound = self.bound
        factors = tuple((v, e - bound) for v, e in zip(self.variables, digits) if e != bound)
        for v, e in factors:
            if e > bound:
                raise OverflowError(f"slot of {v} exceeds the bound {bound}")
        return Monomial(factors)


# ---------------------------------------------------------------------------
# serialization


def mono_to_json(m: Monomial) -> list[list[int]]:
    return [[v.s, v.i, e] for v, e in m.factors]


def mono_from_json(data: Iterable[Iterable[int]]) -> Monomial:
    return Monomial.of(*((VarId(int(s), int(i)), int(e)) for s, i, e in data))


def poly_to_json(p: LaurentPoly) -> str:
    """Canonical JSON text: a list of {coeff, vars} in term order."""
    return json.dumps(
        [{"coeff": c, "vars": mono_to_json(m)} for m, c in p.terms],
        separators=(",", ":"),
    )


def poly_from_json(text: str) -> LaurentPoly:
    data = json.loads(text)
    return LaurentPoly.from_terms(
        (mono_from_json(t["vars"]), int(t["coeff"])) for t in data
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
