"""Crystal structure on Laurent monomials, Demazure subsets, tau aliases.

Fix a rank ``r``.  Monomials in the generators ``Y[s,i]`` (shift s, color
``1 <= i <= r``) carry a type-A crystal structure: every color has a raising
operator and a lowering operator that act by multiplying with a distinguished
monomial ``A[s,i]`` or its inverse, where the shift ``s`` is picked by an
argmax scan over partial sums of the color-i exponents.  The sign convention
is fixed so that the cyclic color pattern reads 1, 2, ..., r repeating as the
shift grows.

``apply_e`` and ``apply_f`` read only color i of a monomial; A[s,i] and its
inverse are built once per (r, s, i), in a bounded cache, each as one record:
the Monomial, its packed int, its shift and its factors grouped by color.
One color filter, ``_split``, groups those factors, splits a walk's seed and
feeds ``node_stats``.  ``component`` and the Demazure closure are one walk: a
member is a packed int and one tuple of r color-state ids, where a color
state is one color's factors in shift order, stored once per walk with its
weight, phi, epsilon and its two operators, the cached records of A[s,i] or
its inverse at the state's raising or lowering shift.  A step adds the
operator's packed int to the member's int; on a new member it moves each of
the colors i-1, i and i+1 that A[s,i] touches once, by that color's group,
and a state is bumped and interned only on a move the walk has not made
before.  Nodes read their weight and string data from the states.  The
states and the moves between them live as long as one walk.  Operator
results are never stored, so every step really applies the operator.

Connected components of this action are finite crystal graphs; closing a
suitable extremal monomial under one operator along a reduced word, letter by
letter from the right, carves out the Demazure subset used elsewhere in the
package.

Monomials whose variables sit in the window covered by a length-n reduced
word double as the coordinates tau_1, ..., tau_n of a factorization cell;
``tau_render`` prints them that way.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain
from typing import Iterator

from .defaults import DEFAULT_CAP
from .errors import CapExceeded, ColorOutOfRange, ExponentOverflow, NotTauRenderable
from .laurent import EXPONENT_LIMIT, LaurentPoly, Monomial, VarId, pack

_Pairs = tuple[tuple[VarId, int], ...]


def cartan(i: int, j: int) -> int:
    """Entry (i, j) of the type-A Cartan matrix.

    >>> [cartan(2, j) for j in range(1, 5)]
    [-1, 2, -1, 0]
    """
    if i == j:
        return 2
    if abs(i - j) == 1:
        return -1
    return 0


@dataclass(frozen=True)
class CrystalConfig:
    """Rank of the crystal; the color convention is fixed (see module doc)."""

    r: int

    def __post_init__(self):
        if self.r < 1:
            raise ValueError(f"rank must be >= 1, got {self.r}")

    def colors(self) -> range:
        return range(1, self.r + 1)


def _check_color(cfg: CrystalConfig, i: int) -> None:
    if not 1 <= i <= cfg.r:
        raise ColorOutOfRange(i, cfg.r)


@lru_cache(maxsize=1024)
def _a_pair(r: int, s: int, i: int) -> tuple[tuple, tuple]:
    """A[s,i] at rank r and its inverse, built once per (r, s, i), each as
    the record a walk's operator reads: the Monomial, its packed int, the
    shift s and its factors grouped by color.  A group is a color index
    c - 1 and color c's factors in shift order."""
    pairs = [(VarId(s, i), 1), (VarId(s + 1, i), 1)]
    if i > 1:
        pairs.append((VarId(s + 1, i - 1), -1))
    if i < r:
        pairs.append((VarId(s, i + 1), -1))
    a = Monomial.of(*pairs)
    key = pack(a.factors)
    touched = range(max(i - 1, 1), min(i + 1, r) + 1)

    def grouped(m: Monomial) -> tuple:
        return tuple([(c - 1, col) for c, col in zip(touched, _split(m, touched))])

    inverse = a.inverse()
    return (a, key, s, grouped(a)), (inverse, -key, s, grouped(inverse))


def a_monomial(cfg: CrystalConfig, s: int, i: int) -> Monomial:
    """The multiplier monomial A[s,i] of color i at shift s.

    >>> str(a_monomial(CrystalConfig(2), 0, 1))
    'Y[0,1]Y[0,2]^-1Y[1,1]'
    """
    _check_color(cfg, i)
    return _a_pair(cfg.r, s, i)[0][0]


@dataclass(frozen=True)
class CrystalNode:
    """A monomial with its weight and string data in every color."""

    monomial: Monomial
    weight: tuple[int, ...]
    phi: tuple[int, ...]
    epsilon: tuple[int, ...]


def _split(m: Monomial, colors: range) -> list[_Pairs]:
    """m's factors of each of the given colors, in shift order."""
    return [tuple([f for f in m.factors if f[0].i == c]) for c in colors]


def _color_scan(col: _Pairs) -> tuple:
    """(weight, phi, raising shift, lowering shift) of one color, read from
    its factors in shift order: the shifts are those of ``kashiwara_rows``."""
    run = phi = 0
    lower = follower = None
    for v, e in col:
        if run == phi:  # the partial sum before v attains phi so far
            follower = v
        run += e
        if run > phi:
            phi, lower = run, v
    return run, phi, follower.s - 1 if phi > run else None, None if lower is None else lower.s


def node_stats(cfg: CrystalConfig, m: Monomial) -> CrystalNode:
    """Weight and string data of m in all colors.

    weight[i-1] is the exponent sum of color i; phi[i-1] is the max over
    shifts n of the partial exponent sum of color i up to n (at least 0);
    epsilon[i-1] = phi[i-1] - weight[i-1].  Colors above r are ignored.
    The crystal walk reads the operator shifts from the same per-color
    scan (``_color_scan``).
    """
    weight, phi, _, _ = zip(*[_color_scan(col) for col in _split(m, cfg.colors())])
    return CrystalNode(m, weight, phi, tuple([p - w for p, w in zip(phi, weight)]))


def kashiwara_rows(cfg: CrystalConfig, m: Monomial, i: int) -> tuple[int | None, int | None]:
    """Shifts at which the color-i operators act on m: (raise, lower).

    The raising shift is the largest n whose partial sum of color-i
    exponents up to n still attains phi_i (defined only when epsilon_i > 0);
    the lowering shift is the smallest such n (defined only when phi_i > 0).
    One pass over m's factors that reads only color i.

    >>> m = Monomial.of((VarId(0, 1), 1), (VarId(1, 1), -1), (VarId(3, 1), 1), (VarId(5, 1), -1))
    >>> kashiwara_rows(CrystalConfig(1), m, 1)
    (4, 0)
    """
    _check_color(cfg, i)
    run = phi = 0
    lower = follower = None
    at_max = True  # the empty partial sum attains phi = 0
    for (s, c), e in m.factors:
        if c != i:
            continue
        if at_max:
            follower = s
        run += e
        if run > phi:
            phi, lower = run, s
        at_max = run == phi
    return (follower - 1 if phi > run else None), lower


def apply_e(cfg: CrystalConfig, m: Monomial, i: int) -> Monomial | None:
    """Raising operator of color i; None when epsilon_i(m) = 0."""
    row, _ = kashiwara_rows(cfg, m, i)
    if row is None:
        return None
    return m * _a_pair(cfg.r, row, i)[0][0]


def apply_f(cfg: CrystalConfig, m: Monomial, i: int) -> Monomial | None:
    """Lowering operator of color i; None when phi_i(m) = 0."""
    _, row = kashiwara_rows(cfg, m, i)
    if row is None:
        return None
    return m * _a_pair(cfg.r, row, i)[1][0]


class CrystalGraph:
    """A connected component: nodes in discovery order, colored edges.

    Edges run in the lowering direction: (src, color, dst) means the color-i
    lowering operator maps node src to node dst.
    """

    def __init__(self, r: int, nodes: tuple[CrystalNode, ...],
                 edges: tuple[tuple[int, int, int], ...]):
        self.r = r
        self.nodes = nodes
        self.edges = edges
        self._index = {node.monomial: k for k, node in enumerate(nodes)}

    def node_count(self) -> int:
        return len(self.nodes)

    def edge_count(self) -> int:
        return len(self.edges)

    def index_of(self, m: Monomial) -> int:
        return self._index[m]

    def __contains__(self, m: Monomial) -> bool:
        return m in self._index

    def sources(self) -> list[CrystalNode]:
        """Nodes with no raising operator in any color."""
        return [n for n in self.nodes if not any(n.epsilon)]


def _bump(col: _Pairs, v: VarId, d: int) -> _Pairs:
    """col, one color's factors in shift order, with d added to the exponent
    of v (a factor at zero dropped)."""
    k = 0
    for w, e in col:
        if w >= v:
            if w != v:
                return col[:k] + ((v, d),) + col[k:]
            e += d
            return col[:k] + ((v, e),) + col[k + 1 :] if e else col[:k] + col[k + 1 :]
        k += 1
    return col + ((v, d),)


class _Walk:
    """The members a crystal search has found, in discovery order.

    Member k is the packed int keys[k] (``index`` maps it back to k) and
    ids[k], the ids of its color states 1..r.  State j is one color's
    factors in shift order, states[j], interned by (color, factors): two
    colors with no factors are two states.  weight[j], phi[j] and
    epsilon[j] are its string data, and ops[j] its raising and its lowering
    operator, taken when it is interned: None where the operator is not
    defined, else ``_a_pair``'s record of A[shift,c] or of its inverse, c
    the state's color.
    moves maps (state id, shift, i, half) to the state that the group of
    the state's color in A[shift,i] (half 0) or its inverse (half 1) makes
    of it.  Seed factors of color above r, which no step touches, are in
    the packed ints and ``extra`` only.  Every state belongs to some member.
    No table outlives the walk.
    """

    __slots__ = ("r", "cap", "extra", "keys", "index", "ids", "states",
                 "weight", "phi", "epsilon", "ops", "interned", "moves")

    def __init__(self, cfg: CrystalConfig, seed: Monomial, cap: int):
        # every member lies within cap steps of +-1 of the seed, and the cap
        # stays below EXPONENT_LIMIT, so two members differ by less than
        # 2 * EXPONENT_LIMIT, one packed digit's range, in every variable and
        # their packed ints are equal only when they are (see ``pack``): no
        # limit applies to the members' own exponents
        self.r, self.cap = cfg.r, min(cap, EXPONENT_LIMIT - 1)
        self.extra = [f for f in seed.factors if f[0].i > cfg.r]
        self.keys = [pack(seed.factors)]
        self.index = {self.keys[0]: 0}
        self.states, self.weight, self.phi, self.epsilon, self.ops = [], [], [], [], []
        self.interned, self.moves = {}, {}
        self.ids = [tuple([self._state(c, col) for c, col in enumerate(_split(seed, cfg.colors()), 1)])]

    def _state(self, color: int, col: _Pairs) -> int:
        j = self.interned.get((color, col))
        if j is None:
            j = self.interned[color, col] = len(self.states)
            self.states.append(col)
            weight, phi, up, down = _color_scan(col)
            self.weight.append(weight)
            self.phi.append(phi)
            self.epsilon.append(phi - weight)
            self.ops.append((None if up is None else _a_pair(self.r, up, color)[0],
                             None if down is None else _a_pair(self.r, down, color)[1]))
        return j

    def step(self, at: int, i: int, half: int, op: tuple) -> int:
        """Id of member at moved by op, the raising (half 0) or lowering
        (half 1) operator of its color-i state.  A new member is added with
        its states of colors i-1, i and i+1 each moved once by op's group of
        that color, bumped and interned only on a move not made before;
        CapExceeded once there are more than cap."""
        key = self.keys[at] + op[1]
        k = self.index.get(key)
        if k is None:
            k = self.index[key] = len(self.keys)
            self.keys.append(key)
            if k >= self.cap:
                raise CapExceeded(self.cap)
            _, _, shift, groups = op
            ids = list(self.ids[at])
            moves = self.moves
            for c, group in groups:
                move = (ids[c], shift, i, half)
                j = moves.get(move)
                if j is None:
                    col = self.states[ids[c]]
                    for v, e in group:
                        col = _bump(col, v, e)
                    j = moves[move] = self._state(c + 1, col)
                ids[c] = j
            self.ids.append(tuple(ids))
        return k

    def _gather(self, table: list) -> Iterator[tuple]:
        """table's entries at each member's state ids, one tuple per member
        in member order."""
        return zip(*[map(table.__getitem__, col) for col in zip(*self.ids)])

    def monomials(self) -> list[Monomial]:
        """Every member's monomial, in member order."""
        extra = self.extra
        return [Monomial(tuple(sorted(chain(extra, *cols)))) for cols in self._gather(self.states)]

    def nodes(self) -> list[CrystalNode]:
        """Every member's node, its string data gathered from the state
        tables."""
        return list(map(CrystalNode, self.monomials(), self._gather(self.weight),
                        self._gather(self.phi), self._gather(self.epsilon)))


def component(cfg: CrystalConfig, seed: Monomial, cap: int = DEFAULT_CAP) -> CrystalGraph:
    """Connected component of seed under all raising and lowering operators.

    Breadth-first from the seed, so node ids are deterministic: members are
    visited in id order and, per color, take the step of f_i where phi_i > 0,
    then that of e_i where epsilon_i > 0.  Raising and lowering invert each
    other, so each edge is recorded once, from its end with the smaller id.
    Raises CapExceeded as soon as more than cap nodes exist.
    """
    walk = _Walk(cfg, seed, cap)
    ops, step = walk.ops, walk.step
    edges: list[tuple[int, int, int]] = []
    for at, ids in enumerate(walk.ids):  # the list grows as members are found
        for i, j in enumerate(ids, 1):
            up, down = ops[j]
            if down is not None and (k := step(at, i, 1, down)) > at:
                edges.append((at, i, k))
            if up is not None and (k := step(at, i, 0, up)) > at:
                edges.append((k, i, at))
    return CrystalGraph(cfg.r, tuple(walk.nodes()), tuple(edges))


@dataclass(frozen=True)
class DemazureSpec:
    """Word, direction sign and extremal seed for a Demazure subset.

    Sign "minus" grows the seed upward with raising operators and requires
    phi(seed) = 0 in every color; sign "plus" grows downward with lowering
    operators and requires epsilon(seed) = 0.
    """

    word: tuple[int, ...]
    sign: str
    seed: Monomial

    def __post_init__(self):
        if self.sign not in ("minus", "plus"):
            raise ValueError(f"sign must be 'minus' or 'plus', got {self.sign!r}")


def _demazure_walk(cfg: CrystalConfig, spec: DemazureSpec, cap: int) -> _Walk:
    """The closure behind ``demazure`` and ``demazure_polynomial``."""
    for i in spec.word:
        _check_color(cfg, i)
    walk = _Walk(cfg, spec.seed, cap)
    if spec.sign == "minus" and any([walk.phi[j] for j in walk.ids[0]]):
        raise ValueError("minus-sign seed must have phi = 0 in every color")
    if spec.sign == "plus" and any([walk.epsilon[j] for j in walk.ids[0]]):
        raise ValueError("plus-sign seed must have epsilon = 0 in every color")
    # raise by A[s,i] at the raising shift, or lower by its inverse at the lowering one
    half = 0 if spec.sign == "minus" else 1
    ids, ops, step = walk.ids, walk.ops, walk.step
    for i in reversed(spec.word):
        walked: set[int] = set()
        for start in range(len(ids)):
            at = start
            while at not in walked:
                walked.add(at)
                op = ops[ids[at][i - 1]][half]
                if op is None:
                    break
                at = step(at, i, half, op)
    return walk


def demazure(cfg: CrystalConfig, spec: DemazureSpec, cap: int = DEFAULT_CAP) -> tuple[Monomial, ...]:
    """Demazure subset of the component of spec.seed, in discovery order.

    The word is consumed from its last letter to its first; each letter
    closes the current set under every power of the one-color operator,
    walking the letter's string from each member found before it.  The
    result therefore only grows as letters are consumed, and a suffix of
    the word yields a subset of the full word's result.

    A walk stops at a member that this letter has already walked from,
    since the rest of its string is already in the set; the discovery order
    is that of full walks.  Exponents have no limit.
    """
    walk = _demazure_walk(cfg, spec, cap)
    return tuple(walk.monomials())


def demazure_polynomial(cfg: CrystalConfig, spec: DemazureSpec, cap: int = DEFAULT_CAP) -> LaurentPoly:
    """Sum of the Demazure subset, each monomial with coefficient one.

    Runs the walk of ``demazure`` and keeps only the packed ints, with the
    largest absolute exponent of its states and extra factors, so of its
    members, as the exponent bound.  An exceeded cap wins over an exponent
    past the limit.
    """
    walk = _demazure_walk(cfg, spec, cap)
    top = max([abs(e) for _, e in chain(walk.extra, *walk.states)], default=0)
    if top >= EXPONENT_LIMIT:
        # each member is one +-1 step from an earlier one, so the first
        # member past the limit is the seed or has the limit itself as its
        # largest exponent
        first = max([EXPONENT_LIMIT] + [abs(e) for _, e in spec.seed.factors])
        raise ExponentOverflow(f"exponent {first} of a polynomial term", EXPONENT_LIMIT)
    return LaurentPoly.from_packed(dict.fromkeys(walk.keys, 1), top)


# ---------------------------------------------------------------------------
# tau aliases


def tau_index(r: int, v: VarId) -> int:
    """Single-index alias of Y[s,i] at rank r.

    Shifts 0 <= s < r map into positions of the staircase word: cycle s
    starts after the s*r - s*(s-1)/2 positions of the cycles before it, of
    lengths r, r-1, ..., r-s+1.  Shift -1 maps to the negative aliases
    -r, ..., -1.  Everything else has no alias.

    >>> [tau_index(4, VarId(s, 1)) for s in range(4)]
    [1, 5, 8, 10]
    """
    if v.s >= 0 and v.s < r and 1 <= v.i <= r - v.s:
        return v.s * r - v.s * (v.s - 1) // 2 + v.i
    if v.s == -1 and 1 <= v.i <= r:
        return -(r + 1 - v.i)
    raise NotTauRenderable(v)


def _tau_str(k: int, e: int) -> str:
    base = f"τ_{{{k}}}" if k < 0 else f"τ_{k}"
    return base if e == 1 else f"{base}^{e}"


def tau_render(cfg: CrystalConfig, m: Monomial) -> str:
    """Fraction form of m in tau aliases, e.g. 'τ_3τ_5/(τ_4τ_6)'.

    Numerator and denominator factors are sorted by alias index; a lone
    denominator factor is printed without parentheses; an empty numerator
    prints as 1.  Raises NotTauRenderable if any variable has no alias.
    """
    num = sorted([(tau_index(cfg.r, v), e) for v, e in m.factors if e > 0])
    den = sorted([(tau_index(cfg.r, v), -e) for v, e in m.factors if e < 0])
    top = "".join([_tau_str(k, e) for k, e in num]) or "1"
    if not den:
        return top
    bottom = "".join([_tau_str(k, e) for k, e in den])
    if len(den) > 1:
        bottom = f"({bottom})"
    return f"{top}/{bottom}"


def tau_render_poly(cfg: CrystalConfig, p: LaurentPoly) -> str:
    """Terms of p in canonical order, tau-rendered, joined with ' + '."""
    return p.render(partial(tau_render, cfg))


def monomial_text(cfg: CrystalConfig, m: Monomial, form: str) -> str:
    """m in tau aliases when form is 'tau', in Y variables otherwise."""
    return tau_render(cfg, m) if form == "tau" else str(m)


# ---------------------------------------------------------------------------
# export


def graph_to_dot(g: CrystalGraph) -> str:
    """DOT text: tau-rendered nodes by id, arrows in the lowering direction."""
    cfg = CrystalConfig(g.r)
    lines = ["digraph crystal {", "  rankdir=TB;", '  node [shape=plaintext];']
    for k, node in enumerate(g.nodes):
        lines.append(f'  n{k} [label="{tau_render(cfg, node.monomial)}"];')
    for src, color, dst in g.edges:
        lines.append(f'  n{src} -> n{dst} [label="{color}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json(g: CrystalGraph) -> str:
    """JSON text with both spellings of every node and the edge list.

    The tau field is null for nodes outside the alias window.
    """
    cfg = CrystalConfig(g.r)
    nodes = []
    for k, node in enumerate(g.nodes):
        try:
            tau = tau_render(cfg, node.monomial)
        except NotTauRenderable:
            tau = None
        nodes.append(
            {
                "id": k,
                "y": str(node.monomial),
                "tau": tau,
                "weight": list(node.weight),
                "phi": list(node.phi),
                "epsilon": list(node.epsilon),
            }
        )
    edges = [{"from": a, "color": i, "to": b} for a, i, b in g.edges]
    return json.dumps({"r": g.r, "nodes": nodes, "edges": edges}, separators=(",", ":"))
