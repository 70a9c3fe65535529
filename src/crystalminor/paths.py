"""Lattice paths behind the minor expansions.

A path descends through m+1 levels carrying d strictly increasing
entries per level; each step keeps an entry or bumps it by one.  Every
path gets a Laurent-monomial label, and the sum of labels over all
paths from (m;1,...,d) down to (0;m'+1,...,m'+d) reproduces the
corresponding cell minor term by term.  Two closed forms of that sum
are implemented as well: one over stationary-entry arrays, one special
to d = 1.

The path sum and the array closed form are each one depth-first walk,
over paths and over arrays respectively: an explicit stack of one
iterator per level, over a prefix kept in place and never copied.
Every edge (or row at a given depth) is an int sum of per-slot units
(``_unit``), each slot's variable packed once and kept in a bounded cache,
with no Monomial and no (variable, exponent) pair built.  A label is the
int sum along the walk, and the sums pass their label counts to
``LaurentPoly.from_packed`` unpacked.  The exporters unpack one label per
path (the DOT export one per edge), so nothing relabels a path from its
rows; ``label``, ``edge_label`` and ``cbar`` stay as the references, built
from (variable, exponent) pairs and sharing only ``_slot`` with the units.
The two walks share no code, so each checks the other.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations
from math import comb
from operator import ge
from typing import Iterable, Iterator

from .crystal import CrystalConfig, tau_render
from .errors import RankTooSmall
from .laurent import LaurentPoly, Monomial, VarId, pack


@dataclass(frozen=True)
class PathSpec:
    """Shape of a path family: d entries per level, m steps, shift mprime."""

    d: int
    m: int
    mprime: int

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("d must be positive")
        if not 1 <= self.mprime <= self.m:
            raise ValueError("need 1 <= mprime <= m")

    @property
    def depth(self) -> int:
        """Stationary steps per column: m - mprime."""
        return self.m - self.mprime

    def source(self) -> tuple[int, ...]:
        return tuple(range(1, self.d + 1))

    def target(self) -> tuple[int, ...]:
        return tuple(range(self.mprime + 1, self.mprime + self.d + 1))


@dataclass(frozen=True)
class Path:
    """Levels a^(0) .. a^(m), one strictly increasing tuple per level.

    The first level must be (1, ..., d) and the last a shifted copy of
    it; every step keeps each entry or raises it by one, and levels stay
    strictly increasing left to right.
    """

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(int(a) for a in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        if len(rows) < 2:
            raise ValueError("a path needs at least two levels")
        d = len(rows[0])
        if d < 1 or any(len(row) != d for row in rows):
            raise ValueError("levels must all have the same positive width")
        for row in rows:
            if row[0] < 1:
                raise ValueError("entries must be positive")
            if any(row[i] >= row[i + 1] for i in range(d - 1)):
                raise ValueError("levels must increase strictly")
        for cur, nxt in zip(rows, rows[1:]):
            if any(nxt[i] - cur[i] not in (0, 1) for i in range(d)):
                raise ValueError("each step keeps an entry or adds one")
        if rows[0] != tuple(range(1, d + 1)):
            raise ValueError("first level must be 1..d")
        shift = rows[-1][0] - 1
        if rows[-1] != tuple(range(shift + 1, shift + d + 1)):
            raise ValueError("last level must be consecutive")

    @property
    def m(self) -> int:
        return len(self.rows) - 1

    @property
    def d(self) -> int:
        return len(self.rows[0])

    @property
    def mprime(self) -> int:
        return self.rows[-1][0] - 1


def _path_table(spec: PathSpec, edge) -> dict:
    """Children of every vertex a path passes, keyed by (level, row).

    Each entry lists (next row, edge(level, row, next row)) in enumeration
    order.  A step keeps each entry or raises it by one, keeps the row
    strictly increasing, and stays within reach of the target; from every
    such vertex the target is reachable, so every edge lies on a path.
    Rows are grown entry by entry, keeping only prefixes that obey these
    rules, so a vertex costs its children rather than all 2^d steps.
    """
    d, m, mp = spec.d, spec.m, spec.mprime
    table: dict = {}
    level = [spec.source()]
    for s in range(m):
        left = m - s - 1
        bounds = [(mp + i + 1 - left, mp + i + 1) for i in range(d)]
        seen: dict = {}
        for cur in level:
            rows = [()]
            for a, (lo, hi) in zip(cur, bounds):
                rows = [row + (x,) for row in rows for x in (a, a + 1)
                        if lo <= x <= hi and (not row or row[-1] < x)]
            table[s, cur] = [(nxt, edge(s, cur, nxt)) for nxt in rows]
            seen.update(dict.fromkeys(rows))
        level = list(seen)
    return table


def _path_walk(spec: PathSpec, table: dict):
    """Depth first over the paths of spec, in enumeration order.

    Yields (levels, label) per path: levels is the walk's own list of rows
    (copy it to keep it), label is the sum of the table's edge values along
    the path.  The stack holds one iterator per level, over the children of
    that level's row.
    """
    m = spec.m
    levels = [spec.source()] * (m + 1)
    labels = [0] * (m + 1)
    stack = [iter(table[0, levels[0]])]
    while stack:
        s = len(stack)
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
            continue
        nxt, delta = step
        levels[s] = nxt
        labels[s] = labels[s - 1] + delta
        if s < m:
            stack.append(iter(table[s, nxt]))
        else:
            yield levels, labels[s]


def count_paths(spec: PathSpec) -> int:
    """Number of paths of the given shape: the plane partitions in the
    d x mprime x (m - mprime) box, by MacMahon's product of
    C(b+c+i-1, b) / C(b+i-1, b) over i = 1..a, a the shortest side.  Each
    partial product counts an i x b x c box, so every division is exact."""
    a, b, c = sorted((spec.d, spec.mprime, spec.depth))
    n = 1
    for i in range(1, a + 1):
        n = n * comb(b + c + i - 1, b) // comb(b + i - 1, b)
    return n


def enumerate_paths(spec: PathSpec) -> tuple[Path, ...]:
    """All paths of the given shape, ordered by their flattened levels, each
    built as a validated Path; a reference beside the sums, which walk the
    same table without building paths.

    >>> [p.rows[1] for p in enumerate_paths(PathSpec(2, 3, 2))]
    [(1, 2), (1, 3), (1, 3), (2, 3), (2, 3), (2, 3)]
    >>> len(enumerate_paths(PathSpec(3, 3, 3)))
    1
    """
    table = _path_table(spec, lambda s, cur, nxt: 0)
    return tuple(Path(tuple(levels)) for levels, _ in _path_walk(spec, table))


def _slot(r: int, c: int, j: int) -> VarId | None:
    """Variable in slot j of cycle c, or None when the slot is a unit.

    A rank below 1 has no slots.  Slots 0 and r+1 are the boundary units;
    slots 1..r-c exist; anything else does not fit into rank r.
    """
    if r < 1:
        raise RankTooSmall(f"rank must be >= 1, got {r}")
    if j == 0 or j == r + 1:
        return None
    if 0 <= c and 1 <= j <= r - c:
        return VarId(c, j)
    raise RankTooSmall(f"slot {j} of cycle {c} does not exist at rank {r}")


def _ratio_pairs(r: int, c: int, up: int, down: int) -> Iterator[tuple[VarId, int]]:
    """(variable, +1) for slot ``up`` and (variable, -1) for slot ``down``
    of cycle c, skipping unit slots; every reference label is built from
    these."""
    v = _slot(r, c, up)
    if v is not None:
        yield v, 1
    v = _slot(r, c, down)
    if v is not None:
        yield v, -1


@lru_cache(maxsize=1024)
def _unit(r: int, c: int, j: int) -> int:
    """The packed int of the slot-j variable of cycle c, 0 for a unit slot,
    packed once per (r, c, j); raises as ``_slot`` does.

    ``pack`` is the int sum of ``e * 2**(32 * slot)`` over its pairs, so an
    edge label is the sum of unit(up) - unit(down) over its entries:

    >>> r, m, s, src, dst = 4, 3, 0, (1, 2), (1, 3)
    >>> sum(_unit(r, m - s - 1, a_new - 1) - _unit(r, m - s - 1, a_old)
    ...     for a_new, a_old in zip(dst, src)) == pack(_edge_pairs(r, m, s, src, dst))
    True
    """
    v = _slot(r, c, j)
    return 0 if v is None else pack(((v, 1),))


def _edge_pairs(
    r: int, m: int, s: int, src: Iterable[int], dst: Iterable[int]
) -> Iterator[tuple[VarId, int]]:
    c = m - s - 1
    for a_new, a_old in zip(dst, src):
        yield from _ratio_pairs(r, c, a_new - 1, a_old)


def edge_label(r: int, m: int, s: int, src: Iterable[int], dst: Iterable[int]) -> Monomial:
    """Label of the step from level s to level s+1."""
    return Monomial.of(*_edge_pairs(r, m, s, src, dst))


def label(spec: PathSpec, p: Path, r: int) -> Monomial:
    """Product of the edge labels along p, built as one monomial."""
    if (p.d, p.m, p.mprime) != (spec.d, spec.m, spec.mprime):
        raise ValueError(f"path of shape ({p.d},{p.m},{p.mprime}) does not fit {spec}")
    rows = p.rows
    steps = (_edge_pairs(r, spec.m, s, rows[s], rows[s + 1]) for s in range(spec.m))
    return Monomial.of(*chain.from_iterable(steps))


def _fit(spec: PathSpec, r: int) -> None:
    """Refuse a shape with a label too large for rank r, naming the first
    path's first bad slot.  Step s uses cycle c = m - s - 1 and entries up
    to d + s, so if source slots 1..d fit cycle m - 1 (d <= r - m + 1), all
    fit (d + s <= r - c).  Else only the unit slot d = r + 1 lets the row
    pass, and slot r fitting cycle m - 1 forces m = 1: one step, the one
    checked.  A rank below 1 raises at the first unit.  The first edge visits
    slots a - 1 and a per entry in order, a - 1 the unit 0 or the entry
    before, so its first bad slot is the first bad a: the one named here."""
    for a in spec.source():
        _unit(r, spec.m - 1, a)


def _label_table(spec: PathSpec, r: int) -> dict:
    """The path table with every edge label packed, as the sum of its
    kept entries' per-slot units (``_unit``) in the slot order of
    ``_edge_pairs``; a shape too large for rank r is refused first (``_fit``).
    """
    _fit(spec, r)
    m = spec.m

    def edge(s: int, cur: tuple[int, ...], nxt: tuple[int, ...]) -> int:
        c = m - s - 1
        x = 0
        for a_new, a_old in zip(nxt, cur):
            if a_new == a_old:
                x += _unit(r, c, a_old - 1) - _unit(r, c, a_old)
        return x

    return _path_table(spec, edge)


def path_sum(spec: PathSpec, r: int) -> LaurentPoly:
    """Sum of the labels of every path of the given shape.

    One walk carries each label packed: a path's label is the sum of its
    edge labels, each a sum of per-slot units.  Each edge moves at most 2d
    exponents by one, so no exponent of a label exceeds 2md, the bound of
    the sum.
    """
    counts = Counter(x for _, x in _path_walk(spec, _label_table(spec, r)))
    return LaurentPoly.from_packed(counts, 2 * spec.m * spec.d)


@dataclass(frozen=True)
class PathStats:
    """Stationary steps of a path, column by column.

    q[j][i] is the level index of the (j+1)-th stationary step in column
    i+1; kk[j][i] is the entry value held across that step.  The two are
    tied by q = kk + j - i - 1 in 1-based indices.
    """

    q: tuple[tuple[int, ...], ...]
    kk: tuple[tuple[int, ...], ...]


def stats(p: Path) -> PathStats:
    """Stationary-step positions and values of p."""
    depth = p.m - p.mprime
    cols_q: list[tuple[int, ...]] = []
    cols_k: list[tuple[int, ...]] = []
    for i in range(p.d):
        seq = [row[i] for row in p.rows]
        qs = tuple(s for s in range(p.m) if seq[s] == seq[s + 1])
        cols_q.append(qs)
        cols_k.append(tuple(seq[s] for s in qs))
    q = tuple(tuple(cols_q[i][j] for i in range(p.d)) for j in range(depth))
    kk = tuple(tuple(cols_k[i][j] for i in range(p.d)) for j in range(depth))
    return PathStats(q, kk)


def rebuild(spec: PathSpec, kk: Iterable[Iterable[int]]) -> Path:
    """Path whose stationary entry values are the given kk array.

    Inverse of stats on admissible arrays; inadmissible input fails the
    Path validation.
    """
    arr = tuple(tuple(int(k) for k in row) for row in kk)
    if len(arr) != spec.depth or any(len(row) != spec.d for row in arr):
        raise ValueError("kk must be (m - mprime) x d")
    stops: list[set[int]] = []
    for i in range(spec.d):
        qs = {arr[j][i] + j - i - 1 for j in range(spec.depth)}
        if len(qs) != spec.depth or any(not 0 <= s < spec.m for s in qs):
            raise ValueError("stationary steps fall outside the path")
        stops.append(qs)
    rows = [list(spec.source())]
    for s in range(spec.m):
        prev = rows[-1]
        rows.append([prev[i] + (0 if s in stops[i] else 1) for i in range(spec.d)])
    return Path(tuple(tuple(row) for row in rows))


def cbar(r: int, c: int, j: int) -> Monomial:
    """Ratio of the slot-(j-1) and slot-j variables of cycle c."""
    return Monomial.of(*_ratio_pairs(r, c, j - 1, j))


def _array_rows(spec: PathSpec) -> list[tuple[int, ...]]:
    """Rows an array may use, lexicographically: the strictly increasing
    d-tuples from 1..mprime + d, so the entry in column i+1 is at most
    mprime + i + 1."""
    return list(combinations(range(1, spec.mprime + spec.d + 1), spec.d))


def _array_walk(spec: PathSpec, rows: list, deltas: list):
    """Depth first over the stationary-value arrays, in k_arrays order.

    Yields (arr, label) per array: arr is the walk's own list of rows (copy
    it to keep it), label is the sum of deltas[j0][t] over its rows rows[t]
    at depths j0.  The stack holds one iterator per depth, over the rows at
    or above the row of the depth before it.
    """
    depth = spec.depth
    if not depth:
        yield [], 0
        return
    # a walk one row deep never looks above a row
    above = [[u for u in range(t, len(rows)) if all(map(ge, rows[u], floor))]
             for t, floor in enumerate(rows)] if depth > 1 else []
    arr = [None] * depth
    labels = [0] * (depth + 1)
    stack = [iter(range(len(rows)))]
    while stack:
        j0 = len(stack) - 1
        t = next(stack[-1], None)
        if t is None:
            stack.pop()
            continue
        arr[j0] = rows[t]
        labels[j0 + 1] = labels[j0] + deltas[j0][t]
        if j0 + 1 < depth:
            stack.append(iter(above[t]))
        else:
            yield arr, labels[depth]


def k_arrays(spec: PathSpec) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Admissible stationary-value arrays for the given shape.

    Rows increase strictly left to right and stay within mprime + d;
    columns increase weakly top to bottom, starting at or above the
    column index and ending at or below mprime plus the column index.
    """
    rows = _array_rows(spec)
    zeros = [[0] * len(rows)] * spec.depth
    for arr, _ in _array_walk(spec, rows, zeros):
        yield tuple(arr)


def closed_form_sum(spec: PathSpec, r: int) -> LaurentPoly:
    """Path sum written directly over stationary-value arrays: each array
    contributes the product of cbar(r, m - k - j0 + i0, k) over its entries
    k.

    One walk over the arrays carries each term packed: the product over one
    row at one depth is the sum, over its entries, of the cbar ratio's two
    per-slot units, built once per row, and an array's term is the sum of
    its rows' packed terms.  An array has at most md entries, each moving two
    exponents by one, so 2md bounds the sum.  At depth 0 the one array is
    empty, its term 1.  A shape too large for rank r is refused by ``_fit``.
    """
    _fit(spec, r)
    m = spec.m
    rows = _array_rows(spec) if spec.depth else []
    cells = [
        [sum(_unit(r, m - k - j0 + i0, k - 1) - _unit(r, m - k - j0 + i0, k)
             for i0, k in enumerate(row)) for row in rows]
        for j0 in range(spec.depth)
    ]
    counts = Counter(label for _, label in _array_walk(spec, rows, cells))
    return LaurentPoly.from_packed(counts, 2 * m * spec.d)


def d1_closed_form(m: int, mprime: int, r: int) -> LaurentPoly:
    """Width-one path sum as a sum over increment positions.

    Each term picks the mprime levels 0 <= j_1 < ... < j_mprime <= m-1
    at which the single entry is raised; the blocks of stationary levels
    between consecutive picks contribute one slot ratio each.
    """
    if not 1 <= mprime <= m:
        raise ValueError("need 1 <= mprime <= m")
    terms = []
    for picks in combinations(range(m), mprime):
        bounds = (-1,) + picks + (m,)
        pairs: list[tuple[VarId, int]] = []
        for nu in range(mprime + 1):
            for i in range(bounds[nu] + 1, bounds[nu + 1]):
                pairs.extend(_ratio_pairs(r, m - 1 - i, nu, nu + 1))
        terms.append((Monomial.of(*pairs), 1))
    return LaurentPoly.from_terms(terms)


def _vertex(m: int, s: int, row: Iterable[int]) -> str:
    return f"({m - s};{','.join(str(a) for a in row)})"


def paths_text(spec: PathSpec, r: int) -> Iterator[str]:
    """One line per path: its vertices joined by '->', then its label."""
    cfg = CrystalConfig(r)
    table = _label_table(spec, r)
    names = {key: _vertex(spec.m, *key) for key in chain(table, [(spec.m, spec.target())])}
    for levels, x in _path_walk(spec, table):
        route = "->".join([names[key] for key in enumerate(levels)])
        yield f"{route}  {tau_render(cfg, Monomial.unpack(x))}"


def paths_json(spec: PathSpec, r: int) -> str:
    """JSON list of paths as integer matrices with rendered labels."""
    cfg = CrystalConfig(r)
    entries = [
        {"rows": levels[:], "label": tau_render(cfg, Monomial.unpack(x))}
        for levels, x in _path_walk(spec, _label_table(spec, r))
    ]
    return json.dumps(entries, ensure_ascii=False, separators=(",", ":"))


def paths_dot(spec: PathSpec, r: int) -> str:
    """DOT text of every vertex and edge used by some path.

    Vertices and edges come in order of first appearance along the paths
    in enumeration order.  That is the preorder of one depth-first search
    of the label table that enters each vertex once: every path through a
    vertex follows the first path that reaches it.
    """
    cfg = CrystalConfig(r)
    m = spec.m
    table = _label_table(spec, r)
    root = (0, spec.source())
    names = {root: _vertex(m, *root)}
    edges = []
    stack = [(root, iter(table[root]))]
    while stack:
        src, it = stack[-1]
        step = next(it, None)
        if step is None:
            stack.pop()
            continue
        nxt, packed = step
        dst = (src[0] + 1, nxt)
        if dst not in names:
            names[dst] = _vertex(m, *dst)
            if dst[0] < m:
                stack.append((dst, iter(table[dst])))
        edges.append((names[src], names[dst], Monomial.unpack(packed)))
    lines = ["digraph paths {", "  rankdir=TB;", "  node [shape=plaintext];"]
    for name in names.values():
        lines.append(f'  "{name}";')
    for a, b, mono in edges:
        lines.append(f'  "{a}" -> "{b}" [label="{tau_render(cfg, mono)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
