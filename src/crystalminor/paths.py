"""Lattice paths behind the minor expansions.

A path descends through m+1 levels carrying d strictly increasing
entries per level; each step keeps an entry or bumps it by one.  Every
path gets a Laurent-monomial label, and the sum of labels over all
paths from (m;1,...,d) down to (0;m'+1,...,m'+d) reproduces the
corresponding cell minor term by term.  Two closed forms of that sum
are implemented as well: one over stationary-entry arrays, one special
to d = 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain, combinations, product
from typing import Iterable, Iterator

from .crystal import CrystalConfig, tau_render
from .errors import RankTooSmall
from .laurent import LaurentPoly, Monomial, VarId


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

    @classmethod
    def _trusted(cls, rows: tuple[tuple[int, ...], ...]) -> "Path":
        """A path from rows that are valid by construction; no checks."""
        p = object.__new__(cls)
        object.__setattr__(p, "rows", rows)
        return p

    @property
    def m(self) -> int:
        return len(self.rows) - 1

    @property
    def d(self) -> int:
        return len(self.rows[0])

    @property
    def mprime(self) -> int:
        return self.rows[-1][0] - 1

    def column(self, i: int) -> tuple[int, ...]:
        """Entry i (1-based) at every level, top to bottom."""
        return tuple(row[i - 1] for row in self.rows)


def _check_path(spec: PathSpec, p: Path) -> None:
    if (p.d, p.m, p.mprime) != (spec.d, spec.m, spec.mprime):
        raise ValueError(f"path of shape ({p.d},{p.m},{p.mprime}) does not fit {spec}")


def enumerate_paths(spec: PathSpec) -> tuple[Path, ...]:
    """All paths of the given shape, ordered by their flattened levels.

    >>> [p.rows[1] for p in enumerate_paths(PathSpec(2, 3, 2))]
    [(1, 2), (1, 3), (1, 3), (2, 3), (2, 3), (2, 3)]
    >>> len(enumerate_paths(PathSpec(3, 3, 3)))
    1
    """
    d, m, mp = spec.d, spec.m, spec.mprime
    steps = tuple(product((0, 1), repeat=d))
    out: list[Path] = []
    # depth first with an explicit stack of partial paths, last pushed first
    stack = [(spec.source(),)]
    while stack:
        prefix = stack.pop()
        if len(prefix) > m:
            out.append(Path._trusted(prefix))
            continue
        cur, left = prefix[-1], m - len(prefix)
        grown = []
        for bits in steps:
            nxt = tuple(a + b for a, b in zip(cur, bits))
            if any(nxt[i] >= nxt[i + 1] for i in range(d - 1)):
                continue
            if any(nxt[i] > mp + i + 1 or nxt[i] + left < mp + i + 1 for i in range(d)):
                continue
            grown.append(prefix + (nxt,))
        stack.extend(reversed(grown))
    return tuple(out)


def _slot(r: int, c: int, j: int) -> VarId | None:
    """Variable in slot j of cycle c, or None when the slot is a unit.

    Slots 0 and r+1 are the boundary units; slots 1..r-c exist; anything
    else does not fit into rank r.
    """
    if j == 0 or j == r + 1:
        return None
    if 0 <= c and 1 <= j <= r - c:
        return VarId(c, j)
    raise RankTooSmall(f"slot {j} of cycle {c} does not exist at rank {r}")


def _ratio_pairs(r: int, c: int, up: int, down: int) -> Iterator[tuple[VarId, int]]:
    """(variable, +1) for slot ``up`` and (variable, -1) for slot ``down``
    of cycle c, skipping unit slots; every label is built from these."""
    v = _slot(r, c, up)
    if v is not None:
        yield v, 1
    v = _slot(r, c, down)
    if v is not None:
        yield v, -1


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
    _check_path(spec, p)
    rows = p.rows
    steps = (_edge_pairs(r, spec.m, s, rows[s], rows[s + 1]) for s in range(spec.m))
    return Monomial.of(*chain.from_iterable(steps))


def path_sum(spec: PathSpec, r: int) -> LaurentPoly:
    """Sum of the labels of every path of the given shape."""
    return LaurentPoly.from_terms((label(spec, p, r), 1) for p in enumerate_paths(spec))


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


def k_arrays(spec: PathSpec) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Admissible stationary-value arrays for the given shape.

    Rows increase strictly left to right and stay within mprime + d;
    columns increase weakly top to bottom, starting at or above the
    column index and ending at or below mprime plus the column index.
    """
    hi = spec.mprime + spec.d
    rows = [c for c in combinations(range(1, hi + 1), spec.d)
            if all(c[i] <= spec.mprime + i + 1 for i in range(spec.d))]

    # depth first with an explicit stack of partial arrays, last pushed first
    stack: list[tuple[tuple[int, ...], ...]] = [()]
    while stack:
        arr = stack.pop()
        if len(arr) == spec.depth:
            yield arr
            continue
        floor = arr[-1] if arr else (0,) * spec.d
        stack.extend(
            arr + (row,) for row in reversed(rows) if all(a >= b for a, b in zip(row, floor))
        )


def _array_pairs(
    r: int, m: int, arr: tuple[tuple[int, ...], ...]
) -> Iterator[tuple[VarId, int]]:
    for j0, row in enumerate(arr):
        for i0, k in enumerate(row):
            yield from _ratio_pairs(r, m - k - j0 + i0, k - 1, k)


def closed_form_sum(spec: PathSpec, r: int) -> LaurentPoly:
    """Path sum written directly over stationary-value arrays: each array
    contributes the product of cbar(r, m - k - j0 + i0, k) over its entries
    k, built as one monomial."""
    return LaurentPoly.from_terms(
        (Monomial.of(*_array_pairs(r, spec.m, arr)), 1) for arr in k_arrays(spec)
    )


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


def paths_json(spec: PathSpec, r: int) -> str:
    """JSON list of paths as integer matrices with rendered labels."""
    cfg = CrystalConfig(r)
    entries = [
        {"rows": [list(row) for row in p.rows],
         "label": tau_render(cfg, label(spec, p, r))}
        for p in enumerate_paths(spec)
    ]
    return json.dumps(entries, ensure_ascii=False, separators=(",", ":"))


def paths_dot(spec: PathSpec, r: int) -> str:
    """DOT text of every vertex and edge used by some path."""
    cfg = CrystalConfig(r)
    nodes: list[str] = []
    edges: dict[tuple[str, str], Monomial] = {}
    for p in enumerate_paths(spec):
        for s, row in enumerate(p.rows):
            name = _vertex(spec.m, s, row)
            if name not in nodes:
                nodes.append(name)
            if s:
                key = (_vertex(spec.m, s - 1, p.rows[s - 1]), name)
                if key not in edges:
                    edges[key] = edge_label(r, spec.m, s - 1, p.rows[s - 1], row)
    lines = ["digraph paths {", "  rankdir=TB;", "  node [shape=plaintext];"]
    for name in nodes:
        lines.append(f'  "{name}";')
    for (a, b), mono in edges.items():
        lines.append(f'  "{a}" -> "{b}" [label="{tau_render(cfg, mono)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
