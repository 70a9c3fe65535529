"""Cross-module identity sweeps.

Each check is a generator over one family of exact identities on a
bounded sweep; one runner (``_sweep``) registers it in CHECKS and turns
it into a CheckResult: a one line summary plus one line per swept spec,
in sweep order.  A sweep that checks nothing fails.  Random cases are
drawn from a local generator with an explicit seed, so repeated runs are
byte-identical.
"""

from __future__ import annotations

import functools
import random
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, prod
from operator import add
from typing import Callable, Generator, Iterator

from .bruhat import (
    MinorSpec,
    WordSpec,
    cell_matrix_value,
    delta_G,
    delta_L_uncached,
    lower_product_value,
    phi_map,
)
from .crystal import (
    CrystalConfig,
    CrystalGraph,
    DemazureSpec,
    a_monomial,
    cartan,
    component,
    demazure_polynomial,
    kashiwara_rows,
)
from .defaults import DEFAULT_PHI_SAMPLES, DEFAULT_SEED
from .errors import CapExceeded
from .laurent import EXPONENT_LIMIT, LaurentPoly, Monomial, VarId, pack
from .paths import PathSpec, closed_form_sum, d1_closed_form, path_sum


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    lines: tuple[str, ...] = field(default=())

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: {self.detail}"


Sweep = Generator[tuple[str, str | None], None, tuple[str, int]]

CHECKS: dict[str, Callable[..., CheckResult]] = {}


def _sweep(name: str) -> Callable[[Callable[..., Sweep]], Callable[..., CheckResult]]:
    """Register a sweep generator as the check ``name`` in CHECKS; the
    parser offers the names of ``defaults.CHECK_NAMES``, in its order.

    The generator yields ``(text, failure)`` per swept spec, in sweep
    order, where failure is None or the summary detail, and returns
    ``(detail, checked)``.  The runner writes ``PASS|FAIL <name> <text>``
    lines in that order, stops at the first failure without resuming the
    generator, and fails a sweep that checked nothing.
    """

    def register(sweep: Callable[..., Sweep]) -> Callable[..., CheckResult]:
        @functools.wraps(sweep)
        def run(*args, **kwargs) -> CheckResult:
            lines: list[str] = []
            specs = sweep(*args, **kwargs)
            try:
                while True:
                    text, failure = next(specs)
                    lines.append(f"{'PASS' if failure is None else 'FAIL'} {name} {text}")
                    if failure is not None:
                        break
            except StopIteration as stop:
                detail, checked = stop.value
                failure = None if checked else f"empty sweep ({detail})"
            return CheckResult(name, failure is None, detail if failure is None else failure,
                               tuple(lines))

        CHECKS[name] = run
        return run

    return register


def _difference(left: str, p: LaurentPoly, right: str, q: LaurentPoly) -> str:
    """Terms found on one side only, up to three per side, each side
    printed like a polynomial; a coefficient change shows on both sides."""

    def only(a: LaurentPoly, b: LaurentPoly) -> str:
        other = set(b.terms)
        diff = [t for t in a.terms if t not in other]
        text = str(LaurentPoly.from_terms(diff[:3]))
        return text + (f" (+{len(diff) - 3} more)" if len(diff) > 3 else "")

    return f"only in {left}: {only(p, q)}; only in {right}: {only(q, p)}"


def all_word_specs(max_r: int, min_r: int = 1) -> Iterator[WordSpec]:
    for r in range(min_r, max_r + 1):
        for m in range(1, r + 1):
            for last in range(1, r - m + 2):
                yield WordSpec(r, m, last)


def matched_positions(w: WordSpec) -> tuple[int, ...]:
    """Positions whose letter equals the word's final letter."""
    return tuple(k for k in range(1, w.n + 1) if w.letter(k) == w.last)


def _tag(w: WordSpec) -> str:
    return f"r={w.r} word={','.join(map(str, w.letters()))}"


def demazure_data(w: WordSpec, k: int) -> DemazureSpec:
    """Demazure description of the minor at position k of w.

    The seed is the product of the inverted top-cycle variables from the
    cycle of k onwards; the generating word is the prefix of w up to k.
    """
    ms = MinorSpec(w, k)
    d, mp = ms.d, ms.mprime
    seed = Monomial.of(*((VarId(s, d), -1) for s in range(mp, w.m)))
    return DemazureSpec(word=w.letters()[:k], sign="minus", seed=seed)


@_sweep("thm5-5")
def check_minor_chain(max_r: int = 5) -> Sweep:
    """Four-way equality: Demazure sum, minor, path sum, closed form.

    Every coefficient of the minor is 1, so a Demazure closure equal to it
    has one member per term: the closure's cap is the minor's term count,
    and a closure past it fails the position.
    """
    words = 0
    positions = 0
    for w in all_word_specs(max_r, min_r=2):
        cfg = CrystalConfig(w.r)
        ks = matched_positions(w)
        for k in ks:
            ms = MinorSpec(w, k)
            spec = PathSpec(ms.d, w.m, ms.mprime)
            minor = delta_L_uncached(ms)
            tag = f"{_tag(w)} k={k}"
            # each route is compared with the minor as soon as it is built
            # and freed before the next is built: at most the minor and one
            # route are alive
            routes = (
                ("demazure", lambda: demazure_polynomial(cfg, demazure_data(w, k), cap=len(minor))),
                ("path sum", lambda: path_sum(spec, w.r)),
                ("closed form", lambda: closed_form_sum(spec, w.r)),
            )
            for route, build in routes:
                try:
                    value = build()
                except CapExceeded:
                    yield (f"{tag} demazure cap {len(minor)} exceeded",
                           f"demazure closure at {tag} exceeds cap {len(minor)}, the minor's term count")
                    break
                if value != minor:
                    diff = _difference(route, value, "minor", minor)
                    yield f"{tag} {route} mismatch", f"{route} mismatch at {tag}; {diff}"
                del value
            else:
                positions += 1
            # the next position's det may be the largest yet: free the minor first
            del minor
        yield f"{_tag(w)} positions={len(ks)}", None
        words += 1
    return f"{words} words, {positions} positions, 4-way equal, r <= {max_r}", positions


@_sweep("prop6-1")
def check_minor_paths(max_r: int = 5) -> Sweep:
    """Two-way equality: minor against the path sum."""
    words = 0
    positions = 0
    for w in all_word_specs(max_r):
        ks = matched_positions(w)
        for k in ks:
            ms = MinorSpec(w, k)
            total, minor = path_sum(PathSpec(ms.d, w.m, ms.mprime), w.r), delta_L_uncached(ms)
            if total != minor:
                tag = f"{_tag(w)} k={k}"
                diff = _difference("path sum", total, "minor", minor)
                yield f"{tag} mismatch", f"mismatch at {tag}; {diff}"
            positions += 1
        yield f"{_tag(w)} positions={len(ks)}", None
        words += 1
    return f"{words} words, {positions} positions, r <= {max_r}", positions


@_sweep("prop6-10")
def check_closed_form(max_dim: int = 5) -> Sweep:
    """Closed form against enumeration on pure path shapes."""
    count = 0
    for d in range(1, max_dim + 1):
        for m in range(1, max_dim + 1):
            for mp in range(1, m + 1):
                spec = PathSpec(d, m, mp)
                r = d + m - 1
                total, closed = path_sum(spec, r), closed_form_sum(spec, r)
                tag = f"d={d} m={m} mprime={mp}"
                if closed != total:
                    diff = _difference("closed form", closed, "path sum", total)
                    yield f"{tag} mismatch", f"mismatch at {tag}; {diff}"
                yield f"{tag} terms={len(total)}", None
                count += 1
    return f"{count} shapes, d,m <= {max_dim}", count


@_sweep("thm5-6")
def check_d1(max_r: int = 5) -> Sweep:
    """Width-one closed form against the minor, with term counts."""
    count = 0
    for w in all_word_specs(max_r):
        if w.last != 1:
            continue
        for k in matched_positions(w):
            ms = MinorSpec(w, k)
            tag = f"{_tag(w)} k={k}"
            poly, minor = d1_closed_form(w.m, ms.mprime, w.r), delta_L_uncached(ms)
            if poly != minor:
                diff = _difference("closed form", poly, "minor", minor)
                yield f"{tag} mismatch", f"mismatch at {tag}; {diff}"
            want = comb(w.m, ms.mprime)
            if len(poly) != want:
                yield f"{tag} term count", f"term count at {tag}: {len(poly)}, expected {want}"
            yield f"{tag} terms={len(poly)}", None
            count += 1
    return f"{count} width-one positions, r <= {max_r}", count


def _random_nonzero(rng: random.Random) -> Fraction:
    num = rng.choice([x for x in range(-5, 6) if x])
    den = rng.randrange(1, 6)
    return Fraction(num, den)


def _random_torus(rng: random.Random, r: int) -> tuple[Fraction, ...]:
    body = [_random_nonzero(rng) for _ in range(r)]
    return tuple(body) + (1 / prod(body),)


def _random_values(rng: random.Random, w: WordSpec) -> dict[VarId, Fraction]:
    return {v: _random_nonzero(rng) for v in w.variables()}


@_sweep("prop5-1")
def check_torus_factor(max_r: int = 4, samples: int = 50, seed: int = DEFAULT_SEED) -> Sweep:
    """Minor of the dressed cell against the torus multiple of the plain minor."""
    rng = random.Random(seed)
    count = 0
    for w in all_word_specs(max_r):
        for k in range(1, w.n + 1):
            ms = MinorSpec(w, k)
            tag = f"{_tag(w)} k={k}"
            symbolic = delta_L_uncached(ms)
            for _ in range(samples):
                a = _random_torus(rng, w.r)
                t = _random_values(rng, w)
                factor = prod(a[row - 1] for row in ms.rows)
                if delta_G(ms, a, t) != factor * symbolic.evaluate(t):
                    yield f"{tag} mismatch", f"mismatch at {tag} a={a} t={t}"
                count += 1
            yield f"{tag} samples={samples}", None
    return f"{count} samples, r <= {max_r}", count


def _phi_mismatch(w: WordSpec, samples: int, rng: random.Random) -> tuple | None:
    """First random sample (1-based) at which the dressed cell matrix differs
    from the lower-generator product at the moved point, with its torus
    point and values; None when every sample agrees."""
    for s in range(1, samples + 1):
        a = _random_torus(rng, w.r)
        t = _random_values(rng, w)
        moved, tau = phi_map(w, a, t)
        if cell_matrix_value(w, a, t) != lower_product_value(w, moved, tau):
            return s, a, t
    return None


@_sweep("prop2-4")
def check_phi_factorization(max_r: int = 4, samples: int = DEFAULT_PHI_SAMPLES,
                             seed: int = DEFAULT_SEED) -> Sweep:
    """Dressed cell matrix against the lower-generator product at the moved point."""
    rng = random.Random(seed)
    count = 0
    for w in all_word_specs(max_r):
        bad = _phi_mismatch(w, samples, rng)
        if bad is not None:
            yield f"{_tag(w)} mismatch", f"mismatch at {_tag(w)} a={bad[1]} t={bad[2]}"
        yield f"{_tag(w)} samples={samples}", None
        count += samples
    return f"{count} samples, r <= {max_r}", count


def phi_word_check(w: WordSpec, samples: int = DEFAULT_PHI_SAMPLES,
                   seed: int = DEFAULT_SEED) -> CheckResult:
    """Factorization identity on random samples for a single word; no
    samples is a failure."""
    bad = _phi_mismatch(w, samples, random.Random(seed))
    if bad is not None:
        return CheckResult("phi", False, f"{_tag(w)} sample={bad[0]}")
    return CheckResult("phi", samples > 0, f"{_tag(w)} samples={samples}")


@_sweep("lemma5-4")
def check_truncation(max_r: int = 4) -> Sweep:
    """One-letter extensions with a fresh letter leave minors unchanged."""
    count = 0
    for w in all_word_specs(max_r):
        ext = w.extension()
        if ext is None:
            continue
        appended = ext.letter(ext.n)
        fresh = ext.position_var(ext.n)
        checked = 0
        for k in range(1, w.n + 1):
            if w.letter(k) == appended:
                continue
            tag = f"{_tag(w)} k={k}"
            extended, minor = delta_L_uncached(MinorSpec(ext, k)), delta_L_uncached(MinorSpec(w, k))
            if extended != minor:
                diff = _difference("extended", extended, "original", minor)
                yield f"{tag} changed", f"changed at {tag}; {diff}"
            elif fresh in extended.variables():
                yield f"{tag} changed", f"changed at {tag}; fresh variable {fresh} in the extended minor"
            checked += 1
        yield f"{_tag(w)} positions={checked}", None
        count += checked
    return f"{count} extensions, r <= {max_r}", count


def crystal_axiom_failures(cfg: CrystalConfig, graph: CrystalGraph) -> list[str]:
    """Axiom violations on a generated component, empty when clean.

    Checked per node and color: string data nonneg, phi - eps = weight
    pairing, operators defined exactly when the string data is positive,
    weight steps by a Cartan column, string data steps by one, raising
    and lowering invert each other, and neither leaves the component.

    Each node is keyed by the packed int of its own monomial, and
    ``kashiwara_rows`` is scanned once per (node, color) for both shifts,
    so neither the walk's keys nor its shift records are read.  The raising
    result is the node's key plus the packed A[s,i] of ``a_monomial``, the
    lowering result its key minus it, each looked up among the node keys
    and recorded by node id (None when undefined, -1 outside the graph);
    the inverse checks then compare ids.  The multipliers are packed once
    per (shift, color) per call; no operator result is cached.

    The keys are exact: two nodes differ in each variable by at most the
    nodes' exponent range there, and a result by at most one more, so
    while every range is below EXPONENT_LIMIT they differ by less than
    one packed digit's range and equal keys are equal monomials (see
    ``pack``).  ``component`` keeps the range below it, since it clamps
    its cap below it; a graph whose range reaches it raises ValueError.
    """
    colors = cfg.colors()
    nodes = graph.nodes
    exponents: defaultdict[VarId, list[int]] = defaultdict(list)
    for node in nodes:
        for v, e in node.monomial.factors:
            exponents[v].append(e)
    for v, seen in exponents.items():
        if len(seen) < len(nodes):
            seen.append(0)  # the exponent of v in a node without it
        if (width := max(seen) - min(seen)) >= EXPONENT_LIMIT:
            raise ValueError(f"exponent range {width} of {v} reaches {EXPONENT_LIMIT}; "
                             "packed node keys would not be exact")
    keys = [pack(node.monomial.factors) for node in nodes]
    index = {key: k for k, key in enumerate(keys)}
    # A[s,i] packed once per (shift, color) in this call, never an operator result
    multiplier = functools.cache(lambda s, i: pack(a_monomial(cfg, s, i).factors))
    ups: list[list[int | None]] = []
    downs: list[list[int | None]] = []
    for node, key in zip(nodes, keys):
        up_row: list[int | None] = []
        down_row: list[int | None] = []
        for i in colors:
            up, down = kashiwara_rows(cfg, node.monomial, i)
            up_row.append(None if up is None else index.get(key + multiplier(up, i), -1))
            down_row.append(None if down is None else index.get(key - multiplier(down, i), -1))
        ups.append(up_row)
        downs.append(down_row)
    columns = [tuple(cartan(j, i) for j in colors) for i in colors]
    bad: list[str] = []
    for node, key, up_row, down_row in zip(nodes, keys, ups, downs):
        me = index[key]
        for i, up, down, column in zip(colors, up_row, down_row, columns):
            phi, eps = node.phi[i - 1], node.epsilon[i - 1]
            if phi < 0 or eps < 0:
                bad.append(f"negative string data at {node.monomial} color {i}")
            if phi - eps != node.weight[i - 1]:
                bad.append(f"phi - eps != weight at {node.monomial} color {i}")
            if (up is not None) != (eps > 0):
                bad.append(f"raising defined iff eps positive fails at {node.monomial} color {i}")
            if up is not None:
                if up < 0:
                    bad.append(f"raising leaves component at {node.monomial} color {i}")
                    continue
                stats = nodes[up]
                if stats.weight != tuple(map(add, node.weight, column)):
                    for j in colors:
                        if stats.weight[j - 1] != node.weight[j - 1] + column[j - 1]:
                            bad.append(f"weight step at {node.monomial} colors {i},{j}")
                if stats.epsilon[i - 1] != eps - 1 or stats.phi[i - 1] != phi + 1:
                    bad.append(f"string step at {node.monomial} color {i}")
                if downs[up][i - 1] != me:
                    bad.append(f"lowering does not invert raising at {node.monomial} color {i}")
            if (down is not None) != (phi > 0):
                bad.append(f"lowering defined iff phi positive fails at {node.monomial} color {i}")
            if down is not None:
                if down < 0:
                    bad.append(f"lowering leaves component at {node.monomial} color {i}")
                    continue
                if ups[down][i - 1] != me:
                    bad.append(f"raising does not invert lowering at {node.monomial} color {i}")
    return bad


@_sweep("axioms")
def check_axioms(max_r: int = 5) -> Sweep:
    """Axioms on fundamental components and minor-seed components.

    Fundamental components must have binomial(r+1, d) nodes.  Minor seeds
    are the Demazure seeds of the position sweep, capped at rank 4 to
    keep the component sizes small.
    """

    def components() -> Iterator[tuple[str, CrystalConfig, CrystalGraph, int | None]]:
        for r in range(1, max_r + 1):
            cfg = CrystalConfig(r)
            for d in range(1, r + 1):
                g = component(cfg, Monomial.of((VarId(-1, d), 1)))
                yield f"fundamental r={r} d={d}", cfg, g, comb(r + 1, d)
        for w in all_word_specs(min(max_r, 4), min_r=2):
            cfg = CrystalConfig(w.r)
            for k in matched_positions(w):
                g = component(cfg, demazure_data(w, k).seed)
                yield f"minor-seed {_tag(w)} k={k}", cfg, g, None

    nodes = 0
    graphs = 0
    for tag, cfg, g, expect in components():
        size = g.node_count()
        if expect is not None and size != expect:
            failure = f"component size at {tag}: {size} != {expect}"
            yield f"{tag} nodes={size} expected={expect}", failure
        bad = crystal_axiom_failures(cfg, g)
        if bad:
            yield f"{tag} {bad[0]}", f"{tag}: {bad[0]}"
        yield f"{tag} nodes={size} edges={g.edge_count()}", None
        nodes += size
        graphs += 1
    return f"{graphs} components, {nodes} nodes, r <= {max_r}", graphs
