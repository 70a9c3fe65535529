"""Cross-module identity sweeps.

Each check function runs one family of exact identities over a bounded
sweep and reports a CheckResult: a one line summary plus one line per
swept spec, already sorted.  A sweep that checks nothing fails.  Random
cases are drawn from a local generator with an explicit seed, so repeated
runs are byte-identical.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

from .bruhat import (
    MinorSpec,
    WordSpec,
    cell_matrix_value,
    delta_G,
    delta_L,
    delta_L_truncation_check,
    lower_product_value,
    phi_map,
)
from .crystal import (
    CrystalConfig,
    CrystalGraph,
    DemazureSpec,
    apply_e,
    apply_f,
    cartan,
    component,
    demazure_polynomial,
)
from .laurent import LaurentPoly, Monomial, VarId
from .paths import PathSpec, closed_form_sum, d1_closed_form, path_sum

DEFAULT_SEED = 20260817


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    lines: tuple[str, ...] = field(default=())

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: {self.detail}"


class _Report:
    """Collects per-spec lines with sort keys; freezes into a CheckResult."""

    def __init__(self, name: str):
        self.name = name
        self._rows: list[tuple[tuple, str]] = []

    def ok(self, key: tuple, text: str) -> None:
        self._rows.append((key, f"PASS {self.name} {text}"))

    def fail(self, key: tuple, text: str, detail: str) -> CheckResult:
        self._rows.append((key, f"FAIL {self.name} {text}"))
        return CheckResult(self.name, False, detail, self._sorted())

    def done(self, detail: str, checked: int) -> CheckResult:
        if not checked:
            return CheckResult(self.name, False, f"empty sweep ({detail})", self._sorted())
        return CheckResult(self.name, True, detail, self._sorted())

    def _sorted(self) -> tuple[str, ...]:
        return tuple(line for _, line in sorted(self._rows))


def _difference(left: str, p: LaurentPoly, right: str, q: LaurentPoly, shown: int = 3) -> str:
    """Terms found on one side only, up to ``shown`` per side, each side
    printed like a polynomial; a coefficient change shows on both sides."""

    def only(a: LaurentPoly, b: LaurentPoly) -> str:
        other = set(b.terms)
        diff = [t for t in a.terms if t not in other]
        text = str(LaurentPoly.from_terms(diff[:shown]))
        return text + (f" (+{len(diff) - shown} more)" if len(diff) > shown else "")

    return f"only in {left}: {only(p, q)}; only in {right}: {only(q, p)}"


def all_word_specs(max_r: int, min_r: int = 1) -> Iterator[WordSpec]:
    for r in range(min_r, max_r + 1):
        for m in range(1, r + 1):
            for last in range(1, r - m + 2):
                yield WordSpec(r, m, last)


def matched_positions(w: WordSpec) -> tuple[int, ...]:
    """Positions whose letter equals the word's final letter."""
    return tuple(k for k in range(1, w.n + 1) if w.letter(k) == w.last)


def _word_text(w: WordSpec) -> str:
    return ",".join(map(str, w.letters()))


def demazure_data(w: WordSpec, k: int) -> DemazureSpec:
    """Demazure description of the minor at position k of w.

    The seed is the product of the inverted top-cycle variables from the
    cycle of k onwards; the generating word is the prefix of w up to k.
    """
    ms = MinorSpec(w, k)
    d, mp = ms.d, ms.mprime
    seed = Monomial.of(*((VarId(s, d), -1) for s in range(mp, w.m)))
    return DemazureSpec(word=w.letters()[:k], sign="minus", seed=seed)


def check_minor_chain(max_r: int = 5) -> CheckResult:
    """Four-way equality: Demazure sum, minor, path sum, closed form."""
    rep = _Report("thm5-5")
    words = 0
    positions = 0
    for w in all_word_specs(max_r, min_r=2):
        cfg = CrystalConfig(w.r)
        key = (w.r, w.m, w.last)
        ks = matched_positions(w)
        for k in ks:
            ms = MinorSpec(w, k)
            spec = PathSpec(ms.d, w.m, ms.mprime)
            minor = delta_L(ms)
            tag = f"r={w.r} word={_word_text(w)} k={k}"
            routes = (
                ("demazure", demazure_polynomial(cfg, demazure_data(w, k))),
                ("path sum", path_sum(spec, w.r)),
                ("closed form", closed_form_sum(spec, w.r)),
            )
            for route, value in routes:
                if value != minor:
                    diff = _difference(route, value, "minor", minor)
                    return rep.fail(
                        key, f"{tag} {route} mismatch", f"{route} mismatch at {tag}; {diff}"
                    )
            positions += 1
        rep.ok(key, f"r={w.r} word={_word_text(w)} positions={len(ks)}")
        words += 1
    return rep.done(
        f"{words} words, {positions} positions, 4-way equal, r <= {max_r}", positions
    )


def check_minor_paths(max_r: int = 5) -> CheckResult:
    """Two-way equality: minor against the path sum."""
    rep = _Report("prop6-1")
    words = 0
    positions = 0
    for w in all_word_specs(max_r):
        key = (w.r, w.m, w.last)
        ks = matched_positions(w)
        for k in ks:
            ms = MinorSpec(w, k)
            total, minor = path_sum(PathSpec(ms.d, w.m, ms.mprime), w.r), delta_L(ms)
            if total != minor:
                tag = f"r={w.r} word={_word_text(w)} k={k}"
                diff = _difference("path sum", total, "minor", minor)
                return rep.fail(key, f"{tag} mismatch", f"mismatch at {tag}; {diff}")
            positions += 1
        rep.ok(key, f"r={w.r} word={_word_text(w)} positions={len(ks)}")
        words += 1
    return rep.done(f"{words} words, {positions} positions, r <= {max_r}", positions)


def check_closed_form(max_dim: int = 5) -> CheckResult:
    """Closed form against enumeration on pure path shapes."""
    rep = _Report("prop6-10")
    count = 0
    for d in range(1, max_dim + 1):
        for m in range(1, max_dim + 1):
            for mp in range(1, m + 1):
                spec = PathSpec(d, m, mp)
                r = d + m - 1
                total = path_sum(spec, r)
                closed = closed_form_sum(spec, r)
                if closed != total:
                    diff = _difference("closed form", closed, "path sum", total)
                    return rep.fail(
                        (d, m, mp),
                        f"d={d} m={m} mprime={mp} mismatch",
                        f"mismatch at d={d} m={m} mprime={mp}; {diff}",
                    )
                rep.ok((d, m, mp), f"d={d} m={m} mprime={mp} terms={len(total)}")
                count += 1
    return rep.done(f"{count} shapes, d,m <= {max_dim}", count)


def check_d1(max_r: int = 5) -> CheckResult:
    """Width-one closed form against the minor, with term counts."""
    rep = _Report("thm5-6")
    count = 0
    for w in all_word_specs(max_r):
        if w.last != 1:
            continue
        for k in matched_positions(w):
            ms = MinorSpec(w, k)
            key = (w.r, w.m, w.last, k)
            tag = f"r={w.r} word={_word_text(w)} k={k}"
            poly, minor = d1_closed_form(w.m, ms.mprime, w.r), delta_L(ms)
            if poly != minor:
                diff = _difference("closed form", poly, "minor", minor)
                return rep.fail(key, f"{tag} mismatch", f"mismatch at {tag}; {diff}")
            expect = 1
            for i in range(ms.mprime):
                expect = expect * (w.m - i) // (i + 1)
            if len(poly) != expect:
                return rep.fail(key, f"{tag} term count", f"term count at {tag}")
            rep.ok(key, f"{tag} terms={len(poly)}")
            count += 1
    return rep.done(f"{count} width-one positions, r <= {max_r}", count)


def _random_nonzero(rng: random.Random) -> Fraction:
    num = rng.choice([x for x in range(-5, 6) if x])
    den = rng.randrange(1, 6)
    return Fraction(num, den)


def _random_torus(rng: random.Random, r: int) -> tuple[Fraction, ...]:
    body = [_random_nonzero(rng) for _ in range(r)]
    prod = Fraction(1)
    for x in body:
        prod *= x
    return tuple(body) + (1 / prod,)


def _random_values(rng: random.Random, w: WordSpec) -> dict[VarId, Fraction]:
    return {v: _random_nonzero(rng) for v in w.variables()}


def check_torus_factor(max_r: int = 4, samples: int = 50, seed: int = DEFAULT_SEED) -> CheckResult:
    """Minor of the dressed cell against the torus multiple of the plain minor."""
    rep = _Report("prop5-1")
    rng = random.Random(seed)
    count = 0
    for w in all_word_specs(max_r):
        for k in range(1, w.n + 1):
            ms = MinorSpec(w, k)
            key = (w.r, w.m, w.last, k)
            tag = f"r={w.r} word={_word_text(w)} k={k}"
            symbolic = delta_L(ms)
            for _ in range(samples):
                a = _random_torus(rng, w.r)
                t = _random_values(rng, w)
                factor = Fraction(1)
                for row in ms.rows:
                    factor *= a[row - 1]
                if delta_G(ms, a, t) != factor * symbolic.evaluate(t):
                    return rep.fail(
                        key, f"{tag} mismatch", f"mismatch at {tag} a={a} t={t}"
                    )
                count += 1
            rep.ok(key, f"{tag} samples={samples}")
    return rep.done(f"{count} samples, r <= {max_r}", count)


def check_phi_factorization(max_r: int = 4, samples: int = 20, seed: int = DEFAULT_SEED) -> CheckResult:
    """Dressed cell matrix against the lower-generator product at the moved point."""
    rep = _Report("prop2-4")
    rng = random.Random(seed)
    count = 0
    for w in all_word_specs(max_r):
        key = (w.r, w.m, w.last)
        tag = f"r={w.r} word={_word_text(w)}"
        for _ in range(samples):
            a = _random_torus(rng, w.r)
            t = _random_values(rng, w)
            moved, tau = phi_map(w, a, t)
            if cell_matrix_value(w, a, t) != lower_product_value(w, moved, tau):
                return rep.fail(key, f"{tag} mismatch", f"mismatch at {tag} a={a} t={t}")
            count += 1
        rep.ok(key, f"{tag} samples={samples}")
    return rep.done(f"{count} samples, r <= {max_r}", count)


def phi_word_check(w: WordSpec, samples: int = 20, seed: int = DEFAULT_SEED) -> CheckResult:
    """Factorization identity on random samples for a single word; no
    samples is a failure."""
    rng = random.Random(seed)
    for s in range(samples):
        a = _random_torus(rng, w.r)
        t = _random_values(rng, w)
        moved, tau = phi_map(w, a, t)
        if cell_matrix_value(w, a, t) != lower_product_value(w, moved, tau):
            return CheckResult("phi", False, f"r={w.r} word={_word_text(w)} sample={s + 1}")
    return CheckResult("phi", samples > 0, f"r={w.r} word={_word_text(w)} samples={samples}")


def check_truncation(max_r: int = 4) -> CheckResult:
    """One-letter extensions with a fresh letter leave minors unchanged."""
    rep = _Report("lemma5-4")
    count = 0
    for w in all_word_specs(max_r):
        ext = w.extension()
        if ext is None:
            continue
        appended = ext.letter(ext.n)
        key = (w.r, w.m, w.last)
        tag = f"r={w.r} word={_word_text(w)}"
        checked = 0
        for k in range(1, w.n + 1):
            if w.letter(k) == appended:
                continue
            if not delta_L_truncation_check(w, k):
                return rep.fail(key, f"{tag} k={k} changed", f"changed at {tag} k={k}")
            checked += 1
        rep.ok(key, f"{tag} positions={checked}")
        count += checked
    return rep.done(f"{count} extensions, r <= {max_r}", count)


def crystal_axiom_failures(cfg: CrystalConfig, graph: CrystalGraph) -> list[str]:
    """Axiom violations on a generated component, empty when clean.

    Checked per node and color: string data nonneg, phi - eps = weight
    pairing, operators defined exactly when the string data is positive,
    weight steps by a Cartan column, string data steps by one, raising
    and lowering invert each other, and neither leaves the component.
    """
    bad: list[str] = []
    for node in graph.nodes:
        for i in cfg.colors():
            phi, eps = node.phi[i - 1], node.epsilon[i - 1]
            if phi < 0 or eps < 0:
                bad.append(f"negative string data at {node.monomial} color {i}")
            if phi - eps != node.weight[i - 1]:
                bad.append(f"phi - eps != weight at {node.monomial} color {i}")
            up = apply_e(cfg, node.monomial, i)
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
                if apply_f(cfg, up, i) != node.monomial:
                    bad.append(f"lowering does not invert raising at {node.monomial} color {i}")
            down = apply_f(cfg, node.monomial, i)
            if (down is not None) != (phi > 0):
                bad.append(f"lowering defined iff phi positive fails at {node.monomial} color {i}")
            if down is not None:
                if down not in graph:
                    bad.append(f"lowering leaves component at {node.monomial} color {i}")
                    continue
                if apply_e(cfg, down, i) != node.monomial:
                    bad.append(f"raising does not invert lowering at {node.monomial} color {i}")
    return bad


def check_axioms(max_r: int = 5) -> CheckResult:
    """Axioms on fundamental components and minor-seed components.

    Fundamental components must have binomial(r+1, d) nodes.  Minor seeds
    are the Demazure seeds of the position sweep, capped at rank 4 to
    keep the component sizes small.
    """
    rep = _Report("axioms")
    nodes = 0
    graphs = 0
    for r in range(1, max_r + 1):
        cfg = CrystalConfig(r)
        for d in range(1, r + 1):
            g = component(cfg, Monomial.of((VarId(-1, d), 1)))
            expect = 1
            for i in range(d):
                expect = expect * (r + 1 - i) // (i + 1)
            key = (0, r, d)
            tag = f"fundamental r={r} d={d}"
            if g.node_count() != expect:
                return rep.fail(
                    key,
                    f"{tag} nodes={g.node_count()} expected={expect}",
                    f"component size at {tag}: {g.node_count()} != {expect}",
                )
            bad = crystal_axiom_failures(cfg, g)
            if bad:
                return rep.fail(key, f"{tag} {bad[0]}", f"{tag}: {bad[0]}")
            rep.ok(key, f"{tag} nodes={g.node_count()} edges={g.edge_count()}")
            nodes += g.node_count()
            graphs += 1
    for w in all_word_specs(min(max_r, 4), min_r=2):
        cfg = CrystalConfig(w.r)
        for k in matched_positions(w):
            seed = demazure_data(w, k).seed
            g = component(cfg, seed)
            key = (1, w.r, w.m, w.last, k)
            tag = f"minor-seed r={w.r} word={_word_text(w)} k={k}"
            bad = crystal_axiom_failures(cfg, g)
            if bad:
                return rep.fail(key, f"{tag} {bad[0]}", f"{tag}: {bad[0]}")
            rep.ok(key, f"{tag} nodes={g.node_count()} edges={g.edge_count()}")
            nodes += g.node_count()
            graphs += 1
    return rep.done(f"{graphs} components, {nodes} nodes, r <= {max_r}", graphs)


CHECKS = {
    "thm5-5": check_minor_chain,
    "prop6-1": check_minor_paths,
    "prop6-10": check_closed_form,
    "thm5-6": check_d1,
    "prop5-1": check_torus_factor,
    "prop2-4": check_phi_factorization,
    "lemma5-4": check_truncation,
    "axioms": check_axioms,
}
