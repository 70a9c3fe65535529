"""The benchmark's four workloads.

A workload turns a seed into an endless schedule of items.  An item is a
pair ``(work, check)``: ``work()`` makes the program calls that are timed and
returns their results; ``check(result)`` compares those results exactly with
an independent route and returns ``None`` or a one-line description of the
mismatch.  Inputs are built between items, outside the timed region, and
every program call goes through a module attribute (``bruhat.delta_L``, not a
name imported once), so the tracer's wrappers and a smoke test's deliberate
fault both reach it.

Schedules run in passes.  Each pass visits a fixed population of inputs in a
seeded order that interleaves the strata (rank, size class, request kind) in
proportion to their sizes, so any prefix of a pass, where a run's deadline
cuts it, holds the same mix.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from collections import Counter
from fractions import Fraction

from crystalminor import bruhat, cli, cluster, crystal, laurent, paths, verify


def forget_minors() -> None:
    """Empty the delta_L memo, as a fresh process would start."""
    clear = getattr(getattr(bruhat, "_delta_L_cached", None), "cache_clear", None)
    if clear is not None:
        clear()


def interleave(strata: dict, rng: random.Random) -> list:
    """Shuffle each stratum, then merge so every prefix holds each stratum
    in proportion to its size.

    Member j of a stratum of n sorts at (j + u) / n with u uniform in
    [0, 1), so strata of equal size interleave at random rather than in
    key order.
    """
    keyed = []
    for key in sorted(strata):
        members = list(strata[key])
        rng.shuffle(members)
        n = len(members)
        keyed.extend(((j + rng.random()) / n, j, m) for j, m in enumerate(members))
    keyed.sort(key=lambda t: t[:2])
    return [t[2] for t in keyed]


def word_text(w) -> str:
    return ",".join(map(str, w.letters()))


def weyl_dimension(lam: tuple[int, ...]) -> int:
    """Dimension of the SL(r+1) irreducible of highest weight sum lam_i w_i."""
    num = den = 1
    for i in range(len(lam) + 1):
        for j in range(i + 1, len(lam) + 1):
            num *= sum(lam[i:j]) + j - i
            den *= j - i
    return num // den


def dominant_seed(lam: tuple[int, ...]):
    """The monomial prod Y[-1,i]^lam_i, highest weight of weight lam."""
    return laurent.Monomial.of(
        *((laurent.VarId(-1, i), a) for i, a in enumerate(lam, start=1) if a)
    )


def _nonzero(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)), rng.randrange(1, 6))


def _torus(rng: random.Random, r: int) -> tuple[Fraction, ...]:
    body = [_nonzero(rng) for _ in range(r)]
    prod = Fraction(1)
    for x in body:
        prod *= x
    return tuple(body) + (1 / prod,)


def _values(rng: random.Random, w) -> dict:
    return {v: _nonzero(rng) for v in w.variables()}


def _torus_factor(a, ms) -> Fraction:
    factor = Fraction(1)
    for row in ms.rows:
        factor *= a[row - 1]
    return factor


def _matched(max_r: int, min_r: int):
    return [
        (w, k)
        for w in verify.all_word_specs(max_r, min_r=min_r)
        for k in verify.matched_positions(w)
    ]


# ---------------------------------------------------------------------------
# sweep-symbolic


class SweepSymbolic:
    """Every matched position of every staircase word at ranks 2..max_r per
    pass, checked four ways.

    Cost varies a thousandfold between positions, so the strata are runs of
    STRATUM positions of similar cost within a rank (ordered by word length,
    minor size, and closeness of mprime to m/2, which sets the number of
    paths): every prefix of a pass, where the deadline cuts it, then holds
    nearly the same mix of costs for every seed.  The memo is emptied at
    the start of each pass, so each minor is computed once and the memo
    never helps.
    """

    name = "sweep-symbolic"
    tail_percentile = 95
    STRATUM = 3

    def __init__(self, seed: int, max_r: int = 8):
        self.rng = random.Random(seed)
        self.strata: dict = {}
        for r in range(2, max_r + 1):
            for j, (w, k) in enumerate(sorted(_matched(r, r), key=self._cost_order)):
                self.strata.setdefault((r, j // self.STRATUM), []).append((w, k))

    @staticmethod
    def _cost_order(position):
        w, k = position
        ms = bruhat.MinorSpec(w, k)
        return w.n, ms.d, -abs(2 * ms.mprime - w.m), w.m, w.last, k

    def items(self):
        while True:
            order = interleave(self.strata, self.rng)
            forget_minors()
            for w, k in order:
                yield self._item(w, k)

    @staticmethod
    def _item(w, k):
        ms = bruhat.MinorSpec(w, k)
        cfg = crystal.CrystalConfig(w.r)
        spec = paths.PathSpec(ms.d, w.m, ms.mprime)

        def work():
            return (
                bruhat.delta_L(ms),
                crystal.demazure_polynomial(cfg, verify.demazure_data(w, k)),
                paths.path_sum(spec, w.r),
                paths.closed_form_sum(spec, w.r),
            )

        def check(result):
            minor, *others = result
            tag = f"r={w.r} word={word_text(w)} k={k}"
            if minor.is_zero():
                return f"zero minor at {tag}"
            for route, poly in zip(("demazure sum", "path sum", "closed form"), others):
                if poly != minor:
                    return f"{route} != minor at {tag}"
            return None

        return work, check


# ---------------------------------------------------------------------------
# sweep-numeric


class SweepNumeric:
    """Each pass: every position of every word at ranks <= max_r with a
    fresh torus point and position values, and every word with a fresh
    coordinate-change sample."""

    name = "sweep-numeric"
    tail_percentile = 99

    def __init__(self, seed: int, max_r: int = 4):
        self.rng = random.Random(seed)
        self.strata: dict = {}
        for w in verify.all_word_specs(max_r):
            self.strata.setdefault(("minor", w.r), []).extend(
                (w, k) for k in range(1, w.n + 1)
            )
            self.strata.setdefault(("phi", w.r), []).append((w, None))

    def items(self):
        rng = self.rng
        while True:
            for w, k in interleave(self.strata, rng):
                a, t = _torus(rng, w.r), _values(rng, w)
                yield self._phi_item(w, a, t) if k is None else self._minor_item(w, k, a, t)

    @staticmethod
    def _minor_item(w, k, a, t):
        ms = bruhat.MinorSpec(w, k)
        factor = _torus_factor(a, ms)

        def work():
            return bruhat.delta_G(ms, a, t), factor * bruhat.delta_L(ms).evaluate(t)

        def check(result):
            numeric, symbolic = result
            if numeric != symbolic:
                return f"delta_G {numeric} != {symbolic} at r={w.r} word={word_text(w)} k={k}"
            return None

        return work, check

    @staticmethod
    def _phi_item(w, a, t):
        def work():
            moved, tau = bruhat.phi_map(w, a, t)
            return (bruhat.cell_matrix_value(w, a, t),
                    bruhat.lower_product_value(w, moved, tau))

        def check(result):
            cell, lower = result
            if cell != lower:
                return f"phi factorization differs at r={w.r} word={word_text(w)}"
            return None

        return work, check


# ---------------------------------------------------------------------------
# crystal-bfs


def demazure_by_edges(graph, word, seed) -> tuple:
    """Plus-sign Demazure closure computed from the component's edge list.

    Same discovery order as crystal.demazure, but every lowering step is
    looked up in the graph instead of computed by the crystal operators.
    """
    down = {(src, color): dst for src, color, dst in graph.edges}
    out = [graph.index_of(seed)]
    seen = set(out)
    for i in reversed(word):
        for node in list(out):
            cur = down.get((node, i))
            while cur is not None:
                if cur not in seen:
                    seen.add(cur)
                    out.append(cur)
                cur = down.get((cur, i))
    return tuple(graph.nodes[n].monomial for n in out)


class CrystalBfs:
    """Dominant seeds prod Y[-1,i]^a_i (a_i <= 3) at ranks 3..6 whose
    components have 10..1000 nodes; each seed is also closed along one
    seeded staircase word of its rank.

    Cost grows with the component, so the strata are runs of STRATUM seeds
    of neighbouring size within a rank: every prefix of a pass then holds
    nearly the same mix of sizes for every seed.
    """

    name = "crystal-bfs"
    tail_percentile = 90
    STRATUM = 4

    def __init__(self, seed: int, ranks=range(3, 7), max_exponent: int = 3,
                 sizes: tuple[int, int] = (10, 1000)):
        self.rng = random.Random(seed)
        self.words = {r: list(verify.all_word_specs(r, min_r=r)) for r in ranks}
        self.strata: dict = {}
        for r in ranks:
            seeds = sorted(
                (dim, lam)
                for lam in itertools.product(range(max_exponent + 1), repeat=r)
                if sizes[0] <= (dim := weyl_dimension(lam)) <= sizes[1]
            )
            for j, (dim, lam) in enumerate(seeds):
                self.strata.setdefault((r, j // self.STRATUM), []).append((r, lam, dim))

    def items(self):
        rng = self.rng
        while True:
            for r, lam, dim in interleave(self.strata, rng):
                yield self._item(r, lam, dim, rng.choice(self.words[r]))

    @staticmethod
    def _item(r, lam, dim, w):
        cfg = crystal.CrystalConfig(r)
        seed = dominant_seed(lam)
        word = w.letters()

        def work():
            graph = crystal.component(cfg, seed)
            bad = verify.crystal_axiom_failures(cfg, graph)
            members = crystal.demazure(cfg, crystal.DemazureSpec(word, "plus", seed))
            return graph, bad, members

        def check(result):
            graph, bad, members = result
            tag = f"r={r} seed={seed} word={word_text(w)}"
            if bad:
                return f"axiom failure at {tag}: {bad[0]}"
            if graph.node_count() != dim:
                return f"{graph.node_count()} nodes, Weyl dimension {dim}, at {tag}"
            if [n.monomial for n in graph.sources()] != [seed]:
                return f"seed is not the only highest weight node at {tag}"
            if graph.edge_count() != sum(p > 0 for n in graph.nodes for p in n.phi):
                return f"edge count differs from string data at {tag}"
            if members != demazure_by_edges(graph, word, seed):
                return f"demazure set differs from the edge closure at {tag}"
            if w.is_full_longest() and len(members) != dim:
                return f"full-word demazure set is not the component at {tag}"
            return None

        return work, check


# ---------------------------------------------------------------------------
# cli-queries


class CliQueries:
    """One closed-loop client calling cli.main in-process.

    A share of requests repeat an earlier request (the only place the
    delta_L memo pays off) and must reproduce its output byte for byte; a
    small share are malformed and must exit 2 with nothing on stdout.
    """

    name = "cli-queries"
    tail_percentile = 99
    REPEAT_SHARE = 0.2
    DIGEST_ITEMS = 200
    MIX = (
        ("minor", 20), ("minor-numeric", 10), ("component", 10),
        ("demazure", 8), ("polynomial", 8), ("paths-enum", 8), ("paths-sum", 6),
        ("closed-form", 6), ("bmatrix", 8), ("mutate", 8), ("phi", 4),
        ("malformed", 4),
    )

    def __init__(self, seed: int, max_r: int = 5):
        self.rng = random.Random(seed)
        self.positions = _matched(max_r, 2)
        self.numeric_positions = [(w, k) for w, k in self.positions if w.r <= 4]
        self.words = list(verify.all_word_specs(max_r, min_r=2))
        self.highest_weights = [
            (lam, weyl_dimension(lam))
            for r in range(2, 5)
            for lam in itertools.product(range(3), repeat=r)
            if 1 < weyl_dimension(lam) <= 200
        ]
        self.replies: dict[tuple, tuple] = {}
        self._digest = hashlib.sha256()
        self._digested = 0

    def summary(self) -> dict:
        return {
            "stdout_sha256": self._digest.hexdigest(),
            "digest_items": self._digested,
            "distinct_requests": len(self.replies),
        }

    def items(self):
        rng = self.rng
        kinds = [k for k, _ in self.MIX]
        weights = [w for _, w in self.MIX]
        history: list[tuple] = []
        while True:
            if history and rng.random() < self.REPEAT_SHARE:
                yield self._request(rng.choice(history), None)
                continue
            argv, expect = getattr(self, "_" + rng.choices(kinds, weights)[0].replace("-", "_"))(rng)
            history.append(argv)
            yield self._request(argv, expect)

    def _request(self, argv: tuple, expect):
        """expect(out) -> error or None for a new request; None for a repeat."""

        def work():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
            return code, out.getvalue(), err.getvalue()

        def check(result):
            code, out, err = result
            if self._digested < self.DIGEST_ITEMS:
                self._digest.update(json.dumps([list(argv), code, out]).encode())
                self._digested += 1
            if "Traceback" in err:
                return f"traceback from {' '.join(argv)}"
            reply = (code, hashlib.sha256(out.encode()).digest())
            if expect is None:
                if self.replies[argv] != reply:
                    return f"repeat of {' '.join(argv)} gave different output"
                return None
            self.replies.setdefault(argv, reply)
            if expect == "usage error":
                if code != 2 or out or not err:
                    return f"malformed {' '.join(argv)} gave exit {code}"
                return None
            if code != 0:
                return f"exit {code} from {' '.join(argv)}: {err.strip()}"
            problem = expect(out)
            return f"{problem} for {' '.join(argv)}" if problem else None

        return work, check

    # -- request kinds: each returns (argv, expect) --------------------------

    @staticmethod
    def _path_reference(w, k):
        ms = bruhat.MinorSpec(w, k)
        return paths.path_sum(paths.PathSpec(ms.d, w.m, ms.mprime), w.r)

    def _minor(self, rng):
        w, k = rng.choice(self.positions)
        form = rng.choice(("tau", "tau", "json", "y"))
        argv = ("minor", "--r", str(w.r), "--word", word_text(w), "--k", str(k),
                "--format", form)

        def expect(out):
            poly = self._path_reference(w, k)
            return None if out == _render(w.r, poly, form) + "\n" else "minor differs from path sum"

        return argv, expect

    def _minor_numeric(self, rng):
        w, k = rng.choice(self.numeric_positions)
        a, t = _torus(rng, w.r), _values(rng, w)
        tvals = [t[w.position_var(j)] for j in range(1, w.n + 1)]
        argv = ("minor", "--r", str(w.r), "--word", word_text(w), "--k", str(k),
                "--a=" + ",".join(map(str, a)), "--t=" + ",".join(map(str, tvals)))

        def expect(out):
            ms = bruhat.MinorSpec(w, k)
            value = _torus_factor(a, ms) * self._path_reference(w, k).evaluate(t)
            return None if out == f"{value}\n" else "numeric minor differs from path sum"

        return argv, expect

    def _component(self, rng):
        lam, dim = rng.choice(self.highest_weights)
        seed = dominant_seed(lam)
        form = rng.choice(("tau", "y", "json"))
        argv = ("crystal", "component", "--r", str(len(lam)), "--seed", str(seed),
                "--format", form)

        def expect(out):
            if form == "json":
                nodes = len(json.loads(out)["nodes"])
                return None if nodes == dim else f"{nodes} nodes, Weyl dimension {dim}"
            lines = out.splitlines()
            head = lines[0].split()
            if head[:1] != ["nodes"] or int(head[1]) != dim:
                return f"header {lines[0]!r}, Weyl dimension {dim}"
            return None if len(lines) == 1 + dim + int(head[3]) else "line count"

        return argv, expect

    def _demazure_request(self, rng, command):
        w, k = rng.choice(self.positions)
        dem = verify.demazure_data(w, k)
        word = ",".join(map(str, dem.word))
        return w, k, ("crystal", command, "--r", str(w.r), "--word", word,
                      "--seed", str(dem.seed))

    def _demazure(self, rng):
        w, k, argv = self._demazure_request(rng, "demazure")
        form = rng.choice(("tau", "json"))
        argv += ("--format", form)

        def expect(out):
            poly = self._path_reference(w, k)
            if any(c != 1 for _, c in poly.terms):
                return "path sum has a coefficient other than one"
            if form == "json":
                got = sorted(json.loads(out))
                want = sorted(laurent.mono_to_json(m) for m in poly.monomials())
            else:
                cfg = crystal.CrystalConfig(w.r)
                got = sorted(out.splitlines())
                want = sorted(crystal.tau_render(cfg, m) for m in poly.monomials())
            return None if got == want else "demazure members differ from path labels"

        return argv, expect

    def _polynomial(self, rng):
        w, k, argv = self._demazure_request(rng, "polynomial")
        form = rng.choice(("tau", "json", "y"))
        argv += ("--format", form)

        def expect(out):
            poly = self._path_reference(w, k)
            return None if out == _render(w.r, poly, form) + "\n" else "demazure sum differs from path sum"

        return argv, expect

    @staticmethod
    def _path_shape(rng):
        d, m = rng.randint(1, 3), rng.randint(1, 4)
        return paths.PathSpec(d, m, rng.randint(1, m)), d + m - 1

    @staticmethod
    def _path_argv(command, spec, r):
        return ("paths", command, "--d", str(spec.d), "--m", str(spec.m),
                "--mprime", str(spec.mprime), "--r", str(r))

    def _paths_enum(self, rng):
        spec, r = self._path_shape(rng)

        def expect(out):
            lines = out.splitlines()
            arrays = sum(1 for _ in paths.k_arrays(spec))
            if len(lines) != arrays:
                return f"{len(lines)} paths, {arrays} stationary arrays"
            cfg = crystal.CrystalConfig(r)
            want = Counter()
            for m, c in paths.closed_form_sum(spec, r).terms:
                want[crystal.tau_render(cfg, m)] += c
            got = Counter(line.split("  ")[1] for line in lines)
            return None if got == want else "path labels differ from the closed form"

        return self._path_argv("enum", spec, r), expect

    def _paths_sum(self, rng):
        spec, r = self._path_shape(rng)
        form = rng.choice(("tau", "json", "y"))

        def expect(out):
            poly = paths.closed_form_sum(spec, r)
            return None if out == _render(r, poly, form) + "\n" else "path sum differs from closed form"

        return self._path_argv("sum", spec, r) + ("--format", form), expect

    def _closed_form(self, rng):
        spec, r = self._path_shape(rng)
        form = rng.choice(("tau", "json", "y"))

        def expect(out):
            poly = paths.path_sum(spec, r)
            return None if out == _render(r, poly, form) + "\n" else "closed form differs from path sum"

        return self._path_argv("closed-form", spec, r) + ("--format", form), expect

    def _bmatrix(self, rng):
        w = rng.choice(self.words)
        form = rng.choice(("text", "json"))
        argv = ("seed", "bmatrix", "--r", str(w.r), "--word", word_text(w), "--format", form)

        def expect(out):
            rows, cols, entries = _seed_output(out, form)
            if rows != list(range(-1, -w.r - 1, -1)) + list(range(1, w.n + 1)):
                return "row labels"
            if cols != list(cluster.e_set(w)):
                return "column labels"
            if entries != [list(row) for row in cluster.seed_matrix(w).entries]:
                return "entries differ from seed_matrix"
            if cluster.skew_symmetrizer(_principal(entries, rows, cols)) is None:
                return "principal part is not skew-symmetrizable"
            return None

        return argv, expect

    def _mutate(self, rng):
        w = rng.choice(self.words)
        cols = list(cluster.e_set(w))
        ks = [rng.choice(cols) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.25:
            ks = [ks[0], ks[0]]
        form = rng.choice(("text", "json"))
        argv = ("seed", "mutate", "--r", str(w.r), "--word", word_text(w),
                "--k=" + ",".join(map(str, ks)), "--format", form)

        def expect(out):
            rows, got_cols, entries = _seed_output(out, form)
            if got_cols != cols:
                return "column labels"
            start = [list(row) for row in cluster.seed_matrix(w).entries]
            if len(ks) == 2 and ks[0] == ks[1]:
                return None if entries == start else "mutation is not an involution"
            principal = _principal(start, rows, cols)
            for k in ks:
                principal = [list(row) for row in cluster.mutate(principal, cols.index(k) + 1)]
            if _principal(entries, rows, cols) != principal:
                return "principal part differs from square mutation"
            return None

        return argv, expect

    def _phi(self, rng):
        w = rng.choice([w for w in self.words if w.r <= 3])
        samples, seed = rng.randint(3, 8), rng.randrange(1, 10**6)
        argv = ("phi", "check", "--r", str(w.r), "--word", word_text(w),
                "--samples", str(samples), "--seed", str(seed))
        line = f"PASS phi: r={w.r} word={word_text(w)} samples={samples}\n"
        return argv, lambda out: None if out == line else "phi check did not pass"

    def _malformed(self, rng):
        w = rng.choice(self.words)
        text = word_text(w)
        argv = rng.choice((
            ("minor", "--r", str(w.r), "--word", text + ",9", "--k", "1"),
            ("minor", "--r", str(w.r), "--word", text, "--k", str(w.n + rng.randint(1, 5))),
            ("minor", "--r", str(w.r), "--word", text + ";", "--k", "1"),
            ("crystal", "component", "--r", str(w.r), "--seed", f"Z[{w.r}]"),
            ("paths", "sum", "--d", "1", "--m", "1", "--mprime", str(rng.randint(2, 4)), "--r", "3"),
            ("seed", "mutate", "--r", str(w.r), "--word", text, "--k", str(w.n + 1)),
            ("minor", "--r", str(w.r)),
            ("frobnicate", "--r", str(w.r)),
        ))
        return argv, "usage error"


def _render(r: int, poly, form: str) -> str:
    if form == "tau":
        return crystal.tau_render_poly(crystal.CrystalConfig(r), poly)
    if form == "json":
        return laurent.poly_to_json(poly)
    return str(poly)


def _seed_output(out: str, form: str):
    """(row labels, column labels, entries) of a printed seed matrix."""
    if form == "json":
        data = json.loads(out)
        return data["rows"], data["cols"], data["entries"]
    lines = out.splitlines()
    rows = [int(x) for x in lines[0].split(" ", 1)[1].split(",")]
    cols = [int(x) for x in lines[1].split(" ", 1)[1].split(",")]
    entries = [[int(x) for x in line.split()[1:]] for line in lines[2:]]
    return rows, cols, entries


def _principal(entries, rows, cols) -> list[list[int]]:
    """The square part of a seed matrix on its column labels."""
    return [[entries[rows.index(i)][cols.index(j)] for j in cols] for i in cols]


WORKLOADS = {
    cls.name: cls for cls in (SweepSymbolic, SweepNumeric, CrystalBfs, CliQueries)
}
