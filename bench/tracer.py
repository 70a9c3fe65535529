"""Spans and counters for the benchmark's traced runs.

The tracer wraps public functions of the crystalminor modules from outside
the package.  Installing it replaces each target in every crystalminor
module namespace (or class) that holds it, so calls made inside the package
go through the wrapper too; ``uninstall`` puts the originals back.

Entry points such as ``bruhat.delta_L`` or ``cli.main`` record one span per
call: name, start, end, the span that caused it, and the benchmark item it
belongs to.  The Laurent kernel operations and the crystal operators run
millions of times, so they only add to aggregated call counts and times.
Both kinds share one stack, so every layer's self time (its duration minus
the part covered by wrapped calls below it) is measured the same way, and
the self times of all layers plus the benchmark's own item frame add up to
the traced wall time of the items.
"""

from __future__ import annotations

import itertools
import sys
from collections import defaultdict
from time import perf_counter_ns

ITEM = "bench.item"

# (metric prefix, module, attribute path, kind); kind is "span" (one span per
# call), "kernel" (aggregated count and time), "count" (aggregated count) or
# "generator" (count of values yielded).
TARGETS = (
    ("laurent.poly_mul", "laurent", "LaurentPoly.__mul__", "kernel"),
    ("laurent.poly_add", "laurent", "LaurentPoly.__add__", "kernel"),
    ("laurent.from_terms", "laurent", "LaurentPoly.from_terms", "count"),
    ("laurent.mono_mul", "laurent", "Monomial.__mul__", "kernel"),
    ("laurent.evaluate", "laurent", "LaurentPoly.evaluate", "kernel"),
    ("bruhat.delta_L", "bruhat", "delta_L", "span"),
    ("bruhat.xL_matrix", "bruhat", "xL_matrix", "span"),
    ("bruhat.mat_mul", "bruhat", "mat_mul", "kernel"),
    ("bruhat.det", "bruhat", "det", "span"),
    ("bruhat.delta_G", "bruhat", "delta_G", "span"),
    ("bruhat.cell_matrix_value", "bruhat", "cell_matrix_value", "span"),
    ("bruhat.lower_product_value", "bruhat", "lower_product_value", "span"),
    ("bruhat.phi_map", "bruhat", "phi_map", "span"),
    ("crystal.component", "crystal", "component", "span"),
    ("crystal.demazure", "crystal", "demazure", "span"),
    ("crystal.apply_e", "crystal", "apply_e", "count"),
    ("crystal.apply_f", "crystal", "apply_f", "count"),
    ("crystal.node_stats", "crystal", "node_stats", "count"),
    ("crystal.tau_render", "crystal", "tau_render", "kernel"),
    ("verify.crystal_axiom_failures", "verify", "crystal_axiom_failures", "span"),
    ("paths.enumerate_paths", "paths", "enumerate_paths", "span"),
    ("paths.label", "paths", "label", "kernel"),
    ("paths.path_sum", "paths", "path_sum", "span"),
    ("paths.k_arrays", "paths", "k_arrays", "generator"),
    ("paths.closed_form_sum", "paths", "closed_form_sum", "span"),
    ("cluster.seed_matrix", "cluster", "seed_matrix", "span"),
    ("cluster.mutate", "cluster", "SeedMatrix.mutate", "span"),
    ("cluster.mutate", "cluster", "mutate", "span"),
    ("cli.main", "cli", "main", "span"),
    ("cli.build_parser", "cli", "build_parser", "span"),
)


class Tracer:
    """Wraps the TARGETS while installed; records only between begin_item
    and pause/end_item."""

    def __init__(self) -> None:
        self.on = False
        self.item: int | None = None
        # frames: [start_ns, child_ns, span id to use as parent]
        self.stack: list[list] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._restore: list[tuple[object, str, object]] = []

    # -- item frames -------------------------------------------------------

    def begin_item(self, item: int) -> None:
        self.item = item
        self.stack = [[perf_counter_ns(), 0, next(self._ids)]]
        self.on = True

    def pause(self) -> None:
        """Stop recording wrapped calls; time still accrues to the item."""
        self.on = False

    def end_item(self) -> None:
        self.on = False
        start, child, sid = self.stack.pop()
        end = perf_counter_ns()
        self.calls[ITEM] += 1
        self.self_ns[ITEM] += end - start - child
        self.spans.append((sid, None, self.item, ITEM, start, end))

    # -- wrappers ----------------------------------------------------------

    def _timed(self, name: str, fn, span: bool, before=None, after=None):
        tracer = self
        calls, self_ns, spans, ids = self.calls, self.self_ns, self.spans, self._ids

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            token = before(args) if before else None
            stack = tracer.stack
            parent = stack[-1][2]
            sid = next(ids) if span else parent
            frame = [perf_counter_ns(), 0, sid]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - frame[0]
                stack[-1][1] += dur
                calls[name] += 1
                self_ns[name] += dur - frame[1]
                if span:
                    spans.append((sid, parent, tracer.item, name, frame[0], end))
            if after:
                after(token, args, result)
            return result

        return wrapper

    def _counted(self, name: str, fn, after=None):
        tracer, calls = self, self.calls

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.on:
                calls[name] += 1
                if after:
                    after(None, args, result)
            return result

        return wrapper

    def _generator(self, name: str, fn):
        tracer, counts = self, self.counts

        def wrapper(*args, **kwargs):
            for value in fn(*args, **kwargs):
                if tracer.on:
                    counts[name + ".arrays"] += 1
                yield value

        return wrapper

    def _hooks(self, name: str, package: dict):
        """Extra counters measured at the boundary of some targets."""
        calls, counts = self.calls, self.counts
        if name == "laurent.poly_mul":
            poly = package["laurent"].LaurentPoly

            def before(args):
                a, b = args
                if not a or not b:
                    counts["laurent.poly_mul.zero_operand"] += 1
                counts["laurent.poly_mul.term_products"] += len(a) * (
                    len(b) if isinstance(b, poly) else 1
                )

            return before, None
        if name == "laurent.from_terms":

            def after(token, args, result):
                counts["laurent.terms_out"] += len(result)

            return None, after
        if name == "bruhat.delta_L":

            def after(token, args, result):
                if calls["bruhat.det"] > token:
                    counts["bruhat.delta_L.misses"] += 1

            return (lambda args: calls["bruhat.det"]), after
        if name in ("crystal.component", "crystal.demazure"):

            def before(args):
                return calls["crystal.apply_e"] + calls["crystal.apply_f"]

            def after(token, args, result):
                used = calls["crystal.apply_e"] + calls["crystal.apply_f"] - token
                counts["crystal.search_applications"] += used
                nodes = result.node_count() if name == "crystal.component" else len(result)
                counts[name + ".nodes"] += nodes
                if name == "crystal.component":
                    counts[name + ".edges"] += result.edge_count()

            return before, after
        if name == "paths.enumerate_paths":

            def after(token, args, result):
                counts["paths.enumerate_paths.paths"] += len(result)

            return None, after
        return None, None

    def _wrap(self, name: str, kind: str, fn, package: dict):
        if kind == "generator":
            return self._generator(name, fn)
        before, after = self._hooks(name, package)
        if kind == "count":
            return self._counted(name, fn, after)
        return self._timed(name, fn, kind == "span", before, after)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Replace every target in the loaded crystalminor modules."""
        package = {
            name.split(".", 1)[1]: mod
            for name, mod in sys.modules.items()
            if name.startswith("crystalminor.") and mod is not None
        }
        for name, module, path, kind in TARGETS:
            owner = package.get(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(f"{module}.{path}")
                continue
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapped = self._wrap(name, kind, fn, package)
            if outer:
                # a method: rebind every alias in the class (e.g. __rmul__)
                for key, value in list(vars(owner).items()):
                    if value is raw:
                        new = staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped
                        self._replace(owner, key, new)
            else:
                for mod in package.values():
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._replace(mod, key, wrapped)

    def _replace(self, owner, key: str, new) -> None:
        self._restore.append((owner, key, vars(owner)[key]))
        setattr(owner, key, new)

    def uninstall(self) -> None:
        self.on = False
        while self._restore:
            owner, key, old = self._restore.pop()
            setattr(owner, key, old)

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics named in BENCHMARK.json, except the
        overhead share, which needs the untraced run."""
        calls, counts = self.calls, self.counts
        out: dict[str, float] = {}
        for name, _, _, kind in TARGETS + ((ITEM, None, None, "span"),):
            if kind in ("span", "kernel", "count"):
                out[name + ".calls"] = calls[name]
            if kind in ("span", "kernel"):
                out[name + ".self_s"] = self.self_ns[name] / 1e9
        out["laurent.poly_mul.zero_operand_share"] = _share(
            counts["laurent.poly_mul.zero_operand"], calls["laurent.poly_mul"]
        )
        out["laurent.poly_mul.term_products"] = counts["laurent.poly_mul.term_products"]
        out["laurent.terms_out"] = counts["laurent.terms_out"]
        out["bruhat.delta_L.miss_share"] = _share(
            counts["bruhat.delta_L.misses"], calls["bruhat.delta_L"]
        )
        out["crystal.component.nodes"] = counts["crystal.component.nodes"]
        out["crystal.component.edges"] = counts["crystal.component.edges"]
        out["crystal.demazure.nodes"] = counts["crystal.demazure.nodes"]
        out["crystal.new_node_share"] = _share(
            counts["crystal.component.nodes"] + counts["crystal.demazure.nodes"],
            counts["crystal.search_applications"],
        )
        out["paths.enumerate_paths.paths"] = counts["paths.enumerate_paths.paths"]
        out["paths.k_arrays.arrays"] = counts["paths.k_arrays.arrays"]
        return out

    def self_total_s(self) -> float:
        return sum(self.self_ns.values()) / 1e9

    def span_records(self) -> list[dict]:
        return [
            {"id": sid, "parent": parent, "item": item, "name": name,
             "start_ns": start, "end_ns": end}
            for sid, parent, item, name, start, end in self.spans
        ]


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0
