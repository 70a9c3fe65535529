"""Command line driver.

Everything is controlled by flags; there are no config files and no
environment variables.  Output goes to stdout, diagnostics to stderr.
Exit status: 0 on success, 1 when a verification subcommand finds a
failing check, 2 on usage or domain errors.  Identical invocations
produce byte-identical output.

Start-up loads only ``errors``, ``laurent``, ``bruhat`` and ``defaults``,
which is all the parser needs; each command imports what it uses of
``crystal``, ``paths``, ``cluster`` or ``verify`` when it starts.  The
``seed`` commands leave the matrix cap to ``cluster.seed_matrix``.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import re
import sys
from fractions import Fraction

from .bruhat import MinorSpec, WordSpec, delta_G, delta_L
from .defaults import CHECK_NAMES, DEFAULT_CAP, DEFAULT_PHI_SAMPLES, DEFAULT_SEED
from .errors import CapExceeded, CrystalMinorError
from .laurent import mono_to_json, parse_monomial, poly_to_json


def _check_positive(args) -> None:
    """Sweep bounds, sample counts and node caps must be at least one."""
    for dest in ("max_r", "max_dim", "samples", "cap"):
        value = getattr(args, dest, None)
        if value is not None and value < 1:
            raise ValueError(f"--{dest.replace('_', '-')} must be positive, got {value}")


def _letters(text: str, what: str = "word") -> tuple[int, ...]:
    try:
        return tuple([int(x) for x in text.split(",")])
    except ValueError:
        raise ValueError(f"cannot parse {what} {text!r}: expected comma separated integers")


# Python's default int-string digit limit: a rational with a larger decimal
# exponent could never be printed, and building it can take minutes
_MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def _fractions(text: str) -> tuple[Fraction, ...]:
    out = []
    for token in text.split(","):
        exp = _EXPONENT.search(token)
        try:
            huge = exp is not None and abs(int(exp.group(1))) > _MAX_EXPONENT
            # a huge exponent is parsed as zero, so that a token malformed
            # elsewhere still reads as malformed
            value = Fraction(token[: exp.start(1)] + "0" if huge else token)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"cannot parse {text!r}: expected comma separated rationals")
        if huge:
            raise ValueError(
                f"cannot parse {text!r}: exponent {exp.group(1)} exceeds {_MAX_EXPONENT} in magnitude"
            )
        out.append(value)
    return tuple(out)


def _word(args) -> WordSpec:
    return WordSpec.from_letters(args.r, _letters(args.word))


def _render_poly(r: int, poly, form: str) -> str:
    if form == "tau":
        from .crystal import CrystalConfig, tau_render_poly
        return tau_render_poly(CrystalConfig(r), poly)
    if form == "json":
        return poly_to_json(poly)
    return str(poly)


def _run_minor(args) -> int:
    w = _word(args)
    ms = MinorSpec(w, args.k)
    if (args.a is None) != (args.t is None):
        raise ValueError("--a and --t must be given together")
    if args.a is not None:
        a = _fractions(args.a)
        tvals = _fractions(args.t)
        if len(tvals) != w.n:
            raise ValueError(f"--t needs {w.n} values, got {len(tvals)}")
        t = dict(zip(w.variables(), tvals))
        value = delta_G(ms, a, t)
        try:
            text = str(value)
        except ValueError:  # past the interpreter's int-to-text digit limit
            raise ValueError(
                f"the result has more than {sys.get_int_max_str_digits()} digits, too many to print"
            ) from None
        print(text)
        return 0
    print(_render_poly(args.r, delta_L(ms), args.format))
    return 0


def _run_component(args) -> int:
    from .crystal import CrystalConfig, component, graph_to_dot, graph_to_json, monomial_text
    cfg = CrystalConfig(args.r)
    g = component(cfg, parse_monomial(args.seed), cap=args.cap)
    if args.format == "dot":
        print(graph_to_dot(g))
    elif args.format == "json":
        print(graph_to_json(g))
    else:
        lines = [f"nodes {g.node_count()} edges {g.edge_count()}"]
        for k, node in enumerate(g.nodes):
            lines.append(f"{k} {monomial_text(cfg, node.monomial, args.format)}")
        lines += [f"{src} -{color}-> {dst}" for src, color, dst in g.edges]
        print("\n".join(lines))
    return 0


def _demazure_spec(args):
    from .crystal import DemazureSpec
    return DemazureSpec(
        word=_letters(args.word), sign=args.sign, seed=parse_monomial(args.seed)
    )


def _run_demazure(args) -> int:
    from .crystal import CrystalConfig, demazure, monomial_text
    cfg = CrystalConfig(args.r)
    members = demazure(cfg, _demazure_spec(args), cap=args.cap)
    if args.format == "json":
        print(json.dumps([mono_to_json(m) for m in members], separators=(",", ":")))
        return 0
    for m in members:
        print(monomial_text(cfg, m, args.format))
    return 0


def _run_polynomial(args) -> int:
    from .crystal import CrystalConfig, demazure_polynomial
    cfg = CrystalConfig(args.r)
    poly = demazure_polynomial(cfg, _demazure_spec(args), cap=args.cap)
    print(_render_poly(args.r, poly, args.format))
    return 0


def _path_spec(args):
    """The shape, refused before any walk when the rank is below one or
    the shape has more than --cap paths."""
    from .crystal import CrystalConfig
    from .paths import PathSpec, count_paths
    spec = PathSpec(args.d, args.m, args.mprime)
    CrystalConfig(args.r)
    if count_paths(spec) > args.cap:
        raise CapExceeded(args.cap)
    return spec


def _run_paths_enum(args) -> int:
    from .paths import paths_dot, paths_json, paths_text
    spec = _path_spec(args)
    if args.format == "json":
        print(paths_json(spec, args.r))
        return 0
    if args.format == "dot":
        print(paths_dot(spec, args.r))
        return 0
    for line in paths_text(spec, args.r):
        print(line)
    return 0


def _run_paths_sum(args) -> int:
    from .paths import path_sum
    spec = _path_spec(args)
    print(_render_poly(args.r, path_sum(spec, args.r), args.format))
    return 0


def _run_paths_closed(args) -> int:
    from .paths import closed_form_sum, d1_closed_form
    spec = _path_spec(args)
    poly = closed_form_sum(spec, args.r)
    if spec.d == 1 and d1_closed_form(spec.m, spec.mprime, args.r) != poly:
        print("error: width-one cross check failed", file=sys.stderr)
        return 1
    print(_render_poly(args.r, poly, args.format))
    return 0


def _matrix_text(sm) -> str:
    lines = [
        "rows " + ",".join(map(str, sm.rows)),
        "cols " + ",".join(map(str, sm.cols)),
    ]
    width = max(
        (len(str(x)) for row in sm.entries for x in row), default=1
    )
    label_width = max(len(str(k)) for k in sm.rows)
    for k, row in zip(sm.rows, sm.entries):
        cells = " ".join(f"{x:>{width}}" for x in row)
        lines.append(f"{k:>{label_width}} {cells}")
    return "\n".join(lines)


def _run_seed(args) -> int:
    """The word's seed matrix, mutated at each --k direction in turn."""
    from .cluster import seed_matrix
    sm = seed_matrix(_word(args))
    for k in () if args.k is None else _letters(args.k, "--k"):
        sm = sm.mutate(k)
    print(sm.to_json() if args.format == "json" else _matrix_text(sm))
    return 0


def _run_phi_check(args) -> int:
    from .verify import phi_word_check
    res = phi_word_check(_word(args), args.samples, args.seed)
    print(res.summary())
    return 0 if res.passed else 1


def _run_verify(args) -> int:
    from .verify import CHECKS
    flags = ("max_r", "max_dim", "samples", "seed")
    kwargs = {key: getattr(args, key) for key in flags if getattr(args, key) is not None}
    fn = CHECKS[args.check]
    allowed = set(inspect.signature(fn).parameters)
    for key in kwargs:
        if key not in allowed:
            raise ValueError(f"--{key.replace('_', '-')} does not apply to {args.check}")
    res = fn(**kwargs)
    for line in res.lines:
        print(line)
    print(res.summary())
    return 0 if res.passed else 1


class _Parser(argparse.ArgumentParser):
    """Reads a token such as -1,2 or -1/2 as a value, as argparse reads -1:
    no option of this CLI starts with a digit.  Help that meets a closed
    pipe raises BrokenPipeError, which main reports as for any output;
    some argparse releases drop such a failed write silently."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def _print_message(self, message, file=None):
        if message:
            (file or sys.stderr).write(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="crystalminor",
        description="Exact minors, crystals and lattice paths on staircase words.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("minor", help="minor of the cell matrix at one position")
    p.add_argument("--r", type=int, required=True, help="rank")
    p.add_argument("--word", required=True, help="comma separated letters")
    p.add_argument("--k", type=int, required=True, help="position, 1-based")
    p.add_argument("--format", choices=("tau", "json", "y"), default="tau")
    p.add_argument("--a", help="torus diagonal, r+1 rationals (with --t: numeric minor)")
    p.add_argument("--t", help="position values, n rationals")
    p.set_defaults(func=_run_minor)

    crystal = sub.add_parser("crystal", help="crystal components and Demazure sets")
    csub = crystal.add_subparsers(dest="subcommand", required=True)

    p = csub.add_parser("component", help="connected component of a seed monomial")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--seed", required=True, help="seed monomial, e.g. Y[-1,3] or 1/Y[2,2]")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP, help="node cap for the search")
    p.add_argument("--format", choices=("tau", "y", "json", "dot"), default="tau")
    p.set_defaults(func=_run_component)

    for name, func, helptext in (
        ("demazure", _run_demazure, "members of a Demazure subset"),
        ("polynomial", _run_polynomial, "sum of a Demazure subset"),
    ):
        p = csub.add_parser(name, help=helptext)
        p.add_argument("--r", type=int, required=True)
        p.add_argument("--word", required=True, help="generating word, consumed right to left")
        p.add_argument("--sign", choices=("plus", "minus"), default="minus")
        p.add_argument("--seed", required=True, help="seed monomial")
        p.add_argument("--cap", type=int, default=DEFAULT_CAP)
        choices = ("tau", "json") if name == "demazure" else ("tau", "json", "y")
        p.add_argument("--format", choices=choices, default="tau")
        p.set_defaults(func=func)

    paths = sub.add_parser("paths", help="lattice paths and their sums")
    psub = paths.add_subparsers(dest="subcommand", required=True)

    for name, func, formats, helptext in (
        ("enum", _run_paths_enum, ("tau", "json", "dot"), "list all paths with labels"),
        ("sum", _run_paths_sum, ("tau", "json", "y"), "sum of all path labels"),
        ("closed-form", _run_paths_closed, ("tau", "json", "y"), "label sum via the closed form"),
    ):
        p = psub.add_parser(name, help=helptext)
        p.add_argument("--d", type=int, required=True, help="path width")
        p.add_argument("--m", type=int, required=True, help="number of steps")
        p.add_argument("--mprime", type=int, required=True, help="total shift")
        p.add_argument("--r", type=int, required=True, help="rank for labels")
        p.add_argument("--cap", type=int, default=DEFAULT_CAP, help="path cap for the family")
        p.add_argument("--format", choices=formats, default="tau")
        p.set_defaults(func=func)

    seed = sub.add_parser("seed", help="exchange matrices on double words")
    ssub = seed.add_subparsers(dest="subcommand", required=True)

    p = ssub.add_parser("bmatrix", help="seed matrix of a word")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_run_seed, k=None)

    p = ssub.add_parser("mutate", help="mutate the seed matrix at one or more directions")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--k", required=True, help="mutation directions, comma separated labels")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_run_seed)

    phi = sub.add_parser("phi", help="coordinate change between cell parametrizations")
    phisub = phi.add_subparsers(dest="subcommand", required=True)

    p = phisub.add_parser("check", help="factorization identity on random samples")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--samples", type=int, default=DEFAULT_PHI_SAMPLES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=_run_phi_check)

    p = sub.add_parser("verify", help="named cross-module identity sweeps")
    p.add_argument("check", choices=CHECK_NAMES)
    p.add_argument("--max-r", type=int, default=None, dest="max_r")
    p.add_argument("--max-dim", type=int, default=None, dest="max_dim")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_run_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on the first call of main.

    Parsing leaves the tree unchanged and returns a fresh namespace, so
    one tree serves every call; build_parser still returns a new one.
    """
    return build_parser()


def main(argv=None) -> int:
    try:
        try:
            args = _parser().parse_args(argv)
        except SystemExit as e:  # help printed, or a usage error on stderr
            code = int(e.code or 0)
        else:
            _check_positive(args)
            code = args.func(args)
        sys.stdout.flush()  # a closed pipe is met here, not at shutdown
        return code
    except (CrystalMinorError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError:  # a request too large to allocate, like an input error
        print("error: out of memory", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader is gone: the rest of the output goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2


if __name__ == "__main__":
    sys.exit(main())
