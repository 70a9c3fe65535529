"""Command line behavior: output bytes, formats, exit codes."""

import contextlib
import inspect
import io
import itertools
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crystalminor
from crystalminor import cli, cluster, crystal, defaults, paths, verify
from crystalminor.bruhat import MinorSpec, RationalRows, WordSpec, delta_L
from crystalminor.cluster import seed_matrix
from crystalminor.crystal import DEFAULT_CAP
from crystalminor.laurent import EXPONENT_LIMIT, LaurentPoly, Monomial, VarId
from crystalminor.paths import PathSpec, paths_dot, paths_json
from crystalminor.verify import (
    CHECKS,
    DEFAULT_PHI_SAMPLES,
    CheckResult,
    all_word_specs,
    check_phi_factorization,
    phi_word_check,
)

GOLDEN_MINOR = "τ_2/τ_4 + τ_3τ_5/(τ_4τ_6) + τ_5/τ_7 + τ_3/(τ_4τ_8) + τ_6/(τ_7τ_8) + 1/τ_9"
MINOR_ARGS = ["minor", "--r", "4", "--word", "1,2,3,4,1,2,3,1,2,1", "--k", "6"]
FULL_WORD = WordSpec(4, 4, 1)


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_minor_golden(capsys):
    code, out, err = run(capsys, MINOR_ARGS)
    assert code == 0
    assert out == GOLDEN_MINOR + "\n"
    assert err == ""


def test_minor_explicit_tau_matches_default(capsys):
    _, default, _ = run(capsys, MINOR_ARGS)
    _, explicit, _ = run(capsys, MINOR_ARGS + ["--format", "tau"])
    assert explicit == default


def poly_from_json(text):
    """The polynomial that the JSON format spells, read back."""
    return LaurentPoly.from_terms(
        (Monomial.of(*((VarId(s, i), e) for s, i, e in t["vars"])), t["coeff"]) for t in json.loads(text))


def test_minor_json_round_trip(capsys):
    code, out, _ = run(capsys, MINOR_ARGS + ["--format", "json"])
    assert code == 0
    assert poly_from_json(out) == delta_L(MinorSpec(FULL_WORD, 6))


def test_minor_y_format(capsys):
    code, out, _ = run(capsys, MINOR_ARGS + ["--format", "y"])
    assert code == 0
    assert out.strip() == str(delta_L(MinorSpec(FULL_WORD, 6)))


def test_minor_numeric(capsys):
    base = ["minor", "--r", "2", "--word", "1,2,1", "--k", "1"]
    code, out, _ = run(capsys, base + ["--a", "2,3,1/6", "--t", "1,2,3"])
    assert code == 0
    assert out == "5/2\n"


def test_minor_t_may_start_with_a_minus_sign(capsys):
    argv = ["minor", "--r", "2", "--word", "1,2,1", "--k", "1", "--a", "2,3,1/6"]
    code, out, err = run(capsys, argv + ["--t", "-1,2,3"])
    assert (code, out, err) == (0, "-1/2\n", "")
    assert run(capsys, argv + ["--t=-1,2,3"]) == (code, out, err)


def test_minor_a_may_start_with_a_minus_sign(capsys):
    argv = ["minor", "--r", "2", "--word", "1,2,1", "--k", "1", "--t", "1,2,3"]
    code, out, err = run(capsys, argv + ["--a", "-2,-3,1/6"])
    assert (code, err) == (0, "") and out.strip()
    assert run(capsys, argv + ["--a=-2,-3,1/6"]) == (code, out, err)


def test_minor_numeric_needs_both_flags(capsys):
    base = ["minor", "--r", "2", "--word", "1,2,1", "--k", "1"]
    code, _, err = run(capsys, base + ["--a", "2,3,1/6"])
    assert code == 2
    assert "--a and --t" in err


def test_minor_numeric_huge_exponents_are_refused_at_once(capsys):
    # built as rationals, these take from seconds to far longer; the smaller
    # exponent comes first, so a missing guard fails the time bound before
    # the larger one is tried
    base = ["minor", "--r", "2", "--word", "1,2,1", "--k", "1", "--a", "1,1,1"]
    for t in ("1,1,1e10000000", "1,1,1e999999999"):
        start = time.perf_counter()
        code, out, err = run(capsys, base + ["--t", t])
        assert time.perf_counter() - start < 1
        exponent = t.rsplit("e", 1)[1]
        assert (code, out) == (2, "")
        assert err == f"error: cannot parse {t!r}: exponent {exponent} exceeds 4300 in magnitude\n"
    code, _, err = run(capsys, base + ["--t", "1,1,1/2e999999999"])
    assert (code, err) == (2, "error: cannot parse '1,1,1/2e999999999': "
                              "expected comma separated rationals\n")


def test_minor_bad_word(capsys):
    code, _, err = run(capsys, ["minor", "--r", "2", "--word", "1,2,2", "--k", "1"])
    assert code == 2
    assert "staircase" in err


def test_minor_rank_below_one_is_named(capsys):
    for r in ("0", "-1"):
        for word in ("1", "2", "1,2,1"):
            got = run(capsys, ["minor", "--r", r, "--word", word, "--k", "1"])
            assert got == (2, "", f"error: rank must be >= 1, got {r}\n")


def test_minor_letter_past_its_cycle_is_named(capsys):
    for word in ("1,2,3,4,1", "1,2,3,4"):
        got = run(capsys, ["minor", "--r", "3", "--word", word, "--k", "1"])
        assert got == (2, "", "error: letter 4 at position 4 breaks the staircase shape\n")
    got = run(capsys, ["seed", "bmatrix", "--r", "2", "--word", "1,2,1,2"])
    assert got == (2, "", "error: letter 2 at position 4 breaks the staircase shape\n")


def test_minor_bad_position(capsys):
    code, _, err = run(capsys, ["minor", "--r", "2", "--word", "1,2,1", "--k", "9"])
    assert code == 2
    assert err.startswith("error:")


def test_component_text(capsys):
    code, out, _ = run(capsys, ["crystal", "component", "--r", "4", "--seed", "Y[-1,3]"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "nodes 10 edges 12"
    assert lines[1] == "0 τ_{-2}"
    assert len(lines) == 1 + 10 + 12
    assert sum(1 for x in lines if "->" in x) == 12


def test_component_dot(capsys):
    code, out, _ = run(
        capsys,
        ["crystal", "component", "--r", "4", "--seed", "Y[-1,3]", "--format", "dot"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "digraph crystal {"
    assert lines[-1] == "}"
    assert sum(1 for x in lines if "label=" in x and "->" not in x) == 10
    assert sum(1 for x in lines if "->" in x) == 12


def test_component_json(capsys):
    code, out, _ = run(
        capsys,
        ["crystal", "component", "--r", "4", "--seed", "Y[-1,3]", "--format", "json"],
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["nodes"]) == 10
    assert len(data["edges"]) == 12


def test_component_bad_seed(capsys):
    code, _, err = run(capsys, ["crystal", "component", "--r", "4", "--seed", "Z[1]"])
    assert code == 2
    assert "error:" in err


def test_component_malformed_seed_numbers(capsys):
    for seed in ("Y[0,1]^", "Y[0,]", "Y[,1]", "Y[x,1]"):
        code, out, err = run(capsys, ["crystal", "component", "--r", "2", "--seed", seed])
        assert code == 2, seed
        assert out == ""
        assert err.startswith("error: malformed ") and err.count("\n") == 1, err
        assert "int()" not in err


DEMAZURE_ARGS = [
    "--r", "4", "--word", "1,2,3,4,1,2", "--sign", "minus", "--seed", "1/Y[2,2]",
]


def test_demazure_members(capsys):
    code, out, _ = run(capsys, ["crystal", "demazure"] + DEMAZURE_ARGS)
    assert code == 0
    assert out.splitlines() == [
        "1/τ_9",
        "τ_6/(τ_7τ_8)",
        "τ_5/τ_7",
        "τ_3/(τ_4τ_8)",
        "τ_3τ_5/(τ_4τ_6)",
        "τ_2/τ_4",
    ]


def test_demazure_polynomial_matches_minor(capsys):
    code, out, _ = run(capsys, ["crystal", "polynomial"] + DEMAZURE_ARGS)
    assert code == 0
    assert out == GOLDEN_MINOR + "\n"


PATH_ARGS = ["--d", "2", "--m", "3", "--mprime", "2", "--r", "4"]


def test_paths_enum_text(capsys):
    code, out, _ = run(capsys, ["paths", "enum"] + PATH_ARGS)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert lines[0] == "(3;1,2)->(2;1,2)->(1;2,3)->(0;3,4)  1/τ_9"
    assert lines[-1] == "(3;1,2)->(2;2,3)->(1;3,4)->(0;3,4)  τ_2/τ_4"


def test_paths_enum_json_and_dot_match_library(capsys):
    spec = PathSpec(2, 3, 2)
    _, out, _ = run(capsys, ["paths", "enum"] + PATH_ARGS + ["--format", "json"])
    assert out == paths_json(spec, 4) + "\n"
    _, out, _ = run(capsys, ["paths", "enum"] + PATH_ARGS + ["--format", "dot"])
    assert out == paths_dot(spec, 4) + "\n"


def test_paths_sum_golden(capsys):
    code, out, _ = run(capsys, ["paths", "sum"] + PATH_ARGS)
    assert code == 0
    assert out == GOLDEN_MINOR + "\n"


def test_paths_closed_form(capsys):
    code, out, _ = run(
        capsys,
        ["paths", "closed-form", "--d", "1", "--m", "3", "--mprime", "2", "--r", "4"],
    )
    assert code == 0
    assert out == "τ_2/τ_3 + τ_5/τ_6 + 1/τ_8\n"
    code, out, _ = run(capsys, ["paths", "closed-form"] + PATH_ARGS)
    assert code == 0
    assert out == GOLDEN_MINOR + "\n"


def test_long_path_families_need_no_recursion(capsys):
    shape = ["--d", "1", "--m", "1000", "--mprime", "1000", "--r", "1000"]
    assert run(capsys, ["paths", "sum"] + shape) == (0, "1\n", "")
    code, out, err = run(capsys, ["paths", "enum"] + shape)
    assert (code, err) == (0, "")
    assert out.endswith("->(0;1001)  1\n")


def test_paths_rank_too_small(capsys):
    code, _, err = run(
        capsys, ["paths", "sum", "--d", "2", "--m", "3", "--mprime", "2", "--r", "2"]
    )
    assert code == 2
    assert "error:" in err


def test_a_request_too_large_to_allocate_is_an_input_error(capsys):
    # a source row of 2^61 entries is refused at once, before any memory is touched
    argv = ["paths", "enum", "--d", str(2**61), "--m", "1", "--mprime", "1", "--r", "3"]
    assert run(capsys, argv) == (2, "", "error: out of memory\n")


def test_seed_bmatrix_text(capsys):
    code, out, _ = run(capsys, ["seed", "bmatrix", "--r", "2", "--word", "1,2,1"])
    assert code == 0
    assert out.splitlines() == [
        "rows -1,-2,1,2,3",
        "cols -1,-2,1",
        "-1  0 -1  1",
        "-2  1  0 -1",
        " 1 -1  1  0",
        " 2  0 -1  1",
        " 3  0  0 -1",
    ]


def test_seed_bmatrix_json(capsys):
    code, out, _ = run(
        capsys, ["seed", "bmatrix", "--r", "2", "--word", "1,2,1", "--format", "json"]
    )
    assert code == 0
    assert out.strip() == seed_matrix(WordSpec(2, 2, 1)).to_json()


def test_seed_matrix_over_the_cap_is_refused_before_it_is_built(capsys, monkeypatch):
    # 401 rows and 400 columns: 487 KB of text if built
    monkeypatch.setattr(cluster, "seed_matrix", lambda w: pytest.fail(f"built {w}"))
    refused = (2, "", f"error: the seed matrix has 160400 entries, more than {DEFAULT_CAP}\n")
    assert run(capsys, ["seed", "bmatrix", "--r", "400", "--word", "1"]) == refused
    assert run(capsys, ["seed", "mutate", "--r", "400", "--word", "1", "--k", "-1"]) == refused


def test_seed_matrix_cap_counts_the_entries_of_the_built_matrix(capsys, monkeypatch):
    for w in all_word_specs(4):
        sm = seed_matrix(w)
        size = len(sm.rows) * len(sm.cols)
        argv = ["seed", "bmatrix", "--r", str(w.r), "--word", ",".join(map(str, w.letters()))]
        monkeypatch.setattr(cli, "DEFAULT_CAP", size)
        assert run(capsys, argv)[0] == 0
        monkeypatch.setattr(cli, "DEFAULT_CAP", size - 1)
        assert run(capsys, argv) == (2, "", f"error: the seed matrix has {size} entries, more than {size - 1}\n")


def test_seed_mutate_twice_restores(capsys):
    _, base, _ = run(capsys, ["seed", "bmatrix", "--r", "2", "--word", "1,2,1"])
    _, once, _ = run(capsys, ["seed", "mutate", "--r", "2", "--word", "1,2,1", "--k", "1"])
    _, twice, _ = run(capsys, ["seed", "mutate", "--r", "2", "--word", "1,2,1", "--k", "1,1"])
    assert once != base
    assert twice == base


def test_seed_mutate_negative_direction(capsys):
    code, out, _ = run(
        capsys, ["seed", "mutate", "--r", "2", "--word", "1,2,1", "--k", "-1"]
    )
    assert code == 0
    assert out.splitlines()[0] == "rows -1,-2,1,2,3"


def test_seed_mutate_k_may_start_with_a_minus_sign(capsys):
    argv = ["seed", "mutate", "--r", "2", "--word", "1,2,1"]
    code, out, err = run(capsys, argv + ["--k", "-1,1"])
    assert (code, err) == (0, "") and out.startswith("rows -1,-2,1,2,3\n")
    assert run(capsys, argv + ["--k=-1,1"]) == (code, out, err)


def test_seed_mutate_bad_direction(capsys):
    code, _, err = run(
        capsys, ["seed", "mutate", "--r", "2", "--word", "1,2,1", "--k", "3"]
    )
    assert code == 2
    assert "out of range" in err
    for k in ("1,,2", ""):
        code, out, err = run(
            capsys, ["seed", "mutate", "--r", "2", "--word", "1,2,1", f"--k={k}"]
        )
        assert (code, out) == (2, "")
        assert err == f"error: cannot parse --k {k!r}: expected comma separated integers\n"


def test_phi_check_pass(capsys):
    code, out, _ = run(capsys, ["phi", "check", "--r", "3", "--word", "1,2,3,1,2,1"])
    assert code == 0
    assert out == "PASS phi: r=3 word=1,2,3,1,2,1 samples=20\n"


def test_verify_pass(capsys):
    code, out, _ = run(capsys, ["verify", "thm5-6", "--max-r", "3"])
    assert code == 0
    lines = out.splitlines()
    assert all(x.startswith("PASS thm5-6") for x in lines)
    assert lines[-1] == "PASS thm5-6: 10 width-one positions, r <= 3"
    assert lines[:-1] == sorted(lines[:-1])


def test_verify_every_check_runs_small(capsys):
    small = {
        "thm5-5": ["--max-r", "2"],
        "prop6-1": ["--max-r", "2"],
        "prop6-10": ["--max-dim", "2"],
        "thm5-6": ["--max-r", "2"],
        "prop5-1": ["--max-r", "2", "--samples", "2"],
        "prop2-4": ["--max-r", "2", "--samples", "2"],
        "axioms": ["--max-r", "2"],
    }
    for name, extra in small.items():
        code, out, _ = run(capsys, ["verify", name] + extra)
        assert code == 0, name
        assert out.splitlines()[-1].startswith(f"PASS {name}:")


def test_verify_lemma5_4_reaches_the_truncation_check(capsys):
    code, out, _ = run(capsys, ["verify", "lemma5-4", "--max-r", "3"])
    assert code == 0
    lines = out.splitlines()
    assert all(x.startswith("PASS lemma5-4") for x in lines)
    assert lines[-1] == "PASS lemma5-4: 13 extensions, r <= 3"


def test_verify_empty_sweep_fails(capsys):
    for argv in (["verify", "thm5-5", "--max-r", "1"], ["verify", "lemma5-4", "--max-r", "1"]):
        code, out, err = run(capsys, argv)
        assert code == 1, argv
        assert out.splitlines()[-1].startswith(f"FAIL {argv[1]}: empty sweep"), argv
        assert err == ""


def test_nonpositive_bounds_are_usage_errors(capsys):
    for argv in (
        ["verify", "thm5-5", "--max-r", "0"],
        ["verify", "axioms", "--max-r", "-3"],
        ["verify", "prop6-10", "--max-dim", "0"],
        ["verify", "prop5-1", "--samples", "-1"],
        ["verify", "prop2-4", "--samples", "0"],
        ["phi", "check", "--r", "2", "--word", "1,2", "--samples", "0"],
        ["crystal", "component", "--r", "2", "--seed", "Y[-1,1]", "--cap", "-1"],
        ["crystal", "demazure", "--r", "2", "--word", "1", "--seed", "Y[-1,1]", "--cap", "0"],
        ["crystal", "polynomial", "--r", "2", "--word", "1", "--seed", "Y[-1,1]", "--cap", "0"],
        ["paths", "sum", "--d", "2", "--m", "3", "--mprime", "2", "--r", "4", "--cap", "0"],
    ):
        code, out, err = run(capsys, argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: --") and "must be positive" in err, argv
        assert err.count("\n") == 1, argv
    # the rank is refused before any walk, whatever the output format
    for sub, formats in (
        ("enum", ("tau", "json", "dot")),
        ("sum", ("tau", "json", "y")),
        ("closed-form", ("tau", "json", "y")),
    ):
        for form in formats:
            for r in ("0", "-1"):
                argv = ["paths", sub, "--d", "1", "--m", "1", "--mprime", "1", "--r", r, "--format", form]
                assert run(capsys, argv) == (2, "", f"error: rank must be >= 1, got {r}\n"), argv


def test_cap_default_is_the_library_default():
    parser = cli.build_parser()
    for sub in ("component", "demazure", "polynomial"):
        extra = [] if sub == "component" else ["--word", "1"]
        args = parser.parse_args(["crystal", sub, "--r", "2", "--seed", "Y[-1,1]"] + extra)
        assert args.cap == DEFAULT_CAP
    for sub in ("enum", "sum", "closed-form"):
        args = parser.parse_args(["paths", sub, "--d", "1", "--m", "1", "--mprime", "1", "--r", "1"])
        assert args.cap == DEFAULT_CAP


def test_shared_defaults_are_the_ones_their_users_read():
    """The defaults module holds each default once: every sweep verify
    registers is named there, in the order `verify --help` lists it, and
    the library and the parser read the same values."""
    assert tuple(verify.CHECKS) == defaults.CHECK_NAMES
    assert (crystal.DEFAULT_CAP, verify.DEFAULT_SEED, verify.DEFAULT_PHI_SAMPLES) == (
        defaults.DEFAULT_CAP, defaults.DEFAULT_SEED, defaults.DEFAULT_PHI_SAMPLES)
    parser = cli.build_parser()
    args = parser.parse_args(["crystal", "component", "--r", "2", "--seed", "Y[-1,1]"])
    assert args.cap == defaults.DEFAULT_CAP
    args = parser.parse_args(["phi", "check", "--r", "2", "--word", "1,2,1"])
    assert (args.samples, args.seed) == (defaults.DEFAULT_PHI_SAMPLES, defaults.DEFAULT_SEED)


def test_paths_family_over_the_cap_is_refused_before_any_walk(capsys):
    # 1,081,724,803,600 paths each: walking them would take days, and the
    # wide family has 2^12 candidate steps per vertex, nearly all invalid
    long = ["--d", "2", "--m", "24", "--mprime", "12", "--r", "40"]
    wide = ["--d", "12", "--m", "14", "--mprime", "2", "--r", "40"]
    for sub, fmt in (("enum", "dot"), ("sum", "tau"), ("closed-form", "json")):
        for shape in (long, wide):
            code, out, err = run(capsys, ["paths", sub, *shape, "--format", fmt])
            assert (code, out, err) == (2, "", f"error: node cap {DEFAULT_CAP} exceeded\n")
    # PathSpec(2, 3, 2) has six paths, and six arrays
    small = ["--d", "2", "--m", "3", "--mprime", "2", "--r", "4"]
    for sub in ("enum", "sum", "closed-form"):
        assert run(capsys, ["paths", sub, *small, "--cap", "6"]) == run(capsys, ["paths", sub, *small])
        assert run(capsys, ["paths", sub, *small, "--cap", "5"]) == (2, "", "error: node cap 5 exceeded\n")


def test_each_paths_request_builds_at_most_one_table(capsys, monkeypatch):
    # count_paths is a closed form, so the --cap check builds no table; the
    # walks of enum and sum build one, the array walk of closed-form none
    builds = []
    build = paths._path_table

    def counting(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(paths, "_path_table", counting)
    small = ["--d", "2", "--m", "3", "--mprime", "2", "--r", "4"]
    requests = [["sum", *small]] + [["enum", *small, "--format", f] for f in ("tau", "json", "dot")]
    for argv, want in [(argv, 1) for argv in requests] + [(["closed-form", *small], 0)]:
        builds.clear()
        assert run(capsys, ["paths", *argv])[0] == 0
        assert len(builds) == want, argv


def test_paths_enum_refuses_a_rank_too_small_before_building_a_table(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("built a table before refusing the rank")

    monkeypatch.setattr(paths, "_path_table", refuse)
    monkeypatch.setattr(paths, "_array_rows", refuse)
    # 80,601 paths, inside the default cap
    shape = ["--d", "400", "--m", "3", "--mprime", "1", "--r", "4"]
    assert paths.count_paths(PathSpec(400, 3, 1)) == 80601 <= DEFAULT_CAP
    assert run(capsys, ["paths", "enum", *shape]) == (
        2, "", "error: slot 3 of cycle 2 does not exist at rank 4\n")


def test_paths_closed_form_refuses_what_paths_sum_refuses(capsys):
    # depth 0 (mprime = m) has one path and an empty array, whose slots must
    # still fit the rank: --d 5 --m 1 --mprime 1 --r 3 needs slot 5 of cycle 0
    for r, d, m in itertools.product(range(1, 5), range(1, 6), range(1, 5)):
        for mprime in range(1, m + 1):
            shape = ["--d", str(d), "--m", str(m), "--mprime", str(mprime), "--r", str(r)]
            code, out, err = run(capsys, ["paths", "closed-form", *shape])
            want_code, want_out, want_err = run(capsys, ["paths", "sum", *shape])
            assert (code, err) == (want_code, want_err), shape
            if code == 0:
                assert out == want_out, shape
    assert run(capsys, ["paths", "closed-form", "--d", "5", "--m", "1", "--mprime", "1", "--r", "3"]) == (
        2, "", "error: slot 5 of cycle 0 does not exist at rank 3\n")


def test_phi_samples_default_is_the_library_default():
    args = cli.build_parser().parse_args(["phi", "check", "--r", "2", "--word", "1,2,1"])
    assert args.samples == DEFAULT_PHI_SAMPLES
    for fn in (phi_word_check, check_phi_factorization):
        assert inspect.signature(fn).parameters["samples"].default == DEFAULT_PHI_SAMPLES


def test_verify_failure_exit(capsys, monkeypatch):
    def fake(max_r=5):
        return CheckResult("thm5-6", False, "forced", ("FAIL thm5-6 forced",))

    monkeypatch.setitem(verify.CHECKS, "thm5-6", fake)
    code, out, _ = run(capsys, ["verify", "thm5-6"])
    assert code == 1
    assert out.splitlines() == ["FAIL thm5-6 forced", "FAIL thm5-6: forced"]


def test_demazure_closure_past_the_minor_term_count_fails_the_position(capsys, monkeypatch):
    # a one-term minor caps the closure at one member; the first position
    # whose closure has two is r=2 word=1,2,1 k=1
    monkeypatch.setattr(verify, "delta_L_uncached", lambda spec: LaurentPoly.one())
    code, out, err = run(capsys, ["verify", "thm5-5", "--max-r", "3"])
    assert (code, err) == (1, "")
    assert out.splitlines()[-2:] == [
        "FAIL thm5-5 r=2 word=1,2,1 k=1 demazure cap 1 exceeded",
        "FAIL thm5-5: demazure closure at r=2 word=1,2,1 k=1 exceeds cap 1, the minor's term count",
    ]


def _plus_one(real):
    return lambda *args: real(*args) + 1


def _first_entry_plus_one(real):
    # entry (0, 0) is N[0][0] / (dens[0] * sigma[0]): larger by exactly one
    def faulty(*args):
        m = real(*args)
        N = [list(row) for row in m.N]
        N[0][0] += m.dens[0] * m.sigma[0]
        return RationalRows(N, m.dens, m.sigma)

    return faulty


def test_an_equal_rescaled_matrix_passes_the_phi_sweep(capsys, monkeypatch):
    # the control for _first_entry_plus_one: the sweep compares values, so
    # row 0 of N and dens[0] both times -3 is the same matrix
    def rescaled(real):
        def same(*args):
            m = real(*args)
            return RationalRows([[-3 * n for n in m.N[0]], *m.N[1:]], [-3 * m.dens[0], *m.dens[1:]], m.sigma)

        return same

    monkeypatch.setattr(verify, "cell_matrix_value", rescaled(verify.cell_matrix_value))
    code, out, err = run(capsys, ["verify", "prop2-4", "--max-r", "1", "--samples", "1"])
    assert (code, err) == (0, "")
    assert out == "PASS prop2-4 r=1 word=1 samples=1\nPASS prop2-4: 1 samples, r <= 1\n"


@pytest.mark.parametrize(
    "check, bounds, name, fault, line, detail",
    [
        ("prop5-1", ["--max-r", "1", "--samples", "1"], "delta_G", _plus_one,
         "r=1 word=1 k=1 mismatch",
         "mismatch at r=1 word=1 k=1 a=(Fraction(-5, 3), Fraction(-3, 5)) t={VarId(s=0, i=1): Fraction(-5, 1)}"),
        ("prop2-4", ["--max-r", "1", "--samples", "1"], "cell_matrix_value", _first_entry_plus_one,
         "r=1 word=1 mismatch",
         "mismatch at r=1 word=1 a=(Fraction(-5, 3), Fraction(-3, 5)) t={VarId(s=0, i=1): Fraction(-5, 1)}"),
        ("axioms", ["--max-r", "2"], "comb", _plus_one,
         "fundamental r=1 d=1 nodes=2 expected=3",
         "component size at fundamental r=1 d=1: 2 != 3"),
        ("axioms", ["--max-r", "2"], "kashiwara_rows", lambda real: lambda *args: (real(*args)[0], None),
         "fundamental r=1 d=1 lowering defined iff phi positive fails at Y[-1,1] color 1",
         "fundamental r=1 d=1: lowering defined iff phi positive fails at Y[-1,1] color 1"),
    ],
    ids=["prop5-1", "prop2-4", "axioms-size", "axioms-failure"],
)
def test_a_faulty_route_fails_the_sweep_at_its_first_spec(capsys, monkeypatch, check, bounds,
                                                         name, fault, line, detail):
    monkeypatch.setattr(verify, name, fault(getattr(verify, name)))
    code, out, err = run(capsys, ["verify", check] + bounds)
    assert (code, err) == (1, "")
    assert out == f"FAIL {check} {line}\nFAIL {check}: {detail}\n"


def test_phi_check_names_the_first_failing_sample(capsys, monkeypatch):
    real = verify.cell_matrix_value
    calls = []

    def second_call_faulty(*args):
        calls.append(args)
        return _first_entry_plus_one(real)(*args) if len(calls) == 2 else real(*args)

    monkeypatch.setattr(verify, "cell_matrix_value", second_call_faulty)
    argv = ["phi", "check", "--r", "2", "--word", "1,2,1", "--samples", "3"]
    assert run(capsys, argv) == (1, "FAIL phi: r=2 word=1,2,1 sample=2\n", "")
    assert len(calls) == 2


def test_paths_closed_form_exits_1_when_the_width_one_cross_check_fails(capsys, monkeypatch):
    monkeypatch.setattr(paths, "d1_closed_form", lambda *args: LaurentPoly.zero())
    argv = ["paths", "closed-form", "--d", "1", "--m", "3", "--mprime", "2", "--r", "4"]
    assert run(capsys, argv) == (1, "", "error: width-one cross check failed\n")


def test_verify_rejects_inapplicable_flag(capsys):
    code, _, err = run(capsys, ["verify", "thm5-5", "--max-dim", "3"])
    assert code == 2
    assert "does not apply" in err


def test_verify_unknown_check(capsys):
    code, _, err = run(capsys, ["verify", "nonsense"])
    assert code == 2


def test_byte_identical_repeats(capsys):
    for argv in (
        MINOR_ARGS,
        ["crystal", "component", "--r", "4", "--seed", "Y[-1,3]", "--format", "dot"],
        ["verify", "thm5-6", "--max-r", "3"],
        ["verify", "prop5-1", "--max-r", "2", "--samples", "3"],
    ):
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second, argv


def test_a_closed_stdout_ends_with_exit_2_and_no_traceback():
    src = str(Path(crystalminor.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for argv in (["verify", "thm5-5", "--max-r", "4"],
                 ["crystal", "component", "--r", "4", "--seed", "Y[-1,2]"],
                 ["seed", "mutate", "--r", "2", "--word", "1,2,1", "--k", "-1,1"],
                 ["--help"], ["crystal", "-h"]):
        read, write = os.pipe()
        os.close(read)  # before the child starts: its first write meets a closed pipe
        try:
            child = subprocess.run([sys.executable, "-m", "crystalminor.cli", *argv], env=env,
                                   stdout=write, stderr=subprocess.PIPE, timeout=120)
        finally:
            os.close(write)
        assert (child.returncode, child.stderr) == (2, b""), argv


def test_usage_errors(capsys):
    assert run(capsys, [])[0] == 2
    assert run(capsys, ["bogus"])[0] == 2
    assert run(capsys, ["minor", "--r", "4"])[0] == 2


def test_help_exits_zero(capsys):
    assert run(capsys, ["--help"])[0] == 0
    assert run(capsys, ["minor", "--help"])[0] == 0


@st.composite
def crystal_argv(draw):
    """A parseable crystal command: small rank, seed, word and cap.

    Seeds are mostly extremal for the drawn sign (all exponents of one
    sign), words mostly in range; the rest are malformed, untau-able or
    out of range on purpose.
    """
    r = draw(st.integers(0, 4))
    command = draw(st.sampled_from(["component", "demazure", "polynomial"]))
    sign = draw(st.sampled_from(["plus", "minus"]))
    power = st.integers(1, 2).map(lambda e: e if sign == "plus" else -e)
    pairs = st.tuples(st.builds(VarId, st.integers(-1, 3), st.integers(1, max(r, 1))), power)
    wild = st.tuples(st.builds(VarId, st.integers(-3, 5), st.integers(1, 6)), st.integers(-3, 3))
    seed = draw(st.one_of(
        st.lists(pairs, max_size=3).map(lambda ps: str(Monomial.of(*ps))),
        st.lists(wild, max_size=4).map(lambda ps: str(Monomial.of(*ps))),
        st.sampled_from(["1/Y[2,2]", "Y[-1,3]", "Y[0,1]^", "Y[a,1]", "Y[0,0]", "", "x"]),
        st.sampled_from([f"Y[0,2]^{EXPONENT_LIMIT}", f"Y[0,1]^-{EXPONENT_LIMIT}",
                         f"Y[-1,1]^{EXPONENT_LIMIT - 1}", f"Y[1,1]^{1 - EXPONENT_LIMIT}Y[0,2]"]),
    ))
    formats = {"component": ["tau", "y", "json", "dot"], "demazure": ["tau", "json"],
               "polynomial": ["tau", "json", "y"]}[command]
    argv = ["crystal", command, "--r", str(r), "--seed", seed,
            "--cap", str(draw(st.integers(1, 200))), "--format", draw(st.sampled_from(formats))]
    if command != "component":
        word = draw(st.lists(st.integers(1, max(r, 1)), min_size=1, max_size=6))
        word += draw(st.lists(st.integers(-1, 6), max_size=1))
        argv += ["--word=" + ",".join(map(str, word)), "--sign", sign]
    return argv


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(crystal_argv())
def test_crystal_commands_never_raise(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2), argv
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, argv
    else:
        assert err.getvalue() == "", argv


def test_polynomial_exponents_past_the_limit_are_domain_errors(capsys):
    seed = ["--r", "1", "--seed", f"Y[0,2]^{EXPONENT_LIMIT}"]
    code, out, err = run(capsys, ["crystal", "polynomial", *seed, "--word", "1"])
    assert (code, out) == (2, "")
    assert err == f"error: exponent {EXPONENT_LIMIT} of a polynomial term reaches the limit 2**31\n"
    # a component is a set of monomials, which keep unbounded exponents
    code, out, err = run(capsys, ["crystal", "component", *seed, "--format", "y"])
    assert (code, err) == (0, "") and f"Y[0,2]^{EXPONENT_LIMIT}" in out
    code, out, _ = run(capsys, ["crystal", "polynomial", "--r", "1", "--seed",
                                f"Y[0,2]^{EXPONENT_LIMIT - 1}", "--word", "1", "--format", "y"])
    assert (code, out) == (0, f"Y[0,2]^{EXPONENT_LIMIT - 1}\n")


def test_demazure_exponent_limit_output_is_pinned(capsys):
    over = f"Y[-1,1]^{EXPONENT_LIMIT}"
    base = ["crystal", "polynomial", "--r", "2", "--sign", "plus", "--format", "y"]
    # the error names the first member, in discovery order, past the limit
    code, out, err = run(capsys, base + ["--word", "2", "--seed", over])
    assert (code, out) == (2, "")
    assert err == "error: exponent 2147483648 of a polynomial term reaches the limit 2**31\n"
    # an exceeded cap wins over an exponent past the limit
    code, out, err = run(capsys, base + ["--word", "1", "--cap", "50", "--seed", over])
    assert (code, out, err) == (2, "", "error: node cap 50 exceeded\n")
    code, out, err = run(capsys, base + ["--word", "2", "--seed", f"Y[-1,1]^{EXPONENT_LIMIT - 1}"])
    assert (code, out, err) == (0, "Y[-1,1]^2147483647\n", "")
    # a member one step past the limit, not the seed, is the first past it
    seed = f"Y[0,1]^-1Y[-1,2]^-{EXPONENT_LIMIT - 1}"
    code, out, err = run(capsys, ["crystal", "polynomial", "--r", "2", "--word", "1",
                                  "--seed", seed, "--format", "y"])
    assert (code, out) == (2, "")
    assert err == "error: exponent 2147483648 of a polynomial term reaches the limit 2**31\n"
    # Monomial-only commands keep unbounded exponents, above rank r too
    code, out, err = run(capsys, ["crystal", "demazure", "--r", "2", "--word", "2", "--sign", "plus",
                                  "--seed", f"Y[-1,1]^{2**64}Y[-1,2]Y[0,3]^{2**64}", "--format", "json"])
    assert (code, err) == (0, "")
    assert json.loads(out) == [[[-1, 1, 2**64], [-1, 2, 1], [0, 3, 2**64]],
                               [[-1, 1, 2**64], [0, 1, 1], [0, 2, -1], [0, 3, 2**64]]]


def test_a_seed_exponent_of_2_31_is_a_one_line_error(capsys):
    # 2**31 is the packed limit, one past what a signed 32-bit digit holds
    base = ["crystal", "polynomial", "--r", "2", "--word", "2,1", "--sign", "plus", "--format", "y", "--seed"]
    code, out, err = run(capsys, base + ["Y[-1,1]Y[0,3]^2147483648"])
    assert (code, out) == (2, "")
    assert err == "error: exponent 2147483648 of a polynomial term reaches the limit 2**31\n"
    code, out, err = run(capsys, base + ["Y[-1,1]Y[0,3]^2147483647"])
    assert (code, err) == (0, "")
    assert out == ("Y[-1,1]Y[0,3]^2147483647 + Y[-1,2]Y[0,1]^-1Y[0,3]^2147483647"
                   " + Y[0,2]^-1Y[0,3]^2147483647\n")


def test_numeric_results_past_the_digit_limit_are_domain_errors(capsys):
    base = ["minor", "--r", "2", "--word", "1,2,1", "--k", "1", "--a", "1,1,1"]
    for t in ("1,1,1e4300", "1,1,1e-4300"):
        code, out, err = run(capsys, base + ["--t", t])
        assert (code, out) == (2, ""), t
        assert err.startswith("error: ") and err.count("\n") == 1, t
        assert "digits" in err and "sys." not in err, t


def call(argv):
    """(exit code, stdout, stderr) of one in-process cli.main call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_parser_is_built_once_and_reused(monkeypatch):
    usage_error = ["paths", "sum", "--d", "2"]
    valid = ["paths", "sum", "--d", "2", "--m", "3", "--mprime", "2", "--r", "4"]
    sequence = [usage_error, valid, usage_error, valid, ["--help"], valid]
    fresh = []
    for argv in sequence:
        cli._parser.cache_clear()
        fresh.append(call(argv))
    assert fresh[0][0] == 2 and "error: " in fresh[0][2]
    assert fresh[1] == (0, GOLDEN_MINOR + "\n", "")

    builds = []

    def counting_build_parser():
        builds.append(1)
        return build_parser()

    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    assert [call(argv) for argv in sequence] == fresh
    assert len(builds) == 1
    assert build_parser() is not build_parser()
    cli._parser.cache_clear()


@st.composite
def paths_argv(draw):
    """A parseable paths command: mostly a valid shape at a rank that may
    be too small, sometimes a zero or negative size, shift or rank."""
    d = draw(st.sampled_from([1, 2, 3, 1, 2, 3, 0, -1]))
    m = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 0, -2]))
    mprime = draw(st.sampled_from([None, None, None, None, 0, -1, m + 1]))
    if mprime is None:
        mprime = draw(st.integers(1, max(m, 1)))
    r = draw(st.one_of(st.integers(-1, 10), st.just(max(d, 1) + max(m, 1))))
    command = draw(st.sampled_from(["enum", "sum", "closed-form"]))
    formats = ["tau", "json", "dot"] if command == "enum" else ["tau", "json", "y"]
    return ["paths", command, f"--d={d}", f"--m={m}", f"--mprime={mprime}", f"--r={r}",
            "--format", draw(st.sampled_from(formats))]


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(paths_argv())
def test_paths_commands_never_raise(argv):
    code, _, err = call(argv)
    assert code in (0, 1, 2), argv
    if code == 0:
        assert err == "", argv
    else:
        assert err.startswith("error: ") and err.count("\n") == 1, argv


# Packs the variables in the order given by argv[1], prints the packed form
# of one variable, then the output of each command.
INTERN_THEN_RUN = """
import contextlib, io, sys
from crystalminor import cli, verify
from crystalminor.laurent import Monomial, VarId, pack
variables = [VarId(s, i) for s in range(-1, 6) for i in range(1, 7)]
if sys.argv[1] == "reversed":
    variables.reverse()
for v in variables:
    pack(Monomial.of((v, 1)).factors)
print(pack(Monomial.of((VarId(0, 1), 1)).factors))
argvs = [["verify", "thm5-5", "--max-r", "5"]] + [
    ["minor", "--r", str(w.r), "--word", ",".join(map(str, w.letters())), "--k", str(k),
     "--format", "json"]
    for w in verify.all_word_specs(4) for k in range(1, w.n + 1)
]
for argv in argvs:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    print(argv, code, repr(out.getvalue()))
"""


def test_output_does_not_depend_on_the_order_variables_are_packed():
    src = str(Path(crystalminor.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    runs = [
        subprocess.run([sys.executable, "-c", INTERN_THEN_RUN, order], env=env, check=True,
                       capture_output=True, text=True, timeout=120).stdout.splitlines()
        for order in ("forward", "reversed")
    ]
    assert runs[0][0] != runs[1][0]  # the slots really differ
    assert runs[0][1:] == runs[1][1:]
    assert "PASS thm5-5: 34 words, 69 positions" in runs[0][1]
    assert len(runs[0]) == 2 + sum(w.n for w in all_word_specs(4))


def _assert_exit_contract(argv, code, err):
    """Exit 0, 1 or 2; nothing on stderr on success; on a usage or domain
    error exactly one `error: ` line, after argparse's usage if it speaks."""
    assert code in (0, 1, 2), argv
    if code == 0:
        assert err == "", argv
    if code == 2:
        lines = err.splitlines()
        assert [line for line in lines if "error: " in line] == lines[-1:], argv
        assert len(lines) == 1 or lines[0].startswith("usage: "), argv


NUMBERS = ["1", "2", "-1", "1/2", "-3/4", "0", "1/0", "x", "", "2.5"]


def _flag(draw, name, value):
    """--name=value as one token, or --name and value as two: a value that
    starts with a minus sign must read as a value either way."""
    return draw(st.sampled_from([[f"--{name}={value}"], [f"--{name}", value]]))


def _mostly(draw, good, bad):
    """good in about seven draws of eight, else one of bad."""
    return good if draw(st.integers(0, 7)) else draw(st.sampled_from(bad))


@st.composite
def other_command_argv(draw):
    """A `minor`, `seed`, `phi check` or `verify` command, mostly well
    formed, with wrong counts, zeros, bad labels and inapplicable flags
    mixed in."""
    w = draw(st.sampled_from(list(all_word_specs(3))))
    r = _mostly(draw, w.r, [w.r + 1, 0, -1, -2])
    # the bad words include letters past their cycle: one more letter than
    # the first cycle holds, and the final letter's successor appended
    word = _mostly(draw, ",".join(map(str, w.letters())),
                   ["1,,2", "a", "", "0,1", "1,3", ",".join(map(str, range(1, w.r + 2))),
                    ",".join(map(str, w.letters() + (w.last + 1,)))])
    command = draw(st.sampled_from(["minor", "bmatrix", "mutate", "phi", "verify"]))
    if command == "minor":
        k = _mostly(draw, draw(st.integers(1, w.n)), [-1, 0, w.n + 1])
        argv = ["minor", "--r", str(r), f"--word={word}", f"--k={k}",
                "--format", draw(st.sampled_from(["tau", "json", "y"]))]
        numeric = draw(st.sampled_from(["none", "both", "both", "a", "t"]))
        torus = _mostly(draw, ",".join(["2"] + ["1"] * (w.r - 1) + ["1/2"]),
                        ["1,1", "1,1,1,1,1", "0," + "1," * w.r + "1", "2," * w.r + "2", "x",
                         "-2,-1/2" + ",1" * (w.r - 1), "-1," * w.r + "-1", "-x"])
        good = ",".join(str(draw(st.integers(1, 3))) for _ in range(w.n))
        bad = draw(st.lists(st.sampled_from(NUMBERS), min_size=w.n - 1, max_size=w.n + 1))
        values = _mostly(draw, good, [",".join(bad)])
        if numeric in ("both", "a"):
            argv += _flag(draw, "a", torus)
        if numeric in ("both", "t"):
            argv += _flag(draw, "t", values)
        return argv
    if command in ("bmatrix", "mutate"):
        argv = ["seed", command, "--r", str(r), f"--word={word}",
                "--format", draw(st.sampled_from(["text", "json"]))]
        if command == "mutate":
            label = st.one_of(st.sampled_from(seed_matrix(w).cols), st.integers(-w.r - 2, w.n + 2))
            labels = draw(st.lists(label, min_size=1, max_size=4))
            labels += labels[:draw(st.integers(0, 2))]
            argv += _flag(draw, "k", _mostly(draw, ",".join(map(str, labels)), ["a", "", "1,,2", "-1,,2"]))
        return argv
    if command == "phi":
        return ["phi", "check", "--r", str(r), f"--word={word}",
                "--samples", str(_mostly(draw, draw(st.integers(1, 3)), [0, -1, -2])),
                f"--seed={_mostly(draw, '7', ['0', '-5', 'x', '1.5', ''])}"]
    check = draw(st.sampled_from(sorted(CHECKS)))
    bound = "--max-dim" if check == "prop6-10" else "--max-r"
    argv = ["verify", check, bound, str(draw(st.integers(0, 2)))]
    for flag in draw(st.lists(st.sampled_from(["--max-r", "--max-dim", "--samples", "--seed"]),
                              max_size=2, unique=True)):
        if flag != bound:
            argv += [flag, str(draw(st.integers(-1, 2)))]
    return argv


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(other_command_argv())
def test_minor_seed_phi_and_verify_commands_never_raise(argv):
    code, _, err = call(argv)
    _assert_exit_contract(argv, code, err)


def _readme_examples():
    """(argv, shown output lines) of every `$ crystalminor` line of README.md."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    examples = []
    for n, line in enumerate(lines):
        if line.startswith("$ crystalminor "):
            shown = []
            for after in lines[n + 1:]:
                if after.startswith(("$ ", "```")):
                    break
                shown.append(after)
            examples.append((shlex.split(line[2:], comments=True)[1:], shown))
    return examples


def test_readme_command_examples_run_and_print_what_they_show():
    examples = _readme_examples()
    assert len(examples) >= 12
    for argv, shown in examples:
        code, out, err = call(argv)
        assert (code, err) == (0, ""), argv
        got = out.splitlines()
        if "..." in shown:
            cut = shown.index("...")
            head, tail = shown[:cut], shown[cut + 1:]
            assert got[:len(head)] == head and got[len(got) - len(tail):] == tail, argv
        elif shown:
            assert got == shown, argv
    assert [shown for _, shown in examples if shown] == [
        [GOLDEN_MINOR],
        ["5/2"],
        ["PASS phi: r=3 word=1,2,3,1,2,1 samples=20"],
        ["PASS thm5-5 r=2 word=1 positions=1", "...",
         "PASS thm5-5: 34 words, 69 positions, 4-way equal, r <= 5"],
    ]
