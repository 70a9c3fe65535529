"""Golden CLI corpus: one digest per in-process ``cli.main`` call.

Each digest is the SHA-256 of the call's argv, exit code, stdout and
stderr, so any change to what a command prints or how it exits shows up
as the first differing argv.  The corpus covers every command and format
at small sizes plus malformed inputs; ``--help`` is left out, since its
text belongs to argparse.

Regenerate ``cli_golden.json`` (only when an output change is intended):

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import shlex
from pathlib import Path

from crystalminor import cli

GOLDEN = Path(__file__).with_name("cli_golden.json")

WORDS = {2: ("1,2,1", "1,2", "1"), 3: ("1,2,3,1,2,1", "1,2,3,1", "1,2")}
SEEDS = ("Y[-1,1]", "Y[-1,2]", "1/Y[0,2]", "Y[-1,1]Y[-1,2]", "Y[3,1]", "1/Y[1,1]Y[2,1]")
# Demazure words and extremal seeds of each sign: phi = 0 for minus, epsilon = 0 for plus
DEMAZURE_WORDS = {1: ("1", "1,1"), 2: ("1", "2,1", "1,2,1"), 3: ("1,2,1", "3,2,1", "1,2,3,1,2,1")}
EXTREMAL = {"minus": ("1/Y[0,1]", "1/Y[0,2]", "1/Y[0,1]Y[1,2]"), "plus": ("Y[-1,1]", "Y[-1,2]", "Y[-1,1]Y[0,2]")}


def _argvs() -> list[list[str]]:
    out: list[list[str]] = []
    for r, words in WORDS.items():
        for word in words:
            n = len(word.split(","))
            for k in range(0, n + 2):
                for form in ("tau", "json", "y"):
                    out.append(["minor", "--r", str(r), "--word", word, "--k", str(k), "--format", form])
            out.append(["seed", "bmatrix", "--r", str(r), "--word", word])
            out.append(["seed", "bmatrix", "--r", str(r), "--word", word, "--format", "json"])
            out.append(["phi", "check", "--r", str(r), "--word", word, "--samples", "2"])
    out += [
        ["minor", "--r", "2", "--word", "1,2,1", "--k", "2", "--a", "2,3,1/6", "--t", "1,-2,3"],
        ["minor", "--r", "2", "--word", "1,2,1", "--k", "3", "--a", "1,1,1", "--t", "0,1,1"],
        ["minor", "--r", "2", "--word", "1,2,1", "--k", "2", "--a", "2,3,1/6"],
        ["minor", "--r", "2", "--word", "1,2,1", "--k", "2", "--a", "2,3,1/6", "--t", "1,2"],
        ["minor", "--r", "2", "--word", "1,2,1", "--k", "2", "--a", "x,3,1", "--t", "1,2,3"],
        ["minor", "--r", "2", "--word", "1,2,1", "--k", "2", "--a", "1e9999,3,1", "--t", "1,2,3"],
        ["minor", "--r", "2", "--word", "1,x", "--k", "1"],
        ["minor", "--r", "0", "--word", "1", "--k", "1"],
        ["minor", "--r", "2", "--word", "1,3", "--k", "1"],
        ["minor", "--r", "2", "--word", "2,1", "--k", "1"],
        ["minor", "--r", "2", "--word", "1,2,1", "--k", "1", "--format", "dot"],
        ["seed", "mutate", "--r", "3", "--word", "1,2,3,1,2,1", "--k", "1"],
        ["seed", "mutate", "--r", "3", "--word", "1,2,3,1,2,1", "--k", "1,1", "--format", "json"],
        ["seed", "mutate", "--r", "3", "--word", "1,2,3,1,2,1", "--k", "-1"],
        ["seed", "mutate", "--r", "3", "--word", "1,2,3,1,2,1", "--k", "99"],
        ["seed", "mutate", "--r", "3", "--word", "1,2,3,1,2,1", "--k", "a"],
        ["phi", "check", "--r", "2", "--word", "1,2,1", "--samples", "0"],
        ["phi", "check", "--r", "2", "--word", "1,2,1", "--samples", "1", "--seed", "7"],
    ]
    for r in (1, 2, 3):
        for seed in SEEDS:
            for form in ("tau", "y", "json", "dot"):
                out.append(["crystal", "component", "--r", str(r), "--seed", seed, "--format", form])
        for word in DEMAZURE_WORDS[r]:
            for sign, seeds in EXTREMAL.items():
                for seed in seeds:
                    base = ["--r", str(r), "--word", word, "--sign", sign, "--seed", seed]
                    for form in ("tau", "json"):
                        out.append(["crystal", "demazure", *base, "--format", form])
                    for form in ("tau", "json", "y"):
                        out.append(["crystal", "polynomial", *base, "--format", form])
    out += [
        ["crystal", "component", "--r", "3", "--seed", "Y[-1,2]", "--cap", "2"],
        ["crystal", "component", "--r", "2", "--seed", "Y[-1,0]"],
        ["crystal", "component", "--r", "2", "--seed", "Y[-1,1]^"],
        ["crystal", "component", "--r", "2", "--seed", "Z[0,1]"],
        ["crystal", "component", "--r", "2", "--seed", "Y[0,1]/Y[1,1]/Y[2,1]"],
        ["crystal", "demazure", "--r", "2", "--word", "3", "--seed", "1/Y[0,1]"],
        ["crystal", "demazure", "--r", "2", "--word", "1", "--seed", "Y[-1,1]"],
        ["crystal", "polynomial", "--r", "2", "--word", "1", "--sign", "plus", "--seed", "1/Y[0,1]"],
        ["crystal", "demazure", "--r", "2", "--word", "1,a", "--seed", "1/Y[0,1]"],
        ["crystal", "demazure", "--r", "3", "--word", "1,2,3,1,2,1", "--seed", "1/Y[0,2]", "--cap", "3"],
        ["crystal", "polynomial", "--r", "2", "--word", "2", "--seed", "1/Y[0,1]^2147483647"],
        ["crystal", "polynomial", "--r", "2", "--word", "2", "--seed", "1/Y[0,1]^2147483648"],
        ["crystal", "polynomial", "--r", "2", "--word", "1", "--seed", "1/Y[0,1]^2147483647", "--cap", "3"],
        ["crystal", "polynomial", "--r", "1", "--word", "1", "--seed", "Y[0,1]^2147483646", "--sign", "plus",
         "--cap", "3"],
    ]
    for d in (1, 2, 3):
        for m in (1, 2, 3):
            for mprime in range(1, m + 1):
                for r in (d + m - 1, d + m):
                    shape = ["--d", str(d), "--m", str(m), "--mprime", str(mprime), "--r", str(r)]
                    for sub, formats in (
                        ("enum", ("tau", "json", "dot")),
                        ("sum", ("tau", "json", "y")),
                        ("closed-form", ("tau", "json", "y")),
                    ):
                        for form in formats:
                            out.append(["paths", sub, *shape, "--format", form])
    out += [
        ["paths", "sum", "--d", "2", "--m", "3", "--mprime", "2", "--r", "4", "--cap", "5"],
        ["paths", "enum", "--d", "0", "--m", "1", "--mprime", "1", "--r", "2"],
        ["paths", "sum", "--d", "1", "--m", "2", "--mprime", "3", "--r", "2"],
        ["paths", "enum", "--d", "1", "--m", "2", "--mprime", "0", "--r", "2"],
        ["paths", "sum", "--d", "2", "--m", "2", "--mprime", "1", "--r", "1"],
        ["paths", "closed-form", "--d", "5", "--m", "1", "--mprime", "1", "--r", "3"],
        ["paths", "closed-form", "--d", "1", "--m", "-1", "--mprime", "0", "--r", "2"],
        ["paths", "enum", "--d", "1", "--m", "1", "--mprime", "1", "--r", "0"],
    ]
    out += [
        ["verify", "thm5-5", "--max-r", "3"],
        ["verify", "thm5-5", "--max-r", "1"],
        ["verify", "prop6-1", "--max-r", "3"],
        ["verify", "prop6-10", "--max-dim", "3"],
        ["verify", "thm5-6", "--max-r", "3"],
        ["verify", "prop5-1", "--max-r", "2", "--samples", "2"],
        ["verify", "prop5-1", "--max-r", "2", "--samples", "1", "--seed", "5"],
        ["verify", "prop2-4", "--max-r", "3", "--samples", "2"],
        ["verify", "lemma5-4", "--max-r", "3"],
        ["verify", "lemma5-4", "--max-r", "1"],
        ["verify", "axioms", "--max-r", "2"],
        ["verify", "thm5-5", "--max-dim", "3"],
        ["verify", "thm5-5", "--max-r", "0"],
        ["verify", "nonsense"],
        ["verify"],
        [],
        ["paths"],
        ["crystal", "component", "--r", "2"],
        ["minor", "--r", "two", "--word", "1", "--k", "1"],
        ["frobnicate"],
    ]
    return out


def _digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    record = json.dumps([argv, code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(record.encode()).hexdigest()


def _corpus() -> dict[str, str]:
    return {shlex.join(argv): _digest(argv) for argv in _argvs()}


def test_cli_output_matches_the_golden_corpus():
    want = json.loads(GOLDEN.read_text())
    got = _corpus()
    assert list(got) == list(want), "the argv list changed: regenerate the corpus"
    for argv, digest in got.items():
        assert digest == want[argv], f"first differing call: crystalminor {argv}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_corpus(), indent=0, ensure_ascii=False) + "\n")
