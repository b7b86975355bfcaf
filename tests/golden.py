"""A golden transcript of the command line on the bundled corpus.

``tests/golden/cli.txt`` holds one record per invocation of ``cli.main``:
a ``$ polylogic ...`` line with the argv (paths relative to the
repository), an ``[exit N]`` line, the standard output, and, when there
is any, an ``[stderr]`` line followed by the standard error.
``tests/test_golden.py`` compares a fresh run with the file, and

    python tests/golden.py --write

rewrites it.
"""

from __future__ import annotations

import difflib
import io
import os
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "cli.txt"
if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))

from polylogic.cli import main  # noqa: E402
from polylogic.formula import bd, pretty  # noqa: E402

FRAME_FORMULAS = ["p | ~p", "(p -> q) | (q -> p)"]
FORMULAS = ["p & q -> r", "~(p | q) -> ~p & ~q", "((p -> q) -> p) -> p", "p -> q -> r",
            "~~p | true & false", "p & & q"]
SUITES = ["esakia", "nerve", "dimbd", "ji", "hneg"]


def invocations() -> list[list[str]]:
    corpus = sorted(os.listdir(ROOT / "corpus"))
    posets = [f"corpus/{f}" for f in corpus if not f.endswith(".complex.json")]
    complexes = [f"corpus/{f}" for f in corpus if f.endswith(".complex.json")]
    out = []
    for action in ("parse", "print"):
        out += [["formula", action, f] for f in FORMULAS]
    for p in posets:
        out += [["poset", "depth", p], ["poset", "upsets", p], ["--json", "poset", "upsets", p],
                ["nerve", "realize", p], ["nerve", "realize", p, "--export", "off"]]
        out += [["--json", "frame", "check", f, p] for f in FRAME_FORMULAS]
    for k in complexes:
        for action in ("build", "verify", "dim", "faceposet"):
            out += [["complex", action, k], ["complex", action, k, "--json"]]
    for suite in SUITES:
        out += [["suite", suite], ["suite", suite, "--json"]]
    out += [["counter", pretty(bd(d - 1)), "--polyhedral", "--depth", str(d),
             "--max-size", str(d + 1)] for d in (1, 2, 3)]
    return out


def record(argv: list[str]) -> tuple[str, str]:
    """The header line and the body of argv's record, run from the repository root."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    body = f"[exit {code}]\n" + out.getvalue()
    if err.getvalue():
        body += "[stderr]\n" + err.getvalue()
    return "$ polylogic " + shlex.join(argv), body


def transcript() -> list[tuple[str, str]]:
    return [record(argv) for argv in invocations()]


def read(path: Path = GOLDEN) -> list[tuple[str, str]]:
    """The (header, body) records of a transcript file."""
    records = []
    for line in path.read_text().splitlines(keepends=True):
        if line.startswith("$ polylogic "):
            records.append([line.rstrip("\n"), ""])
        else:
            records[-1][1] += line
    return [tuple(r) for r in records]


def first_difference(want: list[tuple[str, str]], got: list[tuple[str, str]]) -> str | None:
    """None when the transcripts agree, else the first invocation that differs
    with a unified diff of its record."""
    for i in range(max(len(want), len(got))):
        w = want[i] if i < len(want) else ("(no record)", "")
        g = got[i] if i < len(got) else ("(no record)", "")
        if w != g:
            diff = difflib.unified_diff(
                [w[0] + "\n"] + w[1].splitlines(keepends=True),
                [g[0] + "\n"] + g[1].splitlines(keepends=True),
                "tests/golden/cli.txt", "this tree")
            return f"record {i}: {g[0]}\n" + "".join(diff)
    return None


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/golden.py --write")
    records = transcript()
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("".join(f"{h}\n{b}" for h, b in records))
    print(f"wrote {len(records)} records to {GOLDEN.relative_to(ROOT)}")
