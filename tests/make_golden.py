"""Write tests/golden/cli.json: the CLI's answers on a fixed set of tables and
invocations, and the rows of enumerate_connected(1..6) in order.

Run from the repository root:

    PYTHONPATH=src python tests/make_golden.py

Every invocation runs in-process through ``shell.cli`` in a temporary working
directory that holds the input files under bare names, so the ``command`` and
``inputs`` fields of the reports do not depend on where it runs.  Each case
records stdout with the ``wall_clock_s`` value masked, stderr, and the exit
code.  test_golden.py replays the file and compares byte for byte.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

from quandlehom import shell
from quandlehom.constructions import (alexander_poly, alexander_zn, dihedral,
                                      enumerate_connected)

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"

_S3 = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))


def _matrix(rows) -> str:
    """The 1-based matrix file of 0-based rows."""
    return "".join([f"{len(rows)}\n",
                    *(" ".join(str(v + 1) for v in row) + "\n"
                      for row in rows)])


def input_files() -> dict[str, str]:
    d3, z52 = dihedral(3), alexander_zn(5, 2)
    gf8 = alexander_poly(2, (1, 1, 0, 1), (0, 1))
    s3 = [[_S3.index(tuple(p[q[i]] for i in range(3))) for q in _S3]
          for p in _S3]
    return {
        "d3.txt": shell.emit(d3),
        "z5_2.txt": shell.emit(z52),
        "gf8.txt": shell.emit(gf8),
        "rack3.txt": "3\n2 2 2\n3 3 3\n1 1 1\n",
        "notrack.txt": "2\n1 1\n1 2\n",
        "s3.txt": _matrix(s3),
        "z4.txt": _matrix([[(a + b) % 4 for b in range(4)] for a in range(4)]),
        "zero3.txt": "0 0 0\n0 0 0\n0 0 0\n",
        "one3.txt": "1 1 1\n1 1 1\n1 1 1\n",
        "data/Q_3_1.txt": shell.emit(d3),
        "data/Q_5_2.txt": shell.emit(z52),
        "data/Q_8_1.txt": shell.emit(gf8),
    }


# a word each table satisfies, for cycle, subcomplex and identity homology
_WORDS = {"d3.txt": "aa", "z5_2.txt": "aaaa", "gf8.txt": "aaaaaaa",
          "rack3.txt": "aaa"}


def invocations() -> list[list[str]]:
    base: list[list[str]] = []
    for t, w in _WORDS.items():
        base += [
            ["validate", t], ["validate", t, "--mode", "rack"],
            ["validate", t, "--convention", "left"],
            ["info", t],
            ["scan", t, "--word", "abab", "--word", "aabb",
             "--word", "abcabc"],
            ["cycle", t, "--word", w, "--x", "1", "--ys", "2"],
            ["subcomplex", t, "--kind", "degenerate", "--degree", "2"],
            ["subcomplex", t, "--word", w, "--degree", "3"],
            ["homology", t, "--degree", "2"],
            ["homology", t, "--complex", "quandle", "--degree", "2"],
            ["homology", t, "--complex", "degenerate", "--degree", "2"],
            ["homology", t, "--complex", "identity", "--word", w,
             "--degree", "2"],
            ["cocycles", t, "--mod", "2", "--mode", "rack"],
            ["cocycles", t, "--mod", "3"],
        ]
    base += [
        ["scan", "--dataset", "data", "d3.txt", "--word", "abab"],
        ["extend", "d3.txt", "--mod", "3", "--cocycle", "zero3.txt"],
        ["extend", "rack3.txt", "--mod", "3", "--cocycle", "one3.txt"],
        ["extend", "d3.txt", "--mod", "3", "--cocycle", "one3.txt",
         "--out", "ext.txt"],
        ["gen", "trivial", "2"], ["gen", "dihedral", "3"],
        ["gen", "alexander_zn", "5", "2"],
        ["gen", "alexander_poly", "2", "1,1,0,1"],
        ["gen", "alexander_poly", "2", "1,1,1", "0,1"],
        ["gen", "alexander_poly", "2", "1,0,1"],    # reducible: one warning
        ["gen", "burnside", "1", "2", "3"],
        ["gen", "conjugation", "s3.txt"],
        ["gen", "gen_alexander", "z4.txt", "0,3,2,1"],
        ["gen", "dihedral", "5", "--out", "d5.txt"],
        ["reproduce", "builtin"], ["reproduce", "length7"],
        ["reproduce", "types", "--dataset", "data"],
        ["reproduce", "all", "--dataset", "data", "--convention", "right"],
        # usage errors and failed checks
        ["homology", "d3.txt", "--degree", "0"],
        ["reproduce", "types"],
        ["nope"],
        ["validate", "notrack.txt"],
        ["validate", "notrack.txt", "--mode", "rack"],
        ["cocycles", "d3.txt", "--mod", "1"],
        ["scan", "d3.txt", "--word", "aB"],
        ["scan", "--word", "ab"],
        ["info", "missing.txt"],
        ["cycle", "d3.txt", "--word", "aa", "--x", "9", "--ys", "1"],
        ["cycle", "d3.txt", "--word", "ab", "--x", "1", "--ys", "1,2"],
        ["gen", "dihedral"],
        ["extend", "d3.txt", "--mod", "1", "--cocycle", "zero3.txt"],
    ]
    return [argv + extra for argv in base for extra in ([], ["--json"])]


_CLOCK = re.compile(r'("wall_clock_s": )[-+.0-9e]+')


def run(argv: list[str]) -> dict:
    """One in-process CLI run in the current directory, at a fixed terminal
    width so that argparse wraps its usage lines the same way everywhere."""
    out, err = io.StringIO(), io.StringIO()
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = shell.cli(argv)
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return {"argv": argv, "stdout": _CLOCK.sub(r"\g<1>0", out.getvalue()),
            "stderr": err.getvalue(), "code": code}


def write_files(directory: Path, files: dict[str, str]):
    for name, text in files.items():
        path = directory / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def connected_rows() -> dict[str, list]:
    return {str(n): [[list(row) for row in X.rows]
                     for X in enumerate_connected(n)] for n in range(1, 7)}


def main():
    files = input_files()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        write_files(Path(tmp), files)
        os.chdir(tmp)
        try:
            cases = [run(argv) for argv in invocations()]
        finally:
            os.chdir(cwd)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(
        {"files": files, "cases": cases,
         "enumerate_connected": connected_rows()},
        indent=1, sort_keys=True) + "\n")
    print(f"{GOLDEN}: {len(cases)} cases", file=sys.stderr)


if __name__ == "__main__":
    main()
