import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import quandlehom
from quandlehom import chains
from quandlehom.chains import digits
from quandlehom.constructions import alexander_zn, dihedral
from quandlehom.errors import MissingDataset, ParseError
from quandlehom import shell
from quandlehom.linalg import IntLattice
from quandlehom.shell import (cli, corpus, emit, load, load_dataset, loads,
                              run_reproduce, save)

DIH3_TEXT = "3\n1 3 2\n3 2 1\n2 1 3\n"


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli(argv)
    return code, buf.getvalue()


def test_loads_dihedral():
    X = loads(DIH3_TEXT)
    assert X.rows == dihedral(3).rows


def test_loads_left_convention():
    Xl = loads(DIH3_TEXT, convention="left")
    assert Xl.rows == tuple(zip(*loads(DIH3_TEXT).rows))


def test_parse_errors():
    with pytest.raises(ParseError):
        loads("")
    with pytest.raises(ParseError):
        loads("3\n1 3\n3 2 1\n2 1 3\n")          # short row
    with pytest.raises(ParseError):
        loads("3\n1 3 2\n3 2 1\n2 1 9\n")        # out of 1..n
    with pytest.raises(ParseError):
        loads("x\n1\n")


@pytest.mark.parametrize("text, message, line, column", [
    ("3\n1 3 2\n3 2 1\n2 1 9\n", "entry 9 outside 1..3", 4, 3),
    ("3\n1 3 2\n3 x 1\n2 1 9\n", "bad entry 'x'", 3, 2),
    ("3\n1 3 2\n3 0 1\n2 x 3\n", "entry 0 outside 1..3", 3, 2),
    ("2\n1 1\n2 -1\n", "entry -1 outside 1..2", 3, 2),
])
def test_parse_errors_name_the_first_bad_entry(text, message, line, column):
    with pytest.raises(ParseError) as exc:
        loads(text)
    assert str(exc.value).startswith(message)
    assert (exc.value.line, exc.value.column) == (line, column)


def test_round_trip(tmp_path):
    X = alexander_zn(5, 3)
    path = tmp_path / "a53.txt"
    save(X, path)
    again = load(path)
    assert again == X
    assert emit(again) == path.read_text()


def test_load_validates(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2\n1 1\n1 2\n")             # column 0 repeats 1
    from quandlehom.errors import ValidationError
    with pytest.raises(ValidationError):
        load(path)


def test_load_dataset(tmp_path):
    d = tmp_path / "data"
    d.mkdir()
    (d / "Q_3_1.txt").write_text(emit(dihedral(3)))
    (d / "Q_5_2.txt").write_text(emit(alexander_zn(5, 2)))
    entries = load_dataset(d, convention="right")
    assert [e.ident for e in entries] == [(3, 1), (5, 2)]
    assert entries[0].table == dihedral(3)
    with pytest.raises(MissingDataset):
        load_dataset(tmp_path / "nope")


def test_corpus_members_valid():
    for name, X in corpus():
        assert X.is_quandle, name
    names = [name for name, _ in corpus()]
    assert len(names) == len(set(names)) == 11


def test_cli_validate(tmp_path):
    path = tmp_path / "d3.txt"
    path.write_text(DIH3_TEXT)
    code, out = run_cli(["validate", str(path)])
    assert code == 0 and "is_quandle: true" in out
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n1 1\n1 2\n")
    code, out = run_cli(["validate", str(bad)])
    assert code == 1


def test_cli_info_json(tmp_path):
    path = tmp_path / "d3.txt"
    path.write_text(DIH3_TEXT)
    code, out = run_cli(["info", str(path), "--json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["schema"] == 2
    assert rep["results"] == {
        "is_rack": True, "is_quandle": True, "is_connected": True,
        "is_medial": True, "is_faithful": True, "type": 2,
        "inn_order": 6, "inn_exponent": 6,
    }
    assert list(rep["inputs"].values())[0].isalnum()
    assert "seed" not in rep
    assert run_cli(["info", str(path), "--seed", "1"]) == (2, "")


def test_cli_json_deterministic(tmp_path):
    path = tmp_path / "d3.txt"
    path.write_text(DIH3_TEXT)
    _, out1 = run_cli(["info", str(path), "--json"])
    time.sleep(0.01)
    _, out2 = run_cli(["info", str(path), "--json"])
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("wall_clock_s")
    r2.pop("wall_clock_s")
    assert r1 == r2


def test_cli_parser_is_reused_across_calls(tmp_path):
    """One parser serves every call of a process: a usage error and --help
    in between leave the next report byte-identical to the first."""
    path = tmp_path / "d3.txt"
    path.write_text(DIH3_TEXT)

    def without_clock(out):
        return re.sub(r'\n  "wall_clock_s": [^\n]*', "", out)

    code, first = run_cli(["info", str(path), "--json"])
    assert code == 0 and '"wall_clock_s"' in first
    assert run_cli(["info"])[0] == 2
    code, text = run_cli(["--help"])
    assert code == 0 and "usage:" in text
    code, last = run_cli(["info", str(path), "--json"])
    assert code == 0 and without_clock(last) == without_clock(first)
    assert shell._build_parser() is shell._build_parser()


def test_cli_gen_round_trip(tmp_path):
    out_file = tmp_path / "gen.txt"
    code, _ = run_cli(["gen", "alexander_zn", "5", "2", "--out", str(out_file)])
    assert code == 0
    assert load(out_file) == alexander_zn(5, 2)
    code, text = run_cli(["gen", "dihedral", "3"])
    assert code == 0 and text == DIH3_TEXT


def test_cli_scan(tmp_path):
    p1 = tmp_path / "d3.txt"
    p1.write_text(DIH3_TEXT)
    p2 = tmp_path / "a52.txt"
    p2.write_text(emit(alexander_zn(5, 2)))
    code, out = run_cli(["scan", str(p1), str(p2),
                         "--word", "aa", "--word", "abab", "--json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["counts"] == [1, 1]
    assert rep["results"]["satisfied_by"]["abab"] == [str(p2)]


def test_cli_cycle_and_subcomplex_and_homology(tmp_path):
    path = tmp_path / "d3.txt"
    path.write_text(DIH3_TEXT)
    code, out = run_cli(["cycle", str(path), "--word", "aa",
                         "--x", "1", "--ys", "2"])
    assert code == 0 and "(1,2) + (3,2)" in out
    code, out = run_cli(["subcomplex", str(path), "--word", "aa",
                         "--degree", "3", "--json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["boundary_in_lower_span"] is True
    code, out = run_cli(["homology", str(path), "--complex", "quandle",
                         "--degree", "2", "--json"])
    rep = json.loads(out)
    assert code == 0 and rep["results"]["group"] == "0"
    code, out = run_cli(["homology", str(path), "--complex", "rack",
                         "--degree", "1", "--json"])
    rep = json.loads(out)
    assert rep["results"]["group"] == "Z"


def test_cli_cocycles_and_extend(tmp_path):
    path = tmp_path / "d3.txt"
    path.write_text(DIH3_TEXT)
    code, out = run_cli(["cocycles", str(path), "--mod", "3", "--json"])
    rep = json.loads(out)
    assert code == 0 and rep["results"]["size"] == 9
    coc = tmp_path / "phi.txt"
    coc.write_text("0 0 0\n0 0 0\n0 0 0\n")
    ext_out = tmp_path / "ext.txt"
    code, _ = run_cli(["extend", str(path), "--mod", "3",
                       "--cocycle", str(coc), "--out", str(ext_out)])
    assert code == 0
    E = load(ext_out)
    assert E.order == 9 and E.is_quandle


@pytest.mark.parametrize("x, ys, message", [
    ("0", "1", "--x value 0 outside 1..3"),
    ("1", "4", "--ys value 4 outside 1..3")])
def test_cli_cycle_rejects_a_label_out_of_range(tmp_path, x, ys, message):
    """Labels run 1..n: label 0 or n+1 is a usage error (exit 2) with one
    error line naming the option."""
    path = tmp_path / "d3.txt"
    path.write_text(DIH3_TEXT)
    proc = _module_cli(["cycle", str(path), "--word", "aa", "--x", x,
                        "--ys", ys], stdout=subprocess.PIPE)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert out == b""
    assert err.decode() == f"error: {message}\n"


def test_cli_subcomplex_degenerate_closure_on_a_rack(tmp_path):
    """On the permutation rack x*y = x+1, d(x, x) = (x) - (x+1) is not zero
    while the degeneracy subcomplex has nothing in degree 1: the closure
    check fails (exit 1)."""
    path = tmp_path / "perm3.txt"
    path.write_text("3\n2 2 2\n3 3 3\n1 1 1\n")
    proc = _module_cli(["subcomplex", str(path), "--kind", "degenerate",
                        "--degree", "2", "--json"], stdout=subprocess.PIPE)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 1, err.decode()
    assert json.loads(out)["results"]["boundary_in_lower_span"] is False


def test_cli_subcomplex_of_an_unsatisfied_word_is_asked_per_degree(tmp_path):
    """R3 fails ab, so it has no ab identity complex, but subcomplex asks
    closure at one degree of any word: the ab span closes at degree 3
    (exit 0) and not at degree 2 (exit 1)."""
    path = tmp_path / "d3.txt"
    path.write_text(DIH3_TEXT)
    for degree, closed in ((3, True), (2, False)):
        code, out = run_cli(["subcomplex", str(path), "--word", "ab",
                             "--degree", str(degree), "--json"])
        res = json.loads(out)["results"]
        assert (code, res["boundary_in_lower_span"]) == (1 - closed, closed)


def test_homology_and_subcomplex_build_no_bases(tmp_path, monkeypatch):
    """Homology, identity included, and the subcomplex command of both
    kinds read each boundary's rows and column count alone: with the
    echelon chains of every span and the tuple bases made to raise, each
    answers as before."""
    d3, perm = tmp_path / "d3.txt", tmp_path / "perm3.txt"
    d3.write_text(DIH3_TEXT)
    perm.write_text("3\n2 2 2\n3 3 3\n1 1 1\n")
    argvs = [["homology", str(d3), "--complex", "identity", "--word", "aa",
              "--degree", degree] for degree in ("2", "3")]
    argvs += [["homology", str(d3), "--complex", "quandle", "--degree", "2"],
              ["subcomplex", str(d3), "--word", "aa", "--degree", "3"],
              ["subcomplex", str(d3), "--kind", "degenerate", "--degree", "3"],
              ["subcomplex", str(perm), "--kind", "degenerate",
               "--degree", "2"]]
    want = [run_cli(argv) for argv in argvs]
    assert [code for code, _ in want] == [0, 0, 0, 0, 0, 1]

    def refuse(*args):
        raise AssertionError("a basis was built")

    chains._generators.cache_clear()
    monkeypatch.setattr(chains.GeneratorSet, "basis", property(refuse))
    monkeypatch.setattr(sys.modules["quandlehom.homology"], "_tuple_basis",
                        refuse)
    assert [run_cli(argv) for argv in argvs] == want


def test_identity_homology_of_an_unsatisfied_word_fails_its_check(tmp_path):
    """As the cycle command does: one error line naming the identity, exit
    1."""
    path = tmp_path / "d3.txt"
    path.write_text(DIH3_TEXT)
    proc = _module_cli(["homology", str(path), "--complex", "identity",
                        "--word", "abab", "--degree", "1"],
                       stdout=subprocess.PIPE)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert out == b""
    assert err.decode() == \
        "error: table does not satisfy the identity xabab = x\n"


@pytest.mark.parametrize("args, code, message", [
    (["gen", "dihedral"], 2, "gen dihedral needs 1 parameter, got 0"),
    (["gen", "alexander_zn", "5"], 2,
     "gen alexander_zn needs 2 parameters, got 1"),
    (["gen", "burnside", "1", "2"], 2,
     "gen burnside needs 3 parameters, got 2"),
    (["extend", "{table}", "--mod", "0", "--cocycle", "{cocycle}"], 2,
     "modulus must be >= 2"),
    (["extend", "{table}", "--mod", "1", "--cocycle", "missing.txt"], 2,
     "modulus must be >= 2"),
    (["subcomplex", "{table}", "--word", "aa", "--degree", "1"], 2,
     "subcomplex generators need degree >= 2"),
    (["subcomplex", "{table}", "--kind", "degenerate", "--degree", "1"], 2,
     "subcomplex generators need degree >= 2"),
    (["subcomplex", "{table}", "--word", "aa", "--degree", "12"], 1,
     "11 * 3^12 = 5845851 generator rows exceed the guard 200000"),
    (["subcomplex", "{table}", "--kind", "degenerate", "--degree", "12"], 1,
     "3^12 = 531441 generator rows exceed the guard 200000"),
], ids=["dihedral", "alexander_zn", "burnside", "extend-mod-0",
        "extend-mod-1-before-the-cocycle-file", "subcomplex-degree-1",
        "subcomplex-degenerate-degree-1", "subcomplex-guard",
        "subcomplex-degenerate-guard"])
def test_cli_bad_parameters_give_one_error_line(tmp_path, args, code, message):
    """Too few gen parameters, a modulus below 2 and a subcomplex degree
    below 2 are usage errors (exit 2), like homology --degree 0 and
    cocycles --mod 1; the modulus is checked before the cocycle file is
    read.  A subcomplex over the size guard is refused (exit 1), the
    degenerate kind on its n^k tuples."""
    table = tmp_path / "d3.txt"
    table.write_text(DIH3_TEXT)
    cocycle = tmp_path / "phi.txt"
    cocycle.write_text("0 0 0\n0 0 0\n0 0 0\n")
    argv = [a.format(table=table, cocycle=cocycle) for a in args]
    proc = _module_cli(argv, stdout=subprocess.PIPE)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == code
    assert out == b""
    assert err.decode() == f"error: {message}\n"


@pytest.mark.parametrize("kind", [["conjugation"], ["gen_alexander", "0,2,1"]],
                         ids=["conjugation", "gen_alexander"])
@pytest.mark.parametrize("text, message", [
    ("", "empty file (line 1)"),
    ("3\n1 2 3\n2 3\n3 1 2\n",
     "expected 3 entries, found 2 (line 3, column 3)"),
    ("3\n1 2\n2 3 1\n3 1 2\n",
     "expected 3 entries, found 2 (line 2, column 3)"),
    ("3\n1 3\n2 3 2 1\n2 1 3\n",
     "expected 3 entries, found 2 (line 2, column 3)"),
    ("3\n1 2 3\n2 x 1\n3 1 2\n", "bad entry 'x' (line 3, column 2)"),
    ("3\n1 2 3\n2 3 1\n3 1 4\n", "entry 4 outside 1..3 (line 4, column 3)"),
    ("3\n1 2 3\n2 3 1\n3 1 2\n1 2 3\n",
     "expected 3 rows, found 4 (line 5)"),
    ("3 1 2 3\n2 3 1\n3 1 2\n", "expected the order alone on its line "
     "(line 1, column 2)"),
], ids=["empty", "short-row", "short-first-row", "ragged", "non-integer",
        "out-of-range", "trailing-line", "order-line-entries"])
def test_cli_malformed_cayley_file_gives_one_error_line(tmp_path, kind, text,
                                                        message):
    """Cayley files go through the matrix-file parser and its checks: a
    usage error (exit 2) naming the line, and the column where there is one,
    with no traceback."""
    cayley = tmp_path / "g.txt"
    cayley.write_text(text)
    proc = _module_cli(["gen", kind[0], str(cayley), *kind[1:]],
                       stdout=subprocess.PIPE)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert out == b""
    assert err.decode() == f"error: {message}\n"


@pytest.mark.parametrize("text, message", [
    ("0 0\n0 0\n0 0\n", "expected 3 entries, found 2 (line 1, column 3)"),
    ("0 0 0 0\n0 0 0 0\n0 0 0 0\n",
     "expected 3 entries, found 4 (line 1, column 4)"),
    ("0 0 0\n0 0\n0 0 0\n", "expected 3 entries, found 2 (line 2, column 3)"),
    ("0 0 0\n0 x 0\n0 0 0\n", "bad entry 'x' (line 2, column 2)"),
    ("0 0 0\n0 0 0\n", "expected 3 rows, found 2 (line 3)"),
    ("0 0 0\n0 0 0\n0 0 0\n1 1 1\n", "expected 3 rows, found 4 (line 4)"),
], ids=["3x2", "3x4", "ragged", "non-integer", "missing-row", "extra-row"])
def test_cli_malformed_cocycle_file_gives_one_error_line(tmp_path, text,
                                                         message):
    """A cocycle file that is not the table order's rows of integers is a
    usage error (exit 2) naming the line, and the column where there is
    one, with no traceback."""
    table = tmp_path / "d3.txt"
    table.write_text(DIH3_TEXT)
    cocycle = tmp_path / "phi.txt"
    cocycle.write_text(text)
    proc = _module_cli(["extend", str(table), "--mod", "3", "--cocycle",
                        str(cocycle)], stdout=subprocess.PIPE)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert out == b""
    assert err.decode() == f"error: {message}\n"


def test_cli_subcomplex_and_homology_share_one_echelon_per_span(
        tmp_path, monkeypatch):
    """subcomplex --degree 3 and then homology --complex identity --degree 2
    in one process eliminate each identity span (degrees 2 and 3) once."""
    for name, mod in list(sys.modules.items()):
        if name.startswith("quandlehom"):
            for val in vars(mod).values():
                if callable(getattr(val, "cache_clear", None)):
                    val.cache_clear()
    eliminated = []
    finalize = IntLattice._finalize

    def counting(lat):
        if not lat._final:
            eliminated.append(lat.dim)
        finalize(lat)

    monkeypatch.setattr(IntLattice, "_finalize", counting)
    path = tmp_path / "d3.txt"
    path.write_text(DIH3_TEXT)
    code, _ = run_cli(["subcomplex", str(path), "--word", "aa",
                       "--degree", "3", "--json"])
    assert code == 0
    code, _ = run_cli(["homology", str(path), "--complex", "identity",
                       "--word", "aa", "--degree", "2", "--json"])
    assert code == 0
    assert sorted(eliminated) == [3 ** 2, 3 ** 3]


def test_cli_exit_codes(tmp_path):
    bad = tmp_path / "broken.txt"
    bad.write_text("3\n1 2\n")
    code, _ = run_cli(["info", str(bad)])
    assert code == 2                        # parse error
    code, _ = run_cli(["reproduce", "types"])
    assert code == 2                        # census without --dataset
    code, _ = run_cli(["nonsense"])
    assert code == 2                        # usage


def _module_cli(args, module="quandlehom", **popen):
    """Start `python -m <module>` on this checkout's package; runpy warnings
    are errors."""
    env = dict(os.environ)
    src = str(Path(quandlehom.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.Popen([sys.executable, "-W", "error::RuntimeWarning",
                             "-m", module, *args],
                            env=env, stderr=subprocess.PIPE, **popen)


def test_python_m_runs_the_cli_without_warnings(tmp_path):
    save(dihedral(5), tmp_path / "r5.txt")
    proc = _module_cli(["info", str(tmp_path / "r5.txt"), "--json"],
                       stdout=subprocess.PIPE)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0
    assert err == b""
    assert json.loads(out)["results"]["inn_order"] == 10


def test_python_m_shell_runs_without_the_runpy_warning():
    """The package resolves the shell's names lazily, so running the shell
    module as a script finds it not yet imported."""
    proc = _module_cli(["--help"], module="quandlehom.shell",
                       stdout=subprocess.DEVNULL)
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err.decode()
    assert err == b""


@pytest.mark.parametrize("read_first", [0, 10])
def test_cli_reader_closing_the_pipe_is_not_an_error(tmp_path, read_first):
    """`quandlehom info T --json | head -c N`: no error line, exit 0."""
    save(dihedral(5), tmp_path / "r5.txt")
    with _module_cli(["info", str(tmp_path / "r5.txt"), "--json"],
                     stdout=subprocess.PIPE) as proc:
        proc.stdout.read(read_first)
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
    assert err == b""


def test_reproduce_all_without_dataset_skips():
    code, sections = run_reproduce("all", dataset=None)
    assert code == 0
    by_name = {s["name"]: s["status"] for s in sections}
    assert by_name["type_census"] == "skipped"
    assert by_name["exponent_census"] == "skipped"
    assert by_name["length4_scan"] == "skipped"
    assert by_name["length7_scan"] == "pass"
    assert by_name["identity_cycles"] == "pass"
    assert by_name["extension_identity"] == "pass"
    assert by_name["subcomplex_closure"] == "pass"


def test_reproduce_boundary_checks_catch_a_flipped_twisted_face(monkeypatch):
    """d(d(chain)) = 0 survives a flipped twisted-face sign; the idempotency
    cycles (x, x) of the corpus quandles, 51 in all, do not."""
    sec = shell.reproduce_boundary_checks()
    assert sec["status"] == "pass"
    assert sec["details"]["idempotency_cycles_checked"] == 51
    face_indices = chains.face_indices

    def flipped(X, idx, degree):
        faces, signs = face_indices(X, idx, degree)
        signs = signs.copy()
        signs[:, 1] *= -1
        return faces, signs

    monkeypatch.setattr(chains, "face_indices", flipped)
    sec = shell.reproduce_boundary_checks()
    assert sec["status"] == "fail"
    assert {kind for _, kind in sec["details"]["failures"]} == {"xx"}


def test_reproduce_boundary_checks_take_every_tuple(monkeypatch):
    """A fault on one class of tuples: the h = 2 twisted sign flipped on
    tuples of equal entries, on tables of order 5 and more.  Every tuple
    goes through both boundaries, so each (table, degree) pair of such a
    table fails beside its d(x, x), each failure is listed once, and two
    runs report the same details."""
    sec = shell.reproduce_boundary_checks()
    assert sec["details"] == {"tuples_checked": 3923, "failures": [],
                              "idempotency_cycles_checked": 51}
    face_indices = chains.face_indices

    def flipped(X, idx, degree):
        faces, signs = face_indices(X, idx, degree)
        if X.order < 5:
            return faces, signs
        signs = np.broadcast_to(signs, faces.shape).copy()
        tups = digits(np.asarray(idx), X.order, degree)
        signs[0, 1, (tups == tups[..., :1]).all(axis=-1)] *= -1
        return faces, signs

    monkeypatch.setattr(chains, "face_indices", flipped)
    first, second = (shell.reproduce_boundary_checks() for _ in range(2))
    failures = first["details"]["failures"]
    assert first["status"] == "fail"
    assert [name for name, kind in failures if kind == "xx"] == [
        name for name, X in corpus() if X.order >= 5]
    assert [f for f in failures if f[1] != "xx"] == [
        ("alexander_zn(5,2)", 3), ("alexander_zn(5,2)", 4),
        ("alexander_zn(5,3)", 3), ("alexander_zn(5,3)", 4),
        ("alexander_poly(2,t^3+t^2+1,t)", 3),
        ("alexander_poly(2,t^3+t+1,t)", 3), ("burnside(2,2,3)", 3)]
    assert first["details"] == second["details"]


def test_reproduce_census_on_synthetic_dataset(tmp_path):
    # a tiny synthetic catalogue exercises the machinery (counts differ from
    # the published ones, so the section must fail without crashing)
    d = tmp_path / "mini"
    d.mkdir()
    (d / "Q_3_1.txt").write_text(emit(dihedral(3)))
    (d / "Q_5_2.txt").write_text(emit(alexander_zn(5, 2)))
    code, sections = run_reproduce("types", dataset=str(d),
                                   convention="right")
    assert code == 1
    sec = sections[0]
    assert sec["status"] == "fail"
    assert sec["details"]["counts"] == [[2, 1], [4, 1]]


def test_census_word_lists_partition_the_survivors():
    from quandlehom import censusdata
    from quandlehom.identities import (consecutive_type_bound, enumerate_words,
                                       forces_triviality)
    survivors = {w.text for w in enumerate_words(6, 2)
                 if not forces_triviality(w)
                 and consecutive_type_bound(w) is None}
    frozen = set(censusdata.LENGTH6_OPEN_WORDS) | \
        set(censusdata.LENGTH6_TRIPLE) | {censusdata.LENGTH6_REPEAT_WORD}
    assert survivors == frozen and len(survivors) == 16
    fives = {w.text for w in enumerate_words(5, 2,
                                             filter="nontrivial_candidates")}
    assert fives == set(censusdata.LENGTH5_OPEN_WORDS)
    sevens = {w.text for w in enumerate_words(7, 2,
                                              filter="nontrivial_candidates")}
    assert set(censusdata.LENGTH7_FAMILY_A) <= sevens
    assert set(censusdata.LENGTH7_FAMILY_B) <= sevens
    assert len(sevens) == censusdata.LENGTH7_SURVIVOR_COUNT


def test_reproduce_scan_paths_on_synthetic_dataset(tmp_path):
    # tiny catalogue: the machinery must run end to end without raising even
    # though the counts cannot match the published ones
    from quandlehom.shell import (reproduce_exponents, reproduce_length4,
                                  reproduce_length5, reproduce_length6,
                                  reproduce_length7_dataset)
    d = tmp_path / "mini"
    d.mkdir()
    (d / "Q_3_1.txt").write_text(emit(dihedral(3)))
    (d / "Q_5_2.txt").write_text(emit(alexander_zn(5, 2)))
    (d / "Q_5_3.txt").write_text(emit(alexander_zn(5, 3)))
    entries = load_dataset(d, convention="right")
    for fn in (reproduce_exponents, reproduce_length4, reproduce_length5,
               reproduce_length6, reproduce_length7_dataset):
        section = fn(entries)
        assert section["status"] in ("pass", "fail")
    sec = reproduce_length5(entries)
    assert sec["status"] == "pass"            # no member satisfies the 5 words
    sec = reproduce_length4(entries)
    assert sec["status"] == "fail"            # only 2 of the 20 satisfiers
    assert sec["details"]["satisfier_count"] == 2
    assert sec["details"]["keis_among"] == []


def test_dataset_left_convention_round_trip(tmp_path):
    # a catalogue-style (left-distributive) file: transpose on load restores
    # the right-distributive table
    d = tmp_path / "cat"
    d.mkdir()
    X = alexander_zn(5, 2)
    transposed_rows = tuple(zip(*X.rows))
    text = "5\n" + "\n".join(" ".join(str(v + 1) for v in row)
                             for row in transposed_rows) + "\n"
    (d / "Q_5_2.txt").write_text(text)
    entries = load_dataset(d, convention="left")
    assert entries[0].table == X


def test_cli_scan_dataset_flag(tmp_path):
    d = tmp_path / "mini"
    d.mkdir()
    (d / "Q_3_1.txt").write_text(emit(dihedral(3)))
    (d / "Q_5_2.txt").write_text(emit(alexander_zn(5, 2)))
    code, out = run_cli(["scan", "--dataset", str(d), "--convention", "right",
                         "--word", "abab", "--json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["counts"] == [1]
    assert rep["results"]["satisfied_by"]["abab"] == ["Q_5_2.txt"]


def test_cli_scan_dataset_digests_every_file(tmp_path):
    """scan --dataset records the digest of every dataset file, as
    reproduce --dataset does, besides those of the table files."""
    d = tmp_path / "mini"
    d.mkdir()
    (d / "Q_3_1.txt").write_text(emit(dihedral(3)))
    (d / "Q_5_2.txt").write_text(emit(alexander_zn(5, 2)))
    table = tmp_path / "d3.txt"
    table.write_text(DIH3_TEXT)
    files = [d / "Q_3_1.txt", d / "Q_5_2.txt", table]
    want = {str(f): hashlib.sha256(f.read_bytes()).hexdigest() for f in files}
    code, out = run_cli(["scan", "--dataset", str(d), str(table),
                         "--word", "abab", "--json"])
    assert code == 0
    assert json.loads(out)["inputs"] == want
    code, out = run_cli(["reproduce", "types", "--dataset", str(d), "--json"])
    assert json.loads(out)["inputs"] == {str(f): want[str(f)]
                                         for f in files[:2]}
