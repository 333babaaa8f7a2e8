import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import quandlehom
from quandlehom.constructions import alexander_zn, dihedral
from quandlehom.errors import MissingDataset, ParseError
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
    assert rep["schema"] == 1
    assert rep["results"] == {
        "is_rack": True, "is_quandle": True, "is_connected": True,
        "is_medial": True, "is_faithful": True, "type": 2,
        "inn_order": 6, "inn_exponent": 6,
    }
    assert list(rep["inputs"].values())[0].isalnum()


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
