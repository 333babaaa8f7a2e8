"""Matrix-file ingestion, JSON reporting, the command-line interface, and the
census/identity reproduction harness.

File format: first line is the order n, followed by n rows of n integers,
1-based.  convention="left" transposes on load (catalogue matrices are
left-distributive); every load validates the rack axioms.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import sys
import time
import warnings
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import censusdata
from .chains import (DEFAULT_SIZE_GUARD, block_boundary, boundary,
                     format_chain, guard_rows, identity_cycle,
                     identity_cycle_failures, subcomplex_generators)
from .core import (QuandleTable, group_exponent, inner_group, invariants,
                   make_table, quandle_type, validate)
from .errors import (MissingDataset, ParseError, QuandleError,
                     ReducibleModulusAllowed, SubcomplexClosureViolated,
                     WordError)
from .extensions import ExtensionSpec, check_extension_identity, extend
from .homology import (COMPLEXES, CocycleTable, cocycle_orders, cocycle_space,
                       homology)
from .identities import (Assignment, ScanReport, Word, enumerate_words,
                         parse_word, satisfies_all, scan, two_letter_universe)
from . import constructions
from .constructions import (alexander_poly, alexander_zn, burnside_family,
                            dihedral, trivial)

TOOL = "quandlehom"
VERSION = "0.1.0"
SCHEMA = 2

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


# ------------------------------------------------------------------- file io

_ENTRY = re.compile(r"-?\d+")


def _read_rows(lines: list[str], start: int, order: int,
               span: Optional[range] = None) -> list[list[int]]:
    """The integer rows of the nonblank lines of lines[start:], `order`
    entries each, with lines numbered from 1.  ParseError names the line,
    and the column where there is one, of the first fault: a bad entry, an
    entry outside span where one is given, a row of the wrong length, or too
    few or too many rows."""
    rows = [(ln, line.split()) for ln, line
            in enumerate(lines[start:], start=start + 1) if line.strip()]
    vals = []
    for ln, toks in rows:
        row = list(map(int, toks)) if all(map(_ENTRY.fullmatch, toks)) \
            else None
        if row is None or span is not None and (
                min(row) < span.start or max(row) >= span.stop):
            for col, tok in enumerate(toks, start=1):  # the first bad entry
                if not _ENTRY.fullmatch(tok):
                    raise ParseError(f"bad entry {tok!r}", ln, col)
                if span is not None and int(tok) not in span:
                    raise ParseError(f"entry {tok} outside {span.start}.."
                                     f"{span.stop - 1}", ln, col)
        if len(toks) != order:
            raise ParseError(f"expected {order} entries, found {len(toks)}",
                             ln, min(len(toks), order) + 1)
        vals.append(row)
    if len(rows) != order:
        # the first extra row, or the line a missing one would take
        raise ParseError(f"expected {order} rows, found {len(rows)}",
                         rows[order][0] if rows[order:] else len(lines) + 1)
    return vals


def _read_matrix(text: str) -> np.ndarray:
    """The 0-based n x n array of the 1-based matrix format: the order alone
    on the first nonblank line, then n rows of n entries in 1..n.
    ParseError names the line, and the column where there is one, of the
    first fault: no order, more than the order on its line, or a fault of
    _read_rows."""
    lines = text.splitlines()
    first = next((i for i, line in enumerate(lines) if line.strip()), None)
    if first is None:
        raise ParseError("empty file", 1)
    head = lines[first].split()
    if not re.fullmatch(r"\d+", head[0]):
        raise ParseError(f"expected the order, got {head[0]!r}", first + 1)
    n = int(head[0])
    if n < 1:
        raise ParseError("order must be >= 1", first + 1)
    if len(head) > 1:
        raise ParseError("expected the order alone on its line", first + 1, 2)
    return np.array(_read_rows(lines, first + 1, n, range(1, n + 1)),
                    dtype=np.int64) - 1


def _oriented(table: np.ndarray, convention: str) -> np.ndarray:
    if convention not in ("right", "left"):
        raise ValueError("convention must be 'right' or 'left'")
    return table.T if convention == "left" else table


def loads(text: str, convention: str = "right") -> QuandleTable:
    """Parse the 1-based matrix format; left convention transposes."""
    return make_table(_oriented(_read_matrix(text), convention),
                      require="rack")


def load(path: str | Path, convention: str = "right") -> QuandleTable:
    return loads(Path(path).read_text(), convention=convention)


def emit(X: QuandleTable) -> str:
    """Canonical 1-based text form; load(emit(X)) round-trips exactly."""
    return "".join([f"{X.order}\n", *(" ".join(str(v + 1) for v in row)
                                       + "\n" for row in X.rows)])


def save(X: QuandleTable, path: str | Path):
    Path(path).write_text(emit(X))


@dataclass(frozen=True)
class DatasetEntry:
    name: str
    ident: Optional[tuple[int, int]]      # (order, index) parsed from the name
    table: QuandleTable


def load_dataset(directory: str | Path,
                 convention: str = "left") -> list[DatasetEntry]:
    """Load every matrix file in a directory; idents come from the first two
    integers in each filename (e.g. Q_5_2.txt -> (5, 2))."""
    directory = Path(directory)
    if not directory.is_dir():
        raise MissingDataset(f"{directory} is not a directory")
    entries = []
    for path in sorted(directory.iterdir()):
        if not path.is_file():
            continue
        nums = re.findall(r"\d+", path.name)
        ident = (int(nums[0]), int(nums[1])) if len(nums) >= 2 else None
        table = load(path, convention=convention)
        if ident is not None and ident[0] != table.order:
            ident = None
        entries.append(DatasetEntry(name=path.name, ident=ident, table=table))
    if not entries:
        raise MissingDataset(f"no matrix files in {directory}")
    entries.sort(key=lambda e: (e.ident is None, e.ident or (0, 0), e.name))
    return entries


# ----------------------------------------------------------------- built-ins

def corpus() -> list[tuple[str, QuandleTable]]:
    """The built-in table corpus used by the verification suites."""
    return [
        ("trivial(1)", trivial(1)),
        ("trivial(2)", trivial(2)),
        ("trivial(3)", trivial(3)),
        ("dihedral(3)", dihedral(3)),
        ("alexander_zn(5,2)", alexander_zn(5, 2)),
        ("alexander_zn(5,3)", alexander_zn(5, 3)),
        ("alexander_poly(2,t^2+t+1,t)", alexander_poly(2, (1, 1, 1), (0, 1))),
        ("alexander_poly(2,t^3+t^2+1,t)", alexander_poly(2, (1, 0, 1, 1), (0, 1))),
        ("alexander_poly(2,t^3+t+1,t)", alexander_poly(2, (1, 1, 0, 1), (0, 1))),
        ("burnside(1,2,3)", burnside_family(1, 2, 3)),
        ("burnside(2,2,3)", burnside_family(2, 2, 3)),
    ]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _dataset_digests(directory: Optional[str]) -> dict:
    """The digest of every file in a --dataset directory, by path."""
    return {str(p): _sha256(p) for p in sorted(Path(directory).iterdir())
            if p.is_file()} if directory else {}


# ------------------------------------------------------------------ sections

def _section(name: str, status: str, **details) -> dict:
    return {"name": name, "status": status, "details": details}


def reproduce_types(entries: Sequence[DatasetEntry]) -> dict:
    got = tuple(sorted(Counter(quandle_type(e.table)
                               for e in entries).items()))
    ok = got == censusdata.TYPE_CENSUS and len(entries) == censusdata.CATALOGUE_SIZE
    return _section("type_census", "pass" if ok else "fail",
                    counts=[list(p) for p in got],
                    expected=[list(p) for p in censusdata.TYPE_CENSUS],
                    size=len(entries))


def reproduce_exponents(entries: Sequence[DatasetEntry]) -> dict:
    got = tuple(sorted(Counter(group_exponent(inner_group(e.table))
                               for e in entries).items()))
    ok = got == censusdata.EXPONENT_CENSUS
    return _section("exponent_census", "pass" if ok else "fail",
                    counts=[list(p) for p in got],
                    expected=[list(p) for p in censusdata.EXPONENT_CENSUS])


def _scan_entries(entries: Sequence[DatasetEntry],
                  words: Sequence[Word]) -> ScanReport:
    """One satisfaction kernel call per catalogue table for a word list."""
    return scan([e.table for e in entries], words,
                names=[e.name for e in entries])


def reproduce_length4(entries: Sequence[DatasetEntry]) -> dict:
    rep = _scan_entries(entries, [parse_word("abab")])
    hits = [e for e, row in zip(entries, rep.matrix) if row[0]]
    idents = {e.ident for e in hits if e.ident}
    keis = [e.name for e in hits if quandle_type(e.table) == 2]
    ok = (len(hits) == len(censusdata.ABAB_SATISFIERS)
          and idents == set(censusdata.ABAB_SATISFIERS)
          and not keis)
    return _section("length4_scan", "pass" if ok else "fail",
                    satisfier_count=len(hits),
                    satisfiers=sorted(str(i) for i in idents),
                    keis_among=keis)


def reproduce_length5(entries: Sequence[DatasetEntry]) -> dict:
    words = [parse_word(t) for t in censusdata.LENGTH5_OPEN_WORDS]
    expected = set(enumerate_words(5, 2, filter="nontrivial_candidates"))
    rep = _scan_entries(entries, words)
    counts = {w.text: c for w, c in zip(words, rep.counts)}
    ok = (set(words) == expected and all(c == 0 for c in counts.values()))
    return _section("length5_scan", "pass" if ok else "fail", counts=counts)


def reproduce_length6(entries: Sequence[DatasetEntry]) -> dict:
    details: dict = {}
    ok = True
    triple = censusdata.LENGTH6_TRIPLE
    texts = [*triple, censusdata.LENGTH6_REPEAT_WORD,
             *censusdata.LENGTH6_OPEN_WORDS]
    rep = _scan_entries(entries, [parse_word(t) for t in texts])
    triple_sets = [frozenset(rep.satisfied_by(j)) for j in range(len(triple))]
    same = triple_sets[0] == triple_sets[1] == triple_sets[2]
    kei_names = {e.name for e in entries if quandle_type(e.table) == 2}
    details["triple_count"] = len(triple_sets[0])
    details["triple_same_sets"] = same
    details["triple_keis"] = len(triple_sets[0] & kei_names)
    ok &= same and len(triple_sets[0]) == censusdata.LENGTH6_TRIPLE_COUNT
    ok &= details["triple_keis"] == censusdata.LENGTH6_TRIPLE_KEI_COUNT
    rep_hits = [e for e, row in zip(entries, rep.matrix) if row[len(triple)]]
    details["repeat_count"] = len(rep_hits)
    details["repeat_keis"] = sum(
        1 for e in rep_hits if quandle_type(e.table) == 2)
    ok &= details["repeat_count"] == censusdata.LENGTH6_REPEAT_COUNT
    ok &= details["repeat_keis"] == censusdata.LENGTH6_REPEAT_KEI_COUNT
    open_counts = dict(zip(censusdata.LENGTH6_OPEN_WORDS,
                           rep.counts[len(triple) + 1:]))
    details["open_counts"] = open_counts
    ok &= all(c == 0 for c in open_counts.values())
    return _section("length6_scan", "pass" if ok else "fail", **details)


def length7_candidates() -> list[Word]:
    """Two-letter length-7 words surviving the single-occurrence and
    consecutive-run exclusions."""
    return enumerate_words(7, 2, filter="nontrivial_candidates")


def reproduce_length7() -> dict:
    """Built-in check: each order-8 affine quandle over GF(8) satisfies
    exactly one known 7-word family among the surviving candidates."""
    cands = length7_candidates()
    ok = len(cands) == censusdata.LENGTH7_SURVIVOR_COUNT
    details: dict = {"candidates": len(cands)}
    for modulus, family in censusdata.LENGTH7_BY_MODULUS.items():
        X = alexander_poly(2, modulus, (0, 1))
        sat = sorted(w.text for w, rep in zip(cands, satisfies_all(X, cands))
                     if rep.satisfied)
        key = "t:" + ",".join(map(str, modulus))
        details[key] = sat
        ok &= sat == sorted(family)
    return _section("length7_scan", "pass" if ok else "fail", **details)


def reproduce_length7_dataset(entries: Sequence[DatasetEntry]) -> dict:
    """Dataset side: exactly two catalogue quandles (both of order 8) satisfy
    surviving length-7 words, one full family each."""
    cands = length7_candidates()
    per_entry: dict[str, list[str]] = {}
    for e in entries:
        sat = [w.text for w, rep in zip(cands, satisfies_all(e.table, cands))
               if rep.satisfied]
        if sat:
            per_entry[e.name] = sorted(sat)
    families = {tuple(sorted(censusdata.LENGTH7_FAMILY_A)),
                tuple(sorted(censusdata.LENGTH7_FAMILY_B))}
    got = {tuple(v) for v in per_entry.values()}
    ok = len(per_entry) == 2 and got == families and all(
        e.table.order == 8 for e in entries if e.name in per_entry)
    return _section("length7_dataset_scan", "pass" if ok else "fail",
                    satisfiers=per_entry)


def reproduce_cycle_checks(max_len: int = 7) -> dict:
    """Every satisfied candidate word on every corpus table yields two-cycles
    for all assignments.  ``identity_cycle_failures`` forms the faces (a) and
    (a*b) of every term (a, b) for a block of assignments at once and checks
    per assignment that they cancel."""
    checked = 0
    failures = []
    words = two_letter_universe(max_len)
    for name, X in corpus():
        for w, rep in zip(words, satisfies_all(X, words)):
            if not rep.satisfied:
                continue
            failures.extend((name, w.text, a.x, a.ys)
                            for a in identity_cycle_failures(X, w))
            checked += X.order ** (w.letters + 1)
    return _section("identity_cycles", "pass" if not failures else "fail",
                    cycles_checked=checked, failures=failures[:5])


def reproduce_extension_checks() -> dict:
    """Equivalence between extension satisfaction and cocycle vanishing over
    the full quandle cocycle space of dihedral(3) mod 3."""
    X = dihedral(3)
    space = cocycle_space(X, 3, mode="quandle")
    w = parse_word("aa")
    reps = [check_extension_identity(ExtensionSpec(X, 3, member), w)
            for member in space.members()]
    disagreements = sum(not rep.agree for rep in reps)
    nonvanishing = sum(not rep.cocycle_vanishes for rep in reps)
    status = "pass" if disagreements == 0 else "fail"
    return _section("extension_identity", status,
                    space_size=space.size, disagreements=disagreements,
                    members_with_nonzero_value=nonvanishing,
                    identity_preserving_space=(nonvanishing == 0))


def reproduce_boundary_checks() -> dict:
    """d(d(t)) = 0 for every tuple t of every corpus table at degree 3, and
    at degree 4 where the order is at most 5: one block per table and degree
    holds each tuple as a chain of its own, coefficient 1, and is taken
    through both boundaries as arrays.  And d(x, x) = 0 on every corpus
    quandle, which a flipped twisted face sign would break while keeping
    d(d(t)) = 0."""
    failures = []
    checked = idempotent = 0
    for name, X in corpus():
        n = X.order
        if X.is_quandle:
            xs = np.arange(n)
            nonzero, _, _ = block_boundary(X, xs, xs * (n + 1),
                                           np.ones(n, dtype=np.int64), 2)
            if len(nonzero):
                failures.append((name, "xx"))
            idempotent += n
        for degree in (3, 4) if n <= 5 else (3,):
            tups = np.arange(n ** degree)
            first = block_boundary(X, tups, tups, np.ones_like(tups), degree)
            if len(block_boundary(X, *first, degree - 1)[0]):
                failures.append((name, degree))
            checked += len(tups)
    return _section("boundary_squares_zero",
                    "pass" if not failures else "fail",
                    tuples_checked=checked, failures=failures,
                    idempotency_cycles_checked=idempotent)


def reproduce_subcomplex_checks() -> dict:
    """Boundary of every identity-subcomplex generator stays in the span one
    degree down, for small corpus members and short satisfied words.  The
    boundaries of one degree's generators are formed in one pass, and the
    lower span's lattice is queried once per distinct boundary."""
    failures = []
    checked = 0
    words = two_letter_universe(4)
    for name, X in corpus():
        if X.order > 5:
            continue
        for w, rep in zip(words, satisfies_all(X, words)):
            if not rep.satisfied:
                continue
            gens = {d: subcomplex_generators(X, d, w) for d in (2, 3)}
            for d in (2, 3):
                low = gens.get(d - 1)
                terms = gens[d].terms
                chain, face, coef = block_boundary(
                    X, np.repeat(np.arange(len(terms)), terms.shape[1]),
                    terms.ravel(), np.ones(terms.size, dtype=np.int64), d)
                ends = np.searchsorted(chain, np.arange(len(terms) + 1))
                ok: dict = {}
                for lo, hi in zip(ends.tolist(), ends[1:].tolist()):
                    vec = tuple(zip(face[lo:hi].tolist(),
                                    coef[lo:hi].tolist()))
                    if vec not in ok:
                        ok[vec] = not vec if low is None \
                            else low.lattice.contains(dict(vec))
                    failures += [(name, w.text, d)] * (not ok[vec])
                checked += len(terms)
    return _section("subcomplex_closure", "pass" if not failures else "fail",
                    generators_checked=checked, failures=failures[:5])


REPRODUCE_TARGETS = ("types", "exponents", "length4", "length5", "length6",
                     "length7", "builtin", "all")
_DATASET_TARGETS = {"types", "exponents", "length4", "length5", "length6"}


def run_reproduce(target: str, dataset: Optional[str],
                  convention: str = "left") -> tuple[int, list[dict]]:
    if target not in REPRODUCE_TARGETS:
        raise ValueError(f"unknown reproduce target {target!r}")
    entries = None
    if dataset is not None:
        entries = load_dataset(dataset, convention=convention)
    if target in _DATASET_TARGETS and entries is None:
        raise MissingDataset(f"target {target!r} needs --dataset")
    sections: list[dict] = []
    # the dataset sections, skipped without --dataset
    for key, name, fn in (
            ("types", "type_census", reproduce_types),
            ("exponents", "exponent_census", reproduce_exponents),
            ("length4", "length4_scan", reproduce_length4),
            ("length5", "length5_scan", reproduce_length5),
            ("length6", "length6_scan", reproduce_length6)):
        if target in (key, "all"):
            sections.append(fn(entries) if entries is not None else
                            _section(name, "skipped", reason="no --dataset"))
    if target in ("length7", "all"):
        sections.append(reproduce_length7())
        if entries is not None:
            sections.append(reproduce_length7_dataset(entries))
    if target in ("builtin", "all"):
        sections.append(reproduce_cycle_checks())
        sections.append(reproduce_extension_checks())
        sections.append(reproduce_subcomplex_checks())
        sections.append(reproduce_boundary_checks())
    failed = any(s["status"] == "fail" for s in sections)
    return (EXIT_CHECK_FAILED if failed else EXIT_OK), sections


# ----------------------------------------------------------------------- cli

def _report(args, results: dict, passed: bool, started: float,
            inputs: dict) -> dict:
    return {"schema": SCHEMA, "tool": TOOL, "version": VERSION,
            "command": list(args), "inputs": inputs,
            "results": results, "status": "pass" if passed else "fail",
            "wall_clock_s": round(time.time() - started, 6)}


def _emit_report(report: dict, as_json: bool):
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    results = report["results"]
    if "sections" in results:
        for sec in results["sections"]:
            print(f"[{sec['status'].upper():7s}] {sec['name']}")
            for key, val in sec["details"].items():
                text = json.dumps(val) if not isinstance(val, str) else val
                if len(text) > 200:
                    text = text[:200] + "..."
                print(f"    {key}: {text}")
    else:
        for key, val in results.items():
            print(f"{key}: {json.dumps(val) if not isinstance(val, str) else val}")
    print(f"status: {report['status']}")


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """Each subcommand sets ``run`` to its handler.  A handler returns
    (results, passed, input digests) for ``cli`` to report, or None when it
    has written its own output."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit a JSON report on stdout")
    parser = argparse.ArgumentParser(
        prog=TOOL,
        description="exact computations on finite racks and quandles")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def command(name, run, help, table=True):
        p = sub.add_parser(name, parents=[common], help=help)
        p.set_defaults(run=run)
        if table:
            p.add_argument("table", help="matrix file (1-based)")
            add_convention(p)
        return p

    def add_convention(p, default="right"):
        p.add_argument("--convention", choices=("right", "left"),
                       default=default)

    p = command("validate", _run_validate, "check the rack/quandle axioms")
    p.add_argument("--mode", choices=("rack", "quandle"), default="quandle")

    command("info", _run_info, "invariant report for a table")

    p = command("gen", _run_gen, "construct a table and print its matrix",
                table=False)
    p.add_argument("kind", choices=tuple(_GEN_PARAMS))
    p.add_argument("params", nargs="*",
                   help="integers; alexander_poly takes p and ascending "
                        "comma-separated modulus/unit coefficient lists; "
                        "group kinds take a Cayley matrix file")
    p.add_argument("--out", help="write to a file instead of stdout")

    p = command("scan", _run_scan, "satisfaction of words over tables",
                table=False)
    p.add_argument("tables", nargs="*", help="matrix files")
    p.add_argument("--dataset", help="directory of matrix files")
    p.add_argument("--word", action="append", required=True,
                   help="word like abab (repeatable)")
    add_convention(p)

    p = command("cycle", _run_cycle, "two-cycle attached to a satisfied word")
    p.add_argument("--word", required=True)
    p.add_argument("--x", type=int, required=True, help="1-based start element")
    p.add_argument("--ys", required=True,
                   help="comma-separated 1-based letter values")

    p = command("subcomplex", _run_subcomplex,
                "subcomplex generators at a degree")
    p.add_argument("--kind", choices=("identity", "degenerate"),
                   default="identity")
    p.add_argument("--word")
    p.add_argument("--degree", type=int, required=True)

    p = command("homology", _run_homology, "homology of a chain complex")
    p.add_argument("--complex", choices=COMPLEXES, default="rack")
    p.add_argument("--word")
    p.add_argument("--degree", type=int, required=True)

    p = command("cocycles", _run_cocycles, "2-cocycle space mod d")
    p.add_argument("--mod", type=int, required=True)
    p.add_argument("--mode", choices=("rack", "quandle"), default="quandle")

    p = command("extend", _run_extend, "abelian extension by a cocycle file")
    p.add_argument("--mod", type=int, required=True)
    p.add_argument("--cocycle", required=True,
                   help="file with n rows of n residues (0-based values)")
    p.add_argument("--out", help="write the extension matrix to a file")

    p = command("reproduce", _run_reproduce, "re-run the bundled verification "
                "suites and census scans", table=False)
    p.add_argument("target", nargs="?", default="all",
                   choices=REPRODUCE_TARGETS)
    p.add_argument("--dataset", help="directory with catalogue matrices")
    add_convention(p, default="left")
    return parser


def cli(argv: Sequence[str]) -> int:
    started = time.time()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        out = args.run(args)
        if out is None:
            return EXIT_OK
        results, passed, inputs = out
        _emit_report(_report(argv, results, passed, started, inputs),
                     args.json)
        return EXIT_OK if passed else EXIT_CHECK_FAILED
    except BrokenPipeError:
        return EXIT_OK             # the reader closed early, as `| head` does
    except (ParseError, MissingDataset, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except QuandleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


def _load_table(args) -> tuple[QuandleTable, dict]:
    path = Path(args.table)
    table = load(path, convention=args.convention)
    return table, {str(path): _sha256(path)}


def _run_validate(args):
    path = Path(args.table)
    digests = {str(path): _sha256(path)}
    report = validate(_oriented(_read_matrix(path.read_text()),
                                args.convention), mode=args.mode)
    if not report.is_rack:
        return {"valid": False, "violation": str(report.violation)}, \
            False, digests
    ok = args.mode == "rack" or report.is_quandle
    return {"valid": ok, **report.as_dict()}, ok, digests


def _run_info(args):
    table, digests = _load_table(args)
    return invariants(table).as_dict(), True, digests


def _run_gen(args):
    table = _gen_from_params(args.kind, args.params)
    if not args.out:
        sys.stdout.write(emit(table))
        return None
    save(table, args.out)
    return ({"order": table.order, "out": args.out}, True, {}) \
        if args.json else None


def _word_arg(text: str) -> Word:
    """A --word value as a Word; a malformed one is a usage error."""
    try:
        return parse_word(text)
    except WordError as exc:
        raise ValueError(str(exc)) from None


def _run_scan(args):
    words = [_word_arg(w) for w in args.word]
    entries = (load_dataset(args.dataset, convention=args.convention)
               if args.dataset else [])
    tables = [e.table for e in entries]
    tables += [load(f, convention=args.convention) for f in args.tables]
    if not tables:
        raise MissingDataset("scan needs table files or --dataset")
    rep = scan(tables, words, names=[e.name for e in entries] + args.tables)
    return {
        "words": [w.text for w in rep.words],
        "counts": list(rep.counts),
        "satisfied_by": {w.text: rep.satisfied_by(j)
                         for j, w in enumerate(rep.words)},
    }, True, {**_dataset_digests(args.dataset),
              **{f: _sha256(Path(f)) for f in args.tables}}


def _run_cycle(args):
    table, digests = _load_table(args)
    w = _word_arg(args.word)
    ys = [int(v) for v in args.ys.split(",")]
    for flag, v in [("--x", args.x)] + [("--ys", y) for y in ys]:
        if not 1 <= v <= table.order:
            raise ValueError(f"{flag} value {v} outside 1..{table.order}")
    cyc = identity_cycle(table, w,
                         Assignment(args.x - 1, tuple(y - 1 for y in ys)))
    bd = boundary(table, cyc)
    return {"word": w.text, "cycle": format_chain(cyc),
            "boundary": format_chain(bd),
            "is_cycle": bd.is_zero()}, bd.is_zero(), digests


def _run_subcomplex(args):
    table, digests = _load_table(args)
    word = _word_arg(args.word) if args.word else None
    n, k = table.order, args.degree
    if k < 2:
        raise ValueError("subcomplex generators need degree >= 2")
    if args.kind == "degenerate":
        # the n^k - n(n-1)^(k-1) tuples with two equal adjacent entries, a
        # subcomplex exactly when the table is a quandle (chain_complex)
        guard_rows(n, k, DEFAULT_SIZE_GUARD)
        count = span = n ** k - n * (n - 1) ** (k - 1)
        closure_ok = table.is_quandle
    else:
        if word is None:
            raise ValueError("identity kind needs a word")
        gens = subcomplex_generators(table, k, word)
        count, span = len(gens), gens.lattice.rank
        # the boundary build solves each basis boundary one degree down, at
        # this degree alone and for any word, so not through ChainComplex
        try:
            gens.boundary_rows()
            closure_ok = True
        except SubcomplexClosureViolated:
            closure_ok = False
    return {"kind": args.kind, "degree": k, "generators": count,
            "span_rank": span,
            "boundary_in_lower_span": closure_ok}, closure_ok, digests


def _run_homology(args):
    table, digests = _load_table(args)
    word = _word_arg(args.word) if args.word else None
    group = homology(table, args.complex, args.degree, word=word)
    return {"complex": args.complex, "degree": args.degree,
            "group": str(group), "free_rank": group.free_rank,
            "torsion": list(group.torsion)}, True, digests


def _run_cocycles(args):
    table, digests = _load_table(args)
    orders = cocycle_orders(table, args.mod, mode=args.mode)
    return {"modulus": args.mod, "mode": args.mode,
            "generators": len(orders), "generator_orders": list(orders),
            "size": math.prod(orders)}, True, digests


def _run_extend(args):
    table, _ = _load_table(args)
    if args.mod < 2:
        raise ValueError("modulus must be >= 2")
    vals = [tuple(v % args.mod for v in row) for row in
            _read_rows(Path(args.cocycle).read_text().splitlines(), 0,
                       table.order)]
    phi = CocycleTable(modulus=args.mod, values=tuple(vals))
    ext = extend(ExtensionSpec(table, args.mod, phi))
    if args.out:
        save(ext, args.out)
    else:
        sys.stdout.write(emit(ext))
    return None


def _run_reproduce(args):
    code, sections = run_reproduce(args.target, args.dataset,
                                   convention=args.convention)
    return {"sections": sections}, code == EXIT_OK, \
        _dataset_digests(args.dataset)


def _read_cayley(path: str) -> list[list[int]]:
    """Cayley tables use the quandle file format and its checks, 0-based."""
    return _read_matrix(Path(path).read_text()).tolist()


def _int_list(text: str) -> list[int]:
    return [int(t) for t in text.split(",")]


# how gen reads each kind's parameters, in the order constructions.make
# takes them, and the text of those that may be left out at the end
_GEN_PARAMS = {"trivial": (int,), "dihedral": (int,),
               "alexander_zn": (int, int),
               "alexander_poly": (int, _int_list, _int_list),
               "burnside": (int, int, int),
               "conjugation": (_read_cayley,),
               "gen_alexander": (_read_cayley, _int_list)}
_GEN_DEFAULTS = {"alexander_poly": ("0,1",)}       # the unit t


def _gen_from_params(kind: str, params: Sequence[str]) -> QuandleTable:
    readers = _GEN_PARAMS[kind]
    defaults = _GEN_DEFAULTS.get(kind, ())
    need = len(readers) - len(defaults)
    if len(params) < need:
        raise ValueError(f"gen {kind} needs {need} parameter"
                         f"{'s' if need > 1 else ''}, got {len(params)}")
    texts = [*params[:len(readers)], *defaults[len(params) - need:]]
    show = warnings.showwarning

    def one_line(message, category, *rest):
        # a reducible modulus as one line with no source path, so that
        # stderr stays byte-deterministic; other warnings as before
        if not issubclass(category, ReducibleModulusAllowed):
            return show(message, category, *rest)
        print(f"warning: {message}", file=sys.stderr)

    with warnings.catch_warnings():
        warnings.simplefilter("always", ReducibleModulusAllowed)
        warnings.showwarning = one_line
        return constructions.make(
            kind, *(read(text) for read, text in zip(readers, texts)))


def main() -> None:
    code = cli(sys.argv[1:])
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # drop what is still buffered, so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
