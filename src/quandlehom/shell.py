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
import os
import re
import sys
import time
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Optional, Sequence

from . import censusdata
from .chains import (FormalChain, boundary, format_chain, identity_cycle,
                     identity_cycle_failures, in_span, subcomplex_generators)
from .core import (QuandleTable, group_exponent, inner_group, invariants,
                   make_table, quandle_type, validate)
from .errors import (InvalidCocycle, MissingDataset, ParseError, QuandleError,
                     SubcomplexClosureViolated, ValidationError)
from .extensions import ExtensionSpec, check_extension_identity, extend
from .homology import (CocycleTable, boundary_matrix, cocycle_space,
                       homology)
from .identities import (Assignment, Word, enumerate_words, parse_word,
                         satisfies, two_letter_universe)
from . import constructions
from .constructions import (alexander_poly, alexander_zn, burnside_family,
                            dihedral, trivial)

TOOL = "quandlehom"
VERSION = "0.1.0"
SCHEMA = 1

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


# ------------------------------------------------------------------- file io

_ENTRY = re.compile(r"-?\d+")


def loads(text: str, convention: str = "right") -> QuandleTable:
    """Parse the 1-based matrix format; left convention transposes."""
    lines = text.splitlines()
    tokens_per_line = [line.split() for line in lines]
    flat = [(ln, tok) for ln, toks in enumerate(tokens_per_line, start=1)
            for tok in toks]
    if not flat:
        raise ParseError("empty file", 1)
    ln, tok = flat[0]
    if not re.fullmatch(r"\d+", tok):
        raise ParseError(f"expected the order, got {tok!r}", ln)
    n = int(tok)
    if n < 1:
        raise ParseError("order must be >= 1", ln)
    body = flat[1:]
    if len(body) != n * n:
        raise ParseError(
            f"expected {n * n} entries after the order, found {len(body)}",
            body[-1][0] if body else ln)
    toks = [tok for _, tok in body]
    ok = all(map(_ENTRY.fullmatch, toks))
    vals = list(map(int, toks)) if ok else []
    if not ok or not 1 <= min(vals) <= max(vals) <= n:
        for k, (ln, tok) in enumerate(body):     # name the first bad entry
            if not _ENTRY.fullmatch(tok):
                raise ParseError(f"bad entry {tok!r}", ln, k % n + 1)
            if not 1 <= int(tok) <= n:
                raise ParseError(f"entry {tok} outside 1..{n}", ln, k % n + 1)
    rows = [[v - 1 for v in vals[i * n:(i + 1) * n]] for i in range(n)]
    if convention == "left":
        rows = [list(col) for col in zip(*rows)]
    elif convention != "right":
        raise ValueError("convention must be 'right' or 'left'")
    return make_table(rows, require="rack")


def load(path: str | Path, convention: str = "right") -> QuandleTable:
    return loads(Path(path).read_text(), convention=convention)


def emit(X: QuandleTable) -> str:
    """Canonical 1-based text form; load(emit(X)) round-trips exactly."""
    lines = [str(X.order)]
    for row in X.rows:
        lines.append(" ".join(str(v + 1) for v in row))
    return "\n".join(lines) + "\n"


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


# ------------------------------------------------------------------ sections

def _section(name: str, status: str, **details) -> dict:
    return {"name": name, "status": status, "details": details}


def reproduce_types(entries: Sequence[DatasetEntry]) -> dict:
    counts: dict[int, int] = {}
    for e in entries:
        t = quandle_type(e.table)
        counts[t] = counts.get(t, 0) + 1
    got = tuple(sorted(counts.items()))
    ok = got == censusdata.TYPE_CENSUS and len(entries) == censusdata.CATALOGUE_SIZE
    return _section("type_census", "pass" if ok else "fail",
                    counts=[list(p) for p in got],
                    expected=[list(p) for p in censusdata.TYPE_CENSUS],
                    size=len(entries))


def reproduce_exponents(entries: Sequence[DatasetEntry]) -> dict:
    counts: dict[int, int] = {}
    for e in entries:
        expo = group_exponent(inner_group(e.table))
        counts[expo] = counts.get(expo, 0) + 1
    got = tuple(sorted(counts.items()))
    ok = got == censusdata.EXPONENT_CENSUS
    return _section("exponent_census", "pass" if ok else "fail",
                    counts=[list(p) for p in got],
                    expected=[list(p) for p in censusdata.EXPONENT_CENSUS])


def reproduce_length4(entries: Sequence[DatasetEntry]) -> dict:
    w = parse_word("abab")
    hits = [e for e in entries if satisfies(e.table, w).satisfied]
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
    counts = {}
    for w in words:
        counts[w.text] = sum(
            1 for e in entries if satisfies(e.table, w).satisfied)
    ok = (set(words) == expected and all(c == 0 for c in counts.values()))
    return _section("length5_scan", "pass" if ok else "fail", counts=counts)


def reproduce_length6(entries: Sequence[DatasetEntry]) -> dict:
    details: dict = {}
    ok = True
    triple_sets = []
    for text in censusdata.LENGTH6_TRIPLE:
        w = parse_word(text)
        hit = frozenset(e.name for e in entries if satisfies(e.table, w).satisfied)
        triple_sets.append(hit)
    same = triple_sets[0] == triple_sets[1] == triple_sets[2]
    kei_names = {e.name for e in entries if quandle_type(e.table) == 2}
    details["triple_count"] = len(triple_sets[0])
    details["triple_same_sets"] = same
    details["triple_keis"] = len(triple_sets[0] & kei_names)
    ok &= same and len(triple_sets[0]) == censusdata.LENGTH6_TRIPLE_COUNT
    ok &= details["triple_keis"] == censusdata.LENGTH6_TRIPLE_KEI_COUNT
    w = parse_word(censusdata.LENGTH6_REPEAT_WORD)
    rep_hits = [e for e in entries if satisfies(e.table, w).satisfied]
    details["repeat_count"] = len(rep_hits)
    details["repeat_keis"] = sum(
        1 for e in rep_hits if quandle_type(e.table) == 2)
    ok &= details["repeat_count"] == censusdata.LENGTH6_REPEAT_COUNT
    ok &= details["repeat_keis"] == censusdata.LENGTH6_REPEAT_KEI_COUNT
    open_counts = {}
    for text in censusdata.LENGTH6_OPEN_WORDS:
        w = parse_word(text)
        open_counts[text] = sum(
            1 for e in entries if satisfies(e.table, w).satisfied)
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
        sat = sorted(w.text for w in cands if satisfies(X, w).satisfied)
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
        sat = [w.text for w in cands if satisfies(e.table, w).satisfied]
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
    for name, X in corpus():
        for w in two_letter_universe(max_len):
            if not satisfies(X, w).satisfied:
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
    disagreements = 0
    nonvanishing = 0
    for member in space.members():
        rep = check_extension_identity(ExtensionSpec(X, 3, member), w)
        if not rep.agree:
            disagreements += 1
        if not rep.cocycle_vanishes:
            nonvanishing += 1
    status = "pass" if disagreements == 0 else "fail"
    return _section("extension_identity", status,
                    space_size=space.size, disagreements=disagreements,
                    members_with_nonzero_value=nonvanishing,
                    identity_preserving_space=(nonvanishing == 0))


def reproduce_boundary_checks(seed: int = 0, samples: int = 40) -> dict:
    """Randomized d(d(chain)) = 0 samples over the corpus, seeded."""
    import random as _random

    rng = _random.Random(seed)
    failures = []
    checked = 0
    for name, X in corpus():
        for degree in (2, 3, 4):
            for _ in range(samples // 4):
                terms = {tuple(rng.randrange(X.order) for _ in range(degree)):
                         rng.randint(-3, 3) for _ in range(5)}
                c = FormalChain(degree, terms)
                if not boundary(X, boundary(X, c)).is_zero():
                    failures.append((name, degree))
                checked += 1
    return _section("boundary_squares_zero",
                    "pass" if not failures else "fail",
                    seed=seed, chains_checked=checked, failures=failures[:5])


def reproduce_subcomplex_checks() -> dict:
    """Boundary of every identity-subcomplex generator stays in the span one
    degree down, for small corpus members and short satisfied words."""
    failures = []
    checked = 0
    for name, X in corpus():
        if X.order > 5:
            continue
        for w in two_letter_universe(4):
            if not satisfies(X, w).satisfied:
                continue
            gens = {d: subcomplex_generators(X, "identity", d, word=w)
                    for d in (2, 3)}
            for d in (2, 3):
                low = gens.get(d - 1)
                for ch in gens[d].chains:
                    b = boundary(X, ch)
                    ok = b.is_zero() if low is None else in_span(b, low)
                    if not ok:
                        failures.append((name, w.text, d))
                    checked += 1
    return _section("subcomplex_closure", "pass" if not failures else "fail",
                    generators_checked=checked, failures=failures[:5])


REPRODUCE_TARGETS = ("types", "exponents", "length4", "length5", "length6",
                     "length7", "builtin", "all")
_DATASET_TARGETS = {"types", "exponents", "length4", "length5", "length6"}


def run_reproduce(target: str, dataset: Optional[str],
                  convention: str = "left",
                  seed: int = 0) -> tuple[int, list[dict]]:
    if target not in REPRODUCE_TARGETS:
        raise ValueError(f"unknown reproduce target {target!r}")
    entries = None
    if dataset is not None:
        entries = load_dataset(dataset, convention=convention)
    if target in _DATASET_TARGETS and entries is None:
        raise MissingDataset(f"target {target!r} needs --dataset")
    sections: list[dict] = []

    def run_gated(name: str, fn):
        if entries is None:
            sections.append(_section(name, "skipped", reason="no --dataset"))
        else:
            sections.append(fn(entries))

    if target in ("types", "all"):
        run_gated("type_census", reproduce_types)
    if target in ("exponents", "all"):
        run_gated("exponent_census", reproduce_exponents)
    if target in ("length4", "all"):
        run_gated("length4_scan", reproduce_length4)
    if target in ("length5", "all"):
        run_gated("length5_scan", reproduce_length5)
    if target in ("length6", "all"):
        run_gated("length6_scan", reproduce_length6)
    if target in ("length7", "all"):
        sections.append(reproduce_length7())
        if entries is not None:
            sections.append(reproduce_length7_dataset(entries))
    if target in ("builtin", "all"):
        sections.append(reproduce_cycle_checks())
        sections.append(reproduce_extension_checks())
        sections.append(reproduce_subcomplex_checks())
        sections.append(reproduce_boundary_checks(seed=seed))
    failed = any(s["status"] == "fail" for s in sections)
    return (EXIT_CHECK_FAILED if failed else EXIT_OK), sections


# ----------------------------------------------------------------------- cli

def _report(args, results: dict, status: str, started: float,
            inputs: Optional[dict] = None, seed: int = 0) -> dict:
    return {
        "schema": SCHEMA,
        "tool": TOOL,
        "version": VERSION,
        "command": list(args),
        "inputs": inputs or {},
        "seed": seed,
        "results": results,
        "status": status,
        "wall_clock_s": round(time.time() - started, 6),
    }


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
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit a JSON report on stdout")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for randomized property sampling")
    parser = argparse.ArgumentParser(
        prog=TOOL,
        description="exact computations on finite racks and quandles")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_table_arg(p, with_convention=True):
        p.add_argument("table", help="matrix file (1-based)")
        if with_convention:
            p.add_argument("--convention", choices=("right", "left"),
                           default="right")

    p = sub.add_parser("validate", parents=[common], help="check the rack/quandle axioms")
    add_table_arg(p)
    p.add_argument("--mode", choices=("rack", "quandle"), default="quandle")

    p = sub.add_parser("info", parents=[common], help="invariant report for a table")
    add_table_arg(p)

    p = sub.add_parser("gen", parents=[common], help="construct a table and print its matrix")
    p.add_argument("kind", choices=("trivial", "dihedral", "alexander_zn",
                                    "alexander_poly", "burnside",
                                    "conjugation", "gen_alexander"))
    p.add_argument("params", nargs="*",
                   help="integers; alexander_poly takes p and ascending "
                        "comma-separated modulus/unit coefficient lists; "
                        "group kinds take a Cayley matrix file")
    p.add_argument("--out", help="write to a file instead of stdout")

    p = sub.add_parser("scan", parents=[common], help="satisfaction of words over tables")
    p.add_argument("tables", nargs="*", help="matrix files")
    p.add_argument("--dataset", help="directory of matrix files")
    p.add_argument("--word", action="append", required=True,
                   help="word like abab (repeatable)")
    p.add_argument("--convention", choices=("right", "left"), default="right")

    p = sub.add_parser("cycle", parents=[common], help="two-cycle attached to a satisfied word")
    add_table_arg(p)
    p.add_argument("--word", required=True)
    p.add_argument("--x", type=int, required=True, help="1-based start element")
    p.add_argument("--ys", required=True,
                   help="comma-separated 1-based letter values")

    p = sub.add_parser("subcomplex", parents=[common], help="subcomplex generators at a degree")
    add_table_arg(p)
    p.add_argument("--kind", choices=("identity", "degenerate"),
                   default="identity")
    p.add_argument("--word")
    p.add_argument("--degree", type=int, required=True)

    p = sub.add_parser("homology", parents=[common], help="homology of a chain complex")
    add_table_arg(p)
    p.add_argument("--complex", choices=("rack", "quandle", "degenerate",
                                         "identity"), default="rack")
    p.add_argument("--word")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--max-degree", type=int, default=None)

    p = sub.add_parser("cocycles", parents=[common], help="2-cocycle space mod d")
    add_table_arg(p)
    p.add_argument("--mod", type=int, required=True)
    p.add_argument("--mode", choices=("rack", "quandle"), default="quandle")

    p = sub.add_parser("extend", parents=[common], help="abelian extension by a cocycle file")
    add_table_arg(p)
    p.add_argument("--mod", type=int, required=True)
    p.add_argument("--cocycle", required=True,
                   help="file with n rows of n residues (0-based values)")
    p.add_argument("--out", help="write the extension matrix to a file")

    p = sub.add_parser("reproduce", parents=[common], help="re-run the bundled verification "
                                         "suites and census scans")
    p.add_argument("target", nargs="?", default="all",
                   choices=REPRODUCE_TARGETS)
    p.add_argument("--dataset", help="directory with catalogue matrices")
    p.add_argument("--convention", choices=("right", "left"), default="left")
    return parser


def cli(argv: Sequence[str]) -> int:
    started = time.time()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _dispatch(args, argv, started)
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
    table = load(path, convention=getattr(args, "convention", "right"))
    return table, {str(path): _sha256(path)}


def _dispatch(args, argv, started) -> int:
    as_json = args.json
    seed = args.seed
    if args.cmd == "validate":
        path = Path(args.table)
        digests = {str(path): _sha256(path)}
        try:
            table = load(path, convention=args.convention)
        except ValidationError as exc:
            rep = _report(argv, {"valid": False, "violation": str(exc)},
                          "fail", started, digests, seed=seed)
            _emit_report(rep, as_json)
            return EXIT_CHECK_FAILED
        report = validate(table.rows, mode=args.mode)
        ok = report.is_quandle if args.mode == "quandle" else report.is_rack
        rep = _report(argv, {"valid": bool(ok), **report.as_dict()},
                      "pass" if ok else "fail", started, digests, seed=seed)
        _emit_report(rep, as_json)
        return EXIT_OK if ok else EXIT_CHECK_FAILED

    if args.cmd == "info":
        table, digests = _load_table(args)
        report = invariants(table)
        rep = _report(argv, report.as_dict(), "pass", started, digests, seed=seed)
        _emit_report(rep, as_json)
        return EXIT_OK

    if args.cmd == "gen":
        table = _gen_from_params(args.kind, args.params)
        text = emit(table)
        if args.out:
            Path(args.out).write_text(text)
            if as_json:
                print(json.dumps(_report(argv, {"order": table.order,
                                                "out": args.out},
                                         "pass", started), indent=2,
                                 sort_keys=True))
        else:
            sys.stdout.write(text)
        return EXIT_OK

    if args.cmd == "scan":
        from .identities import scan as scan_words
        words = [parse_word(w) for w in args.word]
        names = []
        tables = []
        digests = {}
        if args.dataset:
            for e in load_dataset(args.dataset, convention=args.convention):
                names.append(e.name)
                tables.append(e.table)
        for f in args.tables:
            names.append(f)
            tables.append(load(f, convention=args.convention))
            digests[f] = _sha256(Path(f))
        if not tables:
            raise MissingDataset("scan needs table files or --dataset")
        rep_scan = scan_words(tables, words, names=names)
        results = {
            "words": [w.text for w in rep_scan.words],
            "counts": list(rep_scan.counts),
            "satisfied_by": {w.text: rep_scan.satisfied_by(j)
                             for j, w in enumerate(rep_scan.words)},
        }
        rep = _report(argv, results, "pass", started, digests, seed=seed)
        _emit_report(rep, as_json)
        return EXIT_OK

    if args.cmd == "cycle":
        table, digests = _load_table(args)
        w = parse_word(args.word)
        ys = tuple(int(v) - 1 for v in args.ys.split(","))
        cyc = identity_cycle(table, w, Assignment(args.x - 1, ys))
        bd = boundary(table, cyc)
        rep = _report(argv, {"word": w.text, "cycle": format_chain(cyc),
                             "boundary": format_chain(bd),
                             "is_cycle": bd.is_zero()},
                      "pass" if bd.is_zero() else "fail", started, digests, seed=seed)
        _emit_report(rep, as_json)
        return EXIT_OK if bd.is_zero() else EXIT_CHECK_FAILED

    if args.cmd == "subcomplex":
        table, digests = _load_table(args)
        word = parse_word(args.word) if args.word else None
        gens = subcomplex_generators(table, args.kind, args.degree, word=word)
        # the boundary matrix solves each basis boundary one degree down
        try:
            boundary_matrix(table, args.kind, args.degree, word=word)
            closure_ok = True
        except SubcomplexClosureViolated:
            closure_ok = False
        rep = _report(argv, {"kind": args.kind, "degree": args.degree,
                             "generators": len(gens),
                             "span_rank": gens.lattice.rank,
                             "boundary_in_lower_span": closure_ok},
                      "pass" if closure_ok else "fail", started, digests, seed=seed)
        _emit_report(rep, as_json)
        return EXIT_OK if closure_ok else EXIT_CHECK_FAILED

    if args.cmd == "homology":
        table, digests = _load_table(args)
        word = parse_word(args.word) if args.word else None
        group = homology(table, args.complex, args.degree, word=word,
                         max_degree=args.max_degree)
        rep = _report(argv, {"complex": args.complex, "degree": args.degree,
                             "group": str(group),
                             "free_rank": group.free_rank,
                             "torsion": list(group.torsion)},
                      "pass", started, digests, seed=seed)
        _emit_report(rep, as_json)
        return EXIT_OK

    if args.cmd == "cocycles":
        table, digests = _load_table(args)
        space = cocycle_space(table, args.mod, mode=args.mode)
        rep = _report(argv, {"modulus": args.mod, "mode": args.mode,
                             "generators": len(space.generators),
                             "generator_orders": list(space.orders),
                             "size": space.size},
                      "pass", started, digests, seed=seed)
        _emit_report(rep, as_json)
        return EXIT_OK

    if args.cmd == "extend":
        table, digests = _load_table(args)
        if args.mod < 2:
            raise InvalidCocycle("modulus must be >= 2")
        vals = []
        text = Path(args.cocycle).read_text()
        for line in text.splitlines():
            if line.strip():
                vals.append(tuple(int(t) % args.mod for t in line.split()))
        phi = CocycleTable(modulus=args.mod, values=tuple(vals))
        ext = extend(ExtensionSpec(table, args.mod, phi))
        out_text = emit(ext)
        if args.out:
            Path(args.out).write_text(out_text)
        else:
            sys.stdout.write(out_text)
        return EXIT_OK

    if args.cmd == "reproduce":
        code, sections = run_reproduce(args.target, args.dataset,
                                       convention=args.convention,
                                       seed=args.seed)
        status = "fail" if code else "pass"
        digests = {}
        if args.dataset:
            d = Path(args.dataset)
            digests = {str(p): _sha256(p) for p in sorted(d.iterdir())
                       if p.is_file()}
        rep = _report(argv, {"sections": sections}, status, started, digests, seed=seed)
        _emit_report(rep, as_json)
        return code

    raise AssertionError(f"unhandled command {args.cmd}")


def _read_zero_based_matrix(path: str) -> list[list[int]]:
    """Cayley tables use the same format as quandle files (1-based, first
    line the order), shifted down on load."""
    text = Path(path).read_text()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    n = int(lines[0].split()[0])
    rows = []
    for ln in lines[1:n + 1]:
        rows.append([int(t) - 1 for t in ln.split()])
    return rows


def _int_list(text: str) -> list[int]:
    return [int(t) for t in text.split(",")]


# how gen reads each kind's parameters, in the order constructions.make
# takes them, and the text of those that may be left out at the end
_GEN_PARAMS = {"trivial": (int,), "dihedral": (int,),
               "alexander_zn": (int, int),
               "alexander_poly": (int, _int_list, _int_list),
               "burnside": (int, int, int),
               "conjugation": (_read_zero_based_matrix,),
               "gen_alexander": (_read_zero_based_matrix, _int_list)}
_GEN_DEFAULTS = {"alexander_poly": ("0,1",)}       # the unit t


def _gen_from_params(kind: str, params: Sequence[str]) -> QuandleTable:
    readers = _GEN_PARAMS.get(kind, ())
    defaults = _GEN_DEFAULTS.get(kind, ())
    need = len(readers) - len(defaults)
    if len(params) < need:
        raise ValueError(f"gen {kind} needs {need} parameter"
                         f"{'s' if need > 1 else ''}, got {len(params)}")
    texts = [*params[:len(readers)], *defaults[len(params) - need:]]
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
