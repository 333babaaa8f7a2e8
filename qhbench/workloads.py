"""The three workloads: their input tables, their jobs and the check of each
job's output.  Timed calls reach the package through module attributes
(shell.cli, qext.check_extension_identity, qc.enumerate_connected), so the
tracer's wrappers see them.

A workload's `setup` writes its tables (relabelled by the seed) as matrix
files and returns a context; its `jobs` list the operations of one round.
Each job's `call` is what gets timed; its `check` runs afterwards, untimed,
and returns None when the output is right or a reason when it is not.
Expected values come from `oracles`, never from the program under test.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import oracles

import quandlehom.constructions as qc
from quandlehom import extensions as qext
from quandlehom import shell
from quandlehom.core import make_table
from quandlehom.extensions import ExtensionSpec
from quandlehom.homology import cocycle_space
from quandlehom.identities import enumerate_words, parse_word, two_letter_universe


@dataclass
class Table:
    name: str
    rows: tuple
    path: str
    alexander: Optional[tuple[int, int]] = None   # (n, t) of x*y = tx+(1-t)y


@dataclass
class Job:
    metric: str                          # end-to-end metric the time adds to
    label: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]


@dataclass
class Context:
    seed: int
    directory: Path
    tables: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)   # this round's outputs
    memo: dict = field(default_factory=dict)      # oracle answers per run

    def oracle(self, key, fn):
        if key not in self.memo:
            self.memo[key] = fn()
        return self.memo[key]


# ------------------------------------------------------------------ helpers

def permutation(seed: int, name: str, n: int) -> list[int]:
    """Seed 0 keeps the natural labels; other seeds shuffle per table."""
    perm = list(range(n))
    if seed:
        random.Random(f"{seed}/{name}").shuffle(perm)
    return perm


def write_table(ctx: Context, name: str, X, relabel: bool = True,
                alexander=None) -> Table:
    rows = X.rows
    if relabel:
        rows = oracles.relabel(rows, permutation(ctx.seed, name, X.order))
    path = ctx.directory / f"{name}.txt"
    lines = [str(len(rows))] + [" ".join(str(v + 1) for v in r) for r in rows]
    path.write_text("\n".join(lines) + "\n")
    tab = Table(name, rows, str(path), alexander)
    ctx.tables[name] = tab
    return tab


def cli_job(metric: str, label: str, argv: list[str],
            check: Callable[[dict], Optional[str]]) -> Job:
    """A CLI run in-process with stdout captured; the check sees `results`."""
    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = shell.cli(argv + ["--json"])
        return code, buf.getvalue()

    def verify(out):
        code, text = out
        if code != 0:
            return f"exit code {code}"
        return check(json.loads(text)["results"])

    return Job(metric, label, call, verify)


def _first(*reasons) -> Optional[str]:
    return next((r for r in reasons if r), None)


def _expect(what: str, got, want) -> Optional[str]:
    return None if got == want else f"{what}: got {got!r}, want {want!r}"


# ======================================================= homology_ladder

LADDER_TABLES = {
    "R3": lambda: qc.dihedral(3),
    "R5": lambda: qc.dihedral(5),
    "R7": lambda: qc.dihedral(7),
    "S4": lambda: qc.alexander_poly(2, (1, 1, 1), (0, 1)),
    "Z5_2": lambda: qc.alexander_zn(5, 2),
    "Z7_3": lambda: qc.alexander_zn(7, 3),
    "GF9": lambda: qc.alexander_poly(3, (1, 0, 1), (0, 1)),
    "GF8": lambda: qc.alexander_poly(2, (1, 1, 0, 1), (0, 1)),
}
FLAVOURS = ("quandle", "degenerate", "rack")     # rack last: it checks the split

# (degree, tables, flavours).  Left out for run length (README): rack at
# degree 3 from order 7 on, quandle at degree 3 for Z7_3 and from order 8
# on, degenerate at degree 3 for GF9, and rack at degree 4 for S4.
LADDER = (
    (2, ("R3", "R5", "R7", "S4", "Z5_2", "Z7_3", "GF9", "GF8"), FLAVOURS),
    (3, ("R3", "R5", "S4", "Z5_2"), FLAVOURS),
    (3, ("R7",), ("quandle", "degenerate")),
    (3, ("Z7_3", "GF8"), ("degenerate",)),
    (4, ("R3",), FLAVOURS),
    (4, ("S4",), ("quandle", "degenerate")),
)
# alexander_zn(13,2) mod 13 is left out for run length (README)
COCYCLES = (("R3", 3), ("S4", 2), ("R7", 7), ("GF8", 2), ("GF9", 3))
# published values, which hold under any relabelling
PINS = {("R3", "quandle", 3): (0, [3]), ("R3", "quandle", 4): (0, [3]),
        ("S4", "quandle", 2): (0, [2])}


def setup_ladder(ctx: Context):
    for name, build in LADDER_TABLES.items():
        write_table(ctx, name, build())


def _homology_check(ctx: Context, tab: Table, flavour: str, degree: int):
    def check(res: dict) -> Optional[str]:
        free, tors = res["free_rank"], list(res["torsion"])
        ctx.results[(tab.name, flavour, degree)] = (free, tors)
        o = ctx.oracle(("orbits", tab.name), lambda: oracles.orbit_count(tab.rows))
        inn = ctx.oracle(("inn", tab.name),
                         lambda: len(oracles.inner_group(tab.rows)))
        bad_primes = {q for t in tors for q in oracles.factorize(t) if inn % q}
        reason = _first(
            _expect(f"{tab.name} {flavour} H{degree} free rank", free,
                    oracles.betti(o, degree, flavour)),
            f"torsion primes {sorted(bad_primes)} do not divide |Inn| = {inn}"
            if bad_primes else None,
            _expect(f"{tab.name} {flavour} H{degree}", (free, tors),
                    PINS.get((tab.name, flavour, degree), (free, tors))))
        if reason or flavour != "rack":
            return reason
        parts = {f: ctx.results.get((tab.name, f, degree))
                 for f in ("quandle", "degenerate")}
        if None in parts.values():
            return None
        split = (oracles.prime_power_parts(parts["quandle"][1])
                 + oracles.prime_power_parts(parts["degenerate"][1]))
        return _expect(f"{tab.name} H{degree} rack = quandle + degenerate",
                       oracles.prime_power_parts(tors), split)
    return check


def _cocycle_check(ctx: Context, tab: Table, d: int, mode: str):
    quandle = mode == "quandle"

    def check(res: dict) -> Optional[str]:
        size = res["size"]
        n = len(tab.rows)
        o = ctx.oracle(("orbits", tab.name), lambda: oracles.orbit_count(tab.rows))
        rank = ctx.oracle(("constraints", tab.name, d, mode), lambda:
                          oracles.rank_mod_p(
                              oracles.cocycle_constraints(tab.rows, quandle), d))
        hom = ctx.oracle(("hom", tab.name, d, mode), lambda:
                         oracles.hom_to_prime_order(tab.rows, 2, quandle, d))
        reasons = [
            _expect(f"|Z2({tab.name};Z{d})| {mode} by elimination mod {d}",
                    size, d ** (n * n - rank)),
            _expect(f"|Z2({tab.name};Z{d})| {mode} = |Hom(H2,Z{d})| d^(n-o)",
                    size, hom * d ** (n - o)),
        ]
        h2 = ctx.results.get((tab.name, mode, 2))
        if h2 is not None:
            reasons.append(_expect(
                f"|Z2({tab.name};Z{d})| {mode} against the program's H2",
                size, oracles.hom_order(h2[0], h2[1], d) * d ** (n - o)))
        if tab.name == "R3":
            reasons.append(_expect(
                f"|Z2(R3;Z3)| {mode} by enumerating all 3^9 cochains", size,
                ctx.oracle(("brute", mode), lambda: oracles.brute_force_cocycle_count(
                    tab.rows, d, quandle))))
        reasons.append(ctx.oracle(("generators", tab.name, d, mode),
                                  lambda: _generators_hold(tab, d, mode)))
        return _first(*reasons)
    return check


def _generators_hold(tab: Table, d: int, mode: str) -> Optional[str]:
    """Every generator the library returns satisfies the cocycle condition,
    tested by the loop in oracles (once per run: the answer is fixed by the
    input)."""
    space = cocycle_space(make_table(tab.rows), d, mode=mode)
    for i, gen in enumerate(space.generators):
        if not oracles.cocycle_holds(tab.rows, gen.values, d,
                                     quandle=mode == "quandle"):
            return f"{tab.name} mod {d} {mode}: generator {i} is no cocycle"
    return None


def jobs_ladder(ctx: Context) -> list[Job]:
    jobs = []
    for degree, names, flavours in LADDER:
        for name in names:
            tab = ctx.tables[name]
            for flavour in flavours:
                jobs.append(cli_job(
                    "homology_s", f"homology {name} {flavour} {degree}",
                    ["homology", tab.path, "--complex", flavour,
                     "--degree", str(degree)],
                    _homology_check(ctx, tab, flavour, degree)))
    for name, d in COCYCLES:
        tab = ctx.tables[name]
        for mode in ("rack", "quandle"):
            jobs.append(cli_job(
                "cocycles_s", f"cocycles {name} mod {d} {mode}",
                ["cocycles", tab.path, "--mod", str(d), "--mode", mode],
                _cocycle_check(ctx, tab, d, mode)))
    return jobs


# ====================================================== identity_closure

# order-7 pairs of one size (343 tuples, span rank 259): at natural labels
# the first stays on the int64 lattice path, the second falls back to exact
# integers.  alexander_zn(7,5) with abbabb, also exact, is left out for run
# length (README).
ORDER7_PAIRS = (("R7", "aaabba"), ("R7", "aaaabb"))


def setup_identity(ctx: Context):
    pairs = []
    for name, X in shell.corpus():
        if X.order > 5:
            continue
        tab = write_table(ctx, _file_name(name), X)
        for w in two_letter_universe(4):
            if oracles.word_holds(tab.rows, w.tau):
                pairs.append((tab.name, w.text))
    # relabelling moves these pairs' echelon cost by up to 4x and can switch
    # them between the int64 and exact paths (README), so they keep their
    # natural labels at every seed
    write_table(ctx, "R7", qc.dihedral(7), relabel=False)
    ctx.extra["pairs"] = pairs + list(ORDER7_PAIRS)


def _file_name(label: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in label).strip("_")


def _identity_oracle(tab: Table, word: str) -> dict:
    tau = parse_word(word).tau
    g3 = oracles.identity_generators(tab.rows, tau, 3)
    g2 = oracles.identity_generators(tab.rows, tau, 2)
    return {"generators": g3.shape[0], "rank3": oracles.ranks_agree(g3),
            "rank2": oracles.ranks_agree(g2),
            "rank_d2": oracles.ranks_agree(g2 @ oracles.full_boundary(tab.rows, 2)),
            "rank_d3": oracles.ranks_agree(g3 @ oracles.full_boundary(tab.rows, 3))}


def jobs_identity(ctx: Context) -> list[Job]:
    jobs = []
    for name, word in ctx.extra["pairs"]:
        jobs.extend(_identity_jobs(ctx, ctx.tables[name], word))
    return jobs


def _identity_jobs(ctx: Context, tab: Table, word: str,
                   kinds=("closure_s", "identity_homology_s")) -> list[Job]:
    def want():
        return ctx.oracle(("identity", tab.name, word),
                          lambda: _identity_oracle(tab, word))

    def check_sub(res):
        w = want()
        return _first(
            None if res["boundary_in_lower_span"] else
            f"{tab.name} {word}: boundary left the degree-2 span",
            _expect(f"{tab.name} {word} generators", res["generators"],
                    w["generators"]),
            _expect(f"{tab.name} {word} span rank (mod two primes)",
                    res["span_rank"], w["rank3"]))

    def check_hom(res):
        w = want()
        return _expect(f"{tab.name} {word} identity H2 free rank",
                       res["free_rank"], w["rank2"] - w["rank_d2"] - w["rank_d3"])

    return [cli_job(kinds[0], f"subcomplex {tab.name} {word}",
                    ["subcomplex", tab.path, "--word", word, "--degree", "3"],
                    check_sub),
            cli_job(kinds[1], f"homology {tab.name} {word}",
                    ["homology", tab.path, "--complex", "identity",
                     "--word", word, "--degree", "2"], check_hom)]


# =========================================================== census_scan

# irreducible moduli (ascending coefficients) with the unit t
GF_TABLES = {
    "GF4": (2, (1, 1, 1)), "GF8a": (2, (1, 1, 0, 1)), "GF8b": (2, (1, 0, 1, 1)),
    "GF9": (3, (1, 0, 1)), "GF16": (2, (1, 1, 0, 0, 1)),
    "GF25": (5, (2, 0, 1)), "GF27": (3, (1, 2, 0, 1)),
    "GF32": (2, (1, 0, 1, 0, 0, 1)),
}
DIHEDRAL_ORDERS = (3, 5, 7, 9, 11, 13, 15, 21, 27, 33, 39, 45)
ALEXANDER_PER_ORDER = 2
CONNECTED_COUNTS = (1, 0, 1, 1, 3, 2)          # OEIS A181771, orders 1..6
EXTENSION_BASES = (("R3", 3), ("S4", 2), ("R5", 5), ("Z5_2", 5))
LOOP_CHECKED_PAIRS = 48


def census_words() -> list[str]:
    return ["abab"] + [w.text for k in (5, 6, 7)
                       for w in enumerate_words(k, 2, "nontrivial_candidates")]


def setup_census(ctx: Context):
    data = ctx.directory / "corpus"
    data.mkdir()
    sub = Context(ctx.seed, data)
    rng = random.Random(f"{ctx.seed}/alexander-sample")
    for n in range(3, 48, 2):
        units = [t for t in range(2, n)
                 if math.gcd(t, n) == 1 and math.gcd(t - 1, n) == 1]
        for t in sorted(rng.sample(units, min(ALEXANDER_PER_ORDER, len(units)))):
            write_table(sub, f"Q_{n}_{t}_alexander", qc.alexander_zn(n, t),
                        alexander=(n, t))
    for n in DIHEDRAL_ORDERS:
        write_table(sub, f"Q_{n}_0_dihedral", qc.dihedral(n),
                    alexander=(n, n - 1))
    for name, (p, modulus) in GF_TABLES.items():
        X = qc.alexander_poly(p, modulus, (0, 1))
        write_table(sub, f"Q_{X.order}_0_{name}", X)
    for m, k, p in ((1, 2, 3), (2, 2, 3)):
        X = qc.burnside_family(m, k, p)
        write_table(sub, f"Q_{X.order}_0_burnside{m}{k}{p}", X)
    counts = []
    for order in range(1, 7):
        found = qc.enumerate_connected(order)
        counts.append(len(found))
        for i, X in enumerate(found):
            write_table(sub, f"Q_{order}_{i + 1}_connected", X)
    ctx.extra["connected_counts"] = tuple(counts)
    ctx.tables = sub.tables
    ctx.extra["dataset"] = str(data)
    ctx.extra["ext"] = [
        (name, oracles.relabel(X.rows, permutation(ctx.seed, name, X.order)), d)
        for name, d in EXTENSION_BASES
        for X in [LADDER_TABLES[name]()]]


def setup_problems(ctx: Context) -> Optional[str]:
    got = ctx.extra.get("connected_counts")
    if got is not None and got != CONNECTED_COUNTS:
        return f"connected quandle counts {got}, want {CONNECTED_COUNTS}"
    return None


def _scan_check(ctx: Context, words: list[str]):
    def check(res: dict) -> Optional[str]:
        sat = {w: set(names) for w, names in res["satisfied_by"].items()}
        if res["words"] != words:
            return "scan reported another word list"
        for j, w in enumerate(words):
            if res["counts"][j] != len(sat[w]):
                return f"count of {w} disagrees with its list"
        tau = {w: parse_word(w).tau for w in words}
        for tab in ctx.tables.values():
            if tab.alexander is None:
                continue
            n, t = tab.alexander
            for w in words:
                want = oracles.alexander_word_holds(n, t, tau[w])
                if (f"{tab.name}.txt" in sat[w]) != want:
                    return f"{tab.name} on {w}: closed form says {want}"
        others = sorted(n for n, tab in ctx.tables.items()
                        if tab.alexander is None)
        rng = random.Random(f"{ctx.seed}/loop-pairs")
        for _ in range(LOOP_CHECKED_PAIRS):
            name, w = rng.choice(others), rng.choice(words)
            want = ctx.oracle(("loop", name, w), lambda: oracles.word_holds(
                ctx.tables[name].rows, tau[w]))
            if (f"{name}.txt" in sat[w]) != want:
                return f"{name} on {w}: plain loop says {want}"
        return None
    return check


def _info_check(ctx: Context, tab: Table):
    def check(res: dict) -> Optional[str]:
        if tab.alexander is not None:
            want = oracles.alexander_invariants(*tab.alexander)
        else:
            want = dict(ctx.oracle(("inv", tab.name),
                                   lambda: oracles.invariants(tab.rows)))
            # affine tables are medial; the loop is O(n^4), so it runs on
            # the small enumerated tables only
            want["is_medial"] = (oracles.is_medial(tab.rows)
                                 if "connected" in tab.name else True)
        for key, val in want.items():
            if res[key] != val:
                return f"{tab.name} {key}: got {res[key]!r}, want {val!r}"
        return None
    return check


def jobs_census(ctx: Context) -> list[Job]:
    words = census_words()
    argv = ["scan", "--dataset", ctx.extra["dataset"]]
    for w in words:
        argv += ["--word", w]
    jobs = [cli_job("scan_s", "scan corpus", argv, _scan_check(ctx, words))]
    for name, tab in sorted(ctx.tables.items()):
        jobs.append(cli_job("invariants_s", f"info {name}",
                            ["info", tab.path], _info_check(ctx, tab)))
    for name, rows, d in ctx.extra["ext"]:
        jobs.extend(_extension_jobs(name, rows, d))
    jobs.append(cli_job("reproduce_s", "reproduce builtin",
                        ["reproduce", "builtin"], _reproduce_check))
    return jobs


def _extension_jobs(name: str, rows, d: int) -> list[Job]:
    """One job per member of the quandle cocycle space mod d, checking the
    word a^type, which every table satisfies; the space and the specs are
    built once, before any timed call."""
    X = make_table(rows)
    word = parse_word("a" * oracles.table_type(rows))
    space = cocycle_space(X, d, mode="quandle")
    jobs = []
    for i, member in enumerate(space.members()):
        spec = ExtensionSpec(X, d, member)
        jobs.append(Job(
            "extensions_s", f"extension {name} mod {d} #{i}",
            lambda spec=spec: qext.check_extension_identity(spec, word),
            lambda rep, i=i: None if rep.agree else
            f"{name} mod {d} member {i}: extension and cocycle disagree"))
    return jobs


def _reproduce_check(res: dict) -> Optional[str]:
    bad = [s["name"] for s in res["sections"] if s["status"] != "pass"]
    return f"sections not passing: {bad}" if bad else None


# ================================================================= probe

def setup_probe(ctx: Context):
    """One small table outside the workload's own set of tables."""
    own = Context(ctx.seed, ctx.directory)
    ctx.extra["probe"] = write_table(own, "probe_R3", qc.dihedral(3),
                                     alexander=(3, 2))


def jobs_probe(ctx: Context) -> list[Job]:
    """One small job of every kind on dihedral(3), the same in every
    workload, so that every layer is exercised, and timed, everywhere."""
    tab = ctx.extra["probe"]
    words = ["aa", "abab"]

    def check_scan(res):
        sat = {w: bool(names) for w, names in res["satisfied_by"].items()}
        return _expect("probe scan", sat, {
            w: oracles.alexander_word_holds(3, 2, parse_word(w).tau)
            for w in words})

    X = make_table(tab.rows)
    spec = ExtensionSpec(X, 3, next(cocycle_space(X, 3).members()))
    aa = parse_word("aa")
    return [
        cli_job("probe_s", "probe info", ["info", tab.path],
                _info_check(ctx, tab)),
        cli_job("probe_s", "probe scan",
                ["scan", tab.path, "--word", words[0], "--word", words[1]],
                check_scan),
        cli_job("probe_s", "probe homology",
                ["homology", tab.path, "--complex", "quandle", "--degree", "2"],
                _homology_check(ctx, tab, "quandle", 2)),
        cli_job("probe_s", "probe cocycles", ["cocycles", tab.path, "--mod", "3"],
                _cocycle_check(ctx, tab, 3, "quandle")),
        *_identity_jobs(ctx, tab, "aa", kinds=("probe_s", "probe_s")),
        Job("probe_s", "probe extension",
            lambda: qext.check_extension_identity(spec, aa),
            lambda rep: None if rep.agree else "probe extension disagrees"),
        Job("probe_s", "probe enumeration",
            lambda: qc.enumerate_connected(3),
            lambda found: _expect("connected quandles of order 3",
                                  len(found), CONNECTED_COUNTS[2])),
    ]


WORKLOADS = {
    "homology_ladder": (setup_ladder, jobs_ladder),
    "identity_closure": (setup_identity, jobs_identity),
    "census_scan": (setup_census, jobs_census),
}
