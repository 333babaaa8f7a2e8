import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (chain_vector, loop_boundary, loop_identity_generators,
                     relabelled)
from quandlehom.chains import (FormalChain, boundary, face, format_chain,
                               identity_cycle, in_span, medial_cycle,
                               subcomplex_generators, tuple_index)
from quandlehom.core import digits, make_table, product
from quandlehom.constructions import (alexander_zn, conjugation, dihedral,
                                      trivial)
from quandlehom.homology import CocycleTable, evaluate_cocycle, homology
from quandlehom.linalg import IntLattice
from quandlehom.shell import corpus
from quandlehom.identities import Assignment, parse_word
from quandlehom.errors import (DegreeMismatch, DegreeTooSmall,
                               IdentityNotSatisfied, IndexOutOfRange,
                               NotMedial, SizeGuardExceeded)


def apply_face(X, chain, h, kind):
    out = {}
    for tup, coef in chain.items():
        t = face(X, tup, h, kind)
        out[t] = out.get(t, 0) + coef
    return FormalChain(chain.degree - 1, out)


def test_face_examples(dih3):
    assert face(dih3, (0, 1), 2, "d") == (0,)
    assert face(dih3, (0, 1), 2, "delta") == (2,)       # 0*1 = 2
    assert face(dih3, (0, 1), 1, "delta") == (1,)
    assert face(dih3, (0, 1), 1, "d") == (1,)
    with pytest.raises(IndexOutOfRange):
        face(dih3, (0, 1), 3, "d")


def test_boundary_examples(dih3):
    assert boundary(dih3, FormalChain.of((0, 0))).is_zero()
    b = boundary(dih3, FormalChain.of((0, 1)))
    assert b.terms == {(0,): 1, (2,): -1}
    b1 = boundary(dih3, FormalChain.of((2,)))
    assert b1.degree == 0 and b1.is_zero()


def test_boundary_of_wide_coefficients_matches_the_loop(dih3, az52, oct_a):
    """Coefficients beyond 2^63, and sums of them, stay exact: the boundary
    equals the oracle's dict loop at degrees 2-5."""
    rng = random.Random(5)
    for X in (dih3, az52, oct_a):
        for deg in (2, 3, 4, 5):
            for _ in range(6):
                terms = {tuple(rng.randrange(X.order) for _ in range(deg)):
                         rng.choice((-1, 1)) * rng.getrandbits(200)
                         + rng.randint(-3, 3) for _ in range(6)}
                c = FormalChain(deg, terms)
                assert boundary(X, c) == loop_boundary(X, c)
    big = FormalChain.of((0, 1), 2 ** 64 + 1)
    assert boundary(dih3, big).terms == {(0,): 2 ** 64 + 1,
                                         (2,): -2 ** 64 - 1}


def test_boundary_squared_zero(dih3, az52, oct_a):
    rng = random.Random(1)
    for X in (dih3, az52, oct_a):
        for deg in (2, 3, 4, 5):
            for _ in range(8):
                terms = {tuple(rng.randrange(X.order) for _ in range(deg)):
                         rng.randint(-3, 3) for _ in range(6)}
                c = FormalChain(deg, terms)
                assert boundary(X, boundary(X, c)).is_zero()


def test_identity_cycle_examples(dih3, az52):
    aa = parse_word("aa")
    L = identity_cycle(dih3, aa, Assignment(0, (1,)))
    assert L.terms == {(0, 1): 1, (2, 1): 1}
    assert boundary(dih3, L).is_zero()

    abab = parse_word("abab")
    L = identity_cycle(az52, abab, Assignment(2, (2, 2)))
    assert L.terms == {(2, 2): 4}                  # all-equal values pile up
    assert boundary(az52, L).is_zero()

    L = identity_cycle(az52, abab, Assignment(0, (1, 0)))
    assert sum(abs(c) for c in L.terms.values()) == 4
    assert boundary(az52, L).is_zero()


def test_identity_cycle_all_assignments(dih3, az52, gf4):
    cases = [(dih3, "aa"), (dih3, "aabb"), (az52, "abab"), (gf4, "aaa")]
    for X, text in cases:
        w = parse_word(text)
        for ys in itertools.product(range(X.order), repeat=w.letters):
            for x in range(X.order):
                L = identity_cycle(X, w, Assignment(x, ys))
                assert boundary(X, L).is_zero()


@pytest.mark.parametrize("x, ys", [(-1, (0,)), (0, (3,)), (3, (0,))])
def test_identity_cycle_rejects_values_out_of_range(dih3, x, ys):
    """A value outside 0..n-1 is an error, not a wrapped-around index."""
    with pytest.raises(IndexOutOfRange):
        identity_cycle(dih3, parse_word("aa"), Assignment(x, ys))


def test_chain_entries_out_of_range_raise_rather_than_alias(dih3):
    """On dihedral(3) (0, 3) has the flat index of (1, 0) and (0, -1) that
    of (-1,): the boundary, span membership and cocycle pairing of a chain
    with such an entry raise IndexOutOfRange, and answer in range."""
    gens = subcomplex_generators(dih3, 2, parse_word("aa"))
    phi = CocycleTable(0, ((0, 1, 2), (3, 4, 5), (6, 7, 8)))
    for call in (lambda: boundary(dih3, FormalChain.of((0, 3))),
                 lambda: boundary(dih3, FormalChain.of((0, -1))),
                 lambda: in_span(FormalChain.of((0, 3)), gens),
                 lambda: evaluate_cocycle(phi, FormalChain.of((-1, 0)))):
        with pytest.raises(IndexOutOfRange):
            call()
    assert boundary(dih3, FormalChain.of((1, 0))) == \
        FormalChain(1, {(1,): 1, (2,): -1})
    assert in_span(FormalChain.of((1, 1), 2), gens)
    assert evaluate_cocycle(phi, FormalChain.of((2, 0), 2)) == 12


def test_identity_cycle_strict_and_permissive(dih3):
    abab = parse_word("abab")
    with pytest.raises(IdentityNotSatisfied):
        identity_cycle(dih3, abab, Assignment(0, (0, 1)))
    for ys in itertools.product(range(3), repeat=2):
        for x in range(3):
            L = identity_cycle(dih3, abab, Assignment(x, ys), permissive=True)
            end = product(dih3, x, [ys[t] for t in abab.tau])
            expect = {} if end == x else {(x,): 1, (end,): -1}
            assert boundary(dih3, L).terms == expect


def test_medial_cycle(dih3, az52):
    assert medial_cycle(dih3, 0, 0, 0, 0).is_zero()
    assert boundary(dih3, medial_cycle(dih3, 0, 1, 2, 0)).is_zero()
    rng = random.Random(3)
    for X in (dih3, az52):
        for _ in range(25):
            q = [rng.randrange(X.order) for _ in range(4)]
            assert boundary(X, medial_cycle(X, *q)).is_zero()


def test_medial_cycle_rejects_nonmedial():
    perms = sorted(itertools.permutations(range(3)))
    perms.remove((0, 1, 2))
    perms = [(0, 1, 2)] + perms
    idx = {p: i for i, p in enumerate(perms)}
    cayley = [[idx[tuple(p[q[i]] for i in range(3))] for q in perms]
              for p in perms]
    CQ = conjugation(cayley)
    with pytest.raises(NotMedial):
        medial_cycle(CQ, 0, 1, 2, 3)
    medial_cycle(CQ, 0, 1, 2, 3, permissive=True)


def test_medial_cycle_above_order_64():
    """Mediality is decided wherever its scan fits, so Z67 with t = 2 gets
    its cycle; on trivial(65) the refused scan is raised, not read as
    NotMedial, and permissive skips it."""
    X = alexander_zn(67, 2)
    assert boundary(X, medial_cycle(X, 0, 1, 2, 3)).is_zero()
    with pytest.raises(SizeGuardExceeded):
        medial_cycle(trivial(65), 0, 1, 2, 3)
    assert medial_cycle(trivial(65), 0, 1, 2, 3, permissive=True).is_zero()


def test_subcomplex_generators_need_degree_two(triv2):
    with pytest.raises(DegreeTooSmall):
        subcomplex_generators(triv2, 1, parse_word("aa"))


def test_identity_generators_degree2_shape(gf4):
    aaa = parse_word("aaa")
    gs = subcomplex_generators(gf4, 2, word=aaa)
    rows = gf4.rows
    for ch, (j, xs, ys) in zip(gs.chains, gs.provenance):
        assert j == 1
        x, y = xs[0], ys[0]
        expect = {}
        for tup in ((x, y), (rows[x][y], y), (rows[rows[x][y]][y], y)):
            expect[tup] = expect.get(tup, 0) + 1
        assert ch.terms == expect


def test_identity_generator_matches_worked_degree4_example(gf4):
    # c = (x1,x2,y,x4) + (x1*y, x2*y, y, x4) + (x1*y*y, x2*y*y, y, x4)
    aaa = parse_word("aaa")
    gs = subcomplex_generators(gf4, 4, word=aaa)
    by_prov = {(j, xs, ys): ch for ch, (j, xs, ys) in
               zip(gs.chains, gs.provenance)}
    ch = by_prov.get((2, (0, 1, 3), (2,)))
    assert ch is not None
    r = gf4.rows
    x1, x2, y, x4 = 0, 1, 2, 3
    expect = {(x1, x2, y, x4): 1,
              (r[x1][y], r[x2][y], y, x4): 1,
              (r[r[x1][y]][y], r[r[x2][y]][y], y, x4): 1}
    assert ch.terms == expect


def test_worked_degree4_boundary_pieces(gf4):
    """The four face pieces of the degree-4 shifted generator for the cubing
    identity: plain-2 and twisted-2 land on degree-3 generators, the h=3
    difference cancels, and both h=4 pieces are generators."""
    aaa = parse_word("aaa")
    gs3 = subcomplex_generators(gf4, 3, word=aaa)
    gen3_set = {frozenset(c.terms.items()) for c in gs3.chains}
    r = gf4.rows

    def tup_chain(*tups):
        out = {}
        for t in tups:
            out[t] = out.get(t, 0) + 1
        return FormalChain(len(tups[0]), out)

    for x1, x2, y, x4 in itertools.product(range(4), repeat=4):
        cur = [x1, x2]
        tups = [(cur[0], cur[1], y, x4)]
        for _ in range(2):
            cur = [r[v][y] for v in cur]
            tups.append((cur[0], cur[1], y, x4))
        c = tup_chain(*tups)

        d2 = apply_face(gf4, c, 2, "d")
        expect = tup_chain((x1, y, x4),
                           (r[x1][y], y, x4),
                           (r[r[x1][y]][y], y, x4))
        assert d2 == expect
        assert frozenset(d2.terms.items()) in gen3_set

        dl2 = apply_face(gf4, c, 2, "delta")
        x12 = r[x1][x2]
        expect = tup_chain((x12, y, x4),
                           (r[x12][y], y, x4),
                           (r[r[x12][y]][y], y, x4))
        assert dl2 == expect
        assert frozenset(dl2.terms.items()) in gen3_set

        h3 = apply_face(gf4, c, 3, "d") - apply_face(gf4, c, 3, "delta")
        assert h3.is_zero()

        d4 = apply_face(gf4, c, 4, "d")
        assert frozenset(d4.terms.items()) in gen3_set
        dl4 = apply_face(gf4, c, 4, "delta")
        x1p, x2p, yp = r[x1][x4], r[x2][x4], r[y][x4]
        expect = tup_chain((x1p, x2p, yp),
                           (r[x1p][yp], r[x2p][yp], yp),
                           (r[r[x1p][yp]][yp], r[r[x2p][yp]][yp], yp))
        assert dl4 == expect
        assert frozenset(dl4.terms.items()) in gen3_set

        assert in_span(boundary(gf4, c), gs3)


def test_in_span_examples(dih3):
    aa = parse_word("aa")
    gens = subcomplex_generators(dih3, 2, word=aa)
    assert in_span(FormalChain.zero(2), gens)
    assert not in_span(FormalChain.of((0, 1)), gens)
    with pytest.raises(DegreeMismatch):
        in_span(FormalChain.of((0, 1, 2)), gens)


def test_generator_dedup(gf4):
    aaa = parse_word("aaa")
    gs = subcomplex_generators(gf4, 2, word=aaa)
    keys = {frozenset(c.terms.items()) for c in gs.chains}
    assert len(keys) == len(gs.chains) == 8


def test_size_guard_counts_the_identity_rows(dih3):
    """The identity guard counts the (slot, entries, letters) rows that
    would be enumerated, not the n^degree tuples: abcabc on
    alexander_zn(7,3) at degree 4 has 2,401 tuples but 3 * 7^6 rows."""
    with pytest.raises(SizeGuardExceeded) as err:
        subcomplex_generators(alexander_zn(7, 3), 4, parse_word("abcabc"))
    assert (err.value.needed, err.value.guard) == (352_947, 200_000)
    abab = parse_word("abab")
    # 27 tuples, 2 * 3^4 = 162 rows
    rows = 162
    with pytest.raises(SizeGuardExceeded) as err:
        subcomplex_generators(dih3, 3, abab, size_guard=rows - 1)
    assert (err.value.needed, err.value.guard) == (rows, rows - 1)
    assert len(subcomplex_generators(dih3, 3, abab, size_guard=rows)) > 0


def test_format_chain(dih3):
    aa = parse_word("aa")
    L = identity_cycle(dih3, aa, Assignment(0, (1,)))
    assert format_chain(L) == "(1,2) + (3,2)"
    c = FormalChain(2, {(0, 1): -2, (1, 2): 1})
    assert format_chain(c) == "- 2*(1,2) + (2,3)"
    assert format_chain(FormalChain.zero(2)) == "0"


def test_chain_algebra():
    a = FormalChain.of((0, 1))
    b = FormalChain.of((0, 1), -1)
    assert (a + b).is_zero()
    assert (2 * a).terms == {(0, 1): 2}
    assert (a - a).is_zero()
    with pytest.raises(DegreeMismatch):
        a + FormalChain.of((0, 1, 2))


def test_identity_cycle_closed_forms(az52, gf4):
    # single-letter word a^k: the cycle is sum of (x *^i y, y) for i < k
    aaa = parse_word("aaa")
    for x in range(4):
        for y in range(4):
            L = identity_cycle(gf4, aaa, Assignment(x, (y,)))
            expect = {}
            cur = x
            for _ in range(3):
                expect[(cur, y)] = expect.get((cur, y), 0) + 1
                cur = gf4.rows[cur][y]
            assert L.terms == expect
    # repeated-pair word (y1 y2)^k: alternating prefix pairs
    abab = parse_word("abab")
    for x in range(5):
        for y1 in range(5):
            for y2 in range(5):
                L = identity_cycle(az52, abab, Assignment(x, (y1, y2)))
                expect = {}
                cur = x
                for _ in range(2):
                    expect[(cur, y1)] = expect.get((cur, y1), 0) + 1
                    cur = az52.rows[cur][y1]
                    expect[(cur, y2)] = expect.get((cur, y2), 0) + 1
                    cur = az52.rows[cur][y2]
                assert L.terms == expect


def test_permissive_medial_cycle_detects_failure():
    # on a non-medial table some quadruple's 4-term chain has nonzero boundary
    perms = sorted(itertools.permutations(range(3)))
    perms.remove((0, 1, 2))
    perms = [(0, 1, 2)] + perms
    idx = {p: i for i, p in enumerate(perms)}
    cayley = [[idx[tuple(p[q[i]] for i in range(3))] for q in perms]
              for p in perms]
    from quandlehom.constructions import conjugation
    CQ = conjugation(cayley)
    broken = False
    for quad in itertools.product(range(6), repeat=4):
        mc = medial_cycle(CQ, *quad, permissive=True)
        if not boundary(CQ, mc).is_zero():
            broken = True
            break
    assert broken


NON_QUANDLE_RACKS = ([[1, 1, 1], [0, 0, 0], [2, 2, 2]],
                     [[1, 1, 1], [2, 2, 2], [0, 0, 0]])    # x*y = x+1 mod 3
GENERATOR_WORDS = ("aa", "aaa", "abab", "aabb", "abba", "aab")
LOOP_BUDGET = 1_000      # (xs, ys) rows per letter slot; larger spans skipped


def _generator_tables():
    """Every corpus table, a relabelled copy of each, and two racks that are
    not quandles."""
    rng = random.Random(17)
    tables = [make_table(rows, require="rack") for rows in NON_QUANDLE_RACKS]
    for _name, X in corpus():
        perm = list(range(X.order))
        rng.shuffle(perm)
        tables += [X, relabelled(X, perm)]
    return tables


GENERATOR_TABLES = _generator_tables()


def test_identity_generators_match_the_loop():
    """The array build gives the plain loop's chains in the same order, term
    order within a chain included, the same provenance and the same count,
    for degrees 2-4."""
    checked = 0
    for X in GENERATOR_TABLES:
        for text in GENERATOR_WORDS:
            w = parse_word(text)
            for degree in (2, 3, 4):
                if X.order ** (degree - 1 + w.letters) > LOOP_BUDGET:
                    continue
                gs = subcomplex_generators(X, degree, word=w)
                chains, prov = loop_identity_generators(X, w, degree)
                assert len(gs) == len(chains)
                assert [list(c.items()) for c in gs.chains] == \
                    [list(c.items()) for c in chains]
                assert gs.provenance == tuple(prov)
                checked += 1
    assert checked == 348


def _contains_basis(lat, other):
    return all(lat.contains(row) for row in other.sparse_basis())


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_recursive_span_equals_the_span_of_all_chains(data):
    """From degree 3 on, the lattice is built from the lower span's basis
    with an element appended plus the slot-last generators; it and the
    lattice of every generator contain each other's bases."""
    X = data.draw(st.sampled_from([T for T in GENERATOR_TABLES
                                   if T.order <= 5]))
    w = parse_word(data.draw(st.sampled_from(GENERATOR_WORDS)))
    degree = data.draw(st.sampled_from(
        [d for d in (3, 4) if X.order ** (d - 1 + w.letters) <= 625]))
    gs = subcomplex_generators(X, degree, word=w)
    full = IntLattice(X.order ** degree)
    for chain in gs.chains:
        full.add(chain_vector(chain, X.order))
    assert _contains_basis(full, gs.lattice)
    assert _contains_basis(gs.lattice, full)
    assert gs.lattice.rank == full.rank


@pytest.mark.parametrize("X, text, rank", [
    (dihedral(7), "aaabba", 259), (dihedral(7), "aaaabb", 259),
    (alexander_zn(7, 5), "abbabb", 337),
], ids=["R7-aaabba", "R7-aaaabb", "Z7_5-abbabb"])
def test_order7_degree3_spans_do_not_depend_on_labels(X, text, rank):
    """Under natural labels and three seeded relabellings, the degree-3
    span keeps its rank, its boundary stays in the degree-2 span, identity
    H2 stays Z, and the recursive span and the flat span of every loop
    generator contain each other's bases."""
    w = parse_word(text)
    tables = [X] + [relabelled(X, random.Random(seed).sample(range(X.order),
                                                             X.order))
                    for seed in (1, 2, 3)]
    for T in tables:
        gs = subcomplex_generators(T, 3, word=w)
        assert gs.lattice.rank == rank
        gs.boundary_rows()           # raises when closure fails
        h2 = homology(T, "identity", 2, word=w)
        assert (h2.free_rank, h2.torsion) == (1, ())
        chains, _ = loop_identity_generators(T, w, 3)
        flat = IntLattice(T.order ** 3)
        for chain in chains:
            flat.add(chain_vector(chain, T.order))
        assert _contains_basis(flat, gs.lattice)
        assert _contains_basis(gs.lattice, flat)


def test_digits_round_trip_with_the_tuple_index():
    """Width 0 is the degree-0 basis: one empty tuple."""
    for order in range(1, 8):
        for width in range(5):
            count = order ** width
            tups = digits(np.arange(count), order, width)
            assert tups.shape == (count, width)
            assert [tuple_index(t, order) for t in tups.tolist()] \
                == list(range(count))
