"""Acceptance suite: one test per exit criterion, each printing a PASS line
with its runtime and asserting the stated budget.

Criterion 9 needs the catalogue of 790 connected-quandle matrices; point
QUANDLEHOM_DATASET at a directory of them (left-distributive, as published)
to enable it, otherwise it reports SKIPPED.
"""

import itertools
import os
import random
import time

import pytest

from oracles import (kernel_basis, lattice_from_rows, mat_mul,
                     naive_invariant_factors, sparse, sparse_rows,
                     transform_smith)

from quandlehom import censusdata
from quandlehom.chains import (FormalChain, boundary, identity_cycle,
                               in_span, medial_cycle, subcomplex_generators)
from quandlehom.core import is_connected, is_medial, quandle_type
from quandlehom.extensions import ExtensionSpec, check_extension_identity, extend
from quandlehom.homology import (CocycleTable, boundary_matrix,
                                 cocycle_condition_holds, cocycle_space,
                                 evaluate_cocycle, homology)
from quandlehom.identities import (Assignment, enumerate_words,
                                   consecutive_type_bound, forces_triviality,
                                   parse_word, satisfies, two_letter_universe)
from quandlehom.linalg import smith_normal_form
from quandlehom.constructions import (PolyRing, alexander_poly, burnside_family,
                                      enumerate_connected,
                                      repetition_polynomial, affine_satisfies)
from quandlehom.shell import (corpus, load_dataset, reproduce_exponents,
                              reproduce_length4, reproduce_length5,
                              reproduce_length6, reproduce_length7_dataset,
                              reproduce_types)


class Budget:
    def __init__(self, number, name, seconds):
        self.number, self.name, self.seconds = number, name, seconds
        self.started = time.time()

    def done(self, status="PASS", extra=""):
        elapsed = time.time() - self.started
        print(f"ACCEPTANCE {self.number:02d} {self.name}: {status} "
              f"({elapsed:.1f}s / budget {self.seconds}s){extra}")
        assert elapsed < self.seconds, f"over budget: {elapsed:.1f}s"


def test_criterion_01_length7_families():
    budget = Budget(1, "length-7 word families", 10)
    cands = enumerate_words(7, 2, filter="nontrivial_candidates")
    assert len(cands) == censusdata.LENGTH7_SURVIVOR_COUNT == 42
    sat = {}
    for modulus in ((1, 0, 1, 1), (1, 1, 0, 1)):
        X = alexander_poly(2, modulus, (0, 1))
        sat[modulus] = frozenset(
            w.text for w in cands if satisfies(X, w).satisfied)
    # exactly one known family each, and they are disjoint
    assert sat[(1, 0, 1, 1)] == frozenset(censusdata.LENGTH7_FAMILY_B)
    assert sat[(1, 1, 0, 1)] == frozenset(censusdata.LENGTH7_FAMILY_A)
    assert len(sat[(1, 0, 1, 1)]) == len(sat[(1, 1, 0, 1)]) == 7
    assert not sat[(1, 0, 1, 1)] & sat[(1, 1, 0, 1)]
    budget.done(extra="  [each polynomial satisfies exactly one 7-word"
                      " family, fixed by exhaustive scan]")


def test_criterion_02_length4_order5():
    budget = Budget(2, "length-4 scan on order-5 quandles", 10)
    abab = parse_word("abab")
    order5 = enumerate_connected(5)
    assert len(order5) == 3
    non_kei = [X for X in order5 if quandle_type(X) != 2]
    keis5 = [X for X in order5 if quandle_type(X) == 2]
    assert len(non_kei) == 2 and len(keis5) == 1
    for X in non_kei:
        assert satisfies(X, abab).satisfied
    for X in keis5:
        assert not satisfies(X, abab).satisfied
    for name, X in corpus():
        if quandle_type(X) == 2:
            assert not satisfies(X, abab).satisfied, name
    budget.done()


def test_criterion_03_identity_cycles_everywhere():
    budget = Budget(3, "two-cycles for all satisfied words", 60)
    words = two_letter_universe(7)
    assert len(words) == 127
    checked = 0
    for name, X in corpus():
        n = X.order
        for w in words:
            if not satisfies(X, w).satisfied:
                continue
            for ys in itertools.product(range(n), repeat=w.letters):
                for x in range(n):
                    cyc = identity_cycle(X, w, Assignment(x, ys))
                    assert boundary(X, cyc).is_zero(), (name, w.text, x, ys)
                    checked += 1
    assert checked > 10_000
    budget.done(extra=f"  [{checked} cycles]")


def test_criterion_04_subcomplex_closure_and_worked_example(gf4):
    budget = Budget(4, "subcomplex closure degrees 2-4", 120)
    checked = 0
    for name, X in corpus():
        if X.order > 5:
            continue
        for w in two_letter_universe(4):
            if not satisfies(X, w).satisfied:
                continue
            gens = {d: subcomplex_generators(X, "identity", d, word=w)
                    for d in (2, 3, 4)}
            for ch in gens[2].chains:
                assert boundary(X, ch).is_zero(), (name, w.text)
                checked += 1
            for d in (3, 4):
                low = gens[d - 1]
                for ch in gens[d].chains:
                    assert in_span(boundary(X, ch), low), (name, w.text, d)
                    checked += 1

    # worked degree-4 example on a cubing-identity quandle: the plain-2,
    # twisted-2 and both h=4 pieces are degree-3 generators, h=3 cancels
    aaa = parse_word("aaa")
    gens3 = subcomplex_generators(gf4, "identity", 3, word=aaa)
    gen3_keys = {frozenset(c.terms.items()) for c in gens3.chains}
    r = gf4.rows

    def faces(chain, h, kind):
        from quandlehom.chains import face
        out = {}
        for tup, coef in chain.items():
            t = face(gf4, tup, h, kind)
            out[t] = out.get(t, 0) + coef
        return FormalChain(chain.degree - 1, out)

    for x1, x2, y, x4 in itertools.product(range(4), repeat=4):
        terms = {}
        cur = (x1, x2)
        for _ in range(3):
            tup = (cur[0], cur[1], y, x4)
            terms[tup] = terms.get(tup, 0) + 1
            cur = (r[cur[0]][y], r[cur[1]][y])
        c = FormalChain(4, terms)
        d2 = faces(c, 2, "d")
        dl2 = faces(c, 2, "delta")
        x12 = r[x1][x2]
        assert dl2.terms == {
            t: c2 for t, c2 in
            [((x12, y, x4), 1), ((r[x12][y], y, x4), 1),
             ((r[r[x12][y]][y], y, x4), 1)]
        } or sum(dl2.terms.values()) == 3
        assert frozenset(d2.terms.items()) in gen3_keys
        assert frozenset(dl2.terms.items()) in gen3_keys
        assert (faces(c, 3, "d") - faces(c, 3, "delta")).is_zero()
        assert frozenset(faces(c, 4, "d").terms.items()) in gen3_keys
        assert frozenset(faces(c, 4, "delta").terms.items()) in gen3_keys
        assert in_span(boundary(gf4, c), gens3)
        checked += 1
    budget.done(extra=f"  [{checked} boundaries]")


def test_criterion_05_extension_equivalence_dual_enumeration(dih3):
    budget = Budget(5, "extension/cocycle equivalence", 60)
    space = cocycle_space(dih3, 3, mode="quandle")
    solved = {m.values for m in space.members()}
    brute = set()
    for vals in itertools.product(range(3), repeat=9):
        tab = CocycleTable(modulus=3,
                           values=(vals[0:3], vals[3:6], vals[6:9]))
        if cocycle_condition_holds(dih3, tab, mode="quandle"):
            brute.add(tab.values)
    assert solved == brute
    assert len(solved) == space.size == 9
    aa = parse_word("aa")
    for member in (CocycleTable(modulus=3, values=v) for v in sorted(solved)):
        rep = check_extension_identity(ExtensionSpec(dih3, 3, member), aa)
        assert rep.agree
    budget.done(extra=f"  [space of {space.size} members, both routes]")


def test_criterion_06_homology_sanity(dih3):
    budget = Budget(6, "homology machine sanity", 120)
    # boundary compositions vanish on every complex flavor computed
    degree_pairs = [(2, 3)]
    for name, X in corpus():
        pairs = degree_pairs + ([(3, 4)] if X.order <= 5 else [])
        for cx in ("rack", "quandle", "degenerate"):
            for dlo, dhi in pairs:
                b_lo = boundary_matrix(X, cx, dlo)
                b_hi = boundary_matrix(X, cx, dhi)
                if b_lo.shape[0] and b_hi.shape[1]:
                    prod = mat_mul([list(r) for r in b_lo.matrix],
                                   [list(r) for r in b_hi.matrix])
                    assert all(v == 0 for row in prod for v in row), (name, cx)
    for X, text in ((dih3, "aa"), (dih3, "aabb")):
        w = parse_word(text)
        b3 = boundary_matrix(X, "identity", 3, word=w)
        b4 = boundary_matrix(X, "identity", 4, word=w)
        if b3.shape[0] and b4.shape[1]:
            prod = mat_mul([list(r) for r in b3.matrix],
                           [list(r) for r in b4.matrix])
            assert all(v == 0 for row in prod for v in row)
        # identity complexes have no external reference values; their groups
        # are checked property-wise: rank bookkeeping must close exactly
        for deg in (2, 3):
            h = homology(X, "identity", deg, word=w)
            bn = boundary_matrix(X, "identity", deg, word=w)
            bn1 = boundary_matrix(X, "identity", deg + 1, word=w)
            dim = len(bn.col_basis)
            r_n = smith_normal_form(bn.sparse_rows, dim).rank
            r_up = smith_normal_form(bn1.sparse_rows,
                                     len(bn1.col_basis)).rank
            assert h.free_rank == dim - r_n - r_up >= 0
            for t in h.torsion:
                assert t > 1

    # H1 of the full complex is Z for every connected corpus member
    for name, X in corpus():
        if is_connected(X):
            h = homology(X, "rack", 1)
            assert h.free_rank == 1 and not h.torsion, name

    # H2 of the quotient complex of dihedral(3), by two routes
    route_a = homology(dih3, "quandle", 2)
    b2 = boundary_matrix(dih3, "rack", 2)
    b3 = boundary_matrix(dih3, "rack", 3)
    kern = kernel_basis([list(r) for r in b2.matrix])
    lat = lattice_from_rows(kern, 9)
    cols = [[b3.matrix[i][j] for i in range(9)]
            for j in range(len(b3.col_basis))]
    for x in range(3):
        vec = [0] * 9
        vec[chain_index := b2.col_basis.index((x, x))] = 1
        cols.append(vec)
    coord_cols = []
    for v in cols:
        coords = lat.coordinates(sparse(v))
        assert coords is not None
        coord_cols.append(coords)
    presentation = [list(row) for row in zip(*coord_cols)]
    snf = smith_normal_form(*sparse_rows(presentation))
    route_b = (len(kern) - snf.rank,
               tuple(d for d in snf.invariant_factors if d > 1))
    assert (route_a.free_rank, route_a.torsion) == route_b
    assert route_a.is_trivial

    # Smith form versus the naive elimination oracle on random matrices
    rng = random.Random(20260808)
    for _ in range(200):
        m = rng.randint(1, 12)
        n = rng.randint(1, 12)
        mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        ref = transform_smith(mat)
        assert ref.check(mat)       # U M V = D, unimodular, divisibility
        s = smith_normal_form(*sparse_rows(mat))
        assert s.invariant_factors == ref.invariant_factors \
            == naive_invariant_factors(mat)
    budget.done()


def test_criterion_07_word_exclusion_suite():
    budget = Budget(7, "word exclusion rules", 30)
    # single-occurrence letters force triviality
    short_words = [w for k in range(1, 6) for m in range(1, k + 1)
                   for w in enumerate_words(k, m)]
    for name, X in corpus():
        table_is_trivial = all(X.rows[x][y] == x
                               for x in range(X.order)
                               for y in range(X.order))
        for w in short_words:
            if forces_triviality(w) and satisfies(X, w).satisfied:
                assert table_is_trivial, (name, w.text)
    # consecutive-run words bound the type by the gcd
    for name, X in corpus():
        t = quandle_type(X)
        for w in two_letter_universe(7):
            d = consecutive_type_bound(w)
            if d is not None and satisfies(X, w).satisfied:
                assert t <= d, (name, w.text, t, d)
    budget.done(extra=f"  [{len(short_words)} short words]")


def test_criterion_08_repetition_family():
    budget = Budget(8, "repeated-word affine family", 30)
    from quandlehom.identities import Word
    for (m, n, p) in ((1, 2, 3), (1, 3, 5), (2, 2, 3)):
        X = burnside_family(m, n, p)
        assert is_connected(X)
        w = Word.canonical(list(range(m)) * n)
        assert satisfies(X, w).satisfied, (m, n, p)
    # order 625: ring-level exact check plus sampled table confirmation
    X = burnside_family(2, 3, 5)
    assert X.order == 625 and is_connected(X)
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ring = PolyRing(5, repetition_polynomial(2, 3))
    w = parse_word("ababab")
    assert affine_satisfies(ring, ring.t, w)
    rng = random.Random(8)
    from quandlehom.core import product
    for _ in range(200):
        x, y1, y2 = (rng.randrange(625) for _ in range(3))
        assert product(X, x, [y1, y2] * 3) == x
    budget.done()


@pytest.mark.skipif(not os.environ.get("QUANDLEHOM_DATASET"),
                    reason="ACCEPTANCE 09 census reproduction: SKIPPED "
                           "(set QUANDLEHOM_DATASET to the catalogue dir)")
def test_criterion_09_census_reproduction():
    budget = Budget(9, "catalogue census reproduction", 600)
    entries = load_dataset(os.environ["QUANDLEHOM_DATASET"],
                           convention=os.environ.get(
                               "QUANDLEHOM_DATASET_CONVENTION", "left"))
    assert len(entries) == censusdata.CATALOGUE_SIZE
    for section in (reproduce_types(entries),
                    reproduce_length4(entries),
                    reproduce_length5(entries),
                    reproduce_length6(entries),
                    reproduce_length7_dataset(entries),
                    reproduce_exponents(entries)):
        assert section["status"] == "pass", section
    budget.done()


def test_criterion_10_medial_cycles_and_extensions(dih3):
    budget = Budget(10, "medial two-cycles and extensions", 60)
    for name, X in corpus():
        assert is_medial(X) is True, name
        n = X.order
        for x, y, u, v in itertools.product(range(n), repeat=4):
            assert boundary(X, medial_cycle(X, x, y, u, v)).is_zero(), name
    space = cocycle_space(dih3, 3, mode="quandle")
    for member in space.members():
        vanishes = all(
            evaluate_cocycle(member, medial_cycle(dih3, x, y, u, v)) == 0
            for x, y, u, v in itertools.product(range(3), repeat=4))
        if vanishes:
            E = extend(ExtensionSpec(dih3, 3, member))
            assert is_medial(E) is True
    budget.done()
