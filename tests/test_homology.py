import importlib
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (kernel_basis, lattice_cocycle_space, lattice_from_rows,
                     loop_boundary_matrix, loop_identity_generators, mat_mul,
                     rank_fraction_free, relabelled, sparse, sparse_rows)
from quandlehom.chains import (FormalChain, _generators, identity_cycle,
                               subcomplex_generators)
from quandlehom.homology import (CocycleTable, HomologyGroup, boundary_matrix,
                                 coboundary, cocycle_condition_holds,
                                 cocycle_space, evaluate_cocycle, homology)
from quandlehom.identities import Assignment, parse_word
from quandlehom.linalg import smith_normal_form
from quandlehom.constructions import alexander_zn, dihedral, trivial
from quandlehom.core import inner_group, make_table
from quandlehom.errors import DegreeMismatch, InvalidCocycle, \
    SizeGuardExceeded, SubcomplexClosureViolated
from quandlehom.shell import corpus


def test_boundary_matrix_trivial_order1(triv1):
    bm = boundary_matrix(triv1, "rack", 2)
    assert bm.shape == (1, 1) and bm.matrix == ((0,),)


def test_boundary_matrix_rack_degree2(dih3):
    bm = boundary_matrix(dih3, "rack", 2)
    assert bm.shape == (3, 9)
    for j, (x, y) in enumerate(bm.col_basis):
        col = [bm.matrix[i][j] for i in range(3)]
        expect = [0, 0, 0]
        expect[x] += 1
        expect[dih3.rows[x][y]] -= 1
        assert col == expect


def test_boundary_matrix_identity_solvable(dih3):
    aa = parse_word("aa")
    bm = boundary_matrix(dih3, "identity", 3, word=aa)
    assert bm.shape[1] > 0
    # columns really are the boundaries in lattice coordinates
    from quandlehom.chains import boundary, chain_vector, subcomplex_generators
    gens2 = subcomplex_generators(dih3, "identity", 2, word=aa)
    lat = gens2.lattice
    basis = lat.sparse_basis()
    for j, chain in enumerate(bm.col_basis):
        b = boundary(dih3, chain)
        vec = chain_vector(b, 3)
        recon = [0] * lat.dim
        for i, coef in enumerate(col(bm, j)):
            for k, v in basis[i].items():
                recon[k] += coef * v
        assert sparse(recon) == vec


BUILD_CELL_BUDGET = 100_000     # rows * cols; larger matrices are skipped
NON_QUANDLE_RACK = [[1, 1, 1], [0, 0, 0], [2, 2, 2]]
PERMUTATION_RACK = [[1, 1, 1], [2, 2, 2], [0, 0, 0]]      # x*y = x+1 mod 3


def _build_or_raise(build, X, flavour, degree):
    try:
        return build(X, flavour, degree)
    except SubcomplexClosureViolated as exc:
        return exc.chain


def test_boundary_matrix_matches_the_loop_builder():
    """The array build gives the tuple-by-tuple build's sparse rows, entry
    order included, and both bases, or raises on the same first offending
    degenerate tuple; on every corpus table and a relabelled copy, and on
    two racks that are not quandles."""
    rng = random.Random(11)
    tables = [make_table(NON_QUANDLE_RACK, require="rack"),
              make_table(PERMUTATION_RACK, require="rack")]
    for _name, X in corpus():
        perm = list(range(X.order))
        rng.shuffle(perm)
        tables += [X, relabelled(X, perm)]
    checked = raised = 0
    for X in tables:
        for flavour in ("rack", "quandle", "degenerate"):
            for degree in (1, 2, 3, 4):
                if X.order ** (2 * degree - 1) > BUILD_CELL_BUDGET:
                    continue
                got = _build_or_raise(boundary_matrix, X, flavour, degree)
                want = _build_or_raise(loop_boundary_matrix, X, flavour,
                                       degree)
                if isinstance(want, FormalChain):
                    assert got == want
                    raised += 1
                    continue
                assert [list(row.items()) for row in got.sparse_rows] == \
                    [list(row.items()) for row in want.sparse_rows]
                assert got.row_basis == want.row_basis
                assert got.col_basis == want.col_basis
                checked += 1
    assert checked >= 200 and raised == 6
    perm_rack = tables[1]
    with pytest.raises(SubcomplexClosureViolated) as exc:
        boundary_matrix(perm_rack, "degenerate", 2)
    assert exc.value.chain == FormalChain(2, {(0, 0): 1})


def col(bm, j):
    return [bm.matrix[i][j] for i in range(len(bm.row_basis))]


def test_boundary_composition_vanishes(dih3, gf4):
    for X, complexes in ((dih3, ("rack", "quandle", "degenerate")),
                         (gf4, ("rack", "quandle"))):
        for cx in complexes:
            b2 = boundary_matrix(X, cx, 2)
            b3 = boundary_matrix(X, cx, 3)
            if b2.shape[0] and b3.shape[1]:
                prod = mat_mul([list(r) for r in b2.matrix],
                               [list(r) for r in b3.matrix])
                assert all(all(v == 0 for v in row) for row in prod)


def test_identity_complex_boundary_composition(dih3):
    aa = parse_word("aa")
    b3 = boundary_matrix(dih3, "identity", 3, word=aa)
    b4 = boundary_matrix(dih3, "identity", 4, word=aa)
    if b3.shape[0] and b4.shape[1]:
        prod = mat_mul([list(r) for r in b3.matrix],
                       [list(r) for r in b4.matrix])
        assert all(all(v == 0 for v in row) for row in prod)


def test_h1_rack_connected(dih3, az52, gf4, triv1):
    for X in (dih3, az52, gf4, triv1):
        h = homology(X, "rack", 1)
        assert h.free_rank == 1 and not h.torsion


def test_h1_counts_orbits(triv2):
    h = homology(triv2, "rack", 1)
    assert h.free_rank == 2 and not h.torsion


def test_trivial_order1_all_degrees(triv1):
    for n in (1, 2, 3):
        h = homology(triv1, "rack", n)
        assert h.free_rank == 1 and not h.torsion


def test_h2_quandle_dihedral3(dih3):
    h = homology(dih3, "quandle", 2)
    assert h.is_trivial


def test_h2_rack_dihedral3(dih3):
    # rack H2 of the 3-element dihedral quandle is Z (known value)
    h = homology(dih3, "rack", 2)
    assert h.free_rank == 1 and not h.torsion


def test_rank_nullity_cross_check(dih3, gf4):
    for X in (dih3, gf4):
        for cx in ("rack", "quandle"):
            for deg in (2, 3):
                bm = boundary_matrix(X, cx, deg)
                if not bm.shape[0]:
                    continue
                r = smith_normal_form(bm.sparse_rows, bm.shape[1]).rank
                assert r == rank_fraction_free(bm.matrix)
                assert r <= min(bm.shape)


def test_homology_str_forms():
    assert str(HomologyGroup(0, ())) == "0"
    assert str(HomologyGroup(1, ())) == "Z"
    assert str(HomologyGroup(2, (2, 4))) == "Z^2 ⊕ Z_2 ⊕ Z_4"


def test_homology_degree_guard(dih3):
    with pytest.raises(SizeGuardExceeded):
        homology(dih3, "rack", 5)
    h = homology(dih3, "rack", 4, max_degree=4, size_guard=300000)
    assert h.free_rank >= 0


def test_degenerate_restriction_requires_quandle():
    # on a rack that is not a quandle the degenerate tuples do not close
    rack = [[1, 1], [0, 0]]
    from quandlehom.core import make_table
    X = make_table(rack, require="rack")
    with pytest.raises(SubcomplexClosureViolated):
        boundary_matrix(X, "degenerate", 2)


def test_cocycle_space_trivial_tables():
    for n, d in ((2, 2), (2, 3), (3, 2)):
        sp = cocycle_space(trivial(n), d, mode="quandle")
        assert sp.size == d ** (n * n - n)
        sp = cocycle_space(trivial(n), d, mode="rack")
        assert sp.size == d ** (n * n)


def test_cocycle_space_members_are_cocycles(dih3):
    sp = cocycle_space(dih3, 3, mode="quandle")
    assert sp.size == 9
    members = list(sp.members())
    assert len(members) == 9
    assert len({m.values for m in members}) == 9
    for m in members:
        assert cocycle_condition_holds(dih3, m, mode="quandle")


def test_coboundaries_vanish_on_cycles(dih3, az52):
    rng = random.Random(8)
    for X in (dih3, az52):
        words = [w for w in ("aa", "abab", "aabb")
                 if __import__("quandlehom").satisfies(X, parse_word(w)).satisfied]
        for _ in range(10):
            f = [rng.randrange(6) for _ in range(X.order)]
            phi = coboundary(X, f, 6)
            assert cocycle_condition_holds(X, phi, mode="rack")
            for text in words:
                w = parse_word(text)
                ys = tuple(rng.randrange(X.order) for _ in range(w.letters))
                L = identity_cycle(X, w, Assignment(rng.randrange(X.order), ys))
                assert evaluate_cocycle(phi, L) == 0


def test_evaluate_cocycle(dih3):
    zero = CocycleTable(modulus=3, values=((0,) * 3,) * 3)
    L = identity_cycle(dih3, parse_word("aa"), Assignment(0, (1,)))
    assert evaluate_cocycle(zero, L) == 0
    with pytest.raises(DegreeMismatch):
        evaluate_cocycle(zero, FormalChain.of((0, 1, 2)))
    # integer-coefficient pairing
    phi = CocycleTable(modulus=0, values=((0, 5, 0), (0, 0, 0), (0, 2, 0)))
    assert evaluate_cocycle(phi, L) == 5 + 2


def test_nonvanishing_cocycle_detected(dih3):
    # rack-mode space contains members with nonzero value on some cycle
    sp = cocycle_space(dih3, 3, mode="rack")
    L = identity_cycle(dih3, parse_word("aa"), Assignment(0, (1,)))
    values = {evaluate_cocycle(m, L) for m in sp.members(limit=10 ** 6)} \
        if sp.size <= 10 ** 6 else None
    if values is not None:
        assert 0 in values
        # constant cochains are rack cocycles with value k * length on cycles
        const1 = CocycleTable(modulus=3, values=((1,) * 3,) * 3)
        assert cocycle_condition_holds(dih3, const1, mode="rack")
        assert evaluate_cocycle(const1, L) == 2


def test_homology_regression_pins(dih3, gf4, az52, az53):
    """Invariant-factor values for the corpus, frozen after two-route
    verification; the third-degree quotient groups are the classical
    torsion witnesses for these tables."""
    def groups(X):
        return (str(homology(X, "quandle", 2)), str(homology(X, "rack", 2)),
                str(homology(X, "quandle", 3)))

    assert groups(dih3) == ("0", "Z", "Z_3")
    assert groups(gf4) == ("Z_2", "Z ⊕ Z_2", "Z_2 ⊕ Z_4")
    assert groups(az52) == ("0", "Z", "0")
    assert groups(az53) == ("0", "Z", "0")


def test_quandle_h2_two_routes_gf4(gf4):
    route_a = homology(gf4, "quandle", 2)
    b2 = boundary_matrix(gf4, "rack", 2)
    b3 = boundary_matrix(gf4, "rack", 3)
    dim2 = len(b2.col_basis)
    kern = kernel_basis([list(r) for r in b2.matrix])
    lat = lattice_from_rows(kern, dim2)
    cols = [[b3.matrix[i][j] for i in range(dim2)]
            for j in range(len(b3.col_basis))]
    for x in range(gf4.order):
        vec = [0] * dim2
        vec[b2.col_basis.index((x, x))] = 1
        cols.append(vec)
    coord_cols = []
    for v in cols:
        coords = lat.coordinates(sparse(v))
        assert coords is not None
        coord_cols.append(coords)
    pres = [list(row) for row in zip(*coord_cols)]
    snf = smith_normal_form(*sparse_rows(pres))
    free = len(kern) - snf.rank
    torsion = tuple(d for d in snf.invariant_factors if d > 1)
    assert (route_a.free_rank, route_a.torsion) == (free, torsion) == (0, (2,))


def test_cocycle_space_composite_modulus(dih3):
    """Composite coefficients need the integer Smith route (not field
    elimination); full brute force over 4^9 candidate tables is the oracle,
    on dihedral(3) and on a rack that is not a quandle, in both modes."""
    rack = make_table([[1, 1, 1], [0, 0, 0], [2, 2, 2]], require="rack")
    sizes = {}
    for name, X in (("R3", dih3), ("rack", rack)):
        brute = {"rack": set(), "quandle": set()}
        for vals in itertools.product(range(4), repeat=9):
            tab = CocycleTable(modulus=4,
                               values=(vals[0:3], vals[3:6], vals[6:9]))
            # a quandle cocycle is a rack cocycle with a vanishing diagonal
            if cocycle_condition_holds(X, tab, mode="rack"):
                brute["rack"].add(tab.values)
                if cocycle_condition_holds(X, tab, mode="quandle"):
                    brute["quandle"].add(tab.values)
        for mode, found in brute.items():
            sp = cocycle_space(X, 4, mode=mode)
            solved = {m.values for m in sp.members()}
            assert sp.size == len(solved) == len(found)
            assert solved == found
            sizes[name, mode] = sp.size
    assert sizes["R3", "quandle"] == 16


def _hom_order(group, d):
    """|Hom(G, Z_d)| for G = Z^r + sum of Z_t."""
    out = d ** group.free_rank
    for t in group.torsion:
        out *= math.gcd(t, d)
    return out


def test_cocycle_count_universal_coefficients():
    """|Z^2(X; Z_d)| = |Hom(H_2, Z_d)| * d^(n - o): cocycles are
    Hom(C_2 / B_2, Z_d), and C_2 / B_2 is H_2 plus the free group B_1 of rank
    n - o.  Ties cocycle_space to homology on every corpus table, in both
    modes, and on alexander_zn(13,2) mod 13 and alexander_zn(23,5) mod 23."""
    cases = [(X, d) for _, X in corpus() for d in (2, 3, 4, 6)]
    cases += [(alexander_zn(13, 2), 13), (alexander_zn(23, 5), 23)]
    for X, d in cases:
        free_part = d ** (X.order - _orbit_count(X))
        for mode in ("rack", "quandle"):
            h2 = homology(X, mode, 2)
            assert cocycle_space(X, d, mode).size == \
                _hom_order(h2, d) * free_part, (X.rows, d, mode)


def test_cocycle_space_matches_the_lattice_route():
    """cocycle_space, read off the unit-pivot elimination of d_3, against
    the reference route through the image lattice of d_3 and the Smith form
    with transforms: the same generator orders on every corpus table, mod 2,
    3, 4, 6 and 9, in both modes, and the same members wherever there are at
    most 20,000."""
    compared = 0
    for name, X in corpus():
        for d in (2, 3, 4, 6, 9):
            for mode in ("rack", "quandle"):
                space = cocycle_space(X, d, mode)
                ref = lattice_cocycle_space(X, d, mode)
                assert (space.orders, space.size) == (ref.orders, ref.size), \
                    (name, d, mode)
                if space.size <= 20_000:
                    assert {m.values for m in space.members()} == \
                        {m.values for m in ref.members()}, (name, d, mode)
                    compared += 1
    assert compared >= 60


def test_homology_degree_cap_message():
    """The degree cap names the degree, the cap and the override."""
    with pytest.raises(SizeGuardExceeded) as err:
        homology(dihedral(9), "quandle", 4)
    assert (err.value.needed, err.value.guard) == (4, 3)
    assert str(err.value) == ("degree 4 exceeds the degree cap 3 for order 9; "
                              "pass max_degree (CLI: --max-degree) to go "
                              "higher")


def test_cocycle_members_limit_message():
    """The members guard counts cocycles, not basis tuples."""
    space = cocycle_space(trivial(3), 2, "rack")
    with pytest.raises(SizeGuardExceeded) as err:
        list(space.members(limit=10))
    assert (err.value.needed, err.value.guard) == (512, 10)
    assert str(err.value) == "512 cocycles exceed the members limit 10"


def test_identity_complex_rank_consistency(dih3, gf4):
    """rank(d_n) + rank(d_{n+1}) <= lattice rank, and the free rank formula
    is non-negative, for identity complexes across words and degrees."""
    from quandlehom.identities import two_letter_universe
    from quandlehom.identities import satisfies as sat
    for X in (dih3, gf4):
        for w in two_letter_universe(4):
            if not sat(X, w).satisfied:
                continue
            for deg in (2, 3):
                h = homology(X, "identity", deg, word=w)
                assert h.free_rank >= 0
                bn = boundary_matrix(X, "identity", deg, word=w)
                bn1 = boundary_matrix(X, "identity", deg + 1, word=w)
                dim = len(bn.col_basis)
                r_n = smith_normal_form(bn.sparse_rows, dim).rank
                r_up = smith_normal_form(bn1.sparse_rows,
                                         len(bn1.col_basis)).rank
                assert r_n + r_up <= dim
                assert h.free_rank == dim - r_n - r_up


def identity_invariants(X, w):
    spans = tuple(subcomplex_generators(X, "identity", d, word=w).lattice.rank
                  for d in (2, 3))
    groups = tuple(homology(X, flavour, 2, word=w) for flavour in
                   ("rack", "quandle", "degenerate", "identity"))
    cocycles = tuple((space.size, space.orders)
                     for space in (cocycle_space(X, d, mode)
                                   for d in (2, 3)
                                   for mode in ("rack", "quandle")))
    return spans, groups, cocycles


@pytest.mark.parametrize("X, word", [
    (dihedral(3), "aa"), (alexander_zn(5, 2), "abab"),
], ids=["R3-aa", "Z5_2-abab"])
@settings(max_examples=8, deadline=None, derandomize=True)
@given(data=st.data())
def test_identity_invariants_survive_relabelling(X, word, data):
    """Identity span ranks, H2 of all four flavours and the cocycle counts
    and generator orders mod 2 and 3 in both modes do not depend on how the
    table's elements are labelled, although the lattice echelons do."""
    w = parse_word(word)
    perm = data.draw(st.permutations(range(X.order)))
    assert identity_invariants(relabelled(X, perm), w) \
        == identity_invariants(X, w)


def test_cocycle_space_rejects_a_failing_generator(dih3, monkeypatch):
    """The self-check on the generators raises a named error, which
    `python -O` would not strip as it strips an assert."""
    # the package re-exports a function under the module's name
    hm = importlib.import_module("quandlehom.homology")
    monkeypatch.setattr(hm, "cocycle_condition_holds",
                        lambda X, phi, mode="rack": False)
    with pytest.raises(InvalidCocycle):
        hm.cocycle_space(dih3, 3, mode="quandle")


# ------------------------------------------- theorem oracles at degree 3

def _orbit_count(X):
    """Orbits of x -> x*y by union-find on the table."""
    parent = list(range(X.order))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for x in range(X.order):
        for y in range(X.order):
            parent[find(x)] = find(X.rows[x][y])
    return len({find(x) for x in range(X.order)})


def _prime_powers(torsion):
    """Primary decomposition: the sorted prime-power cyclic factors."""
    out = []
    for d in torsion:
        p = 2
        while d > 1:
            q = 1
            while d % p == 0:
                d //= p
                q *= p
            if q > 1:
                out.append(q)
            p += 1
    return sorted(out)


def _primes(d):
    return {q for q in range(2, d + 1)
            if d % q == 0 and all(q % k for k in range(2, q))}


@pytest.mark.parametrize("X", [dihedral(7), alexander_zn(7, 3)],
                         ids=["dihedral(7)", "alexander_zn(7,3)"])
def test_degree3_betti_splitting_and_torsion_primes(X):
    """Betti numbers o^n and o(o-1)^(n-1), the splitting
    H^R = H^Q + H^D, and torsion primes dividing |Inn X|, at degree 3."""
    o = _orbit_count(X)
    inn = len(inner_group(X))
    H = {fl: homology(X, fl, 3) for fl in ("rack", "quandle", "degenerate")}
    assert H["rack"].free_rank == o ** 3
    assert H["quandle"].free_rank == o * (o - 1) ** 2
    assert H["rack"].free_rank == \
        H["quandle"].free_rank + H["degenerate"].free_rank
    assert _prime_powers(H["rack"].torsion) == \
        _prime_powers(H["quandle"].torsion + H["degenerate"].torsion)
    for group in H.values():
        for d in group.torsion:
            assert all(inn % p == 0 for p in _primes(d))


def _rank_mod(mat, p):
    """Rank over Z/p by dense row reduction; entries stay below p^2 < 2^63."""
    A = np.array(mat, dtype=np.int64) % p
    m, n = A.shape
    rank = 0
    for col in range(n):
        nz = np.nonzero(A[rank:, col])[0]
        if not nz.size:
            continue
        k = rank + int(nz[0])
        A[[rank, k]] = A[[k, rank]]
        A[rank] = A[rank] * pow(int(A[rank, col]), -1, p) % p
        below = rank + 1 + np.nonzero(A[rank + 1:, col])[0]
        A[below] = (A[below] - A[below, col][:, None] * A[rank]) % p
        rank += 1
        if rank == m:
            break
    return rank


def test_gf8_quandle_h3_against_ranks_mod_p(oct_b):
    """H^Q_3 of GF8: Betti free rank, 2-primary torsion, and as many
    factors as the rank of d_4 drops from mod 1,000,003 to mod 2."""
    o = _orbit_count(oct_b)
    h3 = homology(oct_b, "quandle", 3)
    assert h3.free_rank == o * (o - 1) ** 2
    assert all(d & (d - 1) == 0 for d in h3.torsion)
    d4 = boundary_matrix(oct_b, "quandle", 4).matrix
    assert len(h3.torsion) == _rank_mod(d4, 1_000_003) - _rank_mod(d4, 2)
    assert h3.torsion


def test_z5_2_abab_degree4_span_rank_and_closure(az52):
    """The degree-4 identity span of abab on alexander_zn(5,2), built from
    the degree-3 span: its rank is the rank of the loop-built generator
    matrix mod two primes, and its boundary lies in the degree-3 span."""
    w = parse_word("abab")
    chains, _ = loop_identity_generators(az52, w, 4)
    dense = np.zeros((len(chains), 5 ** 4), dtype=np.int64)
    for i, chain in enumerate(chains):
        for tup, c in chain.items():
            dense[i, ((tup[0] * 5 + tup[1]) * 5 + tup[2]) * 5 + tup[3]] = c
    ranks = {_rank_mod(dense, p) for p in (1_000_003, 998_244_353)}
    gens = subcomplex_generators(az52, "identity", 4, word=w)
    assert ranks == {gens.lattice.rank}
    bm = boundary_matrix(az52, "identity", 4, word=w)
    assert bm.shape == (gens.lower.lattice.rank, gens.lattice.rank)


def test_identity_boundary_is_built_once_and_a_violation_raises_each_call():
    """Both boundary_matrix calls on one span read the same cached rows;
    a span whose boundary leaves the lower span raises on every call."""
    X = dihedral(3)
    w = parse_word("aa")
    first = boundary_matrix(X, "identity", 3, word=w)
    gens = subcomplex_generators(X, "identity", 3, word=w)
    again = boundary_matrix(X, "identity", 3, word=w)
    assert first.sparse_rows == again.sparse_rows
    assert first.col_basis is again.col_basis is gens.basis
    assert first.row_basis is gens.lower.basis
    rack = make_table(PERMUTATION_RACK, require="rack")
    for _ in range(2):
        with pytest.raises(SubcomplexClosureViolated) as exc:
            boundary_matrix(rack, "identity", 2, word=w)
        assert exc.value.chain in subcomplex_generators(
            rack, "identity", 2, word=w).basis


def _peak_mib(fn):
    """Peak of the Python allocations fn makes, in MiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_rack_boundary_memory_follows_its_nonzeros():
    """The rack d_8 of dihedral(3) is 2,187 x 6,561 with 47,568 nonzeros; a
    dense build would hold 14.3 M cells."""
    assert _peak_mib(lambda: boundary_matrix(dihedral(3), "rack", 8)) < 32


def test_degeneracy_span_memory_follows_its_nonzeros():
    """The degree-4 degeneracy span of dihedral(9) has rank 1,953 in
    dimension 6,561, one nonzero per generator; a dense basis would hold
    12.8 M entries."""
    _generators.cache_clear()            # measure a fresh echelon
    X = dihedral(9)
    assert _peak_mib(lambda: subcomplex_generators(
        X, "degenerate", 4).lattice.rank) < 16
