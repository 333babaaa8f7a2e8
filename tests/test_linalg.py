import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (kernel_basis, lattice_from_rows,
                     naive_invariant_factors, rank_fraction_free)
from quandlehom.homology import boundary_matrix
from quandlehom.linalg import (_eliminate_unit_pivots, det_bareiss,
                               smith_normal_form)
from quandlehom.shell import corpus


def test_snf_examples():
    s = smith_normal_form([[1, 0], [0, 1]])
    assert s.invariant_factors == (1, 1) and s.check([[1, 0], [0, 1]])
    s = smith_normal_form([[2, 4], [6, 8]])
    assert s.invariant_factors == (2, 4) and s.check([[2, 4], [6, 8]])
    s = smith_normal_form([[0, 0], [0, 0]])
    assert s.invariant_factors == () and s.check([[0, 0], [0, 0]])


def test_snf_random_vs_oracle():
    rng = random.Random(7)
    for _ in range(120):
        m = rng.randint(1, 8)
        n = rng.randint(1, 8)
        mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        s = smith_normal_form(mat)
        assert s.check(mat)
        assert s.invariant_factors == naive_invariant_factors(mat)


def test_snf_permutation_invariance():
    rng = random.Random(13)
    for _ in range(30):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        mat = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        rows = list(range(m))
        cols = list(range(n))
        rng.shuffle(rows)
        rng.shuffle(cols)
        permuted = [[mat[i][j] for j in cols] for i in rows]
        assert smith_normal_form(mat, with_transforms=False).invariant_factors \
            == smith_normal_form(permuted, with_transforms=False).invariant_factors


# ------------------------------- sparse route against the dense route

def assert_routes_agree(mat):
    """The sparse unit-pivot route (no transforms) and the dense route
    (with verified transforms) give the same invariant factors."""
    dense = smith_normal_form(mat, with_transforms=True)
    assert dense.check(mat)
    sparse = smith_normal_form(mat, with_transforms=False)
    assert sparse.shape == dense.shape
    assert sparse.invariant_factors == dense.invariant_factors


@st.composite
def sparse_matrices(draw, values=(-1, 1, -2, 2, 3)):
    """Random sparse matrices, optionally with a zero row, a zero column
    and a duplicated column spliced in."""
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 10))
    density = draw(st.sampled_from((0.15, 0.3, 0.6)))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    mat = [[rng.choice(values) if rng.random() < density else 0
            for _ in range(n)] for _ in range(m)]
    if draw(st.booleans()):
        mat.insert(rng.randrange(m + 1), [0] * n)
    if draw(st.booleans()):
        at = rng.randrange(n + 1)
        mat = [row[:at] + [0] + row[at:] for row in mat]
    if draw(st.booleans()):
        src = rng.randrange(len(mat[0]))
        mat = [row + [row[src]] for row in mat]
    return mat


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sparse_matrices())
def test_sparse_route_matches_dense(mat):
    assert_routes_agree(mat)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(sparse_matrices(values=(-2, 2, 3, -4, 6)))
def test_sparse_route_core_only(mat):
    """No entry is a unit, so the dense core does all the work."""
    units, core = _eliminate_unit_pivots(mat)
    assert units == 0
    assert sum(map(any, core)) == sum(map(any, mat))
    assert_routes_agree(mat)


@pytest.mark.parametrize("mat", [
    [], [[], []], [[0]], [[0, 0, 0]], [[0] * 4 for _ in range(3)],
    [[1, 2, 3]], [[2, 4, -6]], [[0, -1, 0]], [[3], [0], [-2]],
    [[1, 1], [1, 1]], [[2, 0], [0, 3]], [[1, -1, 0], [0, 1, -1], [-1, 0, 1]],
])
def test_sparse_route_edge_shapes(mat):
    assert_routes_agree(mat)


SNF_CELL_BUDGET = 40_000     # rows * cols; larger corpus matrices are skipped


def test_sparse_route_matches_dense_on_corpus_boundaries():
    checked = 0
    for _name, X in corpus():
        for flavour in ("rack", "quandle", "degenerate"):
            for degree in (2, 3, 4):
                bm = boundary_matrix(X, flavour, degree)
                rows, cols = bm.shape
                if not 0 < rows * cols <= SNF_CELL_BUDGET:
                    continue
                dense = smith_normal_form(bm.matrix, with_transforms=True)
                sparse = smith_normal_form(bm.matrix, with_transforms=False)
                assert sparse.invariant_factors == dense.invariant_factors
                checked += 1
    assert checked >= 50


def test_rank_agreement():
    rng = random.Random(11)
    for _ in range(60):
        m = rng.randint(1, 7)
        n = rng.randint(1, 7)
        mat = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        assert smith_normal_form(mat, with_transforms=False).rank \
            == rank_fraction_free(mat)


def test_kernel_basis():
    kb = kernel_basis([[1, 2, 3]])
    assert len(kb) == 2
    for v in kb:
        assert sum(a * b for a, b in zip([1, 2, 3], v)) == 0
    rng = random.Random(5)
    for _ in range(40):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        mat = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        kb = kernel_basis(mat)
        assert len(kb) == n - smith_normal_form(mat, with_transforms=False).rank
        for v in kb:
            assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in mat)


def test_det_bareiss():
    assert det_bareiss([[1, 2], [3, 4]]) == -2
    assert det_bareiss([[2, 0], [0, 3]]) == 6
    assert det_bareiss([[1, 1], [1, 1]]) == 0


def test_lattice_membership_and_coordinates():
    lat = lattice_from_rows([[2, 0, 0], [0, 2, 0]], 3)
    assert lat.contains([2, 2, 0])
    assert not lat.contains([1, 1, 0])
    assert not lat.contains([0, 0, 1])
    assert lat.coordinates([4, -2, 0]) == [2, -1]
    assert lat.contains([0, 0, 0])


# small entries, and large ones whose products overflow 64-bit integers
ENTRIES = st.integers(-20, 20) | st.sampled_from(
    (1 << 30, -(1 << 30), (1 << 31) + 7, -(1 << 40) + 3, 3 << 33, 1 << 62))


@st.composite
def lattice_generators(draw, max_rows=8, max_dim=6):
    """Generator rows with small and large entries, optionally with a zero
    row and a duplicated row spliced in."""
    dim = draw(st.integers(1, max_dim))
    gens = draw(st.lists(st.lists(ENTRIES, min_size=dim, max_size=dim),
                         min_size=1, max_size=max_rows))
    if draw(st.booleans()):
        gens.insert(draw(st.integers(0, len(gens))), [0] * dim)
    if draw(st.booleans()):
        gens.insert(draw(st.integers(0, len(gens))),
                    list(gens[draw(st.integers(0, len(gens) - 1))]))
    return gens


def in_span_snf(gens, v):
    """Independent membership oracle through the Smith form of the
    generators as columns."""
    A = [list(col) for col in zip(*gens)]
    snf = smith_normal_form(A)
    uc = [sum(a * b for a, b in zip(row, v)) for row in snf.U]
    for i, val in enumerate(uc):
        if i < snf.rank:
            if val % snf.invariant_factors[i]:
                return False
        elif val:
            return False
    return True


def assert_echelon(lat, gens):
    """Each basis row's pivot, its first nonzero, is positive; pivots sit in
    strictly increasing columns, so each has only zeros to its left and
    below it.  The rank is the rational rank of the generators."""
    basis = lat.basis_vectors()
    leads = []
    for row in basis:
        lead = next(j for j, v in enumerate(row) if v)
        assert row[lead] > 0
        leads.append(lead)
    assert all(a < b for a, b in zip(leads, leads[1:]))
    assert lat.rank == len(basis) == rank_fraction_free(gens)


def combination(basis, coeffs, dim):
    out = [0] * dim
    for c, row in zip(coeffs, basis):
        out = [a + c * b for a, b in zip(out, row)]
    return out


@settings(max_examples=200, deadline=None, derandomize=True)
@given(lattice_generators(max_rows=7), st.data())
def test_lattice_vs_snf_membership(gens, data):
    dim = len(gens[0])
    lat = lattice_from_rows(gens, dim)
    assert_echelon(lat, gens)
    # a combination of the generators, sometimes knocked off the lattice
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(gens),
                                max_size=len(gens)))
    v = combination(gens, coeffs, dim)
    if data.draw(st.booleans()):
        v = [a + data.draw(st.integers(-8, 8)) for a in v]
    assert lat.contains(v) == in_span_snf(gens, v)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(lattice_generators(max_rows=10, max_dim=8), st.data())
def test_lattice_coordinates_roundtrip(gens, data):
    dim = len(gens[0])
    lat = lattice_from_rows(gens, dim)
    assert_echelon(lat, gens)

    def assert_roundtrip(vecs):
        basis = lat.basis_vectors()
        for g in vecs:
            coords = lat.coordinates(g)
            assert coords is not None
            assert combination(basis, coords, dim) == list(g)
        big = data.draw(st.lists(st.integers(-2 ** 40, 2 ** 40),
                                 min_size=len(basis), max_size=len(basis)))
        combo = combination(basis, big, dim)
        assert lat.coordinates(combo) == big     # basis rows are independent

    assert_roundtrip(gens)
    # add() after a query restarts from the basis plus the newcomer
    extra = data.draw(st.lists(ENTRIES, min_size=dim, max_size=dim))
    lat.add(extra)
    assert_echelon(lat, gens + [extra])
    assert_roundtrip(gens + [extra])
    fresh = lattice_from_rows(gens + [extra], dim)
    assert all(lat.contains(row) for row in fresh.basis_vectors())
    assert all(fresh.contains(row) for row in lat.basis_vectors())


def test_lattice_add_after_query():
    lat = lattice_from_rows([[2, 0]], 2)
    assert not lat.contains([1, 0])
    lat.add([3, 0])
    assert lat.contains([1, 0])
    assert lat.rank == 1
