import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (det_bareiss, kernel_basis, lattice_from_rows,
                     naive_invariant_factors, rank_fraction_free, sparse,
                     sparse_rows, transform_smith)
from quandlehom.homology import boundary_matrix
from quandlehom.linalg import (_SEARCH_COLUMNS, IntLattice, _diagonalize,
                               _eliminate_unit_pivots, _sparse_store,
                               left_kernel_mod, smith_normal_form)
from quandlehom.shell import corpus


def assert_matches_reference(mat):
    """The library's invariant factors are those of the reference Smith
    form, whose transforms reconstruct the matrix: U M V = D, unimodular,
    with a divisibility chain."""
    ref = transform_smith(mat)
    assert ref.check(mat)
    s = smith_normal_form(*sparse_rows(mat))
    assert s.invariant_factors == ref.invariant_factors
    return s


def test_snf_examples():
    s = assert_matches_reference([[1, 0], [0, 1]])
    assert s.invariant_factors == (1, 1)
    s = assert_matches_reference([[2, 4], [6, 8]])
    assert s.invariant_factors == (2, 4)
    s = assert_matches_reference([[0, 0], [0, 0]])
    assert s.invariant_factors == ()


def test_snf_random_vs_oracle():
    rng = random.Random(7)
    for _ in range(120):
        m = rng.randint(1, 8)
        n = rng.randint(1, 8)
        mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        s = assert_matches_reference(mat)
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
        assert smith_normal_form(*sparse_rows(mat)).invariant_factors \
            == smith_normal_form(*sparse_rows(permuted)).invariant_factors


# -------------------------- sparse route against the reference Smith form

def unit_stage(rows):
    """The unit-pivot stage on copies of the sparse rows: (pivot count,
    the residue's rows as the store holds them, row -> {col: value})."""
    residue, cols = _sparse_store([dict(row) for row in rows])
    units = sum(1 for _ in _eliminate_unit_pivots(residue, cols,
                                                  1 + max(cols, default=-1)))
    return units, residue


def assert_routes_agree(rows, ncols):
    """The sparse route gives the invariant factors of the reference
    Smith form (with verified transforms) on the whole dense matrix, takes
    its shape from ncols, and leaves the input maps as they were, entry
    order included."""
    before = [list(row.items()) for row in rows]
    mat = [[row.get(j, 0) for j in range(ncols)] for row in rows]
    ref = transform_smith(mat)
    assert ref.check(mat)
    sparse = smith_normal_form(rows, ncols)
    assert sparse.shape == (len(rows), ncols)
    assert sparse.invariant_factors == ref.invariant_factors
    assert [list(row.items()) for row in rows] == before


@st.composite
def sparse_matrices(draw, values=(-1, 1, -2, 2, 3)):
    """Random sparse matrices as (sparse rows, column count), up to 8 x 10
    and possibly with no rows, or one in four short and wide, 1-4 rows by
    20-60 columns; optionally with a zero row, a zero column and a
    duplicated column spliced in, with trailing zero columns that only the
    column count shows, and with each row's entries in shuffled order."""
    if draw(st.integers(0, 3)):
        m, n = draw(st.integers(0, 8)), draw(st.integers(1, 10))
    else:
        m, n = draw(st.integers(1, 4)), draw(st.integers(20, 60))
    density = draw(st.sampled_from((0.15, 0.3, 0.6)))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    mat = [[rng.choice(values) if rng.random() < density else 0
            for _ in range(n)] for _ in range(m)]
    if draw(st.booleans()):
        mat.insert(rng.randrange(m + 1), [0] * n)
    if draw(st.booleans()):
        at = rng.randrange(n + 1)
        mat = [row[:at] + [0] + row[at:] for row in mat]
        n += 1
    if mat and draw(st.booleans()):
        src = rng.randrange(n)
        mat = [row + [row[src]] for row in mat]
        n += 1
    rows = [sparse(row) for row in mat]
    if draw(st.booleans()):
        rows = [dict(rng.sample(list(row.items()), len(row))) for row in rows]
    return rows, n + draw(st.integers(0, 2))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sparse_matrices())
def test_sparse_route_matches_dense(case):
    assert_routes_agree(*case)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(sparse_matrices(values=(-2, 2, 3, -4, 6)))
def test_sparse_route_core_only(case):
    """No entry is a unit, so the diagonalization does all the work."""
    rows, ncols = case
    units, residue = unit_stage(rows)
    assert units == 0
    assert len(residue) == sum(map(bool, rows))
    assert_routes_agree(rows, ncols)


@st.composite
def unit_rich_matrices(draw):
    """Sparse matrices of up to 40 x 60 with at least 20 unit pivots: beside
    a random part, k >= 20 rows each get a column of their own holding only
    a +-1 there.  That entry stays a unit until its row is taken as a pivot
    row, so the unit stage takes every such row.  Optionally more columns
    than one search looks at hold a single non-unit entry each: they fill
    the least-count bucket, and the search must pass over them.  Columns
    come in shuffled order."""
    m = draw(st.integers(20, 40))
    k = draw(st.integers(20, min(m, 30)))
    extra = draw(st.sampled_from((0, _SEARCH_COLUMNS + 2)))
    base = draw(st.integers(10, 60 - k - extra))
    density = draw(st.sampled_from((0.1, 0.2, 0.35)))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    n = base + k + extra
    place = rng.sample(range(n), n)
    rows = [{place[j]: rng.choice((-1, 1, -2, 2, 3)) for j in range(base)
             if rng.random() < density} for _ in range(m)]
    for i, j in zip(rng.sample(range(m), k), range(base, base + k)):
        rows[i][place[j]] = rng.choice((-1, 1))
    for j in range(base + k, n):
        rows[rng.randrange(m)][place[j]] = rng.choice((-2, 2, 3))
    return rows, n, k


@settings(max_examples=60, deadline=None, derandomize=True)
@given(unit_rich_matrices())
def test_sparse_route_across_many_unit_pivots(case):
    rows, ncols, k = case
    units, residue = unit_stage(rows)
    assert units >= k >= 20
    assert not any(v in (1, -1) for row in residue.values()
                   for v in row.values())
    assert_routes_agree(rows, ncols)


def test_unit_search_passes_over_columns_without_units():
    """More count-1 columns than one search looks at hold a 2 each, and the
    only units sit in two count-2 columns: one unit pivot, after which the
    Schur update leaves -2."""
    k = _SEARCH_COLUMNS + 2
    mat = [[2 if j == i else 0 for j in range(k + 2)] for i in range(k)]
    mat += [[0] * k + [1, 1], [0] * k + [1, -1]]
    rows, ncols = sparse_rows(mat)
    units, residue = unit_stage(rows)
    assert units == 1 and len(residue) == k + 1
    assert_routes_agree(rows, ncols)
    assert smith_normal_form(rows, ncols).invariant_factors \
        == (1,) + (2,) * (k + 1)


@pytest.mark.parametrize("mat", [
    [], [[], []], [[0]], [[0, 0, 0]], [[0] * 4 for _ in range(3)],
    [[1, 2, 3]], [[2, 4, -6]], [[0, -1, 0]], [[3], [0], [-2]],
    [[1, 1], [1, 1]], [[2, 0], [0, 3]], [[1, -1, 0], [0, 1, -1], [-1, 0, 1]],
])
def test_sparse_route_edge_shapes(mat):
    rows, ncols = sparse_rows(mat)
    for trailing in (0, 2):                  # 2: zero columns only ncols shows
        assert_routes_agree(rows, ncols + trailing)


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
                ref = transform_smith(bm.matrix)
                sparse = smith_normal_form(bm.sparse_rows, cols)
                assert sparse.invariant_factors == ref.invariant_factors
                checked += 1
    assert checked >= 50


# ------------------------------------------------------ the diagonalization

def test_smith_form_of_coprime_diagonal_entries():
    """diag(2, 3) is diagonal but out of divisibility order: adding the row
    of 3 to the row of 2 and going on gives 1 and 6."""
    assert smith_normal_form([{0: 2}, {1: 3}], 2).invariant_factors == (1, 6)


@pytest.mark.parametrize("rows, width, facs", [
    ([{2: -3, 3: 1}, {2: 15}], 4, (1, 15)),
    ([{0: 9}, {0: 10, 1: 6}], 2, (1, 54)),
])
def test_diagonalize_ends_where_row_labels_would_cycle(rows, width, facs):
    """Residues on which passes that take the transposed columns in the
    rows' own order, not in pivot order, run forever."""
    carried = [{**row, width + i: 1} for i, row in enumerate(rows)]
    diagonal, zero = _diagonalize(carried, width)
    assert tuple(v for row in diagonal for j, v in row.items()
                 if j < width) == facs
    assert zero == []
    assert smith_normal_form(rows, width).invariant_factors == facs


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sparse_matrices())
def test_diagonalize_carries_a_unimodular_row_transform(case):
    """_diagonalize on a whole matrix A, units included, with identity
    columns carried past it.  Each diagonal row has one entry below width,
    the entries divide in turn and are the reference invariant factors; the
    carried part u of a zero row has u A = 0, and that of the row of entry
    f has u A of gcd f; the carried parts stacked have determinant +-1."""
    rows, width = case
    m = len(rows)
    mat = [[row.get(j, 0) for j in range(width)] for row in rows]
    diagonal, zero = _diagonalize(
        [{**row, width + i: 1} for i, row in enumerate(rows)], width)

    def split(row):
        main = [v for j, v in row.items() if j < width]
        u = [row.get(width + i, 0) for i in range(m)]
        return main, [sum(c * r[j] for c, r in zip(u, mat))
                      for j in range(width)], u

    facs = []
    for row in diagonal:
        main, uA, _ = split(row)
        assert len(main) == 1
        facs += main
        assert math.gcd(*uA) == main[0]
    assert all(b % a == 0 for a, b in zip(facs, facs[1:]))
    assert tuple(facs) == transform_smith(mat).invariant_factors
    for row in zero:
        main, uA, _ = split(row)
        assert not main and not any(uA)
    assert abs(det_bareiss([split(row)[2] for row in diagonal + zero])) == 1


@settings(max_examples=150, deadline=None, derandomize=True)
@given(sparse_matrices(), st.integers(2, 12),
       st.randoms(use_true_random=False))
def test_explicit_zero_entries_change_nothing(case, modulus, rng):
    """Rows with explicit 0 entries give the Smith form, unit columns
    included, and the left kernel of the rows without them."""
    rows, ncols = case
    padded = [{**row, **{j: 0 for j in range(ncols)
                         if j not in row and rng.random() < 0.3}}
              for row in rows]
    assert smith_normal_form(padded, ncols) == smith_normal_form(rows, ncols)
    assert left_kernel_mod(padded, modulus) == left_kernel_mod(rows, modulus)


def test_an_explicit_zero_is_no_pivot():
    assert smith_normal_form([{0: 0, 1: 2}], 2).invariant_factors == (2,)
    assert left_kernel_mod([{0: 0, 1: 2}], 4) == ([[2]], [2])
    assert left_kernel_mod([{}, {0: 0}], 3) == ([[1, 0], [0, 1]], [3, 3])


# ------------------------------------------------ the left kernel mod d

@st.composite
def kernel_problems(draw):
    """A small integer matrix, rich in +-1 entries so that unit pivots
    chain, with a modulus d of 2..12 and few enough rows m that all d^m
    candidate solutions can be listed."""
    d = draw(st.integers(2, 12))
    most = max(k for k in range(13) if d ** k <= 4096)
    m = draw(st.integers(0, most))
    n = draw(st.integers(0, 6))
    entry = st.sampled_from((0, 0, 0, 1, -1, 1, -1, 2, -2, 3, 4, -6, 9))
    return draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=m, max_size=m)), n, d


@settings(max_examples=250, deadline=None, derandomize=True)
@given(kernel_problems())
# a duplicate row and a zero row; row 2 the sum of rows 0 and 1;
# 1 < gcd(12, 8) < 12; and 1 < gcd(4, 6) < 4
@example(([[1, 2], [0, 0], [1, 2], [1, -1]], 2, 6))
@example(([[1, 0, 2], [0, 1, 1], [1, 1, 3], [2, -1, 0]], 3, 4))
@example(([[6, 0], [0, 4], [0, 0]], 2, 8))
@example(([[4]], 1, 6))
def test_left_kernel_mod_enumerates_every_solution_once(case):
    """Every generator solves phi A = 0 (mod d), every order divides d, and
    summing c_k * gen_k over 0 <= c_k < order_k lists each solution of the
    brute force over all d^m candidates exactly once; the examples hold rows
    that the unit stage empties, rows given empty and diagonal entries f
    with 1 < gcd(f, d) < f."""
    mat, n, d = case
    rows = [sparse(row) for row in mat]
    before = [list(row.items()) for row in rows]
    gens, orders = left_kernel_mod(rows, d)
    assert [list(row.items()) for row in rows] == before
    A = np.array(mat, dtype=np.int64).reshape(len(mat), n)
    assert len(gens) == len(orders)
    for gen, order in zip(gens, orders):
        assert len(gen) == len(mat) and all(0 <= v < d for v in gen)
        assert 1 < order <= d and d % order == 0
        assert not (np.array(gen, dtype=np.int64) @ A % d).any()
    cands = np.array(list(itertools.product(range(d), repeat=len(mat))),
                     dtype=np.int64).reshape(d ** len(mat), len(mat))
    brute = set(map(tuple, cands[~(cands @ A % d).any(axis=1)].tolist()))
    members = [tuple(sum(c * gen[i] for c, gen in zip(combo, gens)) % d
                     for i in range(len(mat)))
               for combo in itertools.product(*(range(o) for o in orders))]
    assert len(set(members)) == len(members)
    assert set(members) == brute


def test_left_kernel_mod_chained_pivots():
    """Two unit pivots where the second row's pivot update reaches the
    first: phi = (a, b, c) with a + b = 0, b + c = 0 (mod 6) and 2c = 0
    (mod 6) has the solutions c in {0, 3}, b = -c, a = c."""
    rows = [{0: 1}, {0: 1, 1: 1}, {1: 1, 2: 2}]
    gens, orders = left_kernel_mod(rows, 6)
    assert orders == [2]
    assert gens == [[3, 3, 3]]


def test_left_kernel_mod_of_coprime_diagonal_entries():
    """2a = 3b = 0 (mod 6) is the cyclic group of (3, 2), one generator of
    order 6, not two of orders 2 and 3."""
    gens, orders = left_kernel_mod([{0: 2}, {1: 3}], 6)
    assert orders == [6] and len(gens) == 1
    a, b = gens[0]
    assert {(c * a % 6, c * b % 6) for c in range(6)} \
        == {(x, y) for x in (0, 3) for y in (0, 2, 4)}


def test_rank_agreement():
    rng = random.Random(11)
    for _ in range(60):
        m = rng.randint(1, 7)
        n = rng.randint(1, 7)
        mat = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        assert smith_normal_form(*sparse_rows(mat)).rank \
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
        assert len(kb) == n - smith_normal_form(*sparse_rows(mat)).rank
        for v in kb:
            assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in mat)


def test_det_bareiss():
    assert det_bareiss([[1, 2], [3, 4]]) == -2
    assert det_bareiss([[2, 0], [0, 3]]) == 6
    assert det_bareiss([[1, 1], [1, 1]]) == 0


def test_lattice_membership_and_coordinates():
    lat = lattice_from_rows([[2, 0, 0], [0, 2, 0]], 3)
    assert lat.contains(sparse([2, 2, 0]))
    assert not lat.contains(sparse([1, 1, 0]))
    assert not lat.contains(sparse([0, 0, 1]))
    assert lat.coordinates(sparse([4, -2, 0])) == [2, -1]
    assert lat.contains(sparse([0, 0, 0]))


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
    snf = transform_smith(A)
    uc = [sum(a * b for a, b in zip(row, v)) for row in snf.U]
    for i, val in enumerate(uc):
        if i < snf.rank:
            if val % snf.invariant_factors[i]:
                return False
        elif val:
            return False
    return True


def assert_echelon(lat, gens):
    """The basis is triangular in pivot order: each row's pivot entry is
    positive and its pivot column is zero in every later row, so the pivot
    columns are distinct.  The rank is the rational rank of the
    generators."""
    basis = lat.sparse_basis()
    pivots = [col for col, _ in lat._pivots]
    assert [dict(row) for _, row in lat._pivots] == basis
    for k, (col, row) in enumerate(zip(pivots, basis)):
        assert row.get(col, 0) > 0
        assert all(col not in later for later in basis[k + 1:])
    assert len(set(pivots)) == len(pivots)
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
    assert lat.contains(sparse(v)) == in_span_snf(gens, v)


def assert_lattice_roundtrip(gens, data):
    """The echelon shape and coordinate round trips, before and after an
    add() that follows a query."""
    dim = len(gens[0])
    lat = lattice_from_rows(gens, dim)
    assert_echelon(lat, gens)

    def assert_roundtrip(vecs):
        basis = [[row.get(j, 0) for j in range(dim)]
                 for row in lat.sparse_basis()]
        for g in vecs:
            coords = lat.coordinates(sparse(g))
            assert coords is not None
            assert combination(basis, coords, dim) == list(g)
        big = data.draw(st.lists(st.integers(-2 ** 40, 2 ** 40),
                                 min_size=len(basis), max_size=len(basis)))
        combo = combination(basis, big, dim)
        # basis rows are independent
        assert lat.coordinates(sparse(combo)) == big

    assert_roundtrip(gens)
    # add() after a query restarts from the basis plus the newcomer
    extra = data.draw(st.lists(ENTRIES, min_size=dim, max_size=dim))
    lat.add(sparse(extra))
    assert_echelon(lat, gens + [extra])
    assert_roundtrip(gens + [extra])
    fresh = lattice_from_rows(gens + [extra], dim)
    assert all(lat.contains(row) for row in fresh.sparse_basis())
    assert all(fresh.contains(row) for row in lat.sparse_basis())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(lattice_generators(max_rows=10, max_dim=8), st.data())
def test_lattice_coordinates_roundtrip(gens, data):
    assert_lattice_roundtrip(gens, data)


@st.composite
def two_stage_generators(draw):
    """Generators whose echelon runs both stages.  Unit rows each hold a
    +-1 in a late column of their own, beside small entries elsewhere but
    in column 0; even rows hold only even entries, the first of them a
    nonzero one in column 0.  Updates by unit pivot rows keep an even row
    even, and no pivot row reaches column 0, so the first even row is left
    to the minimal-pivot stage.  Rows come in shuffled order."""
    base = draw(st.integers(2, 5))
    k = draw(st.integers(1, 4))
    dim = base + k
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    small = (0, 0, 1, -1, 2, -3, 4)
    gens = []
    for i in range(k):
        row = [0] + [rng.choice(small) for _ in range(dim - 1)]
        row[base + i] = rng.choice((-1, 1))
        gens.append(row)
    for i in range(draw(st.integers(1, 4))):
        row = [2 * rng.randint(-3, 3) for _ in range(dim)]
        if i == 0:
            row[0] = rng.choice((-4, -2, 2, 6))
        gens.append(row)
    rng.shuffle(gens)
    return gens


@settings(max_examples=150, deadline=None, derandomize=True)
@given(two_stage_generators(), st.data())
def test_lattice_unit_and_minimal_pivot_stages(gens, data):
    units, residue = unit_stage([sparse(g) for g in gens])
    assert units >= 1 and residue
    assert_lattice_roundtrip(gens, data)
    dim = len(gens[0])
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(gens),
                                max_size=len(gens)))
    v = combination(gens, coeffs, dim)
    if data.draw(st.booleans()):
        v = [a + data.draw(st.integers(-4, 4)) for a in v]
    assert lattice_from_rows(gens, dim).contains(sparse(v)) \
        == in_span_snf(gens, v)


@pytest.mark.parametrize("vec", [{2: 1}, {-1: 1}, {0: 1, 5: 0}])
def test_lattice_rejects_an_index_outside_the_dimension(vec):
    lat = lattice_from_rows([[2, 0]], 2)
    with pytest.raises(ValueError):
        lat.add(vec)
    with pytest.raises(ValueError):
        lat.contains(vec)
    with pytest.raises(ValueError):
        lat.coordinates(vec)
    assert lat.rank == 1


def test_lattice_add_copies_its_input():
    """The echelon works on its rows in place, never on the caller's map."""
    vec = {0: 2, 1: 4}
    lat = IntLattice(2)
    lat.add(vec)
    lat.add({0: 3, 1: 6})
    assert lat.sparse_basis() == [{0: 1, 1: 2}]
    assert vec == {0: 2, 1: 4}


def test_lattice_add_after_query():
    lat = lattice_from_rows([[2, 0]], 2)
    assert not lat.contains(sparse([1, 0]))
    lat.add(sparse([3, 0]))
    assert lat.contains(sparse([1, 0]))
    assert lat.rank == 1
