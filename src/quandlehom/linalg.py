"""Exact integer linear algebra: the Smith normal form and integer lattices.

Everything is arbitrary-precision: matrices are plain nested lists of Python
ints.  A Smith form without transforms starts sparse: it eliminates +-1
pivots in least Markowitz cost order, each an invariant factor 1, and hands
only the residual core to the dense minimal-pivot elimination, which also
serves every request for the transforms U and V.  The lattice class builds
its echelon basis by one sparse minimal-pivot column elimination in exact
integers, on the same row/column store as the unit-pivot stage, and reduces
query vectors against the nonzeros of its pivot rows.  These two are the
only eliminations the library runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

Matrix = list[list[int]]


def identity_matrix(k: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


def zeros_matrix(m: int, n: int) -> Matrix:
    return [[0] * n for _ in range(m)]


def copy_matrix(mat: Sequence[Sequence[int]]) -> Matrix:
    return [list(map(int, row)) for row in mat]


def transpose(mat: Sequence[Sequence[int]]) -> Matrix:
    return [list(col) for col in zip(*mat)] if mat else []


def mat_mul(A: Sequence[Sequence[int]], B: Sequence[Sequence[int]]) -> Matrix:
    rows, inner = len(A), len(B)
    cols = len(B[0]) if inner else 0
    Bt = transpose(B)
    return [[sum(a * b for a, b in zip(row, col)) for col in Bt] for row in A]


def det_bareiss(mat: Sequence[Sequence[int]]) -> int:
    """Fraction-free determinant; exact for integer matrices."""
    A = copy_matrix(mat)
    n = len(A)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for i in range(k + 1, n):
                if A[i][k]:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


@dataclass(frozen=True)
class SmithForm:
    """U @ M @ V = D with D diagonal and d1 | d2 | ... ; U, V unimodular."""

    shape: tuple[int, int]
    invariant_factors: tuple[int, ...]     # the nonzero diagonal, in chain order
    U: Optional[Matrix]
    V: Optional[Matrix]

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    def diagonal_matrix(self) -> Matrix:
        m, n = self.shape
        D = zeros_matrix(m, n)
        for i, d in enumerate(self.invariant_factors):
            D[i][i] = d
        return D

    def check(self, mat: Sequence[Sequence[int]]) -> bool:
        """Exact verification: reconstruction, divisibility, unimodularity."""
        facs = self.invariant_factors
        for a, b in zip(facs, facs[1:]):
            if a <= 0 or b % a:
                return False
        if self.U is None or self.V is None:
            raise ValueError("transforms were not requested")
        if abs(det_bareiss(self.U)) != 1 or abs(det_bareiss(self.V)) != 1:
            return False
        return mat_mul(mat_mul(self.U, copy_matrix(mat)), self.V) == \
            self.diagonal_matrix()


def smith_normal_form(mat: Sequence[Sequence[int]],
                      with_transforms: bool = True) -> SmithForm:
    """Smith normal form of an integer matrix, exactly.

    With transforms, the whole matrix goes through the dense minimal-pivot
    elimination, which also accumulates U and V.  Without them, the sparse
    route runs first: entries equal to +-1 are eliminated one at a time in
    least Markowitz cost order, each contributing an invariant factor 1, and
    the dense elimination then runs only on the residual core of rows and
    columns that are still nonzero.
    """
    if with_transforms:
        return _dense_smith(mat, with_transforms=True)
    m = len(mat)
    n = len(mat[0]) if m else 0
    units, core = _eliminate_unit_pivots(mat)
    facs = _dense_smith(core, with_transforms=False).invariant_factors
    return SmithForm(shape=(m, n), invariant_factors=(1,) * units + facs,
                     U=None, V=None)


def _eliminate_unit_pivots(mat: Sequence[Sequence[int]]) -> tuple[int, Matrix]:
    """Schur-complement elimination on +-1 pivots of least Markowitz cost.

    A unit pivot keeps every entry integral and splits off one invariant
    factor 1, so the Smith form of the input is (1,) * count followed by
    the Smith form of the returned dense core.
    """
    rows, cols = _sparse_store(mat)
    units = 0
    while rows:
        # scan columns from the shortest up; a column of count c cannot beat
        # (c-1) times the shortest row's cost factor
        rmin = min(map(len, rows.values())) - 1
        by_count: dict[int, list[int]] = {}
        for j, held in cols.items():
            if held:
                by_count.setdefault(len(held), []).append(j)
        best = None
        for c in sorted(by_count):
            if best is not None and (c - 1) * rmin >= best[0]:
                break
            for j in by_count[c]:
                for i in cols[j]:
                    v = rows[i][j]
                    if v == 1 or v == -1:
                        cost = (c - 1) * (len(rows[i]) - 1)
                        if best is None or cost < best[0]:
                            best = (cost, i, j)
        if best is None:
            break
        _, p, q = best
        prow = _take_row(rows, cols, p)
        u = prow.pop(q)
        for i in cols.pop(q):
            f = rows[i].pop(q) * u               # u is its own inverse
            _subtract_row(rows, cols, i, f, prow)
        units += 1
    live = sorted(j for j, held in cols.items() if held)
    return units, [[row.get(j, 0) for j in live] for row in rows.values()]


def _sparse_store(mat: Sequence[Sequence[int]]):
    """The nonzeros of a dense matrix as row -> {col: value} maps plus
    col -> {rows holding it} sets; zero rows are left out."""
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for i, row in enumerate(mat):
        entries = {j: int(v) for j, v in enumerate(row) if v}
        if entries:
            rows[i] = entries
            for j in entries:
                cols.setdefault(j, set()).add(i)
    return rows, cols


def _subtract_row(rows, cols, i: int, f: int, prow: dict[int, int]) -> None:
    """rows[i] -= f * prow in the sparse store, keeping the column sets in
    step; a row that becomes zero leaves the store."""
    row = rows[i]
    for j, v in prow.items():
        w = row.get(j, 0) - f * v
        if w:
            row[j] = w
            cols[j].add(i)
        else:
            del row[j]
            cols[j].discard(i)
    if not row:
        del rows[i]


def _take_row(rows, cols, i: int) -> dict[int, int]:
    """Remove row i from the sparse store and return it."""
    row = rows.pop(i)
    for j in row:
        cols[j].discard(i)
    return row


def _dense_smith(mat: Sequence[Sequence[int]],
                 with_transforms: bool) -> SmithForm:
    """Deterministic minimal-pivot elimination on the dense matrix."""
    A = copy_matrix(mat)
    m = len(A)
    n = len(A[0]) if m else 0
    U = identity_matrix(m) if with_transforms else None
    V = identity_matrix(n) if with_transforms else None

    def row_sub(i, k, q):          # row_i -= q * row_k
        A[i] = [a - q * b for a, b in zip(A[i], A[k])]
        if U is not None:
            U[i] = [a - q * b for a, b in zip(U[i], U[k])]

    def col_sub(j, k, q):          # col_j -= q * col_k
        for row in A:
            row[j] -= q * row[k]
        if V is not None:
            for row in V:
                row[j] -= q * row[k]

    def row_swap(i, k):
        if i != k:
            A[i], A[k] = A[k], A[i]
            if U is not None:
                U[i], U[k] = U[k], U[i]

    def col_swap(j, k):
        if j != k:
            for row in A:
                row[j], row[k] = row[k], row[j]
            if V is not None:
                for row in V:
                    row[j], row[k] = row[k], row[j]

    def row_negate(i):
        A[i] = [-a for a in A[i]]
        if U is not None:
            U[i] = [-a for a in U[i]]

    def find_pivot(t):
        best = None
        where = None
        for i in range(t, m):
            row = A[i]
            for j in range(t, n):
                v = abs(row[j])
                if v and (best is None or v < best):
                    best, where = v, (i, j)
                    if v == 1:
                        return where
        return where

    t = 0
    while t < min(m, n):
        if find_pivot(t) is None:
            break
        while True:
            # always restart from the smallest entry: remainders produced by
            # the reductions below become the next pivot, which keeps the
            # classical coefficient explosion in check
            i, j = find_pivot(t)
            row_swap(t, i)
            col_swap(t, j)
            if A[t][t] < 0:
                row_negate(t)
            d = A[t][t]
            dirty = False
            for i2 in range(t + 1, m):
                if A[i2][t]:
                    q = A[i2][t] // d
                    row_sub(i2, t, q)
                    if A[i2][t]:
                        dirty = True
            for j2 in range(t + 1, n):
                if A[t][j2]:
                    q = A[t][j2] // d
                    col_sub(j2, t, q)
                    if A[t][j2]:
                        dirty = True
            if dirty:
                continue
            # divisibility sweep into the trailing block
            offender = None
            for i2 in range(t + 1, m):
                row = A[i2]
                for j2 in range(t + 1, n):
                    if row[j2] % d:
                        offender = i2
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_sub(t, offender, -1)   # add the offending row to the pivot row
        t += 1
    facs = tuple(A[i][i] for i in range(min(m, n)) if A[i][i])
    return SmithForm(shape=(m, n), invariant_factors=facs, U=U, V=V)


class IntLattice:
    """Integer row lattice with an echelon basis for membership and solves.

    Generators accumulate through add(); the echelon basis is built in one
    batch pass on first query.  The pass is a sparse minimal-pivot column
    elimination in exact Python integers: column by column, the rows holding
    the column are reduced against the one with the least absolute entry
    until a single row, made positive, is left as that column's pivot row.
    Picking the least entry keeps coefficients small, unlike naive
    incremental insertion.
    """

    _exact = True        # rows are Python ints; read by the bench tracer

    def __init__(self, dim: int):
        self.dim = dim
        self._pending: list[list[int]] = []
        self._pivots: list[tuple[int, dict[int, int]]] = []  # (col, sparse row)
        self._rows: list[list[int]] = []           # the same rows, dense
        self._final = False

    @property
    def rank(self) -> int:
        self._finalize()
        return len(self._rows)

    def basis_vectors(self) -> list[list[int]]:
        self._finalize()
        return [list(row) for row in self._rows]

    def add(self, vec) -> None:
        vals = [int(v) for v in vec]
        if len(vals) != self.dim:
            raise ValueError("vector dimension mismatch")
        if self._final:
            # restart from the current basis plus the newcomer
            self._pending = self.basis_vectors() + [vals]
            self._pivots, self._rows = [], []
            self._final = False
        else:
            self._pending.append(vals)

    def _finalize(self):
        if self._final:
            return
        rows, cols = _sparse_store(self._pending)
        self._pending = []
        self._final = True
        for col in range(self.dim):
            held = cols.get(col)
            if not held:
                continue
            while True:
                k = min(held, key=lambda i: (abs(rows[i][col]), i))
                base = rows[k]
                if base[col] < 0:
                    for j in base:
                        base[j] = -base[j]
                if len(held) == 1:
                    break
                piv = base[col]
                for i in [i for i in held if i != k]:
                    q = rows[i][col] // piv
                    if q:
                        _subtract_row(rows, cols, i, q, base)
            _take_row(rows, cols, k)
            dense = [0] * self.dim
            for j, v in base.items():
                dense[j] = v
            self._pivots.append((col, base))
            self._rows.append(dense)

    # -- queries ---------------------------------------------------------------
    def reduce(self, vec):
        """(residue, coords): vec = sum coords[k] * basis[k] + residue."""
        self._finalize()
        if len(vec) != self.dim:
            raise ValueError("vector dimension mismatch")
        res = [int(v) for v in vec]
        coords = [0] * len(self._pivots)
        for k, (col, row) in enumerate(self._pivots):
            q = res[col] // row[col]
            if q:
                for j, v in row.items():
                    res[j] -= q * v
                coords[k] = q
            if res[col]:
                break                  # the pivot does not divide: stuck
        return res, coords

    def contains(self, vec) -> bool:
        res, _ = self.reduce(vec)
        return not any(res)

    def coordinates(self, vec) -> Optional[list[int]]:
        res, coords = self.reduce(vec)
        if any(res):
            return None
        return coords
