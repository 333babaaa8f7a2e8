"""Exact integer linear algebra: the Smith normal form, the left kernel of a
matrix mod d, and integer lattices.

Everything is arbitrary-precision, and a matrix is its sparse rows, one
{col: value} map of Python ints per row, plus a column count.  A Smith form
eliminates +-1 pivots, each an invariant factor 1 and each picked by a
limited Markowitz search over columns bucketed by count, and hands only the
residual core, made dense, to the minimal-pivot elimination.  The left
kernel mod d runs the same two stages, recording the row operations of the
unit pivots and the core's row transform, and solves by back-substitution.
The lattice class takes sparse {index: value} vectors, builds its echelon
basis by one sparse minimal-pivot column elimination on the same row/column
store, keeps only the sparse pivot rows, and reduces query vectors against
them.  These are the only eliminations the library runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

Matrix = list[list[int]]


def identity_matrix(k: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


@dataclass(frozen=True)
class SmithForm:
    """The invariant factors d1 | d2 | ... of an integer matrix."""

    shape: tuple[int, int]
    invariant_factors: tuple[int, ...]     # the nonzero diagonal, in chain order

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)


def smith_normal_form(rows: Sequence[dict[int, int]], ncols: int) -> SmithForm:
    """Smith normal form of an integer matrix, exactly.

    The matrix is its sparse rows, one {col: value} map per row, which stay
    unchanged, and its column count, which trailing zero columns leave
    implicit.  Entries equal to +-1 are eliminated one at a time, each
    contributing an invariant factor 1 and each the cheapest Markowitz cost
    among the units of the first few shortest columns that hold one, and the
    dense minimal-pivot elimination then runs only on the residual core of
    rows and columns that are still nonzero.
    """
    # the unit-pivot stage takes its rows over
    units, core = _eliminate_unit_pivots([dict(row) for row in rows])
    facs = _dense_smith(list(core.values()))
    return SmithForm(shape=(len(rows), ncols),
                     invariant_factors=(1,) * units + facs)


def left_kernel_mod(rows: Sequence[dict[int, int]],
                    modulus: int) -> tuple[list[list[int]], list[int]]:
    """Generators and their orders of the Z_d-module of phi with
    phi A = 0 (mod d), for d = modulus >= 2 and the matrix A of the given
    sparse rows, which stay unchanged: summing c_k * gen_k over
    0 <= c_k < order_k gives every solution exactly once.  A generator is a
    list of len(rows) values in 0..d-1.

    This is the elimination of smith_normal_form read from the left.  Each
    unit pivot (p, q), of unit u, subtracts f = A_iq * u times row p from
    every other row i holding q; in the coordinates that these row
    operations change to, phi_p = 0, which back-substitution in reverse
    pivot order turns into phi_p = -sum_i f * phi_i.  The residual core C
    goes to the dense elimination with its row transform U, U C V = D: row k
    of U times d / gcd(f_k, d) solves the core at order gcd(f_k, d) for the
    k-th invariant factor f_k (skipped at order 1), and each row of U past
    the rank at order d.  A row neither taken as a pivot nor left in the
    core is free, of order d.  The orders come out as the core's, in chain
    order, then the d's.
    """
    steps: list[tuple[int, list[tuple[int, int]]]] = []
    _, core = _eliminate_unit_pivots([dict(row) for row in rows], steps)
    U = identity_matrix(len(core))
    facs = _dense_smith(list(core.values()), U)
    solved: list[tuple[int, dict[int, int]]] = []     # (order, phi's seeds)
    for k, urow in enumerate(U):
        order = math.gcd(facs[k], modulus) if k < len(facs) else modulus
        if order > 1:
            scale = modulus // order
            solved.append((order, {i: v * scale % modulus
                                   for i, v in zip(core, urow)}))
    pivots = {p for p, _ in steps}
    solved += [(modulus, {i: 1}) for i in range(len(rows))
               if i not in pivots and i not in core]
    gens = []
    for _, seeds in solved:
        phi = [0] * len(rows)
        for i, v in seeds.items():
            phi[i] = v
        for p, updates in reversed(steps):
            phi[p] = -sum(f * phi[i] for i, f in updates) % modulus
        gens.append(phi)
    return gens, [order for order, _ in solved]


_SEARCH_COLUMNS = 8     # unit-holding columns one pivot search looks at


def _eliminate_unit_pivots(mat: list[dict[int, int]],
                           steps: Optional[list] = None
                           ) -> tuple[int, dict[int, list[int]]]:
    """Schur-complement elimination on +-1 pivots picked by a limited
    Markowitz search.

    A unit pivot keeps every entry integral and splits off one invariant
    factor 1, so the Smith form of the sparse rows is (1,) * count followed
    by the Smith form of the returned dense core, given as row -> its
    entries in the still nonzero columns, ascending.  Columns sit in buckets
    by their count of rows, kept up to date from each pivot: only the
    columns of the pivot row change.  A search walks the buckets from the
    least count and weighs the +-1 entries of at most _SEARCH_COLUMNS
    columns that hold one, taking the least cost (c-1)(r-1) among them and
    stopping at once on a zero cost (Zlatev, SIAM J. Numer. Anal. 17
    (1980)); a column it finds without a unit leaves the buckets until a
    pivot row changes it.  Given a list, steps gets (p, [(i, f), ...]) for
    each pivot row p, in pivot order: row i -= f * row p for every other
    row i holding the pivot column.  The rows are taken over and changed in
    place, as by _sparse_store.
    """
    rows, cols = _sparse_store(mat)
    count: dict[int, int] = {}                  # column -> its bucket
    buckets: dict[int, set[int]] = {}           # count -> columns
    for j, held in cols.items():
        _rebucket(buckets, count, j, len(held))
    units = 0
    while (best := _pick_unit_pivot(rows, cols, buckets, count)) is not None:
        p, q = best
        prow = _take_row(rows, cols, p)
        u = prow.pop(q)
        # u is its own inverse
        updates = [(i, rows[i].pop(q) * u) for i in cols.pop(q)]
        for i, f in updates:
            _subtract_row(rows, cols, i, f, prow)
        if steps is not None:
            steps.append((p, updates))
        _rebucket(buckets, count, q, 0)
        for j in prow:
            _rebucket(buckets, count, j, len(cols[j]))
        units += 1
    live = sorted(j for j, held in cols.items() if held)
    return units, {i: [row.get(j, 0) for j in live] for i, row in rows.items()}


def _pick_unit_pivot(rows, cols, buckets, count):
    """(row, col) of the cheapest +-1 entry in the first _SEARCH_COLUMNS
    unit-holding columns by count, or None when no entry is a unit.  A
    column found to hold no unit leaves the buckets until a pivot row
    changes it."""
    best = None
    looked = 0
    dry = []
    for c, j in ((c, j) for c in sorted(buckets) for j in buckets[c]):
        holds = False
        for i in cols[j]:
            v = rows[i][j]
            if v == 1 or v == -1:
                holds = True
                cost = (c - 1) * (len(rows[i]) - 1)
                if best is None or cost < best[0]:
                    best = (cost, i, j)
        if not holds:
            dry.append(j)
        elif best[0] == 0 or (looked := looked + 1) == _SEARCH_COLUMNS:
            break
    for j in dry:
        _rebucket(buckets, count, j, 0)
    return best and best[1:]


def _rebucket(buckets, count, j: int, c: int) -> None:
    """Move column j out of the bucket it sits in, if any, and into the
    bucket of count c; a count of 0 leaves it out."""
    old = count.pop(j, 0)
    if old:
        held = buckets[old]
        held.discard(j)
        if not held:
            del buckets[old]
    if c:
        count[j] = c
        buckets.setdefault(c, set()).add(j)


def _sparse_store(mat: list[dict[int, int]]):
    """Sparse rows without zero entries as row -> {col: value} maps plus
    col -> {rows holding it} sets; empty rows are left out.  The maps are
    taken over, not copied: eliminations change them in place."""
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for i, entries in enumerate(mat):
        if entries:
            rows[i] = entries
            for j in entries:
                cols.setdefault(j, set()).add(i)
    return rows, cols


def _subtract_row(rows, cols, i: int, f: int, prow: dict[int, int]) -> None:
    """rows[i] -= f * prow for a nonzero f in the sparse store, keeping the
    column sets in step; a row that becomes zero leaves the store."""
    row = rows[i]
    for j, v in prow.items():
        d = f * v
        w = row.get(j)
        if w is None:
            row[j] = -d
            cols[j].add(i)
        elif w == d:
            del row[j]
            cols[j].discard(i)
        else:
            row[j] = w - d
    if not row:
        del rows[i]


def _take_row(rows, cols, i: int) -> dict[int, int]:
    """Remove row i from the sparse store and return it."""
    row = rows.pop(i)
    for j in row:
        cols[j].discard(i)
    return row


def _dense_smith(A: Matrix, U: Optional[Matrix] = None) -> tuple[int, ...]:
    """Invariant factors of a dense matrix by deterministic minimal-pivot
    elimination, which takes A over and changes it in place.  Given U, of
    one row per row of A, every row operation is also made on U, so that a
    U that starts as the identity ends with U A V = D for a unimodular V
    that is never formed."""
    m = len(A)
    n = len(A[0]) if A else 0

    def row_sub(i, k, q):          # row_i -= q * row_k
        A[i] = [a - q * b for a, b in zip(A[i], A[k])]
        if U is not None:
            U[i] = [a - q * b for a, b in zip(U[i], U[k])]

    def col_sub(j, k, q):          # col_j -= q * col_k
        for row in A:
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
    return tuple(A[i][i] for i in range(min(m, n)) if A[i][i])


class IntLattice:
    """Integer row lattice with an echelon basis for membership and solves.

    Vectors go in as sparse {index: value} maps with indices in 0..dim-1;
    zero values may be present and are dropped.  Generators accumulate
    through add(), which copies them; the echelon basis is built in one
    batch pass on first query.  The pass is a sparse minimal-pivot column
    elimination in exact Python integers: column by column, the rows holding
    the column are reduced against the one with the least absolute entry
    until a single row, made positive, is left as that column's pivot row.
    Picking the least entry keeps coefficients small, unlike naive
    incremental insertion.  Only the sparse pivot rows are kept;
    sparse_basis() returns copies of them.
    """

    _exact = True        # rows are Python ints; read by the bench tracer

    def __init__(self, dim: int):
        self.dim = dim
        self._pending: list[dict[int, int]] = []
        self._pivots: list[tuple[int, dict[int, int]]] = []  # (col, sparse row)
        self._final = False

    @property
    def rank(self) -> int:
        self._finalize()
        return len(self._pivots)

    @property
    def _rows(self) -> list[list[int]]:
        # the nonzero values of each basis row, for the rank and entry-bit
        # counters of qhbench/spans.py; delete once the tracer reads a
        # recorder instead (ROADMAP item 3)
        return [list(row.values()) for _, row in self._pivots]

    def sparse_basis(self) -> list[dict[int, int]]:
        """The echelon basis rows as sparse maps, in pivot order."""
        self._finalize()
        return [dict(row) for _, row in self._pivots]

    def _entries(self, vec: dict[int, int]) -> dict[int, int]:
        """A copy of a sparse vector without its zeros, indices checked."""
        if not all(0 <= j < self.dim for j in vec):
            raise ValueError(f"vector index outside 0..{self.dim - 1}")
        return {j: int(v) for j, v in vec.items() if v}

    def add(self, vec: dict[int, int]) -> None:
        entries = self._entries(vec)
        if self._final:
            # restart from the current basis plus the newcomer
            self._pending = self.sparse_basis() + [entries]
            self._pivots = []
            self._final = False
        else:
            self._pending.append(entries)

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
            self._pivots.append((col, base))

    # -- queries ---------------------------------------------------------------
    def reduce(self, vec: dict[int, int]):
        """(residue, coords): vec = sum coords[k] * basis[k] + residue, the
        residue a sparse map without zeros."""
        self._finalize()
        res = self._entries(vec)
        coords = [0] * len(self._pivots)
        for k, (col, row) in enumerate(self._pivots):
            q = res.get(col, 0) // row[col]
            if q:
                for j, v in row.items():
                    res[j] = res.get(j, 0) - q * v
                coords[k] = q
            if res.get(col):
                break                  # the pivot does not divide: stuck
        return {j: v for j, v in res.items() if v}, coords

    def contains(self, vec: dict[int, int]) -> bool:
        res, _ = self.reduce(vec)
        return not res

    def coordinates(self, vec: dict[int, int]) -> Optional[list[int]]:
        res, coords = self.reduce(vec)
        return None if res else coords
