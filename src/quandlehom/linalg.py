"""Exact integer linear algebra: the Smith normal form, the left kernel of a
matrix mod d, and integer lattices.

Everything is arbitrary-precision, and a matrix is its sparse rows, one
{col: value} map of Python ints per row, plus a column count.  One
row/column store and two loops on it serve all three: the unit-pivot loop
eliminates +-1 pivots, each an invariant factor 1 and each picked by a
limited Markowitz search over columns bucketed by count, and the
minimal-pivot column loop brings the rows it leaves to echelon form, column
by column.  The lattice class takes sparse {index: value} vectors, runs the
two loops once and keeps only the sparse pivot rows, to reduce query vectors
against.  A Smith form runs the unit-pivot loop, reporting the columns of
its pivots, the cells that homology drops from the boundary one degree up,
and diagonalizes the residue by the column loop, run first on its transpose,
then on the rows and on the transposed echelon in turn.  The left kernel
mod d runs the same two stages on the rows with identity columns past the
matrix, which carry the row transform through both and out on every row
left.  These are the only eliminations the library runs, and no matrix is
made dense.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence


@dataclass(frozen=True)
class SmithForm:
    """The invariant factors d1 | d2 | ... of an integer matrix, and the
    columns of its +-1 pivots: those that the unit-pivot loop paired off
    with a row, one per leading invariant factor 1 it split off."""

    shape: tuple[int, int]
    invariant_factors: tuple[int, ...]     # the nonzero diagonal, in chain order
    unit_columns: frozenset[int] = frozenset()

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)


def smith_normal_form(rows: Sequence[dict[int, int]], ncols: int) -> SmithForm:
    """Smith normal form of an integer matrix, exactly.

    The matrix is its sparse rows, one {col: value} map per row, which stay
    unchanged, and its column count, which trailing zero columns leave
    implicit.  Entries equal to +-1 are eliminated one at a time, each
    contributing an invariant factor 1 and each the cheapest Markowitz cost
    among the units of the first few shortest columns that hold one; the
    columns of these unit pivots come back as unit_columns.  The rows left
    are diagonalized by _diagonalize, row and column echelon forms in turn
    (Kannan & Bachem, SIAM J. Comput. 8 (1979)), whose docstring shows that
    it ends; the rest of the invariant factors are its diagonal.
    """
    units, diagonal, _ = _eliminate([dict(row) for row in rows], ncols)
    return SmithForm(shape=(len(rows), ncols),
                     invariant_factors=(1,) * len(units) + tuple(
                         v for row in diagonal for v in row.values()),
                     unit_columns=frozenset(units))


def left_kernel_mod(rows: Sequence[dict[int, int]],
                    modulus: int) -> tuple[list[list[int]], list[int]]:
    """Generators and their orders of the Z_d-module of phi with
    phi A = 0 (mod d), for d = modulus >= 2 and the matrix A of the given
    sparse rows, which stay unchanged: summing c_k * gen_k over
    0 <= c_k < order_k gives every solution exactly once.  A generator is a
    list of len(rows) values in 0..d-1.

    This is the elimination of smith_normal_form with its row transform
    carried along: row i gets a 1 in column width + i, past every column of
    A, and the pivot searches stay below width, so each row ends holding
    there its row of a unimodular U, and below width its row of U A V for
    column operations V.  In the coordinates psi = phi U^-1, phi A = 0
    reads psi U A V = 0 (mod d).  A unit pivot row holds its unit in a
    column where every row taken after it and every row left are zero, so
    psi is 0 on the pivot rows, one after another, and they are dropped.  A
    row with entry f below width asks psi_k f = 0, solved by the multiples
    of d / gcd(f, d), of order gcd(f, d) (skipped at order 1); a row with
    nothing there, emptied by the unit stage or given empty, leaves psi_k
    free, of order d.  So the generators are those rows' carried parts
    times d / gcd(f, d), each solution once as U is unimodular, and the
    orders the residue's invariant factors mod d, in chain order, then d's.
    """
    width = 1 + max((j for row in rows for j in row), default=-1)
    _, diagonal, zero = _eliminate(
        [{**row, width + i: 1} for i, row in enumerate(rows)], width)
    gens, orders = [], []
    for row in diagonal + zero:
        order = math.gcd(sum(v for j, v in row.items() if j < width), modulus)
        if order > 1:
            scale = modulus // order
            gens.append([row.get(width + i, 0) * scale % modulus
                         for i in range(len(rows))])
            orders.append(order)
    return gens, orders


def _eliminate(rows: list[dict[int, int]], width: int):
    """The unit-pivot loop, then _diagonalize, on the given rows, which it
    takes over: (the unit pivot columns, the diagonal rows, the zero rows)."""
    store, cols = _sparse_store(rows)
    units = [q for q, _, _ in _eliminate_unit_pivots(store, cols, width)]
    return (units, *_diagonalize(list(store.values()), width))


_SEARCH_COLUMNS = 8     # unit-holding columns one pivot search looks at


def _eliminate_unit_pivots(rows, cols, width: int):
    """Schur-complement elimination on +-1 pivots below width, picked by a
    limited Markowitz search, in place on a sparse store of _sparse_store.

    Yields (q, u, prow) per pivot, in pivot order: the row taken out of the
    store held the unit u at column q and prow in its other columns, and
    subtracting A_iq * u times it from every other row i holding q cleared
    q, the columns at width and beyond taking part.  These are row
    operations, so the pivot rows and the rows left span the lattice of the
    rows given; and a unit pivot splits off one invariant factor 1, so the
    Smith form is (1,) * the pivot count followed by that of the residue
    left once no entry below width is a unit.
    Columns below width sit in buckets by their count of rows, kept up to
    date from each pivot: only the columns of the pivot row change.  A
    search walks the buckets from the least count and weighs the +-1
    entries of at most _SEARCH_COLUMNS columns that hold one, taking the
    least cost (c-1)(r-1) among them and stopping at once on a zero cost
    (Zlatev, SIAM J. Numer. Anal. 17 (1980)); a column it finds without a
    unit leaves the buckets until a pivot row changes it.
    """
    count: dict[int, int] = {}                  # column -> its bucket
    buckets: dict[int, set[int]] = {}           # count -> columns
    for j, held in cols.items():
        if j < width:
            _rebucket(buckets, count, j, len(held))
    while (best := _pick_unit_pivot(rows, cols, buckets, count)) is not None:
        p, q = best
        prow = _take_row(rows, cols, p)
        u = prow.pop(q)
        # u is its own inverse
        for i in cols.pop(q):
            _subtract_row(rows, cols, i, rows[i].pop(q) * u, prow)
        _rebucket(buckets, count, q, 0)
        for j in prow:
            if j < width:
                _rebucket(buckets, count, j, len(cols[j]))
        yield q, u, prow


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
    """Sparse rows as row -> {col: value} maps plus col -> {rows holding it}
    sets, zero entries dropped and empty rows left out.  The maps are taken
    over, not copied: eliminations change them in place."""
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for i, entries in enumerate(mat):
        if 0 in entries.values():
            for j in [j for j, v in entries.items() if not v]:
                del entries[j]
        if entries:
            rows[i] = entries
            for j in entries:
                cols.setdefault(j, set()).add(i)
    return rows, cols


def _column_loop(rows, cols, width: int):
    """Minimal-pivot column elimination, in place on a sparse store of
    _sparse_store.  Column by column below width, ascending, the rows
    holding the column are reduced against the one with the least absolute
    entry, the least row on a tie, until a single row is left; made
    positive, it is taken out of the store and yielded with the column.
    Each pivot column is zero in every later pivot row, and the rows left in
    the store have no entry below width."""
    for col in sorted(j for j in cols if j < width):
        held = cols[col]
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
        yield col, base


def _echelon(rows: list[dict[int, int]], width: int):
    """The column loop on the given rows, which it takes over: (the pivot
    rows in pivot order, the rows left with no entry below width)."""
    store = _sparse_store(rows)
    pivots = [row for _, row in _column_loop(*store, width)]
    return pivots, list(store[0].values())


def _transpose_pass(rows: list[dict[int, int]], width: int):
    """Column operations on rows, which it empties, as the column loop on
    their transpose below width, whose columns are the positions k of the
    rows; transposed back into new rows, the columns below width are renamed
    to the pivot positions of this pass, and each row keeps its entries at
    width and beyond."""
    flipped: dict[int, dict[int, int]] = {}
    back: list[dict[int, int]] = []
    for k, row in enumerate(rows):
        carried = {}
        for j, v in row.items():
            if j < width:
                flipped.setdefault(j, {})[k] = v
            else:
                carried[j] = v
        row.clear()             # free it before its copy grows
        back.append(carried)
    tpivots, _ = _echelon(list(flipped.values()), len(rows))
    for m, trow in enumerate(tpivots):
        for k, v in trow.items():
            back[k][m] = v
    return back


def _diagonalize(rows: list[dict[int, int]], width: int):
    """The matrix of the entries below width of the given rows, which it
    takes over, made diagonal by row and column operations; the entries at
    width and beyond take part in every row operation, so identity columns
    there carry the row transform, and no column operation touches them.
    Returns (diagonal, zero): the rows with one entry below width, each
    positive and dividing the next, and the rows with none.

    The first pass is _transpose_pass, which leaves at most as many columns
    as rows, so a short, wide residue is cut down along its short side
    before any row pass.  Then the column loop brings the rows to echelon
    form, and _transpose_pass runs it on the transpose, its columns keyed by
    pivot position, until each row has one entry below width (Kannan &
    Bachem, SIAM J. Comput. 8 (1979)).  This ends; the first pass is column
    operations only, and the argument starts after it.  A
    pass makes the entry at the first pivot position the gcd of the first
    column or row before it, which holds that entry, so the entry only falls
    to proper divisors until it divides its row and column; the next pass
    then clears both, and from then on its row is alone in its column and is
    taken first, unchanged, by every pass, as is its column; the argument
    goes on at the second position, and so on.
    Once diagonal, the first entry f_k that does not divide f_(k+1) has row
    k + 1 added to row k, and the passes go on: the earlier positions stay,
    and position k falls to a divisor of gcd(f_k, f_(k+1)) < f_k.  So the
    diagonal falls in lexicographic order, among the finitely many tuples of
    positive integers with its product, the absolute determinant of the
    rank x rank matrix that the transposed passes work on.
    """
    echelon, zero = _echelon(_transpose_pass(rows, width), width)
    while True:
        if all(sum(j < width for j in row) == 1 for row in echelon):
            facs = [next(v for j, v in row.items() if j < width)
                    for row in echelon]
            k = next((k for k in range(len(facs) - 1)
                      if facs[k + 1] % facs[k]), None)
            if k is None:
                return echelon, zero
            for j, v in echelon[k + 1].items():
                echelon[k][j] = echelon[k].get(j, 0) + v
        echelon, _ = _echelon(_transpose_pass(echelon, width), width)


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


class IntLattice:
    """Integer row lattice with an echelon basis for membership and solves.

    Vectors go in as sparse {index: value} maps with indices in 0..dim-1;
    zero values may be present and are dropped.  Generators accumulate
    through add(), which copies them; the echelon basis is built in one
    batch pass on first query, in exact Python integers: unit pivots first,
    then minimal pivot.  The unit-pivot loop of smith_normal_form takes the
    +-1 entries, each pivot row kept made positive; then _column_loop, the
    column loop of the Smith form's diagonalization, takes the rows left,
    column by column.  Each pivot column is zero in every later pivot row.
    Only the sparse pivot rows are kept; sparse_basis() returns copies of
    them.
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
        # recorder instead (ROADMAP item 7)
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
        for q, u, prow in _eliminate_unit_pivots(rows, cols, self.dim):
            base = {j: u * v for j, v in prow.items()}
            base[q] = 1
            self._pivots.append((q, base))
        self._pivots += _column_loop(rows, cols, self.dim)

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
