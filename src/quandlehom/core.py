"""Finite racks and quandles as explicit operation tables.

Elements are 0-based integers 0..n-1; ``table[x][y] = x*y``.  The operation is
right distributive and every right translation ``R_y: x -> x*y`` (a column of
the table) is a permutation.  Published matrices are 1-based; the shell module
converts on load/emit.

The Inn(X) closure and the mediality scan are capped by their element and
cell counts (SizeGuardExceeded); only ``invariants`` turns a refusal to None.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    ColumnNotBijective,
    IdempotencyFails,
    InnQuandleIllDefined,
    OutOfRangeEntry,
    SelfDistributivityFails,
    SizeGuardExceeded,
    ValidationError,
)

DEFAULT_CLOSURE_CAP = 10**6
MEDIALITY_SCAN_GUARD = 1 << 24  # cells of the mediality scan, 64^4
_AXIOM_BLOCK = 1 << 18          # cells per block of the distributivity check
_CYCLE_BLOCK = 1 << 15          # cells per block of a cycle-length lcm


@dataclass(frozen=True)
class Permutation:
    """Permutation of {0..n-1} stored by its image tuple."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        seen = [False] * n
        for v in self.images:
            if not 0 <= v < n or seen[v]:
                raise ValueError(f"not a permutation: {self.images!r}")
            seen[v] = True

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(n)))

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __mul__(self, other: "Permutation") -> "Permutation":
        # function composition: (p * q)(x) = p(q(x))
        return Permutation(tuple(self.images[i] for i in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(tuple(inv))

    @property
    def is_identity(self) -> bool:
        return all(i == v for i, v in enumerate(self.images))

    def order(self) -> int:
        return _lcm_of_cycles(np.array([self.images], dtype=np.int64))

    def cycle_string(self) -> str:
        n = len(self.images)
        seen = [False] * n
        parts = []
        for s in range(n):
            if seen[s]:
                continue
            cyc, x = [], s
            while not seen[x]:
                seen[x] = True
                cyc.append(x)
                x = self.images[x]
            if len(cyc) > 1:
                parts.append("(" + " ".join(map(str, cyc)) + ")")
        return "".join(parts) or "()"


class QuandleTable:
    """Immutable validated rack table.

    Construct through :func:`make_table` (raises the named axiom errors) or a
    constructions helper; direct ``QuandleTable(rows)`` also validates.
    ``rows`` may be an int64 array: the table keeps it as ``np_table``,
    marked read-only, and takes ``rows`` from its ``tolist()``.
    """

    __slots__ = ("order", "rows", "is_quandle", "_hash", "_np", "_orbits")

    def __init__(self, rows: Sequence[Sequence[int]] | np.ndarray,
                 _validated: bool = False):
        if isinstance(rows, np.ndarray):
            T = _table_array(rows)
            rows = tuple(map(tuple, T.tolist()))
        else:
            rows = tuple(tuple(map(int, row)) for row in rows)
            T = _table_array(rows)
        if not _validated:
            _check_axioms_strict(T, quandle=False)
        T.setflags(write=False)
        self.rows = rows
        self.order = len(rows)
        self.is_quandle = all(rows[x][x] == x for x in range(self.order))
        self._hash = hash(rows)
        self._np = T
        self._orbits = None

    # -- value semantics ----------------------------------------------------
    def __eq__(self, other):
        return isinstance(other, QuandleTable) and self.rows == other.rows

    def __hash__(self):
        return self._hash

    def __repr__(self):
        kind = "quandle" if self.is_quandle else "rack"
        return f"<{kind} of order {self.order}>"

    # -- access ---------------------------------------------------------------
    def op(self, x: int, y: int) -> int:
        return self.rows[x][y]

    @property
    def np_table(self) -> np.ndarray:
        return self._np

    def column(self, y: int) -> tuple[int, ...]:
        return tuple(self.rows[x][y] for x in range(self.order))


def _shape_check(rows) -> int:
    n = len(rows)
    if n < 1:
        raise ValueError("table must have at least one row")
    if isinstance(rows, np.ndarray):
        if rows.shape != (n, n):
            raise ValueError("table must be square")
        return n
    for row in rows:
        if len(row) != n:
            raise ValueError("table must be square")
    return n


def _table_array(rows) -> np.ndarray:
    """A square table as an int64 array; an int64 array comes back as it is.

    The shape is checked before any array is built, so a ragged table raises
    ValueError.  An entry beyond int64 lies outside 0..n-1: OutOfRangeEntry
    names the first out-of-range entry, row-major.
    """
    n = _shape_check(rows)
    if isinstance(rows, np.ndarray):
        return np.ascontiguousarray(rows, dtype=np.int64)
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:
        x, y = next((x, y) for x in range(n) for y in range(n)
                    if not 0 <= rows[x][y] < n)
        raise OutOfRangeEntry(x, y, rows[x][y], n) from None


def _first_axiom_violation(rows, quandle: bool):
    """Return the first axiom violation as an exception instance, or None.

    Witness order: range entries row-major, then columns left to right, then
    distributivity triples (a,b,c) lexicographic, then idempotency.  The
    triples are compared a block of a at a time, at most ``_AXIOM_BLOCK``
    cells a block.
    """
    try:
        T = _table_array(rows)
    except OutOfRangeEntry as err:
        return err
    n = len(T)
    out = (T < 0) | (T >= n)
    if out.any():
        x, y = divmod(int(np.argmax(out)), n)
        return OutOfRangeEntry(x, y, int(T[x, y]), n)
    # axiom 1: every column is a permutation
    colsort = np.sort(T, axis=0)
    bad = (colsort != np.arange(n)[:, None]).any(axis=0)
    if bad.any():
        return ColumnNotBijective(int(np.argmax(bad)))
    # axiom 2: (a*b)*c == (a*c)*(b*c) over a block of a at a time
    step = max(1, _AXIOM_BLOCK // (n * n))
    for lo in range(0, n, step):
        A = T[lo:lo + step]
        lhs = T[A]                         # lhs[a, b, c] = (a*b)*c
        rhs = T[A[:, None, :], T[None]]    # rhs[a, b, c] = (a*c)*(b*c)
        ne = lhs != rhs
        if ne.any():
            a, b, c = map(int, np.argwhere(ne)[0])
            return SelfDistributivityFails(lo + a, b, c)
    if quandle:
        off = np.flatnonzero(np.diagonal(T) != np.arange(n))
        if off.size:
            return IdempotencyFails(int(off[0]))
    return None


def _check_axioms_strict(rows, quandle: bool):
    err = _first_axiom_violation(rows, quandle)
    if err is not None:
        raise err


def make_table(rows: Sequence[Sequence[int]] | np.ndarray,
               require: str = "rack") -> QuandleTable:
    """Validate a raw 0-based table and wrap it; raises named axiom errors."""
    if require not in ("rack", "quandle"):
        raise ValueError("require must be 'rack' or 'quandle'")
    X = QuandleTable(rows)
    if require == "quandle" and not X.is_quandle:
        _check_axioms_strict(X.np_table, quandle=True)
    return X


@dataclass(frozen=True)
class InvariantReport:
    """Scalar invariants of a table; None marks a field left uncomputed:
    every one for a non-rack table, is_medial where its scan is refused."""

    is_rack: bool
    is_quandle: bool
    is_connected: Optional[bool] = None
    is_medial: Optional[bool] = None
    is_faithful: Optional[bool] = None
    type: Optional[int] = None
    inn_order: Optional[int] = None
    inn_exponent: Optional[int] = None
    violation: Optional[ValidationError] = None

    def as_dict(self) -> dict:
        return {
            "is_rack": self.is_rack,
            "is_quandle": self.is_quandle,
            "is_connected": self.is_connected,
            "is_medial": self.is_medial,
            "is_faithful": self.is_faithful,
            "type": self.type,
            "inn_order": self.inn_order,
            "inn_exponent": self.inn_exponent,
        }


def validate(rows, mode: str = "rack",
             strict: bool = False) -> InvariantReport:
    """Check axioms and, when the table is a rack, compute its invariants.

    In strict mode the first violation raises the named error carrying a
    witness; otherwise the report records it.
    """
    if mode not in ("rack", "quandle"):
        raise ValueError("mode must be 'rack' or 'quandle'")
    rows = tuple(tuple(int(v) for v in row) for row in rows)
    err = _first_axiom_violation(rows, quandle=(mode == "quandle"))
    if err is not None and not isinstance(err, IdempotencyFails):
        if strict:
            raise err
        return InvariantReport(is_rack=False, is_quandle=False, violation=err)
    if err is not None and strict:
        raise err
    X = QuandleTable(rows, _validated=True)
    rep = invariants(X)
    if err is not None:
        rep = dataclasses.replace(rep, violation=err)
    return rep


# ---------------------------------------------------------------- operations

def digits(idx: np.ndarray, order: int, width: int) -> np.ndarray:
    """The tuples of flat indices, most significant entry first: one more
    trailing axis of length width (width 0 gives the empty tuple)."""
    return idx[..., None] // order ** np.arange(width - 1, -1, -1) % order


def translate(X: QuandleTable, b: int) -> Permutation:
    """Right translation R_b, the column x -> x*b."""
    if not 0 <= b < X.order:
        raise IndexError(f"element {b} out of range")
    return Permutation(X.column(b))


def product(X: QuandleTable, x: int, ys: Iterable[int]) -> int:
    """Left-associated fold x*y1*y2*...; the empty word returns x."""
    n = X.order
    if not 0 <= x < n:
        raise IndexError(f"element {x} out of range")
    rows = X.rows
    for y in ys:
        x = rows[x][y]
    return x


def _orbits(X: QuandleTable) -> tuple[np.ndarray, np.ndarray]:
    """Every element's Inn-orbit label, the least element of its orbit, and
    the labels in use, ascending.

    Min-label propagation: each element repeatedly takes the least label among
    itself and its images under the right translations until nothing changes,
    so every label settles at the minimum of its orbit (forward images reach
    the whole orbit, as each translation permutes a finite set).  Both arrays
    are cached on the table, read-only, as ``np_table`` is.
    """
    if X._orbits is None:
        T = X.np_table
        lab = np.arange(X.order, dtype=np.int64)
        nxt = np.minimum(lab, lab[T].min(axis=1))
        while not np.array_equal(nxt, lab):
            lab, nxt = nxt, np.minimum(nxt, nxt[T].min(axis=1))
        minima = np.flatnonzero(lab == np.arange(X.order))
        lab.setflags(write=False)
        minima.setflags(write=False)
        X._orbits = lab, minima
    return X._orbits


def orbit(X: QuandleTable, start: int) -> frozenset[int]:
    """Orbit of a point under the group generated by all right translations."""
    lab = _orbits(X)[0]
    return frozenset(np.flatnonzero(lab == lab[start]).tolist())


def orbit_minima(X: QuandleTable) -> np.ndarray:
    """Least element of every Inn-orbit, ascending, cached on the table."""
    return _orbits(X)[1]


def orbit_cycle_minima(X: QuandleTable) -> np.ndarray:
    """The pairs (a, b) as flat indices a*n + b, ascending: a the least of
    its Inn-orbit and b the least of its cycle of R_a.  The cycles come from
    :func:`cycle_labels`.

    In every rack R_(a*a) = R_a, as R_(x*y) = R_y R_x R_y^-1.  So when a
    violation (a, b, ...) of a word identity or of mediality is mapped by
    the automorphism R_a, and a is put back in place of a*a, it stays a
    violation (the ``identities`` docstring and :func:`is_medial` say why)
    with b one step on along its R_a-cycle.  So, whether or not a*a = a,
    the violations with first entry a meet one with b least on its cycle.
    """
    n = X.order
    firsts = orbit_minima(X)
    label = cycle_labels(X.np_table.T[firsts])
    row, b = np.nonzero(label == np.arange(label.size).reshape(label.shape))
    return firsts[row] * n + b


def is_connected(X: QuandleTable) -> bool:
    return len(orbit_minima(X)) == 1


class PermutationGroup:
    """Finite permutation group closed from generators.

    ``generators`` holds the distinct generating permutations, sorted by
    image tuple; for ``inner_group`` they are the translations of a rack
    generating set.  Elements are ordered lexicographically on image tuples.
    The element set is held as a numpy array, one image tuple per row, which
    ``images_array`` returns (closures can reach 10^5+ elements).
    """

    __slots__ = ("generators", "order", "_array")

    def __init__(self, generators: Sequence[Permutation], array: np.ndarray):
        self.generators = tuple(generators)
        self._array = array
        self.order = int(array.shape[0])

    def images_array(self) -> np.ndarray:
        return self._array

    def __len__(self) -> int:
        return self.order


def generating_set(X: QuandleTable) -> list[int]:
    """A rack generating set of X, ascending, grown greedily: each element
    outside the subset closed under * that the set so far generates (a
    subrack) joins it, until that subrack is all of X.  Each pass of that
    growth forms only the products with a member added by the pass before.
    """
    T = X.np_table
    inside = np.zeros(X.order, dtype=bool)
    points = []
    for b in range(X.order):
        if inside[b]:
            continue
        points.append(b)
        inside[b] = True
        new = np.array([b])
        while len(new):
            # only products with a newcomer on one side can be new
            members = np.flatnonzero(inside)
            hit = np.concatenate([T[np.ix_(new, members)].ravel(),
                                  T[np.ix_(members, new)].ravel()])
            new = np.unique(hit[~inside[hit]])
            inside[new] = True
    return points


def inner_group(X: QuandleTable,
                closure_cap: int = DEFAULT_CLOSURE_CAP) -> PermutationGroup:
    """Inn(X), the group generated by the right translations.

    R_{b*c} = R_c R_b R_c^-1, so the translations of any rack generating set
    generate it; only those of generating_set(X) are closed over.

    Every element is a rack automorphism, so its images on the generating
    set determine it, and those images are its key.  Each breadth-first
    level is one numpy step: every generator is composed with the whole
    frontier on the generating set alone, the keys are deduplicated with
    ``np.unique``, those already seen are dropped by ``searchsorted``, and
    only the new elements are composed in full.  A key is the byte string of
    the int64 images.  SizeGuardExceeded is raised before a level would
    take the element count past ``closure_cap``; the elements are sorted
    lexicographically at the end.
    """
    points = generating_set(X)
    gens = np.array(sorted({X.column(b) for b in points}), dtype=np.int64)
    width = f"S{8 * len(points)}"
    frontier = np.arange(X.order, dtype=np.int64)[None, :]
    found = [frontier]
    seen = np.ascontiguousarray(frontier[:, points]).view(width).ravel()
    while True:
        keys = np.ascontiguousarray(gens[:, frontier[:, points]])
        fresh, first = np.unique(keys.view(width).ravel(), return_index=True)
        at = np.searchsorted(seen, fresh)
        new = seen[np.minimum(at, len(seen) - 1)] != fresh
        if not new.any():
            break
        fresh, first, at = fresh[new], first[new], at[new]
        SizeGuardExceeded.check(
            len(seen) + len(fresh), closure_cap,
            f"group closure exceeded the configured cap {closure_cap}")
        seen = np.insert(seen, at, fresh)
        g, f = np.divmod(first, len(frontier))
        frontier = gens[g[:, None], frontier[f]]
        found.append(frontier)
    arr = np.concatenate(found)
    return PermutationGroup([Permutation(g) for g in map(tuple, gens.tolist())],
                            arr[np.lexsort(arr.T[::-1])])


def cycle_labels(perms: np.ndarray) -> np.ndarray:
    """The least flat index on every point's cycle, for each row of a 2-d
    array of permutations given by their images; the result has the input's
    shape, and a point is the least of its cycle where its label is its own
    flat index.

    Pointer doubling: after r rounds a label is the least index among the
    first 2^r points of the cycle from it, so ceil(log2 n) rounds cover
    every cycle.
    """
    perms = np.asarray(perms, dtype=np.int64)
    count, n = perms.shape
    step = (perms + np.arange(0, count * n, n, dtype=np.int64)[:, None]).ravel()
    label = np.arange(count * n, dtype=np.int64)
    for _ in range((n - 1).bit_length()):
        label = np.minimum(label, label[step])
        step = step[step]
    return label.reshape(count, n)


def cycle_lengths(perms: np.ndarray) -> np.ndarray:
    """The length of every point's cycle, for each row of a 2-d array of
    permutations given by their images; the result has the input's shape:
    a bincount of the cycle labels counts the points of each cycle."""
    label = cycle_labels(perms)
    return np.bincount(label.ravel(), minlength=label.size)[label]


def _lcm_of_cycles(perms: np.ndarray) -> int:
    """The lcm of every cycle length of every row, a block of rows at a
    time: at most ``_CYCLE_BLOCK`` cells, or one row."""
    rows = max(1, _CYCLE_BLOCK // max(1, perms.shape[1]))
    return math.lcm(*{v for lo in range(0, len(perms), rows) for v in
                      np.unique(cycle_lengths(perms[lo:lo + rows])).tolist()})


def group_exponent(G: PermutationGroup) -> int:
    """Least e with g^e = identity for every element: the lcm of every cycle
    length of every element."""
    return _lcm_of_cycles(G.images_array())


def quandle_type(X: QuandleTable) -> int:
    """Least t with x *^t y = x for all x, y: lcm of column permutation orders."""
    return _lcm_of_cycles(X.np_table.T)


def is_faithful(X: QuandleTable) -> bool:
    return len({X.column(b) for b in range(X.order)}) == X.order


def is_medial(X: QuandleTable) -> bool:
    """Scan (x*y)*(u*v) == (x*u)*(y*v); SizeGuardExceeded where the scan
    would pass ``MEDIALITY_SCAN_GUARD`` cells, as on trivial(65).

    Every element of Inn(X) is an automorphism of a rack, so the set of
    violating (x, y, u, v) is closed under the diagonal Inn action and meets
    the assignments with x an orbit minimum whenever it is nonempty.  Fix
    such an x.  R_x maps a violation (x, y, u, v) to (x*x, y*x, u*x, v*x).
    The map phi(a) = a*a is a bijection with phi(a)*b = phi(a*b), so
    replacing x by phi(x) applies phi to both sides of the identity, and
    (x, y*x, u*x, v*x) is a violation too: the violations with this x are
    closed under R_x applied to y, u and v, and one of them has y least on
    its cycle of R_x.  So (x, y) runs over ``orbit_cycle_minima`` only, u
    and v over every element, in racks and quandles alike.
    """
    n = X.order
    rows = orbit_cycle_minima(X)
    cells = len(rows) * n * n
    SizeGuardExceeded.check(cells, MEDIALITY_SCAN_GUARD,
                            f"{cells} mediality scan cells exceed the guard")
    T = X.np_table
    flat = T.reshape(-1)                       # flat[x*n+y] = x*y
    idx = np.arange(n * n)
    first, second = idx // n, idx % n
    rows_per_chunk = max(1, (1 << 20) // max(1, n * n))   # ~1M cells a block
    for lo in range(0, len(rows), rows_per_chunk):
        r = rows[lo:lo + rows_per_chunk, None]
        lhs = T[flat[r], flat[None, :]]
        a = T[first[r], first[None, :]]     # x*u
        b = T[second[r], second[None, :]]   # y*v
        if (lhs != T[a, b]).any():
            return False
    return True


def invariants(X: QuandleTable) -> InvariantReport:
    """Full invariant report for a validated table."""
    G = inner_group(X)
    try:
        medial = is_medial(X)
    except SizeGuardExceeded:
        medial = None
    return InvariantReport(
        is_rack=True,
        is_quandle=X.is_quandle,
        is_connected=is_connected(X),
        is_medial=medial,
        is_faithful=is_faithful(X),
        type=quandle_type(X),
        inn_order=G.order,
        inn_exponent=group_exponent(G),
    )


def inner_representation(X: QuandleTable) -> tuple[QuandleTable, tuple[int, ...]]:
    """Image quandle on the distinct right translations plus the index map.

    The image operation is R_a * R_b = R_{a*b}; well-definedness over the
    choice of representatives is verified and InnQuandleIllDefined raised on
    any conflict (which signals a non-rack input).
    """
    n = X.order
    index_of: dict[tuple[int, ...], int] = {}
    rep_of: list[int] = []
    elem_to_idx = []
    for a in range(n):
        col = X.column(a)
        if col not in index_of:
            index_of[col] = len(rep_of)
            rep_of.append(a)
        elem_to_idx.append(index_of[col])
    m = len(rep_of)
    img = [[-1] * m for _ in range(m)]
    for a in range(n):
        ia = elem_to_idx[a]
        for b in range(n):
            ib = elem_to_idx[b]
            val = elem_to_idx[X.rows[a][b]]
            if img[ia][ib] == -1:
                img[ia][ib] = val
            elif img[ia][ib] != val:
                raise InnQuandleIllDefined((a, b, rep_of[ia], rep_of[ib]))
    table = make_table(img, require="rack")
    return table, tuple(elem_to_idx)
