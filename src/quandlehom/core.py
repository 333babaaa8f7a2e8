"""Finite racks and quandles as explicit operation tables.

Elements are 0-based integers 0..n-1; ``table[x][y] = x*y``.  The operation is
right distributive and every right translation ``R_y: x -> x*y`` (a column of
the table) is a permutation.  Published matrices are 1-based; the shell module
converts on load/emit.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    ClosureBudgetExceeded,
    ColumnNotBijective,
    IdempotencyFails,
    InnQuandleIllDefined,
    OutOfRangeEntry,
    SelfDistributivityFails,
    ValidationError,
)

DEFAULT_CLOSURE_CAP = 10**6
MEDIALITY_SCAN_LIMIT = 64


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
        n = len(self.images)
        seen = [False] * n
        out = 1
        for s in range(n):
            if seen[s]:
                continue
            length, x = 0, s
            while not seen[x]:
                seen[x] = True
                x = self.images[x]
                length += 1
            out = math.lcm(out, length)
        return out

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
    """

    __slots__ = ("order", "rows", "is_quandle", "_hash", "_np",
                 "_orbit_minima")

    def __init__(self, rows: Sequence[Sequence[int]],
                 _validated: bool = False):
        rows = tuple(tuple(map(int, row)) for row in rows)
        if not _validated:
            _check_axioms_strict(rows, quandle=False)
        self.rows = rows
        self.order = len(rows)
        self.is_quandle = all(rows[x][x] == x for x in range(self.order))
        self._hash = hash(rows)
        self._np = None
        self._orbit_minima = None

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
        if self._np is None:
            arr = np.array(self.rows, dtype=np.int64)
            arr.setflags(write=False)
            self._np = arr
        return self._np

    def column(self, y: int) -> tuple[int, ...]:
        return tuple(self.rows[x][y] for x in range(self.order))


def _shape_check(rows) -> int:
    n = len(rows)
    if n < 1:
        raise ValueError("table must have at least one row")
    for row in rows:
        if len(row) != n:
            raise ValueError("table must be square")
    return n


def _first_axiom_violation(rows, quandle: bool):
    """Return the first axiom violation as an exception instance, or None.

    Witness order: range entries row-major, then columns left to right, then
    distributivity triples (a,b,c) lexicographic, then idempotency.
    """
    n = _shape_check(rows)
    for x in range(n):
        for y in range(n):
            v = rows[x][y]
            if not 0 <= v < n:
                return OutOfRangeEntry(x, y, v, n)
    T = np.array(rows, dtype=np.int64)
    # axiom 1: every column is a permutation
    colsort = np.sort(T, axis=0)
    bad = (colsort != np.arange(n)[:, None]).any(axis=0)
    if bad.any():
        return ColumnNotBijective(int(np.argmax(bad)))
    # axiom 2: (a*b)*c == (a*c)*(b*c), scanned per a to keep memory flat
    for a in range(n):
        lhs = T[T[a, :], :]            # lhs[b, c] = (a*b)*c
        rhs = T[T[a, :][None, :], T]   # rhs[b, c] = T[a*c, b*c] = (a*c)*(b*c)
        ne = lhs != rhs
        if ne.any():
            b, c = map(int, np.argwhere(ne)[0])
            return SelfDistributivityFails(a, b, c)
    if quandle:
        for x in range(n):
            if rows[x][x] != x:
                return IdempotencyFails(x)
    return None


def _check_axioms_strict(rows, quandle: bool):
    err = _first_axiom_violation(rows, quandle)
    if err is not None:
        raise err


def make_table(rows: Sequence[Sequence[int]],
               require: str = "rack") -> QuandleTable:
    """Validate a raw 0-based table and wrap it; raises named axiom errors."""
    if require not in ("rack", "quandle"):
        raise ValueError("require must be 'rack' or 'quandle'")
    X = QuandleTable(rows)
    if require == "quandle" and not X.is_quandle:
        _check_axioms_strict(X.rows, quandle=True)
    return X


@dataclass(frozen=True)
class InvariantReport:
    """Scalar invariants of a table; None marks a field left uncomputed:
    every one for a non-rack table, is_medial above its scan limit."""

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


def orbit(X: QuandleTable, start: int) -> frozenset[int]:
    """Orbit of a point under the group generated by all right translations."""
    seen = {start}
    frontier = [start]
    rows = X.rows
    n = X.order
    while frontier:
        nxt = []
        for x in frontier:
            row = rows[x]
            for y in range(n):
                z = row[y]
                if z not in seen:
                    seen.add(z)
                    nxt.append(z)
        frontier = nxt
    return frozenset(seen)


def orbit_minima(X: QuandleTable) -> np.ndarray:
    """Least element of every Inn-orbit, ascending.

    Min-label propagation: each element repeatedly takes the least label among
    itself and its images under the right translations until nothing changes,
    so every label settles at the minimum of its orbit (forward images reach
    the whole orbit, as each translation permutes a finite set).  The result
    is cached on the table, read-only, as ``np_table`` is.
    """
    if X._orbit_minima is None:
        T = X.np_table
        lab = np.arange(X.order, dtype=np.int64)
        nxt = np.minimum(lab, lab[T].min(axis=1))
        while not np.array_equal(nxt, lab):
            lab, nxt = nxt, np.minimum(nxt, nxt[T].min(axis=1))
        X._orbit_minima = np.flatnonzero(lab == np.arange(X.order))
        X._orbit_minima.setflags(write=False)
    return X._orbit_minima


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


def inner_group(X: QuandleTable,
                closure_cap: int = DEFAULT_CLOSURE_CAP) -> PermutationGroup:
    """Inn(X), the group generated by the right translations.

    R_{b*c} = R_c R_b R_c^-1, so the translations of any rack generating set
    generate it.  The set is grown greedily: each element outside the subset
    closed under * that the set so far generates (a subrack) joins it, until
    that subrack is all of X.  Each pass of that growth forms only the
    products with a member added by the pass before.  Only the generating
    set's translations are closed over.

    Every element is a rack automorphism, so its images on the generating
    set determine it, and those images are its key.  Each breadth-first
    level is one numpy step: every generator is composed with the whole
    frontier on the generating set alone, the keys are deduplicated with
    ``np.unique``, those already seen are dropped by ``searchsorted``, and
    only the new elements are composed in full.  A key is the byte string of
    the int64 images.  ClosureBudgetExceeded is raised before a level would
    take the element count past ``closure_cap``; the elements are sorted
    lexicographically at the end.
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
        if len(seen) + len(fresh) > closure_cap:
            raise ClosureBudgetExceeded(closure_cap)
        seen = np.insert(seen, at, fresh)
        g, f = np.divmod(first, len(frontier))
        frontier = gens[g[:, None], frontier[f]]
        found.append(frontier)
    arr = np.concatenate(found)
    return PermutationGroup([Permutation(g) for g in map(tuple, gens.tolist())],
                            arr[np.lexsort(arr.T[::-1])])


def group_exponent(G: PermutationGroup) -> int:
    """Least e with g^e = identity for every element: the lcm of every cycle
    length of every element.

    Pointer doubling labels each point with the least flat index on its
    cycle in ceil(log2 n) rounds; a bincount of the labels counts the points
    of each cycle.
    """
    arr = G.images_array()
    count, n = arr.shape
    step = (arr + np.arange(0, count * n, n, dtype=np.int64)[:, None]).ravel()
    label = np.arange(count * n, dtype=np.int64)
    for _ in range((n - 1).bit_length()):
        label = np.minimum(label, label[step])
        step = step[step]
    lengths = np.unique(np.bincount(label))
    return math.lcm(*lengths[lengths > 0].tolist())


def quandle_type(X: QuandleTable) -> int:
    """Least t with x *^t y = x for all x, y: lcm of column permutation orders."""
    out = 1
    seen = set()
    for b in range(X.order):
        col = X.column(b)
        if col in seen:
            continue
        seen.add(col)
        out = math.lcm(out, Permutation(col).order())
    return out


def is_faithful(X: QuandleTable) -> bool:
    return len({X.column(b) for b in range(X.order)}) == X.order


def is_medial(X: QuandleTable,
              limit: int = MEDIALITY_SCAN_LIMIT) -> Optional[bool]:
    """Scan (x*y)*(u*v) == (x*u)*(y*v); None above the size limit.

    Every element of Inn(X) is an automorphism of a rack, so the set of
    violating (x, y, u, v) is closed under the diagonal Inn action and meets
    the assignments with x an orbit minimum whenever it is nonempty: x ranges
    over ``orbit_minima`` only, y, u and v over every element.
    """
    n = X.order
    if n > limit:
        return None
    T = X.np_table
    flat = T.reshape(-1)                       # flat[x*n+y] = x*y
    idx = np.arange(n * n)
    first, second = idx // n, idx % n
    rows = (orbit_minima(X)[:, None] * n + idx[None, :n]).reshape(-1)
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
    return InvariantReport(
        is_rack=True,
        is_quandle=X.is_quandle,
        is_connected=is_connected(X),
        is_medial=is_medial(X),
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


@lru_cache(maxsize=4096)
def _medial_cached(X: QuandleTable) -> Optional[bool]:
    return is_medial(X)
