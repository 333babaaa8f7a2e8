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

    __slots__ = ("order", "rows", "labels", "is_quandle", "_hash", "_np")

    def __init__(self, rows: Sequence[Sequence[int]],
                 labels: Optional[Sequence[str]] = None,
                 _validated: bool = False):
        rows = tuple(tuple(int(v) for v in row) for row in rows)
        if not _validated:
            _check_axioms_strict(rows, quandle=False)
        self.rows = rows
        self.order = len(rows)
        self.labels = tuple(labels) if labels is not None else None
        self.is_quandle = all(rows[x][x] == x for x in range(self.order))
        self._hash = hash(rows)
        self._np = None

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


def make_table(rows: Sequence[Sequence[int]], require: str = "rack",
               labels: Optional[Sequence[str]] = None) -> QuandleTable:
    """Validate a raw 0-based table and wrap it; raises named axiom errors."""
    if require not in ("rack", "quandle"):
        raise ValueError("require must be 'rack' or 'quandle'")
    rows = tuple(tuple(int(v) for v in row) for row in rows)
    _check_axioms_strict(rows, quandle=(require == "quandle"))
    return QuandleTable(rows, labels=labels, _validated=True)


@dataclass(frozen=True)
class InvariantReport:
    """Scalar invariants of a table; None marks fields skipped by config."""

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


def validate(rows, mode: str = "rack", strict: bool = False,
             with_inner: bool = True,
             closure_cap: int = DEFAULT_CLOSURE_CAP,
             mediality_limit: int = MEDIALITY_SCAN_LIMIT) -> InvariantReport:
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
    rep = invariants(X, with_inner=with_inner, closure_cap=closure_cap,
                     mediality_limit=mediality_limit)
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


def is_connected(X: QuandleTable) -> bool:
    return len(orbit(X, 0)) == X.order


class PermutationGroup:
    """Finite permutation group closed from generators.

    Elements are ordered lexicographically on image tuples.  The element set
    is held as a numpy array; ``elements`` materializes Permutation objects on
    first access (closures can reach 10^5+ elements).
    """

    __slots__ = ("generators", "order", "_array", "_elements")

    def __init__(self, generators: Sequence[Permutation], array: np.ndarray):
        self.generators = tuple(generators)
        self._array = array
        self.order = int(array.shape[0])
        self._elements = None

    @property
    def elements(self) -> tuple[Permutation, ...]:
        if self._elements is None:
            self._elements = tuple(
                Permutation(tuple(int(v) for v in row)) for row in self._array)
        return self._elements

    def images_array(self) -> np.ndarray:
        return self._array

    def __len__(self) -> int:
        return self.order


def close_permutations(generators: Sequence[Permutation], n: int,
                       closure_cap: int = DEFAULT_CLOSURE_CAP) -> PermutationGroup:
    """Breadth-first closure of a generator set under composition; products
    are composed in vectorized batches and filtered through a byte-key set."""
    gens_arr = np.array(sorted({g.images for g in generators}), dtype=np.int64)
    if gens_arr.size == 0:
        gens_arr = np.arange(n, dtype=np.int64)[None, :]
    ident = np.arange(n, dtype=np.int64)
    seen = {ident.tobytes()}
    rows = [ident]
    frontier = ident[None, :]
    while frontier.shape[0]:
        # batch compose: out[i, j] = gen_i o frontier_j
        prod = gens_arr[:, frontier].reshape(-1, n)
        fresh = []
        for row in prod:
            key = row.tobytes()
            if key not in seen:
                seen.add(key)
                if len(seen) > closure_cap:
                    raise ClosureBudgetExceeded(closure_cap)
                fresh.append(row)
        if not fresh:
            break
        frontier = np.array(fresh, dtype=np.int64)
        rows.extend(fresh)
    arr = np.array(sorted(map(tuple, rows)), dtype=np.int64)
    return PermutationGroup([Permutation(tuple(int(v) for v in g)) for g in gens_arr],
                            arr)


def inner_group(X: QuandleTable,
                closure_cap: int = DEFAULT_CLOSURE_CAP) -> PermutationGroup:
    """Group generated by all right translations of the table."""
    seen = set()
    gens = []
    for b in range(X.order):
        col = X.column(b)
        if col not in seen:
            seen.add(col)
            gens.append(Permutation(col))
    return close_permutations(gens, X.order, closure_cap=closure_cap)


def _point_periods(arr: np.ndarray) -> np.ndarray:
    """Per-row cycle length of every point of a stack of permutations."""
    count, n = arr.shape
    pos = np.tile(np.arange(n, dtype=np.int64), (count, 1))
    period = np.zeros((count, n), dtype=np.int64)
    target = np.arange(n, dtype=np.int64)
    for k in range(1, n + 1):
        pos = np.take_along_axis(arr, pos, axis=1)
        closed = (pos == target) & (period == 0)
        if closed.any():
            period[closed] = k
        if (period != 0).all():
            break
    return period


def group_exponent(G: PermutationGroup) -> int:
    """Least e with g^e = identity for every element."""
    arr = G.images_array()
    if arr.shape[0] == 0:
        return 1
    orders = np.lcm.reduce(_point_periods(arr), axis=1)
    out = 1
    for v in np.unique(orders):
        out = math.lcm(out, int(v))
    return out


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


def is_medial(X: QuandleTable, limit: int = MEDIALITY_SCAN_LIMIT,
              chunk: int = 1 << 20) -> Optional[bool]:
    """Exhaustive (x*y)*(u*v) == (x*u)*(y*v) scan; None above the size limit."""
    n = X.order
    if n > limit:
        return None
    T = X.np_table
    flat = T.reshape(-1)                       # flat[x*n+y] = x*y
    idx = np.arange(n * n)
    first, second = idx // n, idx % n
    rows_per_chunk = max(1, chunk // max(1, n * n))
    for lo in range(0, n * n, rows_per_chunk):
        hi = min(n * n, lo + rows_per_chunk)
        lhs = T[flat[lo:hi, None], flat[None, :]]
        a = T[first[lo:hi, None], first[None, :]]     # x*u
        b = T[second[lo:hi, None], second[None, :]]   # y*v
        if (lhs != T[a, b]).any():
            return False
    return True


def invariants(X: QuandleTable, with_inner: bool = True,
               closure_cap: int = DEFAULT_CLOSURE_CAP,
               mediality_limit: int = MEDIALITY_SCAN_LIMIT) -> InvariantReport:
    """Full invariant report for a validated table."""
    inn_order = inn_exponent = None
    if with_inner:
        G = inner_group(X, closure_cap=closure_cap)
        inn_order = G.order
        inn_exponent = group_exponent(G)
    return InvariantReport(
        is_rack=True,
        is_quandle=X.is_quandle,
        is_connected=is_connected(X),
        is_medial=is_medial(X, limit=mediality_limit),
        is_faithful=is_faithful(X),
        type=quandle_type(X),
        inn_order=inn_order,
        inn_exponent=inn_exponent,
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
