"""Free chain groups on element tuples, face and boundary maps, the two-cycle
attached to a satisfied inner identity, and identity/degeneracy subcomplex
generators with integer-span membership.

A degree-n chain is a sparse integer combination of n-tuples.  Faces follow
the rack convention: the plain face deletes entry h, the twisted face acts by
*x_h on the first h-1 entries before deleting; the boundary is the
alternating sum of their differences for h = 2..n.

Subcomplex generators are held as arrays of flat tuple indices, built from
the word's prefix products in whole-array gathers.  An identity span of
degree d is the span one degree down tensored with C_1 plus the span of the
generators whose letter slot is last, and its lattice is built that way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Optional, Sequence

import numpy as np

from .core import QuandleTable
from .errors import (
    DegreeMismatch,
    DegreeTooSmall,
    IdentityNotSatisfied,
    IndexOutOfRange,
    NotMedial,
    SizeGuardExceeded,
    SubcomplexClosureViolated,
)
from .identities import _SCAN_CHUNK, Assignment, Word, satisfies_cached
from .linalg import IntLattice

DEFAULT_SIZE_GUARD = 200_000


class FormalChain:
    """Sparse integer linear combination of fixed-length element tuples."""

    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms: Optional[dict] = None):
        self.degree = degree
        clean = {}
        for tup, coef in (terms or {}).items():
            if coef:
                if len(tup) != degree:
                    raise DegreeMismatch(
                        f"tuple {tup} does not have degree {degree}")
                clean[tuple(tup)] = int(coef)
        self.terms = clean

    @staticmethod
    def zero(degree: int) -> "FormalChain":
        return FormalChain(degree, {})

    @staticmethod
    def of(tup: Sequence[int], coef: int = 1) -> "FormalChain":
        tup = tuple(tup)
        return FormalChain(len(tup), {tup: coef})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, FormalChain)
                and self.degree == other.degree and self.terms == other.terms)

    def __hash__(self):
        return hash((self.degree, frozenset(self.terms.items())))

    def __add__(self, other: "FormalChain") -> "FormalChain":
        if self.degree != other.degree:
            raise DegreeMismatch("chain degrees differ")
        out = dict(self.terms)
        for tup, coef in other.terms.items():
            out[tup] = out.get(tup, 0) + coef
        return FormalChain(self.degree, out)

    def __sub__(self, other: "FormalChain") -> "FormalChain":
        return self + (-other)

    def __neg__(self) -> "FormalChain":
        return FormalChain(self.degree, {t: -c for t, c in self.terms.items()})

    def __rmul__(self, k: int) -> "FormalChain":
        return FormalChain(self.degree, {t: k * c for t, c in self.terms.items()})

    def items(self):
        return self.terms.items()

    def support(self) -> list[tuple[int, ...]]:
        return sorted(self.terms)

    def __repr__(self):
        return f"FormalChain({format_chain(self)!r})"


def format_chain(chain: FormalChain) -> str:
    """Render as `coef * (t1,...,tn)` terms joined by +/-, 1-based labels."""
    if not chain.terms:
        return "0"
    parts = []
    for tup in sorted(chain.terms):
        coef = chain.terms[tup]
        body = "(" + ",".join(str(v + 1) for v in tup) + ")"
        mag = abs(coef)
        text = body if mag == 1 else f"{mag}*{body}"
        parts.append(("-" if coef < 0 else "+", text))
    sign, text = parts[0]
    out = ("- " if sign == "-" else "") + text
    for sign, text in parts[1:]:
        out += f" {sign} {text}"
    return out


def face(X: QuandleTable, tup: Sequence[int], h: int, kind: str) -> tuple[int, ...]:
    """Face of a tuple: kind "d" deletes entry h (1-based); kind "delta" acts
    by *x_h on entries 1..h-1 first."""
    tup = tuple(tup)
    n = len(tup)
    if not 1 <= h <= n:
        raise IndexOutOfRange(f"face index {h} outside 1..{n}")
    if kind == "d":
        return tup[:h - 1] + tup[h:]
    if kind == "delta":
        xh = tup[h - 1]
        rows = X.rows
        return tuple(rows[v][xh] for v in tup[:h - 1]) + tup[h:]
    raise ValueError("kind must be 'd' or 'delta'")


def boundary_of_tuple(X: QuandleTable, tup: Sequence[int]) -> dict:
    """Boundary of a single basis tuple as a sparse term map."""
    tup = tuple(tup)
    n = len(tup)
    out: dict = {}
    for h in range(2, n + 1):
        sign = 1 if h % 2 == 0 else -1
        d = face(X, tup, h, "d")
        out[d] = out.get(d, 0) + sign
        dl = face(X, tup, h, "delta")
        out[dl] = out.get(dl, 0) - sign
    return {t: c for t, c in out.items() if c}


def boundary(X: QuandleTable, chain: FormalChain) -> FormalChain:
    """Linear extension of the alternating face sum; degree drops by one and
    the degree-1 boundary is zero (empty sum)."""
    if chain.degree < 1:
        raise DegreeTooSmall("boundary needs degree >= 1")
    out: dict = {}
    for tup, coef in chain.terms.items():
        for t, c in boundary_of_tuple(X, tup).items():
            out[t] = out.get(t, 0) + coef * c
    return FormalChain(chain.degree - 1, out)


def prefix_products(X: QuandleTable, w: Word, lo: int = 0,
                    hi: Optional[int] = None):
    """Prefix products of the assignments lo..hi-1 (all n^(m+1) by default)
    of the full scan order, yielded as (ys, P) per block of at most
    ``_SCAN_CHUNK`` assignments.

    The order is ``satisfies``': letter tuples lexicographic with x fastest.
    ys[r] holds the letter values of the block's r-th assignment, and column
    r of P is [x, x*w_1, ..., x*w_1*...*w_(k-1)], one gather per letter: row i
    is the first entry of the term (P_i, y_tau(i)) of the attached 2-chain.
    """
    n = X.order
    hi = n ** (w.letters + 1) if hi is None else hi
    T = X.np_table
    for start in range(lo, hi, _SCAN_CHUNK):
        idx = np.arange(start, min(hi, start + _SCAN_CHUNK), dtype=np.int64)
        ys = np.empty((len(idx), w.letters), dtype=np.int64)
        rest = idx // n
        for j in reversed(range(w.letters)):
            rest, ys[:, j] = np.divmod(rest, n)
        P = np.empty((w.length, len(idx)), dtype=np.int64)
        P[0] = idx % n
        for i in range(1, w.length):
            P[i] = T[P[i - 1], ys[:, w.tau[i - 1]]]
        yield ys, P


def identity_cycle(X: QuandleTable, w: Word, assignment: Assignment,
                   permissive: bool = False) -> FormalChain:
    """Degree-2 chain of prefix products attached to an inner identity.

    With k letters this is (x, y_1st) + sum over i of (x*prefix_i, y_next),
    a 2-cycle whenever the table satisfies the identity.  In permissive mode
    an unsatisfied identity still yields the chain; its boundary telescopes to
    (x) - (x*w).
    """
    if not permissive and not satisfies_cached(X, w):
        raise IdentityNotSatisfied(w)
    x, ys = assignment.x, assignment.ys
    if len(ys) != w.letters:
        raise ValueError(f"assignment needs {w.letters} letter values")
    if not all(0 <= v < X.order for v in (x, *ys)):
        raise IndexOutOfRange(f"assignment values outside 0..{X.order - 1}")
    pos = tuple_index(ys, X.order) * X.order + x
    prefixes = next(prefix_products(X, w, pos, pos + 1))[1][:, 0].tolist()
    out: dict = {}
    for i, t in enumerate(w.tau):
        tup = (prefixes[i], ys[t])
        out[tup] = out.get(tup, 0) + 1
    return FormalChain(2, out)


def identity_cycle_failures(X: QuandleTable, w: Word) -> list[Assignment]:
    """Assignments, in the full scan order, whose ``identity_cycle`` chain
    has a nonzero boundary; empty exactly when X satisfies w.  The boundary
    of a term (a, b) is (a) - (a*b): both faces are formed for a block of
    assignments, a*b by its own gather, and a chain is a cycle exactly when
    its two face multisets agree."""
    flat = X.np_table.reshape(-1)
    out = []
    for ys, P in prefix_products(X, w):
        tails = flat[P * X.order + ys[:, w.tau].T]
        bad = (np.sort(P, axis=0) != np.sort(tails, axis=0)).any(axis=0)
        out.extend(Assignment(int(P[0, r]), tuple(ys[r].tolist()))
                   for r in np.flatnonzero(bad))
    return out


def medial_cycle(X: QuandleTable, x: int, y: int, u: int, v: int,
                 permissive: bool = False) -> FormalChain:
    """[(x,y) + (x*y, u*v)] - [(x,u) + (x*u, y*v)]; a 2-cycle on medial tables."""
    from .core import _medial_cached

    if not permissive and not _medial_cached(X):
        raise NotMedial("table is not medial")
    rows = X.rows
    out: dict = {}
    for tup, s in (((x, y), 1), ((rows[x][y], rows[u][v]), 1),
                   ((x, u), -1), ((rows[x][u], rows[y][v]), -1)):
        out[tup] = out.get(tup, 0) + s
    return FormalChain(2, out)


@dataclass(frozen=True, eq=False)
class GeneratorSet:
    """Generators of one subcomplex degree, with provenance per chain.

    The generators are held as one array of flat tuple indices
    (``tuple_index``), one row per generator and one column per term, a tuple
    that fills several columns counting once per column.  ``chains`` and
    ``provenance`` are built from it on first access.  An identity set of
    degree >= 3 reaches the set one degree down (``lower``): its lattice is
    the lower lattice with each element appended, plus the generators whose
    letter slot is last, and its boundary map is written in the two echelon
    bases once (``identity_boundary``).
    """

    order: int                      # element count of the underlying table
    degree: int
    kind: str                       # "degenerate" | "identity"
    word: Optional[Word]
    _table: QuandleTable = field(repr=False)
    _first_slot: bool = field(repr=False)
    _terms: np.ndarray = field(repr=False)      # generators x terms
    _sources: np.ndarray = field(repr=False)    # enumeration row per generator

    def __len__(self):
        return len(self._terms)

    @cached_property
    def chains(self) -> tuple[FormalChain, ...]:
        out = []
        for row in _digits(self._terms, self.order, self.degree).tolist():
            terms: dict = {}
            for tup in map(tuple, row):
                terms[tup] = terms.get(tup, 0) + 1
            out.append(FormalChain(self.degree, terms))
        return tuple(out)

    @cached_property
    def provenance(self) -> tuple[tuple, ...]:
        """(first i with t_i = t_(i+1), t) per degenerate tuple t;
        (j, xs, ys) per identity generator: letter slot j (0-based), the
        other entries xs and the letter values ys."""
        n, d = self.order, self.degree
        if self.kind == "degenerate":
            tups = _digits(self._sources, n, d)
            first = (tups[:, 1:] == tups[:, :-1]).argmax(axis=1)
            return tuple((i, tuple(t)) for i, t in
                         zip(first.tolist(), tups.tolist()))
        m = self.word.letters
        slot, row = np.divmod(self._sources, n ** (d - 1 + m))
        xs, ys = np.divmod(row, n ** m)
        lo = 0 if self._first_slot else 1
        return tuple((j + lo, tuple(x), tuple(y)) for j, x, y in zip(
            slot.tolist(), _digits(xs, n, d - 1).tolist(),
            _digits(ys, n, m).tolist()))

    @property
    def lower(self) -> Optional["GeneratorSet"]:
        """The identity set one degree down (cached); None at degree 2 and
        for the degeneracy kind."""
        if self.kind != "identity" or self.degree == 2:
            return None
        return _generators(self._table, "identity", self.degree - 1,
                           self.word, self._first_slot)

    @cached_property
    def lattice(self) -> IntLattice:
        """The span as an integer lattice.  A generator whose letter slot is
        not last is a generator one degree down with one entry appended, so
        from degree 3 on the lattice takes the lower echelon basis with each
        z appended (index i -> i*n + z), then only the slot-last generators;
        below that, every generator."""
        n = self.order
        lat = IntLattice(n ** self.degree)
        rows = self._terms
        lower = self.lower
        if lower is not None:
            for vec in lower.lattice.sparse_basis():
                for z in range(n):
                    lat.add({i * n + z: v for i, v in vec.items()})
            # the slot-last generators come from the last slot's block of
            # n^(degree-1+letters) enumeration rows
            slots = self.degree - (1 if self._first_slot else 2)
            rows = rows[self._sources >= slots * n ** (
                self.degree - 1 + self.word.letters)]
        for row in rows.tolist():
            vec: dict = {}
            for t in row:
                vec[t] = vec.get(t, 0) + 1
            lat.add(vec)
        return lat

    @cached_property
    def basis(self) -> tuple[FormalChain, ...]:
        """The lattice's echelon basis as chains, in pivot order."""
        return tuple(vector_chain(v, self.order, self.degree)
                     for v in self.lattice.sparse_basis())

    @cached_property
    def _boundary(self):
        # the boundary map of an identity span in the echelon bases, or the
        # first basis chain whose boundary leaves the span one degree down
        lower = self.lower
        row_basis = lower.basis if lower is not None else ()
        rows: list[dict[int, int]] = [{} for _ in row_basis]
        for j, chain in enumerate(self.basis):
            b = boundary(self._table, chain)
            if lower is not None:
                coords = lower.lattice.coordinates(chain_vector(b, self.order))
            else:       # C_1 of the identity subcomplex is 0
                coords = [] if b.is_zero() else None
            if coords is None:
                return chain
            for i, c in enumerate(coords):
                if c:
                    rows[i][j] = c
        return tuple(rows), row_basis, self.basis

    def identity_boundary(self):
        """(sparse rows, row basis, column basis) of the identity boundary
        map from this degree down, in the echelon bases of the two spans;
        built once per set.  Raises SubcomplexClosureViolated with the
        offending basis chain, on every call, when a boundary leaves the
        span one degree down."""
        out = self._boundary
        if isinstance(out, FormalChain):
            raise SubcomplexClosureViolated(out)
        rows, row_basis, col_basis = out
        return tuple(dict(r) for r in rows), row_basis, col_basis


def tuple_index(tup: Sequence[int], order: int) -> int:
    idx = 0
    for v in tup:
        idx = idx * order + v
    return idx


def index_tuple(idx: int, order: int, degree: int) -> tuple[int, ...]:
    out = []
    for _ in range(degree):
        idx, r = divmod(idx, order)
        out.append(r)
    return tuple(reversed(out))


def chain_vector(chain: FormalChain, order: int) -> dict[int, int]:
    """The chain as a sparse {tuple_index: coefficient} vector."""
    return {tuple_index(tup, order): coef for tup, coef in chain.terms.items()}


def vector_chain(vec: dict[int, int], order: int, degree: int) -> FormalChain:
    """The chain of a sparse {tuple_index: coefficient} vector."""
    return FormalChain(degree, {index_tuple(idx, order, degree): coef
                                for idx, coef in sorted(vec.items())})


def _digits(idx: np.ndarray, order: int, width: int) -> np.ndarray:
    """The tuples of flat indices, most significant entry first: one more
    trailing axis of length width."""
    return idx[..., None] // order ** np.arange(width - 1, -1, -1) % order


def subcomplex_generators(X: QuandleTable, kind: str, degree: int,
                          word: Optional[Word] = None,
                          include_first_slot: bool = False,
                          size_guard: int = DEFAULT_SIZE_GUARD) -> GeneratorSet:
    """Generators of the degeneracy or identity subcomplex at one degree.

    For the identity kind, the distinguished letter slot sits at positions
    2..degree (j = 1..degree-1 prefix entries are pushed through the prefix
    products); include_first_slot adds the j = 0 variant where the slot is the
    first entry.  The generators come in the order (j, xs, ys), each
    lexicographic, with a chain equal to an earlier one left out.  They are
    built as whole arrays of term indices from the word's prefix products;
    chains and provenance are formed on first access.  SizeGuardExceeded
    is raised before any is built when the rows to enumerate, n^degree
    tuples or slots * n^(degree - 1 + letters) identity rows, exceed
    size_guard.

    The result is cached per process, so the subcomplex command and the
    identity boundary matrices share one GeneratorSet per span: its lattice
    is eliminated once, from the lower span's basis at degree >= 3, and its
    boundary map is built once.  Treat it as read-only.
    """
    if degree < 2:
        raise DegreeTooSmall("subcomplex generators need degree >= 2")
    # the rows enumerated before duplicates go: one per tuple, or one per
    # (slot, entries, letters)
    rows = X.order ** degree
    if kind == "identity" and word is not None:
        slots = degree if include_first_slot else degree - 1
        rows = slots * X.order ** (degree - 1 + word.letters)
    if rows > size_guard:
        raise SizeGuardExceeded(
            rows, size_guard,
            f"{rows} generator rows exceed the guard {size_guard}")
    return _generators(X, kind, degree, word, include_first_slot)


@lru_cache(maxsize=512)
def _generators(X: QuandleTable, kind: str, degree: int, word: Optional[Word],
                include_first_slot: bool) -> GeneratorSet:
    # called with every argument positional, so each span has one cache key
    n = X.order
    if kind == "degenerate":
        tups = _digits(np.arange(n ** degree), n, degree)
        keep = np.flatnonzero((tups[:, 1:] == tups[:, :-1]).any(axis=1))
        return GeneratorSet(n, degree, "degenerate", None, X, False,
                            keep[:, None], keep)
    if kind != "identity":
        raise ValueError("kind must be 'degenerate' or 'identity'")
    if word is None:
        raise ValueError("identity kind needs a word")
    # heads[i, y, x] = x*w_1*...*w_i for the letter tuple of index y, and
    # letter[i, y] is the value of the letter at word position i
    ys, P = zip(*prefix_products(X, word))
    heads = np.concatenate(P, axis=1).reshape(word.length, -1, n)
    letter = np.concatenate(ys)[::n, list(word.tau)].T
    free = np.arange(n ** (degree - 1))
    xs = _digits(free, n, degree - 1)
    weight = n ** np.arange(degree - 1, -1, -1)
    blocks = []
    for j in range(0 if include_first_slot else 1, degree):
        # term i of (j, xs, ys): (prefix_i of xs[:j], letter i, xs[j:]) as
        # a flat index, for every xs (rows) and ys (columns)
        idx = (letter[:, None, :] * weight[j]
               + (free % n ** (degree - 1 - j))[None, :, None])
        for p in range(j):
            idx = idx + heads[:, :, xs[:, p]].transpose(0, 2, 1) * weight[p]
        blocks.append(idx.reshape(word.length, -1).T)
    terms = np.concatenate(blocks)
    # a generator is the multiset of its terms: keep first occurrences
    _, first = np.unique(np.sort(terms, axis=1), axis=0, return_index=True)
    first.sort()
    return GeneratorSet(n, degree, "identity", word, X, include_first_slot,
                        terms[first], first)


def in_span(chain: FormalChain, gens: GeneratorSet) -> bool:
    """Integer-lattice membership of a chain in the span of a generator set,
    queried as a sparse vector against the set's cached lattice.  This is a
    per-chain check; boundary_matrix decides closure of a whole subcomplex
    degree on the lattice basis."""
    if chain.degree != gens.degree:
        raise DegreeMismatch(
            f"chain degree {chain.degree} vs generators degree {gens.degree}")
    if chain.is_zero():
        return True
    return gens.lattice.contains(chain_vector(chain, gens.order))
