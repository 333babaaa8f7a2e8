"""Free chain groups on element tuples, face and boundary maps, the two-cycle
attached to a satisfied inner identity, and identity subcomplex generators
with integer-span membership.

A degree-n chain is a sparse integer combination of n-tuples.  Faces follow
the rack convention: the plain face deletes entry h, the twisted face acts by
*x_h on the first h-1 entries before deleting; the boundary is the
alternating sum of their differences for h = 2..n.  block_boundary forms
every boundary in the package, for a block of chains given term by term as
flat tuple indices; boundary takes one FormalChain through it.

Subcomplex generators are held as arrays of flat tuple indices, built from
the word's prefix products in whole-array gathers.  An identity span of
degree d is the span one degree down tensored with C_1 plus the span of the
generators whose letter slot is last, and its lattice is built that way.
The degeneracy subcomplex needs no generators: it is the tuples with two
equal adjacent entries, closed under the boundary exactly when the table is
a quandle (homology.chain_complex).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Optional, Sequence

import numpy as np

from .core import QuandleTable, digits, is_medial
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


def row_count(order: int, exponent: int, noun: str,
              factor: int = 1) -> tuple[int, str]:
    """factor * n^exponent rows, as a count for SizeGuardExceeded.check and
    as text; order 1 counts as 2, so the count grows with the degree, and it
    saturates at the int64 maximum, past which no build indexes its rows."""
    n, top = max(order, 2), int(np.iinfo(np.int64).max)
    count = min(factor * n ** exponent if exponent < 64 else top, top)
    text = (f"{factor} * " if factor > 1 else "") + f"{n}^{exponent}" \
        + (f" = {count} " if count < top else " ") + noun
    return count, text + (", an order-1 table counted as order 2,"
                          if order == 1 else "")


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


def face_indices(X: QuandleTable, idx: np.ndarray,
                 degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Every face of the degree-tuples at flat indices idx, with its sign in
    the boundary: faces[h-2, 0] deletes entry h and faces[h-2, 1] acts by
    *x_h on the h-1 entries before it, for h = 2..degree, as flat indices of
    (degree-1)-tuples of idx's shape.  signs has shape (degree-1, 2) plus
    one axis of length 1 per axis of idx, (-1)^h on the plain face and
    -(-1)^h on the twisted one, so that the boundary of idx is the sum of
    signs * faces.  One table gather forms every twisted face of one h.
    """
    n = X.order
    T = X.np_table
    tups = digits(np.asarray(idx, dtype=np.int64), n, degree)
    weight = n ** np.arange(degree - 2, -1, -1)
    faces = np.empty((degree - 1, 2) + tups.shape[:-1], dtype=np.int64)
    for k in range(1, degree):
        head, x = tups[..., :k], tups[..., k:k + 1]
        tail = tups[..., k + 1:] @ weight[k:]
        faces[k - 1, 0] = head @ weight[:k] + tail
        faces[k - 1, 1] = T[head, x] @ weight[:k] + tail
    sign = (-1) ** np.arange(2, degree + 1)
    signs = np.stack([sign, -sign], axis=1)
    return faces, signs.reshape(signs.shape + (1,) * (tups.ndim - 1))


def block_boundary(X: QuandleTable, chain: np.ndarray, idx: np.ndarray,
                   coefs: np.ndarray, degree: int):
    """The boundaries of a block of degree-chains given term by term, term
    k being coefs[k] times the tuple at flat index idx[k] in chain chain[k]:
    the nonzero entries as arrays (chain, face, coef), sorted by chain and
    then by face, a flat (degree-1)-tuple index.  Sums are taken in coefs'
    dtype, so an object array of Python ints stays exact at any size; chain
    numbers must stay below 2^63 / n^(degree-1)."""
    faces, signs = face_indices(X, idx, degree)
    width = X.order ** (degree - 1)
    keys = (np.asarray(chain, dtype=np.int64) * width + faces).ravel()
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    start = np.flatnonzero(np.diff(keys, prepend=-1))
    sums = np.add.reduceat((signs * np.asarray(coefs)).ravel()[order], start)
    keep = sums != 0
    return (*np.divmod(keys[start][keep], width), sums[keep])


def boundary(X: QuandleTable, chain: FormalChain) -> FormalChain:
    """Linear extension of the alternating face sum; degree drops by one and
    the degree-1 boundary is zero (empty sum)."""
    if chain.degree < 1:
        raise DegreeTooSmall("boundary needs degree >= 1")
    n, d = X.order, chain.degree
    idx = np.array([tuple_index(t, n) for t in chain.terms], dtype=np.int64)
    coefs = np.array(list(chain.terms.values()), dtype=object)
    _, faces, sums = block_boundary(X, np.zeros_like(idx), idx, coefs, d)
    return FormalChain(d - 1, dict(zip(
        map(tuple, digits(faces, n, d - 1).tolist()), sums.tolist())))


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
        ys = digits(idx // n, n, w.letters)
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
    pos = tuple_index((*ys, x), X.order)
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
    """[(x,y) + (x*y, u*v)] - [(x,u) + (x*u, y*v)]; a 2-cycle on medial tables,
    checked by ``is_medial`` unless permissive."""
    if not permissive and not is_medial(X):
        raise NotMedial("table is not medial")
    rows = X.rows
    out: dict = {}
    for tup, s in (((x, y), 1), ((rows[x][y], rows[u][v]), 1),
                   ((x, u), -1), ((rows[x][u], rows[y][v]), -1)):
        out[tup] = out.get(tup, 0) + s
    return FormalChain(2, out)


@dataclass(frozen=True, eq=False)
class GeneratorSet:
    """Identity subcomplex generators of one degree, with provenance.

    The generators are held as one array of flat tuple indices, ``terms``
    (``tuple_index``), one row per generator and one column per term, a
    tuple that fills several columns counting once per column.  ``chains`` and
    ``provenance`` are built from it on first access.  A set of degree >= 3
    reaches the set one degree down (``lower``): its lattice is
    the lower lattice with each element appended, plus the generators whose
    letter slot is last, and its boundary map is written in the two echelon
    bases once (``boundary_rows``).
    """

    order: int                      # element count of the underlying table
    degree: int
    word: Word
    _table: QuandleTable = field(repr=False)
    terms: np.ndarray = field(repr=False)       # generators x terms
    _sources: np.ndarray = field(repr=False)    # enumeration row per generator

    def __len__(self):
        return len(self.terms)

    @cached_property
    def chains(self) -> tuple[FormalChain, ...]:
        out = []
        for row in digits(self.terms, self.order, self.degree).tolist():
            terms: dict = {}
            for tup in map(tuple, row):
                terms[tup] = terms.get(tup, 0) + 1
            out.append(FormalChain(self.degree, terms))
        return tuple(out)

    @cached_property
    def provenance(self) -> tuple[tuple, ...]:
        """(j, xs, ys) per generator: letter slot j (0-based), the other
        entries xs and the letter values ys."""
        n, d, m = self.order, self.degree, self.word.letters
        slot, row = np.divmod(self._sources, n ** (d - 1 + m))
        xs, ys = np.divmod(row, n ** m)
        return tuple((j + 1, tuple(x), tuple(y)) for j, x, y in zip(
            slot.tolist(), digits(xs, n, d - 1).tolist(),
            digits(ys, n, m).tolist()))

    @property
    def lower(self) -> Optional["GeneratorSet"]:
        """The set one degree down (cached); None at degree 2."""
        if self.degree == 2:
            return None
        return _generators(self._table, self.degree - 1, self.word)

    @cached_property
    def lattice(self) -> IntLattice:
        """The span as an integer lattice.  A generator whose letter slot is
        not last is a generator one degree down with one entry appended, so
        from degree 3 on the lattice takes the lower echelon basis with each
        z appended (index i -> i*n + z), then only the slot-last generators;
        below that, every generator."""
        n = self.order
        lat = IntLattice(n ** self.degree)
        rows = self.terms
        lower = self.lower
        if lower is not None:
            for vec in lower.lattice.sparse_basis():
                for z in range(n):
                    lat.add({i * n + z: v for i, v in vec.items()})
            # the slot-last generators come from the last slot's block of
            # n^(degree-1+letters) enumeration rows
            rows = rows[self._sources >= (self.degree - 2) * n ** (
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
        n, d = self.order, self.degree
        return tuple(FormalChain(d, dict(zip(map(tuple, digits(
            np.fromiter(vec, np.int64, len(vec)), n, d).tolist()),
            vec.values()))) for vec in self.lattice.sparse_basis())

    @cached_property
    def _boundary(self):
        # the rack boundary of the whole echelon basis in one block, each
        # column solved in the lower lattice (C_1 of the subcomplex is 0):
        # the rows and the column count, or the position in the basis of
        # the first chain whose boundary leaves the span one degree down
        basis = self.lattice.sparse_basis()
        chain, face, coef = block_boundary(
            self._table, np.repeat(np.arange(len(basis)), [*map(len, basis)]),
            np.fromiter((i for vec in basis for i in vec), np.int64),
            np.array([c for vec in basis for c in vec.values()], dtype=object),
            self.degree)
        lower = self.lower
        rows: list[dict[int, int]] = [
            {} for _ in range(lower.lattice.rank if lower is not None else 0)]
        ends = np.searchsorted(chain, np.arange(len(basis) + 1)).tolist()
        for j, (lo, hi) in enumerate(zip(ends, ends[1:])):
            vec = dict(zip(face[lo:hi].tolist(), coef[lo:hi].tolist()))
            coords = (None if vec else []) if lower is None \
                else lower.lattice.coordinates(vec)
            if coords is None:
                return j
            for i, c in enumerate(coords):
                if c:
                    rows[i][j] = c
        return tuple(rows), len(basis)

    def boundary_rows(self) -> tuple[tuple[dict[int, int], ...], int]:
        """(sparse rows, column count) of the boundary map from this degree
        down in the echelon bases ``basis`` and ``lower.basis``, built once
        and shared: read-only.  Raises SubcomplexClosureViolated with the
        offending basis chain, on every call, when a boundary leaves the
        span one degree down."""
        out = self._boundary
        if isinstance(out, int):
            raise SubcomplexClosureViolated(self.basis[out])
        return out


def tuple_index(tup: Sequence[int], order: int) -> int:
    """The flat index of a tuple, most significant entry first; an entry
    outside 0..order-1, which would alias another tuple, raises."""
    idx = 0
    for v in tup:
        if not 0 <= v < order:
            raise IndexOutOfRange(f"tuple entry {v} outside 0..{order - 1}")
        idx = idx * order + v
    return idx


def subcomplex_generators(X: QuandleTable, degree: int, word: Word,
                          size_guard: int = DEFAULT_SIZE_GUARD) -> GeneratorSet:
    """Generators of the identity subcomplex of a word at one degree (the
    degeneracy subcomplex needs none: see the module docstring).

    The distinguished letter slot sits at positions 2..degree (j =
    1..degree-1 prefix entries are pushed through the prefix products).
    The generators come in the order (j, xs, ys), each lexicographic, with
    a chain equal to an earlier one left out.  They are built as whole
    arrays of term indices from the word's prefix products; chains and
    provenance are formed on first access.  SizeGuardExceeded is raised
    before any is built when the rows enumerated before duplicates go,
    (degree - 1) * n^(degree - 1 + letters) of them (slot, entries,
    letters), exceed size_guard.

    The result is cached per process, so the subcomplex command, identity
    homology and boundary_matrix share one GeneratorSet per span: its lattice
    is eliminated once, from the lower span's basis at degree >= 3, and its
    boundary map is built once.  Treat it as read-only.
    """
    if degree < 2:
        raise DegreeTooSmall("subcomplex generators need degree >= 2")
    guard_rows(X.order, degree - 1 + word.letters, size_guard, degree - 1)
    return _generators(X, degree, word)


def guard_rows(order: int, exponent: int, size_guard: int,
               factor: int = 1) -> None:
    """Refuse factor * n^exponent generator rows over size_guard."""
    rows, text = row_count(order, exponent, "generator rows", factor)
    SizeGuardExceeded.check(rows, size_guard,
                            f"{text} exceed the guard {size_guard}")


@lru_cache(maxsize=512)
def _generators(X: QuandleTable, degree: int, word: Word) -> GeneratorSet:
    # called with every argument positional, so each span has one cache key
    n = X.order
    # heads[i, y, x] = x*w_1*...*w_i for the letter tuple of index y, and
    # letter[i, y] is the value of the letter at word position i
    ys, P = zip(*prefix_products(X, word))
    heads = np.concatenate(P, axis=1).reshape(word.length, -1, n)
    letter = np.concatenate(ys)[::n, list(word.tau)].T
    free = np.arange(n ** (degree - 1))
    xs = digits(free, n, degree - 1)
    weight = n ** np.arange(degree - 1, -1, -1)
    blocks = []
    for j in range(1, degree):
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
    return GeneratorSet(n, degree, word, X, terms[first], first)


def in_span(chain: FormalChain, gens: GeneratorSet) -> bool:
    """Integer-lattice membership of a chain in the span of a generator set,
    queried as a sparse vector against the set's cached lattice.  This is a
    per-chain check; GeneratorSet.boundary_rows decides closure of a whole
    subcomplex degree on the lattice basis."""
    if chain.degree != gens.degree:
        raise DegreeMismatch(
            f"chain degree {chain.degree} vs generators degree {gens.degree}")
    if chain.is_zero():
        return True
    return gens.lattice.contains({tuple_index(tup, gens.order): coef
                                  for tup, coef in chain.terms.items()})
