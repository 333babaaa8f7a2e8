"""Free chain groups on element tuples, face and boundary maps, the two-cycle
attached to a satisfied inner identity, and identity/degeneracy subcomplex
generators with integer-span membership.

A degree-n chain is a sparse integer combination of n-tuples.  Faces follow
the rack convention: the plain face deletes entry h, the twisted face acts by
*x_h on the first h-1 entries before deleting; the boundary is the
alternating sum of their differences for h = 2..n.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
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


@dataclass(frozen=True)
class GeneratorSet:
    """Generators of a subcomplex degree, with provenance per chain."""

    order: int                      # element count of the underlying table
    degree: int
    kind: str                       # "degenerate" | "identity"
    word: Optional[Word]
    chains: tuple[FormalChain, ...]
    provenance: tuple[tuple, ...]

    @cached_property
    def lattice(self) -> IntLattice:
        dim = self.order ** self.degree
        lat = IntLattice(dim)
        for chain in self.chains:
            lat.add(chain_vector(chain, self.order))
        return lat

    def __len__(self):
        return len(self.chains)


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


def degenerate_tuples(order: int, degree: int) -> list[tuple[int, ...]]:
    """All basis tuples with two equal adjacent entries, in lex order."""
    return [t for t in itertools.product(range(order), repeat=degree)
            if any(t[i] == t[i + 1] for i in range(degree - 1))]


def subcomplex_generators(X: QuandleTable, kind: str, degree: int,
                          word: Optional[Word] = None,
                          include_first_slot: bool = False,
                          size_guard: int = DEFAULT_SIZE_GUARD) -> GeneratorSet:
    """Generators of the degeneracy or identity subcomplex at one degree.

    For the identity kind, the distinguished letter slot sits at positions
    2..degree (j = 1..degree-1 prefix entries are pushed through the prefix
    products); include_first_slot adds the j = 0 variant where the slot is the
    first entry.

    The result is cached per process, so the subcomplex command and the
    identity boundary matrices share one GeneratorSet per span, and its
    lattice is eliminated once.  Treat it as read-only.
    """
    if degree < 2:
        raise DegreeTooSmall("subcomplex generators need degree >= 2")
    if X.order ** degree > size_guard:
        raise SizeGuardExceeded(X.order ** degree, size_guard)
    return _generators(X, kind, degree, word, include_first_slot)


@lru_cache(maxsize=512)
def _generators(X: QuandleTable, kind: str, degree: int, word: Optional[Word],
                include_first_slot: bool) -> GeneratorSet:
    # called with every argument positional, so each span has one cache key
    n = X.order
    if kind == "degenerate":
        tups = degenerate_tuples(n, degree)
        chains = tuple(FormalChain.of(t) for t in tups)
        prov = tuple((next(i for i in range(degree - 1) if t[i] == t[i + 1]), t)
                     for t in tups)
        return GeneratorSet(order=n, degree=degree, kind="degenerate",
                            word=None, chains=chains, provenance=prov)
    if kind != "identity":
        raise ValueError("kind must be 'degenerate' or 'identity'")
    if word is None:
        raise ValueError("identity kind needs a word")
    m = word.letters
    rows = X.rows
    seen: dict = {}
    chains: list[FormalChain] = []
    prov: list[tuple] = []
    j_range = range(0 if include_first_slot else 1, degree)
    for j in j_range:
        free = degree - 1                     # tuple slots besides the letter slot
        for xs in itertools.product(range(n), repeat=free):
            left, right = xs[:j], xs[j:]
            for ys in itertools.product(range(n), repeat=m):
                terms: dict = {}
                cur = list(left)
                tup = tuple(cur) + (ys[word.tau[0]],) + right
                terms[tup] = terms.get(tup, 0) + 1
                for i in range(1, word.length):
                    yv = ys[word.tau[i - 1]]
                    cur = [rows[v][yv] for v in cur]
                    tup = tuple(cur) + (ys[word.tau[i]],) + right
                    terms[tup] = terms.get(tup, 0) + 1
                chain = FormalChain(degree, terms)
                key = (degree, frozenset(chain.terms.items()))
                if key not in seen:
                    seen[key] = True
                    chains.append(chain)
                    prov.append((j, xs, ys))
    return GeneratorSet(order=n, degree=degree, kind="identity", word=word,
                        chains=tuple(chains), provenance=tuple(prov))


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
