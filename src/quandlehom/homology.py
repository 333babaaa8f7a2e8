"""Boundary matrices per chain-complex flavor, integer homology groups, and
2-cocycle spaces.

Four complexes share one interface: the full rack complex on all tuples, the
quandle quotient (degenerate tuples projected out), the degeneracy subcomplex,
and the identity subcomplex of a satisfied word (worked in lattice coordinates
of the generated span, not its saturation, so torsion is preserved exactly).
One ChainComplex per (table, flavour, word) builds every boundary as sparse
rows and a column count, and eliminates each once, on the rows that the unit
pivots one degree down leave; homology reads a quandle's rack and degenerate
groups off its quandle groups and, as cocycles do, takes each tuple boundary
on the tuples ending in a generating set (both lemmas in homology's docstring).
boundary_matrix keeps every column and alone forms bases.  A 2-cocycle space
is Hom(coker d_3, Z_d): cocycle_orders reads its orders off H_2 of the same
complex, and cocycle_space its generators off the row transform that the
elimination of that d_3 carries, checking their orders against H_2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .chains import (
    DEFAULT_SIZE_GUARD,
    FormalChain,
    block_boundary,
    row_count,
    subcomplex_generators,
)
from .core import QuandleTable, digits, generating_set, orbit_minima
from .errors import (
    DegreeMismatch,
    IdempotencyFails,
    IdentityNotSatisfied,
    InvalidCocycle,
    SizeGuardExceeded,
)
from .identities import Word, satisfies_cached
from .linalg import SmithForm, left_kernel_mod, smith_normal_form

COMPLEXES = ("rack", "quandle", "degenerate", "identity")


def _in_basis(tups: np.ndarray, complex: str) -> np.ndarray:
    """Which tuples, one per row, lie in the lexicographic basis of one
    flavour: every tuple for rack, those with no two equal adjacent entries
    for quandle, the others for degenerate.  Degree 0 is the empty tuple."""
    if complex == "rack":
        return np.ones(len(tups), dtype=bool)
    degenerate = (tups[:, 1:] == tups[:, :-1]).any(axis=1)
    return degenerate if complex == "degenerate" else ~degenerate


def _tuple_basis(order: int, degree: int, complex: str) -> tuple:
    tups = digits(np.arange(order ** degree), order, degree)
    return tuple(map(tuple, tups[_in_basis(tups, complex)].tolist()))


def _spanning_columns(X: QuandleTable, tups: np.ndarray) -> np.ndarray:
    """Which k-tuples, one per row of all n^k in lexicographic order, make
    the spanning column set of the lemma in homology's docstring: those
    ending in S = generating_set(X).  A generating S covers X: R_b for b in
    the H_S-orbit of s in S is R_s conjugated in H_S, so the union of those
    orbits is closed under * and holds S, hence is X."""
    return np.isin(tups[:, -1], generating_set(X))


@dataclass(frozen=True)
class BoundaryMatrix:
    """Matrix of the boundary map from degree to degree-1 in chosen bases.

    sparse_rows[i] maps column j to the nonzero coefficient of row basis
    element i in the boundary of column basis element j; matrix is a dense
    view of it, built on each access.  Bases are tuples for the tuple
    complexes and FormalChain lattice bases for the identity complex.
    """

    complex: str
    degree: int
    sparse_rows: tuple[dict[int, int], ...]
    row_basis: tuple
    col_basis: tuple

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.row_basis), len(self.col_basis))

    @property
    def matrix(self) -> tuple[tuple[int, ...], ...]:
        cols = range(len(self.col_basis))
        return tuple(tuple(row.get(j, 0) for j in cols)
                     for row in self.sparse_rows)


class ChainComplex:
    """One flavour's chain complex on a table (and word): each boundary,
    built on each call, and each Smith form, kept once eliminated.  Get it
    from chain_complex, which keeps one per (table, flavour, word).  Making
    one is the one check that the complex exists; chain_complex says why a
    rack has no quandle or degenerate complex."""

    def __init__(self, X: QuandleTable, complex: str,
                 word: Optional[Word] = None):
        if complex not in COMPLEXES:
            raise ValueError(f"complex must be one of {COMPLEXES}")
        if complex in ("quandle", "degenerate") and not X.is_quandle:
            raise IdempotencyFails(next(x for x in range(X.order)
                                        if X.rows[x][x] != x))
        if complex == "identity":
            if word is None:
                raise ValueError("identity complex needs a word")
            if not satisfies_cached(X, word):
                raise IdentityNotSatisfied(word)
        self.X, self.complex, self.word = X, complex, word
        self._smith: dict[int, SmithForm] = {}

    def boundary(self, degree: int, spanning: bool = False,
                 size_guard: int = DEFAULT_SIZE_GUARD
                 ) -> tuple[Sequence[dict[int, int]], int]:
        """The sparse rows of d_degree and its column count; identity rows
        are the span's own, so read-only.  Spanning, rack and quandle form
        only the columns of _spanning_columns, at their positions in the
        whole basis, where the lemma in homology's docstring holds."""
        X, complex, n = self.X, self.complex, self.X.order
        if degree < 1:
            raise ValueError("degree must be >= 1")
        if complex == "identity":
            if degree < 2:
                return [], 0
            return subcomplex_generators(X, degree, self.word,
                                         size_guard).boundary_rows()
        needed, text = row_count(n, degree, "tuples")
        SizeGuardExceeded.check(
            needed, size_guard,
            f"d_{degree} is counted at {text} over the guard {size_guard}; "
            f"only the size_guard argument of homology, boundary_matrix and "
            f"ChainComplex raises it")
        tups = digits(np.arange(n ** degree), n, degree)
        basis = _in_basis(tups, complex)
        spanning = spanning and complex != "degenerate"
        take = basis & _spanning_columns(X, tups) if spanning else basis
        columns = np.flatnonzero(take)
        position = (np.cumsum(basis) - 1)[take]
        # a 1-tuple has the empty alternating sum as its boundary; entries
        # come column-major, so every row fills in increasing column order
        col, face, coefs = block_boundary(
            X, np.arange(len(columns)), columns,
            np.ones(len(columns), dtype=np.int64), degree)
        row_basis = _in_basis(digits(np.arange(n ** (degree - 1)), n,
                                     degree - 1), complex)
        row = np.where(row_basis, np.cumsum(row_basis) - 1, -1)[face]
        # quandle: a degenerate face is projected out
        keep = row >= 0
        row, col, coefs = row[keep], col[keep], coefs[keep]
        mat: list[dict[int, int]] = [{} for _ in range(int(row_basis.sum()))]
        for i, j, c in zip(row.tolist(), position[col].tolist(),
                           coefs.tolist()):
            mat[i][j] = c
        return mat, int(basis.sum())

    def smith(self, degree: int,
              size_guard: int = DEFAULT_SIZE_GUARD) -> SmithForm:
        """The Smith form of d_degree on its spanning columns and on the
        rows that smith(degree - 1).unit_columns leave, cached per degree; a
        cached degree is not built again, so size_guard does not bind it."""
        if degree not in self._smith:
            rows, dim = self.boundary(degree, True, size_guard)
            if degree == 1:
                self._smith[1] = SmithForm((len(rows), dim), ())
            else:
                units = self.smith(degree - 1, size_guard).unit_columns
                self._smith[degree] = smith_normal_form(
                    [row for i, row in enumerate(rows) if i not in units],
                    dim)
        return self._smith[degree]


_complexes = lru_cache(maxsize=512)(ChainComplex)


def chain_complex(X: QuandleTable, complex: str,
                  word: Optional[Word] = None) -> ChainComplex:
    """The ChainComplex of (X, complex, word), one per triple however the
    arguments are passed: the module-level cache _complexes is keyed on the
    positional triple, the word dropped outside the identity flavour.

    The quandle and degenerate flavours raise IdempotencyFails on a rack
    that is not a quandle, by this theorem: at any degree k >= 2 the
    degenerate k-tuples (two equal adjacent entries) close under the
    boundary exactly when X is a quandle.  If so they span a subcomplex
    (Carter, Jelsovsky, Kamada, Langford & Saito, Trans. AMS 355 (2003)).
    If not, let y = x*x != x.  At k = 2, d(x, x) = +-((x) - (y)) != 0, and
    degree 1 has no degenerate tuples.  At k >= 3 take t = (c, x, x), c
    any non-degenerate (k-2)-tuple.  Every face at h <= k - 2 ends in x, x;
    the plain faces at h = k - 1 and k are both (c, x) and cancel; so
    modulo degenerate tuples d t = +-((c.R_x, x) - (c.R_x, y)).  c.R_x is
    non-degenerate as R_x is a bijection, and the two tuples differ in
    their last entry, so one of them is non-degenerate and d t leaves the
    degenerate tuples."""
    return _complexes(X, complex, word if complex == "identity" else None)


def boundary_matrix(X: QuandleTable, complex: str, degree: int,
                    word: Optional[Word] = None,
                    size_guard: int = DEFAULT_SIZE_GUARD) -> BoundaryMatrix:
    """Boundary matrix of one complex flavor at one degree, on every column
    and with its bases; its rows are the caller's own copy.

    identity complexes are expressed in echelon lattice bases of the generated
    spans of a word that X satisfies; integral solvability of every column
    is part of the construction and a failure raises
    SubcomplexClosureViolated with the offending chain.
    """
    rows, _ = chain_complex(X, complex, word).boundary(degree, False,
                                                       size_guard)
    row_basis = col_basis = ()
    if complex != "identity":
        row_basis, col_basis = (_tuple_basis(X.order, d, complex)
                                for d in (degree - 1, degree))
    elif degree >= 2:
        gens = subcomplex_generators(X, degree, word, size_guard)
        row_basis, col_basis = getattr(gens.lower, "basis", ()), gens.basis
    return BoundaryMatrix(complex=complex, degree=degree,
                          sparse_rows=tuple(map(dict, rows)),
                          row_basis=row_basis, col_basis=col_basis)


@dataclass(frozen=True)
class HomologyGroup:
    """Finitely generated abelian group in invariant-factor form."""

    free_rank: int
    torsion: tuple[int, ...]

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z_{d}" for d in self.torsion)
        return " ⊕ ".join(parts) if parts else "0"

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion


def _group(cx: ChainComplex, degree: int, size_guard: int) -> HomologyGroup:
    up = cx.smith(degree + 1, size_guard)   # guards d_(degree+1) first
    n = cx.smith(degree, size_guard)
    return HomologyGroup(n.shape[1] - n.rank - up.rank,
                         tuple(d for d in up.invariant_factors if d > 1))


def _invariant_factors(orders: Sequence[int]) -> tuple[int, ...]:
    """Invariant factors > 1 of the sum of the Z_o; Z_a+Z_b = Z_gcd+Z_lcm."""
    chain: list[int] = []
    for c in orders:
        for i in reversed(range(len(chain))):
            chain[i], c = math.lcm(chain[i], c), math.gcd(chain[i], c)
        if c > 1:
            chain.insert(0, c)
    return tuple(chain)


def _split(X: QuandleTable, complex: str, degree: int,
           size_guard: int) -> HomologyGroup:
    """Rack or degenerate H_degree of a quandle, by homology's docstring."""
    cx = chain_complex(X, "quandle")
    cx.smith(degree + (complex == "rack"), size_guard)  # guards the top d
    quandle, rack = {}, {-1: (0, ()), 0: (1, ())}   # (free rank, torsion)
    for k in range(1, degree + 1):
        free, orders = 0, ()
        for p in range(1, k):       # H^Q_p (x) H^R_(k-1-p), Tor(.., R_(k-2-p))
            (a, s), (b, t) = quandle[p], rack[k - 1 - p]
            free += a * b
            orders += s * b + t * a + tuple(math.gcd(u, v) for u in s
                                            for v in t + rack[k - 2 - p][1])
        if k < degree or complex == "rack":
            h = _group(cx, k, size_guard)
            quandle[k] = h.free_rank, h.torsion
            free, orders = free + h.free_rank, orders + h.torsion
            rack[k] = free, _invariant_factors(orders)
    return HomologyGroup(free, _invariant_factors(orders))


def homology(X: QuandleTable, complex: str, degree: int,
             word: Optional[Word] = None,
             size_guard: int = DEFAULT_SIZE_GUARD) -> HomologyGroup:
    """H_degree = ker(boundary) / im(boundary from one degree up), read off
    the Smith forms of chain_complex(X, complex, word).

    Each boundary is eliminated on a spanning set of its columns, by this
    lemma.  For a k-tuple c and an element x, the faces of (c, x) at h <= k
    keep the last entry x and those at h = k + 1 make (-1)^(k+1)(c - c.R_x),
    so d_{k+1}(c, x) = (d_k c, x) + (-1)^(k+1)(c - c.R_x), where (-, x)
    appends x to every tuple.  Fix S in X and k >= 2; H_S, made by the R_s
    (s in S), acts on k-tuples entry by entry.  Applying d_k, as
    d_k d_{k+1} = 0, d_k c = d_k(c.R_s) + (-1)^k d_k((d_k c, s)), and every
    tuple of (d_k c, s) ends in s.  So along each H_S-orbit the columns of
    d_k agree modulo the columns at tuples ending in S, and im d_k is
    spanned by those columns plus one column per orbit holding none (d_1 =
    0 needs none); by those alone when the H_S-orbits of S cover X.  This
    holds in the rack complex, and in the quandle complex, where a
    degenerate tuple is zero, as c.R_s and (c, s) are non-degenerate with c
    when c does not end in s.  S is generating_set(X), which covers X.
    The image lattice, hence the rank and the invariant factors, is
    unchanged on any rows, and a +-1 pivot among the kept columns is a unit
    pivot of the whole matrix; columns keep their whole-basis positions, so
    the unit columns of d_k index the rows of d_{k+1}.  The identity flavour
    is built on every column, in the echelon bases of its spans.

    One sweep serves each complex: d'_k is d_k on the rows outside
    Q_(k-1), the unit pivot columns of d'_(k-1); Q_1 is empty as d_1 = 0,
    so d'_2 = d_2.  The lemma: let A be an integer matrix, (P, Q) its unit
    pivot rows and columns and Q' the other columns.  A[P,Q] is unimodular,
    its determinant the product of the +-1 pivots, so rows P give
    x_Q = -A[P,Q]^-1 A[P,Q'] x_Q' for x in ker A: ker A projects one-to-one
    to the coordinates Q', onto the kernel of the Schur complement, a pure
    sublattice.  By induction on k from d'_2 = d_2, ker d'_k = ker d_k: for
    x in ker d'_k, d_k x lies in im d_k, inside ker d_(k-1) = ker d'_(k-1),
    and is zero outside Q_(k-1), onto which ker d'_(k-1) projects
    one-to-one, so d_k x = 0; hence rank d'_k = rank d_k.  The lemma for
    A = d'_n projects ker d_n one-to-one onto a pure L outside Q_n, and
    im d_(n+1) onto im d'_(n+1), so H_n = L / im d'_(n+1): the torsion is
    the non-unit invariant factors of d'_(n+1), the free rank
    dim - rank d'_n - rank d'_(n+1).  A quandle's rack and degenerate groups
    come from its quandle groups H^Q_p alone: H^R_k = H^Q_k + H^D_k
    (Litherland & Nelson, JPAA 178 (2003)), and H^D is fixed by lower
    groups (Przytycki & Putyra, Eur. J. Math. 2 (2016)), here in the form,
    from H^R_0 = Z and H^R_-1 = 0, each sum brought to invariant factors:
        H^D_k = sum_{0<p<k} (H^Q_p (x) H^R_(k-1-p) + Tor(H^Q_p, H^R_(k-2-p)))
    So H^D_1 = 0 and H^D_n needs H^Q_p for p < n only.  The tests and CI
    check this exact form against direct elimination, not against that
    paper.  size_guard, on the rows that chains.row_count counts, is the
    one limit; every call builds its largest boundary first, d_(degree+1)
    or, for degenerate groups, the quandle d_degree, so a refusal comes
    before any work; ChainComplex refuses a complex that does not exist.
    """
    if complex in ("rack", "degenerate") and X.is_quandle and degree > 0:
        return _split(X, complex, degree, size_guard)
    return _group(chain_complex(X, complex, word), degree, size_guard)


# ------------------------------------------------------------------ cocycles

@dataclass(frozen=True)
class CocycleTable:
    """A-valued 2-cochain on pairs; modulus 0 means integer coefficients."""

    modulus: int
    values: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.values)

    def value(self, x: int, y: int) -> int:
        return self.values[x][y]

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.values for v in row)

    def diagonal_vanishes(self) -> bool:
        return all(self.values[x][x] == 0 for x in range(self.order))


def cocycle_condition_holds(X: QuandleTable, phi: CocycleTable,
                            mode: str = "rack") -> bool:
    """phi(x,y) - phi(x,z) + phi(x*y,z) - phi(x*z,y*z) = 0 for all triples;
    quandle mode also requires a vanishing diagonal."""
    n = X.order
    if phi.order != n:
        raise DegreeMismatch("cocycle size does not match the table")
    T = X.np_table
    V = np.array(phi.values, dtype=np.int64)
    # phi(x, y) - phi(x, z) + phi(x*y, z) - phi(x*z, y*z), axes (x, y, z)
    total = V[:, :, None] - V[:, None, :] + V[T, :] \
        - V[T[:, None, :], T[None, :, :]]
    if phi.modulus:
        total = total % phi.modulus
    return not np.any(total) and (mode != "quandle"
                                  or phi.diagonal_vanishes())


def evaluate_cocycle(phi: CocycleTable, chain: FormalChain) -> int:
    """Pairing of a 2-cochain with a degree-2 chain, reduced by the modulus."""
    if chain.degree != 2:
        raise DegreeMismatch("cocycles pair with degree-2 chains")
    total = sum(c * phi.values[x][y] for (x, y), c in chain.terms.items())
    return total % phi.modulus if phi.modulus else total


@dataclass(frozen=True)
class CocycleSpace:
    """Solution module of the 2-cocycle conditions over Z_d.

    Generators are independent in the module sense: summing c_i * gen_i over
    0 <= c_i < order_i enumerates every solution exactly once.
    """

    base_order: int
    modulus: int
    mode: str
    generators: tuple[CocycleTable, ...]
    orders: tuple[int, ...]
    size: int

    def members(self, limit: int = 1_000_000):
        """Every member, combos of generator coefficients in
        ``itertools.product`` order, a block of combos at a time as one
        matrix product with the stacked generators, mod d."""
        SizeGuardExceeded.check(
            self.size, limit,
            f"{self.size} cocycles exceed the members limit {limit}")
        n = self.base_order
        d = self.modulus
        g = len(self.generators)
        # exact int64 while every sum of g products c * value stays below
        # 2^63, with coefficients below their orders and values reduced mod d
        top = max(self.orders, default=1) - 1
        dtype = np.int64 if g * top * (d - 1) < 2 ** 63 else object
        G = np.array([[v % d for row in gen.values for v in row]
                      for gen in self.generators],
                     dtype=dtype).reshape(g, n * n)
        combos = itertools.product(*(range(o) for o in self.orders))
        block = max(1, (1 << 16) // (n * n))
        while chunk := list(itertools.islice(combos, block)):
            combo = np.array(chunk, dtype=dtype).reshape(len(chunk), g)
            for member in ((combo @ G) % d).reshape(-1, n, n).tolist():
                yield CocycleTable(modulus=d,
                                   values=tuple(map(tuple, member)))


def cocycle_orders(X: QuandleTable, modulus: int,
                   mode: str = "quandle") -> tuple[int, ...]:
    """The orders of cocycle_space(X, modulus, mode), no generator formed:
    cocycles are Hom(C_2 / B_2, Z_d), C_2 / B_2 = H_2 + B_1 and B_1 is free
    of rank n - o (o orbits), so they are the gcd(t, d) > 1 over the torsion
    t of homology(X, mode, 2), in chain order, then d, free rank of H_2 plus
    n - o times.  It raises as cocycle_space does, the guard before a build."""
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    if mode not in ("rack", "quandle"):
        raise ValueError("mode must be 'rack' or 'quandle'")
    h2 = homology(X, mode, 2)
    free = h2.free_rank + X.order - len(orbit_minima(X))
    return tuple(g for t in h2.torsion if (g := math.gcd(t, modulus)) > 1) \
        + (modulus,) * free


def cocycle_space(X: QuandleTable, modulus: int,
                  mode: str = "quandle") -> CocycleSpace:
    """All Z_d-valued 2-cocycles, as Hom(coker d_3, Z_d), d_3 that of
    chain_complex(X, mode): quandle mode on a rack raises IdempotencyFails.
    For the orders alone, cocycle_orders reads H_2 and forms no generator.

    The cocycle condition phi(x,y) - phi(x,z) + phi(x*y,z) - phi(x*z,y*z) = 0
    says phi(d(x,y,z)) = 0, so the cocycles are the phi on the rows of d_3
    with phi d_3 = 0 (mod d); the quandle d_3 has no row (x, x), where phi
    is 0.  They are read off the row transform that left_kernel_mod carries
    through the elimination of d_3: the orders are the nontrivial gcd(f, d)
    over the invariant factors f of what its unit pivots leave, in chain
    order, then d for every rank d_3 lacks.  Columns that generate im d_3 give
    the same phi, so d_3 is formed on the triples ending in a generating set
    S only (the lemma in homology's docstring): its invariant factors, rank
    and so orders are those of the whole d_3, while the generators may differ.
    A generator that fails the cocycle condition, or orders other than
    cocycle_orders gives, raise InvalidCocycle."""
    orders_of_h2 = cocycle_orders(X, modulus, mode)
    n = X.order
    rows, _ = chain_complex(X, mode).boundary(3, True)
    vectors, orders = left_kernel_mod(rows, modulus)
    # row i of d_3 is the i-th pair of the flavour's basis
    pairs = np.flatnonzero(_in_basis(digits(np.arange(n * n), n, 2), mode))
    values = np.zeros((len(vectors), n * n), dtype=object)
    for row, vec in zip(values, vectors):
        row[pairs] = vec
    gens = tuple(CocycleTable(modulus=modulus, values=tuple(map(tuple, v)))
                 for v in values.reshape(-1, n, n).tolist())
    space = CocycleSpace(base_order=n, modulus=modulus, mode=mode,
                         generators=gens, orders=tuple(orders),
                         size=math.prod(orders))
    if space.orders != orders_of_h2:
        raise InvalidCocycle(
            f"cocycle_space found orders {list(space.orders)} mod {modulus} "
            f"in {mode} mode, and H_2 gives {list(orders_of_h2)}")
    for gen in space.generators:
        if not cocycle_condition_holds(X, gen, mode=mode):
            raise InvalidCocycle(
                f"cocycle_space produced a generator that fails the "
                f"{mode} 2-cocycle condition mod {modulus}")
    return space


def coboundary(X: QuandleTable, f: Sequence[int], modulus: int) -> CocycleTable:
    """The 2-coboundary of a 1-cochain: (x, y) -> f(x) - f(x*y)."""
    n = X.order
    vals = tuple(
        tuple((f[x] - f[X.rows[x][y]]) % modulus if modulus
              else f[x] - f[X.rows[x][y]] for y in range(n))
        for x in range(n))
    return CocycleTable(modulus=modulus, values=vals)
