"""Boundary matrices per chain-complex flavor, integer homology groups, and
2-cocycle spaces.

Four complexes share one interface: the full rack complex on all tuples, the
quandle quotient (degenerate tuples projected out), the degeneracy subcomplex,
and the identity subcomplex of a satisfied word (worked in lattice coordinates
of the generated span, not its saturation, so torsion is preserved exactly).
A 2-cocycle space is Hom(coker d_3, Z_d), read off the same unit-pivot
elimination of the rack boundary d_3 that its homology runs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .chains import (
    DEFAULT_SIZE_GUARD,
    FormalChain,
    subcomplex_generators,
)
from .core import QuandleTable
from .errors import (
    DegreeMismatch,
    InvalidCocycle,
    SizeGuardExceeded,
    SubcomplexClosureViolated,
)
from .identities import Word
from .linalg import left_kernel_mod, smith_normal_form

COMPLEXES = ("rack", "quandle", "degenerate", "identity")


def _guard(n_basis: int, size_guard: int):
    if n_basis > size_guard:
        raise SizeGuardExceeded(n_basis, size_guard)


def _tuple_array(order: int, degree: int, complex: str) -> np.ndarray:
    """The lexicographic tuple basis of one flavour, one tuple per row:
    every tuple for rack, those with no two equal adjacent entries for
    quandle, the others for degenerate.  Degree 0 is the empty tuple."""
    tups = (np.arange(order ** degree)[:, None]
            // order ** np.arange(degree - 1, -1, -1) % order)
    if complex == "rack":
        return tups
    degenerate = (tups[:, 1:] == tups[:, :-1]).any(axis=1)
    return tups[degenerate if complex == "degenerate" else ~degenerate]


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


def _tuple_complex_matrix(X: QuandleTable, complex: str, degree: int,
                          size_guard: int) -> BoundaryMatrix:
    n = X.order
    _guard(n ** degree, size_guard)
    col_tups = _tuple_array(n, degree, complex)
    row_tups = _tuple_array(n, degree - 1, complex)
    # both faces of every column at each h = k + 1 = 2..degree, as flat
    # indices of (degree-1)-tuples: one table gather per h acts by *x_h on
    # the k entries before it; a 1-tuple has the empty alternating sum as
    # its boundary
    weight = n ** np.arange(degree - 2, -1, -1)
    T = X.np_table
    faces = np.empty((degree - 1, 2, len(col_tups)), dtype=np.int64)
    for k in range(1, degree):
        head, x = col_tups[:, :k], col_tups[:, k:k + 1]
        tail = col_tups[:, k + 1:] @ weight[k:]
        faces[k - 1, 0] = head @ weight[:k] + tail
        faces[k - 1, 1] = T[head, x] @ weight[:k] + tail
    sign = (-1) ** np.arange(2, degree + 1)           # (-1)^h, plain face
    signs = np.stack([sign, -sign], axis=1)[:, :, None]
    # coincident faces of one column cancel: sum on (column, face) keys,
    # sorted column-major so that every row fills in increasing column
    # order; keys stay below n^(2 degree - 1), within int64 for any matrix
    # whose face array fits in memory
    width = n ** (degree - 1)
    keys, where = np.unique((np.arange(len(col_tups)) * width + faces).ravel(),
                            return_inverse=True)
    coefs = np.bincount(where, np.broadcast_to(signs, faces.shape).ravel(),
                        len(keys)).astype(np.int64)
    col, face = np.divmod(keys[coefs != 0], width)
    coefs = coefs[coefs != 0]
    lookup = np.full(width, -1, dtype=np.int64)
    lookup[row_tups @ weight] = np.arange(len(row_tups))
    row = lookup[face]
    outside = row < 0
    if outside.any():
        if complex == "degenerate":
            first = tuple(col_tups[col[outside][0]].tolist())
            raise SubcomplexClosureViolated(FormalChain(degree, {first: 1}))
        if complex == "rack":
            raise AssertionError("boundary left the tuple basis")
        # quandle: a degenerate face is projected out
        row, col, coefs = row[~outside], col[~outside], coefs[~outside]
    mat: list[dict[int, int]] = [{} for _ in range(len(row_tups))]
    for i, j, c in zip(row.tolist(), col.tolist(), coefs.tolist()):
        mat[i][j] = c
    return BoundaryMatrix(complex=complex, degree=degree,
                          sparse_rows=tuple(mat),
                          row_basis=tuple(map(tuple, row_tups.tolist())),
                          col_basis=tuple(map(tuple, col_tups.tolist())))


def boundary_matrix(X: QuandleTable, complex: str, degree: int,
                    word: Optional[Word] = None,
                    include_first_slot: bool = False,
                    size_guard: int = DEFAULT_SIZE_GUARD) -> BoundaryMatrix:
    """Boundary matrix of one complex flavor at one degree.

    identity complexes are expressed in echelon lattice bases of the generated
    spans; integral solvability of every column is part of the construction
    and a failure raises SubcomplexClosureViolated with the offending chain,
    as a degenerate tuple whose boundary leaves the degenerate tuples does.
    The subcomplex command decides closure by this construction.
    """
    if complex not in COMPLEXES:
        raise ValueError(f"complex must be one of {COMPLEXES}")
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if complex == "identity":
        if word is None:
            raise ValueError("identity complex needs a word")
        if degree < 2:
            return BoundaryMatrix(complex="identity", degree=degree,
                                  sparse_rows=(), row_basis=(), col_basis=())
        # built once per span and kept on its cached GeneratorSet
        rows, row_basis, col_basis = subcomplex_generators(
            X, "identity", degree, word, include_first_slot,
            size_guard).identity_boundary()
        return BoundaryMatrix(complex="identity", degree=degree,
                              sparse_rows=rows, row_basis=row_basis,
                              col_basis=col_basis)
    return _tuple_complex_matrix(X, complex, degree, size_guard)


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


def _degree_cap(order: int) -> int:
    if order <= 8:
        return 4
    if order <= 16:
        return 3
    return 2


def homology(X: QuandleTable, complex: str, degree: int,
             word: Optional[Word] = None,
             include_first_slot: bool = False,
             max_degree: Optional[int] = None,
             size_guard: int = DEFAULT_SIZE_GUARD) -> HomologyGroup:
    """H_degree = ker(boundary) / im(boundary from one degree up).

    Free rank is dim - rank(d_n) - rank(d_{n+1}); torsion is the nontrivial
    invariant factors of d_{n+1} (the kernel is a pure sublattice, so those
    factors present the quotient exactly).
    """
    cap = max_degree if max_degree is not None else _degree_cap(X.order)
    if degree > cap:
        raise SizeGuardExceeded(
            degree, cap,
            f"degree {degree} exceeds the degree cap {cap} for order "
            f"{X.order}; pass max_degree (CLI: --max-degree) to go higher")
    bn = boundary_matrix(X, complex, degree, word=word,
                         include_first_slot=include_first_slot,
                         size_guard=size_guard)
    bn1 = boundary_matrix(X, complex, degree + 1, word=word,
                          include_first_slot=include_first_slot,
                          size_guard=size_guard)
    dim = len(bn.col_basis)
    rank_n = smith_normal_form(bn.sparse_rows, dim).rank
    snf_up = smith_normal_form(bn1.sparse_rows, len(bn1.col_basis))
    torsion = tuple(d for d in snf_up.invariant_factors if d > 1)
    return HomologyGroup(free_rank=dim - rank_n - snf_up.rank, torsion=torsion)


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
    a = V[:, :, None]                  # phi(x, y)
    b = V[:, None, :]                  # phi(x, z)
    c = V[T, :]                        # phi(x*y, z)
    d = V[T[:, None, :], T[None, :, :]]    # phi(x*z, y*z)
    total = a - b + c - d
    if phi.modulus:
        total = total % phi.modulus
    if np.any(total):
        return False
    if mode == "quandle" and not phi.diagonal_vanishes():
        return False
    return True


def evaluate_cocycle(phi: CocycleTable, chain: FormalChain) -> int:
    """Pairing of a 2-cochain with a degree-2 chain, reduced by the modulus."""
    if chain.degree != 2:
        raise DegreeMismatch("cocycles pair with degree-2 chains")
    total = 0
    for (x, y), coef in chain.terms.items():
        total += coef * phi.values[x][y]
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
        if self.size > limit:
            raise SizeGuardExceeded(
                self.size, limit,
                f"{self.size} cocycles exceed the members limit {limit}")
        n = self.base_order
        d = self.modulus
        for combo in itertools.product(*(range(o) for o in self.orders)):
            vals = [[0] * n for _ in range(n)]
            for c, gen in zip(combo, self.generators):
                if c:
                    for x in range(n):
                        row = gen.values[x]
                        vx = vals[x]
                        for y in range(n):
                            vx[y] = (vx[y] + c * row[y]) % d
            yield CocycleTable(modulus=d, values=tuple(tuple(r) for r in vals))


def cocycle_space(X: QuandleTable, modulus: int,
                  mode: str = "quandle") -> CocycleSpace:
    """All Z_d-valued 2-cocycles, as Hom(coker d_3, Z_d).

    The cocycle condition phi(x,y) - phi(x,z) + phi(x*y,z) - phi(x*z,y*z) = 0
    says phi(d(x,y,z)) = 0, so the cocycles are the phi on the rows of the
    rack d_3 with phi d_3 = 0 (mod d); quandle mode adds a unit column at
    each row (x, x).  They are read off the unit-pivot elimination of that
    matrix, the one homology runs, by left_kernel_mod: the orders are the
    nontrivial gcd(f, d) over the invariant factors f of its core, in chain
    order, then d for every rank the matrix lacks.
    """
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    if mode not in ("rack", "quandle"):
        raise ValueError("mode must be 'rack' or 'quandle'")
    n = X.order
    # the rack d_3 in both modes: the quandle-flavour d_3 describes the same
    # cocycles only when X is a quandle
    d3 = boundary_matrix(X, "rack", 3)
    rows = list(d3.sparse_rows)
    if mode == "quandle":
        width = len(d3.col_basis)
        for x in range(n):
            rows[x * n + x] = {**rows[x * n + x], width + x: 1}
    vectors, orders = left_kernel_mod(rows, modulus)
    gens = tuple(CocycleTable(modulus=modulus, values=tuple(
        tuple(vec[x * n:(x + 1) * n]) for x in range(n))) for vec in vectors)
    space = CocycleSpace(base_order=n, modulus=modulus, mode=mode,
                         generators=gens, orders=tuple(orders),
                         size=math.prod(orders))
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
