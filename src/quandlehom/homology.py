"""Boundary matrices per chain-complex flavor, integer homology groups, and
2-cocycle spaces.

Four complexes share one interface: the full rack complex on all tuples, the
quandle quotient (degenerate tuples projected out), the degeneracy subcomplex,
and the identity subcomplex of a satisfied word (worked in lattice coordinates
of the generated span, not its saturation, so torsion is preserved exactly).
A 2-cocycle space is Hom(coker d_3, Z_d), read off the Smith form of the
image lattice of the rack boundary d_3.
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
    GeneratorSet,
    boundary_of_tuple,
    chain_vector,
    degenerate_tuples,
    subcomplex_generators,
    vector_chain,
)
from .core import QuandleTable
from .errors import (
    DegreeMismatch,
    InvalidCocycle,
    SizeGuardExceeded,
    SubcomplexClosureViolated,
)
from .identities import Word
from .linalg import IntLattice, smith_normal_form

COMPLEXES = ("rack", "quandle", "degenerate", "identity")


def _guard(n_basis: int, size_guard: int):
    if n_basis > size_guard:
        raise SizeGuardExceeded(n_basis, size_guard)


def rack_basis(order: int, degree: int) -> list[tuple[int, ...]]:
    """Lexicographic tuple basis; degree 0 is the single empty tuple."""
    if degree == 0:
        return [()]
    return [t for t in itertools.product(range(order), repeat=degree)]


def quandle_basis(order: int, degree: int) -> list[tuple[int, ...]]:
    """Non-degenerate tuples (no equal adjacent entries)."""
    if degree == 0:
        return [()]
    out = []
    for t in itertools.product(range(order), repeat=degree):
        if all(t[i] != t[i + 1] for i in range(degree - 1)):
            out.append(t)
    return out


@dataclass(frozen=True)
class BoundaryMatrix:
    """Matrix of the boundary map from degree to degree-1 in chosen bases.

    matrix[i][j] is the coefficient of row basis element i in the boundary of
    column basis element j.  Bases are tuples for the tuple complexes and
    FormalChain lattice bases for the identity complex.
    """

    complex: str
    degree: int
    matrix: tuple[tuple[int, ...], ...]
    row_basis: tuple
    col_basis: tuple

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.row_basis), len(self.col_basis))


def _tuple_complex_matrix(X: QuandleTable, complex: str, degree: int,
                          size_guard: int) -> BoundaryMatrix:
    n = X.order
    _guard(n ** degree, size_guard)
    if complex == "rack":
        cols = rack_basis(n, degree)
        rows = rack_basis(n, degree - 1)
        keep = None
    elif complex == "quandle":
        cols = quandle_basis(n, degree)
        rows = quandle_basis(n, degree - 1)
        keep = set(rows)
    elif complex == "degenerate":
        cols = degenerate_tuples(n, degree) if degree >= 2 else []
        rows = degenerate_tuples(n, degree - 1) if degree - 1 >= 2 else []
        keep = None
    else:
        raise ValueError(f"unknown complex {complex!r}")
    row_index = {t: i for i, t in enumerate(rows)}
    mat = [[0] * len(cols) for _ in rows]
    for j, tup in enumerate(cols):
        if degree == 1:
            continue                       # empty alternating sum
        for t, c in boundary_of_tuple(X, tup).items():
            if complex == "quandle" and t not in keep:
                continue                   # degenerate target projected out
            if t in row_index:
                mat[row_index[t]][j] += c
            elif complex == "degenerate":
                raise SubcomplexClosureViolated(FormalChain(degree, {tup: 1}))
            else:
                raise AssertionError("boundary left the tuple basis")
    return BoundaryMatrix(complex=complex, degree=degree,
                          matrix=tuple(tuple(r) for r in mat),
                          row_basis=tuple(rows), col_basis=tuple(cols))


@lru_cache(maxsize=512)
def _identity_generators(X: QuandleTable, word: Word, degree: int,
                         include_first_slot: bool,
                         size_guard: int) -> GeneratorSet:
    return subcomplex_generators(X, "identity", degree, word=word,
                                 include_first_slot=include_first_slot,
                                 size_guard=size_guard)


def _identity_matrix_for(X: QuandleTable, word: Word, degree: int,
                         include_first_slot: bool,
                         size_guard: int) -> BoundaryMatrix:
    from .chains import boundary

    n = X.order
    _guard(n ** degree, size_guard)
    gens_hi = _identity_generators(X, word, degree, include_first_slot,
                                   size_guard)
    lat_hi = gens_hi.lattice
    col_basis = tuple(vector_chain(v, n, degree) for v in lat_hi.basis_vectors())
    if degree - 1 >= 2:
        gens_lo = _identity_generators(X, word, degree - 1, include_first_slot,
                                       size_guard)
        lat_lo = gens_lo.lattice
        row_basis = tuple(vector_chain(v, n, degree - 1)
                          for v in lat_lo.basis_vectors())
    else:
        lat_lo = None
        row_basis = ()
    mat = [[0] * len(col_basis) for _ in row_basis]
    for j, chain in enumerate(col_basis):
        b = boundary(X, chain)
        if lat_lo is None:
            if not b.is_zero():
                raise SubcomplexClosureViolated(chain)
            continue
        coords = lat_lo.coordinates(chain_vector(b, n))
        if coords is None:
            raise SubcomplexClosureViolated(chain)
        for i, c in enumerate(coords):
            mat[i][j] = c
    return BoundaryMatrix(complex="identity", degree=degree,
                          matrix=tuple(tuple(r) for r in mat),
                          row_basis=row_basis, col_basis=col_basis)


def boundary_matrix(X: QuandleTable, complex: str, degree: int,
                    word: Optional[Word] = None,
                    include_first_slot: bool = False,
                    size_guard: int = DEFAULT_SIZE_GUARD) -> BoundaryMatrix:
    """Boundary matrix of one complex flavor at one degree.

    identity complexes are expressed in echelon lattice bases of the generated
    spans; integral solvability of every column is part of the construction
    and a failure raises SubcomplexClosureViolated with the offending chain.
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
                                  matrix=(), row_basis=(), col_basis=())
        return _identity_matrix_for(X, word, degree, include_first_slot,
                                    size_guard)
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
    rank_n = smith_normal_form(bn.matrix, with_transforms=False).rank \
        if bn.matrix and bn.shape[0] else 0
    snf_up = smith_normal_form(bn1.matrix, with_transforms=False) \
        if bn1.matrix and bn1.shape[0] else None
    rank_up = snf_up.rank if snf_up else 0
    torsion = tuple(d for d in (snf_up.invariant_factors if snf_up else ())
                    if d > 1)
    return HomologyGroup(free_rank=dim - rank_n - rank_up, torsion=torsion)


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
            raise SizeGuardExceeded(self.size, limit)
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
    says phi(d(x,y,z)) = 0, so the cocycles are the maps on C_2 that kill the
    image lattice of the rack d_3; quandle mode adds the chains (x, x) to that
    lattice.  One Smith form of the lattice basis, U B V = D, gives them: the
    columns of V scaled by d / gcd(f_i, d) over the invariant factors f_i,
    and the remaining columns of V at full order d.
    """
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    if mode not in ("rack", "quandle"):
        raise ValueError("mode must be 'rack' or 'quandle'")
    n = X.order
    unknowns = n * n
    image = IntLattice(unknowns)
    # the rack d_3 in both modes: the quandle-flavour d_3 describes the same
    # cocycles only when X is a quandle
    for col in zip(*boundary_matrix(X, "rack", 3).matrix):
        image.add(col)
    if mode == "quandle":
        for x in range(n):
            image.add([int(i == x * n + x) for i in range(unknowns)])
    snf = smith_normal_form(image.basis_vectors() or [[0] * unknowns],
                            with_transforms=True)
    V = snf.V
    gens: list[CocycleTable] = []
    orders: list[int] = []
    size = 1
    for i in range(unknowns):
        order = math.gcd(snf.invariant_factors[i], modulus) \
            if i < snf.rank else modulus
        if order == 1:
            continue
        scale = modulus // order
        col = [V[r][i] * scale % modulus for r in range(unknowns)]
        vals = tuple(tuple(col[x * n + y] for y in range(n)) for x in range(n))
        gens.append(CocycleTable(modulus=modulus, values=vals))
        orders.append(order)
        size *= order
    space = CocycleSpace(base_order=n, modulus=modulus, mode=mode,
                         generators=tuple(gens), orders=tuple(orders),
                         size=size)
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
