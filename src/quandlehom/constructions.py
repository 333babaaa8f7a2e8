"""Table generators: trivial, dihedral, affine (Alexander) over Z_n and over
polynomial quotient rings, group-based constructions, the repeated-word
family of connected affine quandles, and brute-force enumeration of small
connected quandles up to isomorphism, each capped at an order
(SizeGuardExceeded) as it tries every permutation of the elements.

Z_p[t]/(f) of degree k is held as k x k matrices over Z_p, as Nelson
(Topology Proc. 27 (2003)) treats it as a module on which t acts: t is the
companion matrix of f, and element i, whose base-p digit j is its
coefficient of t^j, is that polynomial in t.
"""

from __future__ import annotations

import itertools
import math
import warnings
from typing import Optional, Sequence

import numpy as np

from .core import QuandleTable, cycle_lengths, is_connected, make_table
from .errors import (
    IdentityNotSatisfied,
    NotAnAutomorphism,
    NotAUnit,
    NotConnected,
    NotPrime,
    PNotGreaterThanN,
    ReducibleModulusAllowed,
    SizeGuardExceeded,
)
from .identities import Word

ENUMERATION_CAP = 6
CANONICAL_FORM_CAP = 8


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % f for f in range(2, math.isqrt(p) + 1))


class PolyRing:
    """Z_p[t]/(f), f made monic, as matrices over Z_p acting on coefficient
    vectors.  t is the companion matrix C of f: column j is the vector of
    t * t^j, so the last column holds -f_0, ..., -f_(k-1).  An element
    sum c_j t^j is the matrix sum c_j C^j mod p; its first column, the
    element times 1, is its coefficient vector.  The p^k elements are
    numbered in base p with digit j the coefficient of t^j."""

    def __init__(self, p: int, modulus: Sequence[int]):
        if not _is_prime(p):
            raise NotPrime(p)
        mod = [c % p for c in modulus]
        while mod and mod[-1] == 0:
            mod.pop()
        if len(mod) < 2:
            raise ValueError("modulus must have degree >= 1")
        inv = pow(mod[-1], -1, p)
        self.p = p
        self.modulus = tuple(c * inv % p for c in mod)
        self.degree = k = len(mod) - 1
        self.size = p ** k
        self._weights = p ** np.arange(k, dtype=np.int64)
        self.t = np.eye(k, k, -1, dtype=np.int64)
        self.t[:, -1] = [-c % p for c in self.modulus[:-1]]
        # f is reducible iff a monic g of degree at most k/2 shares a factor
        # with it, that is iff g(C) is singular
        if any(not self.is_unit(self.element([*g, 1]))
               for d in range(1, k // 2 + 1)
               for g in itertools.product(range(p), repeat=d)):
            warnings.warn(
                f"modulus {self.poly_str(self.modulus)} is reducible mod {p}; "
                "the quotient is a ring, not a field",
                ReducibleModulusAllowed, stacklevel=3)

    def element(self, value: Sequence[int] | int) -> np.ndarray:
        """The matrix of an element given by its index in 0..p^k - 1 or
        by ascending coefficients of any length, each read mod p."""
        p = self.p
        if isinstance(value, int):
            if not 0 <= value < self.size:
                raise ValueError(f"index {value} outside 0..{self.size - 1}")
            value = value // self._weights % p
        out = np.zeros_like(self.t)
        power = np.eye(self.degree, dtype=np.int64)
        for c in value:
            out = (out + c % p * power) % p
            power = power @ self.t % p
        return out

    def index(self, a: np.ndarray) -> int:
        return int(a[:, 0] % self.p @ self._weights)

    def _times(self, a: np.ndarray) -> np.ndarray:
        """Row x: the coefficient vector of a times element x."""
        digits = np.arange(self.size)[:, None] // self._weights % self.p
        return digits @ a.T % self.p

    def is_unit(self, a: np.ndarray) -> bool:
        """Whether multiplication by a permutes the elements, that is whether
        a has full rank mod p, by Gaussian elimination on its k rows."""
        rows = a.tolist()
        for c in range(self.degree):
            pivot = next((r for r in rows if r[c] % self.p), None)
            if pivot is None:
                return False
            rows.remove(pivot)
            f = pow(pivot[c], -1, self.p)
            rows = [[(x - r[c] * f * y) % self.p for x, y in zip(r, pivot)]
                    for r in rows]
        return True

    @staticmethod
    def poly_str(coeffs: Sequence[int]) -> str:
        parts = []
        for i, c in enumerate(coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("t" if c == 1 else f"{c}t")
            else:
                parts.append(f"t^{i}" if c == 1 else f"{c}t^{i}")
        return " + ".join(reversed(parts)) if parts else "0"


# ----------------------------------------------------------------- builders

def trivial(n: int) -> QuandleTable:
    """x*y = x."""
    if n < 1:
        raise ValueError("order must be >= 1")
    return make_table([[x] * n for x in range(n)], require="quandle")


def dihedral(n: int) -> QuandleTable:
    """x*y = 2y - x mod n."""
    if n < 1:
        raise ValueError("order must be >= 1")
    return make_table([[(2 * y - x) % n for y in range(n)] for x in range(n)],
                      require="quandle")


def alexander_zn(n: int, t: int) -> QuandleTable:
    """x*y = t*x + (1-t)*y mod n for a unit t."""
    if n < 1:
        raise ValueError("order must be >= 1")
    if math.gcd(t % n if n > 1 else 1, n) != 1:
        raise NotAUnit(f"{t} is not a unit mod {n}")
    return make_table(
        [[(t * x + (1 - t) * y) % n for y in range(n)] for x in range(n)],
        require="quandle")


def _affine_table(ring: PolyRing, unit: np.ndarray) -> QuandleTable:
    """x*y = u*x + (1-u)*y: the coefficient vectors of u*x and (1-u)*y
    for every x and y, summed mod p and read back as indices.  No axiom is
    checked: with u a unit, x -> u*x + (1-u)*y is a bijection, x*x = x, and
    in a commutative ring (x*y)*z and (x*z)*(y*z) both equal
    u^2 x + u(1-u) y + (1-u) z, as u(1-u) z + (1-u)^2 z = (1-u) z."""
    ux = ring._times(unit)
    vy = ring._times(ring.element([1]) - unit)
    table = (ux[:, None, :] + vy[None, :, :]) % ring.p @ ring._weights
    return QuandleTable(table, _validated=True)


def alexander_poly(p: int, modulus: Sequence[int],
                   unit: Sequence[int] | int) -> QuandleTable:
    """Affine quandle over Z_p[t]/(f); unit given as coefficients (ascending)
    or as an element index."""
    ring = PolyRing(p, modulus)
    u = ring.element(unit)
    if not ring.is_unit(u):
        raise NotAUnit(f"{PolyRing.poly_str(u[:, 0].tolist())} is not a unit "
                       "in the quotient")
    return _affine_table(ring, u)


def _check_group(rows: Sequence[Sequence[int]]) -> tuple[int, list[int]]:
    """Validate a Cayley table with identity at index 0; return inverses."""
    n = len(rows)
    for row in rows:
        if len(row) != n or any(not 0 <= v < n for v in row):
            raise ValueError("group table must be square over 0..n-1")
    if any(rows[0][x] != x or rows[x][0] != x for x in range(n)):
        raise ValueError("group identity must sit at index 0")
    T = np.array(rows, dtype=np.int64)
    for a in range(n):
        if (T[T[a, :], :] != T[a, T]).any():
            raise ValueError("group table is not associative")
    inv = [-1] * n
    for a in range(n):
        hits = [b for b in range(n) if rows[a][b] == 0]
        if len(hits) != 1:
            raise ValueError(f"element {a} has no unique inverse")
        inv[a] = hits[0]
    return n, inv


def generalized_alexander(group_rows: Sequence[Sequence[int]],
                          automorphism: Sequence[int]) -> QuandleTable:
    """x*y = f(x y^-1) y for a group automorphism f."""
    n, inv = _check_group(group_rows)
    f = list(automorphism)
    if sorted(f) != list(range(n)):
        raise NotAnAutomorphism("map is not a bijection")
    for a in range(n):
        for b in range(n):
            if f[group_rows[a][b]] != group_rows[f[a]][f[b]]:
                raise NotAnAutomorphism(f"fails at ({a},{b})")
    rows = [[group_rows[f[group_rows[x][inv[y]]]][y] for y in range(n)]
            for x in range(n)]
    return make_table(rows, require="quandle")


def conjugation(group_rows: Sequence[Sequence[int]]) -> QuandleTable:
    """x*y = y^-1 x y."""
    n, inv = _check_group(group_rows)
    rows = [[group_rows[group_rows[inv[y]][x]][y] for y in range(n)]
            for x in range(n)]
    return make_table(rows, require="quandle")


def make(kind: str, *args) -> QuandleTable:
    """Dispatch by kind name; mirrors the CLI `gen` subcommand."""
    builders = {
        "trivial": trivial,
        "dihedral": dihedral,
        "alexander_zn": alexander_zn,
        "alexander_poly": alexander_poly,
        "gen_alexander": generalized_alexander,
        "conjugation": conjugation,
        "burnside": burnside_family,
    }
    if kind not in builders:
        raise ValueError(f"unknown construction {kind!r}")
    return builders[kind](*args)


# -------------------------------------------------- repeated-word family

def repetition_polynomial(m: int, n: int) -> list[int]:
    """(t^(mn) - 1)/(t^m - 1) = 1 + t^m + ... + t^(m(n-1)), ascending."""
    coeffs = [0] * (m * (n - 1) + 1)
    for h in range(n):
        coeffs[h * m] = 1
    return coeffs


def affine_satisfies(ring: PolyRing, unit: np.ndarray, w: Word) -> bool:
    """Exact satisfaction test for affine quandles at ring level: x*w is
    u^L x + (1-u) sum_i u^(L-i) y_(tau_i), the identity for all inputs iff
    u^L = 1 and, for every letter l, (1-u) sum_(i: tau_i = l) u^(L-i) = 0."""
    p, L = ring.p, w.length
    powers = [ring.element([1])]
    for _ in range(L):
        powers.append(powers[-1] @ unit % p)
    sums = np.zeros((w.letters, ring.degree, ring.degree), dtype=np.int64)
    np.add.at(sums, list(w.tau), np.stack(powers[L - 1::-1]))
    return bool((powers[L] == powers[0]).all()
                and not ((powers[0] - unit) @ sums % p).any())


def burnside_family(m: int, n: int, p: int) -> QuandleTable:
    """Affine quandle over Z_p[t]/((t^(mn)-1)/(t^m-1)) for prime p > n.

    Connected (the modulus at t=1 equals n, nonzero mod p, so 1-t is a unit)
    and satisfies the repetition identity x (y_1 ... y_m)^n = x; both facts
    are verified on the constructed object.
    """
    if m < 1 or n < 2:
        raise ValueError("need m >= 1 and n >= 2")
    if not _is_prime(p):
        raise NotPrime(p)
    if p <= n:
        raise PNotGreaterThanN(p, n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ReducibleModulusAllowed)
        ring = PolyRing(p, repetition_polynomial(m, n))
    unit = ring.t
    if not ring.is_unit(ring.element([1, -1])):
        raise NotAUnit("1 - t is not a unit in the quotient")
    word = Word.canonical(list(range(m)) * n)
    if not affine_satisfies(ring, unit, word):
        raise IdentityNotSatisfied(word)
    X = _affine_table(ring, unit)
    if not is_connected(X):
        raise NotConnected("the family member is not connected")
    return X


# ------------------------------------------------- enumeration + isomorphism

def canonical_form(X: QuandleTable, cap: int = CANONICAL_FORM_CAP) -> tuple:
    """Least relabelling of the flattened table; usable up to order cap.
    Every relabelling is one row of an array, the table under each
    permutation s read as s(T[s^-1 x][s^-1 y]), and the rows are cut to
    those holding the least entry, column by column."""
    n = X.order
    SizeGuardExceeded.check(n, cap, f"canonical form capped at order {cap}")
    perms = np.array(list(itertools.permutations(range(n))))
    inv = np.argsort(perms, axis=1)
    T = np.array(X.rows)
    forms = np.take_along_axis(
        perms, T[inv[:, :, None], inv[:, None, :]].reshape(len(perms), -1),
        axis=1)
    for j in range(n * n):
        forms = forms[forms[:, j] == forms[:, j].min()]
    return tuple(forms[0].tolist())


def are_isomorphic(X: QuandleTable, Y: QuandleTable,
                   cap: int = CANONICAL_FORM_CAP) -> bool:
    if X.order != Y.order:
        return False
    return canonical_form(X, cap) == canonical_form(Y, cap)


def _partial_distributivity_ok(T: list[list[Optional[int]]], n: int,
                               col: int) -> bool:
    """(a*b)*c == (a*c)*(b*c) on the triples that column col completes:
    b, c and b*c at most col, one of them col.  Columns 0..col are placed
    and never change below col, so every other such triple was checked
    when its last column was placed (b = c = 0 holds as 0*0 = 0)."""
    for c in range(col + 1):
        col_c = [T[x][c] for x in range(n)]
        for b in range(col + 1):
            bc = T[b][c]
            if bc > col or col not in (b, c, bc):
                continue
            for a in range(n):
                if col_c[T[a][b]] != T[T[a][c]][bc]:
                    return False
    return True


def enumerate_connected(order: int, cap: int = ENUMERATION_CAP) -> list[QuandleTable]:
    """All connected quandles of one order up to isomorphism, by column-wise
    backtracking over fixed-point permutations of a common cycle type.

    Connectivity forces every right translation into one conjugacy class, so
    the first column ranges over cycle-type representatives only; isomorph
    rejection is by minimal canonical relabeling.
    """
    SizeGuardExceeded.check(order, cap, f"enumeration capped at order {cap}")
    if order < 1:
        raise ValueError("order must be >= 1")
    if order == 1:
        return [trivial(1)]
    n = order
    # each permutation's cycle type, as its sorted per-point cycle lengths,
    # and the candidate columns per diagonal point
    perms = list(itertools.permutations(range(n)))
    lengths = np.sort(cycle_lengths(np.array(perms)), axis=1)
    cycle_type = dict(zip(perms, map(tuple, lengths.tolist())))
    perms_fixing = {y: [p for p in perms if p[y] == y] for y in range(n)}
    found: dict[tuple, QuandleTable] = {}

    type_reps: dict[tuple[int, ...], tuple[int, ...]] = {}
    for p in perms_fixing[0]:
        if cycle_type[p] != (1,) * n:    # identity column forces triviality
            type_reps.setdefault(cycle_type[p], p)

    def search(T, col: int, ct):
        if col == n:
            rows = [[T[x][y] for y in range(n)] for x in range(n)]
            tab = QuandleTable(rows, _validated=True)
            if is_connected(tab):
                key = canonical_form(tab)
                if key not in found:
                    found[key] = QuandleTable(
                        [key[i * n:(i + 1) * n] for i in range(n)],
                        _validated=True)
            return
        for p in perms_fixing[col]:
            if cycle_type[p] != ct:
                continue
            for x in range(n):
                T[x][col] = p[x]
            if _partial_distributivity_ok(T, n, col):
                search(T, col + 1, ct)
        for x in range(n):
            T[x][col] = None

    for ct, rep in sorted(type_reps.items()):
        T: list[list[Optional[int]]] = [[None] * n for _ in range(n)]
        for x in range(n):
            T[x][0] = rep[x]
        search(T, 1, ct)
    out = sorted(found.values(), key=lambda t: t.rows)
    for tab in out:
        make_table(tab.rows, require="quandle")     # defensive revalidation
    return out
