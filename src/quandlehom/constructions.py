"""Table generators: trivial, dihedral, affine (Alexander) over Z_n and over
polynomial quotient rings, group-based constructions, the repeated-word
family of connected affine quandles, and brute-force enumeration of small
connected quandles up to isomorphism, each capped at an order
(SizeGuardExceeded) as it tries every permutation of the elements.
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
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


class PolyRing:
    """Z_p[t]/(f) with f monic; elements are coefficient tuples of degree
    below deg f, also addressable as integer indices in base p."""

    def __init__(self, p: int, modulus: Sequence[int]):
        if not _is_prime(p):
            raise NotPrime(p)
        mod = [c % p for c in modulus]
        while mod and mod[-1] == 0:
            mod.pop()
        if len(mod) < 2:
            raise ValueError("modulus must have degree >= 1")
        lead = mod[-1]
        if lead != 1:
            inv = pow(lead, -1, p)
            mod = [c * inv % p for c in mod]
        self.p = p
        self.modulus = tuple(mod)
        self.degree = len(mod) - 1
        self.size = p ** self.degree
        if not self._is_irreducible():
            warnings.warn(
                f"modulus {self.poly_str(self.modulus)} is reducible mod {p}; "
                "the quotient is a ring, not a field",
                ReducibleModulusAllowed, stacklevel=3)

    # -- element codecs -------------------------------------------------------
    def element(self, index: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.degree):
            index, r = divmod(index, self.p)
            out.append(r)
        return tuple(out)

    def index(self, coeffs: Sequence[int]) -> int:
        idx = 0
        for c in reversed(list(coeffs)):
            idx = idx * self.p + (c % self.p)
        return idx

    @property
    def zero(self) -> tuple[int, ...]:
        return (0,) * self.degree

    @property
    def one(self) -> tuple[int, ...]:
        return (1,) + (0,) * (self.degree - 1)

    @property
    def t(self) -> tuple[int, ...]:
        if self.degree == 1:
            # t is congruent to the negated constant term of the modulus
            return ((-self.modulus[0]) % self.p,)
        return (0, 1) + (0,) * (self.degree - 2)

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        p = self.p
        d = self.degree
        res = [0] * (2 * d - 1 if d > 1 else 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    res[i + j] = (res[i + j] + ai * bj) % p
        for i in range(len(res) - 1, d - 1, -1):
            c = res[i]
            if c:
                res[i] = 0
                for j in range(self.degree + 1):
                    res[i - self.degree + j] = (
                        res[i - self.degree + j] - c * self.modulus[j]) % p
        return tuple(res[:d])

    def pow(self, a, e: int):
        out = self.one
        base = a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def is_unit(self, a) -> bool:
        # unit iff gcd with the modulus is 1 in Z_p[t]
        return self._poly_gcd(list(a), list(self.modulus)) == [1]

    def _poly_gcd(self, a: list[int], b: list[int]) -> list[int]:
        p = self.p

        def norm(v):
            while v and v[-1] % p == 0:
                v.pop()
            return [c % p for c in v]

        a, b = norm(list(a)), norm(list(b))
        while b:
            inv = pow(b[-1], -1, p)
            r = list(a)
            while len(r) >= len(b) and any(r):
                if r[-1] % p == 0:
                    r.pop()
                    continue
                coef = r[-1] * inv % p
                shift = len(r) - len(b)
                for i, c in enumerate(b):
                    r[shift + i] = (r[shift + i] - coef * c) % p
                r = norm(r)
            a, b = b, norm(r)
        if a:
            inv = pow(a[-1], -1, p)
            a = [c * inv % p for c in a]
        return a if a else []

    def _is_irreducible(self) -> bool:
        if self.degree == 1:
            return True
        # no roots, and no monic factor of degree <= deg/2
        for d in range(1, self.degree // 2 + 1):
            for coeffs in itertools.product(range(self.p), repeat=d):
                cand = list(coeffs) + [1]
                g = self._poly_gcd(list(self.modulus), cand)
                if len(g) - 1 >= 1:
                    return False
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


def _affine_table(ring: PolyRing, unit) -> QuandleTable:
    """x*y = u*x + (1-u)*y over a polynomial quotient ring, vectorized."""
    p, size = ring.p, ring.size
    tmul = [ring.index(ring.mul(unit, ring.element(i))) for i in range(size)]
    cou = ring.sub(ring.one, unit)
    smul = [ring.index(ring.mul(cou, ring.element(i))) for i in range(size)]
    digits = np.zeros((size, ring.degree), dtype=np.int64)
    idx = np.arange(size)
    for j in range(ring.degree):
        digits[:, j] = (idx // p ** j) % p
    summed = (digits[:, None, :] + digits[None, :, :]) % p
    weights = p ** np.arange(ring.degree, dtype=np.int64)
    add_index = (summed * weights).sum(axis=2)
    tarr = np.asarray(tmul)
    sarr = np.asarray(smul)
    table = add_index[tarr[:, None], sarr[None, :]]
    return make_table(table.tolist(), require="quandle")


def ring_element(ring: PolyRing, coeffs: Sequence[int] | int):
    """Element from an index or an ascending coefficient list of any length."""
    if isinstance(coeffs, int):
        return ring.element(coeffs)
    out = ring.zero
    tpow = ring.one
    for c in coeffs:
        const = (c % ring.p,) + (0,) * (ring.degree - 1)
        out = ring.add(out, ring.mul(const, tpow))
        tpow = ring.mul(tpow, ring.t)
    return out


def alexander_poly(p: int, modulus: Sequence[int],
                   unit: Sequence[int] | int) -> QuandleTable:
    """Affine quandle over Z_p[t]/(f); unit given as coefficients (ascending)
    or as an element index."""
    ring = PolyRing(p, modulus)
    u = ring_element(ring, unit)
    if not ring.is_unit(u):
        raise NotAUnit(f"{PolyRing.poly_str(u)} is not a unit in the quotient")
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


def affine_word_multiplier_offsets(ring: PolyRing, unit, w: Word):
    """Closed form of x -> x*w on an affine quandle: the multiplier u^k and
    the per-letter offset coefficients (1-u) * sum of u^(k-i) over the
    positions of each letter."""
    k = w.length
    mult = ring.pow(unit, k)
    cou = ring.sub(ring.one, unit)
    offsets = []
    for letter in range(w.letters):
        acc = ring.zero
        for i, t in enumerate(w.tau, start=1):
            if t == letter:
                acc = ring.add(acc, ring.pow(unit, k - i))
        offsets.append(ring.mul(cou, acc))
    return mult, offsets


def affine_satisfies(ring: PolyRing, unit, w: Word) -> bool:
    """Exact satisfaction test for affine quandles at ring level: the word map
    is affine, so it is the identity for all inputs iff the multiplier is one
    and every letter coefficient vanishes."""
    mult, offsets = affine_word_multiplier_offsets(ring, unit, w)
    return mult == ring.one and all(off == ring.zero for off in offsets)


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
    if not ring.is_unit(ring.sub(ring.one, unit)):
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
    """Minimum relabeling of the flattened table; usable up to order cap."""
    n = X.order
    SizeGuardExceeded.check(n, cap, f"canonical form capped at order {cap}")
    best = None
    rows = X.rows
    for perm in itertools.permutations(range(n)):
        inv = _inverse(perm)
        flat = tuple(perm[rows[x][y]] for x in inv for y in inv)
        if best is None or flat < best:
            best = flat
    return best


def _inverse(perm: Sequence[int]) -> list[int]:
    inv = [0] * len(perm)
    for i, v in enumerate(perm):
        inv[v] = i
    return inv


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
