"""Answers computed apart from quandlehom, used to check its outputs.

Nothing here imports the package.  Tables are 0-based row tuples with
rows[x][y] = x*y.  Every routine is a plain loop or a small numpy
elimination written for this file; where a closed form is known it is used
instead of a search.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np


# ------------------------------------------------------------------ tables

def relabel(rows, perm):
    """The table carried through the bijection x -> perm[x]."""
    n = len(rows)
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            out[perm[x]][perm[y]] = perm[rows[x][y]]
    return tuple(tuple(r) for r in out)


def orbit_count(rows) -> int:
    """Orbits of the right translations, by union-find on x ~ x*y."""
    n = len(rows)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for x in range(n):
        for y in range(n):
            a, b = find(x), find(rows[x][y])
            if a != b:
                parent[a] = b
    return len({find(x) for x in range(n)})


def columns(rows):
    n = len(rows)
    return [tuple(rows[x][y] for x in range(n)) for y in range(n)]


def perm_order(p) -> int:
    seen = [False] * len(p)
    out = 1
    for s in range(len(p)):
        length, x = 0, s
        while not seen[x]:
            seen[x] = True
            x = p[x]
            length += 1
        if length:
            out = math.lcm(out, length)
    return out


def table_type(rows) -> int:
    """lcm of the orders of the right translations."""
    out = 1
    for col in set(columns(rows)):
        out = math.lcm(out, perm_order(col))
    return out


def inner_group(rows) -> set:
    """All elements of Inn X as image tuples, by breadth-first closure."""
    gens = list(set(columns(rows)))
    ident = tuple(range(len(rows)))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens:
                h = tuple(s[i] for i in g)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return seen


def group_exponent(group) -> int:
    out = 1
    for g in group:
        out = math.lcm(out, perm_order(g))
    return out


def is_medial(rows) -> bool:
    n = len(rows)
    return all(rows[rows[x][y]][rows[u][v]] == rows[rows[x][u]][rows[y][v]]
               for x, y, u, v in itertools.product(range(n), repeat=4))


def invariants(rows) -> dict:
    """The fields of `quandlehom info`, each from its definition."""
    inn = inner_group(rows)
    return {"is_connected": orbit_count(rows) == 1,
            "is_faithful": len(set(columns(rows))) == len(rows),
            "type": table_type(rows),
            "inn_order": len(inn),
            "inn_exponent": group_exponent(inn)}


# ------------------------------------------------------------------- words

def word_holds(rows, tau) -> bool:
    """x*y[tau_1]*...*y[tau_k] == x for every x and every letter tuple."""
    n = len(rows)
    for ys in itertools.product(range(n), repeat=max(tau) + 1):
        for x in range(n):
            cur = x
            for t in tau:
                cur = rows[cur][ys[t]]
            if cur != x:
                return False
    return True


def multiplicative_order(t: int, n: int) -> int:
    k, acc = 1, t % n
    while acc != 1 % n:
        acc = acc * t % n
        k += 1
    return k


def alexander_word_holds(n: int, t: int, tau) -> bool:
    """x*w = t^k x + (1-t) sum_i t^(k-i) y_tau(i) on Z_n: the identity holds
    iff t^k = 1 and every letter's coefficient vanishes."""
    k = len(tau)
    if pow(t, k, n) != 1 % n:
        return False
    coef = [0] * (max(tau) + 1)
    for i, letter in enumerate(tau, start=1):
        coef[letter] += pow(t, k - i, n)
    return all((1 - t) * c % n == 0 for c in coef)


def alexander_invariants(n: int, t: int) -> dict:
    """Closed forms for x*y = t x + (1-t) y on Z_n."""
    o = multiplicative_order(t, n)
    g = math.gcd(n, t - 1)
    return {"type": o, "inn_order": o * n // g, "is_connected": g == 1,
            "is_medial": True}


# ----------------------------------------------------------- linear algebra

def _primes_below(bound: int, count: int) -> tuple[int, ...]:
    out = []
    p = bound - 1
    while len(out) < count:
        if p > 1 and all(p % f for f in range(2, math.isqrt(p) + 1)):
            out.append(p)
        p -= 1
    return tuple(out)


# r * p^2 < 2^53 for every rank r below 2^13, so float64 products are exact
RANK_PRIMES = _primes_below(1 << 20, 2)


def rank_mod_p(mat, p: int, chunk: int = 256) -> int:
    """Rank over GF(p) by blocked reduction against a reduced echelon basis.

    Entries live in float64, exact while rank * p^2 stays below 2^53.
    """
    M = np.asarray(mat, dtype=np.float64)
    if M.size == 0:
        return 0
    if min(M.shape) * p * p >= 1 << 53:
        raise ValueError("prime too large for exact float64 reduction")
    M = np.mod(M, p)
    basis = np.zeros((0, M.shape[1]))
    pivots: list[int] = []
    for lo in range(0, M.shape[0], chunk):
        C = M[lo:lo + chunk]
        if pivots:
            C = np.mod(C - np.mod(C[:, pivots] @ basis, p), p)
        new_rows, new_piv = _rref_mod_p(C, p)
        if new_piv:
            basis = np.mod(basis - np.mod(basis[:, new_piv] @ new_rows, p), p)
            basis = np.vstack([basis, new_rows])
            pivots.extend(new_piv)
    return len(pivots)


def _rref_mod_p(C, p: int):
    """Reduced echelon rows of a small block, with their pivot columns."""
    A = C.copy()
    rows: list[int] = []
    piv: list[int] = []
    r = 0
    for col in range(A.shape[1]):
        if r == A.shape[0]:
            break
        nz = np.nonzero(A[r:, col])[0]
        if nz.size == 0:
            continue
        k = r + int(nz[0])
        A[[r, k]] = A[[k, r]]
        A[r] = np.mod(A[r] * pow(int(A[r, col]), -1, p), p)
        hit = np.nonzero(A[:, col])[0]
        hit = hit[hit != r]
        if hit.size:
            A[hit] = np.mod(A[hit] - np.mod(np.outer(A[hit, col], A[r]), p), p)
        rows.append(r)
        piv.append(col)
        r += 1
    return A[rows], piv


def ranks_agree(mat) -> int | None:
    """The common rank modulo every RANK_PRIME, or None if they differ."""
    got = {rank_mod_p(mat, p) for p in RANK_PRIMES}
    return got.pop() if len(got) == 1 else None


# --------------------------------------------------------- rack homology

def rack_faces(rows, tup):
    """(sign, face) pairs of the rack boundary of one tuple:
    sum over i >= 2 of (-1)^i [delete x_i  -  act by *x_i on x_1..x_(i-1)]."""
    out = []
    for i in range(1, len(tup)):
        sign = 1 if i % 2 else -1
        xi = tup[i]
        out.append((sign, tup[:i] + tup[i + 1:]))
        out.append((-sign, tuple(rows[v][xi] for v in tup[:i]) + tup[i + 1:]))
    return out


def _nondegenerate(tup) -> bool:
    return all(a != b for a, b in zip(tup, tup[1:]))


def boundary_rows(rows, degree: int, quandle: bool) -> np.ndarray:
    """Matrix of the degree -> degree-1 boundary, one row per source tuple;
    the quandle flavour keeps only non-degenerate tuples on both sides."""
    n = len(rows)
    keep = _nondegenerate if quandle else (lambda t: True)
    src = [t for t in itertools.product(range(n), repeat=degree) if keep(t)]
    dst = [t for t in itertools.product(range(n), repeat=degree - 1)
           if keep(t)]
    col = {t: j for j, t in enumerate(dst)}
    M = np.zeros((len(src), max(1, len(dst))), dtype=np.int64)
    if degree == 1:
        return M
    for i, tup in enumerate(src):
        for sign, face in rack_faces(rows, tup):
            if face in col:
                M[i, col[face]] += sign
    return M


def hom_to_prime_order(rows, degree: int, quandle: bool, p: int) -> int:
    """|Hom(H_degree, Z_p)| = p^(dim C - rank d_n - rank d_(n+1)) over GF(p);
    valid because H_(degree-1) is free in the degrees used here."""
    n = len(rows)
    dim = sum(1 for t in itertools.product(range(n), repeat=degree)
              if not quandle or _nondegenerate(t))
    r_n = rank_mod_p(boundary_rows(rows, degree, quandle), p)
    r_up = rank_mod_p(boundary_rows(rows, degree + 1, quandle), p)
    return p ** (dim - r_n - r_up)


def betti(o: int, degree: int, flavour: str) -> int:
    """Free rank of H_n for a finite rack with o orbits (Litherland-Nelson,
    Etingof-Grana): rack o^n, quandle o(o-1)^(n-1), degenerate the rest."""
    rack = o ** degree
    quandle = o * (o - 1) ** (degree - 1)
    return {"rack": rack, "quandle": quandle,
            "degenerate": rack - quandle}[flavour]


def factorize(d: int) -> dict:
    """{prime: exponent} of a positive integer, by trial division."""
    out, f = {}, 2
    while d > 1:
        while d % f == 0:
            out[f] = out.get(f, 0) + 1
            d //= f
        f += 1
    return out


def prime_power_parts(factors) -> Counter:
    """Elementary divisors of a list of invariant factors, as a multiset."""
    return Counter(p ** e for d in factors for p, e in factorize(d).items())


def hom_order(free_rank: int, torsion, d: int) -> int:
    """|Hom(Z^r + sum Z_t, Z_d)|."""
    out = d ** free_rank
    for t in torsion:
        out *= math.gcd(t, d)
    return out


# ----------------------------------------------------------------- cocycles

def cocycle_constraints(rows, quandle: bool) -> np.ndarray:
    """One row per (x, y, z): phi(x,y) - phi(x,z) + phi(x*y,z) - phi(x*z,y*z),
    over the n^2 unknowns phi(x, y); quandle mode adds phi(x, x) = 0."""
    n = len(rows)
    out = []
    for x, y, z in itertools.product(range(n), repeat=3):
        row = [0] * (n * n)
        for (a, b), c in (((x, y), 1), ((x, z), -1), ((rows[x][y], z), 1),
                          ((rows[x][z], rows[y][z]), -1)):
            row[a * n + b] += c
        out.append(row)
    if quandle:
        for x in range(n):
            row = [0] * (n * n)
            row[x * n + x] = 1
            out.append(row)
    return np.array(out, dtype=np.int64)


def cocycle_holds(rows, values, d: int, quandle: bool) -> bool:
    n = len(rows)
    for x, y, z in itertools.product(range(n), repeat=3):
        if (values[x][y] - values[x][z] + values[rows[x][y]][z]
                - values[rows[x][z]][rows[y][z]]) % d:
            return False
    return not quandle or all(values[x][x] % d == 0 for x in range(n))


def brute_force_cocycle_count(rows, d: int, quandle: bool) -> int:
    """Count every Z_d-valued 2-cochain that satisfies the conditions."""
    n = len(rows)
    C = cocycle_constraints(rows, quandle)
    cochains = np.array(list(itertools.product(range(d), repeat=n * n)),
                        dtype=np.int64)
    return int((~np.any(cochains @ C.T % d, axis=1)).sum())


# ------------------------------------------------------ identity subcomplex

def identity_generators(rows, tau, degree: int) -> np.ndarray:
    """Chains of the identity subcomplex as dense tuple-index vectors.

    The letter slot sits at position j = 1..degree-1; entries left of it are
    pushed through successive letters, entries right of it stay fixed:
    sum over i of (prefix_i(x_1..x_j), y[tau_i], x_(j+1)..).
    """
    n = len(rows)
    m = max(tau) + 1
    vecs = set()
    for j in range(1, degree):
        for xs in itertools.product(range(n), repeat=degree - 1):
            left, right = xs[:j], xs[j:]
            for ys in itertools.product(range(n), repeat=m):
                v = Counter()
                cur = left
                for t in tau:
                    v[cur + (ys[t],) + right] += 1
                    cur = tuple(rows[a][ys[t]] for a in cur)
                vecs.add(tuple(sorted(v.items())))
    dim = n ** degree
    M = np.zeros((len(vecs), dim), dtype=np.int64)
    for i, terms in enumerate(sorted(vecs)):
        for tup, c in terms:
            M[i, _index(tup, n)] = c
    return M


def _index(tup, n: int) -> int:
    idx = 0
    for v in tup:
        idx = idx * n + v
    return idx


def full_boundary(rows, degree: int) -> np.ndarray:
    """Rack boundary from degree to degree-1 on all tuples, as a
    (n^degree x n^(degree-1)) matrix acting on row vectors."""
    n = len(rows)
    M = np.zeros((n ** degree, n ** (degree - 1)), dtype=np.int64)
    for tup in itertools.product(range(n), repeat=degree):
        i = _index(tup, n)
        for sign, face in rack_faces(rows, tup):
            M[i, _index(face, n)] += sign
    return M
