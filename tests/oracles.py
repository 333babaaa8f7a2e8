"""Oracles and test-only algebra shared by the unit and acceptance suites.

Most of these deliberately avoid the library's own elimination and scanning
code paths: pivot-anywhere elimination for invariant factors, fraction-free
elimination for rational ranks, and plain nested loops for word
satisfaction.  kernel_basis is the exception: it reads the kernel off the
library's own Smith form with transforms, so it is a second route to an
answer built on that elimination, not an independent oracle.
lattice_from_rows is a shorthand for filling the library's IntLattice.
"""

import itertools
import math

from quandlehom.linalg import IntLattice, smith_normal_form


def naive_invariant_factors(mat):
    """Pivot-anywhere elimination plus a gcd/lcm fixup of the divisibility
    chain; no transform bookkeeping."""
    A = [list(r) for r in mat]
    m = len(A)
    n = len(A[0]) if m else 0
    t = 0
    out = []
    while t < min(m, n):
        found = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = abs(A[i][j])
                if v and (best is None or v < best):
                    best, found = v, (i, j)
        if not found:
            break
        i, j = found
        A[t], A[i] = A[i], A[t]
        for r in A:
            r[t], r[j] = r[j], r[t]
        while True:
            done = True
            for i in range(t + 1, m):
                while A[i][t]:
                    q = A[i][t] // A[t][t]
                    A[i] = [a - q * b for a, b in zip(A[i], A[t])]
                    if A[i][t]:
                        A[t], A[i] = A[i], A[t]
                        done = False
            for j in range(t + 1, n):
                while A[t][j]:
                    q = A[t][j] // A[t][t]
                    for r in A:
                        r[j] -= q * r[t]
                    if A[t][j]:
                        for r in A:
                            r[t], r[j] = r[j], r[t]
                        done = False
            if done:
                break
        out.append(abs(A[t][t]))
        t += 1
    out = [d for d in out if d]
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            a, b = out[i], out[i + 1]
            if b % a:
                out[i], out[i + 1] = math.gcd(a, b), a * b // math.gcd(a, b)
                changed = True
    return tuple(out)


def naive_satisfies(X, w):
    for ys in itertools.product(range(X.order), repeat=w.letters):
        for x in range(X.order):
            z = x
            for t in w.tau:
                z = X.rows[z][ys[t]]
            if z != x:
                return False
    return True


def rank_fraction_free(mat):
    """Rational rank by fraction-free elimination (independent of SNF)."""
    A = [list(map(int, row)) for row in mat]
    m = len(A)
    n = len(A[0]) if m else 0
    rank = 0
    row = 0
    for col in range(n):
        piv = next((i for i in range(row, m) if A[i][col]), None)
        if piv is None:
            continue
        A[row], A[piv] = A[piv], A[row]
        for i in range(row + 1, m):
            if A[i][col]:
                f = A[i][col]
                g = A[row][col]
                d = math.gcd(f, g)
                fa, fb = g // d, f // d
                A[i] = [fa * a - fb * b for a, b in zip(A[i], A[row])]
        row += 1
        rank += 1
        if row == m:
            break
    return rank


def kernel_basis(mat):
    """Basis of the integer kernel {v : M v = 0} (a saturated lattice): the
    last columns of V in the library's Smith form U M V = D."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    if n == 0:
        return []
    snf = smith_normal_form(mat, with_transforms=True)
    r = snf.rank
    V = snf.V
    return [[V[i][j] for i in range(n)] for j in range(r, n)]


def lattice_from_rows(rows, dim):
    lat = IntLattice(dim)
    for row in rows:
        lat.add(row)
    return lat
