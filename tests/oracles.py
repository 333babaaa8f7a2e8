"""Oracles and test-only algebra shared by the unit and acceptance suites.

Most of these deliberately avoid the library's own elimination and scanning
code paths: pivot-anywhere elimination for invariant factors, fraction-free
elimination for rational ranks, and plain nested loops over every
assignment for word satisfaction and mediality.  kernel_basis is the
exception: it reads the kernel off the library's own Smith form with
transforms, so it is a second route to an answer built on that elimination,
not an independent oracle.  lattice_from_rows is a shorthand for filling the
library's IntLattice with dense rows, sparse turns a dense vector into the
{index: value} map the lattice takes, sparse_rows turns a dense matrix into
the sparse rows and column count the Smith form takes, and relabelled
renames a table's elements.  naive_inner_group closes over every distinct
right translation by a plain loop, not over a generating set's.
loop_boundary_matrix builds a tuple complex's boundary matrix tuple by
tuple from boundary_of_tuple, where the library gathers whole face arrays;
loop_identity_generators builds identity-subcomplex generators by a plain
loop, where the library gathers whole arrays of term indices.
word_permutation_holds is the translation-composite form of a word
identity.

The identity-cycle oracles build each assignment's 2-chain by a plain loop
over the word and pair it with a cocycle (evaluate_cocycle) or take its
boundary one assignment at a time, in the full scan order; the inheritance
count reads |Hom(C_2 / relations, Z_d)| off pivot-anywhere invariant factors.
"""

import itertools
import math

from quandlehom.chains import (FormalChain, boundary, boundary_of_tuple,
                               tuple_index)
from quandlehom.core import Permutation, make_table, translate
from quandlehom.errors import SubcomplexClosureViolated
from quandlehom.homology import BoundaryMatrix, evaluate_cocycle
from quandlehom.identities import Assignment
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


def full_order_scan(X, w):
    """Plain-loop x*w = x over every assignment in the library's report
    order, letter tuples lexicographic with x fastest: (satisfied, first
    violation as (x, ys) or None, its 1-based position or n^(m+1))."""
    checked = 0
    for ys in itertools.product(range(X.order), repeat=w.letters):
        for x in range(X.order):
            checked += 1
            z = x
            for t in w.tau:
                z = X.rows[z][ys[t]]
            if z != x:
                return False, (x, ys), checked
    return True, None, checked


def naive_satisfies(X, w):
    return full_order_scan(X, w)[0]


def naive_is_medial(X):
    """(x*y)*(u*v) == (x*u)*(y*v) over all n^4 quadruples."""
    T = X.rows
    n = range(X.order)
    return all(T[T[x][y]][T[u][v]] == T[T[x][u]][T[y][v]]
               for x in n for y in n for u in n for v in n)


def naive_inner_group(X):
    """Inn(X) by a plain breadth-first closure over every distinct right
    translation: the sorted image tuples of its elements."""
    n = X.order
    gens = {tuple(X.rows[x][y] for x in range(n)) for y in range(n)}
    seen = {tuple(range(n))}
    frontier = list(seen)
    while frontier:
        fresh = []
        for p in frontier:
            for g in gens:
                q = tuple(g[i] for i in p)
                if q not in seen:
                    seen.add(q)
                    fresh.append(q)
        frontier = fresh
    return sorted(seen)


def naive_group_exponent(elements):
    """lcm of the element orders, each the lcm of its cycle lengths found by
    walking every cycle once."""
    out = 1
    for p in elements:
        seen = [False] * len(p)
        for s in range(len(p)):
            length, x = 0, s
            while not seen[x]:
                seen[x] = True
                x = p[x]
                length += 1
            if length:
                out = math.lcm(out, length)
    return out


def relabelled(X, perm):
    """The rack with every element x renamed perm[x]."""
    n = X.order
    rows = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            rows[perm[x]][perm[y]] = perm[X.rows[x][y]]
    return make_table(rows, require="rack")


def loop_boundary_matrix(X, complex, degree):
    """The rack, quandle or degenerate boundary matrix, one column tuple at
    a time: each term of boundary_of_tuple goes to the row of its face.  A
    degenerate column with a face outside the degenerate tuples raises
    SubcomplexClosureViolated; a quandle face that is degenerate is
    projected out."""
    n = X.order
    basis = {
        "rack": lambda d: list(itertools.product(range(n), repeat=d)),
        "quandle": lambda d: [t for t in itertools.product(range(n), repeat=d)
                              if all(t[i] != t[i + 1] for i in range(d - 1))],
        "degenerate": lambda d: [
            t for t in itertools.product(range(n), repeat=d)
            if any(t[i] == t[i + 1] for i in range(d - 1))],
    }[complex]
    cols, rows = basis(degree), basis(degree - 1)
    row_index = {t: i for i, t in enumerate(rows)}
    mat = [{} for _ in rows]
    for j, tup in enumerate(cols):
        for t, c in boundary_of_tuple(X, tup).items():
            if t in row_index:
                mat[row_index[t]][j] = c
            elif complex == "degenerate":
                raise SubcomplexClosureViolated(FormalChain(degree, {tup: 1}))
            elif complex == "rack":
                raise AssertionError("boundary left the tuple basis")
    return BoundaryMatrix(complex=complex, degree=degree,
                          sparse_rows=tuple(mat),
                          row_basis=tuple(rows), col_basis=tuple(cols))


def loop_identity_generators(X, word, degree, include_first_slot=False):
    """Identity-subcomplex generators by a plain triple loop over the slot
    j, the other entries xs and the letter values ys, each chain built term
    by term and kept unless an equal chain came earlier: (chains,
    provenance) in that order."""
    n = X.order
    rows = X.rows
    seen = set()
    chains, prov = [], []
    for j in range(0 if include_first_slot else 1, degree):
        for xs in itertools.product(range(n), repeat=degree - 1):
            left, right = xs[:j], xs[j:]
            for ys in itertools.product(range(n), repeat=word.letters):
                terms = {}
                cur = list(left)
                tup = tuple(cur) + (ys[word.tau[0]],) + right
                terms[tup] = terms.get(tup, 0) + 1
                for i in range(1, word.length):
                    yv = ys[word.tau[i - 1]]
                    cur = [rows[v][yv] for v in cur]
                    tup = tuple(cur) + (ys[word.tau[i]],) + right
                    terms[tup] = terms.get(tup, 0) + 1
                chain = FormalChain(degree, terms)
                key = frozenset(chain.terms.items())
                if key not in seen:
                    seen.add(key)
                    chains.append(chain)
                    prov.append((j, xs, ys))
    return chains, prov


def word_permutation_holds(X, w, ys):
    """Equivalent formulation of x*w = x for one letter tuple: the
    composite of the right translations along the word is the identity
    permutation."""
    comp = Permutation.identity(X.order)
    for t in w.tau:
        comp = translate(X, ys[t]) * comp
    return comp.is_identity


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
    snf = smith_normal_form(*sparse_rows(mat), with_transforms=True)
    r = snf.rank
    V = snf.V
    return [[V[i][j] for i in range(n)] for j in range(r, n)]


def sparse(vec):
    return {j: v for j, v in enumerate(vec) if v}


def sparse_rows(mat):
    return [sparse(row) for row in mat], len(mat[0]) if mat else 0


def lattice_from_rows(rows, dim):
    lat = IntLattice(dim)
    for row in rows:
        lat.add(sparse(row))
    return lat


def naive_identity_cycle(X, w, x, ys):
    """Term map of the 2-chain sum_i (x*w_1...w_i, y_tau(i+1)), built by a
    plain loop over the word."""
    terms = {}
    cur = x
    for t in w.tau:
        terms[(cur, ys[t])] = terms.get((cur, ys[t]), 0) + 1
        cur = X.rows[cur][ys[t]]
    return terms


def _assignments(X, w):
    """(x, ys) in the full scan order: letter tuples lexicographic, x
    fastest."""
    for ys in itertools.product(range(X.order), repeat=w.letters):
        for x in range(X.order):
            yield x, ys


def loop_first_nonzero_pairing(X, phi, w):
    """First assignment whose identity chain pairs nonzero with phi, or
    None."""
    for x, ys in _assignments(X, w):
        chain = FormalChain(2, naive_identity_cycle(X, w, x, ys))
        if evaluate_cocycle(phi, chain) != 0:
            return Assignment(x, ys)
    return None


def loop_cycle_failures(X, w):
    """Every assignment whose identity chain has a nonzero boundary."""
    return [Assignment(x, ys) for x, ys in _assignments(X, w)
            if not boundary(X, FormalChain(
                2, naive_identity_cycle(X, w, x, ys))).is_zero()]


def inheritance_count(X, d, mode, w):
    """|Hom(C_2 / (im d_3 + <identity 2-cycles of w>), Z_d)|, with the
    chains (x, x) among the relations in quandle mode: by the inheritance
    theorem, the number of cocycles whose extension satisfies w."""
    n = X.order
    rows = []
    for tup in itertools.product(range(n), repeat=3):
        vec = [0] * (n * n)
        for face, coef in boundary_of_tuple(X, tup).items():
            vec[tuple_index(face, n)] += coef
        rows.append(vec)
    for x, ys in _assignments(X, w):
        vec = [0] * (n * n)
        for pair, coef in naive_identity_cycle(X, w, x, ys).items():
            vec[tuple_index(pair, n)] += coef
        rows.append(vec)
    if mode == "quandle":
        rows.extend([int(i == x * n + x) for i in range(n * n)]
                    for x in range(n))
    factors = naive_invariant_factors(rows)
    count = d ** (n * n - len(factors))
    for e in factors:
        count *= math.gcd(e, d)
    return count
