"""Oracles and test-only algebra shared by the unit and acceptance suites.

Most of these deliberately avoid the library's own elimination and scanning
code paths: pivot-anywhere elimination for invariant factors, fraction-free
elimination for rational ranks, and plain nested loops over every
assignment for word satisfaction and mediality.  transform_smith is the
reference Smith form with both transforms, U M V = D, by minimal-pivot
elimination on the whole dense matrix; its check() verifies them with
det_bareiss and mat_mul.  kernel_basis reads the kernel off its V, and
lattice_cocycle_space reads the cocycles off the V of the Smith form of
the image lattice of the rack d_3, a second route beside the library's
left kernel of d_3.  lattice_from_rows is a shorthand for filling the
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
from dataclasses import dataclass
from typing import Sequence

from quandlehom.chains import (FormalChain, boundary, boundary_of_tuple,
                               tuple_index)
from quandlehom.core import Permutation, make_table, translate
from quandlehom.errors import SubcomplexClosureViolated
from quandlehom.homology import (BoundaryMatrix, CocycleSpace, CocycleTable,
                                 boundary_matrix, evaluate_cocycle)
from quandlehom.identities import Assignment
from quandlehom.linalg import IntLattice, Matrix, identity_matrix


def zeros_matrix(m: int, n: int) -> Matrix:
    return [[0] * n for _ in range(m)]


def copy_matrix(mat: Sequence[Sequence[int]]) -> Matrix:
    return [list(map(int, row)) for row in mat]


def transpose(mat: Sequence[Sequence[int]]) -> Matrix:
    return [list(col) for col in zip(*mat)] if mat else []


def mat_mul(A: Sequence[Sequence[int]], B: Sequence[Sequence[int]]) -> Matrix:
    Bt = transpose(B)
    return [[sum(a * b for a, b in zip(row, col)) for col in Bt] for row in A]


def det_bareiss(mat: Sequence[Sequence[int]]) -> int:
    """Fraction-free determinant; exact for integer matrices."""
    A = copy_matrix(mat)
    n = len(A)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for i in range(k + 1, n):
                if A[i][k]:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


@dataclass(frozen=True)
class TransformSmith:
    """U @ M @ V = D with D diagonal and d1 | d2 | ... ; U, V unimodular."""

    shape: tuple[int, int]
    invariant_factors: tuple[int, ...]     # the nonzero diagonal, in chain order
    U: Matrix
    V: Matrix

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    def diagonal_matrix(self) -> Matrix:
        m, n = self.shape
        D = zeros_matrix(m, n)
        for i, d in enumerate(self.invariant_factors):
            D[i][i] = d
        return D

    def check(self, mat: Sequence[Sequence[int]]) -> bool:
        """Exact verification: reconstruction, divisibility, unimodularity."""
        facs = self.invariant_factors
        for a, b in zip(facs, facs[1:]):
            if a <= 0 or b % a:
                return False
        if abs(det_bareiss(self.U)) != 1 or abs(det_bareiss(self.V)) != 1:
            return False
        return mat_mul(mat_mul(self.U, copy_matrix(mat)), self.V) == \
            self.diagonal_matrix()


def transform_smith(mat: Sequence[Sequence[int]]) -> TransformSmith:
    """The Smith form U M V = D of a dense matrix with both transforms, by
    the deterministic minimal-pivot elimination on the whole matrix."""
    A = copy_matrix(mat)
    m = len(A)
    n = len(A[0]) if m else 0
    U = identity_matrix(m)
    V = identity_matrix(n)

    def row_sub(i, k, q):          # row_i -= q * row_k
        A[i] = [a - q * b for a, b in zip(A[i], A[k])]
        U[i] = [a - q * b for a, b in zip(U[i], U[k])]

    def col_sub(j, k, q):          # col_j -= q * col_k
        for row in A:
            row[j] -= q * row[k]
        for row in V:
            row[j] -= q * row[k]

    def row_swap(i, k):
        if i != k:
            A[i], A[k] = A[k], A[i]
            U[i], U[k] = U[k], U[i]

    def col_swap(j, k):
        if j != k:
            for row in A:
                row[j], row[k] = row[k], row[j]
            for row in V:
                row[j], row[k] = row[k], row[j]

    def row_negate(i):
        A[i] = [-a for a in A[i]]
        U[i] = [-a for a in U[i]]

    def find_pivot(t):
        best = None
        where = None
        for i in range(t, m):
            row = A[i]
            for j in range(t, n):
                v = abs(row[j])
                if v and (best is None or v < best):
                    best, where = v, (i, j)
                    if v == 1:
                        return where
        return where

    t = 0
    while t < min(m, n):
        if find_pivot(t) is None:
            break
        while True:
            # always restart from the smallest entry: remainders produced by
            # the reductions below become the next pivot, which keeps the
            # classical coefficient explosion in check
            i, j = find_pivot(t)
            row_swap(t, i)
            col_swap(t, j)
            if A[t][t] < 0:
                row_negate(t)
            d = A[t][t]
            dirty = False
            for i2 in range(t + 1, m):
                if A[i2][t]:
                    q = A[i2][t] // d
                    row_sub(i2, t, q)
                    if A[i2][t]:
                        dirty = True
            for j2 in range(t + 1, n):
                if A[t][j2]:
                    q = A[t][j2] // d
                    col_sub(j2, t, q)
                    if A[t][j2]:
                        dirty = True
            if dirty:
                continue
            # divisibility sweep into the trailing block
            offender = None
            for i2 in range(t + 1, m):
                row = A[i2]
                for j2 in range(t + 1, n):
                    if row[j2] % d:
                        offender = i2
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_sub(t, offender, -1)   # add the offending row to the pivot row
        t += 1
    facs = tuple(A[i][i] for i in range(min(m, n)) if A[i][i])
    return TransformSmith(shape=(m, n), invariant_factors=facs, U=U, V=V)



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
    last columns of V in the reference Smith form U M V = D."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    if n == 0:
        return []
    snf = transform_smith(mat)
    r = snf.rank
    V = snf.V
    return [[V[i][j] for i in range(n)] for j in range(r, n)]


def lattice_cocycle_space(X, modulus, mode):
    """All Z_d-valued 2-cocycles by the image-lattice route: the columns of
    the rack d_3, plus the chains (x, x) in quandle mode, go into an
    IntLattice, and the reference Smith form U B V = D of its basis gives
    the columns of V scaled by d / gcd(f_i, d) over the invariant factors
    f_i, and the remaining columns of V at full order d."""
    n = X.order
    unknowns = n * n
    image = IntLattice(unknowns)
    d3 = boundary_matrix(X, "rack", 3)
    columns = [{} for _ in d3.col_basis]
    for i, row in enumerate(d3.sparse_rows):
        for j, c in row.items():
            columns[j][i] = c
    for col in columns:
        image.add(col)
    if mode == "quandle":
        for x in range(n):
            image.add({x * n + x: 1})
    # a zero row keeps the n^2 columns of an empty basis
    snf = transform_smith([[row.get(j, 0) for j in range(unknowns)]
                           for row in image.sparse_basis()] or
                          [[0] * unknowns])
    V = snf.V
    gens = []
    orders = []
    for i in range(unknowns):
        order = math.gcd(snf.invariant_factors[i], modulus) \
            if i < snf.rank else modulus
        if order == 1:
            continue
        scale = modulus // order
        col = [V[r][i] * scale % modulus for r in range(unknowns)]
        gens.append(CocycleTable(modulus=modulus, values=tuple(
            tuple(col[x * n + y] for y in range(n)) for x in range(n))))
        orders.append(order)
    return CocycleSpace(base_order=n, modulus=modulus, mode=mode,
                        generators=tuple(gens), orders=tuple(orders),
                        size=math.prod(orders))


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
