"""Integer homology of the four chain-complex flavors.

Boundary matrices are exact integer matrices; homology groups come from
Smith normal forms (free rank plus a divisibility chain of torsion
factors).  The identity subcomplex is computed in lattice coordinates of
the generated span, so its torsion is preserved exactly.
"""

from quandlehom import (boundary_matrix, homology, parse_word,
                        smith_normal_form)
from quandlehom.constructions import alexander_poly, alexander_zn, dihedral, \
    trivial

dih3 = dihedral(3)

# ---------------------------------------------------------------------------
bm = boundary_matrix(dih3, "rack", 2)
print(f"rack boundary at degree 2: {bm.shape[0]} x {bm.shape[1]} matrix")
snf = smith_normal_form(bm.sparse_rows, bm.shape[1])
print("its invariant factors:", snf.invariant_factors)

# ---------------------------------------------------------------------------
print("\nhomology of small quandles:")
for name, X in (("trivial(1)", trivial(1)),
                ("dihedral(3)", dih3),
                ("A(5,2)", alexander_zn(5, 2)),
                ("GF(4) affine", alexander_poly(2, (1, 1, 1), (0, 1)))):
    h1 = homology(X, "rack", 1)
    h2r = homology(X, "rack", 2)
    h2q = homology(X, "quandle", 2)
    print(f"  {name:14s} H1(rack) = {h1}   H2(rack) = {h2r}   "
          f"H2(quandle) = {h2q}")

# ---------------------------------------------------------------------------
# the identity subcomplex of the kei identity on dihedral(3)
aa = parse_word("aa")
for degree in (2, 3):
    h = homology(dih3, "identity", degree, word=aa)
    print(f"H_{degree} of the x*a*a = x subcomplex on dihedral(3): {h}")

# degeneracy subcomplex
h = homology(dih3, "degenerate", 2)
print("H_2 of the degeneracy subcomplex on dihedral(3):", h)

# ---------------------------------------------------------------------------
# the Smith form of a small matrix, from sparse rows and a column count
mat = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
rows = [{j: v for j, v in enumerate(row) if v} for row in mat]
s = smith_normal_form(rows, 3)
print("\nSNF of", mat, "->", s.invariant_factors)
