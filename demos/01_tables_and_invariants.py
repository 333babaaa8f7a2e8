"""Finite quandle tables and their scalar invariants.

A quandle is a set with a self-distributive operation whose right
translations x -> x*y are permutations and whose elements are idempotent.
Everything here works on explicit n x n operation tables with 0-based
elements internally and 1-based matrices on disk.
"""

from quandlehom import (inner_group, group_exponent, inner_representation,
                        invariants, translate, product, validate)
from quandlehom.constructions import alexander_zn, dihedral, trivial

# ---------------------------------------------------------------------------
# the dihedral quandle on 3 elements: x*y = 2y - x mod 3
dih3 = dihedral(3)
print("dihedral(3) table:", dih3.rows)

report = invariants(dih3)
print("invariants:", report.as_dict())

# right translations are the table columns
print("R_0 =", translate(dih3, 0).cycle_string())

# left-associated products x*y1*y2*...
print("0 * [1,1] =", product(dih3, 0, [1, 1]), "(an involution: type 2)")

# ---------------------------------------------------------------------------
# validation: the report records the first axiom violation
broken = [[0, 0, 1], [2, 1, 0], [1, 0, 2]]
rep = validate(broken)
print("\nbroken table is_rack:", rep.is_rack, "| violation:", rep.violation)

# ---------------------------------------------------------------------------
# the translation group: closure of all columns under composition
az = alexander_zn(5, 2)           # x*y = 2x - y mod 5
G = inner_group(az)
print("\naffine quandle over Z_5, t=2:")
print("  |Inn| =", G.order, " exponent =", group_exponent(G))
print("  connected:", invariants(az).is_connected, " type:", invariants(az).type)

# ---------------------------------------------------------------------------
# the translation image: quotient by equal columns
az4 = alexander_zn(4, 3)          # not faithful: columns repeat
img, mapping = inner_representation(az4)
print("\nAlexander Z_4 (t=3) has", az4.order, "elements but only",
      img.order, "distinct translations; index map:", mapping)

trivial4 = trivial(4)
print("trivial(4) satisfies every identity; Inn order:",
      inner_group(trivial4).order)
