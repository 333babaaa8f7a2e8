"""Two-cocycles, abelian extensions, and identity inheritance.

A 2-cocycle with values in Z_d twists the product table on X x Z_d into a
new quandle.  The extension satisfies an inner identity exactly when the
cocycle vanishes on every attached two-cycle of the base; both sides of
that equivalence are computed here and must agree.
"""

from quandlehom import (Assignment, ExtensionSpec, check_extension_identity,
                        cocycle_orders, cocycle_space, evaluate_cocycle,
                        extend, extension_type_survey, homology,
                        identity_cycle, parse_word)
from quandlehom.constructions import alexander_zn, dihedral

dih3 = dihedral(3)
aa = parse_word("aa")

# ---------------------------------------------------------------------------
# the orders for every d come off one H_2 (universal coefficients); the
# generators come from the left-kernel route of cocycle_space
print(f"quandle H_2 of dihedral(3): {homology(dih3, 'quandle', 2)}")
for d in range(2, 10):
    orders = cocycle_orders(dih3, d, mode="quandle")
    assert orders == cocycle_space(dih3, d, mode="quandle").orders
    print(f"  mod {d}: cocycle orders {orders}")

space = cocycle_space(dih3, 3, mode="quandle")
print(f"quandle 2-cocycles of dihedral(3) mod 3: {space.size} "
      f"(generators with orders {space.orders})")

for i, phi in enumerate(space.members()):
    values = {evaluate_cocycle(phi, identity_cycle(dih3, aa, Assignment(x, (y,))))
              for x in range(3) for y in range(3)}
    E = extend(ExtensionSpec(dih3, 3, phi))
    rep = check_extension_identity(ExtensionSpec(dih3, 3, phi), aa)
    assert rep.agree
    print(f"  member {i}: values on kei cycles {sorted(values)}, "
          f"extension order {E.order} satisfies x*a*a=x: "
          f"{rep.extension_satisfies}")

# every member vanishes on the cycles here, so every extension stays a kei;
# the space is identity-preserving for this base and identity

# ---------------------------------------------------------------------------
# the type survey: type(extension) vs type(base) for connected extensions,
# and type(base) vs the type of the translation image
survey = extension_type_survey(
    dih3, [ExtensionSpec(dih3, 3, m) for m in space.members()])
print(f"\nconnected extensions: {len(survey.connected_rows)}, "
      f"skipped (non-connected): {len(survey.skipped_rows)}")
print("translation-image comparison:", survey.inner_row)

az4 = alexander_zn(4, 3)        # not faithful, not connected
survey = extension_type_survey(az4, [])
row = survey.inner_row
print(f"A(4,3): type {row.type_base} vs image type {row.type_other} "
      f"-> match: {row.match}  (reported, never asserted)")
