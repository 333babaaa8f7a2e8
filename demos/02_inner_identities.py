"""Inner identities x y1 y2 ... yk = x.

A word like "abab" names the identity x*a*b*a*b = x quantified over all
values of x, a, b.  Words are canonical (letters numbered by first
occurrence), and satisfaction is decided by a scan whose first letter runs
over Inn-orbit minima only; on a rack that finds the same first witness, at
the same position, as the scan over every assignment.
"""

from quandlehom import (consecutive_type_bound, enumerate_words,
                        forces_triviality, parse_word, satisfies, scan)
from quandlehom.constructions import alexander_poly, alexander_zn, dihedral

dih3 = dihedral(3)
az52 = alexander_zn(5, 2)

# ---------------------------------------------------------------------------
for text in ("aa", "abab"):
    w = parse_word(text)
    for name, X in (("dihedral(3)", dih3), ("A(5,2)", az52)):
        rep = satisfies(X, w)
        mark = "holds" if rep.satisfied else f"fails at {rep.witness}"
        print(f"x{w} = x on {name}: {mark}  ({rep.tuples_checked} tuples)")

# ---------------------------------------------------------------------------
# two exclusion rules prune the search space:
#   a letter occurring once forces the trivial quandle;
#   a consecutive run of the second letter bounds the type by a gcd
for text in ("ab", "aabb", "aaabb", "abab"):
    w = parse_word(text)
    print(f"{text}: single-occurrence letter -> {forces_triviality(w)}, "
          f"run bound -> {consecutive_type_bound(w)}")

# the length-4 candidates that survive both rules
survivors = enumerate_words(4, 2, filter="nontrivial_candidates")
print("length-4 survivors:", [w.text for w in survivors])

# ---------------------------------------------------------------------------
# scanning a corpus: which length-7 words hold on the two order-8 affine
# quandles over GF(8)?
oct_a = alexander_poly(2, (1, 0, 1, 1), (0, 1))    # t^3 + t^2 + 1
oct_b = alexander_poly(2, (1, 1, 0, 1), (0, 1))    # t^3 + t + 1
cands = enumerate_words(7, 2, filter="nontrivial_candidates")
rep = scan([oct_a, oct_b], cands, names=["t^3+t^2+1", "t^3+t+1"])
for i, name in enumerate(rep.names):
    sat = [w.text for j, w in enumerate(rep.words) if rep.matrix[i][j]]
    print(f"{name} satisfies {len(sat)} of {len(cands)} candidates: {sat}")
