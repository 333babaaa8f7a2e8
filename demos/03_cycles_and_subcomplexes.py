"""From a satisfied identity to a two-cycle and a subcomplex.

Every satisfied inner identity x*w = x attaches to each assignment the
degree-2 chain of its prefix products; its boundary telescopes to
(x) - (x*w), hence vanishes.  Shifting the same pattern through longer
tuples generates a subcomplex: boundaries of generators stay inside the
integer span one degree down.
"""

import itertools

from quandlehom import (Assignment, FormalChain, boundary, boundary_matrix,
                        format_chain, identity_cycle, in_span, make_table,
                        medial_cycle, parse_word, subcomplex_generators)
from quandlehom.constructions import alexander_zn, dihedral
from quandlehom.errors import IdempotencyFails

dih3 = dihedral(3)
aa = parse_word("aa")

# ---------------------------------------------------------------------------
L = identity_cycle(dih3, aa, Assignment(x=0, ys=(1,)))
print("cycle for x*1*1 = x at x=0:", format_chain(L))
print("its boundary:", format_chain(boundary(dih3, L)))

# an unsatisfied identity still telescopes (permissive mode)
abab = parse_word("abab")
L = identity_cycle(dih3, abab, Assignment(0, (0, 1)), permissive=True)
print("permissive boundary of an unsatisfied word:",
      format_chain(boundary(dih3, L)), " (that is (x) - (x*w))")

# medial tables have their own 4-term two-cycles
print("medial 4-term cycle boundary:",
      format_chain(boundary(dih3, medial_cycle(dih3, 0, 1, 2, 0))))

# ---------------------------------------------------------------------------
# subcomplex generators: the identity pattern shifted through tuple slots
for degree in (2, 3, 4):
    gens = subcomplex_generators(dih3, degree, word=aa)
    closed = all(
        boundary(dih3, ch).is_zero() if degree == 2 else
        in_span(boundary(dih3, ch),
                subcomplex_generators(dih3, degree - 1, word=aa))
        for ch in gens.chains)
    print(f"degree {degree}: {len(gens)} generators, span rank "
          f"{gens.lattice.rank}, boundaries stay in the span: {closed}")

gens3 = subcomplex_generators(dih3, 3, word=aa)
print("\nfirst degree-3 generator:", format_chain(gens3.chains[0]))

# a bare basis tuple is generally not in the span
gens2 = subcomplex_generators(dih3, 2, word=aa)
print("(1,2) in degree-2 span:",
      in_span(FormalChain.of((0, 1)), gens2))

# degeneracy subcomplex: the tuples with two equal adjacent entries; they
# close under the boundary exactly when x*x = x (chain_complex's docstring)
def degenerate(tup):
    return any(a == b for a, b in zip(tup, tup[1:]))


rack = make_table([[1, 1, 1], [2, 2, 2], [0, 0, 0]])      # x*y = x+1
for name, X in (("A(5,2)", alexander_zn(5, 2)), ("the rack x*y = x+1", rack)):
    tups = [t for t in itertools.product(range(X.order), repeat=3)
            if degenerate(t)]
    ok = all(degenerate(face) for t in tups
             for face in boundary(X, FormalChain.of(t)).terms)
    print(f"degenerate tuples of {name}: degree 3 has {len(tups)}, "
          f"closure: {ok}")
try:
    boundary_matrix(rack, "quandle", 2)
except IdempotencyFails as exc:
    print("so its quandle and degenerate complexes are refused:", exc)
