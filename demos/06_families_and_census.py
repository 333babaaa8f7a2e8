"""Connected-quandle families, enumeration, and the census harness.

The repeated-word family: affine quandles over Z_p[t]/((t^(mn)-1)/(t^m-1))
are connected for primes p > n and satisfy x (y1...ym)^n = x, giving
infinitely many connected quandles per repetition pattern.  Small connected
quandles are enumerated by backtracking; catalogue-scale scans run through
the CLI.
"""

import subprocess
import sys

from quandlehom import is_connected, parse_word, quandle_type, satisfies
from quandlehom.constructions import (burnside_family, enumerate_connected,
                                      repetition_polynomial)

# ---------------------------------------------------------------------------
for m, n, p in ((1, 2, 3), (2, 2, 3), (1, 3, 5)):
    X = burnside_family(m, n, p)
    word = parse_word("ab"[:m] * n) if m <= 2 else None
    print(f"family (m={m}, n={n}, p={p}): order {X.order}, "
          f"connected {is_connected(X)}, type {quandle_type(X)}, "
          f"modulus {repetition_polynomial(m, n)}")

# order 625 in about a second: the identity is verified at ring level
X = burnside_family(2, 3, 5)
print(f"family (2,3,5): order {X.order}, connected {is_connected(X)}")

# ---------------------------------------------------------------------------
print("\nconnected quandles up to isomorphism, orders 1..6:")
for order in range(1, 7):
    found = enumerate_connected(order)
    types = sorted(quandle_type(X) for X in found)
    print(f"  order {order}: {len(found)} (types {types})")

# the two non-involutory order-5 quandles satisfy x*a*b*a*b = x
abab = parse_word("abab")
for X in enumerate_connected(5):
    print(f"  order-5 member, type {quandle_type(X)}: "
          f"x*a*b*a*b = x holds -> {satisfies(X, abab).satisfied}")

# ---------------------------------------------------------------------------
# the same machinery from the command line; census targets need a dataset
# directory of catalogue matrices (see README)
print("\nCLI equivalents:")
print("  quandlehom gen burnside 2 2 3")
print("  quandlehom reproduce length7")
print("  quandlehom reproduce all --dataset path/to/catalogue")
subprocess.run([sys.executable, "-m", "quandlehom", "reproduce", "length7"],
               check=True)
