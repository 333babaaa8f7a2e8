"""Abelian extensions of a table by a cyclic group through a 2-cocycle, the
machine check that an extension inherits an inner identity exactly when the
cocycle kills the attached 2-cycles, and the type-preservation survey.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .chains import prefix_products
from .core import QuandleTable, inner_representation, is_connected, \
    quandle_type
from .errors import BaseDoesNotSatisfy, InvalidCocycle
from .homology import CocycleTable, cocycle_condition_holds
from .identities import Assignment, Word, satisfies, satisfies_cached


@dataclass(frozen=True)
class ExtensionSpec:
    """Base table, cyclic modulus, and the cocycle defining the extension."""

    base: QuandleTable
    modulus: int
    cocycle: CocycleTable

    def __post_init__(self):
        if self.modulus < 2:
            raise InvalidCocycle("modulus must be >= 2")
        if self.cocycle.modulus != self.modulus:
            raise InvalidCocycle("cocycle modulus does not match the spec")
        n = self.base.order
        if self.cocycle.order != n or any(len(row) != n
                                          for row in self.cocycle.values):
            raise InvalidCocycle(
                f"cocycle must be {n}x{n}, the size of the base table")
        if not cocycle_condition_holds(self.base, self.cocycle, mode="rack"):
            raise InvalidCocycle("cocycle condition fails on the base table")


def pair_index(x: int, a: int, modulus: int) -> int:
    """(x, a) -> x*d + a, the documented element order of extensions."""
    return x * modulus + a


def extend(spec: ExtensionSpec) -> QuandleTable:
    """Table on base x Z_d with (x,a)*(y,b) = (x*y, a + phi(x,y)).

    The rack axioms are not re-checked: ``ExtensionSpec`` checks the rack
    2-cocycle condition in O(n^3), and it is equivalent to the extension
    being a rack (Carter, Jelsovsky, Kamada, Langford & Saito, Trans. AMS 355
    (2003); Carter, Elhamdadi, Nikiforou & Saito, JKTR 12 (2003)).  The
    result is a quandle exactly when the base is one and phi's diagonal
    vanishes.
    """
    n = spec.base.order
    d = spec.modulus
    phi = np.array(spec.cocycle.values, dtype=np.int64)
    a = np.arange(d, dtype=np.int64)[None, :, None]
    # block[x, a, y] = (x*y, a + phi(x,y)); the column repeats over b
    block = spec.base.np_table[:, None, :] * d + (a + phi[:, None, :]) % d
    big = np.repeat(block, d, axis=2).reshape(n * d, n * d)
    return QuandleTable(big, _validated=True)


@dataclass(frozen=True)
class ExtensionIdentityReport:
    """Both sides of the inheritance equivalence for one extension and word."""

    word: Word
    extension_satisfies: bool
    cocycle_vanishes: bool
    failing_assignment: Optional[Assignment]
    nonzero_value_at: Optional[Assignment]

    @property
    def agree(self) -> bool:
        return self.extension_satisfies == self.cocycle_vanishes


def check_extension_identity(spec: ExtensionSpec, w: Word) -> ExtensionIdentityReport:
    """Compare satisfaction of x*w = x on the extension against vanishing of
    the cocycle on every attached 2-cycle of the base; the two must agree.
    phi[P_i, y_tau(i)] is summed mod d over the terms of each assignment's
    cycle, a block of assignments at a time (``prefix_products``); the first
    nonzero sum in the full scan order is ``nonzero_value_at``."""
    X = spec.base
    if not satisfies_cached(X, w):
        raise BaseDoesNotSatisfy(w)
    rep = satisfies(extend(spec), w)
    phi = np.array(spec.cocycle.values, dtype=np.int64)
    nonzero_at = None
    for ys, P in prefix_products(X, w):
        pairing = phi[P, ys[:, w.tau].T].sum(axis=0) % spec.modulus
        hit = np.flatnonzero(pairing)
        if hit.size:
            r = hit[0]
            nonzero_at = Assignment(int(P[0, r]), tuple(ys[r].tolist()))
            break
    return ExtensionIdentityReport(
        word=w,
        extension_satisfies=rep.satisfied,
        cocycle_vanishes=nonzero_at is None,
        failing_assignment=rep.witness,
        nonzero_value_at=nonzero_at,
    )


@dataclass(frozen=True)
class TypeSurveyRow:
    label: str
    extension_connected: Optional[bool]
    type_base: int
    type_other: int
    match: bool


@dataclass(frozen=True)
class TypeSurveyReport:
    """Observed type comparisons; reported, never asserted."""

    connected_rows: tuple[TypeSurveyRow, ...]
    skipped_rows: tuple[TypeSurveyRow, ...]     # non-connected extensions
    inner_row: TypeSurveyRow

    @property
    def mismatches(self) -> list[TypeSurveyRow]:
        out = [r for r in self.connected_rows if not r.match]
        if not self.inner_row.match:
            out.append(self.inner_row)
        return out


def extension_type_survey(X: QuandleTable,
                          specs: Sequence[ExtensionSpec]) -> TypeSurveyReport:
    """type(E) vs type(X) for each connected extension, plus type(X) vs the
    type of the translation-image quandle."""
    t_base = quandle_type(X)
    connected_rows = []
    skipped = []
    for idx, spec in enumerate(specs):
        if spec.base != X:
            raise ValueError("survey specs must extend the surveyed table")
        E = extend(spec)
        conn = is_connected(E)
        t_ext = quandle_type(E)
        row = TypeSurveyRow(
            label=f"extension[{idx}] d={spec.modulus}",
            extension_connected=conn,
            type_base=t_base,
            type_other=t_ext,
            match=t_ext == t_base,
        )
        (connected_rows if conn else skipped).append(row)
    img, _ = inner_representation(X)
    t_img = quandle_type(img)
    inner_row = TypeSurveyRow(
        label="translation image",
        extension_connected=None,
        type_base=t_base,
        type_other=t_img,
        match=t_img == t_base,
    )
    return TypeSurveyReport(connected_rows=tuple(connected_rows),
                            skipped_rows=tuple(skipped),
                            inner_row=inner_row)
