"""Exact computational algebra for finite racks and quandles.

The pipeline: validate operation tables and compute scalar invariants
(core), test inner identities x*w = x (identities), build the attached
two-cycles and identity/degeneracy subcomplexes (chains), compute integer
homology with exact Smith forms, and 2-cocycle spaces as Hom(coker d_3, Z_d),
their orders read off H_2 and their generators off the unit-pivot
elimination of the rack or quandle boundary d_3 (homology, linalg), form
abelian extensions and check that they inherit identities exactly when the
cocycle kills the two-cycles (extensions), and construct standard families
plus enumerate small connected quandles (constructions).  File ingestion, the CLI, and the
census harness live in shell, which is imported on first use of one of its
names here, so that `python -m quandlehom.shell` runs it fresh.
"""

from .core import (
    InvariantReport,
    Permutation,
    PermutationGroup,
    QuandleTable,
    group_exponent,
    inner_group,
    inner_representation,
    invariants,
    is_connected,
    is_faithful,
    is_medial,
    make_table,
    orbit,
    product,
    quandle_type,
    translate,
    validate,
)
from .identities import (
    Assignment,
    SatisfactionReport,
    Word,
    consecutive_type_bound,
    enumerate_words,
    forces_triviality,
    parse_word,
    satisfies,
    satisfies_all,
    scan,
    two_letter_universe,
)
from .chains import (
    FormalChain,
    GeneratorSet,
    boundary,
    face,
    format_chain,
    identity_cycle,
    in_span,
    medial_cycle,
    subcomplex_generators,
)
from .linalg import IntLattice, SmithForm, smith_normal_form
from .homology import (
    BoundaryMatrix,
    ChainComplex,
    CocycleSpace,
    CocycleTable,
    HomologyGroup,
    boundary_matrix,
    chain_complex,
    coboundary,
    cocycle_condition_holds,
    cocycle_orders,
    cocycle_space,
    evaluate_cocycle,
    homology,
)
from .extensions import (
    ExtensionIdentityReport,
    ExtensionSpec,
    check_extension_identity,
    extend,
    extension_type_survey,
)
from .constructions import (
    PolyRing,
    alexander_poly,
    alexander_zn,
    are_isomorphic,
    burnside_family,
    canonical_form,
    conjugation,
    dihedral,
    enumerate_connected,
    generalized_alexander,
    make,
    trivial,
)

__version__ = "0.1.0"

_SHELL_NAMES = ("cli", "corpus", "emit", "load", "load_dataset", "loads",
                "save")


def __getattr__(name):
    if name in _SHELL_NAMES:
        from . import shell
        return getattr(shell, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
