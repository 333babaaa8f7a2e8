import itertools

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (inheritance_count, loop_cycle_failures,
                     loop_first_nonzero_pairing, naive_identity_cycle,
                     relabelled)
from quandlehom.chains import identity_cycle, identity_cycle_failures
from quandlehom.core import is_medial, make_table, quandle_type
from quandlehom.extensions import (ExtensionSpec, check_extension_identity,
                                   extend, extension_type_survey, pair_index)
from quandlehom.homology import CocycleTable, cocycle_space
from quandlehom.identities import Assignment, Word, parse_word, satisfies, \
    two_letter_universe
from quandlehom.constructions import (alexander_poly, alexander_zn, dihedral,
                                      trivial)
from quandlehom.errors import (BaseDoesNotSatisfy, IdempotencyFails,
                               InvalidCocycle)
from quandlehom.shell import corpus

NON_QUANDLE_RACK = make_table([[1, 1, 1], [0, 0, 0], [2, 2, 2]])
MODES = ("rack", "quandle")


def zero_cocycle(n, d):
    return CocycleTable(modulus=d, values=tuple((0,) * n for _ in range(n)))


def test_extend_zero_is_direct_product(dih3):
    spec = ExtensionSpec(dih3, 3, zero_cocycle(3, 3))
    E = extend(spec)
    assert E.order == 9 and E.is_quandle
    assert quandle_type(E) == quandle_type(dih3)
    for xa in range(9):
        for yb in range(9):
            assert E.rows[xa][yb] // 3 == dih3.rows[xa // 3][yb // 3]   # projection
            assert E.rows[xa][yb] % 3 == xa % 3                         # fiber fixed


def test_extend_zero_isomorphic_to_product(dih3):
    E = extend(ExtensionSpec(dih3, 2, zero_cocycle(3, 2)))
    T = trivial(2)
    prod_rows = [[dih3.rows[x][y] * 2 + T.rows[a][b]
                  for y in range(3) for b in range(2)]
                 for x in range(3) for a in range(2)]
    from quandlehom.core import make_table
    P = make_table(prod_rows, require="quandle")
    assert E.rows == P.rows


def test_extend_quandle_cocycles_give_quandles(dih3):
    sp = cocycle_space(dih3, 3, mode="quandle")
    for member in sp.members():
        E = extend(ExtensionSpec(dih3, 3, member))
        assert E.is_quandle and E.order == 9
        # the first-coordinate projection is a homomorphism for every cocycle
        for xa in range(9):
            for yb in range(9):
                assert E.rows[xa][yb] // 3 == dih3.rows[xa // 3][yb // 3]


def test_extend_nonzero_diagonal_breaks_idempotency(dih3):
    const1 = CocycleTable(modulus=3, values=((1,) * 3,) * 3)
    E = extend(ExtensionSpec(dih3, 3, const1))
    assert not E.is_quandle
    idx = pair_index(0, 0, 3)
    assert E.rows[idx][idx] == pair_index(0, 1, 3)


def test_extension_spec_validation(dih3):
    with pytest.raises(InvalidCocycle):
        ExtensionSpec(dih3, 3, zero_cocycle(3, 2))      # modulus mismatch
    with pytest.raises(InvalidCocycle):
        ExtensionSpec(dih3, 3, zero_cocycle(4, 3))      # size mismatch
    bad = CocycleTable(modulus=3, values=((0, 1, 0), (0, 0, 0), (0, 0, 0)))
    with pytest.raises(InvalidCocycle):
        ExtensionSpec(dih3, 3, bad)                     # not a cocycle


@pytest.mark.parametrize("values", [
    ((0, 0), (0, 0), (0, 0)),                           # 3x2
    ((0, 0, 0, 0),) * 3,                                # 3x4
    ((0, 0, 0), (0, 0), (0, 0, 0)),                     # ragged
])
def test_extension_spec_rejects_non_square_cocycles(dih3, values):
    with pytest.raises(InvalidCocycle, match="3x3"):
        ExtensionSpec(dih3, 3, CocycleTable(modulus=3, values=values))


@pytest.mark.parametrize("X, d", [
    (dihedral(3), 3), (alexander_poly(2, (1, 1, 1), (0, 1)), 2),
    (trivial(2), 2), (NON_QUANDLE_RACK, 2),
], ids=["R3", "S4", "T2", "rack3"])
def test_extension_by_a_cocycle_is_a_rack(X, d):
    """The rack cocycle condition is equivalent to the extension being a
    rack, so extend builds no axiom check; the full one runs here, on every
    member of both cocycle spaces of a quandle and of the rack space of a
    rack, whose quandle space raises."""
    for mode in MODES:
        if mode == "quandle" and not X.is_quandle:
            with pytest.raises(IdempotencyFails):
                cocycle_space(X, d, mode=mode)
            continue
        for member in cocycle_space(X, d, mode=mode).members():
            E = extend(ExtensionSpec(X, d, member))
            assert make_table(E.rows, require="rack") == E
            quandle = X.is_quandle and member.diagonal_vanishes()
            assert E.is_quandle == quandle
            if quandle:
                make_table(E.rows, require="quandle")
            else:
                with pytest.raises(IdempotencyFails):
                    make_table(E.rows, require="quandle")


def test_check_extension_identity_agreement(dih3):
    aa = parse_word("aa")
    sp = cocycle_space(dih3, 3, mode="quandle")
    for member in sp.members():
        rep = check_extension_identity(ExtensionSpec(dih3, 3, member), aa)
        assert rep.agree
        assert rep.extension_satisfies and rep.cocycle_vanishes


def test_check_extension_identity_nonvanishing_side(dih3):
    # a rack cocycle with nonzero value on the kei cycles: the extension is a
    # rack that must fail the identity, in agreement with the pairing
    const1 = CocycleTable(modulus=3, values=((1,) * 3,) * 3)
    rep = check_extension_identity(ExtensionSpec(dih3, 3, const1),
                                   parse_word("aa"))
    assert not rep.cocycle_vanishes
    assert not rep.extension_satisfies
    assert rep.agree
    assert rep.failing_assignment is not None
    assert rep.nonzero_value_at is not None


def test_check_extension_identity_base_error(dih3):
    with pytest.raises(BaseDoesNotSatisfy):
        check_extension_identity(ExtensionSpec(dih3, 3, zero_cocycle(3, 3)),
                                 parse_word("abab"))


def test_type_survey_faithful_base(dih3):
    sp = cocycle_space(dih3, 3, mode="quandle")
    rep = extension_type_survey(
        dih3, [ExtensionSpec(dih3, 3, m) for m in sp.members()])
    assert rep.inner_row.match                       # faithful: image is a copy
    assert all(r.match for r in rep.connected_rows)
    for r in rep.skipped_rows:
        assert r.extension_connected is False


def test_type_survey_nonfaithful_reports_mismatch(az43):
    rep = extension_type_survey(az43, [])
    assert rep.inner_row.type_base == 2
    assert rep.inner_row.type_other == 1
    assert not rep.inner_row.match
    assert rep.mismatches


def test_medial_base_with_vanishing_cocycles_gives_medial_extension(dih3):
    from quandlehom.chains import medial_cycle
    from quandlehom.homology import evaluate_cocycle
    sp = cocycle_space(dih3, 3, mode="quandle")
    for member in sp.members():
        vanishes = all(
            evaluate_cocycle(member, medial_cycle(dih3, x, y, u, v)) == 0
            for x, y, u, v in itertools.product(range(3), repeat=4))
        E = extend(ExtensionSpec(dih3, 3, member))
        if vanishes:
            assert is_medial(E) is True


@pytest.mark.parametrize("X, d", [
    (dihedral(3), 3), (alexander_poly(2, (1, 1, 1), (0, 1)), 2),
    (dihedral(5), 5), (alexander_zn(5, 2), 5),
], ids=["R3", "S4", "R5", "Z5_2"])
def test_inheritance_count_matches_brute_force(X, d):
    """The cocycles whose extension satisfies w form Hom(C_2 / (im d_3 +
    <identity 2-cycles of w>), Z_d), plus the chains (x, x) in quandle mode:
    its size equals the brute-force count over the cocycle space."""
    words = [parse_word("a" * quandle_type(X))] + [
        w for w in two_letter_universe(4)
        if w.letters == 2 and satisfies(X, w).satisfied]
    for mode in MODES:
        specs = [ExtensionSpec(X, d, member)
                 for member in cocycle_space(X, d, mode=mode).members()]
        for w in words:
            found = sum(check_extension_identity(spec, w).extension_satisfies
                        for spec in specs)
            assert found == inheritance_count(X, d, mode, w), (mode, w.text)


def test_first_nonzero_pairing_follows_the_scan_order():
    """x runs fastest: on trivial(3), phi(1, 0) is met before phi(0, 1)."""
    phi = CocycleTable(modulus=2, values=((0, 1, 0), (1, 0, 0), (0, 0, 0)))
    rep = check_extension_identity(ExtensionSpec(trivial(3), 2, phi),
                                   parse_word("a"))
    assert rep.nonzero_value_at == Assignment(1, (0,))
    assert not rep.extension_satisfies and rep.agree


def _cocycle_combination(space, coefs):
    n, d = space.base_order, space.modulus
    return CocycleTable(modulus=d, values=tuple(
        tuple(sum(c * g.values[x][y] for c, g in zip(coefs, space.generators))
              % d for y in range(n)) for x in range(n)))


BATCH_TABLES = [X for _, X in corpus()] + [NON_QUANDLE_RACK]
# per table, a^type, a^(2 type) and the two-letter words of length <= 4 it
# satisfies; satisfaction does not depend on the labels
SATISFIED_WORDS = {
    X: [parse_word("a" * quandle_type(X) * k) for k in (1, 2)]
    + [w for w in two_letter_universe(4)
       if w.letters == 2 and satisfies(X, w).satisfied]
    for X in BATCH_TABLES}


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data())
def test_batched_identity_cycles_match_the_assignment_loop(data):
    """The batched cocycle side of check_extension_identity and the batched
    cycle check give, field by field, what the per-assignment loop gives:
    relabelled corpus tables, words of length <= 6 on <= 3 letters (the
    cycle check also on unsatisfied words), random cocycles of both modes,
    of rack mode only on the rack, where quandle mode raises; a quandle
    cocycle that does not vanish has its first nonzero pairing past the
    first assignment."""
    X = data.draw(st.sampled_from(BATCH_TABLES))
    Y = relabelled(X, data.draw(st.permutations(range(X.order))))
    w = data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=6)
                  .map(Word.canonical))
    failures = identity_cycle_failures(Y, w)
    assert failures == loop_cycle_failures(Y, w)
    for a in failures[:3]:
        assert identity_cycle(Y, w, a, permissive=True).terms \
            == naive_identity_cycle(Y, w, a.x, a.ys)
    if failures:
        w = data.draw(st.sampled_from(SATISFIED_WORDS[X]))
    assert identity_cycle_failures(Y, w) == []
    d = data.draw(st.sampled_from([2, 3, 5]))
    mode = data.draw(st.sampled_from(MODES))
    if mode == "quandle" and not Y.is_quandle:
        with pytest.raises(IdempotencyFails):
            cocycle_space(Y, d, mode=mode)
        mode = "rack"
    space = cocycle_space(Y, d, mode=mode)
    phi = _cocycle_combination(space, [data.draw(st.integers(0, k - 1))
                                       for k in space.orders])
    rep = check_extension_identity(ExtensionSpec(Y, d, phi), w)
    first = loop_first_nonzero_pairing(Y, phi, w)
    assert rep.nonzero_value_at == first
    assert rep.cocycle_vanishes == (first is None)
    assert rep.agree
