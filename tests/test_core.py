import itertools
import math
import random

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import loop_first_axiom_violation, relabelled, walk_cycle_lengths
from quandlehom import core
from quandlehom.core import (Permutation, QuandleTable,
                             _first_axiom_violation, group_exponent,
                             inner_group, inner_representation, invariants,
                             is_connected, is_medial, make_table, orbit,
                             product, quandle_type, translate, validate)
from quandlehom.constructions import alexander_zn, conjugation, trivial
from quandlehom.extensions import ExtensionSpec, extend
from quandlehom.homology import CocycleTable
from quandlehom.shell import corpus
from quandlehom.errors import (ColumnNotBijective, IdempotencyFails,
                               OutOfRangeEntry, SelfDistributivityFails,
                               SizeGuardExceeded)

DIH3 = [[0, 2, 1], [2, 1, 0], [1, 0, 2]]


def test_validate_singleton():
    rep = validate([[0]], mode="quandle")
    assert rep.is_rack and rep.is_quandle and rep.is_connected
    assert rep.type == 1 and rep.inn_order == 1 and rep.inn_exponent == 1


def test_validate_dihedral():
    rep = validate(DIH3, mode="quandle")
    assert rep.is_quandle and rep.is_connected
    assert rep.is_medial and rep.is_faithful
    assert rep.type == 2 and rep.inn_order == 6 and rep.inn_exponent == 6


def test_validate_broken_column():
    broken = [[0, 0, 1], [2, 1, 0], [1, 0, 2]]
    rep = validate(broken)
    assert not rep.is_rack
    assert isinstance(rep.violation, ColumnNotBijective)
    assert rep.violation.y == 1
    with pytest.raises(ColumnNotBijective) as exc:
        make_table(broken)
    assert exc.value.y == 1


def test_validate_out_of_range():
    rep = validate([[0, 3], [1, 1]])
    assert not rep.is_rack
    with pytest.raises(OutOfRangeEntry) as exc:
        make_table([[0, 3], [1, 1]])
    for err in (rep.violation, exc.value):
        assert (err.x, err.y, err.value) == (0, 1, 3)


def test_validate_distributivity_witness():
    # column permutations but not right distributive
    rows = [[0, 1, 1, 3], [1, 0, 2, 2], [2, 3, 3, 0], [3, 2, 0, 1]]
    rep = validate(rows)
    if rep.is_rack:
        pytest.skip("adjust fixture")
    if isinstance(rep.violation, SelfDistributivityFails):
        a, b, c = rep.violation.a, rep.violation.b, rep.violation.c
        lhs = rows[rows[a][b]][c]
        rhs = rows[rows[a][c]][rows[b][c]]
        assert lhs != rhs


def test_validate_idempotency_rack_mode():
    # a rack that is not a quandle: constant nontrivial right action
    rows = [[1, 1], [0, 0]]
    rep = validate(rows, mode="quandle")
    assert rep.is_rack and not rep.is_quandle
    assert isinstance(rep.violation, IdempotencyFails)
    with pytest.raises(IdempotencyFails) as exc:
        make_table(rows, require="quandle")
    assert exc.value.x == rep.violation.x == 0
    rep = validate(rows, mode="rack")
    assert rep.is_rack and rep.violation is None


def test_translate(dih3, az52, triv2):
    p = translate(dih3, 0)
    assert p.images == (0, 2, 1)
    assert p.cycle_string() == "(1 2)"
    assert translate(triv2, 0).is_identity
    assert translate(az52, 0).images == tuple((2 * x) % 5 for x in range(5))


def test_product(dih3, az52):
    assert product(dih3, 0, []) == 0
    assert product(dih3, 0, [1, 1]) == 0
    assert product(az52, 0, [1, 0, 1, 0]) == 0


def test_product_alexander_closed_form(az52):
    # x*y1*...*yk = t^k x + (1-t)(t^(k-1) y1 + ... + yk), here t = 2 mod 5
    rng = random.Random(4)
    for _ in range(60):
        k = rng.randint(0, 6)
        x = rng.randrange(5)
        ys = [rng.randrange(5) for _ in range(k)]
        expected = (pow(2, k, 5) * x - sum(
            pow(2, k - i, 5) * ys[i - 1] for i in range(1, k + 1))) % 5
        assert product(az52, x, ys) == expected


def test_inner_group_orders(dih3, az52, triv2):
    assert inner_group(triv2).order == 1
    assert inner_group(dih3).order == 6
    assert inner_group(az52).order == 20


def test_inner_group_deterministic_order(dih3):
    G = inner_group(dih3)
    images = [tuple(row) for row in G.images_array().tolist()]
    assert images == sorted(images)
    assert images[0] == (0, 1, 2)


def test_inner_group_budget(dih3):
    """The cap bounds the element count: |Inn(R3)| = 6 exceeds 3 and 5, not 6.
    R_0, R_1 generate; the levels reach 3, 5 and 6 elements."""
    for cap, needed in ((3, 5), (5, 6)):
        with pytest.raises(SizeGuardExceeded) as err:
            inner_group(dih3, closure_cap=cap)
        assert (err.value.needed, err.value.guard) == (needed, cap)
    assert len(inner_group(dih3, closure_cap=6).images_array()) == 6


def test_group_exponent(dih3, triv2):
    assert group_exponent(inner_group(triv2)) == 1
    assert group_exponent(inner_group(dih3)) == 6


def test_invariants_alexander_z4(az43):
    rep = invariants(az43)
    assert rep.type == 2
    assert not rep.is_connected
    assert not rep.is_faithful
    assert rep.is_medial


def test_invariants_gf4(gf4):
    rep = invariants(gf4)
    assert rep.type == 3 and rep.is_connected and rep.is_medial


def test_type_divides_inn_exponent(dih3, az52, az43, gf4, oct_a, oct_b):
    for X in (dih3, az52, az43, gf4, oct_a, oct_b):
        rep = invariants(X)
        assert rep.inn_exponent % rep.type == 0


def test_type_matches_product_iteration(dih3, az52, gf4, oct_a):
    # least t with x *^t y = x for all x, y, found by brute iteration
    for X in (dih3, az52, gf4, oct_a):
        t = quandle_type(X)
        for s in range(1, t):
            assert any(product(X, x, [y] * s) != x
                       for x in range(X.order) for y in range(X.order))
        assert all(product(X, x, [y] * t) == x
                   for x in range(X.order) for y in range(X.order))


def test_translation_identities_exhaustive(dih3, az52, triv2):
    # (a c1...ci)(b c1...ci) = (ab) c1...ci  and  a1...ai b = (a1 b)...(ai b)
    for X in (dih3, az52, triv2):
        n = X.order
        for i in range(0, 5):
            for cs in itertools.product(range(n), repeat=i):
                for a in range(n):
                    for b in range(n):
                        lhs = X.rows[product(X, a, cs)][product(X, b, cs)]
                        rhs = product(X, X.rows[a][b], cs)
                        assert lhs == rhs
        for i in range(1, 5):
            for seq in itertools.product(range(n), repeat=i):
                for b in range(n):
                    lhs = product(X, seq[0], list(seq[1:]) + [b])
                    rhs = X.rows[seq[0]][b]
                    for v in seq[1:]:
                        rhs = X.rows[rhs][X.rows[v][b]]
                    assert lhs == rhs


def test_alexander_always_medial():
    for n, t in ((3, 2), (5, 2), (5, 3), (7, 3), (8, 3), (9, 2)):
        if math.gcd(t, n) != 1:
            continue
        assert is_medial(alexander_zn(n, t)) is True


def conjugation_s3():
    perms = sorted(itertools.permutations(range(3)))
    perms.remove((0, 1, 2))
    perms = [(0, 1, 2)] + perms
    idx = {p: i for i, p in enumerate(perms)}
    cayley = [[idx[tuple(p[q[i]] for i in range(3))] for q in perms]
              for p in perms]
    return conjugation(cayley)


def test_conjugation_quandle_of_s3_not_medial():
    CQ = conjugation_s3()
    assert CQ.is_quandle
    assert is_medial(CQ) is False


def test_is_medial_above_order_64():
    """The scan is bounded by its cells, not by the order: Z67 with t = 2
    scans 8,978 cells; Conj(S3) x Z11 with the zero cocycle is not medial,
    as its quotient Conj(S3) is not."""
    assert is_medial(alexander_zn(67, 2)) is True
    zero = CocycleTable(11, ((0,) * 6,) * 6)
    E = extend(ExtensionSpec(conjugation_s3(), 11, zero))
    assert E.order == 66
    assert is_medial(E) is False


def test_is_medial_size_limit():
    """A trivial table scans every (x, y) against every (u, v): trivial(64)
    exactly 64^4 = 2^24 cells, the guard, and trivial(65) 65^4 cells, which
    is refused and left uncomputed in the invariant report."""
    assert is_medial(trivial(64)) is True
    with pytest.raises(SizeGuardExceeded) as err:
        is_medial(trivial(65))
    assert (err.value.needed, err.value.guard) == (17_850_625, 16_777_216)
    assert invariants(trivial(65)).is_medial is None


def test_inner_representation_faithful(dih3):
    img, mapping = inner_representation(dih3)
    assert img.order == 3
    assert mapping == (0, 1, 2)
    assert img.rows == dih3.rows


def test_inner_representation_trivial(triv2):
    img, mapping = inner_representation(triv2)
    assert img.order == 1 and mapping == (0, 0)


def test_inner_representation_z4(az43):
    img, mapping = inner_representation(az43)
    assert img.order == 2
    assert mapping == (0, 1, 0, 1)
    assert img.rows == ((0, 0), (1, 1))     # the two-element trivial quandle


def test_orbit_and_connectivity(dih3, triv2, az43):
    assert orbit(dih3, 0) == frozenset({0, 1, 2})
    assert is_connected(dih3)
    assert not is_connected(triv2)
    assert orbit(az43, 0) == frozenset({0, 2})


def test_permutation_algebra():
    p = Permutation((1, 2, 0))
    q = p.inverse()
    assert (p * q).is_identity and (q * p).is_identity
    assert p.order() == 3
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))


def test_quandle_table_value_semantics(dih3):
    again = make_table(DIH3)
    assert again == dih3 and hash(again) == hash(dih3)
    assert repr(dih3) == "<quandle of order 3>"


def test_inner_representation_rejects_non_rack():
    # hand-crafted non-rack: columns 0 and 1 coincide (the identity) but send
    # their representatives into different column classes under column 2, so
    # the image operation is ill defined and the defensive check must fire
    from quandlehom.core import QuandleTable
    from quandlehom.errors import InnQuandleIllDefined
    bad = ((0, 0, 2, 3),
           (1, 1, 3, 2),
           (2, 2, 0, 1),
           (3, 3, 1, 0))
    X = QuandleTable(bad, _validated=True)       # bypasses validation
    with pytest.raises(InnQuandleIllDefined) as exc:
        inner_representation(X)
    assert exc.value.witness is not None


def test_exponent_cross_checks():
    """Translation-group exponents with independently computable values."""
    from quandlehom.constructions import alexander_zn, conjugation, dihedral

    # affine over Z_p: exponent = lcm(order of t mod p, p)
    assert group_exponent(inner_group(alexander_zn(5, 2))) == 20
    assert group_exponent(inner_group(alexander_zn(7, 3))) == 42
    assert group_exponent(inner_group(alexander_zn(13, 2))) == 156
    # dihedral(n) for odd n: the dihedral group of order 2n, exponent 2n
    for n in (3, 5, 7, 9):
        assert group_exponent(inner_group(dihedral(n))) == 2 * n
    # conjugation on the transpositions of S4: Inn is S4, exponent 12
    import itertools as it
    trans = []
    for i in range(4):
        for j in range(i + 1, 4):
            img = list(range(4))
            img[i], img[j] = j, i
            trans.append(tuple(img))
    tidx = {p: k for k, p in enumerate(trans)}
    inv = lambda p: tuple(sorted(range(4), key=lambda x: p[x]))
    comp = lambda p, q: tuple(p[q[x]] for x in range(4))
    rows = [[tidx[comp(inv(y), comp(x, y))] for y in trans] for x in trans]
    CQ = make_table(rows, require="quandle")
    G = inner_group(CQ)
    assert G.order == 24 and group_exponent(G) == 12


@st.composite
def permutation_rows(draw):
    """Random permutations of one size, with an identity row and an n-cycle."""
    n = draw(st.integers(1, 12))
    rows = draw(st.lists(st.permutations(range(n)), max_size=6))
    return draw(st.permutations([*rows, list(range(n)), [*range(1, n), 0]]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(perms=permutation_rows())
@example(perms=[[0]])
def test_cycle_lengths_match_the_walk(perms):
    got = core.cycle_lengths(np.array(perms, dtype=np.int64))
    assert got.tolist() == [walk_cycle_lengths(p) for p in perms]


def test_type_is_the_lcm_of_walked_column_cycles():
    """On the corpus, a relabelling of each table, and two racks that are not
    quandles."""
    rng = random.Random(0)
    racks = [make_table([[1, 1, 1], [0, 0, 0], [2, 2, 2]]),
             make_table([[1, 1, 1], [2, 2, 2], [0, 0, 0]])]
    for X in [X for _, X in corpus()] + racks:
        for Y in (X, relabelled(X, rng.sample(range(X.order), X.order))):
            assert quandle_type(Y) == math.lcm(
                *(k for b in range(Y.order)
                  for k in walk_cycle_lengths(Y.column(b))))


def violation_fields(err):
    return None if err is None else (type(err), err.args, vars(err))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_axiom_witnesses_match_the_loop(data):
    """The blocked check names the same first violation as one pass per a,
    on corpus tables with an entry out of range, a column made
    non-bijective, or two entries of a column swapped, which keeps every
    column a permutation and can break distributivity.  Blocks of a are
    drawn down to one a each, so a witness may sit in any block."""
    X = data.draw(st.sampled_from([X for _, X in corpus()]))
    n = X.order
    rows = [list(r) for r in X.rows]
    kind = data.draw(st.sampled_from(["range", "column", "swap", "none"]))
    x, y = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    if kind == "range":
        rows[x][y] = data.draw(st.sampled_from([-1, n, n + 3, -10 ** 30,
                                                10 ** 30]))
    elif kind == "column":
        rows[x][y] = rows[data.draw(st.integers(0, n - 1))][y]
    elif kind == "swap":
        z = data.draw(st.integers(0, n - 1))
        rows[x][y], rows[z][y] = rows[z][y], rows[x][y]
    quandle = data.draw(st.booleans())
    require = "quandle" if quandle else "rack"
    want = loop_first_axiom_violation(rows, quandle)
    block = data.draw(st.sampled_from([1, 2 * n * n, core._AXIOM_BLOCK]))
    with mock.patch.object(core, "_AXIOM_BLOCK", block):
        assert violation_fields(_first_axiom_violation(rows, quandle)) \
            == violation_fields(want)
        if want is None:
            make_table(rows, require=require)
            return
        with pytest.raises(type(want)) as raised:
            make_table(rows, require=require)
    assert violation_fields(raised.value) == violation_fields(want)


def test_distributivity_witness_in_a_later_block():
    """Beside a trivial part of order 70, which acts trivially and is acted
    on trivially, a non-distributive 3-element part with bijective columns
    puts every broken triple at a >= 70: past the first block of 49 a."""
    k, part = 70, [[1, 0, 0], [2, 1, 1], [0, 2, 2]]
    rows = ([[x] * (k + 3) for x in range(k)]
            + [[k + i] * k + [k + v for v in part[i]] for i in range(3)])
    want = loop_first_axiom_violation(rows, False)
    assert isinstance(want, SelfDistributivityFails) and want.a >= k
    for block in (1, core._AXIOM_BLOCK):
        with mock.patch.object(core, "_AXIOM_BLOCK", block):
            assert violation_fields(_first_axiom_violation(rows, False)) \
                == violation_fields(want)


def test_ragged_table_raises_before_any_array():
    for build in (make_table, QuandleTable, validate):
        with pytest.raises(ValueError, match="table must be square"):
            build([[0, 0], [0]])


@pytest.mark.parametrize("rows", [
    [[0, 10 ** 30], [1, 1]],
    [[0, -1], [-10 ** 30, 1]],          # an entry inside int64 comes first
    [[0, 1], [1, 10 ** 30]],
], ids=["huge", "negative-first", "huge-last"])
def test_entries_beyond_int64_raise_the_first_out_of_range(rows):
    err = loop_first_axiom_violation(rows, False)
    assert isinstance(err, OutOfRangeEntry)
    for build in (make_table, QuandleTable):
        with pytest.raises(OutOfRangeEntry) as raised:
            build(rows)
        assert violation_fields(raised.value) == violation_fields(err)
    assert violation_fields(validate(rows).violation) \
        == violation_fields(err)


def test_table_keeps_an_int64_array():
    T = np.array(DIH3, dtype=np.int64)
    X = make_table(T)
    assert X.np_table is T and not T.flags.writeable
    assert X.rows == tuple(map(tuple, DIH3)) and X == make_table(DIH3)
    with pytest.raises(ColumnNotBijective):
        make_table(np.zeros((3, 3), dtype=np.int64))
    with pytest.raises(ValueError, match="table must be square"):
        make_table(np.zeros((2, 3), dtype=np.int64))
