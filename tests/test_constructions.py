import itertools
import random
import warnings

import pytest

from oracles import (affine_poly_table, has_zero_divisor, loop_canonical_form,
                     relabelled)
from quandlehom.core import (is_connected, is_medial, product, quandle_type,
                             validate)
from quandlehom.identities import Word, parse_word, satisfies
from quandlehom.constructions import (PolyRing, alexander_poly, alexander_zn,
                                      are_isomorphic, burnside_family,
                                      canonical_form, conjugation, dihedral,
                                      enumerate_connected,
                                      generalized_alexander, make,
                                      repetition_polynomial,
                                      affine_satisfies, trivial)
from quandlehom import constructions, core
from quandlehom.errors import (IdentityNotSatisfied, NotAnAutomorphism,
                               NotAUnit, NotConnected, NotPrime,
                               PNotGreaterThanN, ReducibleModulusAllowed,
                               SizeGuardExceeded)
from quandlehom.shell import cli


def test_dihedral_table():
    assert dihedral(3).rows == ((0, 2, 1), (2, 1, 0), (1, 0, 2))


def test_every_construction_validates():
    tables = [trivial(4), dihedral(5), alexander_zn(7, 3),
              alexander_poly(2, (1, 1, 1), (0, 1)), burnside_family(1, 2, 3)]
    for X in tables:
        rep = validate(X.rows, mode="quandle")
        assert rep.is_quandle


def test_alexander_poly_order8(oct_a, oct_b):
    assert oct_a.order == 8 and is_connected(oct_a)
    assert quandle_type(oct_a) == 7
    assert satisfies(oct_a, parse_word("aabbaba")).satisfied
    assert not satisfies(oct_a, parse_word("aababba")).satisfied
    assert satisfies(oct_b, parse_word("aababba")).satisfied


def test_alexander_zn_examples(az52):
    assert is_connected(az52) and quandle_type(az52) == 4
    assert satisfies(az52, parse_word("abab")).satisfied


def test_construction_errors():
    with pytest.raises(NotAUnit):
        alexander_zn(4, 2)
    with pytest.raises(NotAUnit):
        alexander_poly(2, (1, 1, 1), (0,))     # zero is not a unit
    with pytest.raises(NotPrime):
        burnside_family(1, 2, 4)
    with pytest.raises(PNotGreaterThanN):
        burnside_family(1, 3, 3)
    with pytest.raises(NotPrime):
        PolyRing(6, (1, 1))


@pytest.mark.parametrize("owner, name, check, error, message", [
    (PolyRing, "is_unit", lambda ring, u: False, NotAUnit,
     "1 - t is not a unit in the quotient"),
    (constructions, "affine_satisfies", lambda ring, unit, w: False,
     IdentityNotSatisfied, "table does not satisfy the identity xaa = x"),
    (constructions, "is_connected", lambda X: False, NotConnected,
     "the family member is not connected"),
], ids=["unit", "identity", "connected"])
def test_burnside_self_checks_raise_named_errors(monkeypatch, capsys, owner,
                                                 name, check, error, message):
    """Each self-check of burnside_family raises its own QuandleError, which
    gen burnside reports as one error line with exit 1."""
    monkeypatch.setattr(owner, name, check)
    with pytest.raises(error, match=message):
        burnside_family(1, 2, 3)
    assert cli(["gen", "burnside", "1", "2", "3"]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: {message}\n"


def test_reducible_modulus_warns():
    with pytest.warns(ReducibleModulusAllowed):
        PolyRing(2, (1, 0, 1))                 # t^2 + 1 = (t+1)^2 mod 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        PolyRing(2, (1, 1, 1))                 # irreducible: no warning


def test_polyring_arithmetic():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ring = PolyRing(5, repetition_polynomial(2, 3))
    assert ring.size == 625
    one, t = ring.element([1]), ring.t
    power = one
    for _ in range(6):
        power = power @ t % 5
    assert (power == one).all()                  # t^6 = 1 in the quotient
    assert ring.is_unit(one - t)
    x = ring.element((1, 2, 3, 4))
    assert ring.index(x) == 1 + 2 * 5 + 3 * 25 + 4 * 125
    assert (ring.element(ring.index(x)) == x).all()
    assert all(ring.index(ring.element(i)) == i for i in range(ring.size))


def test_element_index_outside_the_ring_raises():
    """An index names one of the p^k elements; coefficients stay mod p."""
    for unit in (6, -2, 4):                     # p^k = 4
        with pytest.raises(ValueError) as err:
            alexander_poly(2, (1, 1, 1), unit)
        assert str(err.value) == f"index {unit} outside 0..3"
    assert alexander_poly(2, (1, 1, 1), [0, 3]) == \
        alexander_poly(2, (1, 1, 1), 2)


def test_repetition_polynomial():
    assert repetition_polynomial(1, 2) == [1, 1]
    assert repetition_polynomial(2, 2) == [1, 0, 1]
    assert repetition_polynomial(1, 3) == [1, 1, 1]
    assert repetition_polynomial(2, 3) == [1, 0, 1, 0, 1]


def test_burnside_small_members():
    B = burnside_family(1, 2, 3)
    assert B.rows == dihedral(3).rows
    assert satisfies(B, parse_word("aa")).satisfied
    B = burnside_family(2, 2, 3)
    assert B.order == 9 and is_connected(B)
    assert satisfies(B, parse_word("abab")).satisfied
    B = burnside_family(1, 3, 5)
    assert B.order == 25 and is_connected(B)
    assert satisfies(B, parse_word("aaa")).satisfied


def test_affine_closed_form_matches_product(oct_a):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ring = PolyRing(2, (1, 0, 1, 1))
    rng = random.Random(9)
    t = ring.t
    powers = [ring.element([1])]
    for _ in range(7):
        powers.append(powers[-1] @ t % 2)
    for _ in range(50):
        k = rng.randint(1, 7)
        x = rng.randrange(8)
        ys = [rng.randrange(8) for _ in range(k)]
        # t^k x + (1-t)(t^(k-1) y1 + ... + yk)
        acc = powers[k] @ ring.element(x)
        coef = powers[0] - t
        for i, y in enumerate(ys, start=1):
            acc = acc + coef @ powers[k - i] @ ring.element(y)
        assert product(oct_a, x, ys) == ring.index(acc % 2)


def test_affine_satisfies_agrees_with_scan(oct_a):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ring = PolyRing(2, (1, 0, 1, 1))
    rng = random.Random(17)
    for _ in range(40):
        k = rng.randint(1, 7)
        m = rng.randint(1, min(2, k))
        w = Word.canonical([0] + [rng.randrange(m) for _ in range(k - 1)])
        assert affine_satisfies(ring, ring.t, w) == \
            satisfies(oct_a, w).satisfied


def test_alexander_poly_matches_the_polynomial_oracle():
    """Tables, unit refusals and reducibility warnings against schoolbook
    polynomial arithmetic, on moduli that are not monic and units given as
    an index or as coefficient lists of every length up to deg f + 3; the
    tables, built without an axiom check, pass it up to order 125."""
    rng = random.Random(38)
    cases = [(2, [1, 0, 1, 0, 1])]      # (t^2 + t + 1)^2: no root, reducible
    for p in (2, 3, 5, 7, 11):
        for k in range(1, 6):
            if p ** k <= 300:
                cases += [(p, [rng.randrange(-2 * p, 2 * p) for _ in range(k)]
                           + [rng.choice([c for c in range(2, 3 * p)
                                          if c % p])]) for _ in range(2)]
    for p, f in cases:
        k = len(f) - 1
        units = [rng.randrange(p ** k),
                 [rng.randrange(-p, p) for _ in range(rng.randrange(k + 4))],
                 [rng.randrange(-p, p) for _ in range(k + 3)], []]
        for unit in units:
            want = affine_poly_table(p, f, unit)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    got = [list(row) for row in alexander_poly(p, f, unit).rows]
                except NotAUnit:
                    got = None
            assert got == want, (p, f, unit)
            if got is not None and len(got) <= 125:
                assert core._first_axiom_violation(got, quandle=True) is None
            assert [w.category for w in caught] == \
                [ReducibleModulusAllowed] * has_zero_divisor(p, f), (p, f)


def test_alexander_always_medial():
    for X in (alexander_zn(9, 2), alexander_poly(3, (1, 0, 1), (0, 1)),
              burnside_family(2, 2, 3)):
        assert is_medial(X) is True


def test_enumerate_connected_counts():
    assert [len(enumerate_connected(n)) for n in range(1, 7)] == \
        [1, 0, 1, 1, 3, 2]
    with pytest.raises(SizeGuardExceeded) as err:
        enumerate_connected(7)
    assert (err.value.needed, err.value.guard) == (7, 6)
    with pytest.raises(SizeGuardExceeded) as err:
        canonical_form(trivial(9))
    assert (err.value.needed, err.value.guard) == (9, 8)


def test_canonical_form_matches_the_loop():
    rng = random.Random(7)
    for n in range(1, 8):
        for X in enumerate_connected(n, cap=7):
            Y = relabelled(X, rng.sample(range(n), n))
            assert canonical_form(X) == loop_canonical_form(X)
            assert canonical_form(Y) == loop_canonical_form(Y) == \
                canonical_form(X)
    for X in (dihedral(8), alexander_zn(8, 3), trivial(8)):
        assert canonical_form(X) == loop_canonical_form(X)


def test_enumerate_connected_members_are_connected_quandles():
    for n in (3, 4, 5, 6):
        for X in enumerate_connected(n):
            assert X.is_quandle and is_connected(X)


def test_enumerate_no_isomorphic_pairs():
    got = enumerate_connected(5)
    forms = [canonical_form(X) for X in got]
    assert len(set(forms)) == len(forms)


def test_enumeration_covers_known_order5(az52, az53):
    got = enumerate_connected(5)
    assert any(are_isomorphic(X, az52) for X in got)
    assert any(are_isomorphic(X, az53) for X in got)
    assert any(are_isomorphic(X, dihedral(5)) for X in got)


def test_order4_connected_is_gf4(gf4):
    got = enumerate_connected(4)
    assert len(got) == 1 and are_isomorphic(got[0], gf4)


def test_burnside_1_2_3_isomorphic_to_dihedral3(dih3):
    assert are_isomorphic(burnside_family(1, 2, 3), dih3)


def test_conjugation_and_generalized_alexander():
    z4 = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    GA = generalized_alexander(z4, [0, 3, 2, 1])
    assert GA.is_quandle and quandle_type(GA) == 2
    with pytest.raises(NotAnAutomorphism):
        generalized_alexander(z4, [0, 2, 1, 3])
    perms = sorted(itertools.permutations(range(3)))
    perms.remove((0, 1, 2))
    perms = [(0, 1, 2)] + perms
    idx = {p: i for i, p in enumerate(perms)}
    cayley = [[idx[tuple(p[q[i]] for i in range(3))] for q in perms]
              for p in perms]
    CQ = conjugation(cayley)
    assert CQ.order == 6 and CQ.is_quandle
    assert not is_connected(CQ)       # identity element is a fixed orbit


def test_make_dispatch(dih3):
    assert make("dihedral", 3) == dih3
    assert make("trivial", 2).rows == ((0, 0), (1, 1))
    assert make("alexander_zn", 5, 2).order == 5
    with pytest.raises(ValueError):
        make("nope", 3)
