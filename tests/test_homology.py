import collections
import contextlib
import importlib
import io
import itertools
import json
import math
import random
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (full_boundary_homology, kernel_basis,
                     lattice_cocycle_space, lattice_from_rows,
                     loop_boundary, loop_boundary_matrix,
                     loop_identity_generators, mat_mul,
                     rank_fraction_free, relabelled, sparse, sparse_rows)
from quandlehom.chains import (FormalChain, block_boundary, identity_cycle,
                               subcomplex_generators)
from quandlehom.homology import (ChainComplex, CocycleTable, HomologyGroup,
                                 _complexes, _in_basis, _invariant_factors,
                                 _spanning_columns, boundary_matrix,
                                 chain_complex, coboundary,
                                 cocycle_condition_holds, cocycle_orders,
                                 cocycle_space, evaluate_cocycle, homology)
from quandlehom.identities import (Assignment, parse_word, satisfies_all,
                                   two_letter_universe)
from quandlehom.linalg import IntLattice, smith_normal_form
from quandlehom.constructions import (alexander_poly, alexander_zn,
                                      dihedral, enumerate_connected, trivial)
from quandlehom.core import digits, inner_group, make_table
from quandlehom.errors import DegreeMismatch, IdempotencyFails, \
    IdentityNotSatisfied, InvalidCocycle, SizeGuardExceeded, \
    SubcomplexClosureViolated, ValidationError
from quandlehom.shell import cli, corpus, emit


def test_boundary_matrix_trivial_order1(triv1):
    bm = boundary_matrix(triv1, "rack", 2)
    assert bm.shape == (1, 1) and bm.matrix == ((0,),)


def test_boundary_matrix_rack_degree2(dih3):
    bm = boundary_matrix(dih3, "rack", 2)
    assert bm.shape == (3, 9)
    for j, (x, y) in enumerate(bm.col_basis):
        col = [bm.matrix[i][j] for i in range(3)]
        expect = [0, 0, 0]
        expect[x] += 1
        expect[dih3.rows[x][y]] -= 1
        assert col == expect


def test_boundary_matrix_identity_solvable():
    """On every corpus table of order <= 5, natural and under one
    relabelling, with every satisfied word of two_letter_universe(4), at
    degrees 2 and 3: each identity column, written out in the lower basis,
    is the oracle boundary of its basis chain."""
    words = two_letter_universe(4)
    rng = random.Random(11)
    checked = 0
    for _, X in corpus():
        if X.order > 5:
            continue
        for Y in (X, relabelled(X, rng.sample(range(X.order), X.order))):
            for w, rep in zip(words, satisfies_all(Y, words)):
                if not rep.satisfied:
                    continue
                for degree in (2, 3):
                    bm = boundary_matrix(Y, "identity", degree, word=w)
                    cols = [FormalChain.zero(degree - 1) for _ in bm.col_basis]
                    for i, row in enumerate(bm.sparse_rows):
                        for j, c in row.items():
                            cols[j] = cols[j] + c * bm.row_basis[i]
                    assert cols == [loop_boundary(Y, chain)
                                    for chain in bm.col_basis], (Y.rows, w)
                    checked += len(cols)
    assert checked > 0


BUILD_CELL_BUDGET = 100_000     # rows * cols; larger matrices are skipped
NON_QUANDLE_RACK = [[1, 1, 1], [0, 0, 0], [2, 2, 2]]
PERMUTATION_RACK = [[1, 1, 1], [2, 2, 2], [0, 0, 0]]      # x*y = x+1 mod 3
FIXES_0_RACK = [[0, 0, 0], [2, 2, 2], [1, 1, 1]]


def test_boundary_matrix_matches_the_loop_builder():
    """The array build gives the tuple-by-tuple build's sparse rows, entry
    order included, and both bases; on every corpus table and a relabelled
    copy, and on two racks that are not quandles, where the quandle and
    degenerate flavours raise IdempotencyFails at the least x with
    x*x != x."""
    rng = random.Random(11)
    tables = [make_table(NON_QUANDLE_RACK, require="rack"),
              make_table(PERMUTATION_RACK, require="rack")]
    for _name, X in corpus():
        perm = list(range(X.order))
        rng.shuffle(perm)
        tables += [X, relabelled(X, perm)]
    checked = raised = 0
    for X in tables:
        for flavour in ("rack", "quandle", "degenerate"):
            for degree in (1, 2, 3, 4):
                if X.order ** (2 * degree - 1) > BUILD_CELL_BUDGET:
                    continue
                if flavour != "rack" and not X.is_quandle:
                    with pytest.raises(IdempotencyFails) as exc:
                        boundary_matrix(X, flavour, degree)
                    assert exc.value.x == 0
                    raised += 1
                    continue
                got = boundary_matrix(X, flavour, degree)
                want = loop_boundary_matrix(X, flavour, degree)
                assert [list(row.items()) for row in got.sparse_rows] == \
                    [list(row.items()) for row in want.sparse_rows]
                assert got.row_basis == want.row_basis
                assert got.col_basis == want.col_basis
                checked += 1
    assert checked >= 200 and raised == 16


def col(bm, j):
    return [bm.matrix[i][j] for i in range(len(bm.row_basis))]


def test_boundary_composition_vanishes(dih3, gf4):
    for X, complexes in ((dih3, ("rack", "quandle", "degenerate")),
                         (gf4, ("rack", "quandle"))):
        for cx in complexes:
            b2 = boundary_matrix(X, cx, 2)
            b3 = boundary_matrix(X, cx, 3)
            if b2.shape[0] and b3.shape[1]:
                prod = mat_mul([list(r) for r in b2.matrix],
                               [list(r) for r in b3.matrix])
                assert all(all(v == 0 for v in row) for row in prod)


def test_identity_complex_boundary_composition(dih3):
    aa = parse_word("aa")
    b3 = boundary_matrix(dih3, "identity", 3, word=aa)
    b4 = boundary_matrix(dih3, "identity", 4, word=aa)
    if b3.shape[0] and b4.shape[1]:
        prod = mat_mul([list(r) for r in b3.matrix],
                       [list(r) for r in b4.matrix])
        assert all(all(v == 0 for v in row) for row in prod)


def test_h1_rack_connected(dih3, az52, gf4, triv1):
    for X in (dih3, az52, gf4, triv1):
        h = homology(X, "rack", 1)
        assert h.free_rank == 1 and not h.torsion


def test_h1_counts_orbits(triv2):
    h = homology(triv2, "rack", 1)
    assert h.free_rank == 2 and not h.torsion


def test_trivial_order1_all_degrees(triv1):
    for n in (1, 2, 3):
        h = homology(triv1, "rack", n)
        assert h.free_rank == 1 and not h.torsion


def test_h2_quandle_dihedral3(dih3):
    h = homology(dih3, "quandle", 2)
    assert h.is_trivial


def test_h2_rack_dihedral3(dih3):
    # rack H2 of the 3-element dihedral quandle is Z (known value)
    h = homology(dih3, "rack", 2)
    assert h.free_rank == 1 and not h.torsion


def test_rank_nullity_cross_check(dih3, gf4):
    for X in (dih3, gf4):
        for cx in ("rack", "quandle"):
            for deg in (2, 3):
                bm = boundary_matrix(X, cx, deg)
                if not bm.shape[0]:
                    continue
                r = smith_normal_form(bm.sparse_rows, bm.shape[1]).rank
                assert r == rank_fraction_free(bm.matrix)
                assert r <= min(bm.shape)


def test_homology_str_forms():
    assert str(HomologyGroup(0, ())) == "0"
    assert str(HomologyGroup(1, ())) == "Z"
    assert str(HomologyGroup(2, (2, 4))) == "Z^2 ⊕ Z_2 ⊕ Z_4"


def test_homology_refuses_at_its_largest_boundary_before_any_build(
        monkeypatch):
    """With every build made to raise, R7 and GF8 quandle H_6, R7 rack H_6
    and R7 degenerate H_7 are refused at the tuples of the quandle d_7, and
    Z5_2 abab identity H_5 at the generator rows of its degree-6 span: each
    call runs the guard on its largest boundary before it builds any."""
    def build(*args):
        raise AssertionError("a boundary was built before the guard")

    monkeypatch.setattr(sys.modules["quandlehom.homology"],
                        "block_boundary", build)
    monkeypatch.setattr(sys.modules["quandlehom.chains"], "_generators",
                        build)
    _complexes.cache_clear()
    for X, flavour, degree, word, needed in (
            (dihedral(7), "quandle", 6, None, 823_543),
            (alexander_poly(2, [1, 1, 0, 1], [0, 1]), "quandle", 6, None,
             2_097_152),
            (dihedral(7), "rack", 6, None, 823_543),
            (dihedral(7), "degenerate", 7, None, 823_543),
            (alexander_zn(5, 2), "identity", 5, parse_word("abab"),
             390_625)):
        with pytest.raises(SizeGuardExceeded) as err:
            homology(X, flavour, degree, word=word)
        assert (err.value.needed, err.value.guard) == (needed, 200_000)


def test_homology_admits_every_degree_its_guard_admits():
    """Groups that only size_guard bounds now, each read in under a second;
    the same routes gave the same values before homology's separate degree
    limit was removed."""
    def group(X, flavour, degree):
        h = homology(X, flavour, degree)
        return h.free_rank, dict(collections.Counter(h.torsion))

    assert group(dihedral(3), "rack", 5) == (1, {3: 4})
    assert group(dihedral(3), "quandle", 10) == (0, {3: 9})
    # degenerate H_11 tops out at the quandle d_11, rack H_11 at d_12
    assert group(dihedral(3), "degenerate", 11) == (1, {3: 114})
    with pytest.raises(SizeGuardExceeded):
        homology(dihedral(3), "rack", 11)
    assert group(alexander_zn(5, 2), "quandle", 6) == (0, {})
    assert sorted(str(homology(X, "quandle", 5))
                  for X in enumerate_connected(6)) == ["Z_12", "Z_2 ⊕ Z_24"]
    assert group(make_table(PERMUTATION_RACK, require="rack"), "rack",
                 9) == (1, {})


def test_order_one_tables_are_counted_as_order_two(triv1):
    """Every count of trivial(1) is 1, so the guards count it as order 2:
    rack H_16 reads d_17 at 2^17 tuples, H_17 is refused at d_18, the aa
    span of degree 18 at 17 * 2^18 generator rows, and every flavour at
    degree 10^4 before smith recurses.  The messages say so."""
    assert homology(triv1, "rack", 16) == HomologyGroup(1, ())
    with pytest.raises(SizeGuardExceeded) as err:
        homology(triv1, "rack", 17)
    assert err.value.needed == 2 ** 18
    assert str(err.value).startswith(
        "d_18 is counted at 2^18 = 262144 tuples, an order-1 table counted "
        "as order 2, over the guard 200000;")
    with pytest.raises(SizeGuardExceeded) as err:
        subcomplex_generators(triv1, 18, parse_word("aa"))
    assert err.value.needed == 17 * 2 ** 18
    assert str(err.value) == (
        "17 * 2^18 = 4456448 generator rows, an order-1 table counted as "
        "order 2, exceed the guard 200000")
    for flavour in ("rack", "quandle", "degenerate", "identity"):
        word = parse_word("aa") if flavour == "identity" else None
        with pytest.raises(SizeGuardExceeded):
            homology(triv1, flavour, 10 ** 4, word=word)


@pytest.mark.parametrize("degree", [10 ** 4, 10 ** 9])
def test_absurd_degrees_are_refused_without_their_power(dih3, degree):
    """At a degree whose count has thousands of digits or more, the guard
    refuses at once: the count saturates at the int64 maximum and the
    message gives the power, not its digits."""
    with pytest.raises(SizeGuardExceeded) as err:
        homology(dih3, "rack", degree)
    assert err.value.needed == np.iinfo(np.int64).max
    assert str(err.value).startswith(
        f"d_{degree + 1} is counted at 3^{degree + 1} tuples over the guard "
        "200000;")
    with pytest.raises(SizeGuardExceeded) as err:
        homology(dih3, "identity", degree, word=parse_word("aa"))
    assert err.value.needed == np.iinfo(np.int64).max
    assert str(err.value) == (f"{degree} * 3^{degree + 1} generator rows "
                              "exceed the guard 200000")


def test_degenerate_restriction_requires_quandle():
    """On a rack that is not a quandle the degenerate tuples do not close,
    so neither flavour that needs them makes a complex at any degree."""
    X = make_table([[1, 1], [0, 0]], require="rack")
    for flavour in ("quandle", "degenerate"):
        for degree in (1, 2, 3, 4):
            for call in (boundary_matrix,
                         lambda X, f, d: chain_complex(X, f).smith(d)):
                with pytest.raises(IdempotencyFails) as exc:
                    call(X, flavour, degree)
                assert exc.value.x == 0


def test_quandle_flavours_refuse_a_rack_where_the_complex_is_made():
    """On the permutation rack x*y = x+1 the quandle maps are no complex
    (d_2 d_3 has 18 nonzero entries), so every way to the complex raises
    IdempotencyFails at x = 0, not only homology."""
    X = make_table(PERMUTATION_RACK, require="rack")
    for call in (lambda: boundary_matrix(X, "quandle", 2),
                 lambda: boundary_matrix(X, "degenerate", 2),
                 lambda: chain_complex(X, "quandle").smith(3)):
        with pytest.raises(IdempotencyFails) as exc:
            call()
        assert exc.value.x == 0


def _all_racks(max_order):
    """Every rack of order <= max_order: each table whose columns are
    permutations that make_table accepts."""
    out = []
    for n in range(1, max_order + 1):
        perms = list(itertools.permutations(range(n)))
        for cols in itertools.product(perms, repeat=n):
            try:
                out.append(make_table([[col[x] for col in cols]
                                       for x in range(n)], require="rack"))
            except ValidationError:
                pass
    return out


def test_degenerate_tuples_close_exactly_on_quandles(tmp_path):
    """chain_complex's theorem: at degrees 2..4 the block_boundary of every
    degenerate tuple stays in the degenerate tuples exactly when the table
    is a quandle, on every rack of order <= 3, the three racks above that
    are not quandles and the corpus; subcomplex --kind degenerate reports
    that, with the n^k - n(n-1)^(k-1) degenerate tuples as generators and
    span rank, without building them."""
    tables = _all_racks(3) + [make_table(rows, require="rack") for rows in (
        NON_QUANDLE_RACK, PERMUTATION_RACK, FIXES_0_RACK)]
    tables += [X for _name, X in corpus()]
    path = tmp_path / "table.txt"
    seen = set()
    for X in tables:
        n = X.order
        path.write_text(emit(X))
        for k in (2, 3, 4):
            tups = digits(np.arange(n ** k), n, k)
            idx = np.flatnonzero((tups[:, 1:] == tups[:, :-1]).any(axis=1))
            _, face, _ = block_boundary(X, np.arange(len(idx)), idx,
                                        np.ones(len(idx), dtype=np.int64), k)
            faces = digits(face, n, k - 1)
            closed = bool((faces[:, 1:] == faces[:, :-1]).any(axis=1).all())
            assert closed == X.is_quandle, (X.rows, k)
            seen.add(closed)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli(["subcomplex", str(path), "--kind", "degenerate",
                            "--degree", str(k), "--json"])
            res = json.loads(out.getvalue())["results"]
            count = n ** k - n * (n - 1) ** (k - 1)
            assert (code, res["boundary_in_lower_span"]) == (
                1 - closed, closed)
            assert res["generators"] == res["span_rank"] == count == len(idx)
    assert seen == {True, False} and len(tables) > 20


@pytest.mark.parametrize("rows, x", [(PERMUTATION_RACK, 0),
                                     (FIXES_0_RACK, 1)],
                         ids=["rack3", "fixes-0"])
def test_quandle_homology_requires_a_quandle(rows, x):
    """The degenerate tuples of a rack that is not a quandle are no
    subcomplex, so there is no quotient complex: quandle and degenerate
    homology raise at the least x with x*x != x instead of reading groups
    off a d with dd != 0, while the rack flavour still answers."""
    X = make_table(rows, require="rack")
    for degree in (1, 2, 3):
        for flavour in ("quandle", "degenerate"):
            with pytest.raises(IdempotencyFails) as exc:
                homology(X, flavour, degree)
            assert exc.value.x == x
        assert homology(X, "rack", degree).free_rank >= 0


def _lemma_tables():
    """Every corpus table and connected quandle of order 1..5, each at
    natural labels and under one relabelling, and three racks that are not
    quandles."""
    rng = random.Random(17)
    tables = [X for _name, X in corpus()]
    tables += [X for n in range(1, 6) for X in enumerate_connected(n)]
    out = []
    for X in tables:
        perm = list(range(X.order))
        rng.shuffle(perm)
        out += [X, relabelled(X, perm)]
    return out + [make_table(rows, require="rack") for rows in
                  (NON_QUANDLE_RACK, PERMUTATION_RACK, FIXES_0_RACK)]


def _lemma_cases():
    """(table, flavour, degree) over _lemma_tables: every flavour the table
    admits, at degrees 1..3, and 1..4 up to order 4."""
    for X in _lemma_tables():
        flavours = ("rack", "quandle", "degenerate") if X.is_quandle \
            else ("rack",)
        for flavour in flavours:
            for degree in range(1, 5 if X.order <= 4 else 4):
                yield X, flavour, degree


def test_spanning_columns_generate_the_image():
    """The lemma in homology's docstring: every column of d_k that the
    spanning set leaves out lies in the integer span of the columns it
    keeps, and the kept columns are those of boundary_matrix at their
    positions in the whole basis; on every rack and quandle case of
    _lemma_cases."""
    kept = left_out = 0
    for X, flavour, degree in _lemma_cases():
        if flavour == "degenerate":
            continue
        full = boundary_matrix(X, flavour, degree)
        n = X.order
        tups = digits(np.arange(n ** degree), n, degree)
        basis = _in_basis(tups, flavour)
        keep = set(np.flatnonzero(_spanning_columns(X, tups)[basis]).tolist())
        rows, dim = chain_complex(X, flavour, None).boundary(degree, True)
        assert dim == len(full.col_basis)
        assert rows == [{j: c for j, c in row.items() if j in keep}
                        for row in full.sparse_rows]
        columns = [{} for _ in range(dim)]
        for i, row in enumerate(full.sparse_rows):
            for j, c in row.items():
                columns[j][i] = c
        image = IntLattice(len(full.row_basis))
        for j in sorted(keep):
            image.add(columns[j])
        for j in range(dim):
            if j not in keep:
                assert image.contains(columns[j]), (X.rows, flavour, degree, j)
        kept += len(keep)
        left_out += dim - len(keep)
    assert left_out > kept


def test_homology_on_reduced_boundaries_equals_the_full_route():
    """Forming only the spanning columns of each boundary, eliminating each
    d_k on the rows that the unit pivots of d_(k-1) leave, and reading the
    rack and degenerate groups of a quandle off its quandle groups change
    no group: on every case of _lemma_cases, on the connected quandles of
    order 6 at degrees 2..3 and on two identity spans at degrees 1..3.
    Degenerate homology on a rack that is not a quandle raises at the least
    x with x*x != x."""
    cases = list(_lemma_cases())
    cases += [(X, flavour, degree) for X in enumerate_connected(6)
              for flavour in ("rack", "quandle", "degenerate")
              for degree in (2, 3)]
    cases += [(X, "identity", degree)
              for X in (dihedral(3), alexander_zn(5, 2)) for degree in (1, 2, 3)]
    words = {3: parse_word("aa"), 5: parse_word("abab")}
    for X, flavour, degree in cases:
        word = words[X.order] if flavour == "identity" else None
        got = homology(X, flavour, degree, word=word)
        assert got == full_boundary_homology(X, flavour, degree, word), \
            (X.rows, flavour, degree)
        assert got.free_rank >= 0
        if not X.is_quandle:
            with pytest.raises(IdempotencyFails) as exc:
                homology(X, "degenerate", degree)
            assert exc.value.x == min(x for x in range(X.order)
                                      if X.rows[x][x] != x)
    assert len(cases) >= 300


def test_homology_does_not_depend_on_the_order_degrees_are_asked_in():
    """The complex caches each degree's Smith form, eliminated on the rows
    the unit pivots one degree down leave: every corpus table and connected
    quandle of order 1..5, natural and under one relabelling, in each tuple
    flavour, gives H_1..H_4 (H_1..H_3 above order 5) equal to the full
    boundary route asked in ascending order, in descending order, and each
    from an empty cache."""
    rng = random.Random(23)
    tables = [X for _name, X in corpus()]
    tables += [X for n in range(1, 6) for X in enumerate_connected(n)]
    checked = 0
    for X in tables:
        perm = list(range(X.order))
        rng.shuffle(perm)
        for Y in (X, relabelled(X, perm)):
            degrees = range(1, 5 if Y.order <= 5 else 4)
            for flavour in ("rack", "quandle", "degenerate"):
                want = {d: full_boundary_homology(Y, flavour, d, None)
                        for d in degrees}
                for order in (degrees, reversed(degrees)):
                    _complexes.cache_clear()
                    got = {d: homology(Y, flavour, d) for d in order}
                    assert got == want, (Y.rows, flavour)
                for d in degrees:
                    _complexes.cache_clear()
                    assert homology(Y, flavour, d) == want[d], \
                        (Y.rows, flavour, d)
                checked += len(want)
    assert checked == 390


def test_each_boundary_is_eliminated_once_per_complex(monkeypatch):
    """H_2, H_3 and H_4 of R3 read the Smith forms of d_2..d_5 once each:
    four eliminations, where two per group would make six, each on the rows
    of d_k that the unit columns of d_(k-1) leave; an emptied cache
    eliminates d_2 and d_3 again for H_2."""
    module = sys.modules["quandlehom.homology"]
    calls = []
    eliminate = module.smith_normal_form

    def counted(rows, ncols):
        calls.append((len(rows), ncols))
        return eliminate(rows, ncols)

    monkeypatch.setattr(module, "smith_normal_form", counted)
    X = dihedral(3)
    _complexes.cache_clear()
    assert [str(homology(X, "quandle", d)) for d in (2, 3, 4)] == \
        ["0", "Z_3", "Z_3"]
    cx = chain_complex(X, "quandle", None)
    assert calls == [
        (len(cx.boundary(k)[0]) - len(cx.smith(k - 1).unit_columns),
         len(boundary_matrix(X, "quandle", k).col_basis))
        for k in (2, 3, 4, 5)]
    assert all(cx.smith(k - 1).unit_columns for k in (3, 4, 5))
    _complexes.cache_clear()
    homology(X, "quandle", 2)
    assert len(calls) == 6


def test_one_chain_complex_per_triple_whatever_the_call_form(monkeypatch):
    """Positional, keyword and defaulted words, and a word outside the
    identity flavour, all reach one cached complex: its Smith forms of d_2
    and d_3 serve homology(X, "quandle", 2) with no further elimination.
    The cache is a module-level lru_cache, which a sweep over every
    module-level cache_clear, the benchmark's reset between rounds,
    empties."""
    module = sys.modules["quandlehom.homology"]
    calls = []
    eliminate = module.smith_normal_form
    monkeypatch.setattr(module, "smith_normal_form",
                        lambda rows, ncols: calls.append(ncols)
                        or eliminate(rows, ncols))
    X = dihedral(3)
    _complexes.cache_clear()
    cx = chain_complex(X, "quandle")
    assert all(cx is other for other in (
        chain_complex(X, "quandle", None),
        chain_complex(X, "quandle", word=None),
        chain_complex(X=X, complex="quandle"),
        chain_complex(X, "quandle", parse_word("abab"))))
    cx.smith(3)
    assert str(homology(X, "quandle", 2)) == "0"
    assert len(calls) == 2 and _complexes.cache_info().currsize == 1
    for val in vars(module).values():
        if callable(getattr(val, "cache_clear", None)):
            val.cache_clear()
    assert _complexes.cache_info().currsize == 0
    assert chain_complex(X, "quandle") is not cx


def test_cocycle_space_trivial_tables():
    for n, d in ((2, 2), (2, 3), (3, 2)):
        sp = cocycle_space(trivial(n), d, mode="quandle")
        assert sp.size == d ** (n * n - n)
        sp = cocycle_space(trivial(n), d, mode="rack")
        assert sp.size == d ** (n * n)


def test_cocycle_space_members_are_cocycles(dih3):
    sp = cocycle_space(dih3, 3, mode="quandle")
    assert sp.size == 9
    members = list(sp.members())
    assert len(members) == 9
    assert len({m.values for m in members}) == 9
    for m in members:
        assert cocycle_condition_holds(dih3, m, mode="quandle")


def test_coboundaries_vanish_on_cycles(dih3, az52):
    rng = random.Random(8)
    for X in (dih3, az52):
        words = [w for w in ("aa", "abab", "aabb")
                 if __import__("quandlehom").satisfies(X, parse_word(w)).satisfied]
        for _ in range(10):
            f = [rng.randrange(6) for _ in range(X.order)]
            phi = coboundary(X, f, 6)
            assert cocycle_condition_holds(X, phi, mode="rack")
            for text in words:
                w = parse_word(text)
                ys = tuple(rng.randrange(X.order) for _ in range(w.letters))
                L = identity_cycle(X, w, Assignment(rng.randrange(X.order), ys))
                assert evaluate_cocycle(phi, L) == 0


def test_evaluate_cocycle(dih3):
    zero = CocycleTable(modulus=3, values=((0,) * 3,) * 3)
    L = identity_cycle(dih3, parse_word("aa"), Assignment(0, (1,)))
    assert evaluate_cocycle(zero, L) == 0
    with pytest.raises(DegreeMismatch):
        evaluate_cocycle(zero, FormalChain.of((0, 1, 2)))
    # integer-coefficient pairing
    phi = CocycleTable(modulus=0, values=((0, 5, 0), (0, 0, 0), (0, 2, 0)))
    assert evaluate_cocycle(phi, L) == 5 + 2


def test_nonvanishing_cocycle_detected(dih3):
    # rack-mode space contains members with nonzero value on some cycle
    sp = cocycle_space(dih3, 3, mode="rack")
    L = identity_cycle(dih3, parse_word("aa"), Assignment(0, (1,)))
    values = {evaluate_cocycle(m, L) for m in sp.members(limit=10 ** 6)} \
        if sp.size <= 10 ** 6 else None
    if values is not None:
        assert 0 in values
        # constant cochains are rack cocycles with value k * length on cycles
        const1 = CocycleTable(modulus=3, values=((1,) * 3,) * 3)
        assert cocycle_condition_holds(dih3, const1, mode="rack")
        assert evaluate_cocycle(const1, L) == 2


def test_homology_regression_pins(dih3, gf4, az52, az53):
    """Invariant-factor values for the corpus, frozen after two-route
    verification; the third-degree quotient groups are the classical
    torsion witnesses for these tables."""
    def groups(X):
        return (str(homology(X, "quandle", 2)), str(homology(X, "rack", 2)),
                str(homology(X, "quandle", 3)))

    assert groups(dih3) == ("0", "Z", "Z_3")
    assert groups(gf4) == ("Z_2", "Z ⊕ Z_2", "Z_2 ⊕ Z_4")
    assert groups(az52) == ("0", "Z", "0")
    assert groups(az53) == ("0", "Z", "0")


def test_rack_and_degenerate_pins_that_need_the_tor_term(gf4):
    """Direct elimination of the rack and degenerate tuple complexes gave
    these groups; without the Tor sum S4 degenerate H_6 would read
    Z + Z_2^19 + Z_4^5."""
    def group(X, flavour, degree):
        h = homology(X, flavour, degree)
        return h.free_rank, dict(collections.Counter(h.torsion))

    assert group(gf4, "rack", 6) == (1, {2: 29, 4: 7})
    assert group(gf4, "degenerate", 6) == (1, {2: 20, 4: 5})
    assert group(dihedral(5), "rack", 5) == (1, {5: 4})
    assert group(dihedral(5), "degenerate", 5) == (1, {5: 3})


def test_rack_and_degenerate_groups_of_a_quandle_eliminate_no_own_complex(
        gf4, monkeypatch):
    """With ChainComplex.smith made to raise for every flavour but quandle,
    the rack and degenerate groups of dihedral(3) and S4 at degrees 1..4
    still answer, and equal the full boundary route."""
    smith = ChainComplex.smith

    def quandle_only(cx, *args):
        if cx.complex != "quandle":
            raise AssertionError(f"a {cx.complex} complex was eliminated")
        return smith(cx, *args)

    monkeypatch.setattr(ChainComplex, "smith", quandle_only)
    for X in (dihedral(3), gf4):
        for flavour in ("rack", "degenerate"):
            for degree in range(1, 5):
                assert homology(X, flavour, degree) == \
                    full_boundary_homology(X, flavour, degree), \
                    (X.order, flavour, degree)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 720), max_size=24))
def test_invariant_factor_merge_matches_the_prime_power_parts(orders):
    """The merge returns a divisibility chain of factors above 1, from the
    least, with the prime-power parts of its input."""
    chain = _invariant_factors(orders)
    assert all(d > 1 for d in chain)
    assert all(b % a == 0 for a, b in zip(chain, chain[1:]))
    assert _prime_powers(chain) == _prime_powers(orders)


def test_quandle_h2_two_routes_gf4(gf4):
    route_a = homology(gf4, "quandle", 2)
    b2 = boundary_matrix(gf4, "rack", 2)
    b3 = boundary_matrix(gf4, "rack", 3)
    dim2 = len(b2.col_basis)
    kern = kernel_basis([list(r) for r in b2.matrix])
    lat = lattice_from_rows(kern, dim2)
    cols = [[b3.matrix[i][j] for i in range(dim2)]
            for j in range(len(b3.col_basis))]
    for x in range(gf4.order):
        vec = [0] * dim2
        vec[b2.col_basis.index((x, x))] = 1
        cols.append(vec)
    coord_cols = []
    for v in cols:
        coords = lat.coordinates(sparse(v))
        assert coords is not None
        coord_cols.append(coords)
    pres = [list(row) for row in zip(*coord_cols)]
    snf = smith_normal_form(*sparse_rows(pres))
    free = len(kern) - snf.rank
    torsion = tuple(d for d in snf.invariant_factors if d > 1)
    assert (route_a.free_rank, route_a.torsion) == (free, torsion) == (0, (2,))


def test_cocycle_space_composite_modulus(dih3):
    """Composite coefficients need the integer Smith route (not field
    elimination); full brute force over 4^9 candidate tables is the oracle,
    on dihedral(3) in both modes and on a rack that is not a quandle in rack
    mode, where quandle mode raises."""
    rack = make_table([[1, 1, 1], [0, 0, 0], [2, 2, 2]], require="rack")
    sizes = {}
    for name, X in (("R3", dih3), ("rack", rack)):
        brute = {"rack": set(), "quandle": set()}
        for vals in itertools.product(range(4), repeat=9):
            tab = CocycleTable(modulus=4,
                               values=(vals[0:3], vals[3:6], vals[6:9]))
            # a quandle cocycle is a rack cocycle with a vanishing diagonal
            if cocycle_condition_holds(X, tab, mode="rack"):
                brute["rack"].add(tab.values)
                if cocycle_condition_holds(X, tab, mode="quandle"):
                    brute["quandle"].add(tab.values)
        for mode, found in brute.items():
            if mode == "quandle" and not X.is_quandle:
                with pytest.raises(IdempotencyFails):
                    cocycle_space(X, 4, mode=mode)
                continue
            sp = cocycle_space(X, 4, mode=mode)
            solved = {m.values for m in sp.members()}
            assert sp.size == len(solved) == len(found)
            assert solved == found
            sizes[name, mode] = sp.size
    assert sizes["R3", "quandle"] == 16


def _hom_order(group, d):
    """|Hom(G, Z_d)| for G = Z^r + sum of Z_t."""
    out = d ** group.free_rank
    for t in group.torsion:
        out *= math.gcd(t, d)
    return out


def test_cocycle_count_universal_coefficients():
    """|Z^2(X; Z_d)| = |Hom(H_2, Z_d)| * d^(n - o): cocycles are
    Hom(C_2 / B_2, Z_d), and C_2 / B_2 is H_2 plus the free group B_1 of rank
    n - o.  Ties cocycle_space and cocycle_orders to homology on every
    corpus table, in both modes, on alexander_zn(13,2) mod 13 and
    alexander_zn(23,5) mod 23, and on alexander_zn(16,5), whose H_2 has
    torsion Z_4^4, mod 2 and 6, where gcd(4, d) is neither 1 nor 4."""
    cases = [(X, d) for _, X in corpus() for d in (2, 3, 4, 6)]
    cases += [(alexander_zn(13, 2), 13), (alexander_zn(23, 5), 23),
              (alexander_zn(16, 5), 2), (alexander_zn(16, 5), 6)]
    for X, d in cases:
        free_part = d ** (X.order - _orbit_count(X))
        for mode in ("rack", "quandle"):
            count = _hom_order(homology(X, mode, 2), d) * free_part
            assert cocycle_space(X, d, mode).size == count, (X.rows, d, mode)
            assert math.prod(cocycle_orders(X, d, mode)) == count, \
                (X.rows, d, mode)


def test_cocycle_space_matches_the_lattice_route():
    """cocycle_space, read off the unit-pivot elimination of the rack or
    quandle d_3 on its spanning columns, and cocycle_orders, read off H_2,
    against the reference route through the image lattice of every column
    of the rack d_3, plus the chains (x, x) in quandle mode, and the Smith
    form with transforms: the same generator orders on every table of
    _lemma_tables, mod 2, 3, 4, 6, 7 and 9, in both modes on a quandle and
    in rack mode on a rack, where quandle mode raises IdempotencyFails from
    both, and the same members wherever there are at most 20,000."""
    compared = 0
    for X in _lemma_tables():
        for d in (2, 3, 4, 6, 7, 9):
            for mode in ("rack", "quandle"):
                if mode == "quandle" and not X.is_quandle:
                    for route in (cocycle_space, cocycle_orders):
                        with pytest.raises(IdempotencyFails):
                            route(X, d, mode)
                    continue
                space = cocycle_space(X, d, mode)
                ref = lattice_cocycle_space(X, d, mode)
                assert (space.orders, space.size) == (ref.orders, ref.size), \
                    (X.rows, d, mode)
                assert cocycle_orders(X, d, mode) == ref.orders, \
                    (X.rows, d, mode)
                if space.size <= 20_000:
                    assert {m.values for m in space.members()} == \
                        {m.values for m in ref.members()}, (X.rows, d, mode)
                    compared += 1
    assert compared >= 300


def test_homology_refusal_message():
    """The tuple guard names the boundary, its tuples, the guard and the
    calls that can raise it: R3 quandle H_11 is refused at d_12."""
    with pytest.raises(SizeGuardExceeded) as err:
        homology(dihedral(3), "quandle", 11)
    assert (err.value.needed, err.value.guard) == (531_441, 200_000)
    assert str(err.value) == ("d_12 is counted at 3^12 = 531441 tuples over "
                              "the guard 200000; only the size_guard "
                              "argument of homology, boundary_matrix and "
                              "ChainComplex raises it")


@pytest.mark.parametrize("mode", ["rack", "quandle"])
def test_cocycle_space_refuses_a_large_d3_before_any_build(mode,
                                                           monkeypatch):
    """cocycle_space and cocycle_orders take no size_guard: on Z59_2 their
    d_3, 59^3 tuples, is refused by the default guard with the message
    homology gives, and no face of it is formed."""
    def no_build(*args):
        raise AssertionError("a boundary was built")
    monkeypatch.setattr(sys.modules["quandlehom.homology"], "block_boundary",
                        no_build)
    for route in (cocycle_space, cocycle_orders):
        with pytest.raises(SizeGuardExceeded) as err:
            route(alexander_zn(59, 2), 2, mode)
        assert (err.value.needed, err.value.guard) == (205_379, 200_000)
        assert str(err.value) == ("d_3 is counted at 59^3 = 205379 tuples "
                                  "over the guard 200000; only the "
                                  "size_guard argument of homology, "
                                  "boundary_matrix and ChainComplex raises "
                                  "it")


@pytest.mark.parametrize("d", [2, 3])
def test_quandle_cocycles_of_a_rack_raise(d):
    """Quandle cocycles are the cochains of the quandle complex, which a
    rack that is not a quandle does not have: quandle mode raises at the
    least x with x*x != x, rack mode answers."""
    X = make_table(PERMUTATION_RACK, require="rack")
    with pytest.raises(IdempotencyFails) as exc:
        cocycle_space(X, d, "quandle")
    assert exc.value.x == 0
    assert cocycle_space(X, d, "rack").size == d ** 3


def test_cocycle_members_limit_message():
    """The members guard counts cocycles, not basis tuples."""
    space = cocycle_space(trivial(3), 2, "rack")
    with pytest.raises(SizeGuardExceeded) as err:
        list(space.members(limit=10))
    assert (err.value.needed, err.value.guard) == (512, 10)
    assert str(err.value) == "512 cocycles exceed the members limit 10"


def test_identity_complex_rank_consistency(dih3, gf4):
    """rank(d_n) + rank(d_{n+1}) <= lattice rank, and the free rank formula
    is non-negative, for identity complexes across words and degrees."""
    from quandlehom.identities import two_letter_universe
    from quandlehom.identities import satisfies as sat
    for X in (dih3, gf4):
        for w in two_letter_universe(4):
            if not sat(X, w).satisfied:
                continue
            for deg in (2, 3):
                h = homology(X, "identity", deg, word=w)
                assert h.free_rank >= 0
                bn = boundary_matrix(X, "identity", deg, word=w)
                bn1 = boundary_matrix(X, "identity", deg + 1, word=w)
                dim = len(bn.col_basis)
                r_n = smith_normal_form(bn.sparse_rows, dim).rank
                r_up = smith_normal_form(bn1.sparse_rows,
                                         len(bn1.col_basis)).rank
                assert r_n + r_up <= dim
                assert h.free_rank == dim - r_n - r_up


def identity_invariants(X, w):
    spans = tuple(subcomplex_generators(X, d, word=w).lattice.rank
                  for d in (2, 3))
    groups = tuple(homology(X, flavour, 2, word=w) for flavour in
                   ("rack", "quandle", "degenerate", "identity"))
    cocycles = tuple((space.size, space.orders)
                     for space in (cocycle_space(X, d, mode)
                                   for d in (2, 3)
                                   for mode in ("rack", "quandle")))
    return spans, groups, cocycles


@pytest.mark.parametrize("X, word", [
    (dihedral(3), "aa"), (alexander_zn(5, 2), "abab"),
], ids=["R3-aa", "Z5_2-abab"])
@settings(max_examples=8, deadline=None, derandomize=True)
@given(data=st.data())
def test_identity_invariants_survive_relabelling(X, word, data):
    """Identity span ranks, H2 of all four flavours and the cocycle counts
    and generator orders mod 2 and 3 in both modes do not depend on how the
    table's elements are labelled, although the lattice echelons do."""
    w = parse_word(word)
    perm = data.draw(st.permutations(range(X.order)))
    assert identity_invariants(relabelled(X, perm), w) \
        == identity_invariants(X, w)


def test_cocycle_space_rejects_a_failing_generator(dih3, monkeypatch):
    """The self-check on the generators raises a named error, which
    `python -O` would not strip as it strips an assert."""
    # the package re-exports a function under the module's name
    hm = importlib.import_module("quandlehom.homology")
    monkeypatch.setattr(hm, "cocycle_condition_holds",
                        lambda X, phi, mode="rack": False)
    with pytest.raises(InvalidCocycle):
        hm.cocycle_space(dih3, 3, mode="quandle")


def test_cocycle_space_rejects_orders_that_h2_does_not_give(dih3,
                                                            monkeypatch):
    """cocycle_space checks the orders of its generators against those that
    cocycle_orders reads off H_2, and names both on a mismatch."""
    hm = importlib.import_module("quandlehom.homology")
    assert hm.cocycle_space(dih3, 3, "quandle").orders == (3, 3)
    monkeypatch.setattr(hm, "cocycle_orders", lambda X, d, mode: (3,))
    with pytest.raises(InvalidCocycle) as err:
        hm.cocycle_space(dih3, 3, mode="quandle")
    assert str(err.value) == ("cocycle_space found orders [3, 3] mod 3 in "
                              "quandle mode, and H_2 gives [3]")


# ------------------------------------------- theorem oracles at degree 3

def _orbit_count(X):
    """Orbits of x -> x*y by union-find on the table."""
    parent = list(range(X.order))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for x in range(X.order):
        for y in range(X.order):
            parent[find(x)] = find(X.rows[x][y])
    return len({find(x) for x in range(X.order)})


def _prime_powers(torsion):
    """Primary decomposition: the sorted prime-power cyclic factors."""
    out = []
    for d in torsion:
        p = 2
        while d > 1:
            q = 1
            while d % p == 0:
                d //= p
                q *= p
            if q > 1:
                out.append(q)
            p += 1
    return sorted(out)


def _primes(d):
    return {q for q in range(2, d + 1)
            if d % q == 0 and all(q % k for k in range(2, q))}


@pytest.mark.parametrize("X", [dihedral(7), alexander_zn(7, 3)],
                         ids=["dihedral(7)", "alexander_zn(7,3)"])
def test_degree3_betti_splitting_and_torsion_primes(X):
    """Betti numbers o^n and o(o-1)^(n-1), the splitting
    H^R = H^Q + H^D, and torsion primes dividing |Inn X|, at degree 3."""
    o = _orbit_count(X)
    inn = len(inner_group(X))
    H = {fl: homology(X, fl, 3) for fl in ("rack", "quandle", "degenerate")}
    assert H["rack"].free_rank == o ** 3
    assert H["quandle"].free_rank == o * (o - 1) ** 2
    assert H["rack"].free_rank == \
        H["quandle"].free_rank + H["degenerate"].free_rank
    assert _prime_powers(H["rack"].torsion) == \
        _prime_powers(H["quandle"].torsion + H["degenerate"].torsion)
    for group in H.values():
        for d in group.torsion:
            assert all(inn % p == 0 for p in _primes(d))


def _rank_mod(mat, p):
    """Rank over Z/p by dense row reduction; entries stay below p^2 < 2^63."""
    A = np.array(mat, dtype=np.int64) % p
    m, n = A.shape
    rank = 0
    for col in range(n):
        nz = np.nonzero(A[rank:, col])[0]
        if not nz.size:
            continue
        k = rank + int(nz[0])
        A[[rank, k]] = A[[k, rank]]
        A[rank] = A[rank] * pow(int(A[rank, col]), -1, p) % p
        below = rank + 1 + np.nonzero(A[rank + 1:, col])[0]
        A[below] = (A[below] - A[below, col][:, None] * A[rank]) % p
        rank += 1
        if rank == m:
            break
    return rank


def test_gf8_quandle_h3_against_ranks_mod_p(oct_b):
    """H^Q_3 of GF8: Betti free rank, 2-primary torsion, and as many
    factors as the rank of d_4 drops from mod 1,000,003 to mod 2."""
    o = _orbit_count(oct_b)
    h3 = homology(oct_b, "quandle", 3)
    assert h3.free_rank == o * (o - 1) ** 2
    assert all(d & (d - 1) == 0 for d in h3.torsion)
    d4 = boundary_matrix(oct_b, "quandle", 4).matrix
    assert len(h3.torsion) == _rank_mod(d4, 1_000_003) - _rank_mod(d4, 2)
    assert h3.torsion


def test_z5_2_abab_degree4_span_rank_and_closure(az52):
    """The degree-4 identity span of abab on alexander_zn(5,2), built from
    the degree-3 span: its rank is the rank of the loop-built generator
    matrix mod two primes, and its boundary lies in the degree-3 span."""
    w = parse_word("abab")
    chains, _ = loop_identity_generators(az52, w, 4)
    dense = np.zeros((len(chains), 5 ** 4), dtype=np.int64)
    for i, chain in enumerate(chains):
        for tup, c in chain.items():
            dense[i, ((tup[0] * 5 + tup[1]) * 5 + tup[2]) * 5 + tup[3]] = c
    ranks = {_rank_mod(dense, p) for p in (1_000_003, 998_244_353)}
    gens = subcomplex_generators(az52, 4, word=w)
    assert ranks == {gens.lattice.rank}
    bm = boundary_matrix(az52, "identity", 4, word=w)
    assert bm.shape == (gens.lower.lattice.rank, gens.lattice.rank)


def test_identity_boundary_is_built_once_and_a_violation_raises_each_call():
    """Both boundary_matrix calls on one span read the same cached rows;
    a span whose boundary leaves the lower span raises on every call."""
    X = dihedral(3)
    w = parse_word("aa")
    first = boundary_matrix(X, "identity", 3, word=w)
    gens = subcomplex_generators(X, 3, word=w)
    again = boundary_matrix(X, "identity", 3, word=w)
    assert first.sparse_rows == again.sparse_rows
    assert first.col_basis is again.col_basis is gens.basis
    assert first.row_basis is gens.lower.basis
    rack = make_table(PERMUTATION_RACK, require="rack")
    for _ in range(2):
        with pytest.raises(IdentityNotSatisfied):
            boundary_matrix(rack, "identity", 2, word=w)
        gens = subcomplex_generators(rack, 2, word=w)
        with pytest.raises(SubcomplexClosureViolated) as exc:
            gens.boundary_rows()
        assert exc.value.chain in gens.basis


def test_builder_rows_are_boundary_matrix_rows_and_spanning_restricts_them():
    """boundary_matrix's rows are copies of the builder's full rows, and the
    builder's spanning rows are the full rows on the spanning columns, at
    their whole-basis positions: every tuple flavour at degrees 1..4 on R3,
    Z5_2 and the permutation rack, where the quandle and degenerate
    flavours raise IdempotencyFails every way, and the identity flavour on
    (R3, aa) and (Z5_2, aaaa) at degrees 2..3, which spans every column."""
    rack = make_table(PERMUTATION_RACK, require="rack")
    cases = [(X, flavour, degree, None)
             for X in (dihedral(3), alexander_zn(5, 2), rack)
             for flavour in ("rack", "quandle", "degenerate")
             for degree in range(1, 5)]
    cases += [(X, "identity", degree, parse_word(text))
              for X, text in ((dihedral(3), "aa"),
                              (alexander_zn(5, 2), "aaaa"))
              for degree in (2, 3)]
    raised = 0
    for X, flavour, degree, word in cases:
        def build(spanning):
            return chain_complex(X, flavour, word).boundary(degree, spanning)
        if flavour in ("quandle", "degenerate") and not X.is_quandle:
            for call in (lambda: boundary_matrix(X, flavour, degree),
                         lambda: build(False), lambda: build(True)):
                with pytest.raises(IdempotencyFails) as exc:
                    call()
                assert exc.value.x == 0
            raised += 1
            continue
        bm = boundary_matrix(X, flavour, degree, word=word)
        rows, dim = build(False)
        assert bm.sparse_rows == tuple(rows) and dim == len(bm.col_basis)
        assert len(rows) == len(bm.row_basis)
        assert not any(a is b for a, b in zip(bm.sparse_rows, rows))
        keep = set(range(dim))
        if flavour in ("rack", "quandle"):
            n = X.order
            tups = digits(np.arange(n ** degree), n, degree)
            keep = set(np.flatnonzero(
                _spanning_columns(X, tups)[_in_basis(tups, flavour)]).tolist())
        span_rows, span_dim = build(True)
        assert span_dim == dim, (X.rows, flavour, degree)
        assert list(span_rows) == [{j: c for j, c in row.items() if j in keep}
                                   for row in rows], (X.rows, flavour, degree)
    assert raised == 8          # the permutation rack's d_1..d_4, twice


def test_identity_homology_of_an_unsatisfied_word_raises():
    """The identity flavour is a subcomplex only for a satisfied word; the
    generators of one degree still reach the closure violation."""
    X = dihedral(3)
    w = parse_word("abab")
    for degree in (1, 2):
        with pytest.raises(IdentityNotSatisfied) as exc:
            homology(X, "identity", degree, word=w)
        assert exc.value.word == w
    with pytest.raises(IdentityNotSatisfied) as exc:
        boundary_matrix(X, "identity", 2, word=w)
    assert exc.value.word == w
    with pytest.raises(SubcomplexClosureViolated):
        subcomplex_generators(X, 2, word=w).boundary_rows()


def test_identity_complex_of_an_unsatisfied_word_is_refused_everywhere():
    """R3 fails ab, and its ab span closes at degree 3 but not at degree 2:
    chain_complex, boundary_matrix and homology refuse the complex at every
    degree alike, where boundary_matrix once returned the degree-3 rows.
    An unknown flavour and an identity flavour without a word are refused
    where the complex is made, too."""
    X = dihedral(3)
    w = parse_word("ab")
    assert subcomplex_generators(X, 3, word=w).boundary_rows()[1] > 0
    calls = [lambda: chain_complex(X, "identity", w)]
    calls += [lambda k=k: boundary_matrix(X, "identity", k, word=w)
              for k in (1, 2, 3)]
    calls += [lambda k=k: homology(X, "identity", k, word=w)
              for k in (1, 2, 3)]
    for call in calls:
        with pytest.raises(IdentityNotSatisfied) as exc:
            call()
        assert exc.value.word == w
    for flavour, word, message in (("bogus", None, "complex must be one"),
                                   ("identity", None, "needs a word")):
        with pytest.raises(ValueError, match=message):
            chain_complex(X, flavour, word)


def _peak_mib(fn):
    """Peak of the Python allocations fn makes, in MiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_rack_boundary_memory_follows_its_nonzeros():
    """The rack d_8 of dihedral(3) is 2,187 x 6,561 with 47,568 nonzeros; a
    dense build would hold 14.3 M cells."""
    assert _peak_mib(lambda: boundary_matrix(dihedral(3), "rack", 8)) < 32
