import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (full_order_scan, loop_satisfies, naive_group_exponent,
                     naive_inner_group, naive_is_medial, naive_satisfies,
                     orbit, relabelled, word_permutation_holds)
from quandlehom.core import (group_exponent, inner_group, is_connected,
                             is_medial, make_table, orbit_cycle_minima,
                             orbit_minima, product, quandle_type)
from quandlehom.identities import (_SCAN_CHUNK, Word, consecutive_type_bound,
                                   enumerate_words, forces_triviality,
                                   parse_word, satisfies, satisfies_all,
                                   scan, two_letter_universe)
from quandlehom.constructions import (alexander_poly, alexander_zn, dihedral,
                                      enumerate_connected, trivial)
from quandlehom.errors import EmptyWord, NonLetterCharacter, QuandleError
from quandlehom.shell import corpus


def test_parse_word():
    w = parse_word("aa")
    assert w.tau == (0, 0) and w.length == 2 and w.letters == 1
    w = parse_word("abab")
    assert w.tau == (0, 1, 0, 1) and w.length == 4 and w.letters == 2
    assert parse_word("ba") == parse_word("ab")
    assert parse_word("cacb").text == "abac"


def test_parse_word_errors():
    with pytest.raises(EmptyWord):
        parse_word("")
    with pytest.raises(NonLetterCharacter):
        parse_word("aB")
    with pytest.raises(ValueError):
        Word((1, 0))        # not first-occurrence canonical


def test_satisfies_examples(dih3, az52):
    rep = satisfies(dih3, parse_word("aa"))
    assert rep.satisfied and rep.witness is None and rep.tuples_checked == 9
    rep = satisfies(az52, parse_word("abab"))
    assert rep.satisfied and rep.tuples_checked == 125
    rep = satisfies(dih3, parse_word("abab"))
    assert not rep.satisfied and rep.witness is not None


def test_witness_violates_and_is_first(dih3):
    w = parse_word("abab")
    rep = satisfies(dih3, w)
    x, ys = rep.witness.x, rep.witness.ys
    assert product(dih3, x, [ys[t] for t in w.tau]) != x
    # earlier assignments in (ys lexicographic, x fastest) order all hold
    count = 0
    for cand in itertools.product(range(3), repeat=2):
        for xv in range(3):
            if (cand, xv) == (ys, x):
                assert rep.tuples_checked == count + 1
                return
            assert product(dih3, xv, [cand[t] for t in w.tau]) == xv
            count += 1
    pytest.fail("witness not reached in scan order")


def test_satisfies_matches_naive(dih3, az52, gf4, triv2):
    words = [parse_word(s) for s in
             ("a", "aa", "ab", "aba", "abb", "abab", "aabb", "ababa",
              "abc", "aabcc", "abcabc")]
    for X in (dih3, az52, gf4, triv2):
        for w in words:
            assert satisfies(X, w).satisfied == naive_satisfies(X, w)


def test_permutation_formulation_agrees(dih3, az52):
    rng = random.Random(5)
    words = [parse_word(s) for s in ("aa", "abab", "aabb", "ababab")]
    for X in (dih3, az52):
        for w in words:
            for _ in range(6):
                ys = tuple(rng.randrange(X.order) for _ in range(w.letters))
                direct = all(product(X, x, [ys[t] for t in w.tau]) == x
                             for x in range(X.order))
                assert word_permutation_holds(X, w, ys) == direct


def test_renaming_invariance(dih3, az52):
    rng = random.Random(11)
    for X in (dih3, az52):
        for _ in range(15):
            k = rng.randint(1, 6)
            m = rng.randint(1, min(3, k))
            raw = [rng.randrange(m) for _ in range(k)]
            w1 = Word.canonical(raw)
            relabel = list(range(m))
            rng.shuffle(relabel)
            w2 = Word.canonical([relabel[t] for t in raw])
            assert satisfies(X, w1).satisfied == satisfies(X, w2).satisfied


def test_forces_triviality():
    assert forces_triviality(parse_word("ab"))
    assert forces_triviality(parse_word("a"))
    assert not forces_triviality(parse_word("aa"))
    assert not forces_triviality(parse_word("aabab"))


def test_single_occurrence_letter_forces_trivial_tables(dih3, az52, gf4):
    # satisfied single-occurrence words happen only on trivial tables (<= 8)
    for n in (1, 2, 3):
        T = trivial(n)
        for w in two_letter_universe(5):
            assert satisfies(T, w).satisfied
    for X in (dih3, az52, gf4):
        for w in two_letter_universe(5):
            if forces_triviality(w):
                assert not satisfies(X, w).satisfied, w


def test_consecutive_type_bound():
    assert consecutive_type_bound(parse_word("aabb")) == 2
    assert consecutive_type_bound(parse_word("aaabb")) == 1
    assert consecutive_type_bound(parse_word("abab")) is None
    assert consecutive_type_bound(parse_word("abba")) == 2
    assert consecutive_type_bound(parse_word("abbba")) == 1
    assert consecutive_type_bound(parse_word("aaa")) is None   # one letter


def test_type_bound_enforced_on_satisfiers(dih3, az52, gf4, oct_a, oct_b):
    from quandlehom.core import quandle_type
    for X in (dih3, az52, gf4, oct_a, oct_b):
        for w in two_letter_universe(7):
            d = consecutive_type_bound(w)
            if d is not None and satisfies(X, w).satisfied:
                assert quandle_type(X) <= d


def test_enumerate_words_counts():
    assert [w.text for w in enumerate_words(2, 1)] == ["aa"]
    assert len(enumerate_words(5, 2)) == 15
    ten = [w.text for w in enumerate_words(5, 2) if not forces_triviality(w)]
    assert sorted(ten) == sorted(
        "aaabb aabab aabba abaab ababa abbaa aabbb ababb abbab abbba".split())
    assert sorted(w.text for w in
                  enumerate_words(4, 2, filter="nontrivial_candidates")) == \
        ["aabb", "abab", "abba"]
    assert sorted(w.text for w in
                  enumerate_words(5, 2, filter="nontrivial_candidates")) == \
        sorted("aabab abaab ababa ababb abbab".split())


def test_enumerate_words_lexicographic_and_canonical():
    ws = enumerate_words(4, 2)
    taus = [w.tau for w in ws]
    assert taus == sorted(taus)
    assert all(w.tau[0] == 0 for w in ws)
    assert len(set(ws)) == len(ws)


def test_length6_universe_counts():
    ws6 = [w for w in enumerate_words(6, 2)
           if not forces_triviality(w) and consecutive_type_bound(w) is None]
    assert len(ws6) == 16


def test_exponent_repetition_property(dih3, gf4):
    # a word repeated e times holds whenever e is a multiple of the
    # translation-group exponent
    for X in (dih3, gf4):
        e = group_exponent(inner_group(X))
        for base in ("ab", "ba", "a", "abc"[:2]):
            w = parse_word(base).repeat(e)
            assert satisfies(X, w).satisfied


def test_scan(dih3, az52, triv2):
    words = [parse_word("aa"), parse_word("abab"), parse_word("ab")]
    rep = scan([dih3, az52, triv2], words, names=["d3", "a52", "t2"])
    assert rep.matrix[0] == (True, False, False)
    assert rep.matrix[1] == (False, True, False)
    assert rep.matrix[2] == (True, True, True)
    assert rep.counts == (2, 2, 1)
    assert rep.satisfied_by(1) == ["a52", "t2"]


def test_scan_polynomial_order8_length7(oct_a, oct_b):
    sat_a = sorted(w.text for w in enumerate_words(7, 2)
                   if satisfies(oct_a, w).satisfied)
    sat_b = sorted(w.text for w in enumerate_words(7, 2)
                   if satisfies(oct_b, w).satisfied)
    assert sat_a == sorted(
        "aabbaba abbabaa ababbba aababbb aaabbab abaaabb abbbaab".split())
    assert sat_b == sorted(
        "aababba abbbaba ababbaa aabbbab aaababb abaabbb abbaaab".split())


def test_satisfies_fuzz_against_naive():
    """Random words on every connected quandle through order 6 plus two
    group-based quandles, checked against the plain-loop oracle."""
    import itertools as it
    from quandlehom.constructions import conjugation

    tables = []
    for n in range(3, 7):
        tables.extend(enumerate_connected(n))
    perms = sorted(it.permutations(range(3)))
    perms.remove((0, 1, 2))
    perms = [(0, 1, 2)] + perms
    idx = {p: i for i, p in enumerate(perms)}
    tables.append(conjugation(
        [[idx[tuple(p[q[i]] for i in range(3))] for q in perms]
         for p in perms]))
    rng = random.Random(123)
    words = []
    for _ in range(25):
        k = rng.randint(1, 6)
        m = rng.randint(1, min(3, k))
        words.append(Word.canonical([0] + [rng.randrange(m)
                                           for _ in range(k - 1)]))
    for X in tables:
        for w in words:
            assert satisfies(X, w).satisfied == naive_satisfies(X, w), \
                (X.rows, w.text)


def disjoint_union(X, Y):
    """X on 0..n-1 and Y after it, each acting trivially on the other."""
    n, k = X.order, Y.order
    return make_table(
        [list(X.rows[x]) + [x] * k for x in range(n)]
        + [[x] * n + [n + v for v in Y.rows[x - n]] for x in range(n, n + k)])


# the rack x*y = 1-x on {0, 1} beside the non-medial type-4 connected
# quandle of order 6: the word aa and mediality fail only off the orbit of 0
P2_Q6 = disjoint_union(make_table([[1, 1], [0, 0]]), next(
    Q for Q in enumerate_connected(6) if quandle_type(Q) == 4))


def test_witness_beyond_the_first_orbit():
    w = parse_word("aa")
    rep = satisfies(P2_Q6, w)
    assert rep.witness.ys == (2,)
    assert (rep.satisfied, (rep.witness.x, rep.witness.ys),
            rep.tuples_checked) == full_order_scan(P2_Q6, w)
    assert is_medial(P2_Q6) is naive_is_medial(P2_Q6) is False


# the permutation rack x*y = s(x) for s = (0 1)(2 3 4): no element is
# idempotent, and every translation has cycles of two lengths
PERMUTATION_RACK = make_table([[s] * 5 for s in (1, 0, 3, 4, 2)])


def every_rack(n):
    """Every rack on 0..n-1, its columns running over all permutations."""
    out = []
    for cols in itertools.product(itertools.permutations(range(n)), repeat=n):
        try:
            out.append(make_table([[c[x] for c in cols] for x in range(n)]))
        except QuandleError:
            pass
    return out


def twisted(X, pi):
    """(x, s)*(y, t) = (x*y, pi(s)) on pairs (x, s) numbered x*k + s, for a
    permutation pi of 0..k-1: a rack, where (x, s)*(x, s) != (x, s)
    whenever pi(s) != s."""
    k = len(pi)
    return make_table([[X.rows[x][y] * k + pi[s] for y in range(X.order)
                        for _ in range(k)]
                       for x in range(X.order) for s in range(k)])


# corpus, connected quandles, disconnected quandles, racks that are not
# quandles, and a trivial quandle: the orbit- and cycle-minimum scans must
# match the full-order loops on every one of them; last come every rack of
# order <= 3 and six twisted racks, 15 of these 22 not quandles
ORBIT_TABLES = (
    [X for _, X in corpus()]
    + [X for n in range(1, 6) for X in enumerate_connected(n)]
    + [dihedral(4), dihedral(6), alexander_zn(8, 3),
       make_table([[1, 1, 1], [0, 0, 0], [2, 2, 2]]), trivial(4), P2_Q6,
       alexander_zn(13, 2), alexander_poly(2, (1, 1, 0, 1), (0, 1)),
       dihedral(9), PERMUTATION_RACK]
    + [X for n in (1, 2, 3) for X in every_rack(n)]
    + [twisted(dihedral(3), (1, 0)), twisted(dihedral(3), (1, 2, 0)),
       twisted(trivial(2), (1, 2, 0)), twisted(trivial(3), (1, 0)),
       twisted(make_table([[1, 1, 1], [0, 0, 0], [2, 2, 2]]), (1, 0)),
       twisted(alexander_poly(2, (1, 1, 1), (0, 1)), (1, 0))])

# the benchmark's census words, and every 3-letter word of length 4
SWEEP_WORDS = ([parse_word("abab")]
               + [w for k in (5, 6, 7)
                  for w in enumerate_words(k, 2, "nontrivial_candidates")]
               + enumerate_words(4, 3))


@pytest.mark.parametrize("index", range(len(ORBIT_TABLES)))
def test_cycle_minimum_scans_match_full_order(index):
    """satisfies_all over the sweep words reports, field by field, what the
    full-order loop reports, and is_medial what the n^4 loop says, on every
    orbit table under its own labels and under one fixed relabelling."""
    X = ORBIT_TABLES[index]
    perm = list(range(X.order))
    random.Random(index).shuffle(perm)
    for Y in (X, relabelled(X, perm)):
        got = [report_fields(rep) for rep in satisfies_all(Y, SWEEP_WORDS)]
        assert got == [full_order_scan(Y, w) for w in SWEEP_WORDS], Y.rows
        assert is_medial(Y) == naive_is_medial(Y), Y.rows


def test_cycle_minima_without_idempotence():
    """On the permutation rack every R_a is s = (0 1)(2 3 4) and no a has
    a*a = a: b still runs over the cycle minima 0 and 2 of R_a only."""
    assert orbit_cycle_minima(PERMUTATION_RACK).tolist() == [0, 2, 10, 12]
    assert sum(not X.is_quandle for X in ORBIT_TABLES[-22:]) == 15


def test_first_violation_off_the_second_translation_minima():
    """On this relabelling of the type-2 connected quandle of order 6, the
    first violation of ababab has y_2 = 4: least on its cycle of R_0, the
    translation by y_1 = 0, but not on its cycle of R_1."""
    Q = next(Q for Q in enumerate_connected(6) if quandle_type(Q) == 2)
    Y = relabelled(Q, [4, 0, 5, 3, 1, 2])
    assert orbit_cycle_minima(Y).tolist() == [0, 1, 2, 4]
    assert Y.rows[2][1] == 4 and Y.rows[4][1] == 2      # (2 4) in R_1
    rep = satisfies(Y, parse_word("ababab"))
    assert report_fields(rep) == full_order_scan(Y, parse_word("ababab")) \
        == (False, (1, (0, 4)), 26)


def test_words_failing_at_different_rows_of_one_block():
    """aaab first fails at letter tuple (0, 1) and aaaab at (0, 0) on
    dihedral(9): one decision step holds both, and each reports its own
    first violation, though both fail again later in the block."""
    X = dihedral(9)
    words = [parse_word("aaab"), parse_word("aaaab")]
    got = [report_fields(rep) for rep in satisfies_all(X, words)]
    assert got == [full_order_scan(X, w) for w in words] \
        == [(False, (0, (0, 1)), 10), (False, (1, (0, 0)), 2)]
    assert sum(product(X, x, [ys[t] for t in words[0].tau]) != x
               for ys in itertools.product(range(9), repeat=2)
               for x in range(9)) > 1


@st.composite
def short_words(draw):
    k = draw(st.integers(1, 6))
    m = draw(st.integers(1, min(3, k)))
    return Word.canonical(draw(st.lists(st.integers(0, m - 1),
                                        min_size=k, max_size=k)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_orbit_scans_match_full_order(data):
    """satisfies, is_medial, is_connected and orbit_minima agree with plain
    full-order loops on relabelled racks, field by field for satisfies."""
    X = data.draw(st.sampled_from(ORBIT_TABLES))
    Y = relabelled(X, data.draw(st.permutations(range(X.order))))
    assert list(orbit_minima(Y)) == sorted(
        {min(orbit(Y, s)) for s in range(Y.order)})
    assert orbit_minima(Y) is orbit_minima(Y)       # cached on the table
    assert not orbit_minima(Y).flags.writeable
    assert is_connected(Y) == (len(orbit(Y, 0)) == Y.order)
    assert is_medial(Y) == naive_is_medial(Y)
    for w in data.draw(st.lists(short_words(), min_size=1, max_size=4)):
        rep = satisfies(Y, w)
        witness = None if rep.witness is None \
            else (rep.witness.x, rep.witness.ys)
        assert (rep.satisfied, witness, rep.tuples_checked) \
            == full_order_scan(Y, w), (Y.rows, w.text)


def report_fields(rep):
    witness = None if rep.witness is None else (rep.witness.x, rep.witness.ys)
    return rep.satisfied, witness, rep.tuples_checked


def assert_kernel_matches_the_loop(X, words):
    got = [report_fields(rep) for rep in satisfies_all(X, words)]
    assert got == [report_fields(loop_satisfies(X, w)) for w in words], \
        (X.rows, [w.text for w in words])


# corpus tables and the two racks that are not quandles
KERNEL_TABLES = ([X for _, X in corpus()]
                 + [make_table([[1, 1, 1], [0, 0, 0], [2, 2, 2]]), P2_Q6])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_satisfies_all_matches_the_loop(data):
    """One kernel call over a word list reports, word by word, what the
    single-word loop reports: on corpus tables, their relabellings and the
    non-quandle racks, for lists mixing 1-, 2- and 3-letter words with
    duplicates and words that are prefixes of others."""
    X = data.draw(st.sampled_from(KERNEL_TABLES))
    if data.draw(st.booleans()):
        X = relabelled(X, data.draw(st.permutations(range(X.order))))
    words = data.draw(st.lists(short_words(), min_size=1, max_size=8))
    # a prefix of a drawn word, and a repeat of one, ride along
    w = data.draw(st.sampled_from(words))
    k = data.draw(st.integers(1, w.length))
    words += [Word.canonical(w.tau[:k]), data.draw(st.sampled_from(words))]
    assert_kernel_matches_the_loop(X, words)


def test_satisfies_all_on_shared_prefixes_and_duplicates(dih3, az52, gf4):
    texts = ["abab", "ababab", "aa", "abab", "a", "ab", "aab", "abc",
             "abcabc", "abacbc", "aabbcc", "ababab", "abb"]
    words = [parse_word(t) for t in texts]
    for X in (dih3, az52, gf4, P2_Q6):
        assert_kernel_matches_the_loop(X, words)
    assert satisfies_all(dih3, []) == []


def test_satisfies_all_across_scan_blocks():
    """On dihedral(61) the 3-letter words take 31 * 61 letter tuples, y_2 at
    the 31 cycle minima of R_0, against blocks of 1074: the satisfied words
    cross the block boundary beside words decided at once.  Order 47 keeps
    its words to one block, and beside the trivial quandle of order 44,
    where every y_2 is a cycle minimum, the first violations of dihedral(3)
    lie many blocks in."""
    words = [parse_word(t) for t in
             ("abcabc", "abacbc", "aabbcc", "abcbca", "abab", "aabb",
              "abcacb", "aabbccaabbcc")]
    assert len(orbit_cycle_minima(dihedral(61))) * 61 > _SCAN_CHUNK // 61
    for X in (dihedral(61), alexander_zn(47, 5), alexander_zn(47, 46)):
        assert_kernel_matches_the_loop(X, words)
    for X in (dihedral(61), alexander_zn(47, 46)):
        reps = satisfies_all(X, words)
        assert {w.text for w, r in zip(words, reps) if r.satisfied} \
            == {"abcabc", "aabbcc", "aabb", "aabbccaabbcc"}
    Y = disjoint_union(trivial(44), dihedral(3))
    assert_kernel_matches_the_loop(Y, words)
    reps = satisfies_all(Y, words)
    assert any(r.satisfied for r in reps)
    assert any(not r.satisfied and r.tuples_checked > 47 * _SCAN_CHUNK
               for r in reps)


def assert_inner_group_matches_plain_closure(X):
    G = inner_group(X)
    want = naive_inner_group(X)
    assert G.images_array().tolist() == [list(p) for p in want]
    assert G.order == len(want)
    assert group_exponent(G) == naive_group_exponent(want)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_inner_group_matches_plain_closure(data):
    """Inn from the translations of a rack generating set holds the same
    elements, in the same lexicographic order, as the closure over every
    distinct translation, and its exponent is the lcm of element orders."""
    X = data.draw(st.sampled_from(ORBIT_TABLES))
    assert_inner_group_matches_plain_closure(
        relabelled(X, data.draw(st.permutations(range(X.order)))))


@pytest.mark.parametrize("order", range(1, 7))
def test_inner_group_of_connected_quandles(order):
    for X in enumerate_connected(order):
        assert_inner_group_matches_plain_closure(X)


def test_inner_group_of_a_long_cycle():
    """x*y = sigma(x) with sigma a 300-cycle: Inn is cyclic of order 300, and
    labels above one byte pin the lexicographic order of its elements."""
    n = 300
    X = make_table([[(x + 1) % n] * n for x in range(n)])
    assert_inner_group_matches_plain_closure(X)
    G = inner_group(X)
    assert G.images_array()[:, 0].tolist() == list(range(n))
    assert group_exponent(G) == n
    perm = list(range(n))
    random.Random(300).shuffle(perm)
    assert_inner_group_matches_plain_closure(relabelled(X, perm))
