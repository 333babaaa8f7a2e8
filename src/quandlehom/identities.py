"""Inner identities x*y_tau(1)*y_tau(2)*...*y_tau(k) = x, the product taken
left to right, over a finite letter alphabet.

A word is a surjection tau from the k positions onto m letters, held in
canonical form: ``tau`` lists 0-based letter indices numbered by first
occurrence, so "ba" and "ab" are the same word.  :func:`satisfies_all` is
the one satisfaction kernel; :func:`satisfies` and :func:`scan` call it.  It
reports the first violation of the full scan order over the n^(m+1)
assignments of x and the letter values, but scans only some of them:

Lemma.  Every right translation of a rack is an automorphism (Joyce, JPAA
23 (1982)), so the violating assignments form a union of diagonal
Inn-orbits, and the least violation has y_1 at the minimum of its
Inn-orbit.  Fix such a y_1.  In every rack R_(a*a) = R_a, and a word's
value x*w depends on its letters only through their translations.  So
applying R_(y_1) diagonally to a violation, and then putting y_1 back in
place of y_1*y_1, gives a violation with the same y_1 and the other
variables moved by R_(y_1): the least one has y_2 least on its cycle of
R_(y_1).  This needs no y_1*y_1 = y_1, so racks that are not quandles are
scanned exactly.

So y_1 runs over the orbit minima, y_2 over those cycle minima
(``core.orbit_cycle_minima``), and y_3..y_m and x over every element; the
first violation found is the full scan's first, with the same position.
The words of a list that share a letter count share the scan, and the
composites of their common prefixes.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .core import QuandleTable, digits, orbit_cycle_minima, orbit_minima
from .errors import EmptyWord, NonLetterCharacter

_SCAN_CHUNK = 1 << 16
_DECIDE_CELLS = 1 << 13     # composites held for one decision step


@dataclass(frozen=True)
class Word:
    """Canonical inner-identity word; tau holds 0-based letter indices."""

    tau: tuple[int, ...]

    def __post_init__(self):
        if not self.tau:
            raise EmptyWord("word must have at least one letter")
        top = -1
        for t in self.tau:
            if t > top + 1 or t < 0:
                raise ValueError(f"tau {self.tau!r} is not canonical")
            top = max(top, t)

    @property
    def length(self) -> int:
        return len(self.tau)

    @property
    def letters(self) -> int:
        return max(self.tau) + 1

    @property
    def text(self) -> str:
        return "".join(chr(ord("a") + t) for t in self.tau)

    def __str__(self) -> str:
        return self.text

    def __repr__(self) -> str:
        return f"Word({self.text!r})"

    @staticmethod
    def canonical(seq: Sequence[int]) -> "Word":
        """Renumber arbitrary letter indices by first occurrence."""
        mapping: dict[int, int] = {}
        tau = []
        for v in seq:
            if v not in mapping:
                mapping[v] = len(mapping)
            tau.append(mapping[v])
        return Word(tuple(tau))

    def letter_counts(self) -> list[int]:
        counts = [0] * self.letters
        for t in self.tau:
            counts[t] += 1
        return counts

    def repeat(self, times: int) -> "Word":
        return Word(self.tau * times)


def parse_word(text: str) -> Word:
    """Parse a lowercase word like "abab" into canonical form."""
    if not text:
        raise EmptyWord("empty word")
    for ch in text:
        if not "a" <= ch <= "z":
            raise NonLetterCharacter(ch)
    return Word.canonical([ord(ch) - ord("a") for ch in text])


@dataclass(frozen=True)
class Assignment:
    """Values for x and the m letters y_1..y_m."""

    x: int
    ys: tuple[int, ...]


@dataclass(frozen=True)
class SatisfactionReport:
    satisfied: bool
    witness: Optional[Assignment]
    tuples_checked: int


def satisfies(X: QuandleTable, w: Word) -> SatisfactionReport:
    """Test x*w = x, reporting the first violation in the full scan order;
    the one-word case of :func:`satisfies_all`."""
    return satisfies_all(X, [w])[0]


def satisfies_all(X: QuandleTable,
                  words: Sequence[Word]) -> list[SatisfactionReport]:
    """Test x*w = x for every word of a list, one report per word in input
    order, each the first violation in the full scan order.

    The full order runs over all n^(m+1) assignments, letter tuples
    lexicographically with x fastest.  By the lemma in the module docstring
    the least violation has y_1 at an Inn-orbit minimum and, where
    y_1*y_1 = y_1, y_2 least on its cycle of R_(y_1).  Only those (y_1, y_2)
    are scanned (``core.orbit_cycle_minima``), with y_3..y_m and x over
    every element in the same order, so the witness is the full order's
    first violation and ``tuples_checked`` is its position there (n^(m+1)
    when the word holds).

    Words with the same letter count m scan the same letter tuples in the
    same blocks.  Within a block the composites of right translations are
    formed over the trie of the words' tau prefixes: each trie node is one
    flat gather from the transposed table, shared by every word under it.
    The undecided words of a block are decided together: their composites
    are gathered into one array of at most ``_DECIDE_CELLS`` cells, or one
    word's when that is larger, compared with the identity in one step, and
    each word's first violation is its first mismatch there.  Subtrees with
    no undecided word are skipped, and the scan of a letter count stops once
    every one of its words is decided.
    """
    by_letters: dict[int, set[tuple[int, ...]]] = {}
    for w in words:
        by_letters.setdefault(w.letters, set()).add(w.tau)
    reports: dict[tuple[int, ...], SatisfactionReport] = {}
    for m, taus in by_letters.items():
        reports.update(_scan_prefix_trie(X, m, taus))
    return [reports[w.tau] for w in words]


def _scan_prefix_trie(X: QuandleTable, m: int,
                      taus: set[tuple[int, ...]]) -> dict:
    """Reports for distinct words on exactly m letters, keyed by tau."""
    n = X.order
    Rf = X.np_table.T.ravel()     # Rf[y*n + x] = x*y
    target = np.arange(n, dtype=np.int64)
    # the scanned values of y_1, or of (y_1, y_2) as y_1*n + y_2, each
    # followed by every value of the other letters
    if m == 1:
        heads, inner = orbit_minima(X), 1
    else:
        heads, inner = orbit_cycle_minima(X), n ** (m - 2)
    total = len(heads) * inner
    block = max(1, _SCAN_CHUNK // max(1, n))
    children: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    under: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for tau in taus:
        for k in range(1, len(tau) + 1):
            if tau[:k] not in under:
                under[tau[:k]] = []
                children.setdefault(tau[:k - 1], []).append(tau[:k])
            under[tau[:k]].append(tau)
    undecided = set(taus)
    reports = {}

    def decide(held, nodes, ys, idx):
        # each word's first mismatch in its composites, rows then x: the
        # argmax of its flattened comparison, a mismatch when nonzero or
        # when the first cell is one
        bad = (held != target).reshape(len(nodes), -1)
        first = bad.argmax(axis=1).tolist()
        for node, f, at0 in zip(nodes, first, bad[:, 0].tolist()):
            if f or at0:
                r, x = divmod(f, n)
                witness = Assignment(x=x, ys=tuple(ys[r].tolist()))
                reports[node] = SatisfactionReport(
                    False, witness, int(idx[r]) * n + x + 1)
                undecided.discard(node)

    for lo in range(0, total, block):
        hi = min(total, lo + block)
        if inner == 1:
            idx = heads[lo:hi]
        else:
            pos = np.arange(lo, hi, dtype=np.int64)
            idx = heads[pos // inner] * inner + pos % inner
        ys = digits(idx, n, m)
        cols = ys.T[:, :, None] * n     # cols[t] = ys[:, t, None] * n
        slots = min(len(undecided), max(1, _DECIDE_CELLS // ((hi - lo) * n)))
        held = np.empty((slots, hi - lo, n), dtype=np.int64)
        nodes: list[tuple[int, ...]] = []
        stack = [((), target)]
        while stack:
            prefix, comp = stack.pop()
            for node in children.get(prefix, ()):
                if undecided.isdisjoint(under[node]):
                    continue
                if node not in undecided:
                    here = Rf[cols[node[-1]] + comp]
                else:
                    if len(nodes) == slots:
                        decide(held, nodes, ys, idx)
                        held, nodes = np.empty_like(held), []
                    # every index is in range; "clip" writes to out unbuffered
                    here = Rf.take(cols[node[-1]] + comp,
                                   out=held[len(nodes)], mode="clip")
                    nodes.append(node)
                stack.append((node, here))
        if nodes:
            decide(held[:len(nodes)], nodes, ys, idx)
        if not undecided:
            break
    for tau in undecided:
        reports[tau] = SatisfactionReport(True, None, n ** (m + 1))
    return reports


@lru_cache(maxsize=65536)
def satisfies_cached(X: QuandleTable, w: Word) -> bool:
    return satisfies(X, w).satisfied


def forces_triviality(w: Word) -> bool:
    """True when some letter occurs exactly once; then only trivial quandles
    can satisfy x*w = x."""
    return any(c == 1 for c in w.letter_counts())


def consecutive_type_bound(w: Word) -> Optional[int]:
    """gcd bound on the type forced by a two-letter word whose second letter
    forms one consecutive run; None when the word is not of that shape."""
    if w.letters != 2:
        return None
    mm = re.fullmatch(r"(a+)(b+)(a*)", w.text)
    if not mm:
        return None
    k = len(mm.group(2))
    return math.gcd(k, w.length - k)


def _restricted_growth(k: int, m: int):
    """All canonical letter sequences of length k using exactly m letters."""
    tau = [0] * k

    def rec(pos: int, top: int):
        if pos == k:
            if top + 1 == m:
                yield tuple(tau)
            return
        # not enough positions left to introduce the missing letters
        if m - 1 - top > k - pos:
            return
        for v in range(min(top + 1, m - 1) + 1):
            tau[pos] = v
            yield from rec(pos + 1, max(top, v))

    yield from rec(0, -1)


def enumerate_words(length: int, letters: int, filter: str = "all") -> list[Word]:
    """Canonical words of a given length on exactly ``letters`` letters.

    filter="nontrivial_candidates" drops words with a single-occurrence letter
    and words whose consecutive-run bound is 1; nothing else is pruned.
    """
    if length < 1 or not 1 <= letters <= length:
        raise ValueError("need length >= 1 and 1 <= letters <= length")
    if letters > 26:
        raise ValueError("letters limited to a-z")
    if filter not in ("all", "nontrivial_candidates"):
        raise ValueError(f"unknown filter {filter!r}")
    out = [Word(t) for t in _restricted_growth(length, letters)]
    if filter == "nontrivial_candidates":
        out = [w for w in out
               if not forces_triviality(w) and consecutive_type_bound(w) != 1]
    return out


def two_letter_universe(max_length: int, filter: str = "all") -> list[Word]:
    """All canonical words on at most two letters up to a length bound."""
    out: list[Word] = []
    for k in range(1, max_length + 1):
        for m in (1, 2):
            if m <= k:
                out.extend(enumerate_words(k, m, filter=filter))
    return out


@dataclass(frozen=True)
class ScanReport:
    """Per-(table, word) satisfaction matrix with per-word totals."""

    words: tuple[Word, ...]
    names: tuple[str, ...]
    matrix: tuple[tuple[bool, ...], ...]   # matrix[i][j]: table i satisfies word j
    counts: tuple[int, ...]                # satisfying tables per word

    def satisfied_by(self, j: int) -> list[str]:
        return [self.names[i] for i in range(len(self.names)) if self.matrix[i][j]]


def scan(corpus: Sequence[QuandleTable], words: Sequence[Word],
         names: Optional[Sequence[str]] = None) -> ScanReport:
    """Satisfaction of every word by every table, in stable input order."""
    words = tuple(words)
    if names is None:
        names = tuple(f"#{i}" for i in range(len(corpus)))
    matrix = tuple(
        tuple(rep.satisfied for rep in satisfies_all(X, words))
        for X in corpus)
    counts = tuple(sum(row[j] for row in matrix) for j in range(len(words)))
    return ScanReport(words=words, names=tuple(names), matrix=matrix,
                      counts=counts)
