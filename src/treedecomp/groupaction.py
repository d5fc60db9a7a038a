"""Cyclic column decompositions as entry permutations of an n x n matrix.

Index entries of an n x n matrix by k = n*i + j. A first column of n entry
indices (starting with 0) generates a full permutation of Z_{n^2}: column j
holds the j-fold diagonal shifts of the first-column entries, placed j rows
further down. The permutations built this way fix 0 and form a subgroup of
S_{n^2}; the worked n=3 orbit is pinned as a test vector. `closure` reads
the generated group's order and cyclicity from a stabilizer chain
(deterministic Schreier-Sims), without listing its elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Sequence

from . import perms, trees
from .errors import MalformedInput, NotBijective, ResourceLimit
from .labeling import Labeling, as_labeling, labeled_pairs

CHAIN_CAP = 1_200  # transversal elements a stabilizer chain may store
CHAIN_ENTRY_CAP = 20_000_000  # their entries: elements times the degree
ENTRY_CAP = 2_000_000  # entries sigma_from_first_column may place (n <= 1,414)


@dataclass(frozen=True)
class EntryPermutation:
    """A permutation of matrix entry indices (length n*n, fixes 0)."""

    sigma: tuple[int, ...]

    @property
    def n(self) -> int:
        return math.isqrt(len(self.sigma))

    def matrix(self) -> list[list[int]]:
        """Entry index displayed at each position: row i, column j."""
        n = self.n
        return [[self.sigma[n * i + j] for j in range(n)] for i in range(n)]


def sigma_from_first_column(first_column: Sequence[int]) -> EntryPermutation:
    """Generate the full entry permutation from its first column of n entries.

    first_column[i] is the entry displayed at (i, 0); entry 0 must come
    first (the sigma(0)=0 anchor). Column j receives the j-fold diagonal
    shifts, each placed one row below its predecessor: the j-fold shift of
    the entry at (r, c) under (row, col) -> (row+1, col+1), the C_n action
    on entry indices, is the entry at ((r+j) % n, (c+j) % n).
    """
    first_column = tuple(first_column)
    n = len(first_column)
    if n * n > ENTRY_CAP:
        raise ResourceLimit(f"n = {n} needs {n * n} entries, past the entry cap {ENTRY_CAP}")
    if any(not (0 <= e < n * n) for e in first_column):
        raise MalformedInput(f"entries must lie in Z_{n * n}")
    if len(set(first_column)) != n:
        raise MalformedInput("first column entries must be distinct")
    if first_column[:1] != (0,):
        raise MalformedInput("first column must start with entry 0 (sigma(0)=0)")

    row = [n * (k % n) for k in range(2 * n)]
    col = [k % n for k in range(2 * n)]
    sigma = [-1] * (n * n)
    for i0, entry in enumerate(first_column):
        r, c = divmod(entry, n)
        for j in range(n):
            sigma[row[i0 + j] + j] = row[r + j] + col[c + j]
    if not perms.is_perm(sigma):
        raise NotBijective(
            "induced entry map repeats an index (first column differences collide)"
        )
    return EntryPermutation(tuple(sigma))


def sigma_from_labeled_tree(
    t: trees.FunctionalTree, lab: Labeling | Sequence[int]
) -> EntryPermutation:
    """Entry permutation whose columns are the tree's cyclic shift copies.

    The labeled pairs (x, y) map to entries n*x + y. The copy containing
    entry 0 (diagonal shift by minus the root's label) is taken as the first
    column so that sigma(0) = 0 holds.
    """
    lab = as_labeling(t, lab)
    n = t.n
    shift = (n - lab.sigma[t.root]) % n
    entries = sorted(
        n * ((x + shift) % n) + (y + shift) % n for x, y in labeled_pairs(t, lab.sigma)
    )
    return sigma_from_first_column(entries)


@dataclass(frozen=True)
class GroupSummary:
    order: int
    cyclic: bool
    closed_ok: bool


@dataclass
class _Level:
    """One level of a stabilizer chain: a base point, the strong generators
    (each with its inverse) that fix every earlier base point, and the
    transversal of the base point's orbit under them. fwd[q] maps the base
    point to q, and inv[q] is fwd[q]'s inverse."""

    base: int
    fwd: dict[int, tuple[int, ...]]
    inv: dict[int, tuple[int, ...]]
    gens: list[tuple[tuple[int, ...], tuple[int, ...]]] = field(default_factory=list)


def _sift(levels: list[_Level], g: tuple[int, ...], start: int) -> tuple[tuple[int, ...], int]:
    """Divide g by transversal elements from level `start` on. Return what is
    left and the level whose orbit missed the base point's image (the
    chain's length when every level divided)."""
    for j in range(start, len(levels)):
        inv = levels[j].inv.get(g[levels[j].base])
        if inv is None:
            return g, j
        g = perms.compose(inv, g)
    return g, len(levels)


def _stabilizer_chain(gens: Sequence[tuple[int, ...]], degree: int) -> list[_Level]:
    """A base and strong generating set, by deterministic Schreier-Sims.

    Each (orbit point, strong generator) pair of a level is processed once:
    it reaches a new orbit point or gives a Schreier generator, which is
    sifted from the next level. A residue other than the identity fixes the
    base points above the level where its sift stopped, so it joins the
    strong generators of the levels from the next one down to that level
    (a new level if the sift ran through), and only their pairs with it are
    queued. Transversal elements are never replaced, so a Schreier
    generator that once sifted to the identity still does. When no pair is
    left, Schreier's lemma makes each level's stabilizer the next level's
    group, so the order is the product of the orbit lengths.

    It stores one transversal element per orbit point of each level, and
    raises ResourceLimit past CHAIN_CAP of them (S_m stores m(m+1)/2 - 1) or
    past CHAIN_ENTRY_CAP entries, degree entries each.
    """
    ident = perms.identity(degree)
    levels: list[_Level] = []
    todo: list[tuple[int, int, tuple[int, ...], tuple[int, ...]]] = []

    def add(r: tuple[int, ...], first: int, last: int) -> None:
        r_inv = perms.inverse(r)
        for m in range(first, last + 1):  # the deepest level's pairs pop first
            if m == len(levels):
                b = next(i for i, v in enumerate(r) if i != v)
                levels.append(_Level(b, {b: ident}, {b: ident}))
            levels[m].gens.append((r, r_inv))
            todo.extend((m, p, r, r_inv) for p in levels[m].fwd)

    for g in gens:
        r, j = _sift(levels, g, 0)
        if r != ident:
            add(r, 0, j)
        while todo:
            m, p, s, s_inv = todo.pop()
            lvl = levels[m]
            sp = perms.compose(s, lvl.fwd[p])
            q = s[p]
            if q not in lvl.fwd:
                stored = sum(len(level.fwd) for level in levels)
                if stored >= CHAIN_CAP:
                    raise ResourceLimit(f"the chain outgrew {CHAIN_CAP} transversal elements")
                if (stored + 1) * degree > CHAIN_ENTRY_CAP:
                    raise ResourceLimit(f"the chain outgrew {CHAIN_ENTRY_CAP} entries")
                lvl.fwd[q], lvl.inv[q] = sp, perms.compose(lvl.inv[p], s_inv)
                todo.extend((m, q, t, t_inv) for t, t_inv in lvl.gens)
                continue
            r, j = _sift(levels, perms.compose(lvl.inv[q], sp), m + 1)
            if r != ident:
                add(r, m + 1, j)
    return levels


def _perm_order(p: Sequence[int]) -> int:
    """The lcm of the cycle lengths."""
    lengths, seen = set(), bytearray(len(p))
    for start in range(len(p)):
        if seen[start]:
            continue
        length, j = 0, start
        while not seen[j]:
            seen[j], j, length = 1, p[j], length + 1
        lengths.add(length)
    return math.lcm(*lengths)


def closure(generators: Sequence[EntryPermutation]) -> GroupSummary:
    """Order, cyclicity and a closure check of the generated subgroup of
    S_{n^2}, from its stabilizer chain.

    The group is cyclic iff the generators commute pairwise and the lcm of
    their orders (an abelian group's exponent) equals the order. closed_ok
    is checked apart from how the chain was built: every generator and
    every product of two generators must sift to the identity. A repeated
    generator counts once, and each product is sifted or compared as it is
    made, so at most two are held at once.
    """
    if not generators:
        raise MalformedInput("need at least one generator")
    n = generators[0].n
    if any(g.n != n for g in generators):
        raise MalformedInput("generators must share the same n")
    gens = list(dict.fromkeys(perms.check_perm(g.sigma, n * n) for g in generators))
    if any(g[:1] != (0,) for g in gens):
        raise MalformedInput("entry permutation must fix 0")
    levels = _stabilizer_chain(gens, n * n)
    order = math.prod(len(lvl.fwd) for lvl in levels)
    ident = perms.identity(n * n)
    products = (perms.compose(a, b) for a in gens for b in gens)
    closed_ok = all(_sift(levels, p, 0)[0] == ident for p in chain(gens, products))
    pairs = ((a, b) for i, a in enumerate(gens) for b in gens[:i])
    commute = all(perms.compose(a, b) == perms.compose(b, a) for a, b in pairs)
    cyclic = commute and math.lcm(*map(_perm_order, gens)) == order
    return GroupSummary(order=order, cyclic=cyclic, closed_ok=closed_ok)
