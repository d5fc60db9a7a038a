"""Cyclic column decompositions as entry permutations of an n x n matrix.

Index entries of an n x n matrix by k = n*i + j. A first column of n entry
indices (starting with 0) generates a full permutation of Z_{n^2}: column j
holds the j-fold diagonal shifts of the first-column entries, placed j rows
further down. The permutations built this way fix 0 and form a subgroup of
S_{n^2}; the worked n=3 orbit is pinned as a test vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import perms, trees
from .decomposition import _as_labeling, orient
from .errors import MalformedInput, NotBijective, ResourceLimit
from .labeling import Labeling

CLOSURE_CAP = 10**6
ELEMENT_LIST_THRESHOLD = 10_000
# Up to this order, closure checks every product of two elements and
# decides cyclicity; above it, only products with a generator.
PAIRWISE_CHECK_ORDER = 300


@dataclass(frozen=True)
class EntryPermutation:
    """A permutation of matrix entry indices (length n*n, fixes 0)."""

    n: int
    sigma: tuple[int, ...]

    def matrix(self) -> list[list[int]]:
        """Entry index displayed at each position: row i, column j."""
        n = self.n
        return [[self.sigma[n * i + j] for j in range(n)] for i in range(n)]

    def column_entry_sets(self) -> list[set[int]]:
        n = self.n
        return [{self.sigma[n * i + j] for i in range(n)} for j in range(n)]


def diagonal_shift(entry: int, n: int) -> int:
    """(row, col) -> (row+1, col+1), the C_n action on entry indices."""
    r, c = divmod(entry, n)
    return ((r + 1) % n) * n + (c + 1) % n


def sigma_from_first_column(n: int, first_column: Sequence[int]) -> EntryPermutation:
    """Generate the full entry permutation from its first column.

    first_column[i] is the entry displayed at (i, 0); entry 0 must come
    first (the sigma(0)=0 anchor). Column j receives the j-fold diagonal
    shifts, each placed one row below its predecessor.
    """
    first_column = tuple(first_column)
    if len(first_column) != n:
        raise MalformedInput(f"first column must have {n} entries")
    if any(not (0 <= e < n * n) for e in first_column):
        raise MalformedInput(f"entries must lie in Z_{n * n}")
    if len(set(first_column)) != n:
        raise MalformedInput("first column entries must be distinct")
    if first_column[0] != 0:
        raise MalformedInput("first column must start with entry 0 (sigma(0)=0)")

    sigma = [-1] * (n * n)
    for i0, entry in enumerate(first_column):
        cur = entry
        for j in range(n):
            sigma[n * ((i0 + j) % n) + j] = cur
            cur = diagonal_shift(cur, n)
    if sorted(sigma) != list(range(n * n)):
        raise NotBijective(
            "induced entry map repeats an index (first column differences collide)"
        )
    return EntryPermutation(n=n, sigma=tuple(sigma))


def sigma_from_labeled_tree(
    t: trees.FunctionalTree, lab: Labeling | Sequence[int]
) -> EntryPermutation:
    """Entry permutation whose columns are the tree's cyclic shift copies.

    The labeled orientation's edges (x, n+y) map to entries n*x + y. The
    copy containing entry 0 (diagonal shift by minus the root's label) is
    taken as the first column so that sigma(0) = 0 holds.
    """
    lab = _as_labeling(t, lab)
    labeled = trees.conjugate(t, lab.sigma)
    o = orient(labeled)
    n = t.n
    shift = (n - labeled.root) % n
    entries = sorted(
        n * ((x + shift) % n) + (y - n + shift) % n for x, y in o.edges
    )
    return sigma_from_first_column(n, entries)


@dataclass(frozen=True)
class GroupSummary:
    order: int
    elements: tuple[tuple[int, ...], ...] | None
    cyclic: bool | None  # None when too large to decide cheaply
    closed_ok: bool


def closure(generators: Sequence[EntryPermutation]) -> GroupSummary:
    """Breadth-first closure of the generated subgroup of S_{n^2}."""
    if not generators:
        raise MalformedInput("need at least one generator")
    n = generators[0].n
    if any(g.n != n for g in generators):
        raise MalformedInput("generators must share the same n")
    # element_order would never return on a map that is not a bijection
    gens = [perms.check_perm(g.sigma, n * n) for g in generators]
    if any(g[:1] != (0,) for g in gens):
        raise MalformedInput("entry permutation must fix 0")
    ident = perms.identity(n * n)
    seen: set[tuple[int, ...]] = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = perms.compose(g, a)
                if b not in seen:
                    if len(seen) >= CLOSURE_CAP:
                        raise ResourceLimit(f"closure exceeded cap {CLOSURE_CAP}")
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt

    order = len(seen)
    if order > ELEMENT_LIST_THRESHOLD:
        return GroupSummary(order=order, elements=None, cyclic=None, closed_ok=True)
    elements = tuple(sorted(seen))
    closed_ok = all(perms.inverse(a) in seen for a in elements)
    if order <= PAIRWISE_CHECK_ORDER:
        closed_ok = closed_ok and all(
            perms.compose(a, b) in seen for a in elements for b in elements
        )
    else:
        closed_ok = closed_ok and all(
            perms.compose(g, a) in seen for a in elements for g in gens
        )

    def element_order(p: tuple[int, ...]) -> int:
        k, cur = 1, p
        while cur != ident:
            cur = perms.compose(p, cur)
            k += 1
        return k

    cyclic = (
        any(element_order(p) == order for p in elements)
        if order <= PAIRWISE_CHECK_ORDER
        else None
    )
    return GroupSummary(order=order, elements=elements, cyclic=cyclic, closed_ok=closed_ok)
