"""Search for and verify oriented beta-labelings, graceful and rho labelings.

A relabeling sigma of a functional tree g induces h = sigma.g.sigma^{-1}
(trees.conjugate) and one signed edge label per vertex,

    signed[w] = (-1)**depth_h(w) * (h(w) - w),

with the root contributing 0 through its loop. The labeling is accepted when
the signed labels hit every element of Z_n exactly once.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from itertools import chain, pairwise, permutations
from math import prod
from operator import itemgetter
from typing import Iterator, NamedTuple, Sequence

from . import perms, trees
from .errors import MalformedInput, ResourceLimit, VerificationFailed

SEARCH_CAP = 16
PHI_CAP = 9
_nodes_expanded = 0  # by every _search in this process; see search_nodes


@dataclass(frozen=True)
class Labeling:
    """A verified beta-labeling: built by verify_beta/find_beta only."""

    sigma: tuple[int, ...]
    signed_labels: tuple[int, ...]


@dataclass(frozen=True)
class BetaFailure:
    """Why a candidate permutation is not a beta-labeling.

    offending pairs (vertex, signed label) name every relabeled vertex whose
    label falls outside Z_n or collides with another vertex's.
    """

    sigma: tuple[int, ...]
    signed_labels: tuple[int, ...]
    duplicated: tuple[int, ...]
    out_of_range: tuple[int, ...]
    offending: tuple[tuple[int, int], ...]


def verify_beta(
    t: trees.FunctionalTree, sigma: Sequence[int]
) -> Labeling | BetaFailure:
    """Return a Labeling when the signed labels saturate Z_n, else a report:
    one sort decides, and the report is built only on failure."""
    n, g = t.n, t.g
    sigma = perms.check_perm(sigma, n)
    signed = [0] * n
    for v, d in enumerate(t.depth):
        s, p = sigma[v], sigma[g[v]]
        signed[s] = s - p if d & 1 else p - s
    if perms.is_perm(signed):
        return Labeling(sigma=sigma, signed_labels=tuple(signed))
    counts = Counter(signed)
    return BetaFailure(
        sigma=sigma,
        signed_labels=tuple(signed),
        duplicated=tuple(sorted(lbl for lbl, c in counts.items() if c > 1 and 0 <= lbl < n)),
        out_of_range=tuple(sorted(lbl for lbl in signed if not 0 <= lbl < n)),
        offending=tuple(
            (w, lbl) for w, lbl in enumerate(signed) if not 0 <= lbl < n or counts[lbl] > 1
        ),
    )


def as_labeling(t: trees.FunctionalTree, lab: Labeling | Sequence[int]) -> Labeling:
    """lab as a verified Labeling of t; MalformedInput if it is not one."""
    sigma = lab.sigma if isinstance(lab, Labeling) else lab
    result = verify_beta(t, sigma)
    if not isinstance(result, Labeling):
        raise MalformedInput(f"sigma {list(sigma)} is not a beta-labeling of the tree")
    return result


def labeled_pairs(t: trees.FunctionalTree, sigma: Sequence[int]) -> list[tuple[int, int]]:
    """The labeled orientation: (sigma(even end), sigma(odd end)) of each
    vertex v's edge to g(v), in vertex order, the root's loop giving
    (sigma(r), sigma(r)). Relabeling keeps depth parity, so this is the
    orientation of the relabeled tree; sigma = range(n) gives the tree's own."""
    s, g = sigma, t.g
    return [(s[v], s[g[v]]) if d % 2 == 0 else (s[g[v]], s[v]) for v, d in enumerate(t.depth)]


class _Plan(NamedTuple):
    """What the search and the orbit expansion know of a tree; see _plan."""

    order: list[int]
    even: list[bool]
    kids: list[list[int]]
    cls: list[int]
    twin: list[int]
    left: list[int]
    families: list[list[tuple[int, int, bool]]]
    all_leaves: list[int]


def _plan(t: trees.FunctionalTree) -> _Plan:
    """The search's plan, all of it read off one children table.

    order: the search's vertex order. The internal vertices (the root and
    every vertex with a child) come first, in BFS order from the root; then
    the leaves, grouped by parent, the families in the order their parents
    were placed and each family in ascending vertex order. even[u]: u's
    depth is even. kids[v]: v's children in ascending vertex order.

    cls[u]: u's subtree class, a small integer (Aho, Hopcroft & Ullman 1974).
    Leaves are class 0; an internal vertex's class is that of the sorted
    tuple of its children's classes, numbered bottom-up in a dict local to
    the call. Two vertices of the tree share a class iff their rooted
    subtrees are isomorphic.

    twin[u]: the previous child of g[u] in ascending vertex order with u's
    class, or n when there is none; the twins chain the runs of isomorphic
    siblings. left[u]: 1 plus the number of twins after u in its run.
    Siblings are placed in ascending vertex order, and twins are both leaves
    or both internal, so each run is placed in ascending order; and of two
    twin subtrees, the one whose root comes first in its run holds the
    earliest position of both.

    families[i]: (parent, leaf count, leaves even) for each leaf family
    checked at the node that places order[i], those whose parent comes
    before i and whose first leaf does not; all_leaves[i], their leaves.
    """
    n, kids = t.n, trees.children(t.g, t.root)
    order = [t.root]
    for v in order:
        order += [u for u in kids[v] if kids[u]]
    inner = len(order)
    cls = [0] * n
    classes: dict[tuple[int, ...], int] = {}
    for v in reversed(order):  # children before parents
        cls[v] = classes.setdefault(tuple(sorted([cls[u] for u in kids[v]])), len(classes) + 1)
    twin, left = [n] * n, [1] * n
    even = [d % 2 == 0 for d in t.depth]
    families: list[list[tuple[int, int, bool]]] = [[] for _ in range(n + 1)]
    all_leaves = [0] * (n + 1)
    for i in range(inner):
        p = order[i]
        after: dict[int, int] = {}  # the next sibling of each class so far
        for u in reversed(kids[p]):
            w = after.get(cls[u])
            if w is not None:
                twin[w], left[u] = u, left[w] + 1
            after[cls[u]] = u
        leaves = [u for u in kids[p] if not kids[u]]
        if leaves:
            family, k = (p, len(leaves), not even[p]), len(leaves)
            for j in range(i + 1, len(order) + 1):
                families[j].append(family)
                all_leaves[j] += k
            order += leaves
    return _Plan(order, even, kids, cls, twin, left, families, all_leaves)


def _search(
    t: trees.FunctionalTree, first: bool
) -> tuple[list[tuple[int, ...]], int]:
    """Backtracking search over label assignments; raw sigma tuples and the
    number of search nodes (partial labelings) expanded.

    Vertices are labeled in _plan's order: the internal vertices root-first
    in BFS order, then the leaves family by family. A non-root vertex's label
    is forced by its parent's label and the chosen edge label (parent - e on
    the even partition, parent + e on the odd one). Edge labels are tried
    largest-first, root labels in ascending order. Returns the first
    labeling found when first is set, else one labeling per orbit of the
    rooted automorphism group, in search order. The order is fixed by the
    tree's vertex numbering alone; find_beta's seed renumbers the tree to
    vary it.

    The state is three bitmasks over Z_n: free_edge (bit e: edge label e is
    unused), free_label (bit l: label l is unused) and free_mirror (bit
    n-1-l: label l is unused). A vertex u with parent label p may take edge
    label e iff bit e of

        free_edge & below[edge[twin[u]]] & (free_mirror >> (n-1-p) if u is
        even else free_label >> p),

    its valid mask, where below[k] = (1 << k) - 1: shifting puts the
    freedom of p - e (or p + e) at bit e, and labels outside Z_n shift in as
    zero bits.

    The edge labels along each run of isomorphic sibling subtrees (siblings
    of one subtree class, chained by _plan's twin pointers) must decrease.
    The rooted automorphisms Aut_r (the swaps of isomorphic sibling subtrees,
    which keep depth parities and parent labels) act freely on the
    beta-labelings by sigma -> sigma.alpha, as sigma is a bijection. The edge
    labels of a beta-labeling are pairwise distinct, so each orbit has
    exactly one member whose twin runs decrease: the search finds one
    labeling per orbit, and |Phi| = |found| * |Aut_r|. The first labeling
    found is the unpruned search's first in the same order: that search
    meets the member of its orbit with decreasing edge labels first, as of
    two twin subtrees the earlier one holds the earliest position of both,
    and largest-first puts a larger label there ahead of any swap of it.

    Count rule: left[u] is 1 plus the number of twins after u in its run.
    Those twins hang from u's parent at u's parity and need distinct edge
    labels below e, and every label they can take is a bit of u's valid mask
    below e (placing vertices only clears bits). So e is tried only if the
    valid mask has at least left[u] - 1 bits below e. Largest-first, the
    bits below e are what is left of the mask once e is taken, so the loop
    stops as soon as fewer than left[u] bits remain.

    Leaf families (Hall's condition): at every node, take each labeled
    parent p whose k leaves are all unplaced. A leaf of p can only take an
    edge label e whose bit is set in

        free_edge & (free_mirror >> (n-1-p) if the leaves are even else
        free_label >> p),

    the family's mask, as its label is forced to p -+ e. The family needs k
    distinct edge labels from its mask, so the mask must hold at least k
    bits; and the families together need as many distinct edge labels as
    they have leaves, all from the union of their masks, which must hold at
    least that many bits (Hall 1935, for the union of all the families).
    Placing vertices only clears bits, so a node that fails either rule has
    no labeling below it.

    Both rules are necessary for a labeling, so they cut only subtrees that
    hold none, and they change no order of search: the results, and the
    first labeling, are those of the search without them.
    """
    n, g = t.n, t.g
    order, even, _, _, twin, left, families, all_leaves = _plan(t)
    below = [(1 << e) - 1 for e in range(n + 1)]
    mirror = n - 1

    label = [-1] * n
    edge = [0] * n + [n]  # each placed vertex's edge label; twin[u] = n bounds nothing
    found: list[tuple[int, ...]] = []
    nodes = 0

    def extend(i: int, free_edge: int, free_label: int, free_mirror: int) -> bool:
        nonlocal nodes
        nodes += 1
        if i == n:
            found.append(tuple(label))
            return first
        fams = families[i]
        if fams:
            union = 0
            for p, k, down in fams:
                lp = label[p]
                mask = free_edge & (
                    free_mirror >> (mirror - lp) if down else free_label >> lp
                )
                if mask.bit_count() < k:
                    return False
                union |= mask
            if union.bit_count() < all_leaves[i]:
                return False
        u = order[i]
        p = label[g[u]]
        down = even[u]
        valid = free_edge & below[edge[twin[u]]] & (
            free_mirror >> (mirror - p) if down else free_label >> p
        )
        need = left[u]
        while valid.bit_count() >= need:
            e = valid.bit_length() - 1
            valid ^= 1 << e
            lu = p - e if down else p + e
            label[u] = lu
            edge[u] = e
            if extend(
                i + 1,
                free_edge ^ 1 << e,
                free_label ^ 1 << lu,
                free_mirror ^ 1 << (mirror - lu),
            ):
                return True
        return False

    everything = below[n]
    for rl in range(n):
        label[t.root] = rl
        # the root loop always carries edge label 0
        if extend(
            1, everything ^ 1, everything ^ 1 << rl, everything ^ 1 << (mirror - rl)
        ) and first:
            break
    # extend refers to itself through its closure; break that cycle so found
    # is freed on return rather than at the next full garbage collection.
    extend = None
    global _nodes_expanded
    _nodes_expanded += nodes
    return found, nodes


def search_nodes() -> int:
    """The search nodes this process has expanded so far, in either mode: a
    caller reads it before and after a search to count that search's work."""
    return _nodes_expanded


def find_beta(
    t: trees.FunctionalTree,
    mode: str = "first",
    seed: int | None = None,
) -> Labeling | None:
    """A beta-labeling by the backtracking search, checked by verify_beta.

    mode must be "first" (Phi, every beta-labeling, is phi_set's). It returns
    one Labeling, or None if the space is exhausted, which would falsify the
    search, not the existence theorem. A seed
    renumbers the tree: with pi = range(n) shuffled by random.Random(seed),
    the search labels conjugate(t, pi) by sigma', and sigma[v] =
    sigma'[pi[v]] has the same signed labels, since renumbering keeps depths.
    The numbering only orders siblings, so a tree where no vertex has two
    children (a path rooted at an end) gets one labeling for every seed.
    """
    if mode != "first":
        raise MalformedInput(f"unknown mode {mode!r}")
    if t.n > SEARCH_CAP:
        raise ResourceLimit(f"n = {t.n} exceeds the search cap {SEARCH_CAP}")
    if seed is None:
        found = _search(t, True)[0]
    else:
        pi = list(range(t.n))
        random.Random(seed).shuffle(pi)
        found = [tuple(s[w] for w in pi) for s in _search(trees.conjugate(t, pi), True)[0]]
    if not found:
        return None
    lab = verify_beta(t, found[0])
    if not isinstance(lab, Labeling):
        raise VerificationFailed(f"search returned a non-beta sigma: {lab}")
    return lab


def _expand_orbits(
    t: trees.FunctionalTree, reps: Sequence[tuple[int, ...]]
) -> Iterator[tuple[int, ...]]:
    """Every sigma.alpha for sigma in reps and alpha in Aut_r, orbit by orbit;
    PhiOrbits.members is its one caller.

    Aut_r is the product, over the runs of isomorphic siblings, of the
    permutations of each run's subtrees. A subtree is listed as a block in
    preorder, children in order of their subtree classes, so the blocks of
    one run line up: isomorphic subtrees have equal multisets of child
    classes, so by induction position j of one block maps to position j of
    another under an isomorphism, and permuting whole blocks is a rooted
    automorphism.
    Runs are applied by depth, shallowest first: runs at one depth move
    disjoint subtrees, and a deeper run fixes every shallower vertex, so each
    alpha is one product of run permutations in that order. (Applying a deep
    run before and after its parent's run would meet some alphas twice.) The
    automorphisms of the last run, the largest of the deepest, are made
    afresh for each orbit and applied as they come, so no orbit is held
    whole: the 8! labelings of the 9-vertex star stream past one at a time.
    """
    plan = _plan(t)
    n, twin = t.n, plan.twin
    chains: dict[int, list[int]] = {}  # each run so far, by its last child
    for u in range(n):
        if twin[u] < n:
            chains[u] = chains.pop(twin[u], [twin[u]]) + [u]
    runs = sorted(chains.values(), key=lambda run: (t.depth[run[0]], len(run)))
    if not runs:
        return iter(reps)
    kids = [sorted(k, key=plan.cls.__getitem__) for k in plan.kids]

    def block(v: int) -> list[int]:
        out, stack = [], [v]
        while stack:
            u = stack.pop()
            out.append(u)
            stack.extend(kids[u])
        return out

    def automorphisms(run: list[int]) -> Iterator[itemgetter]:
        blocks = [block(u) for u in run]
        spots = [v for blk in blocks for v in blk]
        rest = [v for v in range(n) if v not in spots]
        # alpha[spots[i]] is the i-th vertex of the permuted blocks, and
        # alpha fixes the rest: read alpha off that list at each v's index
        index = itemgetter(*perms.inverse(spots + rest))
        for perm in permutations(blocks):
            yield itemgetter(*index((*chain.from_iterable(perm), *rest)))

    inner = [list(automorphisms(run)) for run in runs[:-1]]

    def members() -> Iterator[tuple[int, ...]]:
        for rep in reps:
            orbit = [rep]
            for alphas in inner:
                orbit = [alpha(s) for alpha in alphas for s in orbit]
            for alpha in automorphisms(runs[-1]):
                yield from map(alpha, orbit)

    return members()


@dataclass(frozen=True)
class PhiOrbits:
    """Phi as one beta-labeling per orbit of Aut_r, the rooted tree's
    automorphism group, which acts freely on Phi (see _search): reps are the
    search's results, checked by phi_orbits, and aut is |Aut_r|."""

    tree: trees.FunctionalTree
    reps: tuple[tuple[int, ...], ...]
    aut: int

    @property
    def size(self) -> int:
        return len(self.reps) * self.aut

    def members(self) -> Iterator[tuple[int, ...]]:
        """Every member of Phi, orbit by orbit, each re-checked as it passes: a
        permutation whose n signed labels, sorted, are 0, 1, ..., n - 1. Read
        to its end, the stream must have yielded size members, distinct as the
        representatives lie in distinct orbits, on which Aut_r acts freely."""
        t = self.tree
        n, g, everything = t.n, t.g, list(range(t.n))
        sign = [t.sign(v) for v in range(n)]
        count = 0
        for p in _expand_orbits(t, self.reps):
            signed = sorted([sign[v] * (p[g[v]] - p[v]) for v in range(n)])
            if signed != everything or not perms.is_perm(p):
                raise VerificationFailed(f"search returned a non-beta sigma {list(p)}")
            count += 1
            yield p
        if count != self.size:
            raise VerificationFailed(f"Phi expanded to {count} labelings, not {self.size}")


def phi_orbits(t: trees.FunctionalTree) -> PhiOrbits:
    """The search's one labeling per orbit of Aut_r, checked, and |Aut_r|.

    Each result must pass verify_beta and have decreasing edge labels along
    every run of isomorphic siblings, and they must be distinct, so no two
    lie in one orbit. |Aut_r| is the product of len(run)!, the product of
    left[u] over the vertices."""
    if t.n > PHI_CAP:
        raise ResourceLimit(f"n = {t.n} exceeds the exhaustive cap {PHI_CAP}")
    n, g = t.n, t.g
    reps = _search(t, first=False)[0]
    plan = _plan(t)
    for rep in reps:
        if not isinstance(verify_beta(t, rep), Labeling):
            raise VerificationFailed(f"search returned a non-beta sigma {list(rep)}")
        edge = [abs(rep[v] - rep[g[v]]) for v in range(n)]
        if any(edge[w] <= edge[u] for u, w in enumerate(plan.twin) if w < n):
            raise VerificationFailed(f"search returned {list(rep)}, not its orbit's pick")
    if len(set(reps)) != len(reps):
        raise VerificationFailed("search returned a labeling twice")
    return PhiOrbits(t, tuple(reps), prod(plan.left))


def phi_set(t: trees.FunctionalTree) -> list[tuple[int, ...]]:
    """Phi, every beta-labeling sigma in lexicographic order, as
    PhiOrbits.members re-checks and counts them; they must be distinct."""
    out = sorted(phi_orbits(t).members())
    if any(a == b for a, b in pairwise(out)):
        raise VerificationFailed("Phi expanded to a labeling twice")
    return out


@dataclass(frozen=True)
class GracefulReport:
    ok: bool
    abs_labels: tuple[int, ...]
    duplicated: tuple[int, ...]


def verify_graceful(t: trees.FunctionalTree, sigma: Sequence[int]) -> GracefulReport:
    """True iff the absolute differences |h(v) - v| saturate Z_n."""
    sigma = perms.check_perm(sigma, t.n)
    labels = sorted(abs(sigma[t.g[v]] - sigma[v]) for v in range(t.n))
    duplicated = sorted({a for a, b in zip(labels, labels[1:]) if a == b})
    return GracefulReport(
        ok=not duplicated, abs_labels=tuple(labels), duplicated=tuple(duplicated)
    )
