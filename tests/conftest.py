"""Shared brute-force oracles for the test suite."""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from typing import Iterator, Mapping, Sequence

import numpy as np

from treedecomp import apportionment, certificate, decomposition, labeling, perms, trees
from treedecomp.decomposition import (
    Decomposition,
    Host,
    PartitionReport,
)
from treedecomp.errors import MalformedInput
from treedecomp.groupaction import EntryPermutation
from treedecomp.polynomial import Polynomial, falling_factorial_coeffs


def undirected_edges(t: trees.FunctionalTree) -> frozenset[tuple[int, int]]:
    """The n-1 non-loop edges as sorted pairs."""
    return frozenset((min(v, p), max(v, p)) for v, p in enumerate(t.g) if v != t.root)


def adjacency_by_edges(t: trees.FunctionalTree) -> list[list[int]]:
    """FunctionalTree.adjacency built from the undirected edge list."""
    return [sorted(row) for row in _adjacency(t.n, undirected_edges(t))]


def sibling_leaf_pairs_by_scan(t: trees.FunctionalTree) -> list[tuple[int, int]]:
    """trees.sibling_leaf_pairs by an O(L^2) scan of the ascending leaves."""
    lf = trees.leaves(t)
    return [(a, b) for i, a in enumerate(lf) for b in lf[i + 1 :] if t.g[a] == t.g[b]]


def prufer_decode(seq: tuple[int, ...], n: int) -> list[tuple[int, int]]:
    """Edges of the labeled tree on Z_n with the given Prufer sequence."""
    deg = [1] * n
    for v in seq:
        deg[v] += 1
    edges = []
    ptr = 0
    leaf = -1
    for v in seq:
        if leaf == -1:
            while deg[ptr] != 1:
                ptr += 1
            leaf = ptr
        edges.append((leaf, v))
        deg[v] -= 1
        deg[leaf] -= 1
        if deg[v] == 1 and v < ptr:
            leaf = v
        else:
            leaf = -1
    u = deg.index(1)
    w = deg.index(1, u + 1)
    edges.append((u, w))
    return edges


@lru_cache(maxsize=None)
def prufer_codes(n: int) -> frozenset[bytes]:
    """Canonical codes of every labeled tree on n vertices, deduplicated."""
    if n == 1:
        return frozenset({bytes([0])})
    if n == 2:
        return frozenset({bytes([0, 1])})
    codes = set()
    for seq in product(range(n), repeat=n - 2):
        edges = prufer_decode(seq, n)
        codes.add(trees.canonical_code_of_edges(edges))
    return frozenset(codes)


@lru_cache(maxsize=None)
def catalog(n: int) -> tuple[trees.TreeCatalogEntry, ...]:
    return tuple(trees.enumerate_free_trees(n))


def _centroids_by_sizes(adj: list[list[int]]) -> list[int]:
    """The vertices whose largest remaining component is smallest."""
    n = len(adj)
    parent = [-1] * n
    order = [0]
    for v in order:
        for w in adj[v]:
            if w != parent[v]:
                parent[w] = v
                order.append(w)
    size = [1] * n
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    heaviest = [
        max([n - size[v]] + [size[w] for w in adj[v] if w != parent[v]]) for v in range(n)
    ]
    return [v for v in range(n) if heaviest[v] == min(heaviest)]


def _rooted_class(
    adj: list[list[int]], root: int, away: int, classes: dict[tuple[int, ...], int]
) -> tuple[int, int]:
    """(class, |Aut|) of the subtree at root that does not contain away.

    A class is a small integer looked up from the sorted tuple of the
    children's classes (Aho, Hopcroft & Ullman 1974). |Aut| of a rooted
    subtree is the product of its children's, times k! for each class that
    k children share.
    """
    kids = [_rooted_class(adj, c, root, classes) for c in adj[root] if c != away]
    key = tuple(sorted(cls for cls, _ in kids))
    aut = math.prod(a for _, a in kids) * math.prod(
        math.factorial(k) for k in Counter(key).values()
    )
    return classes.setdefault(key, len(classes)), aut


def signature(
    adj: list[list[int]], classes: dict[tuple[int, ...], int]
) -> tuple[tuple[int, ...], int]:
    """(signature, |Aut T|) of the tree T with these adjacency lists, without
    canonical codes.

    T is rooted at its centroid, or, with two centroids, split at the edge
    joining them. The signature is the root's class, or the sorted pair of
    the halves' classes, with classes shared through the classes dict, so two
    trees coded with one dict are isomorphic exactly when their signatures
    are equal. Every automorphism fixes the centroid set; a split tree gains
    the swap of its halves when they have one class.
    """
    centroids = _centroids_by_sizes(adj)
    if len(centroids) == 1:
        cls, aut = _rooted_class(adj, centroids[0], -1, classes)
        return (cls,), aut
    a, b = centroids
    halves = sorted([_rooted_class(adj, a, b, classes), _rooted_class(adj, b, a, classes)])
    swap = 2 if halves[0][0] == halves[1][0] else 1
    return (halves[0][0], halves[1][0]), halves[0][1] * halves[1][1] * swap


def orbit_counts(n: int) -> list[tuple[tuple[int, ...], int]]:
    """(signature, |Aut T|) for every catalog tree T on n vertices, without
    canonical codes or the search plan.

    The labeled trees on Z_n isomorphic to T number n!/|Aut T|, so distinct
    signatures whose counts sum to n^(n-2) (Cayley) show the catalog
    complete and free of duplicates.
    """
    classes: dict[tuple[int, ...], int] = {}
    return [signature(entry.tree.adjacency(), classes) for entry in catalog(n)]


@lru_cache(maxsize=None)
def phi_by_scan(t: trees.FunctionalTree) -> tuple[tuple[int, ...], ...]:
    """Phi by testing all n! permutations in lexicographic order."""
    n, g = t.n, t.g
    sign = [t.sign(v) for v in range(n)]
    out = []
    for p in permutations(range(n)):
        seen = 0
        for v in range(n):
            lbl = sign[v] * (p[g[v]] - p[v])
            if lbl < 0 or lbl >= n:
                break
            bit = 1 << lbl
            if seen & bit:
                break
            seen |= bit
        else:
            out.append(p)
    return tuple(out)


def twins_by_codes(t: trees.FunctionalTree) -> tuple[list[int], list[bytes]]:
    """twin[u], the previous child of g[u] in ascending vertex order whose
    subtree has u's byte-string code, or n when there is none; and every
    vertex's code. The oracle for labeling._plan's twin pointers."""
    n, g = t.n, t.g
    codes = trees._subtree_codes(t.adjacency(), t.root)
    twin = [n] * n
    last_child: dict[tuple[int, bytes], int] = {}
    for u in range(n):
        if u != t.root:
            key = (g[u], codes[u])
            twin[u] = last_child.get(key, n)
            last_child[key] = u
    return twin, codes


def search_order(t: trees.FunctionalTree) -> tuple[list[int], int]:
    """The search's vertex order from its own children table, and the number
    of internal vertices: those in BFS order from the root, then the leaves,
    family by family. The oracle for labeling._plan's order."""
    kids: list[list[int]] = [[] for _ in range(t.n)]
    for v in range(t.n):
        if v != t.root:
            kids[t.g[v]].append(v)
    inner = [t.root]
    for v in inner:
        inner.extend(u for u in kids[v] if kids[u])
    return inner + [u for v in inner for u in kids[v] if not kids[u]], len(inner)


def search_plan_by_codes(t: trees.FunctionalTree) -> dict[str, list]:
    """labeling._plan's order, twin, left, families and all_leaves, built as
    the search built them before subtree classes: from search_order, the
    byte-code twins, and one more pass each for left and the family table."""
    n, g = t.n, t.g
    order, inner = search_order(t)
    even = [d % 2 == 0 for d in t.depth]
    twin = twins_by_codes(t)[0]
    left = [1] * n
    for u in reversed(range(n)):
        if twin[u] < n:
            left[twin[u]] = left[u] + 1
    count = [0] * n
    for v in order[inner:]:
        count[g[v]] += 1
    families: list[list[tuple[int, int, bool]]] = [[] for _ in range(n + 1)]
    all_leaves = [0] * (n + 1)
    first_leaf = inner
    for i in range(inner):
        p = order[i]
        k = count[p]
        if k:
            for j in range(i + 1, first_leaf + 1):
                families[j].append((p, k, not even[p]))
                all_leaves[j] += k
            first_leaf += k
    return {
        "order": order,
        "twin": twin,
        "left": left,
        "families": families,
        "all_leaves": all_leaves,
    }


def unpruned_search(
    t: trees.FunctionalTree, first: bool
) -> tuple[list[tuple[int, ...]], int]:
    """The beta-labeling search without sibling pruning, and its node count.

    labeling._search as it stood before isomorphic siblings were ordered,
    verbatim save for the node counter, the seeded shuffles and the vertex
    order, which it takes from labeling._plan: every ordering of isomorphic
    sibling subtrees is explored, and no leaf family is checked ahead.
    """
    n = t.n
    order = labeling._plan(t).order
    sign = [t.sign(v) for v in range(n)]

    label = [-1] * n
    used_label = [False] * n
    used_edge = [False] * n
    used_edge[0] = True  # the root loop always carries edge label 0
    found: list[tuple[int, ...]] = []
    nodes = 0

    def extend(i: int) -> bool:
        nonlocal nodes
        nodes += 1
        if i == n:
            found.append(tuple(label))
            return first
        u = order[i]
        parent_label = label[t.g[u]]
        candidates = [e for e in range(n - 1, 0, -1) if not used_edge[e]]
        for e in candidates:
            lu = parent_label - e if sign[u] > 0 else parent_label + e
            if 0 <= lu < n and not used_label[lu]:
                label[u], used_label[lu], used_edge[e] = lu, True, True
                if extend(i + 1):
                    return True
                label[u], used_label[lu], used_edge[e] = -1, False, False
        return False

    for rl in range(n):
        label[t.root], used_label[rl] = rl, True
        if extend(1) and first:
            break
        label[t.root], used_label[rl] = -1, False
    extend = None
    return found, nodes


def poly_pow(p: Polynomial, k: int) -> Polynomial:
    """p**k by k products, the oracle for polynomial.reduced_power."""
    out = Polynomial.constant(p.n_vars, 1)
    for _ in range(k):
        out = out * p
    return out


def permute_variables(p: Polynomial, tau: Sequence[int]) -> Polynomial:
    """p with x_i -> x_{tau(i)} substituted in every monomial."""
    out = {}
    for e, c in p.coeffs.items():
        e2 = [0] * p.n_vars
        for i, d in enumerate(e):
            e2[tau[i]] = d
        out[tuple(e2)] = c
    return Polynomial(p.n_vars, out)


def reduce_by_rewriting(p: Polynomial, n: int) -> Polynomial:
    """p modulo the falling factorials by rewriting x_i^n as x_i^n - x_i^(falling n).

    polynomial.reduce_falling_factorial as it stood before the reduced-power
    table, without its rewrite budget: each rewrite lowers one exponent, so
    the loop ends, though the number of rewrites can grow exponentially.
    """
    ff = falling_factorial_coeffs(n)
    replacement = {k: -ff[k] for k in range(n) if ff[k]}
    work = dict(p.coeffs)
    while True:
        hot = None
        for e in work:
            hot_var = next((i for i, d in enumerate(e) if d >= n), None)
            if hot_var is not None:
                hot = (e, hot_var)
                break
        if hot is None:
            break
        e, i = hot
        c = work.pop(e)
        for k, r in replacement.items():
            e2 = list(e)
            e2[i] = e[i] - n + k
            key = tuple(e2)
            s = work.get(key, Fraction(0)) + c * r
            if s:
                work[key] = s
            else:
                work.pop(key, None)
    return Polynomial(p.n_vars, work)


def certificate_by_loops(t: trees.FunctionalTree, f: Sequence[int]) -> int:
    """certificate.eval_certificate as it stood before it multiplied with
    math.prod: each factor by nested loops, stopping at the first zero."""
    n = t.n
    vertex_factor = 1
    for v in range(n):
        for u in range(v):
            vertex_factor *= f[v] - f[u]
        if vertex_factor == 0:
            return 0
    e = [t.sign(v) * (f[t.g[v]] - f[v]) for v in range(n)]
    edge_factor = 1
    for v in range(n):
        for u in range(v):
            edge_factor *= e[v] - e[u]
        if edge_factor == 0:
            return 0
    range_factor = 1
    for ev in e:
        for i in range(1, n):
            range_factor *= ev + i
        if range_factor == 0:
            return 0
    return vertex_factor * edge_factor * range_factor


def lattice_points(n: int, m: int) -> Iterator[tuple[int, ...]]:
    """All maps Z_m -> Z_n as tuples (the full n^m evaluation lattice)."""
    return product(range(n), repeat=m)


def transposition_invariance_sweep(
    t: trees.FunctionalTree, tau: Sequence[int]
) -> tuple[int, ...] | None:
    """First lattice point with certificate(f o tau) != certificate(f), or None.

    Claim I by sweeping the full n^n lattice, as certificate.py did before it
    read Phi's orbit representatives.
    """
    for f in lattice_points(t.n, t.n):
        f_tau = tuple(f[tau[i]] for i in range(t.n))
        if certificate.eval_certificate(t, f_tau) != certificate.eval_certificate(t, f):
            return f
    return None


def nonvanishing_by_permutations(t: trees.FunctionalTree) -> bool:
    """True iff some permutation gives a nonzero certificate.

    Sweeps S_n only: the certificate vanishes off S_n (the vertex-distinctness
    factor), which nonvanishing_on_lattice checks at small n.
    """
    return any(
        certificate.eval_certificate(t, f) != 0 for f in permutations(range(t.n))
    )


def magnitude_by_members(t: trees.FunctionalTree) -> certificate.MagnitudeReport:
    """The magnitude check at every member of phi_set, not one per orbit."""
    expected = certificate.expected_magnitude(t.n)
    phi = labeling.phi_set(t)
    failures = tuple(
        f for f in phi if abs(certificate.eval_certificate(t, f)) != expected
    )
    return certificate.MagnitudeReport(
        ok=not failures, expected=expected, phi_size=len(phi), failures=failures
    )


def nonvanishing_on_lattice(t: trees.FunctionalTree) -> bool:
    """True iff the certificate is nonzero at some point of the full n^n lattice."""
    return any(
        certificate.eval_certificate(t, f) != 0 for f in product(range(t.n), repeat=t.n)
    )


def unorient(pairs: Sequence[tuple[int, int]]) -> trees.FunctionalTree:
    """Recover the parent map from a tree's own labeled pairs (the inverse of
    labeling.labeled_pairs(t, range(n))): the loop (r, r) names the root, and
    the other pairs are the edges, rooted by a BFS from r."""
    n = len(pairs)
    adj: list[list[int]] = [[] for _ in range(n)]
    for x, y in pairs:
        if x == y:
            root = x
        else:
            adj[x].append(y)
            adj[y].append(x)
    return trees.from_parent_map(n, trees.bfs(adj, root)[1])


@dataclass(frozen=True)
class RhoReport:
    ok: bool
    wrapped_labels: tuple[int, ...]
    duplicated: tuple[int, ...]


def verify_rho(
    edge_list: Sequence[tuple[int, int]],
    labels: Mapping[int, int] | Sequence[int],
) -> RhoReport:
    """True iff the wrapped edge labels min(d, 2n+1-d) are pairwise distinct."""
    n = len(edge_list)
    if n == 0:
        raise MalformedInput("empty edge list")
    values = dict(enumerate(labels)) if not isinstance(labels, Mapping) else dict(labels)
    endpoints = {v for e in edge_list for v in e}
    missing = endpoints - values.keys()
    if missing:
        raise MalformedInput(f"unlabeled endpoints: {sorted(missing)}")
    used = [values[v] for v in endpoints]
    if len(set(used)) != len(used):
        raise MalformedInput("vertex labels are not injective")
    if any(not (0 <= values[v] <= 2 * n) for v in endpoints):
        raise MalformedInput(f"labels must lie in 0..{2 * n}")
    wrapped = []
    for x, y in edge_list:
        d = abs(values[x] - values[y])
        wrapped.append(min(d, 2 * n + 1 - d))
    wrapped.sort()
    duplicated = sorted({a for a, b in zip(wrapped, wrapped[1:]) if a == b})
    return RhoReport(
        ok=not duplicated, wrapped_labels=tuple(wrapped), duplicated=tuple(duplicated)
    )


def column_entry_sets(ep: EntryPermutation) -> list[set[int]]:
    """The entries of each column of the entry permutation's matrix."""
    n = ep.n
    return [{ep.sigma[n * i + j] for i in range(n)} for j in range(n)]


def closure_by_bfs(generators: Sequence[EntryPermutation]) -> tuple[int, bool, bool]:
    """(order, cyclic, closed_ok) of the generated group by listing every
    element breadth-first: closed under products of two elements and under
    inverses, and cyclic iff some element's order is the group order."""
    gens = [perms.check_perm(g.sigma) for g in generators]
    ident = perms.identity(len(gens[0]))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = perms.compose(g, a)
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    closed_ok = all(perms.inverse(a) in seen for a in seen) and all(
        perms.compose(a, b) in seen for a in seen for b in seen
    )

    def element_order(p: tuple[int, ...]) -> int:
        k, cur = 1, p
        while cur != ident:
            cur = perms.compose(p, cur)
            k += 1
        return k

    cyclic = any(element_order(p) == len(seen) for p in seen)
    return len(seen), cyclic, closed_ok


def rooted_level_sequence_by_recursion(adj: list[list[int]], root: int) -> list[int]:
    """Canonical preorder depth sequence, children sorted descending, by
    recursion over lists of depths."""

    def walk(v: int, parent: int, d: int) -> list[int]:
        subs = sorted((walk(u, v, d + 1) for u in adj[v] if u != parent), reverse=True)
        out = [d]
        for sub in subs:
            out.extend(sub)
        return out

    return walk(root, -1, 0)


def permutation_matrix(sigma: Sequence[int]) -> np.ndarray:
    """P with P[sigma(i), i] = 1, so P A P* relabels vertex i to sigma(i)."""
    n = len(sigma)
    p = np.zeros((n, n), dtype=complex)
    for i, si in enumerate(sigma):
        p[si, i] = 1.0
    return p


def biadjacency(t: trees.FunctionalTree, sigma: Sequence[int] | None = None) -> np.ndarray:
    """The dense calA = P A P* with P[sigma(i), i] = 1, the bi-adjacency A
    itself when sigma is None: calA[a, b] = 1 iff (a, b) is one of
    labeled_pairs(t, sigma), the root's loop included. InvalidPermutation
    unless sigma permutes Z_n."""
    n = t.n
    sigma = range(n) if sigma is None else perms.check_perm(sigma, n)
    a = np.zeros((n, n), dtype=complex)
    for x, y in labeling.labeled_pairs(t, sigma):
        a[x, y] = 1.0
    return a


def relabeled_dense(t: trees.FunctionalTree, sigma: Sequence[int]) -> np.ndarray:
    """calA = P A P* by dense products."""
    p = permutation_matrix(sigma)
    return p @ biadjacency(t) @ p.conj().T


def apportion_dense(t: trees.FunctionalTree, sigma: Sequence[int]) -> np.ndarray:
    """The n^2 x n^2 matrix Q (I (x) A) Q*, Q = U (I (x) P), by dense products."""
    n = t.n
    eye = np.eye(n, dtype=complex)
    q = apportionment.build_block_unitary(n) @ np.kron(eye, permutation_matrix(sigma))
    return q @ np.kron(eye, biadjacency(t)) @ q.conj().T


def circulant(n: int) -> np.ndarray:
    """Adjacency matrix of the directed n-cycle; first row [0,1,0,...]."""
    return np.roll(np.eye(n, dtype=complex), 1, axis=1)


def unitarity_residual(u: np.ndarray) -> float:
    """max |U U* - I| by one dense product."""
    return float(np.abs(u @ u.conj().T - np.eye(u.shape[0])).max())


def apportion_dense_report(t: trees.FunctionalTree, sigma: Sequence[int], tol: float = 1e-9):
    """(ok, kappa_max_error, frobenius_modulus, |m|, unitary) by dense products."""
    n = t.n
    mod = np.abs(apportion_dense(t, sigma))
    unitary = unitarity_residual(apportionment.build_block_unitary(n))
    err = float(np.abs(mod - 1.0 / n).max())
    frob = float(np.sqrt(np.square(mod).sum())) / (n * n)
    return err <= tol and unitary <= tol, err, frob, mod, unitary


def modulus_table(t: trees.FunctionalTree, sigma: Sequence[int]) -> np.ndarray:
    """table[e, f] = |entry (i*n+a, k*n+b)| of U (I (x) calA) U* for every
    a, b, i, k with b - a = e and k - i = f (mod n).

    That entry is (1/n) w^{ia-kb} sum_j calA[a+j, b+j] w^{(i-k)j}, so its
    modulus is 1/n times the f-th DFT coefficient of the diagonal
    j -> calA[a+j, b+j]. That diagonal is the cyclic diagonal
    seq[e, j] = calA[j, j+e] turned by a, which multiplies the coefficient
    by w^{fa}, of modulus 1: n FFTs of length n instead of n^2 x n^2
    products. The pair (x, y) is seq[y - x, x].
    """
    n = t.n
    seq = np.zeros((n, n), dtype=complex)
    for x, y in labeling.labeled_pairs(t, perms.check_perm(sigma, n)):
        seq[(y - x) % n, x] = 1.0
    return np.abs(np.fft.fft(seq, axis=1)) / n


def apportion_fft_report(
    t: trees.FunctionalTree, sigma: Sequence[int], tol: float = 1e-9
) -> apportionment.ApportionReport:
    """The apportionment report in floating point: the moduli from
    modulus_table, the worst cell (e, f) at entry (0, f*n + e) (i = a = 0,
    k = f, b = e), and the residual of U's n x n DFT factor, whose
    (i, i')-entry times I is the (i, i')-block of U U*."""
    n = t.n
    table = modulus_table(t, sigma)
    err = np.abs(table - 1.0 / n)
    e, f = np.unravel_index(int(err.argmax()), err.shape)
    d = np.arange(n)
    unitary = unitarity_residual(np.exp(2j * np.pi * (np.outer(d, d) % n) / n) / math.sqrt(n))
    # each table cell stands for the n^2 entries with b - a = e and k - i = f
    frob = float(np.sqrt(n * n * np.square(table).sum())) / (n * n)
    return apportionment.ApportionReport(
        ok=float(err.max()) <= tol and unitary <= tol,
        kappa=1.0 / n,
        kappa_max_error=float(err.max()),
        unitary_residual=unitary,
        frobenius_modulus=frob,
        worst_entry=(0, int(f * n + e)),
    )


def allones_dense(cal_a: np.ndarray, tol: float = 1e-9) -> apportionment.AllOnesReport:
    """The all-ones identity sum_j C^j calA C^{-j} = 1 by 3n dense products."""
    n = cal_a.shape[0]
    c = circulant(n)
    total = np.zeros((n, n), dtype=complex)
    c_j = np.eye(n, dtype=complex)
    for _ in range(n):
        total += c_j @ cal_a @ c_j.conj().T
        c_j = c_j @ c
    dev = np.abs(total - np.ones((n, n)))
    worst = np.unravel_index(int(dev.argmax()), dev.shape)
    return apportionment.AllOnesReport(
        ok=float(dev.max()) <= tol,
        max_deviation=float(dev.max()),
        worst_entry=(int(worst[0]), int(worst[1])),
    )


def _adjacency(n: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def _copy_shape_problem(copy, expected: tuple[int, ...], classes: dict) -> str | None:
    """decomposition._copy_is_tree_of_shape by other means: vertices are
    sorted (so mixed types raise), reached by a depth-first flood, and the
    shape is compared by AHU signature, not by canonical code."""
    verts = sorted({v for e in copy for v in e})
    if len(verts) != len(copy) + 1:
        return f"copy is not vertex-injective: {len(verts)} vertices, {len(copy)} edges"
    index = {v: i for i, v in enumerate(verts)}
    adj = _adjacency(len(verts), [(index[a], index[b]) for a, b in copy])
    reached, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in reached:
                reached.add(w)
                stack.append(w)
    if len(reached) != len(verts):
        return "copy is disconnected"
    if signature(adj, classes)[0] != expected:
        return "copy shape differs from the source tree"
    return None


def host_edges(host: Host) -> set[tuple[int, int]]:
    """The full edge set of the host graph."""
    m = decomposition._modulus(host)
    if host.kind == "k2n1":
        return {(u, v) for u in range(m) for v in range(u + 1, m)}
    return {(u, m + v) for u in range(m) for v in range(m)}


def copies_by_tuple(d: Decomposition) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Decomposition.copies as it stood before it became a view: every copy
    developed into one tuple, in (k, i) order. Copy (k, i) moves each end v
    of base k to v + i within its block of m vertices, and K_{2nx+1} writes
    each edge as (min, max)."""
    m = decomposition._modulus(d.host)
    copies = []
    for base in d.bases:
        for i in range(m):
            turned = [(u - u % m + (u + i) % m, v - v % m + (v + i) % m) for u, v in base]
            if d.host.kind == "k2n1":
                turned = [(min(u, v), max(u, v)) for u, v in turned]
            copies.append(tuple(sorted(turned)))
    return tuple(copies)


def decomposition_json_by_dumps(d: Decomposition) -> str:
    """decomposition_to_json as it stood before it was written copy by copy:
    one json.dumps of the whole structure, every copy as nested lists."""
    m = decomposition._modulus(d.host)
    return json.dumps(
        {
            "host": {"kind": d.host.kind, "n": d.host.n, "x": d.host.x},
            "copies": [[[a, b] for a, b in copy] for copy in copies_by_tuple(d)],
            "provenance": {
                "tree": {"n": d.tree.n, "g": list(d.tree.g)},
                "sigma": list(d.sigma),
                "shifts": [[k, i] for k in range(len(d.bases)) for i in range(m)],
            },
        }
    )


def verify_partition_by_sets(d: Decomposition) -> PartitionReport:
    """The edge-by-edge oracle for decomposition.verify_partition: a full
    shape check of every developed copy and the exact cover by a set of edge
    tuples compared with host_edges. It codes no shape: each copy's AHU
    signature is compared with the source tree's, whose knn copies carry the
    loop-derived edge, a pendant at the root."""
    t = d.tree
    edges = sorted(undirected_edges(t))
    if d.host.kind == "knn":
        edges.append((t.root, t.n))
    classes: dict[tuple[int, ...], int] = {}
    expected = signature(_adjacency(len(edges) + 1, edges), classes)[0]

    seen: set = set()
    for idx, copy in enumerate(d.copies):
        shape_problem = _copy_shape_problem(copy, expected, classes)
        if shape_problem is not None:
            return PartitionReport(False, shape_problem, (idx,), len(d.copies))
        for edge in copy:
            if edge in seen:
                witness = (idx, edge)
                return PartitionReport(False, "edge covered twice", witness, len(d.copies))
            seen.add(edge)

    expected_edges = host_edges(d.host)
    if seen != expected_edges:
        missing = sorted(expected_edges - seen)
        extra = sorted(seen - expected_edges)
        witness = (missing[:3], extra[:3])
        return PartitionReport(
            False, "copies do not tile the host edge set", witness, len(d.copies)
        )
    return PartitionReport(True, None, None, len(d.copies))


def decomposition_from_json(text: str) -> Decomposition:
    """A Decomposition read back from decomposition_to_json's output, with
    its host checked. Its bases are the copies whose shift is (k, 0), in k
    order; the other copies are derived from them and not read."""
    try:
        obj = json.loads(text)
        host = Host(obj["host"]["kind"], obj["host"]["n"], obj["host"]["x"])
        prov = obj["provenance"]
        bases = tuple(
            tuple((a, b) for a, b in copy)
            for copy, (_, i) in zip(obj["copies"], prov["shifts"])
            if i == 0
        )
        tree = trees.from_parent_map(prov["tree"]["n"], prov["tree"]["g"])
        sigma = tuple(prov["sigma"])
    except (TypeError, KeyError, ValueError) as exc:  # ValueError covers JSONDecodeError
        raise MalformedInput(f"bad decomposition JSON: {exc}") from exc
    if (
        host.kind not in ("knn", "k2n1", "knxnx")
        or type(host.n) is not int
        or type(host.x) is not int
        or host.n < 1
        or host.x < 1
    ):
        raise MalformedInput(f"bad decomposition host: {host}")
    return Decomposition(host=host, bases=bases, tree=tree, sigma=sigma)
