"""Shared brute-force oracles for the test suite."""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product
from typing import Sequence

import numpy as np

from treedecomp import apportionment, trees


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
        codes.add(trees.canonical_code_of_edges(n, edges))
    return frozenset(codes)


@lru_cache(maxsize=None)
def catalog(n: int) -> tuple[trees.TreeCatalogEntry, ...]:
    return tuple(trees.enumerate_free_trees(n))


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


def apportion_dense(t: trees.FunctionalTree, sigma: Sequence[int]) -> np.ndarray:
    """The n^2 x n^2 matrix Q (I (x) A) Q*, Q = U (I (x) P), by dense products."""
    n = t.n
    eye = np.eye(n, dtype=complex)
    q = apportionment.build_block_unitary(n) @ np.kron(
        eye, apportionment.permutation_matrix(sigma)
    )
    return q @ np.kron(eye, apportionment.biadjacency(t)) @ q.conj().T
