"""Functional trees: contractive self-maps of Z_n with a unique fixed point.

A rooted tree on n vertices is stored as its parent map g, where g(root) =
root (the loop edge) and every other vertex points one step toward the root.
Equivalently, the (n-1)-fold composition of g maps every vertex to the root.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Sequence

from . import perms
from .errors import (
    MalformedInput,
    NotAFunctionalTree,
    PreconditionViolated,
    ResourceLimit,
)

ENUMERATION_CAP = 18
# Level-sequence codes take one byte per depth below 255 and 0xff plus four
# bytes above, so they stay prefix-decodable and ordered like the depths.
_DEPTH_BYTES = [bytes((d,)) for d in range(255)]
# Lowers every depth byte by one, re-rooting a depth-1 subtree's code at 0.
_DEPTH_DOWN = bytes.maketrans(bytes(range(1, 256)), bytes(range(255)))


@dataclass(frozen=True)
class FunctionalTree:
    """A validated parent map on Z_n. Immutable; build via from_parent_map."""

    n: int
    g: tuple[int, ...]
    root: int
    depth: tuple[int, ...]

    def sign(self, v: int) -> int:
        """(-1)**depth[v]: +1 on the root-side partition, -1 on the other."""
        return 1 if self.depth[v] % 2 == 0 else -1

    def is_leaf(self, v: int) -> bool:
        """True iff v has no preimage under g (the root never qualifies)."""
        return all(self.g[u] != v for u in range(self.n))

    def is_constant(self) -> bool:
        """True iff g maps everything to the root (a rooted star)."""
        return all(gv == self.root for gv in self.g)

    def adjacency(self) -> list[list[int]]:
        """Undirected adjacency lists of the underlying simple tree, ascending."""
        adj = children(self.g, self.root)
        for v, row in enumerate(adj):
            if v != self.root:
                row.append(self.g[v])
                row.sort()
        return adj


def children(g: Sequence[int], root: int) -> list[list[int]]:
    """Each vertex's children under g in ascending order, without root's loop."""
    kids: list[list[int]] = [[] for _ in g]
    for v, p in enumerate(g):
        kids[p].append(v)
    kids[root].remove(root)
    return kids


def bfs(adj: Sequence[Sequence[int]], src: int) -> tuple[list[int], list[int]]:
    """Breadth-first order from src, neighbours in adjacency-list order.

    Also returns each vertex's BFS parent: parent[src] = src, and -1 for the
    vertices src does not reach (which are absent from the order).
    """
    parent = [-1] * len(adj)
    parent[src] = src
    order = [src]
    for v in order:
        for u in adj[v]:
            if parent[u] < 0:
                parent[u] = v
                order.append(u)
    return order, parent


def from_parent_map(n: int, g: Sequence[int]) -> FunctionalTree:
    """Validate a parent map and compute its root and depth arrays."""
    if type(n) is not int:
        raise MalformedInput(f"vertex count must be an int, got {n!r}")
    if n < 1:
        raise MalformedInput(f"vertex count must be positive, got {n}")
    g = tuple(g)
    if len(g) != n:
        raise MalformedInput(f"parent map has length {len(g)}, expected {n}")
    if any(type(gv) is not int or not (0 <= gv < n) for gv in g):
        raise MalformedInput(f"parent map entries must be ints in Z_{n}: {list(g)}")

    # One fixed point that every vertex reaches is the same as the (n-1)-fold
    # image being a single point.
    fixed = [v for v in range(n) if g[v] == v]
    if len(fixed) != 1:
        raise NotAFunctionalTree(f"parent map has fixed points {fixed}, expected one")
    root = fixed[0]

    order = bfs(children(g, root), root)[0]
    if len(order) != n:
        raise NotAFunctionalTree(
            f"{n - len(order)} vertices never reach the fixed point {root}"
        )
    depth = [0] * n
    for v in order[1:]:
        depth[v] = depth[g[v]] + 1
    return FunctionalTree(n=n, g=g, root=root, depth=tuple(depth))


def reroot(t: FunctionalTree, r: int) -> FunctionalTree:
    """Same underlying tree, re-oriented so that g(r) = r."""
    if not (0 <= r < t.n):
        raise MalformedInput(f"root {r} not in Z_{t.n}")
    if r == t.root:
        return t
    return from_parent_map(t.n, bfs(t.adjacency(), r)[1])


def conjugate(t: FunctionalTree, sigma: Sequence[int]) -> FunctionalTree:
    """Functional tree of h = sigma . g . sigma^{-1} (a vertex relabeling)."""
    sigma = perms.check_perm(sigma, t.n)
    h = [0] * t.n
    for v in range(t.n):
        h[sigma[v]] = sigma[t.g[v]]
    return from_parent_map(t.n, h)


def square(t: FunctionalTree) -> FunctionalTree:
    """Functional tree of g . g (every vertex hops to its grandparent)."""
    return from_parent_map(t.n, [t.g[t.g[v]] for v in range(t.n)])


def leaves(t: FunctionalTree) -> list[int]:
    """The vertices with no preimage under g, ascending, in one pass."""
    parents = set(t.g)
    return [v for v in range(t.n) if v not in parents]


def sibling_leaf_pairs(t: FunctionalTree) -> list[tuple[int, int]]:
    """All pairs of leaves sharing a parent, as (smaller, larger), ascending."""
    kids = children(t.g, t.root)
    return sorted(p for row in kids for p in combinations([u for u in row if not kids[u]], 2))


def collapse_leaf_siblings(t: FunctionalTree) -> FunctionalTree:
    """Reattach vertex n-1 and its whole sibling class to the grandparent.

    Requires n-1 to be a leaf at even depth; use normalize_for_collapse to
    establish that. The sibling class is the full preimage of g(n-1).
    """
    last = t.n - 1
    if not t.is_leaf(last):
        raise PreconditionViolated(f"vertex {last} is not a leaf")
    if t.depth[last] % 2 != 0:
        raise PreconditionViolated(
            f"vertex {last} has odd depth {t.depth[last]}"
        )
    parent = t.g[last]
    grand = t.g[parent]
    g = [grand if t.g[v] == parent else t.g[v] for v in range(t.n)]
    return from_parent_map(t.n, g)


def normalize_for_collapse(t: FunctionalTree) -> FunctionalTree:
    """Reroot/relabel so vertex n-1 is a leaf at even depth.

    Identity when the tree already qualifies. When some leaf already sits at
    even depth, only labels are swapped. Only when every leaf has odd depth
    is the tree rerooted: at the smallest internal vertex at even distance
    from the smallest degree-1 vertex (a degree-1 fallback covers stars).
    Preferring the swap, and an internal reroot target, keeps the repeated
    normalize-collapse iteration strictly shrinking, so it reaches the
    constant map within n-1 rounds.
    """
    if t.n < 3:
        raise PreconditionViolated(f"need n >= 3, got n = {t.n}")
    last = t.n - 1
    if t.is_leaf(last) and t.depth[last] % 2 == 0:
        return t

    even_leaves = [v for v in leaves(t) if t.depth[v] % 2 == 0]
    if even_leaves:
        out = conjugate(t, perms.transposition(min(even_leaves), last, t.n))
        assert out.is_leaf(last) and out.depth[last] % 2 == 0
        return out

    adj = t.adjacency()
    ell = min(v for v in range(t.n) if len(adj[v]) == 1)
    order, parent = bfs(adj, ell)
    dist = [0] * t.n
    for v in order[1:]:
        dist[v] = dist[parent[v]] + 1
    even = [v for v in range(t.n) if v != ell and dist[v] % 2 == 0]
    internal = [v for v in even if len(adj[v]) >= 2]
    r = min(internal) if internal else min(even)

    out = reroot(t, r)
    if ell != last:
        out = conjugate(out, perms.transposition(ell, last, t.n))
    assert out.is_leaf(last) and out.depth[last] % 2 == 0
    return out


# ---------------------------------------------------------------------------
# Canonical codes and the isomorphism-free catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TreeCatalogEntry:
    tree: FunctionalTree
    canonical_code: bytes
    index: int


def _subtree_codes(adj: list[list[int]], root: int) -> list[bytes]:
    """Canonical preorder depth sequence of every vertex's subtree, with the
    tree rooted at root and depths counted from root; children sorted
    descending. Two siblings' subtrees are isomorphic iff their codes match.
    A leaf's code is its depth byte and a vertex with one child prefixes
    that child's code, so only a vertex with two or more children sorts."""
    order, parent = bfs(adj, root)
    depth = [0] * len(adj)
    for v in order[1:]:
        depth[v] = depth[parent[v]] + 1
    subs: list[list[bytes]] = [[] for _ in adj]
    codes = [b""] * len(adj)
    for v in reversed(order):  # children before parents; the root comes last
        d = depth[v]
        code = _DEPTH_BYTES[d] if d < 255 else b"\xff" + d.to_bytes(4, "big")
        kids = subs[v]
        if len(kids) == 1:
            code += kids[0]
        elif kids:
            code += b"".join(sorted(kids, reverse=True))
        codes[v] = code
        subs[parent[v]].append(code)
    return codes


def _tree_code(adj: list[list[int]]) -> bytes | None:
    """canonical_code of the tree with these adjacency lists, or None when a
    BFS from 0 misses a vertex. Its subtree sizes locate the centroids: walk
    into the child holding over half the vertices until none does; a child
    holding exactly half is the second centroid."""
    n = len(adj)
    order, parent = bfs(adj, 0)
    if len(order) < n:
        return None
    size = [1] * n
    for v in order[:0:-1]:
        size[parent[v]] += size[v]
    c = 0
    while True:
        heavy = [u for u in adj[c] if parent[u] == c and 2 * size[u] >= n]
        if not heavy or 2 * size[heavy[0]] == n:
            break
        c = heavy[0]
    return min(_subtree_codes(adj, r)[r] for r in [c] + heavy)


def canonical_code(t: FunctionalTree) -> bytes:
    """Isomorphism-complete code: the centroid-rooted canonical level sequence,
    for bicentroidal trees the lexicographically smaller of the two rootings."""
    return _tree_code(t.adjacency())


def canonical_code_of_edges(edges: Sequence[tuple[int, int]]) -> bytes:
    """Canonical code of a tree on n = len(edges) + 1 vertices given as an
    undirected edge list; MalformedInput unless the edges join all of Z_n."""
    n = len(edges) + 1
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        if not (0 <= a < n and 0 <= b < n):
            raise MalformedInput(f"edge {(a, b)} has an end outside Z_{n}")
        adj[a].append(b)
        adj[b].append(a)
    code = _tree_code(adj)
    if code is None:
        raise MalformedInput(f"{n - 1} edges do not join all {n} vertices")
    return code


def tree_from_level_sequence(seq: Sequence[int]) -> FunctionalTree:
    """Decode a preorder depth sequence into a parent map (vertex 0 = root)."""
    n = len(seq)
    if n == 0 or seq[0] != 0:
        raise MalformedInput(f"not a level sequence: {list(seq)}")
    g = [0] * n
    stack = [0]  # stack[d] = most recent vertex at depth d
    for v in range(1, n):
        d = seq[v]
        if not (1 <= d <= len(stack)):
            raise MalformedInput(f"not a level sequence: {list(seq)}")
        del stack[d:]
        g[v] = stack[d - 1]
        stack.append(v)
    return from_parent_map(n, g)


def _rooted_level_sequences(n: int) -> Iterator[bytes]:
    """Every rooted tree on n vertices once, as its canonical level sequence,
    from the path down to the star by Beyer & Hedetniemi's successor
    ("Constant time generation of rooted trees", SIAM J. Comput. 1980)."""
    code = bytes(range(n))
    while True:
        yield code
        p = len(code.rstrip(b"\x01")) - 1  # the last vertex deeper than 1
        if p == 0:
            return
        q = code.rindex(code[p] - 1, 0, p)  # the parent of p
        code = code[:p] + (code[q:p] * n)[: n - p]  # repeat q's subtree


def enumerate_free_trees(n: int) -> Iterator[TreeCatalogEntry]:
    """One functional tree per isomorphism class of free trees on n vertices.

    Each tree is rooted at its canonical centroid with vertices numbered in
    canonical preorder, so the parent map itself is a normal form. Entries
    are yielded in increasing canonical-code order.
    """
    if n < 1:
        raise MalformedInput(f"vertex count must be positive, got {n}")
    if n > ENUMERATION_CAP:
        raise ResourceLimit(f"n = {n} exceeds the enumeration cap {ENUMERATION_CAP}")
    codes = []
    for code in _rooted_level_sequences(n):
        # Keep it if its root is a centroid: no root subtree (each starts at
        # a 1) exceeds n/2. At exactly n/2 the big subtree's root is the
        # other centroid, and this rooting codes no higher than that one iff
        # the big half's level sequence is no larger than the other half's.
        subs = code.split(b"\x01")[1:]
        big = max(subs, key=len, default=None)
        if big is None or 2 * (1 + len(big)) < n:
            codes.append(code)
        elif 2 * (1 + len(big)) == n:
            half = (b"\x01" + big).translate(_DEPTH_DOWN)
            rest = b"\x00" + b"".join(b"\x01" + sub for sub in subs if sub != big)
            if half <= rest:
                codes.append(code)
    codes.sort()
    assert len(set(codes)) == len(codes), "duplicate isomorphism class"
    for index, code in enumerate(codes):
        yield TreeCatalogEntry(
            tree=tree_from_level_sequence(code), canonical_code=code, index=index
        )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def tree_to_json(t: FunctionalTree) -> str:
    return json.dumps({"n": t.n, "g": list(t.g)})


def tree_from_json(text: str) -> FunctionalTree:
    try:
        obj = json.loads(text)
        return from_parent_map(obj["n"], obj["g"])
    except (ValueError, RecursionError, TypeError, KeyError) as exc:
        raise MalformedInput(f"bad tree JSON: {exc}") from exc


def tree_to_dot(t: FunctionalTree) -> str:
    """DOT digraph with the loop edge rendered at the root."""
    lines = ["digraph tree {"]
    for v in range(t.n):
        lines.append(f"  {v} -> {t.g[v]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
