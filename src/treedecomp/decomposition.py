"""Cyclic decompositions of directed K_{n,n}, K_{2nx+1}, and K_{nx,nx}.

A decomposition is held as its host, the beta-labeled tree and x base
copies, one per stretch k. Copy (k, i) is base k turned by the host rotation
v -> v + i (mod m), so the copies and their shifts are derived, developed on
demand; the three hosts differ only in m and in where a pair lands.

verify_partition is the independent ground truth, and the builder runs it
before returning and raises VerificationFailed, with the report's witness,
on failure. It never develops the copies: it rests on the difference lemma
(Rosa 1967; Gallian, A dynamic survey of graph labeling, EJC DS6). Z_m
acts on the host edges, and the difference classes are its orbits, each of
size m:
- on K_{2nx+1}, the class of {u, v} is its length min(d, m - d), d = v - u
  mod m, and the lengths are 1..nx. A turn by i != 0 could fix an edge
  only by swapping its ends, so 2i = 0 mod m; but m = 2nx + 1 is odd;
- on the bipartite hosts, the class of (u, m + v) is v - u mod m, over all
  of Z_m, and only i = 0 fixes an edge.
So the m turns of a base edge cover its class once, and the turns of the
bases tile the host exactly when the base edges hit each class exactly once.
A turn is a bijection of the host's vertices, so every turn of a base is a
copy of the tree exactly when the base is.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import accumulate, islice
from typing import Sequence

from . import trees
from .errors import MalformedInput, ResourceLimit, VerificationFailed
from .labeling import Labeling, verify_beta

DOT_CAP = 2_000_000


@dataclass(frozen=True)
class OrientedBipartiteTree:
    """Left-to-right orientation: left endpoints in Z_n, right in n..2n-1."""

    n: int
    edges: tuple[tuple[int, int], ...]
    root_edge: tuple[int, int]


def orient(t: trees.FunctionalTree) -> OrientedBipartiteTree:
    """The unique left-to-right orientation of a functional tree.

    An even-depth vertex v contributes (v, n+g(v)); an odd-depth vertex
    contributes (g(v), n+v); the root contributes the loop-derived edge
    (r, n+r). Even-depth vertices therefore appear only on the left.
    """
    n = t.n
    edges = []
    for v in range(n):
        if v == t.root:
            edges.append((v, n + v))
        elif t.sign(v) > 0:
            edges.append((v, n + t.g[v]))
        else:
            edges.append((t.g[v], n + v))
    return OrientedBipartiteTree(
        n=n, edges=tuple(sorted(edges)), root_edge=(t.root, n + t.root)
    )


@dataclass(frozen=True)
class Host:
    """Host graph descriptor. kind: knn (directed), k2n1, or knxnx."""

    kind: str
    n: int
    x: int


@dataclass(frozen=True)
class Decomposition:
    """The host, the labeled tree and one base copy per stretch k."""

    host: Host
    bases: tuple[tuple[tuple[int, int], ...], ...]
    tree: trees.FunctionalTree
    sigma: tuple[int, ...]

    @property
    def shifts(self) -> tuple[tuple[int, int], ...]:
        """(k, i) for every copy, in the order of copies."""
        m = _modulus(self.host)
        return tuple((k, i) for k in range(len(self.bases)) for i in range(m))

    @property
    def copies(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Copy (k, i), base k turned by i, for every shift, in (k, i) order."""
        m = _modulus(self.host)
        kind = self.host.kind
        return tuple(_rotate(base, i, m, kind) for base in self.bases for i in range(m))


def _modulus(host: Host) -> int:
    """The rotation modulus m: n on K_{n,n}, nx on K_{nx,nx}, 2nx+1 on K_{2nx+1}."""
    if host.kind == "knn":
        return host.n
    if host.kind == "knxnx":
        return host.n * host.x
    if host.kind == "k2n1":
        return 2 * host.n * host.x + 1
    raise MalformedInput(f"unknown host kind {host.kind!r}")


def host_edges(host: Host) -> set[tuple[int, int]]:
    """The full edge set of the host graph."""
    m = _modulus(host)
    if host.kind == "k2n1":
        return {(u, v) for u in range(m) for v in range(u + 1, m)}
    return {(u, m + v) for u in range(m) for v in range(m)}


def _as_labeling(t: trees.FunctionalTree, lab: Labeling | Sequence[int]) -> Labeling:
    sigma = lab.sigma if isinstance(lab, Labeling) else lab
    result = verify_beta(t, sigma)
    if not isinstance(result, Labeling):
        raise MalformedInput(f"sigma {list(sigma)} is not a beta-labeling of the tree")
    return result


def _rotate(copy, s: int, m: int, kind: str) -> tuple[tuple[int, int], ...]:
    """The host rotation by s applied to a copy, as a sorted edge tuple.

    Each end v moves to v + s mod m within its block of m vertices (Z_m on
    K_{2nx+1}; the left part 0..m-1 or the right part m..2m-1 on the
    bipartite hosts). That is a bijection of the host's vertices, so it maps
    a tree onto a tree of the same shape. K_{2nx+1} writes each edge as
    (min, max).
    """
    turned = ((u - u % m + (u + s) % m, v - v % m + (v + s) % m) for u, v in copy)
    if kind == "k2n1":
        turned = ((u, v) if u < v else (v, u) for u, v in turned)
    return tuple(sorted(turned))


def _build(
    t: trees.FunctionalTree, lab: Labeling | Sequence[int], host: Host
) -> Decomposition:
    """The x base copies of the labeled tree, one per stretch k.

    The labeled tree's orientation is read as (even-depth label, odd-depth
    label) pairs; only directed K_{n,n} keeps the loop-derived pair (r, r).
    Base k moves a pair (a, b) to (a, b+kn) mod m, with n = host.n, and
    places it in the host: as (u, m+v) on the bipartite hosts (m = n on
    K_{n,n}, nx on K_{nx,nx}), as (min, max) on K_{2nx+1} (m = 2nx+1). The
    result is checked by verify_partition before it is returned.
    """
    if host.kind != "knn" and t.n < 2:
        raise MalformedInput("tree must have at least one edge")
    if host.x < 1:
        raise MalformedInput(f"x must be positive, got {host.x}")
    lab = _as_labeling(t, lab)
    o = orient(trees.conjugate(t, lab.sigma))
    pairs = [
        (a, b - t.n)
        for a, b in o.edges
        if host.kind == "knn" or (a, b) != o.root_edge
    ]
    m = _modulus(host)
    right = 0 if host.kind == "k2n1" else m
    bases = tuple(
        _rotate([(a, right + (b + k * host.n) % m) for a, b in pairs], 0, m, host.kind)
        for k in range(host.x)
    )
    d = Decomposition(host=host, bases=bases, tree=t, sigma=lab.sigma)
    report = verify_partition(d)
    if not report.ok:
        raise VerificationFailed(f"{report.problem}; witness {report.witness}")
    return d


def decompose_directed_knn(
    t: trees.FunctionalTree, lab: Labeling | Sequence[int]
) -> Decomposition:
    """n diagonal shifts of the labeled orientation tile directed K_{n,n}.

    Copy i sends (x, n+y) to ((x+i) mod n, n + (y-n+i) mod n); the frames of
    one full rotation cover Z_n x {n..2n-1} exactly once.
    """
    return _build(t, lab, Host("knn", t.n, 1))


def decompose_k2n1(
    t: trees.FunctionalTree, lab: Labeling | Sequence[int], x: int
) -> Decomposition:
    """A tree with n edges tiles K_{2nx+1} by x label stretches and rotation.

    Copy (k, i) places an even-partition label a at a+i and an odd-partition
    label b at b+kn+i, mod 2nx+1. The stretch k spreads the edge differences
    over 1..nx, and the rotation i walks each difference class around Z_m.
    """
    return _build(t, lab, Host("k2n1", t.n - 1, x))


def decompose_knxnx(
    t: trees.FunctionalTree, lab: Labeling | Sequence[int], x: int
) -> Decomposition:
    """A tree with n edges tiles undirected K_{nx,nx} (parts of size nx).

    Copy (k, s) places an even-partition label a on the left at a+s and an
    odd-partition label b on the right at b+kn+s, mod nx.
    """
    return _build(t, lab, Host("knxnx", t.n - 1, x))


@dataclass(frozen=True)
class PartitionReport:
    ok: bool
    problem: str | None
    witness: tuple | None
    copies: int


def _copy_is_tree_of_shape(
    copy: Sequence[tuple[int, int]], expected_code: bytes
) -> str | None:
    """None if the copy is a vertex-injective tree with the expected shape."""
    index: dict[int, int] = {}
    relabeled = [tuple(index.setdefault(v, len(index)) for v in e) for e in copy]
    if len(index) != len(copy) + 1:
        return f"copy is not vertex-injective: {len(index)} vertices, {len(copy)} edges"
    adj: list[list[int]] = [[] for _ in index]
    for a, b in relabeled:
        adj[a].append(b)
        adj[b].append(a)
    if len(trees.bfs(adj, 0)[0]) != len(index):
        return "copy is disconnected"
    code = trees.canonical_code_of_edges(len(index), relabeled)
    if code != expected_code:
        return "copy shape differs from the source tree"
    return None


def verify_partition(d: Decomposition) -> PartitionReport:
    """Whether the turns of d's bases tile the host by copies of the source
    tree, by the difference lemma in the module docstring.

    Each base is checked in order, and the first failure is reported:
    - every vertex must be an int (type(v) is int, so True is not 1) inside
      the host: in Z_m on K_{2nx+1}, and on the bipartite hosts a left end
      in 0..m-1 and a right end in m..2m-1; witness (k, edge);
    - the full shape check: vertex-injective, connected, with the source
      tree's canonical code; witness (k,).
    Then the base edges' difference classes must be each class exactly
    once; the witness lists up to three missing and three repeated classes.
    The classes seen are held in a set the size of the base edges, so a
    host of any m is answered without allocating anything of size m.
    """
    host = d.host
    if host.kind == "knn":
        # Copies carry the loop-derived edge, so the reference shape is the
        # source tree plus a pendant at the root.
        t = d.tree
        expected_code = trees.canonical_code_of_edges(
            t.n + 1, sorted(t.undirected_edges()) + [(t.root, t.n)]
        )
    else:
        expected_code = trees.canonical_code(d.tree)
    m = _modulus(host)
    count = len(d.bases) * m
    right = 0 if host.kind == "k2n1" else m
    seen: set[int] = set()
    repeated = []
    for k, base in enumerate(d.bases):
        for u, v in base:
            if not (type(u) is type(v) is int and 0 <= u < m and right <= v < right + m):
                return PartitionReport(False, "vertex outside the host", (k, (u, v)), count)
        shape_problem = _copy_is_tree_of_shape(base, expected_code)
        if shape_problem is not None:
            return PartitionReport(False, shape_problem, (k,), count)
        for u, v in base:
            c = (v - u) % m
            if host.kind == "k2n1":
                c = min(c, m - c)
            if c in seen:
                repeated.append(c)
            seen.add(c)

    classes = range(1, (m + 1) // 2) if host.kind == "k2n1" else range(m)
    if repeated or len(seen) != len(classes):
        missing = list(islice((c for c in classes if c not in seen), 3))
        return PartitionReport(
            False, "copies do not tile the host edge set", (missing, repeated[:3]), count
        )
    return PartitionReport(True, None, None, count)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def decomposition_to_json(d: Decomposition) -> str:
    return json.dumps(
        {
            "host": {"kind": d.host.kind, "n": d.host.n, "x": d.host.x},
            "copies": [[[a, b] for a, b in copy] for copy in d.copies],
            "provenance": {
                "tree": {"n": d.tree.n, "g": list(d.tree.g)},
                "sigma": list(d.sigma),
                "shifts": [[k, i] for k, i in d.shifts],
            },
        }
    )


def decomposition_to_dot(d: Decomposition) -> str:
    """One frame per copy; edges of earlier copies are grayed out. C copies
    of e edges take e*C*(C+1)/2 edge lines, and past DOT_CAP of them
    ResourceLimit is raised before anything is written."""
    m = _modulus(d.host)
    lines = sum(accumulate(len(base) for base in d.bases for _ in range(m)))
    if lines > DOT_CAP:
        raise ResourceLimit(f"the DOT export needs {lines} edge lines, past the cap {DOT_CAP}")
    kind, arrow = ("digraph", "->") if d.host.kind == "knn" else ("graph", "--")
    frames = []
    gray: list[str] = []
    for idx, copy in enumerate(d.copies):
        own = [f"  {a} {arrow} {b};" for a, b in copy]
        frames.append("\n".join([f"{kind} frame_{idx} {{", *gray, *own, "}"]))
        gray += [f"  {a} {arrow} {b} [color=lightgray];" for a, b in copy]
    return "\n".join(frames) + "\n"
