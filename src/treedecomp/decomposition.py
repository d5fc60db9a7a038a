"""Cyclic decompositions of directed K_{n,n}, K_{2nx+1}, and K_{nx,nx}.

A decomposition is held as its host, the beta-labeled tree and x base
copies, one per stretch k. Copy (k, i) is base k turned by the host rotation
v -> v + i (mod m), so the copies and their shifts are derived: `copies` is a
sequence that develops each copy when it is read, and no step holds them all
at once; the three hosts differ only in m and in where a pair lands.

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
copy of the tree exactly when the base is. Base k is the image of the
source shape (the tree's edges, and on directed K_{n,n} a root pendant for
its loop) under one placement, v to sigma(v) or to sigma(v) + kn on the odd
side, and the verifier takes a base that is that image under an injective
map as a copy, in O(n). The general check, which renumbers a base and
compares canonical codes, runs only on a base placed otherwise.
"""

from __future__ import annotations

import json
from collections import abc
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Sequence

from . import trees
from .errors import MalformedInput, PreconditionViolated, ResourceLimit, VerificationFailed
from .labeling import Labeling, as_labeling

EXPORT_CAP = 2_000_000


@dataclass(frozen=True)
class Host:
    """Host graph descriptor. kind: knn (directed), k2n1, or knxnx; n: the
    source shape's edge count (host_for), the tree's n - 1 edges and on
    directed K_{n,n} the root pendant; x: the number of stretches."""

    kind: str
    n: int
    x: int


def host_for(kind: str, vertices: int, x: int) -> Host:
    """The host of a tree on `vertices` vertices at x stretches, sized by
    its source shape's edge count; MalformedInput for x != 1 on knn."""
    if kind == "knn" and x != 1:
        raise MalformedInput(f"x must be 1 for knn (directed K_{{n,n}}), got {x}")
    return Host(kind, vertices - 1 + (kind == "knn"), x)


@dataclass(frozen=True)
class Decomposition:
    """The host, the labeled tree and one base copy per stretch k."""

    host: Host
    bases: tuple[tuple[tuple[int, int], ...], ...]
    tree: trees.FunctionalTree
    sigma: tuple[int, ...]

    @property
    def copies(self) -> Copies:
        """Copy j = km + i, base k turned by i, in (k, i) order."""
        return Copies(self.bases, _modulus(self.host), self.host.kind)


class Copies(abc.Sequence):
    """The x*m copies of a decomposition as a read-only sequence: copy
    j = km + i is base k turned by i, developed when it is read, so
    iterating holds one copy at a time. Two views are equal when their
    copies are, copy by copy; the hash keeps one int per copy."""

    def __init__(self, bases: Sequence[tuple[tuple[int, int], ...]], m: int, kind: str):
        self._bases, self._m, self._kind = bases, m, kind

    def __len__(self) -> int:
        return len(self._bases) * self._m

    def __getitem__(self, j: int) -> tuple[tuple[int, int], ...]:
        from operator import index  # TypeError on a float or slice index
        j, size = index(j), len(self)
        if not -size <= j < size:
            raise IndexError(f"copy {j} of {size}")
        k, i = divmod(j % size, self._m)
        return _rotate(self._bases[k], i, self._m, self._kind)

    def __iter__(self):
        m, kind = self._m, self._kind
        return (_rotate(base, i, m, kind) for base in self._bases for i in range(m))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Copies):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __hash__(self) -> int:
        return hash(tuple(hash(c) for c in self))


def _modulus(host: Host) -> int:
    """The rotation modulus m: n on K_{n,n}, nx on K_{nx,nx}, 2nx+1 on K_{2nx+1}."""
    if host.x < 1:
        raise MalformedInput(f"x must be positive, got {host.x}")
    if host.kind == "knn":
        return host.n
    if host.kind == "knxnx":
        return host.n * host.x
    if host.kind == "k2n1":
        return 2 * host.n * host.x + 1
    raise MalformedInput(f"unknown host kind {host.kind!r}")


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


def _source_edges(t: trees.FunctionalTree, kind: str) -> list[tuple[int, int]]:
    """Every copy's shape: the tree's edges (v, g(v)), on knn with the pendant (root, n)."""
    edges = [(v, p) for v, p in enumerate(t.g) if v != p]
    if kind == "knn":
        edges.append((t.root, t.n))
    return edges


def _placed(t: trees.FunctionalTree, sigma: Sequence[int], host: Host, k: int, edges):
    """Base k's vertex map and the sorted (min, max) image of edges under
    it: an even-depth v goes to sigma(v), an odd-depth v (the pendant as
    the root) to right + (sigma(v) + kn) mod m, n = host.n, right = 0 on
    K_{2nx+1} and m on the bipartite hosts."""
    m = _modulus(host)
    right, shift = (0 if host.kind == "k2n1" else m), k * host.n
    at = [a if d % 2 == 0 else right + (a + shift) % m for a, d in zip(sigma, t.depth)]
    if host.kind == "knn":
        at.append(right + (sigma[t.root] + shift) % m)
    image = [(a, b) if (a := at[u]) < (b := at[v]) else (b, a) for u, v in edges]
    return at, sorted(image)


def _build(
    t: trees.FunctionalTree, lab: Labeling | Sequence[int], kind: str, x: int
) -> Decomposition:
    """Base k, one per stretch k < x, is the source shape placed by _placed;
    verify_partition checks the result before it is returned."""
    edges = _source_edges(t, kind)
    if not edges:
        raise PreconditionViolated("tree has no edges")
    host = host_for(kind, t.n, x)
    _modulus(host)  # refuses x < 1 before the labeling is read
    lab = as_labeling(t, lab)
    bases = tuple(tuple(_placed(t, lab.sigma, host, k, edges)[1]) for k in range(x))
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
    return _build(t, lab, "knn", 1)


def decompose_k2n1(
    t: trees.FunctionalTree, lab: Labeling | Sequence[int], x: int
) -> Decomposition:
    """A tree with n edges tiles K_{2nx+1} by x label stretches and rotation.

    Copy (k, i) places an even-partition label a at a+i and an odd-partition
    label b at b+kn+i, mod 2nx+1. The stretch k spreads the edge differences
    over 1..nx, and the rotation i walks each difference class around Z_m.
    """
    return _build(t, lab, "k2n1", x)


def decompose_knxnx(
    t: trees.FunctionalTree, lab: Labeling | Sequence[int], x: int
) -> Decomposition:
    """A tree with n edges tiles undirected K_{nx,nx} (parts of size nx).

    Copy (k, s) places an even-partition label a on the left at a+s and an
    odd-partition label b on the right at b+kn+s, mod nx.
    """
    return _build(t, lab, "knxnx", x)


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
    at = index.setdefault
    relabeled = [(at(u, len(index)), at(v, len(index))) for u, v in copy]
    if len(index) != len(copy) + 1:
        return f"copy is not vertex-injective: {len(index)} vertices, {len(copy)} edges"
    try:
        code = trees.canonical_code_of_edges(relabeled)
    except MalformedInput:  # n - 1 edges inside Z_n, so they miss a vertex
        return "copy is disconnected"
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
    - the shape: a base that is the source shape's image under the map
      d.sigma names (_placed), injective, is a copy by that witness map;
      any other base gets the full check, vertex-injective, connected and
      with the source shape's canonical code, coded only then; witness (k,).
    Then the base edges' difference classes must be each class exactly
    once; the witness lists up to three missing and three repeated classes.
    The classes seen are held in a set the size of the base edges, so a
    host of any m is answered without allocating anything of size m.
    """
    host, t, s = d.host, d.tree, d.sigma
    m = _modulus(host)
    count = len(d.bases) * m
    right = 0 if host.kind == "k2n1" else m
    vouched = type(s) in (tuple, list) and all(type(a) is int for a in s)
    vouched = vouched and sorted(s) == list(range(t.n))
    edges = _source_edges(t, host.kind)
    expected_code = None
    seen: set[int] = set()
    repeated = []
    for k, base in enumerate(d.bases):
        for u, v in base:
            if not (type(u) is type(v) is int and 0 <= u < m and right <= v < right + m):
                return PartitionReport(False, "vertex outside the host", (k, (u, v)), count)
        at, image = _placed(t, s, host, k, edges) if vouched and edges else ((), None)
        if image != list(base) or len(set(at)) != len(at):
            if expected_code is None:
                expected_code = trees.canonical_code_of_edges(edges)
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


def check_export_size(host: Host, dot: bool, sizes: Sequence[int] | None = None) -> None:
    """ResourceLimit past EXPORT_CAP edge lines, counted before any copy is
    developed: from the bases' sizes e_k when given, else from the host
    alone, whose x bases have host.n edges each, the source shape's. JSON
    writes each copy once, and DOT frame j redraws copies 0..j, so copy
    j = km + i is written C - j times, C = xm: base k's m copies take
    e_k (m (C - km) - m (m - 1) / 2) lines. Only the sums of e_k and k e_k
    enter, so nothing of size x is formed."""
    m = _modulus(host)
    if sizes is None:
        x, edges, k_edges = host.x, host.n * host.x, host.n * host.x * (host.x - 1) // 2
    else:
        x, edges, k_edges = len(sizes), sum(sizes), sum(k * e for k, e in enumerate(sizes))
    lines = edges * (m * x * m - m * (m - 1) // 2) - k_edges * m * m if dot else edges * m
    if lines > EXPORT_CAP:
        fmt = "DOT" if dot else "JSON"
        raise ResourceLimit(f"the {fmt} export needs {lines} edge lines, past the cap {EXPORT_CAP}")


def decomposition_to_json(d: Decomposition) -> Iterator[str]:
    """Every copy and its provenance as the parts of one JSON text: a head,
    one part per copy (json writes a tuple as an array) and the provenance,
    whose shift of copy j is (k, i) = divmod(j, m), one part per base. The
    first part raises ResourceLimit past EXPORT_CAP edges."""
    check_export_size(d.host, False, [len(base) for base in d.bases])
    host = {"kind": d.host.kind, "n": d.host.n, "x": d.host.x}
    yield f'{{"host": {json.dumps(host)}, "copies": ['
    for j, copy in enumerate(d.copies):
        yield (", " if j else "") + json.dumps(copy)
    tree = json.dumps({"n": d.tree.n, "g": d.tree.g})
    yield f'], "provenance": {{"tree": {tree}, "sigma": {json.dumps(d.sigma)}, "shifts": ['
    m = _modulus(d.host)
    for k in range(len(d.bases)):
        yield (", " if k else "") + ", ".join(f"[{k}, {i}]" for i in range(m))
    yield "]}}"


def decomposition_to_dot(d: Decomposition) -> Iterator[str]:
    """One DOT frame per copy, each a part; edges of earlier copies are
    grayed out. C copies of e edges take e*C*(C+1)/2 edge lines, and past
    EXPORT_CAP of them the first part raises ResourceLimit."""
    check_export_size(d.host, True, [len(base) for base in d.bases])
    kind, arrow = ("digraph", "->") if d.host.kind == "knn" else ("graph", "--")
    gray = ""
    for idx, copy in enumerate(d.copies):
        own = "".join(f"  {a} {arrow} {b};\n" for a, b in copy)
        yield f"{kind} frame_{idx} {{\n{gray}{own}}}\n"
        gray += "".join(f"  {a} {arrow} {b} [color=lightgray];\n" for a, b in copy)
