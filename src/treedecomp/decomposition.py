"""Cyclic decompositions of directed K_{n,n}, K_{2nx+1}, and K_{nx,nx}.

One builder serves all three hosts: it takes the beta-labeled tree as a base
copy of (even-depth label, odd-depth label) pairs and develops it by cyclic
shifts mod m; the hosts differ only in m and in where a shifted pair lands.
verify_partition is the independent ground truth, and the builder runs it
before returning and raises VerificationFailed, with the report's witness,
on failure. It checks the exact cover of the host edge set edge by edge. It
fully checks the shape of one copy per stretch; any other copy passes the
shape check only if it is exactly a host rotation of such a copy, and
otherwise gets the full check itself. The recorded shifts only suggest which
rotation to try; they are never trusted.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from itertools import islice
from typing import Sequence

from . import trees
from .errors import MalformedInput, VerificationFailed
from .labeling import Labeling, verify_beta


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
    host: Host
    copies: tuple[tuple[tuple[int, int], ...], ...]
    tree: trees.FunctionalTree
    sigma: tuple[int, ...]
    shifts: tuple[tuple[int, int], ...]


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


def _build(
    t: trees.FunctionalTree, lab: Labeling | Sequence[int], host: Host
) -> Decomposition:
    """Develop one base copy of the labeled tree by cyclic shifts mod m.

    The base copy is the labeled tree's orientation read as (even-depth
    label, odd-depth label) pairs; only directed K_{n,n} keeps the
    loop-derived pair (r, r). Copy (k, i) moves a pair (a, b) to (a+i, b+kn+i) mod m, with n
    = host.n, and places it in the host: as (u, m+v) on the bipartite hosts
    (m = n on K_{n,n}, nx on K_{nx,nx}), as (min, max) on K_{2nx+1} (m =
    2nx+1). The result is checked by verify_partition before it is returned.
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
    copies = []
    shifts = []
    for k in range(host.x):
        stretched = [(a, b + k * host.n) for a, b in pairs]
        for i in range(m):
            moved = [((a + i) % m, (b + i) % m) for a, b in stretched]
            if host.kind == "k2n1":
                copy = [(u, v) if u < v else (v, u) for u, v in moved]
            else:
                copy = [(u, m + v) for u, v in moved]
            copies.append(tuple(sorted(copy)))
            shifts.append((k, i))
    d = Decomposition(
        host=host, copies=tuple(copies), tree=t, sigma=lab.sigma, shifts=tuple(shifts)
    )
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


def _vertex_key(v):
    """v itself if hashable, else a stand-in, so JSON lists and objects index."""
    try:
        hash(v)
    except TypeError:
        return ("unhashable", repr(v))
    return v


def _copy_is_tree_of_shape(
    copy: Sequence[tuple[int, int]], expected_code: bytes
) -> str | None:
    """None if the copy is a vertex-injective tree with the expected shape."""
    index: dict = {}
    relabeled = [
        tuple(index.setdefault(_vertex_key(v), len(index)) for v in e) for e in copy
    ]
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


def _rotate(copy, s: int, m: int, kind: str) -> tuple[tuple[int, int], ...]:
    """The host rotation v -> v + s (mod m) applied to an in-host copy.

    Bipartite hosts move (u, m+v) to (u+s, m+v+s); K_{2nx+1} moves both
    ends and writes the edge as (min, max). Either way it is a bijection of
    the host's vertices, so it maps a tree onto a tree of the same shape.
    """
    if kind == "k2n1":
        moved = (((u + s) % m, (v + s) % m) for u, v in copy)
        return tuple(sorted((u, v) if u < v else (v, u) for u, v in moved))
    return tuple(sorted(((u + s) % m, m + (v + s) % m) for u, v in copy))


def _as_vertex(v) -> int | None:
    """v as an int if it equals one, as membership in the host's edge set
    would decide (so 2.0 is vertex 2); None otherwise."""
    try:
        i = int(v)
    except (TypeError, ValueError, OverflowError):
        return None
    return i if i == v else None


def _first_three(edges) -> list:
    """The first three edges in sorted order, or in repr order if they do not
    compare (JSON can mix strings, numbers and lists)."""
    try:
        return sorted(edges)[:3]
    except TypeError:
        return sorted(edges, key=repr)[:3]


def verify_partition(d: Decomposition) -> PartitionReport:
    """Exact cover of the host edge set by copies of the source shape.

    Shape: the first copy of each stretch k (by its d.shifts entry (k, i))
    gets the full check -- vertex-injective, connected, with the source
    tree's canonical code -- and, if all its edges lie in the host, becomes
    that stretch's reference. A later copy tagged (k, i) passes if it is
    exactly the reference turned by the host rotation i - i_ref, a vertex
    bijection; every other copy gets the full check. d.shifts only picks
    the rotation to try and is never trusted: a missing, malformed,
    wrong-length or wrong entry costs a full check, not a pass.

    Cover: each in-host edge (u, v) is counted at code u*V + v of a V*V
    bytearray, V the host's vertex count. Out-of-host edges and edges with
    an end equal to no int are extras (2.0 is vertex 2, as host-set
    membership would have it). With no edge twice and no extras, the cover
    is exact iff the edge count equals the host's. Copies are read in order
    and the first failure is reported: a copy's shape before its repeated
    edges, and a tiling failure (missing edges, extras) after the last copy.
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

    m = max(_modulus(host), 0)
    if host.kind == "k2n1":
        nv, v_lo, size = m, 0, m * (m - 1) // 2
    else:
        nv, v_lo, size = 2 * m, m, m * m
    # A host with more edges than the copies hold cannot be covered; its
    # counts go in a dict then, so a malformed host never sizes an allocation.
    enough = size <= sum(map(len, d.copies))
    covered = bytearray(nv * nv) if enough else defaultdict(int)
    count = 0
    extras: dict = {}
    refs: dict[int, tuple[int, tuple[tuple[int, int], ...]]] = {}
    hints = d.shifts if len(d.shifts) == len(d.copies) else ()

    def twice(idx, edge):
        return PartitionReport(False, "edge covered twice", (idx, edge), len(d.copies))

    for idx, copy in enumerate(d.copies):
        hint = hints[idx] if hints else None
        if not (
            isinstance(hint, tuple)
            and len(hint) == 2
            and all(isinstance(h, int) for h in hint)
        ):
            hint = None
        ref = refs.get(hint[0]) if hint else None
        if ref is not None:
            rotated = _rotate(ref[1], hint[1] - ref[0], m, host.kind)
            if rotated == copy:
                # Edge by edge equal to in-host int edges: count those.
                for j, (u, v) in enumerate(rotated):
                    code = u * nv + v
                    if covered[code]:
                        return twice(idx, copy[j])
                    covered[code] = 1
                count += len(rotated)
                continue

        shape_problem = _copy_is_tree_of_shape(copy, expected_code)
        if shape_problem is not None:
            return PartitionReport(False, shape_problem, (idx,), len(d.copies))
        in_host = []
        for edge in copy:
            u, v = (_as_vertex(w) for w in edge)
            if None not in (u, v) and 0 <= u < m and v_lo <= v < nv and u < v:
                code = u * nv + v
                if covered[code]:
                    return twice(idx, edge)
                covered[code] = 1
                in_host.append((u, v))
            else:
                key = tuple(_vertex_key(w) for w in edge)
                if key in extras:
                    return twice(idx, edge)
                extras[key] = edge
        count += len(in_host)
        if hint and hint[0] not in refs and len(in_host) == len(copy):
            refs[hint[0]] = (hint[1], tuple(in_host))

    if extras or count != size:
        host_order = ((u, v) for u in range(m) for v in range(max(v_lo, u + 1), nv))
        missing = (e for e in host_order if not covered[e[0] * nv + e[1]])
        witness = (list(islice(missing, 3)), _first_three(extras.values()))
        return PartitionReport(
            False, "copies do not tile the host edge set", witness, len(d.copies)
        )
    return PartitionReport(True, None, None, len(d.copies))


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
    """One frame per copy; edges of earlier copies are grayed out."""
    directed = d.host.kind == "knn"
    kind, arrow = ("digraph", "->") if directed else ("graph", "--")
    frames = []
    previous: list[tuple[int, int]] = []
    for idx, copy in enumerate(d.copies):
        lines = [f"{kind} frame_{idx} {{"]
        for a, b in previous:
            lines.append(f'  {a} {arrow} {b} [color=lightgray];')
        for a, b in copy:
            lines.append(f"  {a} {arrow} {b};")
        lines.append("}")
        frames.append("\n".join(lines))
        previous.extend(copy)
    return "\n".join(frames) + "\n"
