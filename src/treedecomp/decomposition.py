"""Cyclic decompositions of directed K_{n,n}, K_{2nx+1}, and K_{nx,nx}.

One builder serves all three hosts: it takes the beta-labeled tree as a base
copy of (even-depth label, odd-depth label) pairs and develops it by cyclic
shifts mod m; the hosts differ only in m and in where a shifted pair lands.
verify_partition is the independent ground truth (exact cover of the host
edge set plus a per-copy shape check); the builder runs it before returning
and raises VerificationFailed, with the report's witness, on failure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
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


def unorient(o: OrientedBipartiteTree) -> trees.FunctionalTree:
    """Recover the parent map from an orientation (inverse of orient)."""
    n = o.n
    root = o.root_edge[0]
    adj: list[list[int]] = [[] for _ in range(n)]
    for x, y in o.edges:
        if (x, y) == o.root_edge:
            continue
        adj[x].append(y - n)
        adj[y - n].append(x)
    return trees.from_parent_map(n, trees.bfs(adj, root)[1])


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


def host_edges(host: Host) -> set[tuple[int, int]]:
    """The full edge set of the host graph."""
    if host.kind == "knn":
        n = host.n
        return {(x, n + y) for x in range(n) for y in range(n)}
    if host.kind == "k2n1":
        m = 2 * host.n * host.x + 1
        return {(u, v) for u in range(m) for v in range(u + 1, m)}
    if host.kind == "knxnx":
        side = host.n * host.x
        return {(l, side + r) for l in range(side) for r in range(side)}
    raise MalformedInput(f"unknown host kind {host.kind!r}")


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
    if host.kind == "knn":
        m = host.n
    elif host.kind == "knxnx":
        m = host.n * host.x
    else:
        m = 2 * host.n * host.x + 1
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


def _copy_is_tree_of_shape(
    copy: Sequence[tuple[int, int]], expected_code: bytes
) -> str | None:
    """None if the copy is a vertex-injective tree with the expected shape."""
    verts = sorted({v for e in copy for v in e})
    if len(verts) != len(copy) + 1:
        return f"copy is not vertex-injective: {len(verts)} vertices, {len(copy)} edges"
    index = {v: i for i, v in enumerate(verts)}
    relabeled = [(index[a], index[b]) for a, b in copy]
    adj: list[list[int]] = [[] for _ in verts]
    for a, b in relabeled:
        adj[a].append(b)
        adj[b].append(a)
    if len(trees.bfs(adj, 0)[0]) != len(verts):
        return "copy is disconnected"
    code = trees.canonical_code_of_edges(len(verts), relabeled)
    if code != expected_code:
        return "copy shape differs from the source tree"
    return None


def verify_partition(d: Decomposition) -> PartitionReport:
    """Exact cover of the host edge set by copies of the source shape."""
    if d.host.kind == "knn":
        # Copies carry the loop-derived edge, so the reference shape is the
        # source tree plus a pendant at the root.
        t = d.tree
        expected_code = trees.canonical_code_of_edges(
            t.n + 1, sorted(t.undirected_edges()) + [(t.root, t.n)]
        )
    else:
        expected_code = trees.canonical_code(d.tree)

    seen: set[tuple[int, int]] = set()
    for idx, copy in enumerate(d.copies):
        shape_problem = _copy_is_tree_of_shape(copy, expected_code)
        if shape_problem is not None:
            return PartitionReport(False, shape_problem, (idx,), len(d.copies))
        for edge in copy:
            if edge in seen:
                return PartitionReport(
                    False, "edge covered twice", (idx, edge), len(d.copies)
                )
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


def decomposition_from_json(text: str) -> Decomposition:
    try:
        obj = json.loads(text)
        host = Host(obj["host"]["kind"], obj["host"]["n"], obj["host"]["x"])
        copies = tuple(
            tuple((a, b) for a, b in copy) for copy in obj["copies"]
        )
        prov = obj["provenance"]
        tree = trees.from_parent_map(prov["tree"]["n"], prov["tree"]["g"])
        sigma = tuple(prov["sigma"])
        shifts = tuple((k, i) for k, i in prov["shifts"])
    except (json.JSONDecodeError, TypeError, KeyError) as exc:
        raise MalformedInput(f"bad decomposition JSON: {exc}") from exc
    return Decomposition(host=host, copies=copies, tree=tree, sigma=sigma, shifts=shifts)


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
