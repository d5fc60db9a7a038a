import hashlib
import json
import tracemalloc
from collections import Counter
from collections.abc import Sequence

import pytest
from conftest import (
    catalog,
    copies_by_tuple,
    decomposition_from_json,
    decomposition_json_by_dumps,
    host_edges,
    unorient,
    verify_partition_by_sets,
)

from treedecomp import (
    Decomposition,
    Host,
    MalformedInput,
    PreconditionViolated,
    ResourceLimit,
    VerificationFailed,
    conjugate,
    decompose_directed_knn,
    decompose_k2n1,
    decompose_knxnx,
    decomposition_to_json,
    find_beta,
    from_parent_map,
    phi_set,
    verify_partition,
)
from treedecomp import decomposition
from treedecomp.decomposition import PartitionReport, decomposition_to_dot
from treedecomp.labeling import labeled_pairs

FIGURE_TREE = from_parent_map(4, [0, 3, 3, 0])
IDENTITY4 = (0, 1, 2, 3)


class TestOrient:
    """The labeled orientation labeled_pairs(t, sigma) that every host is
    built from; sigma = range(n) gives the tree's own."""

    def test_figure_tree(self):
        pairs = labeled_pairs(FIGURE_TREE, IDENTITY4)
        assert set(pairs) == {(0, 0), (0, 3), (2, 3), (1, 3)}
        assert pairs[FIGURE_TREE.root] == (0, 0)

    def test_single_vertex(self):
        assert labeled_pairs(from_parent_map(1, [0]), (0,)) == [(0, 0)]

    def test_star(self):
        assert set(labeled_pairs(from_parent_map(3, [0, 0, 0]), range(3))) == {
            (0, 0), (0, 1), (0, 2)
        }

    @pytest.mark.parametrize("n", range(1, 8))
    def test_even_depth_vertices_only_left(self, n):
        for entry in catalog(n):
            t = entry.tree
            for x, y in labeled_pairs(t, range(n)):
                assert t.depth[x] % 2 == 0
                assert y == x or t.depth[y] % 2 == 1

    @pytest.mark.parametrize("n", range(1, 8))
    def test_unorient_round_trip(self, n):
        for entry in catalog(n):
            assert unorient(labeled_pairs(entry.tree, range(n))) == entry.tree


class TestDirectedKnn:
    def test_figure4_frames(self):
        d = decompose_directed_knn(FIGURE_TREE, IDENTITY4)
        assert len(d.copies) == 4
        # the four frames of the paper's rotation, edge for edge
        assert set(d.copies[0]) == {(0, 4), (0, 7), (1, 7), (2, 7)}
        assert set(d.copies[1]) == {(1, 5), (1, 4), (2, 4), (3, 4)}
        assert set(d.copies[2]) == {(2, 6), (2, 5), (3, 5), (0, 5)}
        assert set(d.copies[3]) == {(3, 7), (3, 6), (0, 6), (1, 6)}
        covered = {e for copy in d.copies for e in copy}
        assert covered == {(x, 4 + y) for x in range(4) for y in range(4)}
        assert verify_partition(d).ok

    def test_single_vertex(self):
        d = decompose_directed_knn(from_parent_map(1, [0]), (0,))
        assert tuple(d.copies) == (((0, 1),),)

    def test_star3(self):
        t = from_parent_map(3, [0, 0, 0])
        d = decompose_directed_knn(t, (0, 1, 2))
        assert len(d.copies) == 3
        for i, copy in enumerate(d.copies):
            assert set(copy) == {(i, 3 + y) for y in range(3)}

    @pytest.mark.parametrize("n", range(1, 10))
    def test_catalog(self, n):
        for entry in catalog(n):
            lab = find_beta(entry.tree, "first")
            d = decompose_directed_knn(entry.tree, lab)
            assert len(d.copies) == n
            assert verify_partition(d).ok

    def test_rejects_non_beta_sigma(self):
        with pytest.raises(MalformedInput):
            decompose_directed_knn(from_parent_map(3, [0, 0, 1]), (0, 1, 2))

    def test_long_path_past_one_byte_depths(self):
        # the reference shape's centroid-rooted depth reaches 300
        n = 600
        path = from_parent_map(n, [0] + list(range(n - 1)))
        snake = [v // 2 if v % 2 == 0 else n - 1 - v // 2 for v in range(n)]
        d = decompose_directed_knn(path, snake)
        assert len(d.copies) == n and verify_partition(d).ok


class TestK2n1:
    def test_two_edge_path_covers_k5(self):
        t = from_parent_map(3, [0, 0, 1])
        d = decompose_k2n1(t, find_beta(t, "first"), 1)
        assert len(d.copies) == 5
        assert sum(len(c) for c in d.copies) == 10
        assert verify_partition(d).ok

    def test_single_edge_covers_k3(self):
        t = from_parent_map(2, [0, 0])
        d = decompose_k2n1(t, (0, 1), 1)
        assert len(d.copies) == 3
        assert {e for c in d.copies for e in c} == {(0, 1), (1, 2), (0, 2)}

    def test_star3_x2_covers_k13(self):
        t = from_parent_map(4, [0, 0, 0, 0])
        d = decompose_k2n1(t, find_beta(t, "first"), 2)
        assert len(d.copies) == 26
        assert sum(len(c) for c in d.copies) == 78
        assert verify_partition(d).ok

    def test_requires_edge_and_positive_x(self):
        with pytest.raises(PreconditionViolated):
            decompose_k2n1(from_parent_map(1, [0]), (0,), 1)
        t = from_parent_map(2, [0, 0])
        with pytest.raises(MalformedInput):
            decompose_k2n1(t, (0, 1), 0)


class TestKnxnx:
    def test_single_edge_x2(self):
        t = from_parent_map(2, [0, 0])
        d = decompose_knxnx(t, (0, 1), 2)
        assert len(d.copies) == 4
        assert {e for c in d.copies for e in c} == host_edges(d.host)

    def test_three_edge_path_x1(self):
        t = from_parent_map(4, [0, 0, 1, 2])
        d = decompose_knxnx(t, find_beta(t, "first"), 1)
        assert len(d.copies) == 3
        assert sum(len(c) for c in d.copies) == 9
        assert verify_partition(d).ok

    def test_four_edge_trees_x2(self):
        for entry in catalog(5):
            lab = find_beta(entry.tree, "first")
            d = decompose_knxnx(entry.tree, lab, 2)
            assert len(d.copies) == 16
            assert sum(len(c) for c in d.copies) == 64
            assert verify_partition(d).ok


class TestVerifyPartition:
    def test_builder_failure_carries_witness(self, monkeypatch):
        t = from_parent_map(3, [0, 0, 1])
        dropped = decompose_k2n1(t, (0, 2, 1), 2).bases[-1]
        lengths = sorted(min((v - u) % 9, (u - v) % 9) for u, v in dropped)
        real = decomposition.Decomposition

        def without_last_base(**fields):
            fields["bases"] = fields["bases"][:-1]
            return real(**fields)

        monkeypatch.setattr(decomposition, "Decomposition", without_last_base)
        with pytest.raises(VerificationFailed) as exc:
            decompose_k2n1(t, (0, 2, 1), 2)
        assert "do not tile" in str(exc.value)
        assert f"witness ({lengths}, [])" in str(exc.value)

    def test_duplicate_edge_detected(self):
        t = from_parent_map(2, [0, 0])
        good = decompose_k2n1(t, (0, 1), 1)
        report = verify_partition(_with(good, good.bases * 2))
        assert report == PartitionReport(
            False, "copies do not tile the host edge set", ([], [1]), 6
        )

    def test_wrong_shape_detected(self):
        # path base passed off as a star decomposition
        star = from_parent_map(4, [0, 0, 0, 0])
        d = decompose_k2n1(star, find_beta(star, "first"), 1)
        report = verify_partition(_put(d, 0, ((0, 1), (1, 2), (2, 3))))
        assert not report.ok
        assert "shape" in report.problem

    def test_vertex_collision_detected(self):
        t = from_parent_map(3, [0, 0, 1])
        d = decompose_k2n1(t, find_beta(t, "first"), 1)
        assert not verify_partition(_put(d, 0, ((0, 1), (0, 1)))).ok

    def test_copy_count_times_edges_is_host_size(self):
        for n in range(2, 7):
            for entry in catalog(n):
                lab = find_beta(entry.tree, "first")
                for x in (1, 2):
                    for d in (
                        decompose_k2n1(entry.tree, lab, x),
                        decompose_knxnx(entry.tree, lab, x),
                    ):
                        assert len(d.copies) * (n - 1) == len(host_edges(d.host))
                        assert len(d.bases) == x


def _side(host: Host) -> int:
    """The rotation modulus: n, nx or 2nx+1."""
    if host.kind == "knn":
        return host.n
    if host.kind == "knxnx":
        return host.n * host.x
    return 2 * host.n * host.x + 1


def _star(host: Host, size: int) -> tuple:
    m = _side(host)
    if host.kind == "k2n1":
        return tuple((0, j) for j in range(1, size + 1))
    return tuple((0, m + j) for j in range(size))


def _path(host: Host, size: int) -> tuple:
    m = _side(host)
    if host.kind == "k2n1":
        return tuple((j, j + 1) for j in range(size))
    return tuple(sorted(((j + 1) // 2, m + j // 2) for j in range(size)))


def _class(host: Host, edge) -> int:
    m = _side(host)
    c = (edge[1] - edge[0]) % m
    return min(c, m - c) if host.kind == "k2n1" else c


def _with(d: Decomposition, bases) -> Decomposition:
    return Decomposition(host=d.host, bases=tuple(bases), tree=d.tree, sigma=d.sigma)


def _put(d: Decomposition, k: int, base) -> Decomposition:
    bases = list(d.bases)
    bases[k] = tuple(base)
    return _with(d, bases)


def _leaf_moved(d: Decomposition):
    """Base 0 with one leaf re-hung on its neighbour at a fresh in-host
    vertex, so that its edge takes the difference class of another base
    edge: the same shape, one class twice. None if there is no such spot."""
    host, base = d.host, d.bases[0]
    m = _side(host)
    degree = Counter(v for e in base for v in e)
    others = {_class(host, e) for b in d.bases for e in b}
    for j, (u, v) in enumerate(base):
        if degree[u] > 1 and degree[v] > 1:
            continue
        for c in sorted(others - {_class(host, (u, v))}):
            if degree[v] == 1:
                leaf = (u + c) % m if host.kind == "k2n1" else m + (u + c) % m
                edge = (u, leaf)
            else:
                leaf = (v - c) % m
                edge = (leaf, v)
            if leaf not in degree:
                moved = base[:j] + (tuple(sorted(edge)),) + base[j + 1:]
                return _put(d, 0, sorted(moved))
    return None


def _tampered_bases(d: Decomposition):
    """(name, decomposition) pairs, each with in-host bases, the first one
    untouched; the rest are faults unless the tree has the tampered shape."""
    bases, host, size = d.bases, d.host, len(d.bases[0])
    (u, v), rest = bases[0][0], bases[0][1:]
    yield "untouched", d
    yield "base 0 a star", _put(d, 0, _star(host, size))
    yield "base 0 a path", _put(d, 0, _path(host, size))
    yield "an edge of base 0 reversed", _put(d, 0, ((v, u),) + rest)
    moved = _leaf_moved(d)
    if moved is not None:
        yield "a leaf of base 0 moved onto a used class", moved
    yield "last base dropped", _with(d, bases[:-1])
    yield "base 0 duplicated", _with(d, bases + bases[:1])
    if len(bases) > 1:
        yield "base 1 replaced by base 0", _put(d, 1, bases[0])


def _catalog_decompositions(n: int, stretches=(1, 2)):
    for entry in catalog(n):
        t = entry.tree
        lab = find_beta(t, "first")
        yield decompose_directed_knn(t, lab)
        if n >= 2:
            for x in stretches:
                yield decompose_k2n1(t, lab, x)
                yield decompose_knxnx(t, lab, x)


class TestCopiesView:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_copies_equal_the_tuple_oracle(self, n):
        for d in _catalog_decompositions(n, (1, 2, 3)):
            want = copies_by_tuple(d)
            assert tuple(d.copies) == want
            assert len(d.copies) == len(want)
            assert [d.copies[j] for j in range(-len(want), len(want))] == [*want, *want]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_json_equals_one_dumps_of_the_whole(self, n):
        for d in _catalog_decompositions(n, (1, 2, 3)):
            assert "".join(decomposition_to_json(d)) == decomposition_json_by_dumps(d)

    def test_sequence_protocol(self):
        d = decompose_k2n1(FIGURE_TREE, find_beta(FIGURE_TREE, "first"), 2)
        copies = d.copies
        assert isinstance(copies, Sequence) and len(copies) == 2 * 13
        assert copies[-1] == copies[25] and copies[-26] == copies[0]
        for j in (26, -27, 10**30, -(10**30)):
            with pytest.raises(IndexError):
                copies[j]
        assert copies.index(copies[14]) == 14 and copies[14] in copies
        assert list(reversed(copies)) == list(copies)[::-1]

    def test_non_integer_index_is_a_type_error(self, monkeypatch):
        # read through operator.index before any copy is developed
        copies = decompose_k2n1(FIGURE_TREE, find_beta(FIGURE_TREE, "first"), 2).copies
        monkeypatch.setattr(decomposition, "_rotate", None)
        for j in (1.0, slice(0, 2), "1", None):
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                copies[j]

    def test_equality_and_hash(self):
        t = from_parent_map(5, [0, 0, 1, 1, 3])
        sigmas = phi_set(t)[:2]
        d1, d2, other = (decompose_knxnx(t, s, 2) for s in (sigmas[0], sigmas[0], sigmas[1]))
        assert d1.copies is not d2.copies
        assert d1.copies == d2.copies and hash(d1.copies) == hash(d2.copies)
        assert d1.copies != other.copies and hash(d1.copies) != hash(other.copies)
        # the view is not a tuple, so it never equals one
        assert d1.copies != tuple(d1.copies)
        assert d1.copies.__eq__(tuple(d1.copies)) is NotImplemented

    def test_iterating_holds_one_copy_at_a_time(self):
        # K_{2nx+1} from a 50-vertex path at x = 4: 1,572 copies of 49 edges,
        # 77,028 edge tuples, 6.4 MB traced when they were held in one tuple
        n = 50
        t = from_parent_map(n, [0] + list(range(n - 1)))
        d = decompose_k2n1(t, [v // 2 if v % 2 == 0 else n - 1 - v // 2 for v in range(n)], 4)
        tracemalloc.start()
        try:
            edges = sum(len(c) for c in d.copies)
            digest = hash(d.copies)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        m = 2 * (n - 1) * 4 + 1
        assert edges == m * (m - 1) // 2 and digest == hash(d.copies)
        assert peak < 2**20, peak

    @pytest.mark.parametrize(
        "export,g,x",
        [
            # 20,100 copies of one edge: 0.47 MB of JSON, 4.2 MB traced when joined
            (decomposition_to_json, [0, 0], 100),
            # 122 frames of a 16-vertex path: 3.3 MB of DOT, 10.1 MB traced when joined
            (decomposition_to_dot, [0] + list(range(15)), 2),
        ],
        ids=["json", "dot"],
    )
    def test_exports_are_consumed_part_by_part(self, export, g, x):
        t = from_parent_map(len(g), g)
        d = decompose_k2n1(t, find_beta(t, "first"), x)
        tracemalloc.start()
        try:
            length = sum(len(part) for part in export(d))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert length == len("".join(export(d)))
        assert peak < length // 10, (peak, length)


@pytest.fixture
def calls(monkeypatch):
    """The bases that verify_partition hands to the full shape check."""
    seen = []
    real = decomposition._copy_is_tree_of_shape
    monkeypatch.setattr(
        decomposition,
        "_copy_is_tree_of_shape",
        lambda copy, code: seen.append(copy) or real(copy, code),
    )
    return seen


class TestVerifyPartitionOracle:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_reports_equal_the_set_oracle(self, n):
        # The oracle checks the developed copies edge by edge.
        for d in _catalog_decompositions(n):
            for name, variant in _tampered_bases(d):
                expected = verify_partition_by_sets(variant).ok
                assert verify_partition(variant).ok == expected, (d.host, name)
                assert expected == (name == "untouched") or name.startswith(
                    ("base 0 a", "an edge")
                ), (d.host, name)

    def test_tampering_is_caught(self):
        # On a tree that is neither a star nor a path, every wrong-shape
        # base fails, and a moved leaf fails the difference cover alone.
        t = catalog(6)[2].tree
        lab = find_beta(t, "first")
        for d in (decompose_k2n1(t, lab, 2), decompose_knxnx(t, lab, 2)):
            count = len(d.copies)
            for k in (0, 1):
                for base in (_star(d.host, 5), _path(d.host, 5)):
                    report = verify_partition(_put(d, k, base))
                    assert report == PartitionReport(
                        False, "copy shape differs from the source tree", (k,), count
                    )
            report = verify_partition(_leaf_moved(d))
            assert report.problem == "copies do not tile the host edge set"
            assert len(report.witness[0]) == len(report.witness[1]) == 1

    def test_each_shape_problem(self):
        # a 4-edge base that repeats a vertex, one with a triangle and a
        # separate edge, and one of another shape: each is reported at its
        # base, in the oracle's words too
        t = from_parent_map(5, [0, 0, 1, 2, 1])
        d = decompose_k2n1(t, find_beta(t, "first"), 1)
        cases = {
            "copy is not vertex-injective: 4 vertices, 4 edges": ((0, 1), (0, 2), (1, 2), (2, 3)),
            "copy is disconnected": ((0, 1), (1, 2), (2, 0), (3, 4)),
            "copy shape differs from the source tree": ((0, 1), (0, 2), (0, 3), (0, 4)),
        }
        for problem, base in cases.items():
            bad = _put(d, 0, base)
            want = PartitionReport(False, problem, (0,), len(d.copies))
            assert verify_partition(bad) == want
            assert verify_partition_by_sets(bad) == want

    def test_shape_coded_only_for_a_base_placed_otherwise(self, calls):
        # A built base is the tree's image under the map its labeling names,
        # so no shape is coded; a base renamed within each part (here base 0
        # turned by 1, which tiles the host as well) gets the full check once.
        t = catalog(6)[2].tree
        lab = find_beta(t, "first")
        for x in (1, 2, 3):
            calls.clear()
            ds = [decompose_directed_knn(t, lab)]
            ds += [decompose_k2n1(t, lab, x), decompose_knxnx(t, lab, x)]
            assert all(verify_partition(d).ok for d in ds) and calls == []
            for d in ds:
                renamed = _put(d, 0, d.copies[1])
                assert renamed.bases[0] != d.bases[0]
                calls.clear()
                report = verify_partition(renamed)
                assert calls == [renamed.bases[0]]
                assert report == verify_partition_by_sets(renamed) == verify_partition(d)

    def test_a_placement_is_a_witness_only_when_sigma_and_the_map_are_sound(self, calls):
        path, one = from_parent_map(3, [0, 0, 1]), from_parent_map(1, [0])
        # at k = 1, sigma = (2, 0, 1) places the path as base 1 here, but
        # sends vertices 0 and 1 both to 2: a loop, no copy
        bases = (((0, 2), (1, 2)), ((1, 2), (2, 2)))
        d = Decomposition(host=Host("k2n1", 2, 2), bases=bases, tree=path, sigma=(2, 0, 1))
        problem = "copy is not vertex-injective: 2 vertices, 2 edges"
        assert verify_partition(d) == PartitionReport(False, problem, (1,), 18)
        # a one-vertex tree's base has no edges to be its image
        d = Decomposition(host=Host("k2n1", 0, 1), bases=((),), tree=one, sigma=(0,))
        problem = "copy is not vertex-injective: 0 vertices, 0 edges"
        assert verify_partition(d) == PartitionReport(False, problem, (0,), 1)
        # sigma = (0, 0, 1) is no permutation, though at k = 1 it places the
        # path injectively, as base 1 here: both bases get the full check
        bases = (((0, 2), (1, 2)), ((0, 2), (1, 2)))
        d = Decomposition(host=Host("k2n1", 2, 2), bases=bases, tree=path, sigma=(0, 0, 1))
        calls.clear()
        assert verify_partition(d).problem == "copies do not tile the host edge set"
        assert calls == list(bases)

    def test_host_larger_than_its_copies(self):
        # The classes seen are held in a set the size of the base edges, so
        # even a host of ~10^20 edges is answered at once.
        t = from_parent_map(3, [0, 0, 1])
        d = decompose_k2n1(t, find_beta(t, "first"), 1)
        for n in (40, 10**10):
            for bases in (d.bases, d.bases * 2):
                big = Decomposition(
                    host=Host("k2n1", n, 1), bases=bases, tree=d.tree, sigma=d.sigma
                )
                tracemalloc.start()
                report = verify_partition(big)
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                assert not report.ok and peak < 100_000
                assert report.copies == len(bases) * (2 * n + 1)
                if n == 40:
                    assert not verify_partition_by_sets(big).ok

    def test_out_of_host_vertices(self):
        t = from_parent_map(4, [0, 0, 1, 2])
        lab = find_beta(t, "first")
        for d in (decompose_k2n1(t, lab, 2), decompose_knxnx(t, lab, 2)):
            m = _side(d.host)
            (u, v), rest = d.bases[1][0], d.bases[1][1:]
            lo = 0 if d.host.kind == "k2n1" else m
            for edge in ((-1, v), (m, v), (u, lo - 1), (u, lo + m), (u, 10**30)):
                report = verify_partition(_put(d, 1, (edge,) + rest))
                assert report == PartitionReport(
                    False, "vertex outside the host", (1, edge), len(d.copies)
                )

    def test_json_vertices_the_oracle_cannot_sort_do_not_raise(self):
        t = from_parent_map(4, [0, 0, 1, 2])
        d = decompose_k2n1(t, find_beta(t, "first"), 2)
        (u, v), rest = d.bases[1][0], d.bases[1][1:]
        for odd in ("a", None, 2.0, True, [u], {"u": u}, float("nan")):
            for edge in ((odd, v), (u, odd)):
                report = verify_partition(_put(d, 1, (edge,) + rest))
                assert report.problem == "vertex outside the host"
                assert report.witness == (1, edge)
        # True == 1 and 2.0 == 2 as host-set members, but not as vertices
        for one in (True, 1.0):
            base = [(one if a == 1 else a, b) for a, b in d.bases[0]]
            assert not verify_partition(_put(d, 0, base)).ok
        bad = json.loads("".join(decomposition_to_json(d)))
        m = _side(d.host)
        bad["copies"][0][0] = [[1], {"a": 2}]
        bad["copies"][m][0] = ["x", 3]
        report = verify_partition(decomposition_from_json(json.dumps(bad)))
        assert not report.ok


class TestLabelSetFacts:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_partition_label_ranges(self, n):
        # A-labels in 0..n-2, B-labels in 1..n-1 (tree with n-1 edges);
        # the top signed label joins labels 0 and n-1
        for entry in catalog(n):
            lab = find_beta(entry.tree, "first")
            h = conjugate(entry.tree, lab.sigma)
            a_side = {v for v in range(n) if h.depth[v] % 2 == 0}
            b_side = set(range(n)) - a_side
            assert 0 in a_side and max(a_side) <= n - 2 or n == 1
            assert b_side <= set(range(1, n))
            top = [v for v in range(n) if lab.signed_labels[v] == n - 1]
            assert len(top) == 1
            v = top[0]
            assert {v, h.g[v]} == {0, n - 1}


class TestSerialization:
    def test_json_round_trip(self):
        t = from_parent_map(3, [0, 0, 1])
        d = decompose_k2n1(t, find_beta(t, "first"), 2)
        assert decomposition_from_json("".join(decomposition_to_json(d))) == d

    def test_json_schema(self):
        d = decompose_directed_knn(FIGURE_TREE, IDENTITY4)
        obj = json.loads("".join(decomposition_to_json(d)))
        assert obj["host"] == {"kind": "knn", "n": 4, "x": 1}
        assert obj["copies"][0] == [[0, 4], [0, 7], [1, 7], [2, 7]]

    def test_dot_frames_gray_previous(self):
        d = decompose_directed_knn(FIGURE_TREE, IDENTITY4)
        dot = "".join(decomposition_to_dot(d))
        assert dot.count("digraph frame_") == 4
        assert dot.count("[color=lightgray]") == 4 + 8 + 12

    def test_dot_cap(self, monkeypatch):
        # 4 frames of 4 edges draw 4 + 8 + 12 + 16 = 40 edge lines
        d = decompose_directed_knn(FIGURE_TREE, IDENTITY4)
        monkeypatch.setattr(decomposition, "EXPORT_CAP", 40)
        assert "".join(decomposition_to_dot(d)).count(" -> ") == 40
        monkeypatch.setattr(decomposition, "EXPORT_CAP", 39)
        with pytest.raises(ResourceLimit, match="40 edge lines"):
            "".join(decomposition_to_dot(d))

    def test_json_cap(self, monkeypatch):
        # 4 copies of 4 edges list 16 edges
        d = decompose_directed_knn(FIGURE_TREE, IDENTITY4)
        monkeypatch.setattr(decomposition, "EXPORT_CAP", 16)
        assert sum(map(len, json.loads("".join(decomposition_to_json(d)))["copies"])) == 16
        monkeypatch.setattr(decomposition, "EXPORT_CAP", 15)
        with pytest.raises(ResourceLimit, match="JSON export needs 16 edge lines"):
            "".join(decomposition_to_json(d))

    @pytest.mark.parametrize("x", [1, 2, 3])
    def test_host_alone_counts_the_written_lines(self, monkeypatch, x):
        # the count from the host, before anything is built, is the number
        # of edge lines each export writes
        t = catalog(6)[2].tree
        lab = find_beta(t, "first")
        builds = (decompose_directed_knn(t, lab), decompose_k2n1(t, lab, x),
                  decompose_knxnx(t, lab, x))
        for d in builds:
            arrow = " -> " if d.host.kind == "knn" else " -- "
            monkeypatch.setattr(decomposition, "EXPORT_CAP", 10**9)
            dot = "".join(decomposition_to_dot(d)).count(arrow)
            listed = sum(map(len, json.loads("".join(decomposition_to_json(d)))["copies"]))
            for lines, is_dot in ((dot, True), (listed, False)):
                monkeypatch.setattr(decomposition, "EXPORT_CAP", lines)
                decomposition.check_export_size(d.host, is_dot)
                monkeypatch.setattr(decomposition, "EXPORT_CAP", lines - 1)
                with pytest.raises(ResourceLimit, match=f" {lines} edge lines"):
                    decomposition.check_export_size(d.host, is_dot)

    def test_dot_lines_of_bases_of_unequal_size(self, monkeypatch):
        # frame j redraws copies 0..j: with bases of 4 and 1 edges turned
        # by m = 17, the 34 frames draw 4 * (34 + ... + 18) + 1 * (17 + ... + 1)
        t = from_parent_map(5, [0, 0, 1, 2, 1])
        d = decompose_k2n1(t, find_beta(t, "first"), 2)
        d = _put(d, 1, d.bases[1][:1])
        lines = 4 * sum(range(18, 35)) + sum(range(1, 18))
        monkeypatch.setattr(decomposition, "EXPORT_CAP", lines)
        assert "".join(decomposition_to_dot(d)).count(" -- ") == lines
        monkeypatch.setattr(decomposition, "EXPORT_CAP", lines - 1)
        with pytest.raises(ResourceLimit, match=f"DOT export needs {lines} edge lines"):
            "".join(decomposition_to_dot(d))

    def test_bad_json(self):
        with pytest.raises(MalformedInput):
            decomposition_from_json("[]")

    @pytest.mark.parametrize(
        "host",
        [
            {"kind": "k2n1", "n": "2", "x": 2},
            {"kind": "k2n1", "n": 2.0, "x": 2},
            {"kind": "k2n1", "n": True, "x": 2},
            {"kind": "k2n1", "n": 0, "x": 2},
            {"kind": "k2n1", "n": 2, "x": 0},
            {"kind": "knxnx", "n": 2, "x": "2"},
            {"kind": "mystery", "n": 2, "x": 2},
        ],
    )
    def test_tampered_host(self, host):
        # a host no decompose_* function writes is malformed input, not
        # a TypeError inside verify_partition
        t = from_parent_map(3, [0, 0, 1])
        obj = json.loads("".join(decomposition_to_json(decompose_k2n1(t, find_beta(t), 2))))
        obj["host"] = host
        with pytest.raises(MalformedInput):
            decomposition_from_json(json.dumps(obj))

    def test_unknown_host(self):
        with pytest.raises(MalformedInput):
            host_edges(Host("mystery", 2, 1))


def _catalog_decomposition_digest() -> str:
    """SHA-256 over decomposition_to_json for every catalog tree, n <= 7:
    knn, then k2n1 and knxnx at x = 1 and x = 2, one line each."""
    h = hashlib.sha256()
    for n in range(1, 8):
        for entry in catalog(n):
            t = entry.tree
            lab = find_beta(t, "first")
            ds = [decompose_directed_knn(t, lab)]
            if n >= 2:
                ds += [
                    build(t, lab, x)
                    for x in (1, 2)
                    for build in (decompose_k2n1, decompose_knxnx)
                ]
            for d in ds:
                h.update("".join(decomposition_to_json(d)).encode() + b"\n")
    return h.hexdigest()


class TestGoldenOutput:
    # Pins which copies come back, in which order and with which shifts;
    # the validity tests alone would not notice a reordering.
    def test_catalog_decompositions(self):
        assert _catalog_decomposition_digest() == (
            "d3c52a68ead870aa269fe3bb1ae16ab382800c5b1ebc9f33d40acb845b3d6c95"
        )
