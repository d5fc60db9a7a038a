import hashlib
import json

import pytest
from conftest import (
    catalog,
    decomposition_from_json,
    unorient,
    verify_partition_by_sets,
)

from treedecomp import (
    Decomposition,
    Host,
    MalformedInput,
    VerificationFailed,
    decompose_directed_knn,
    decompose_k2n1,
    decompose_knxnx,
    decomposition_to_json,
    find_beta,
    from_parent_map,
    orient,
    verify_partition,
)
from treedecomp import decomposition
from treedecomp.decomposition import PartitionReport, decomposition_to_dot, host_edges

FIGURE_TREE = from_parent_map(4, [0, 3, 3, 0])
IDENTITY4 = (0, 1, 2, 3)


class TestOrient:
    def test_figure_tree(self):
        o = orient(FIGURE_TREE)
        assert set(o.edges) == {(0, 4), (0, 7), (2, 7), (1, 7)}
        assert o.root_edge == (0, 4)

    def test_single_vertex(self):
        o = orient(from_parent_map(1, [0]))
        assert o.edges == ((0, 1),)

    def test_star(self):
        o = orient(from_parent_map(3, [0, 0, 0]))
        assert set(o.edges) == {(0, 3), (0, 4), (0, 5)}

    @pytest.mark.parametrize("n", range(1, 8))
    def test_even_depth_vertices_only_left(self, n):
        for entry in catalog(n):
            t = entry.tree
            for x, y in orient(t).edges:
                assert t.depth[x] % 2 == 0

    @pytest.mark.parametrize("n", range(1, 8))
    def test_unorient_round_trip(self, n):
        for entry in catalog(n):
            assert unorient(orient(entry.tree)) == entry.tree


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
        assert d.copies == (((0, 1),),)

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
        with pytest.raises(MalformedInput):
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
        t = from_parent_map(2, [0, 0])
        dropped = decompose_k2n1(t, (0, 1), 1).copies[-1]
        real = decomposition.Decomposition

        def without_last_copy(**fields):
            fields["copies"] = fields["copies"][:-1]
            return real(**fields)

        monkeypatch.setattr(decomposition, "Decomposition", without_last_copy)
        with pytest.raises(VerificationFailed) as exc:
            decompose_k2n1(t, (0, 1), 1)
        assert "do not tile" in str(exc.value)
        assert str(dropped[0]) in str(exc.value)

    def test_duplicate_edge_detected(self):
        t = from_parent_map(2, [0, 0])
        good = decompose_k2n1(t, (0, 1), 1)
        bad = Decomposition(
            host=good.host,
            copies=(good.copies[0], good.copies[0], good.copies[2]),
            tree=good.tree,
            sigma=good.sigma,
            shifts=good.shifts,
        )
        report = verify_partition(bad)
        assert not report.ok
        assert "twice" in report.problem
        assert report.witness is not None

    def test_wrong_shape_detected(self):
        # path copy passed off as a star decomposition
        star = from_parent_map(4, [0, 0, 0, 0])
        lab = find_beta(star, "first")
        d = decompose_k2n1(star, lab, 1)
        path_copy = ((0, 1), (1, 2), (2, 3))
        bad = Decomposition(
            host=d.host,
            copies=(path_copy,) + d.copies[1:],
            tree=d.tree,
            sigma=d.sigma,
            shifts=d.shifts,
        )
        report = verify_partition(bad)
        assert not report.ok
        assert "shape" in report.problem

    def test_vertex_collision_detected(self):
        t = from_parent_map(3, [0, 0, 1])
        d = decompose_k2n1(t, find_beta(t, "first"), 1)
        bad = Decomposition(
            host=d.host,
            copies=(((0, 1), (0, 1)),) + d.copies[1:],
            tree=d.tree,
            sigma=d.sigma,
            shifts=d.shifts,
        )
        assert not verify_partition(bad).ok

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


def _turn(copy, s: int, host: Host) -> tuple:
    """Each pair's ends moved by s mod m, as the host rotation moves an
    in-host copy, applied blindly to whatever pairs the copy holds."""
    m = _side(host)
    if host.kind == "k2n1":
        return tuple(sorted(tuple(sorted(((u + s) % m, (v + s) % m))) for u, v in copy))
    return tuple(sorted(((u + s) % m, m + (v + s) % m) for u, v in copy))


def _with(d: Decomposition, copies=None, shifts=None) -> Decomposition:
    return Decomposition(
        host=d.host,
        copies=d.copies if copies is None else tuple(copies),
        tree=d.tree,
        sigma=d.sigma,
        shifts=d.shifts if shifts is None else tuple(shifts),
    )


def _put(d: Decomposition, idx: int, copy) -> Decomposition:
    copies = list(d.copies)
    copies[idx] = tuple(copy)
    return _with(d, copies)


def _tampered(d: Decomposition):
    """(name, decomposition) pairs, each a fault or a hint the verifier must
    not trust; the first is the untouched decomposition."""
    copies, host, size = d.copies, d.host, len(d.copies[0])
    last = len(copies) - 1
    yield "untouched", d
    yield "copy 0 a star", _put(d, 0, _star(host, size))
    yield "copy 0 a path", _put(d, 0, _path(host, size))
    yield "out-of-host edge in copy 0", _put(d, 0, copies[0][:-1] + ((0, 99),))
    yield "copy 0 as strings", _put(d, 0, [(str(u), str(v)) for u, v in copies[0]])
    yield "copy 0 as integral floats", _put(
        d, 0, [(float(u), float(v)) for u, v in copies[0]]
    )
    yield "last copy dropped", _with(d, copies[:-1])
    yield "first copy repeated at the end", _with(d, copies + copies[:1])
    yield "shifts empty", _with(d, shifts=())
    yield "shifts one short", _with(d, shifts=d.shifts[:-1])
    yield "shifts not ints", _with(d, shifts=[("a", 0.5)] * len(copies))
    yield "shifts as lists", _with(d, shifts=[list(h) for h in d.shifts])
    yield "shifts reversed", _with(d, shifts=d.shifts[::-1])
    if last < 1:
        return
    reversed_edge = ((copies[1][0][1], copies[1][0][0]),) + copies[1][1:]
    yield "copy 1 duplicates copy 0", _put(d, 1, copies[0])
    yield "copy 1 a star", _put(d, 1, _star(host, size))
    yield "copy 1 a path", _put(d, 1, _path(host, size))
    yield "last copy a star", _put(d, last, _star(host, size))
    yield "copy 1 empty", _put(d, 1, ())
    yield "out-of-host edge in copy 1", _put(d, 1, copies[1][:-1] + ((0, 99),))
    yield "out-of-host edge in copies 0 and 1", _put(
        _put(d, 0, copies[0][:-1] + ((0, 99),)), 1, copies[1][:-1] + ((0, 99),)
    )
    yield "reversed edge in copy 1", _put(d, 1, reversed_edge)
    yield "copies 1 and last swapped", _put(_put(d, 1, copies[last]), last, copies[1])
    yield "copy 1 as the turn of a tampered copy 0", _put(
        _put(d, 0, reversed_edge), 1, _turn(reversed_edge, 1, host)
    )
    yield "copy 1 with a half vertex", _put(
        d, 1, ((0.5, copies[1][0][1]),) + copies[1][1:]
    )
    yield "copy 1 with True for 1", _put(
        d, 1, [(True if u == 1 else u, v) for u, v in copies[1]]
    )
    yield "shifts reversed, copy 1 a star", _with(
        _put(d, 1, _star(host, size)), shifts=d.shifts[::-1]
    )
    if last >= 2:
        yield "copy 1 replaced by copy 2", _put(d, 1, copies[2])


def _catalog_decompositions(n: int):
    for entry in catalog(n):
        t = entry.tree
        lab = find_beta(t, "first")
        yield decompose_directed_knn(t, lab)
        if n >= 2:
            for x in (1, 2):
                yield decompose_k2n1(t, lab, x)
                yield decompose_knxnx(t, lab, x)


class TestVerifyPartitionOracle:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_reports_equal_the_set_oracle(self, n):
        for d in _catalog_decompositions(n):
            for name, variant in _tampered(d):
                expected = verify_partition_by_sets(variant)
                assert verify_partition(variant) == expected, (d.host, name)

    def test_tampering_is_caught(self):
        # On a tree that is neither a star nor a path, every wrong-shape
        # copy fails, at a reference index and between references alike.
        t = catalog(6)[2].tree
        lab = find_beta(t, "first")
        for d in (decompose_k2n1(t, lab, 2), decompose_knxnx(t, lab, 2)):
            for idx in (0, 1, len(d.copies) - 1):
                for copy in (_star(d.host, 5), _path(d.host, 5)):
                    report = verify_partition(_put(d, idx, copy))
                    assert report == PartitionReport(
                        False, "copy shape differs from the source tree", (idx,), len(d.copies)
                    )

    def test_one_full_shape_check_per_stretch(self, monkeypatch):
        calls = []
        real = decomposition._copy_is_tree_of_shape
        monkeypatch.setattr(
            decomposition,
            "_copy_is_tree_of_shape",
            lambda copy, code: calls.append(copy) or real(copy, code),
        )
        t = catalog(6)[2].tree
        lab = find_beta(t, "first")
        for x in (1, 2, 3):
            for build in (decompose_k2n1, decompose_knxnx):
                calls.clear()
                d = build(t, lab, x)
                assert len(calls) == x
                calls.clear()
                assert verify_partition(_with(d, shifts=())).ok
                assert len(calls) == len(d.copies)

    def test_host_larger_than_its_copies(self):
        # Too few edges for the host: the counts live in a dict, sized by the
        # copies, so even a host of ~10^20 edges is answered at once.
        t = from_parent_map(3, [0, 0, 1])
        d = decompose_k2n1(t, find_beta(t, "first"), 1)
        for n in (40, 10**10):
            for variant in (_put(d, 1, d.copies[0]), d):
                big = Decomposition(
                    host=Host("k2n1", n, 1),
                    copies=variant.copies,
                    tree=d.tree,
                    sigma=d.sigma,
                    shifts=d.shifts,
                )
                report = verify_partition(big)
                assert not report.ok
                if n == 40:
                    assert report == verify_partition_by_sets(big)

    def test_json_vertices_the_oracle_cannot_sort_do_not_raise(self):
        t = from_parent_map(4, [0, 0, 1, 2])
        d = decompose_k2n1(t, find_beta(t, "first"), 2)
        (u, v), rest = d.copies[1][0], d.copies[1][1:]
        for odd in ("a", None, [u], {"u": u}, float("nan")):
            for copy in (((odd, v),) + rest, ((u, odd),) + rest):
                report = verify_partition(_put(d, 1, copy))
                assert not report.ok and report.copies == len(d.copies)
        bad = json.loads(decomposition_to_json(d))
        bad["copies"][3][0] = [[1], {"a": 2}]
        bad["copies"][5][0] = ["x", 3]
        report = verify_partition(decomposition_from_json(json.dumps(bad)))
        assert not report.ok


class TestLabelSetFacts:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_partition_label_ranges(self, n):
        # A-labels in 0..n-2, B-labels in 1..n-1 (tree with n-1 edges);
        # the top signed label joins labels 0 and n-1
        for entry in catalog(n):
            lab = find_beta(entry.tree, "first")
            h = from_parent_map(n, lab.h)
            a_side = {v for v in range(n) if h.depth[v] % 2 == 0}
            b_side = set(range(n)) - a_side
            assert 0 in a_side and max(a_side) <= n - 2 or n == 1
            assert b_side <= set(range(1, n))
            top = [v for v in range(n) if lab.signed_labels[v] == n - 1]
            assert len(top) == 1
            v = top[0]
            assert {v, lab.h[v]} == {0, n - 1}


class TestSerialization:
    def test_json_round_trip(self):
        t = from_parent_map(3, [0, 0, 1])
        d = decompose_k2n1(t, find_beta(t, "first"), 2)
        assert decomposition_from_json(decomposition_to_json(d)) == d

    def test_json_schema(self):
        d = decompose_directed_knn(FIGURE_TREE, IDENTITY4)
        obj = json.loads(decomposition_to_json(d))
        assert obj["host"] == {"kind": "knn", "n": 4, "x": 1}
        assert obj["copies"][0] == [[0, 4], [0, 7], [1, 7], [2, 7]]

    def test_dot_frames_gray_previous(self):
        d = decompose_directed_knn(FIGURE_TREE, IDENTITY4)
        dot = decomposition_to_dot(d)
        assert dot.count("digraph frame_") == 4
        assert dot.count("[color=lightgray]") == 4 + 8 + 12

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
        obj = json.loads(decomposition_to_json(decompose_k2n1(t, find_beta(t), 2)))
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
                h.update(decomposition_to_json(d).encode() + b"\n")
    return h.hexdigest()


class TestGoldenOutput:
    # Pins which copies come back, in which order and with which shifts;
    # the validity tests alone would not notice a reordering.
    def test_catalog_decompositions(self):
        assert _catalog_decomposition_digest() == (
            "d3c52a68ead870aa269fe3bb1ae16ab382800c5b1ebc9f33d40acb845b3d6c95"
        )
