import hashlib
import itertools
import math
import os
import random
import subprocess
import sys

import pytest
from conftest import (
    adjacency_by_edges,
    catalog,
    orbit_counts,
    prufer_codes,
    rooted_level_sequence_by_recursion,
    sibling_leaf_pairs_by_scan,
    undirected_edges,
)

from treedecomp import (
    InvalidPermutation,
    MalformedInput,
    NotAFunctionalTree,
    PreconditionViolated,
    ResourceLimit,
    canonical_code,
    collapse_leaf_siblings,
    conjugate,
    from_parent_map,
    normalize_for_collapse,
    reroot,
    tree_from_json,
    tree_to_dot,
    tree_to_json,
)
from treedecomp import perms, trees
from treedecomp.certificate import collapse_chain

FREE_TREE_COUNTS = {
    1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106,
    11: 235, 12: 551, 13: 1301, 14: 3159,
}  # OEIS A000055
ROOTED_TREE_COUNTS = [
    1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842, 4766, 12486, 32973,
]  # OEIS A000081


def otter_counts(n_max: int) -> tuple[list[int], list[int]]:
    """Rooted and free tree counts for n = 1..n_max, without the enumerator:
    A000081 by its recurrence r(m+1) = (1/m) sum_k (sum_{d|k} d r(d)) r(m-k+1),
    and A000055 by Otter's formula (Ann. Math. 1948),
    f(n) = r(n) - (sum_{i+j=n} r(i) r(j) - [n even] r(n/2)) / 2."""
    r = [0, 1]
    for m in range(1, n_max):
        total = sum(
            sum(d * r[d] for d in range(1, k + 1) if k % d == 0) * r[m - k + 1]
            for k in range(1, m + 1)
        )
        r.append(total // m)
    free = []
    for n in range(1, n_max + 1):
        pairs = sum(r[i] * r[n - i] for i in range(1, n)) - (r[n // 2] if n % 2 == 0 else 0)
        free.append(r[n] - pairs // 2)
    return r[1:], free


class TestFromParentMap:
    def test_figure_tree(self):
        t = from_parent_map(4, [0, 0, 1, 1])
        assert t.root == 0
        assert t.depth == (0, 1, 2, 2)

    def test_single_vertex(self):
        t = from_parent_map(1, [0])
        assert t.root == 0 and t.depth == (0,)

    def test_two_cycle_rejected(self):
        with pytest.raises(NotAFunctionalTree):
            from_parent_map(2, [1, 0])

    def test_two_fixed_points_rejected(self):
        with pytest.raises(NotAFunctionalTree):
            from_parent_map(2, [0, 1])

    def test_cycle_beside_the_fixed_point_rejected(self):
        with pytest.raises(NotAFunctionalTree):
            from_parent_map(3, [0, 2, 1])

    @pytest.mark.parametrize("n", range(1, 6))
    def test_accepts_exactly_the_maps_with_a_one_point_image(self, n):
        # the definition: the (n-1)-fold image of Z_n is a single point
        for g in itertools.product(range(n), repeat=n):
            image = set(range(n))
            for _ in range(n - 1):
                image = {g[v] for v in image}
            try:
                t = from_parent_map(n, g)
            except NotAFunctionalTree:
                assert len(image) > 1
            else:
                assert image == {t.root}

    def test_malformed(self):
        with pytest.raises(MalformedInput):
            from_parent_map(3, [0, 0])
        with pytest.raises(MalformedInput):
            from_parent_map(3, [0, 0, 5])
        with pytest.raises(MalformedInput):
            from_parent_map(0, [])

    @pytest.mark.parametrize(
        "n,g", [("4", [0, 0, 0, 0]), (4, [0, 0.5, 0, 0]), (4.0, [0, 0, 0, 0]),
                (True, [0]), (2, [0, False])],
    )
    def test_non_integer_rejected(self, n, g):
        with pytest.raises(MalformedInput):
            from_parent_map(n, g)


class TestBfs:
    def test_order_and_parents(self):
        adj = [[1, 2], [0, 3], [0], [1], []]
        order, parent, _ = trees.bfs(adj, 0)
        assert order == [0, 1, 2, 3]
        assert parent == [0, 0, 0, 1, -1]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_parents_are_the_tree_rooted_at_src(self, n):
        for entry in catalog(n):
            for r in range(n):
                order, parent, _ = trees.bfs(entry.tree.adjacency(), r)
                t = from_parent_map(n, parent)
                assert t.root == r
                assert undirected_edges(t) == undirected_edges(entry.tree)
                assert [t.depth[v] for v in order] == sorted(t.depth)


class TestReroot:
    def test_bfs_recompute(self):
        t = from_parent_map(4, [0, 0, 1, 1])
        assert reroot(t, 1).g == (1, 1, 1, 1)

    def test_identity(self):
        t = from_parent_map(4, [0, 0, 1, 1])
        assert reroot(t, t.root) == t

    def test_single_edge(self):
        t = from_parent_map(2, [0, 0])
        assert reroot(t, 1).g == (1, 1)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_catalog_root_and_edges_preserved(self, n):
        for entry in catalog(n):
            t = entry.tree
            edges = undirected_edges(t)
            for r in range(n):
                t2 = reroot(t, r)
                assert t2.root == r
                assert undirected_edges(t2) == edges


class TestConjugate:
    def test_figure_relabeling(self):
        t = from_parent_map(4, [0, 0, 1, 1])
        assert conjugate(t, [0, 3, 2, 1]).g == (0, 3, 3, 0)

    def test_identity(self):
        t = from_parent_map(4, [0, 0, 1, 1])
        assert conjugate(t, [0, 1, 2, 3]) == t

    def test_swap(self):
        t = from_parent_map(2, [0, 0])
        assert conjugate(t, [1, 0]).g == (1, 1)

    def test_invalid_permutation(self):
        t = from_parent_map(2, [0, 0])
        with pytest.raises(InvalidPermutation):
            conjugate(t, [0, 0])

    @pytest.mark.parametrize("n", range(1, 7))
    def test_preserves_canonical_code(self, n):
        import itertools

        for entry in catalog(n):
            code = entry.canonical_code
            for sigma in itertools.permutations(range(n)):
                assert canonical_code(conjugate(entry.tree, sigma)) == code


class TestCollapse:
    def test_siblings_to_grandparent(self):
        t = from_parent_map(4, [0, 0, 1, 1])
        assert collapse_leaf_siblings(t).g == (0, 0, 0, 0)

    def test_star_odd_depth_rejected(self):
        with pytest.raises(PreconditionViolated):
            collapse_leaf_siblings(from_parent_map(4, [0, 0, 0, 0]))

    def test_single_vertex_rejected(self):
        with pytest.raises(PreconditionViolated):
            collapse_leaf_siblings(from_parent_map(1, [0]))

    def test_non_leaf_rejected(self):
        # vertex 3 has a child
        with pytest.raises(PreconditionViolated):
            collapse_leaf_siblings(from_parent_map(4, [0, 0, 3, 0]))

    def test_long_path_collapse_chain(self):
        # n - 3 rounds, each a tree-changing normalization and a collapse
        n = 200
        chain, transitions = collapse_chain(from_parent_map(n, [0] + list(range(n - 1))))
        assert chain[-1].is_constant()
        assert (len(chain), transitions) == (2 * n - 5, 2 * n - 6)


class TestLeaves:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_is_leaf(self, n):
        for entry in catalog(n):
            t = entry.tree
            assert trees.leaves(t) == [v for v in range(n) if t.is_leaf(v)], t.g


def relabeled_catalog(n: int):
    """Every catalog tree on n vertices as numbered, reversed (v -> n-1-v)
    and under one seeded shuffle of Z_n."""
    shuffled = list(range(n))
    random.Random(n).shuffle(shuffled)
    for entry in catalog(n):
        for sigma in (range(n), range(n - 1, -1, -1), shuffled):
            yield conjugate(entry.tree, sigma)


class TestChildrenTable:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_children_match_a_scan_of_g(self, n):
        for t in relabeled_catalog(n):
            scan = [[u for u in range(n) if u != t.root and t.g[u] == v] for v in range(n)]
            assert trees.children(t.g, t.root) == scan, t.g

    @pytest.mark.parametrize("n", range(1, 11))
    def test_sibling_leaf_pairs_match_the_scan(self, n):
        # the same pairs in the same order
        for t in relabeled_catalog(n):
            assert trees.sibling_leaf_pairs(t) == sibling_leaf_pairs_by_scan(t), t.g

    @pytest.mark.parametrize("n", range(1, 11))
    def test_adjacency_matches_the_edge_list(self, n):
        for t in relabeled_catalog(n):
            assert t.adjacency() == adjacency_by_edges(t), t.g

    def test_one_and_two_vertices(self):
        one, two = from_parent_map(1, [0]), from_parent_map(2, [1, 1])
        assert trees.children(one.g, one.root) == [[]] and one.adjacency() == [[]]
        assert trees.children(two.g, two.root) == [[], [0]] and two.adjacency() == [[1], [0]]
        assert trees.sibling_leaf_pairs(one) == trees.sibling_leaf_pairs(two) == []


class TestNormalize:
    def test_path3_identity(self):
        t = from_parent_map(3, [0, 0, 1])
        assert normalize_for_collapse(t) == t

    def test_figure_tree_identity(self):
        t = from_parent_map(4, [0, 0, 1, 1])
        assert normalize_for_collapse(t) == t

    def test_star_rerooted_at_leaf(self):
        out = normalize_for_collapse(from_parent_map(3, [0, 0, 0]))
        assert out.is_leaf(2) and out.depth[2] % 2 == 0

    def test_too_small(self):
        with pytest.raises(PreconditionViolated):
            normalize_for_collapse(from_parent_map(2, [0, 0]))

    @pytest.mark.parametrize("n", range(3, 8))
    def test_postcondition_and_same_tree(self, n):
        for entry in catalog(n):
            out = normalize_for_collapse(entry.tree)
            assert out.is_leaf(n - 1) and out.depth[n - 1] % 2 == 0
            assert canonical_code(out) == entry.canonical_code

    @pytest.mark.parametrize("n", range(1, 8))
    def test_collapse_chain_reaches_star_within_n_rounds(self, n):
        for entry in catalog(n):
            chain, _transitions = collapse_chain(entry.tree)
            assert chain[-1].is_constant()
            cur = entry.tree
            rounds = 0
            while not cur.is_constant():
                normalized = normalize_for_collapse(cur)
                collapsed = collapse_leaf_siblings(normalized)
                assert sum(collapsed.depth) < sum(normalized.depth)
                cur = collapsed
                rounds += 1
            assert rounds <= max(n - 1, 0)


class TestEnumeration:
    @pytest.mark.parametrize("n,count", sorted(FREE_TREE_COUNTS.items()))
    def test_counts(self, n, count):
        assert len(catalog(n)) == count

    # n = 8 alone decodes 262,144 sequences; the orbit count covers it
    @pytest.mark.parametrize("n", range(1, 15))
    def test_otter_count(self, n):
        # the catalog's completeness by a count that runs no generator
        rooted, free = otter_counts(14)
        assert rooted[n - 1] == ROOTED_TREE_COUNTS[n - 1]
        assert rooted[n - 1] == sum(1 for _ in trees._rooted_level_sequences(n))
        assert free[n - 1] == FREE_TREE_COUNTS[n] == len(catalog(n))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_prufer_brute_force_agreement(self, n):
        expected = prufer_codes(n)
        got = {entry.canonical_code for entry in catalog(n)}
        assert got == expected

    @pytest.mark.parametrize("n", range(1, 11))
    def test_orbit_count_oracle(self, n):
        # pairwise non-isomorphic, and the orbits of S_n fill all n^(n-2)
        # labeled trees (Cayley), so no class is missing
        counts = orbit_counts(n)
        signatures = [signature for signature, _ in counts]
        assert len(set(signatures)) == len(signatures)
        assert sum(math.factorial(n) // aut for _, aut in counts) == max(n ** (n - 2), 1)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_round_trip_validity(self, n):
        for entry in catalog(n):
            rebuilt = from_parent_map(entry.tree.n, entry.tree.g)
            assert rebuilt == entry.tree
            assert canonical_code(entry.tree) == entry.canonical_code
            assert entry.tree.root == 0  # canonical centroid rooting

    def test_deterministic_order(self):
        first = [e.canonical_code for e in trees.enumerate_free_trees(7)]
        second = [e.canonical_code for e in trees.enumerate_free_trees(7)]
        assert first == second == sorted(first)
        assert [e.index for e in catalog(7)] == list(range(len(first)))

    def test_catalog_codes_golden(self):
        # Pins the canonical codes byte for byte, n <= 13 (2,288 trees).
        h = hashlib.sha256()
        for n in range(1, 14):
            for entry in trees.enumerate_free_trees(n):
                h.update(entry.canonical_code + b"\n")
        assert h.hexdigest() == (
            "3590de2cc62e861a30fc81a58259de15f7b00871e1fe7a632ac85288694a7bb7"
        )

    def test_catalog_codes_golden_n14(self):
        # Pins the 3,159 codes at n = 14, as the networkx-backed catalog
        # produced them, byte for byte and in order.
        h = hashlib.sha256()
        for entry in trees.enumerate_free_trees(14):
            h.update(entry.canonical_code + b"\n")
        assert h.hexdigest() == (
            "a9b9f6b3cf32583c126b6977c11006cc5af231679da3df7e2e18a59866aa8e1f"
        )

    @pytest.mark.parametrize("n", range(1, 13))
    def test_rooted_generator_counts(self, n):
        seqs = list(trees._rooted_level_sequences(n))
        assert len(seqs) == len(set(seqs)) == ROOTED_TREE_COUNTS[n - 1]
        assert seqs[0] == bytes(range(n)) and seqs == sorted(seqs, reverse=True)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_rooted_generator_yields_canonical_sequences(self, n):
        for seq in trees._rooted_level_sequences(n):
            adj = trees.tree_from_level_sequence(seq).adjacency()
            assert trees._subtree_codes(adj, 0)[0] == seq

    def test_import_does_not_load_networkx(self):
        # the cold import that perfbench's setup_s times loads no dependency,
        # nor the CLI and what only the CLI needs
        src = os.path.dirname(os.path.dirname(trees.__file__))
        heavy = ("networkx", "numpy", "treedecomp.cli", "multiprocessing", "argparse")
        probe = f"import sys, treedecomp; print([m for m in {heavy!r} if m in sys.modules])"
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert out.stdout.strip() == "[]"

    @pytest.mark.parametrize("n", range(1, 11))
    def test_level_sequence_matches_recursion_at_every_root(self, n):
        for entry in catalog(n):
            adj = entry.tree.adjacency()
            for root in range(n):
                want = bytes(rooted_level_sequence_by_recursion(adj, root))
                assert trees._subtree_codes(adj, root)[root] == want

    def test_cap(self):
        with pytest.raises(ResourceLimit):
            list(trees.enumerate_free_trees(19))
    def test_cap_is_read_per_call(self, monkeypatch):
        monkeypatch.setattr(trees, "ENUMERATION_CAP", 4)
        with pytest.raises(ResourceLimit):
            list(trees.enumerate_free_trees(5))


class TestCodeOfEdges:
    @pytest.mark.parametrize(
        "edges",
        [
            [(0, 1), (1, 2), (2, 0)],  # a triangle and an isolated vertex
            [(0, 1), (1, 2), (2, 4)],  # an end past Z_4
            [(0, 1), (1, 2), (-1, 2)],  # a negative end
        ],
    )
    def test_edges_not_forming_a_tree_rejected(self, edges):
        with pytest.raises(MalformedInput):
            trees.canonical_code_of_edges(edges)


class TestDeepTrees:
    """Centroid-rooted depths of 255 and more take a 5-byte escape."""

    N = 600
    PATH = from_parent_map(N, [0] + list(range(N - 1)))
    # legs of 299, 299 and 1 vertices on one centre
    SPIDER = from_parent_map(
        N, [0, 0] + list(range(1, 299)) + [0] + list(range(300, 598)) + [0]
    )

    def test_path_code_is_relabeling_invariant(self):
        code = canonical_code(self.PATH)
        rng = random.Random(600)
        for _ in range(3):
            sigma = list(range(self.N))
            rng.shuffle(sigma)
            assert canonical_code(conjugate(self.PATH, sigma)) == code

    def test_path_and_spider_codes_differ(self):
        assert max(self.SPIDER.depth) == 299
        assert canonical_code(self.PATH) != canonical_code(self.SPIDER)

    def test_escape_layout(self):
        adj = self.PATH.adjacency()
        code = trees._subtree_codes(adj, 0)[0]
        assert code[:255] == bytes(range(255))
        assert code[255:265] == b"\xff\x00\x00\x00\xff\xff\x00\x00\x01\x00"
        assert len(code) == 255 + 5 * (self.N - 255)


class TestInvariants:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_depth_parity_two_coloring(self, n):
        for entry in catalog(n):
            t = entry.tree
            for v in range(n):
                if v != t.root:
                    assert (t.depth[v] + t.depth[t.g[v]]) % 2 == 1

    def test_square_of_tree_is_tree(self):
        for n in range(1, 8):
            for entry in catalog(n):
                sq = trees.square(entry.tree)
                assert sq.root == entry.tree.root


class TestSerialization:
    def test_json_round_trip(self):
        t = from_parent_map(4, [0, 0, 1, 1])
        assert tree_from_json(tree_to_json(t)) == t

    def test_json_schema(self):
        import json

        obj = json.loads(tree_to_json(from_parent_map(4, [0, 0, 1, 1])))
        assert obj == {"n": 4, "g": [0, 0, 1, 1]}

    def test_bad_json(self):
        with pytest.raises(MalformedInput):
            tree_from_json("{not json")
        with pytest.raises(MalformedInput):
            tree_from_json('{"n": 2}')

    def test_dot_has_loop_at_root(self):
        dot = tree_to_dot(from_parent_map(4, [0, 0, 1, 1]))
        assert "0 -> 0;" in dot
        assert "2 -> 1;" in dot


class TestPerms:
    def test_compose_inverse(self):
        p = (2, 0, 1)
        assert perms.compose(p, perms.inverse(p)) == (0, 1, 2)
        assert perms.transposition(0, 2, 3) == (2, 1, 0)

    @pytest.mark.parametrize("n", [0, 1, 2, 9, 2304])
    def test_compose_matches_definition(self, n):
        rng = random.Random(n)
        for _ in range(3):
            p = tuple(rng.sample(range(n), n))
            q = tuple(rng.sample(range(n), n))
            assert perms.compose(p, q) == tuple(p[q[i]] for i in range(n))
            assert perms.compose(list(p), list(q)) == perms.compose(p, q)

    def test_check_perm(self):
        with pytest.raises(InvalidPermutation):
            perms.check_perm([0, 0, 1])
        with pytest.raises(InvalidPermutation):
            perms.check_perm([0, 1], 3)
