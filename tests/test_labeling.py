import gc
import hashlib
import json
import math
import random
from functools import lru_cache
from itertools import permutations

import pytest
from conftest import (
    catalog,
    phi_by_scan,
    search_plan_by_codes,
    twins_by_codes,
    unpruned_search,
    verify_rho,
)

from treedecomp import labeling, perms, trees
from treedecomp import (
    BetaFailure,
    InvalidPermutation,
    Labeling,
    MalformedInput,
    ResourceLimit,
    VerificationFailed,
    canonical_code,
    conjugate,
    find_beta,
    from_parent_map,
    phi_set,
    verify_beta,
    verify_graceful,
)


class TestVerifyBeta:
    def test_figure_labeling(self):
        t = from_parent_map(4, [0, 0, 1, 1])
        result = verify_beta(t, [0, 3, 2, 1])
        assert isinstance(result, Labeling)
        assert conjugate(t, result.sigma).g == (0, 3, 3, 0)
        assert set(result.signed_labels) == {0, 1, 2, 3}

    def test_star_identity(self):
        for n in (1, 2, 5, 8):
            t = from_parent_map(n, [0] * n)
            result = verify_beta(t, range(n))
            assert isinstance(result, Labeling)
            assert result.signed_labels == tuple(range(n))

    def test_path3_identity_fails(self):
        t = from_parent_map(3, [0, 0, 1])
        result = verify_beta(t, [0, 1, 2])
        assert isinstance(result, BetaFailure)
        assert -1 in result.out_of_range
        assert sorted(result.signed_labels) == [-1, 0, 1]

    def test_duplicate_report(self):
        # n=4 path, identity: signed labels collide
        t = from_parent_map(4, [0, 0, 1, 2])
        result = verify_beta(t, [0, 1, 2, 3])
        assert isinstance(result, BetaFailure)
        assert result.duplicated or result.out_of_range

    def test_offending_vertices_named(self):
        t = from_parent_map(3, [0, 0, 1])
        result = verify_beta(t, [0, 1, 2])
        assert isinstance(result, BetaFailure)
        # vertex 2's signed label is -1
        assert (2, -1) in result.offending
        for w, lbl in result.offending:
            assert result.signed_labels[w] == lbl

    def test_invalid_permutation(self):
        t = from_parent_map(2, [0, 0])
        with pytest.raises(InvalidPermutation):
            verify_beta(t, [0, 0])

    def test_expansion_identity(self):
        # h(v) = v + (-1)^depth * (signed label at v) at every vertex
        for n in range(1, 8):
            for entry in catalog(n):
                lab = find_beta(entry.tree, "first")
                h_tree = conjugate(entry.tree, lab.sigma)
                for v in range(n):
                    sign = 1 if h_tree.depth[v] % 2 == 0 else -1
                    assert h_tree.g[v] == v + sign * lab.signed_labels[v]


class TestFindBeta:
    def test_path3(self):
        t = from_parent_map(3, [0, 0, 1])
        lab = find_beta(t)
        assert lab.sigma == (0, 2, 1)

    def test_single_vertex(self):
        assert find_beta(from_parent_map(1, [0])).sigma == (0,)

    def test_single_edge(self):
        lab = find_beta(from_parent_map(2, [0, 0]))
        assert lab.sigma == (0, 1)
        assert set(lab.signed_labels) == {0, 1}

    def test_deterministic(self):
        t = from_parent_map(6, [0, 0, 1, 2, 0, 4])
        assert find_beta(t).sigma == find_beta(t).sigma

    def test_seeded_deterministic(self):
        t = from_parent_map(6, [0, 0, 1, 2, 0, 4])
        a = find_beta(t, seed=7)
        b = find_beta(t, seed=7)
        assert isinstance(a, Labeling) and a.sigma == b.sigma

    def test_cap(self):
        with pytest.raises(ResourceLimit):
            find_beta(from_parent_map(17, [0] * 17))

    def test_bad_mode(self):
        # Phi is phi_set's, so "first" is the one mode
        for mode in ("some", "all"):
            with pytest.raises(MalformedInput):
                find_beta(from_parent_map(1, [0]), mode=mode)

    def test_search_leaves_no_garbage(self):
        # the recursive search must not leave a reference cycle holding its
        # result list until the next full collection
        t = from_parent_map(6, [0, 0, 0, 1, 1, 2])
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            for call in (lambda: find_beta(t, "first"), lambda: phi_set(t),
                         lambda: sum(1 for _ in labeling.phi_orbits(t).members())):
                assert call()
                assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize("n", range(1, 8))
    def test_invariant_under_conjugation(self, n):
        # re-searching a relabeled tree labels the same underlying tree
        rotation = tuple((i + 1) % n for i in range(n))
        for entry in catalog(n):
            relabeled = conjugate(entry.tree, rotation)
            lab = find_beta(relabeled, "first")
            assert isinstance(lab, Labeling)
            assert canonical_code(relabeled) == entry.canonical_code


def _relabelings(entry, count):
    """The catalog tree under count random relabelings, seeded by its code."""
    rng = random.Random(entry.canonical_code)
    out = []
    for _ in range(count):
        sigma = list(range(entry.tree.n))
        rng.shuffle(sigma)
        out.append(conjugate(entry.tree, sigma))
    return out


@lru_cache(maxsize=None)
def _unpruned_phi(t):
    """Phi by the unpruned search, sorted, and that search's node count."""
    found, nodes = unpruned_search(t, first=False)
    return sorted(found), nodes


def _rooted_automorphisms(t) -> int:
    """|Aut_r| as the product over each vertex's children of (number of
    children with one subtree code)!."""
    codes = trees._subtree_codes(t.adjacency(), t.root)
    classes = {}
    for v in range(t.n):
        if v != t.root:
            key = (t.g[v], codes[v])
            classes[key] = classes.get(key, 0) + 1
    return math.prod(math.factorial(k) for k in classes.values())


class TestSiblingPruning:
    # The first-labeling search orders isomorphic siblings by decreasing edge
    # label; the unpruned search in conftest is its oracle.
    @pytest.mark.parametrize("n", range(2, 11))
    def test_first_sigma_matches_unpruned(self, n):
        for entry in catalog(n):
            for t in _relabelings(entry, 3):
                want = unpruned_search(t, first=True)[0]
                assert [find_beta(t, "first").sigma] == want, t.g

    @pytest.mark.parametrize("n", range(2, 11))
    def test_seeded_search_stays_complete(self, n):
        for entry in catalog(n):
            for seed in range(3):
                assert isinstance(find_beta(entry.tree, seed=seed), Labeling)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_seed_searches_a_renumbered_tree(self, n):
        # the seed's numbering pi renumbers the tree; the oracle's first
        # labeling of the renumbered tree, read back through pi, is the answer
        for entry in catalog(n):
            for seed in range(3):
                pi = list(range(n))
                random.Random(seed).shuffle(pi)
                found = unpruned_search(conjugate(entry.tree, pi), first=True)[0]
                want = tuple(found[0][w] for w in pi)
                assert find_beta(entry.tree, seed=seed).sigma == want, seed

    def test_seeds_vary_the_worst_fourteen_vertex_tree(self):
        # the n = 14 catalog tree with the longest unseeded search
        t = from_parent_map(14, [0, 0, 1, 2, 2, 1, 1, 0, 7, 8, 8, 7, 0, 0])
        assert len({find_beta(t, seed=seed).sigma for seed in range(10)}) >= 2

    def test_seed_cannot_vary_a_path_rooted_at_an_end(self):
        # no vertex has two children, so every numbering searches alike
        path = from_parent_map(6, [0, 0, 1, 2, 3, 4])
        want = find_beta(path).sigma
        assert all(find_beta(path, seed=seed).sigma == want for seed in range(5))

    def test_node_counts(self):
        # Node counts do not depend on the machine: a change to the order of
        # search or to a pruning rule shows here first. The count rule cut
        # all mode from 231,224 nodes and first mode from 58,894; the leaf
        # families' order and checks from 182,838 and 38,005.
        all_nodes = sum(
            labeling._search(entry.tree, False)[1]
            for n in range(1, 10)
            for entry in catalog(n)
        )
        first_nodes = sum(
            labeling._search(entry.tree, True)[1]
            for n in range(1, 11)
            for entry in catalog(n)
        )
        assert (all_nodes, first_nodes) == (77_724, 14_535)

    def test_prunes_no_more_nodes_than_unpruned(self):
        for n in range(1, 10):
            for entry in catalog(n):
                pruned = labeling._search(entry.tree, True)
                unpruned = unpruned_search(entry.tree, first=True)
                assert pruned[0] == unpruned[0]
                assert pruned[1] <= unpruned[1], entry.tree.g

    def test_all_mode_prunes_no_more_nodes_than_unpruned(self):
        for n in range(1, 10):
            for entry in catalog(n):
                reps, nodes = labeling._search(entry.tree, False)
                phi, unpruned_nodes = _unpruned_phi(entry.tree)
                assert set(reps) <= set(phi)
                assert nodes <= unpruned_nodes, entry.tree.g

    def test_subdivided_star_nodes_drop(self):
        # A star labels without backtracking, rooted anywhere. Subdividing one
        # edge makes the unpruned search try every order of the other leaves
        # at each failing branch; ordered, they leave one order per branch.
        star = from_parent_map(10, [0] * 10)
        assert labeling._search(star, True) == unpruned_search(star, first=True)
        spider = from_parent_map(10, [0, 0, 1] + [0] * 7)
        pruned = labeling._search(spider, True)
        unpruned = unpruned_search(spider, first=True)
        assert pruned[0] == unpruned[0]
        assert 10 * pruned[1] < unpruned[1]


class TestLeafFamilies:
    # The search places the internal vertices first and then the leaves,
    # family by family, and checks Hall's condition on the leaf families'
    # free edge labels at every node.
    def test_order_of_the_worst_fourteen_vertex_tree(self):
        t = from_parent_map(14, [0, 0, 1, 2, 2, 1, 1, 0, 7, 8, 8, 7, 0, 0])
        plan = labeling._plan(t)
        assert (plan.order, sum(1 for k in plan.kids if k)) == (
            [0, 1, 7, 2, 8, 12, 13, 5, 6, 11, 3, 4, 9, 10],
            5,
        )

    @pytest.mark.parametrize("n", range(1, 10))
    def test_order_places_internal_vertices_then_leaf_families(self, n):
        for entry in catalog(n):
            for t in [entry.tree, *_relabelings(entry, 2)]:
                order = labeling._plan(t).order
                assert sorted(order) == list(range(n))
                internal = {t.g[v] for v in range(n) if v != t.root} | {t.root}
                inner = len(internal)
                bfs_order = trees.bfs(t.adjacency(), t.root)[0]
                assert order[:inner] == [v for v in bfs_order if v in internal]
                leaves = order[inner:]
                # families in the order their parents were placed, each ascending
                assert leaves == sorted(leaves, key=lambda v: (order.index(t.g[v]), v))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_plan_matches_the_byte_code_oracle(self, n):
        # one children table and small-integer subtree classes give the
        # order, twins, left and family table of the byte-code set-up
        for entry in catalog(n):
            for t in [entry.tree, *_relabelings(entry, 2)]:
                plan = labeling._plan(t)
                want = search_plan_by_codes(t)
                assert {key: getattr(plan, key) for key in want} == want, t.g
                # at one depth, two vertices share a class iff their codes match
                codes = twins_by_codes(t)[1]
                both = set(zip(t.depth, codes, plan.cls))
                assert len(set(zip(t.depth, codes))) == len(set(zip(t.depth, plan.cls))) == len(both)

    def test_node_counts_of_the_worst_trees(self):
        # the trees with the longest first-mode search in the n = 14 and
        # n = 16 catalogs, 381,297 and 7,700,855 nodes before the leaf
        # families were checked
        for g, nodes in [
            ([0, 0, 1, 2, 2, 1, 1, 0, 7, 8, 8, 7, 0, 0], 45_390),
            ([0, 0, 1, 2, 3, 3, 2, 1, 1, 0, 9, 10, 10, 9, 0, 0], 736_227),
        ]:
            t = from_parent_map(len(g), g)
            found, expanded = labeling._search(t, True)
            assert expanded == nodes
            assert isinstance(verify_beta(t, found[0]), Labeling)

    def test_search_nodes_count_every_search(self):
        t = from_parent_map(9, [0, 0, 0, 0, 1, 1, 2, 3, 3])
        before = labeling.search_nodes()
        find_beta(t)
        assert labeling.search_nodes() - before == labeling._search(t, True)[1]
        before = labeling.search_nodes()
        phi_set(t)
        assert labeling.search_nodes() - before == labeling._search(t, False)[1]


# Phi of the 4-vertex star: its root takes label 0, its leaves 1, 2, 3 in any order
_STAR4_PHI = [(0, *p) for p in permutations((1, 2, 3))]


class TestPhiSet:
    def test_single_edge(self):
        assert phi_set(from_parent_map(2, [0, 0])) == [(0, 1)]

    def test_single_vertex(self):
        assert phi_set(from_parent_map(1, [0])) == [(0,)]

    def test_figure_member(self):
        assert (0, 3, 2, 1) in phi_set(from_parent_map(4, [0, 0, 1, 1]))

    def test_lexicographic_order(self):
        phis = phi_set(from_parent_map(4, [0, 0, 1, 1]))
        assert phis == sorted(phis)

    def test_cap(self):
        for enumerate_phi in (phi_set, labeling.phi_orbits):
            with pytest.raises(ResourceLimit):
                enumerate_phi(from_parent_map(10, [0] * 10))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_scan_oracle(self, n):
        for entry in catalog(n):
            assert phi_set(entry.tree) == list(phi_by_scan(entry.tree))

    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_unpruned_search(self, n):
        # the oracle for n = 9, where the n! scan is too slow for tier-1
        for entry in catalog(n):
            assert phi_set(entry.tree) == _unpruned_phi(entry.tree)[0], entry.tree.g

    @pytest.mark.parametrize("n", range(2, 10))
    def test_relabeling_the_tree_relabels_phi(self, n):
        # Phi(conjugate(t, s)) = {p . s^-1 : p in Phi(t)}. A relabeled tree
        # numbers isomorphic subtrees in orders the catalog's never does, so
        # the orbit expansion must line their vertices up by shape.
        rng = random.Random(n)
        for entry in catalog(n):
            s = list(range(n))
            rng.shuffle(s)
            inverse = perms.inverse(s)
            want = sorted(perms.compose(p, inverse) for p in phi_set(entry.tree))
            assert phi_set(conjugate(entry.tree, s)) == want, (entry.tree.g, s)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_one_search_result_per_orbit(self, n):
        # Aut_r acts freely on Phi, and the search keeps one member per orbit,
        # so PhiOrbits.size counts Phi without expanding it; the member
        # stream counts the same members without holding them
        for entry in catalog(n):
            phi = phi_set(entry.tree)
            reps = labeling._search(entry.tree, False)[0]
            assert len(set(phi)) == len(phi)
            assert len(phi) == len(reps) * _rooted_automorphisms(entry.tree)
            orbits = labeling.phi_orbits(entry.tree)
            assert orbits.reps == tuple(reps)
            assert orbits.aut == _rooted_automorphisms(entry.tree)
            assert orbits.size == sum(1 for _ in orbits.members()) == len(phi)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_automorphism_count_by_scan(self, n):
        for entry in catalog(n):
            t = entry.tree
            count = sum(
                all(a[t.g[v]] == t.g[a[v]] for v in range(n))
                for a in permutations(range(n))
                if a[t.root] == t.root
            )
            assert count == _rooted_automorphisms(t), t.g

    @pytest.mark.parametrize("found", [[(0, 3, 2, 1)] * 2, [(0, 1, 2, 3)]])
    def test_search_results_outside_one_orbit_each_fail_closed(
        self, monkeypatch, found
    ):
        # the star's one orbit twice, or a member of it with increasing edge
        # labels along its leaves: either would count labelings twice
        t = from_parent_map(4, [0, 0, 0, 0])
        assert labeling._search(t, False)[0] == [(0, 3, 2, 1)]
        monkeypatch.setattr(labeling, "_search", lambda t, first: (found, 0))
        for enumerate_phi in (phi_set, labeling.phi_orbits):
            with pytest.raises(VerificationFailed):
                enumerate_phi(t)

    def test_expansion_short_of_the_orbit_count_fails_closed(self, monkeypatch):
        t = from_parent_map(4, [0, 0, 0, 0])
        monkeypatch.setattr(labeling, "_expand_orbits", lambda t, reps: iter(reps))
        for enumerate_phi in (phi_set, lambda t: list(labeling.phi_orbits(t).members())):
            with pytest.raises(VerificationFailed):
                enumerate_phi(t)

    @pytest.mark.parametrize(
        "g", [[0, 0, 0, 0], [0, 0, 1, 2], [0, 0, 0, 1, 1]], ids=["star", "path", "spider"]
    )
    def test_member_stream_checks_its_count(self, g):
        # the stream is short of a size that claims twice the automorphisms,
        # and says so once it is read to its end
        phi = labeling.phi_orbits(from_parent_map(len(g), g))
        members = labeling.PhiOrbits(phi.tree, phi.reps, 2 * phi.aut).members()
        with pytest.raises(VerificationFailed, match=f"^Phi expanded to {phi.size} labelings"):
            for _ in members:
                pass

    def test_non_beta_representative_fails_closed(self, monkeypatch):
        # phi_orbits checks each representative by verify_beta, before any
        # expansion: (0, 1, 2) gives the path 0-1-2 the signed labels 0, 1, -1
        t = from_parent_map(3, [0, 0, 1])
        monkeypatch.setattr(labeling, "_search", lambda t, first: ([(0, 1, 2)], 0))
        with pytest.raises(VerificationFailed, match="non-beta"):
            labeling.phi_orbits(t)

    @pytest.mark.parametrize(
        "expand",
        [
            lambda reps: _STAR4_PHI[:5] + [(1, 0, 2, 3)],  # a signed label -1
            lambda reps: _STAR4_PHI[:5] + [(0, 1, 2, 3)],  # a member twice
            lambda reps: iter(reps),  # one member of the six
        ],
        ids=["non-beta", "duplicate", "too-few"],
    )
    def test_find_all_fails_closed_on_a_bad_expansion(self, monkeypatch, expand):
        # PhiOrbits.members re-checks each expanded member and needs them to
        # number |orbits| * |Aut_r| = 6, and phi_set needs them distinct
        t = from_parent_map(4, [0, 0, 0, 0])
        assert len(phi_set(t)) == 6
        monkeypatch.setattr(labeling, "_expand_orbits", lambda t, reps: expand(reps))
        with pytest.raises(VerificationFailed):
            phi_set(t)

    def test_star_at_cap(self):
        # a star's root must carry label 0; its 8 leaves take 1..8 in any order
        assert len(phi_set(from_parent_map(9, [0] * 9))) == 40320


class TestGraceful:
    def test_beta_implies_graceful_full_catalog(self):
        for n in range(1, 9):
            for entry in catalog(n):
                for sigma in phi_set(entry.tree):
                    assert verify_graceful(entry.tree, sigma).ok

    def test_star_identity(self):
        assert verify_graceful(from_parent_map(4, [0, 0, 0, 0]), range(4)).ok

    def test_path3_identity_fails(self):
        report = verify_graceful(from_parent_map(3, [0, 0, 1]), range(3))
        assert not report.ok
        assert report.duplicated == (1,)


class TestRho:
    def test_single_edge(self):
        assert verify_rho([(0, 1)], {0: 0, 1: 1}).ok

    def test_graceful_embeds_as_rho(self):
        # a graceful labeling of any catalog tree is a rho-labeling
        for n in range(2, 8):
            for entry in catalog(n):
                lab = find_beta(entry.tree, "first")
                edges = [
                    (v, entry.tree.g[v]) for v in range(n) if v != entry.tree.root
                ]
                labels = {v: lab.sigma[v] for v in range(n)}
                assert verify_rho(edges, labels).ok

    def test_duplicate_fails(self):
        report = verify_rho([(0, 1), (2, 3)], {0: 0, 1: 1, 2: 2, 3: 3})
        assert not report.ok
        assert report.duplicated == (1,)

    def test_malformed(self):
        with pytest.raises(MalformedInput):
            verify_rho([], {})
        with pytest.raises(MalformedInput):
            verify_rho([(0, 1)], {0: 0})
        with pytest.raises(MalformedInput):
            verify_rho([(0, 1)], {0: 5, 1: 1})
        with pytest.raises(MalformedInput):
            verify_rho([(0, 1), (1, 2)], {0: 0, 1: 0, 2: 1})


class TestBipartitionConsistency:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_near_alpha_property(self, n):
        # positive-sign endpoint always carries the smaller label
        for entry in catalog(n):
            lab = find_beta(entry.tree, "first")
            h_tree = conjugate(entry.tree, lab.sigma)
            for v in range(n):
                if v == h_tree.root:
                    continue
                if h_tree.depth[v] % 2 == 0:
                    assert v < h_tree.g[v]
                else:
                    assert h_tree.g[v] < v

    @pytest.mark.parametrize("n", range(2, 9))
    def test_label_zero_in_positive_partition(self, n):
        for entry in catalog(n):
            for sigma in phi_set(entry.tree)[:50]:
                lab = verify_beta(entry.tree, sigma)
                h_tree = conjugate(entry.tree, lab.sigma)
                assert h_tree.depth[0] % 2 == 0


def _first_sigma_digest() -> str:
    """SHA-256 over the find_beta(t, "first") sigmas of the n <= 9 catalog."""
    h = hashlib.sha256()
    for n in range(1, 10):
        for entry in catalog(n):
            h.update(json.dumps(list(find_beta(entry.tree, "first").sigma)).encode())
            h.update(b"\n")
    return h.hexdigest()


class TestGoldenOutput:
    # Pinned so that a change of search order, not only of validity, shows.
    def test_first_sigmas(self):
        assert _first_sigma_digest() == (
            "4a1d00aca0122c574ec2951fadb0e5c5fe0986d861463728ce8abd3fdd2a7c29"
        )
