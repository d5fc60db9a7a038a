import itertools
import math
import random
import tracemalloc

import pytest
from conftest import catalog, closure_by_bfs, column_entry_sets

from treedecomp import (
    EntryPermutation,
    InvalidPermutation,
    MalformedInput,
    NotBijective,
    ResourceLimit,
    closure,
    decompose_directed_knn,
    find_beta,
    from_parent_map,
    phi_set,
    sigma_from_first_column,
    sigma_from_labeled_tree,
    verify_beta,
)
from treedecomp import groupaction, perms
from treedecomp.groupaction import GroupSummary


def diagonal_shift(entry: int, n: int) -> int:
    """(row, col) -> (row+1, col+1), the C_n action on entry indices."""
    r, c = divmod(entry, n)
    return ((r + 1) % n) * n + (c + 1) % n


def sigma_by_chained_shifts(n: int, first_column) -> tuple[int, ...] | None:
    """The entry permutation with each column's entries reached by one more
    diagonal_shift than the column before, or None when it is not a bijection."""
    sigma = [-1] * (n * n)
    for i0, entry in enumerate(first_column):
        cur = entry
        for j in range(n):
            sigma[n * ((i0 + j) % n) + j] = cur
            cur = diagonal_shift(cur, n)
    return tuple(sigma) if sorted(sigma) == list(range(n * n)) else None


# the worked n=3 orbit: sigma_1(A) and sigma_2(A) = sigma_1^2(A)
SIGMA1_MATRIX = [[0, 5, 2], [3, 4, 6], [1, 7, 8]]
SIGMA2_MATRIX = [[0, 6, 2], [3, 4, 1], [5, 7, 8]]


class TestSigmaFromFirstColumn:
    def test_worked_example_sigma1(self):
        ep = sigma_from_first_column([0, 3, 1])
        assert ep.matrix() == SIGMA1_MATRIX
        assert ep.sigma[0] == 0

    def test_worked_example_sigma2_is_square(self):
        sigma1 = sigma_from_first_column([0, 3, 1])
        sigma2 = perms.compose(sigma1.sigma, sigma1.sigma)
        ep2 = EntryPermutation(sigma2)
        assert ep2.matrix() == SIGMA2_MATRIX
        # sigma_2 is itself generated by its own first column
        first_col = [sigma2[3 * i] for i in range(3)]
        assert sigma_from_first_column(first_col).sigma == sigma2

    def test_identity_first_column(self):
        for n in (1, 2, 3, 4):
            ep = sigma_from_first_column([n * i for i in range(n)])
            assert ep.sigma == perms.identity(n * n)

    def test_colliding_differences_rejected(self):
        # entries 0 and 3 both lie on the main diagonal orbit for n=2
        with pytest.raises(NotBijective):
            sigma_from_first_column([0, 3])

    def test_malformed(self):
        with pytest.raises(MalformedInput):
            sigma_from_first_column([1, 2])  # must start with 0
        with pytest.raises(MalformedInput):
            sigma_from_first_column([0, 0])
        with pytest.raises(MalformedInput):
            sigma_from_first_column([])  # no entry 0 to anchor

    def test_size_read_from_the_entries(self):
        ep = sigma_from_first_column([0, 3, 1])
        assert ep.n == 3 and EntryPermutation(ep.sigma) == ep

    def test_entry_cap(self, monkeypatch):
        # the n^2 entries are checked against the cap before any is placed
        monkeypatch.setattr(groupaction, "ENTRY_CAP", 9)
        assert sigma_from_first_column([0, 3, 1]).matrix() == SIGMA1_MATRIX
        with pytest.raises(ResourceLimit, match="^n = 4 needs 16 entries, past the entry cap 9$"):
            sigma_from_first_column([0, 4, 8, 12])

    @pytest.mark.parametrize("n", range(1, 5))
    def test_matches_chained_shifts_on_every_first_column(self, n):
        valid = 0
        for rest in itertools.permutations(range(1, n * n), n - 1):
            first_column = (0, *rest)
            want = sigma_by_chained_shifts(n, first_column)
            if want is None:
                with pytest.raises(NotBijective):
                    sigma_from_first_column(first_column)
            else:
                assert sigma_from_first_column(first_column).sigma == want
                valid += 1
        # one entry per difference class c - r mod n, each in one of n rows
        assert valid == math.factorial(n - 1) * n ** (n - 1)

    def test_matches_chained_shifts_at_32(self):
        n, rng = 32, random.Random(32)
        for _ in range(20):
            # entry (r, r + d) for a random row r of each difference class d
            classes = [0] + rng.sample(range(1, n), n - 1)
            rows = [0] + [rng.randrange(n) for _ in range(n - 1)]
            first_column = [n * r + (r + d) % n for r, d in zip(rows, classes)]
            want = sigma_by_chained_shifts(n, first_column)
            assert want is not None
            assert sigma_from_first_column(first_column).sigma == want

    def test_diagonal_shift_orbits(self):
        n = 3
        for e in range(n * n):
            cur = e
            for _ in range(n):
                cur = diagonal_shift(cur, n)
            assert cur == e


class TestClosure:
    def test_worked_example_order_three(self):
        summary = closure([sigma_from_first_column([0, 3, 1])])
        assert summary.order == 3
        assert summary.cyclic is True
        assert summary.closed_ok

    def test_identity_only(self):
        ident = EntryPermutation(perms.identity(4))
        summary = closure([ident])
        assert summary.order == 1 and summary.cyclic

    def test_power_returns_to_identity(self):
        ep = sigma_from_first_column([0, 3, 1])
        cur = perms.identity(9)
        for _ in range(closure([ep]).order):
            cur = perms.compose(ep.sigma, cur)
        assert cur == perms.identity(9)

    def test_single_edge_tree_generator(self):
        t = from_parent_map(2, [0, 0])
        ep = sigma_from_labeled_tree(t, find_beta(t, "first"))
        summary = closure([ep])
        assert summary.order >= 1 and summary.closed_ok

    def test_needs_generators(self):
        with pytest.raises(MalformedInput):
            closure([])

    def test_mixed_sizes_rejected(self):
        a = sigma_from_first_column([0, 2])
        b = sigma_from_first_column([0, 3, 6])
        with pytest.raises(MalformedInput):
            closure([a, b])

    @pytest.mark.parametrize(
        "sigma, error",
        [
            ((0, 0, 0, 0), InvalidPermutation),  # its powers never reach the identity
            ((0, 1, 2), InvalidPermutation),
            ((0, 1, 2, 3, 4), InvalidPermutation),
            ((1, 0, 2, 3), MalformedInput),
        ],
    )
    def test_non_permutation_rejected(self, sigma, error):
        with pytest.raises(error):
            closure([EntryPermutation(sigma)])


def cycle(points, degree):
    p = list(range(degree))
    for a, b in zip(points, points[1:] + points[:1]):
        p[a] = b
    return tuple(p)


class TestClosureOracle:
    """The stabilizer chain against the breadth-first element list."""

    @staticmethod
    def check(generators):
        summary = closure(generators)
        assert (summary.order, summary.cyclic, summary.closed_ok) == closure_by_bfs(generators)
        return summary

    @pytest.mark.parametrize("n", range(1, 9))
    def test_catalog_labelings(self, n):
        for entry in catalog(n):
            self.check([sigma_from_labeled_tree(entry.tree, find_beta(entry.tree, "first"))])

    def test_worked_example(self):
        assert self.check([sigma_from_first_column([0, 3, 1])]).order == 3

    def test_identity(self):
        summary = self.check([EntryPermutation(perms.identity(4))])
        assert summary.order == 1 and summary.cyclic is True

    def test_two_generators(self):
        # the closure-two CLI input: sigma1 and a product of three transpositions
        gens = [
            sigma_from_first_column([0, 3, 1]),
            EntryPermutation((0, 2, 1, 3, 5, 4, 6, 8, 7)),
        ]
        summary = self.check(gens)
        assert summary.order == 120 and summary.cyclic is False

    def test_abelian_but_not_cyclic(self):
        # two disjoint transpositions commute, but the lcm 2 of their orders
        # is not the order 4
        klein = [
            EntryPermutation(perms.transposition(1, 2, 9)),
            EntryPermutation(perms.transposition(3, 4, 9)),
        ]
        summary = self.check(klein)
        assert (summary.order, summary.cyclic) == (4, False)

    def test_lcm_equal_to_order_but_not_abelian(self):
        # (1 2 3) and (1 2) have orders 3 and 2 with lcm 6 = |S_3|, yet they
        # do not commute, so S_3 is not cyclic
        gens = [
            EntryPermutation(cycle([1, 2, 3], 4)),
            EntryPermutation(perms.transposition(1, 2, 4)),
        ]
        summary = self.check(gens)
        assert (summary.order, summary.cyclic) == (6, False)


class TestClosureBeyondElementLists:
    def test_coprime_cycles_give_a_cyclic_group(self):
        # cycles of lengths 7, 8 and 9 on Z_25, fixing 0: order 504, cyclic
        parts = [list(range(1, 8)), list(range(8, 16)), list(range(16, 25))]
        gens = [EntryPermutation(cycle(c, 25)) for c in parts]
        product = perms.compose(gens[0].sigma, perms.compose(gens[1].sigma, gens[2].sigma))
        for generators in (gens, [EntryPermutation(product)]):
            summary = closure(generators)
            assert (summary.order, summary.cyclic, summary.closed_ok) == (504, True, True)

    def test_symmetric_group_on_fifteen_points(self):
        # the transposition (1 2) and the 15-cycle on 1..15 generate S_15
        gens = [
            EntryPermutation(perms.transposition(1, 2, 16)),
            EntryPermutation(cycle(list(range(1, 16)), 16)),
        ]
        summary = closure(gens)
        assert summary.order == math.factorial(15) == 1_307_674_368_000
        assert summary.cyclic is False and summary.closed_ok

    def test_cap_turns_a_large_symmetric_group_into_a_resource_limit(self, monkeypatch):
        # the transposition (1 2) and the 63-cycle on 1..63 generate S_63,
        # whose chain would store 2,015 transversal elements; and the cap is
        # read on each call, so S_15's 119 elements pass under one of 119
        gens = [
            EntryPermutation(perms.transposition(1, 2, 64)),
            EntryPermutation(cycle(list(range(1, 64)), 64)),
        ]
        with pytest.raises(ResourceLimit):
            closure(gens)
        s15 = [
            EntryPermutation(perms.transposition(1, 2, 16)),
            EntryPermutation(cycle(list(range(1, 16)), 16)),
        ]
        monkeypatch.setattr(groupaction, "CHAIN_CAP", 119)
        assert closure(s15).order == math.factorial(15)
        monkeypatch.setattr(groupaction, "CHAIN_CAP", 118)
        with pytest.raises(ResourceLimit):
            closure(s15)

    def test_entry_cap_bounds_the_stored_entries(self, monkeypatch):
        # the 15-cycle on 1..15 has a one-level chain of 15 transversal
        # elements of degree 16, 240 entries; the cap is read on each call
        gens = [EntryPermutation(cycle(list(range(1, 16)), 16))]
        monkeypatch.setattr(groupaction, "CHAIN_ENTRY_CAP", 240)
        assert closure(gens).order == 15
        monkeypatch.setattr(groupaction, "CHAIN_ENTRY_CAP", 239)
        with pytest.raises(ResourceLimit, match="239 entries"):
            closure(gens)

    def test_closed_ok_checks_the_chain(self, monkeypatch):
        # a chain cut after its first level holds only the 15-cycle's orbit:
        # the 15-cycle then leaves a residue, so closed_ok must be False
        build = groupaction._stabilizer_chain
        monkeypatch.setattr(groupaction, "_stabilizer_chain", lambda *a: build(*a)[:1])
        gens = [
            EntryPermutation(perms.transposition(1, 2, 16)),
            EntryPermutation(cycle(list(range(1, 16)), 16)),
        ]
        summary = closure(gens)
        assert summary.order == 15 and summary.closed_ok is False

    def test_products_are_made_one_at_a_time(self):
        # 16 disjoint transpositions of 2,500 entries: their 256 products
        # would hold 5.1 MB of entry references at once (7.3 MB peak in all)
        degree = 50 * 50
        gens = [
            EntryPermutation(perms.transposition(2 * i + 1, 2 * i + 2, degree)) for i in range(16)
        ]
        tracemalloc.start()
        try:
            summary = closure(gens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (summary.order, summary.cyclic, summary.closed_ok) == (2**16, False, True)
        assert peak < 4 * 2**20, peak

    def test_repeated_generators_count_once(self):
        gens = [
            EntryPermutation(perms.transposition(1, 2, 16)),
            EntryPermutation(cycle(list(range(1, 16)), 16)),
        ]
        assert closure(gens * 3) == closure(gens)
        assert closure([gens[1]] * 5) == GroupSummary(order=15, cyclic=True, closed_ok=True)


class TestSigmaFromLabeledTree:
    def test_figure_tree_columns_match_copies(self):
        t = from_parent_map(4, [0, 3, 3, 0])
        lab = (0, 1, 2, 3)
        ep = sigma_from_labeled_tree(t, lab)
        d = decompose_directed_knn(t, lab)
        copies_as_entries = [{4 * x + (y - 4) for x, y in c} for c in d.copies]
        assert column_entry_sets(ep) == copies_as_entries

    def test_single_vertex(self):
        ep = sigma_from_labeled_tree(from_parent_map(1, [0]), (0,))
        assert ep.sigma == (0,)

    def test_star3_identity_labeling(self):
        t = from_parent_map(3, [0, 0, 0])
        ep = sigma_from_labeled_tree(t, (0, 1, 2))
        # first column = the star from left vertex 0: entries a_{0,j}
        assert [ep.sigma[3 * i] for i in range(3)] == [0, 1, 2]
        assert ep.sigma[0] == 0

    @pytest.mark.parametrize("n", range(1, 7))
    def test_catalog_columns_equal_copies_up_to_rotation(self, n):
        for entry in catalog(n):
            for sigma in phi_set(entry.tree)[:10]:
                lab = verify_beta(entry.tree, sigma)
                ep = sigma_from_labeled_tree(entry.tree, lab)
                assert ep.sigma[0] == 0
                d = decompose_directed_knn(entry.tree, lab)
                copies = [
                    frozenset(n * x + (y - n) for x, y in c) for c in d.copies
                ]
                columns = [frozenset(c) for c in column_entry_sets(ep)]
                assert set(copies) == set(columns)
                # column j is copy (j - root label) mod n: the first column
                # is the rotation of the labeled tree that hits entry 0
                root_label = lab.sigma[entry.tree.root]
                for j in range(n):
                    assert columns[j] == copies[(j - root_label) % n]
