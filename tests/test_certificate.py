import pytest
from conftest import catalog

from treedecomp import (
    MalformedInput,
    PreconditionViolated,
    ResourceLimit,
    canonical_representative,
    certificate_magnitude_check,
    check_composition_implication,
    check_monomial_support,
    check_transposition_invariance,
    check_variable_dependency,
    eval_certificate,
    expected_magnitude,
    from_parent_map,
    lagrange_basis,
    nonvanishing_by_sweep,
    phi_set,
)
from treedecomp import perms
from treedecomp.certificate import (
    chain_report,
    collapse_chain,
    lattice_points,
    squaring_chain_ends_constant,
    transposition_invariance_sweep,
)
from treedecomp.polynomial import DensePolynomial


class TestEvalCertificate:
    def test_single_edge_identity(self):
        t = from_parent_map(2, [0, 0])
        assert eval_certificate(t, (0, 1)) == 2

    def test_non_injective_vanishes(self):
        t = from_parent_map(2, [0, 0])
        assert eval_certificate(t, (1, 1)) == 0

    def test_swap_vanishes_on_range_factor(self):
        t = from_parent_map(2, [0, 0])
        assert eval_certificate(t, (1, 0)) == 0

    def test_returns_exact_int(self):
        t = from_parent_map(4, [0, 0, 1, 1])
        value = eval_certificate(t, (0, 3, 2, 1))
        assert isinstance(value, int)
        assert abs(value) == expected_magnitude(4)

    def test_malformed_point(self):
        t = from_parent_map(2, [0, 0])
        with pytest.raises(MalformedInput):
            eval_certificate(t, (0, 2))
        with pytest.raises(MalformedInput):
            eval_certificate(t, (0,))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_vanishes_off_permutations_full_sweep(self, n):
        for entry in catalog(n):
            for f in lattice_points(n, n):
                if len(set(f)) != n:
                    assert eval_certificate(entry.tree, f) == 0


class TestMagnitude:
    def test_single_edge(self):
        rep = certificate_magnitude_check(from_parent_map(2, [0, 0]))
        assert rep.ok and rep.expected == 2 and rep.phi_size == 1

    def test_single_vertex(self):
        rep = certificate_magnitude_check(from_parent_map(1, [0]))
        assert rep.ok and rep.expected == 1

    @pytest.mark.parametrize("n", range(1, 7))
    def test_catalog(self, n):
        for entry in catalog(n):
            assert certificate_magnitude_check(entry.tree).ok

    def test_cap(self):
        with pytest.raises(ResourceLimit):
            certificate_magnitude_check(from_parent_map(8, [0] * 8))


class TestNonvanishing:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_catalog_and_phi_agreement(self, n):
        for entry in catalog(n):
            nonzero = nonvanishing_by_sweep(entry.tree)
            assert nonzero
            assert nonzero == bool(phi_set(entry.tree))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_full_lattice_agrees_with_permutation_sweep(self, n):
        for entry in catalog(n):
            assert nonvanishing_by_sweep(entry.tree, full_lattice=True) == (
                nonvanishing_by_sweep(entry.tree)
            )


class TestLagrange:
    def test_n2_identity_basis(self):
        basis = lagrange_basis((0, 1), 2)
        evals = {p: basis.evaluate(p) for p in lattice_points(2, 2)}
        assert evals == {(0, 0): 0, (0, 1): 1, (1, 0): 0, (1, 1): 0}

    def test_n1_constant(self):
        basis = lagrange_basis((0,), 1)
        assert basis == DensePolynomial.constant(1, 1)

    def test_delta_property_n3(self):
        points = list(lattice_points(3, 3))
        for f in points:
            basis = lagrange_basis(f, 3)
            for h in points:
                assert basis.evaluate(h) == (1 if h == f else 0)

    def test_per_variable_degree(self):
        basis = lagrange_basis((2, 0, 1), 3)
        assert basis.per_variable_degree_below(3)

    def test_interpolation_agrees_with_reduction(self):
        # two independent routes to the canonical representative
        import random

        from treedecomp.polynomial import reduce_falling_factorial
        from fractions import Fraction

        rng = random.Random(4242)
        n = 3
        for _ in range(10):
            coeffs = {
                tuple(rng.randrange(5) for _ in range(n)): Fraction(
                    rng.randrange(-4, 5)
                )
                for _ in range(4)
            }
            p = DensePolynomial(n, coeffs)
            by_interpolation = DensePolynomial.zero(n)
            for f in lattice_points(n, n):
                by_interpolation = by_interpolation + lagrange_basis(f, n).scale(
                    p.evaluate(f)
                )
            assert by_interpolation == reduce_falling_factorial(p, n)

    def test_cap(self):
        with pytest.raises(ResourceLimit):
            lagrange_basis((0,) * 5, 5)


class TestCanonicalRepresentative:
    def test_single_edge(self):
        t = from_parent_map(2, [0, 0])
        table = canonical_representative(t)
        assert table == lagrange_basis((0, 1), 2).scale(2)
        evals = {p: table.evaluate(p) for p in lattice_points(2, 2)}
        assert evals == {(0, 0): 0, (0, 1): 2, (1, 0): 0, (1, 1): 0}

    def test_single_vertex(self):
        assert canonical_representative(from_parent_map(1, [0])) == (
            DensePolynomial.constant(1, 1)
        )

    @pytest.mark.parametrize("n", range(1, 5))
    def test_lattice_agreement_and_nonzero_iff_phi(self, n):
        for entry in catalog(n):
            table = canonical_representative(entry.tree)
            assert (not table.is_zero()) == bool(phi_set(entry.tree))
            for f in lattice_points(n, n):
                assert table.evaluate(f) == eval_certificate(entry.tree, f)


class TestTranspositionInvariance:
    def test_sibling_pair_figure_tree(self):
        rep = check_transposition_invariance(from_parent_map(4, [0, 0, 1, 1]))
        assert rep.ok and rep.pairs == ((2, 3),)
        assert rep.sweep_checked and rep.table_checked

    def test_star3(self):
        assert check_transposition_invariance(from_parent_map(3, [0, 0, 0])).ok

    def test_non_sibling_negative_control(self):
        t = from_parent_map(4, [0, 0, 1, 1])
        witness = transposition_invariance_sweep(t, perms.transposition(1, 2, 4))
        assert witness is not None
        tau = perms.transposition(1, 2, 4)
        f_tau = tuple(witness[tau[i]] for i in range(4))
        assert eval_certificate(t, f_tau) != eval_certificate(t, witness)

    def test_no_sibling_pair_rejected(self):
        with pytest.raises(PreconditionViolated):
            check_transposition_invariance(from_parent_map(3, [0, 0, 1]))

    @pytest.mark.parametrize("n", range(3, 6))
    def test_catalog_sweeps(self, n):
        from treedecomp.trees import sibling_leaf_pairs

        for entry in catalog(n):
            if sibling_leaf_pairs(entry.tree):
                assert check_transposition_invariance(entry.tree).ok


class TestComposition:
    def test_n4_chain_lengths(self):
        reports = {r.code.hex(): r for r in check_composition_implication(4)}
        transitions = sorted(r.transitions for r in reports.values())
        assert transitions == [0, 2]  # star needs nothing, path two moves
        assert all(r.ok for r in reports.values())

    def test_star_chain_empty(self):
        star = from_parent_map(5, [0] * 5)
        chain, transitions = collapse_chain(star)
        assert transitions == 0 and chain == [star]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_catalog(self, n):
        reports = check_composition_implication(n)
        assert len(reports) == len(catalog(n))
        assert all(r.ok for r in reports)
        assert all(r.phi_nonempty[0] for r in reports)

    def test_squaring_chain(self):
        for n in range(1, 8):
            for entry in catalog(n):
                assert squaring_chain_ends_constant(entry.tree)

    def test_cap(self):
        with pytest.raises(ResourceLimit):
            check_composition_implication(7)

    def test_chain_report_keeps_catalog_code(self):
        # The catalog's codes and the per-tree report's recomputed ones agree.
        for n in range(1, 7):
            codes = [r.code for r in check_composition_implication(n)]
            assert codes == [entry.canonical_code for entry in catalog(n)]

    def test_chain_report_above_the_chain_cap(self):
        rep = chain_report(from_parent_map(8, [0, 0, 1, 2, 3, 4, 5, 6]))
        assert rep.ok and rep.transitions > 0


class TestMonomialSupport:
    @pytest.mark.parametrize("n,expected_bases", [(1, 1), (2, 2), (3, 6), (4, 24)])
    def test_all_bases(self, n, expected_bases):
        rep = check_monomial_support(n)
        assert rep.ok and rep.bases_checked == expected_bases

    def test_cap(self):
        with pytest.raises(ResourceLimit):
            check_monomial_support(5)

    @pytest.mark.parametrize("n", [0, -2])
    def test_empty_range_rejected(self, n):
        with pytest.raises(MalformedInput):
            check_monomial_support(n)


class TestVariableDependency:
    def test_square_of_x0(self):
        p = DensePolynomial.variable(2, 0)
        assert check_variable_dependency(p, [0], 2, 2)

    def test_constant(self):
        p = DensePolynomial.constant(3, 7)
        assert check_variable_dependency(p, [0], 4, 3)

    def test_product_two_vars(self):
        p = DensePolynomial.variable(3, 0) * DensePolynomial.variable(3, 1)
        assert check_variable_dependency(p, [0, 1], 2, 3)

    def test_malformed(self):
        p = DensePolynomial.variable(2, 0)
        with pytest.raises(MalformedInput):
            check_variable_dependency(p, [0, 1], 2, 2)  # not a proper subset
        with pytest.raises(MalformedInput):
            check_variable_dependency(p, [1], 2, 2)  # p uses x0 outside support
        with pytest.raises(MalformedInput):
            check_variable_dependency(p * p, [0], 2, 2)  # degree >= n
