import random
from itertools import combinations, islice

import pytest
from conftest import (
    catalog,
    certificate_by_loops,
    lattice_points,
    magnitude_by_members,
    nonvanishing_by_permutations,
    nonvanishing_on_lattice,
    permute_variables,
    poly_pow,
    transposition_invariance_sweep,
)

from treedecomp import (
    MalformedInput,
    PreconditionViolated,
    ResourceLimit,
    canonical_representative,
    certificate_magnitude_check,
    check_monomial_support,
    check_transposition_invariance,
    check_variable_dependency,
    eval_certificate,
    expected_magnitude,
    from_parent_map,
    lagrange_basis,
    nonvanishing_by_sweep,
    phi_orbits,
    phi_set,
)
from treedecomp import certificate, labeling, perms
from treedecomp.certificate import (
    chain_report,
    collapse_chain,
    squaring_chain_ends_constant,
    transposition_witness,
)
from treedecomp.trees import sibling_leaf_pairs
from treedecomp.polynomial import Polynomial, reduce_falling_factorial, reduced_power


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

    def test_eval_cap_keeps_every_value_printable(self):
        # |certificate| is expected_magnitude(n) on Phi and 0 elsewhere, and
        # past EVAL_CAP vertices it passes the default int-to-str limit
        cap = certificate.EVAL_CAP
        assert expected_magnitude(cap) < 10**4300 <= expected_magnitude(cap + 1)
        path = from_parent_map(cap + 1, [0] + list(range(cap)))
        with pytest.raises(ResourceLimit, match="evaluation cap"):
            eval_certificate(path, range(cap + 1))

    @pytest.mark.parametrize("n", range(1, 10))
    def test_agrees_with_the_loop_oracle(self, n):
        # every member of Phi, random permutations and random lattice points
        rng = random.Random(n)
        for entry in catalog(n):
            t = entry.tree
            points = list(islice(labeling.phi_orbits(t).members(), 50))
            points += [tuple(rng.sample(range(n), n)) for _ in range(20)]
            points += [tuple(rng.randrange(n) for _ in range(n)) for _ in range(20)]
            for f in points:
                assert eval_certificate(t, f) == certificate_by_loops(t, f), (t.g, f)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_vanishes_off_permutations_full_sweep(self, n):
        for entry in catalog(n):
            for f in lattice_points(n, n):
                if len(set(f)) != n:
                    assert eval_certificate(entry.tree, f) == 0


class TestOrbitLemma:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_members_share_their_representatives_value(self, n):
        # certificate(f.alpha) = certificate(f) for alpha in Aut_r, exactly
        for entry in catalog(n):
            t = entry.tree
            phi = phi_orbits(t)
            for rep in phi.reps:
                value = eval_certificate(t, rep)
                for member in labeling.PhiOrbits(t, (rep,), phi.aut).members():
                    assert eval_certificate(t, member) == value, (t.g, member)


class TestMagnitude:
    def test_single_edge(self):
        rep = certificate_magnitude_check(phi_orbits(from_parent_map(2, [0, 0])))
        assert rep.ok and rep.expected == 2 and rep.phi_size == 1

    def test_single_vertex(self):
        rep = certificate_magnitude_check(phi_orbits(from_parent_map(1, [0])))
        assert rep.ok and rep.expected == 1

    @pytest.mark.parametrize("n", range(1, 9))
    def test_catalog(self, n):
        # one representative per orbit against every member of Phi
        for entry in catalog(n):
            rep = certificate_magnitude_check(phi_orbits(entry.tree))
            assert rep.ok and rep == magnitude_by_members(entry.tree)

    def test_a_missed_magnitude_names_its_representative(self):
        t = from_parent_map(4, [0, 0, 0, 0])
        off = labeling.PhiOrbits(t, ((0, 3, 2, 1), (1, 0, 2, 3)), 6)
        rep = certificate_magnitude_check(off)
        assert not rep.ok and rep.failures == ((1, 0, 2, 3),) and rep.phi_size == 12

    def test_cap(self):
        with pytest.raises(ResourceLimit):
            certificate_magnitude_check(phi_orbits(from_parent_map(10, [0] * 10)))


class TestNonvanishing:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_catalog_and_phi_agreement(self, n):
        for entry in catalog(n):
            witness = nonvanishing_by_sweep(phi_orbits(entry.tree))
            assert witness is not None and eval_certificate(entry.tree, witness) != 0
            assert nonvanishing_by_permutations(entry.tree) == bool(phi_set(entry.tree))

    def test_empty_phi_has_no_witness(self):
        t = from_parent_map(4, [0, 0, 1, 1])
        assert nonvanishing_by_sweep(labeling.PhiOrbits(t, (), 2)) is None

    @pytest.mark.parametrize("n", range(1, 6))
    def test_full_lattice_agrees_with_permutation_sweep(self, n):
        for entry in catalog(n):
            assert nonvanishing_on_lattice(entry.tree) == nonvanishing_by_permutations(
                entry.tree
            )


class TestLagrange:
    def test_n2_identity_basis(self):
        basis = lagrange_basis((0, 1))
        evals = {p: basis.evaluate(p) for p in lattice_points(2, 2)}
        assert evals == {(0, 0): 0, (0, 1): 1, (1, 0): 0, (1, 1): 0}

    def test_n1_constant(self):
        basis = lagrange_basis((0,))
        assert basis == Polynomial.constant(1, 1)

    def test_delta_property_n3(self):
        points = list(lattice_points(3, 3))
        for f in points:
            basis = lagrange_basis(f)
            for h in points:
                assert basis.evaluate(h) == (1 if h == f else 0)

    def test_per_variable_degree(self):
        basis = lagrange_basis((2, 0, 1))
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
            p = Polynomial(n, coeffs)
            by_interpolation = Polynomial.zero(n)
            for f in lattice_points(n, n):
                by_interpolation = by_interpolation + lagrange_basis(f).scale(
                    p.evaluate(f)
                )
            assert by_interpolation == reduce_falling_factorial(p, n)

    def test_cap(self):
        # n = len(f), so a million variables are refused before any of the
        # n^n coefficients is built
        for f in ((0,) * 5, (0,) * 10**6):
            with pytest.raises(ResourceLimit, match=f"^n = {len(f)} exceeds the symbolic cap 4$"):
                lagrange_basis(f)


class TestCanonicalRepresentative:
    def test_single_edge(self):
        t = from_parent_map(2, [0, 0])
        table = canonical_representative(phi_orbits(t))
        assert table == lagrange_basis((0, 1)).scale(2)
        evals = {p: table.evaluate(p) for p in lattice_points(2, 2)}
        assert evals == {(0, 0): 0, (0, 1): 2, (1, 0): 0, (1, 1): 0}

    def test_single_vertex(self):
        assert canonical_representative(phi_orbits(from_parent_map(1, [0]))) == (
            Polynomial.constant(1, 1)
        )

    @pytest.mark.parametrize("n", range(1, 5))
    def test_lattice_agreement_and_nonzero_iff_phi(self, n):
        for entry in catalog(n):
            table = canonical_representative(phi_orbits(entry.tree))
            assert (not table.is_zero()) == bool(phi_set(entry.tree))
            for f in lattice_points(n, n):
                assert table.evaluate(f) == eval_certificate(entry.tree, f)


class TestTranspositionInvariance:
    def test_sibling_pair_figure_tree(self):
        rep = check_transposition_invariance(phi_orbits(from_parent_map(4, [0, 0, 1, 1])))
        assert rep.ok and rep.pairs == ((2, 3),) and rep.witness is None

    def test_star3(self):
        assert check_transposition_invariance(phi_orbits(from_parent_map(3, [0, 0, 0]))).ok

    def test_non_sibling_negative_control(self):
        t = from_parent_map(4, [0, 0, 1, 1])
        tau = perms.transposition(1, 2, 4)
        witness = transposition_invariance_sweep(t, tau)
        assert witness is not None
        f_tau = tuple(witness[tau[i]] for i in range(4))
        assert eval_certificate(t, f_tau) != eval_certificate(t, witness)
        # (1 2) is no rooted automorphism: the orbit route fails on it too,
        # with certificate(rep.tau) = 0 at each of the 3 representatives
        phi = phi_orbits(t)
        assert transposition_witness(phi, tau) == phi.reps[0]
        for rep in phi.reps:
            f_tau = tuple(rep[tau[i]] for i in range(4))
            assert (eval_certificate(t, f_tau), eval_certificate(t, rep)) == (0, -149299200)

    def test_no_sibling_pair_rejected(self):
        with pytest.raises(PreconditionViolated):
            check_transposition_invariance(phi_orbits(from_parent_map(3, [0, 0, 1])))

    def test_raised_symbolic_cap_reaches_the_table(self, monkeypatch):
        # the canonical table and the monomial-support check refuse n above
        # the cap before any work, with the text lagrange_basis uses
        phi = phi_orbits(from_parent_map(5, [0, 0, 0, 1, 1]))
        for build in (lambda: canonical_representative(phi), lambda: check_monomial_support(5)):
            with pytest.raises(ResourceLimit, match="^n = 5 exceeds the symbolic cap 4$"):
                build()
        monkeypatch.setattr(certificate, "SYMBOLIC_CAP", 5)
        table = canonical_representative(phi)
        assert table.evaluate(phi.reps[0]) == eval_certificate(phi.tree, phi.reps[0])
        assert check_monomial_support(5).bases_checked == 120

    @pytest.mark.parametrize("n", range(3, 10))
    def test_catalog_sweeps(self, n):
        for entry in catalog(n):
            if sibling_leaf_pairs(entry.tree):
                rep = check_transposition_invariance(phi_orbits(entry.tree))
                assert rep.ok and rep.witness is None

    def test_claim_one_agrees_with_the_lattice_sweep(self):
        # every sibling-leaf pair with n <= 5: the orbit route and the full
        # n^n sweep give the same verdict
        pairs = 0
        for n in range(1, 6):
            for entry in catalog(n):
                phi = phi_orbits(entry.tree)
                for a, b in sibling_leaf_pairs(entry.tree):
                    tau = perms.transposition(a, b, n)
                    by_orbits = transposition_witness(phi, tau) is None
                    assert by_orbits == (transposition_invariance_sweep(entry.tree, tau) is None)
                    pairs += 1
        assert pairs == 11

    def test_claim_two_agrees_with_claim_one(self):
        # Claim II (the canonical table fixed by the variable transposition)
        # holds exactly when Claim I (the certificate fixed by it at every
        # lattice point) does, for every transposition, automorphism or not
        fixed = []
        for n in range(1, 5):
            for entry in catalog(n):
                table = canonical_representative(phi_orbits(entry.tree))
                for a, b in combinations(range(n), 2):
                    tau = perms.transposition(a, b, n)
                    claim_two = permute_variables(table, tau) == table
                    assert claim_two == (transposition_invariance_sweep(entry.tree, tau) is None)
                    fixed.append(claim_two)
        assert (fixed.count(True), fixed.count(False)) == (4, 12)


def _chain_reports(n: int) -> list:
    return [chain_report(entry.tree) for entry in catalog(n)]


class TestComposition:
    def test_n4_chain_lengths(self):
        reports = _chain_reports(4)
        transitions = sorted(r.transitions for r in reports)
        assert transitions == [0, 2]  # star needs nothing, path two moves
        assert all(r.ok for r in reports)

    def test_star_chain_empty(self):
        star = from_parent_map(5, [0] * 5)
        chain, transitions = collapse_chain(star)
        assert transitions == 0 and chain == [star]

    # the campaign's range: Phi up to n = 9
    @pytest.mark.parametrize("n", range(1, 10))
    def test_catalog(self, n):
        reports = _chain_reports(n)
        assert all(r.ok for r in reports)
        assert all(r.phi_nonempty[0] for r in reports)

    def test_squaring_chain(self):
        for n in range(1, 8):
            for entry in catalog(n):
                assert squaring_chain_ends_constant(entry.tree)

    def test_cap(self, monkeypatch):
        # refused before the collapse chain, which grows about as n^3, is built
        def unreachable(t):
            raise AssertionError("collapse_chain reached above the search cap")

        monkeypatch.setattr(certificate, "collapse_chain", unreachable)
        for n in (labeling.SEARCH_CAP + 1, 5000):
            with pytest.raises(ResourceLimit):
                chain_report(from_parent_map(n, [0] + list(range(n - 1))))
        monkeypatch.setattr(labeling, "SEARCH_CAP", 3)  # read on each call
        with pytest.raises(ResourceLimit):
            chain_report(from_parent_map(4, [0, 0, 1, 2]))

    def test_chain_report_keeps_catalog_code(self):
        # The catalog's codes and the per-tree report's recomputed ones agree.
        for n in range(1, 10):
            codes = [r.code for r in _chain_reports(n)]
            assert codes == [entry.canonical_code for entry in catalog(n)]

    def test_chain_report_at_the_search_cap(self):
        n = labeling.SEARCH_CAP
        rep = chain_report(from_parent_map(n, [0] + list(range(n - 1))))
        assert rep.ok and rep.transitions > 0 and all(rep.phi_nonempty)


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
        p = Polynomial.variable(2, 0)
        assert check_variable_dependency(p, [0], 2)

    def test_constant(self):
        p = Polynomial.constant(3, 7)
        assert check_variable_dependency(p, [0], 4)

    def test_product_two_vars(self):
        p = Polynomial.variable(3, 0) * Polynomial.variable(3, 1)
        assert check_variable_dependency(p, [0, 1], 2)

    def test_high_power_terminates(self):
        # x0^39 x1^39 x2^39 ran past the old rewrite budget
        p = Polynomial(4, {(3, 3, 3, 0): 1})
        assert check_variable_dependency(p, [0, 1, 2], 13)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_power_reduced_per_product_equals_full_expansion(self, n):
        rng = random.Random(n)
        for _ in range(6):
            p = Polynomial(
                3,
                {
                    tuple(rng.randrange(n) for _ in range(3)): rng.randint(-3, 3)
                    for _ in range(rng.randint(1, 5))
                },
            )
            for k in range(1, 5):
                assert reduced_power(p, k, n) == reduce_falling_factorial(poly_pow(p, k), n)

    def test_malformed(self):
        p = Polynomial.variable(2, 0)
        with pytest.raises(MalformedInput):
            check_variable_dependency(p, [0, 1], 2)  # not a proper subset
        with pytest.raises(MalformedInput):
            check_variable_dependency(p, [1], 2)  # p uses x0 outside support
        with pytest.raises(MalformedInput):
            check_variable_dependency(p * p, [0], 2)  # degree >= n
