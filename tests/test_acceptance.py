"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are pinned here: exact (zero-tolerance) big-integer and
rational equality for the combinatorial/algebraic criteria and the
apportionment, 1e-9 absolute for its floating-point oracles (the explicit
block unitary and the FFT moduli).
"""

import math

from conftest import (
    apportion_fft_report,
    catalog,
    lattice_points,
    magnitude_by_members,
    nonvanishing_by_permutations,
    orbit_counts,
    prufer_codes,
    transposition_invariance_sweep,
    unitarity_residual,
)

from treedecomp import (
    Labeling,
    build_block_unitary,
    canonical_representative,
    certificate_magnitude_check,
    check_apportionment,
    check_allones_identity,
    check_monomial_support,
    check_transposition_invariance,
    closure,
    decompose_directed_knn,
    decompose_k2n1,
    decompose_knxnx,
    eval_certificate,
    expected_magnitude,
    find_beta,
    from_parent_map,
    nonvanishing_by_sweep,
    phi_orbits,
    phi_set,
    sigma_from_first_column,
    verify_beta,
    verify_partition,
)
from treedecomp import perms
from treedecomp.certificate import chain_report, transposition_witness
from treedecomp.decomposition import decomposition_to_dot
from treedecomp.trees import sibling_leaf_pairs

FREE_TREE_COUNTS = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106]
TOL = 1e-9


def report(number: int, text: str) -> None:
    print(f"\n[criterion {number:2d}] PASS: {text}")


def test_criterion_01_beta_existence_up_to_ten_vertices():
    for n in range(1, 11):
        entries = catalog(n)
        assert len(entries) == FREE_TREE_COUNTS[n - 1]
        if n <= 7:
            assert {e.canonical_code for e in entries} == prufer_codes(n)
        counts = orbit_counts(n)
        assert len({signature for signature, _ in counts}) == len(entries)
        assert sum(math.factorial(n) // aut for _, aut in counts) == max(n ** (n - 2), 1)
        for entry in entries:
            lab = find_beta(entry.tree, "first")
            assert isinstance(lab, Labeling)
    report(1, "every free tree on <= 10 vertices has a beta-labeling "
              f"(counts {FREE_TREE_COUNTS}, Prufer-checked for n <= 7, "
              "orbit-counted against Cayley's n^(n-2) for n <= 10)")


def test_criterion_02_figure2_reproduction():
    result = verify_beta(from_parent_map(4, [0, 0, 1, 1]), [0, 3, 2, 1])
    assert isinstance(result, Labeling)
    assert set(result.signed_labels) == {0, 1, 2, 3}
    report(2, f"verify_beta([0,0,1,1], [0,3,2,1]) signed labels "
              f"{sorted(result.signed_labels)}")


def test_criterion_03_figure4_reproduction():
    t = from_parent_map(4, [0, 3, 3, 0])
    d = decompose_directed_knn(t, (0, 1, 2, 3))
    assert len(d.copies) == 4
    edges = [e for copy in d.copies for e in copy]
    assert len(edges) == len(set(edges)) == 16
    assert set(edges) == {(x, y) for x in range(4) for y in range(4, 8)}
    frames = "".join(decomposition_to_dot(d)).count("digraph frame_")
    assert frames == 4
    report(3, "4 copies tile Z_4 x {4..7} exactly; DOT export has 4 frames")


def test_criterion_04_corollaries_desk_scale():
    checked = 0
    for n_vertices in range(2, 10):  # up to 8 edges
        for entry in catalog(n_vertices):
            lab = find_beta(entry.tree, "first")
            for x in (1, 2, 3):
                for build in (decompose_knxnx, decompose_k2n1):
                    d = build(entry.tree, lab, x)
                    assert verify_partition(d).ok
                    checked += 1
    report(4, f"{checked} decompositions verified (hosts up to K_24,24 and K_49)")


def test_criterion_05_certificate_magnitude():
    for n in range(1, 7):
        for entry in catalog(n):
            rep = certificate_magnitude_check(phi_orbits(entry.tree))
            assert rep.ok and rep.expected == expected_magnitude(n)
            assert rep.phi_size > 0
            assert rep == magnitude_by_members(entry.tree)
    report(5, "all |certificate| values on Phi match prod k!(n-1+k)! exactly, n <= 6 "
              "(one per orbit, and member by member)")


def test_criterion_06_certificate_equivalence():
    for n in range(1, 5):
        for entry in catalog(n):
            table = canonical_representative(phi_orbits(entry.tree))
            assert (not table.is_zero()) == bool(phi_set(entry.tree))
            for f in lattice_points(n, n):
                assert table.evaluate(f) == eval_certificate(entry.tree, f)
    for n in (5, 6):
        for entry in catalog(n):
            assert nonvanishing_by_permutations(entry.tree) == bool(phi_set(entry.tree))
            assert (nonvanishing_by_sweep(phi_orbits(entry.tree)) is not None) == bool(
                phi_set(entry.tree)
            )
    report(6, "coefficient table nonzero iff Phi nonempty with exact lattice "
              "agreement (n <= 4); sweep equivalence at n = 5, 6")


def test_criterion_07_transposition_invariance():
    swept = 0
    for n in range(3, 6):
        for entry in catalog(n):
            if not sibling_leaf_pairs(entry.tree):
                continue
            # Claim I; test_claim_two_agrees_with_claim_one checks that the
            # canonical table (Claim II) is fixed exactly when Claim I holds
            rep = check_transposition_invariance(phi_orbits(entry.tree))
            assert rep.ok
            for a, b in rep.pairs:
                tau = perms.transposition(a, b, n)
                assert transposition_invariance_sweep(entry.tree, tau) is None
            swept += len(rep.pairs)
    control = from_parent_map(4, [0, 0, 1, 1])
    witness = transposition_invariance_sweep(control, perms.transposition(1, 2, 4))
    assert witness is not None  # non-sibling control must fail
    assert transposition_witness(phi_orbits(control), perms.transposition(1, 2, 4))
    report(7, f"{swept} sibling transpositions invariant on full lattices; "
              f"non-sibling control fails at f={witness}")


def test_criterion_08_composition_implication():
    for n in range(1, 10):
        reports = [chain_report(entry.tree) for entry in catalog(n)]
        assert all(r.implications_ok for r in reports)
        assert all(r.squaring_ok for r in reports)
        assert all(r.phi_nonempty[-1] for r in reports)  # chains end at stars
    report(8, "Phi nonemptiness propagates up every collapse chain, n <= 9")


def test_criterion_09_monomial_support():
    totals = {}
    for n in (2, 3, 4):
        rep = check_monomial_support(n)
        assert rep.ok
        totals[n] = rep.bases_checked
    assert totals == {2: 2, 3: 6, 4: 24}
    report(9, f"all Lagrange bases expanded exactly ({totals}); every monomial "
              "misses at most one variable")


def test_criterion_10_group_example():
    sigma1 = sigma_from_first_column([0, 3, 1])
    assert sigma1.matrix() == [[0, 5, 2], [3, 4, 6], [1, 7, 8]]
    sigma2 = perms.compose(sigma1.sigma, sigma1.sigma)
    matrix2 = [[sigma2[3 * i + j] for j in range(3)] for i in range(3)]
    assert matrix2 == [[0, 6, 2], [3, 4, 1], [5, 7, 8]]
    summary = closure([sigma1])
    assert summary.order == 3 and summary.cyclic
    report(10, "sigma_1 and sigma_2 matrices reproduced bit-exactly; "
               "closure has order 3")


def test_criterion_11_apportionment():
    # exact from the count of label differences; the block unitary and the
    # FFT moduli are checked in floating point to TOL
    worst_kappa = 0.0
    worst_unitary = 0.0
    for n in range(1, 9):
        worst_unitary = max(worst_unitary, unitarity_residual(build_block_unitary(n)))
        for entry in catalog(n):
            lab = find_beta(entry.tree, "first")
            ones = check_allones_identity(entry.tree, lab)
            rep = check_apportionment(entry.tree, lab)
            assert ones.ok and ones.max_deviation == 0.0
            assert rep.ok and rep.kappa == 1.0 / n and rep.kappa_max_error == 0.0
            fft = apportion_fft_report(entry.tree, lab.sigma, tol=TOL)
            assert fft.ok
            worst_kappa = max(worst_kappa, fft.kappa_max_error)
    assert worst_unitary <= TOL
    report(11, f"kappa = 1/n and all-ones exactly over all trees n <= 8; FFT moduli "
               f"within {worst_kappa:.2e}, block unitary within {worst_unitary:.2e} (tol 1e-9)")
