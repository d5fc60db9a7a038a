import math
import random
from itertools import permutations

import numpy as np
import pytest
from conftest import allones_dense, apportion_dense, catalog, relabeled_dense

from treedecomp import (
    InvalidPermutation,
    Labeling,
    MalformedInput,
    biadjacency,
    build_block_unitary,
    check_allones_identity,
    check_apportionment,
    find_beta,
    from_parent_map,
    orient,
    verify_beta,
)
from treedecomp.apportionment import (
    _modulus_table,
    _relabeled_adjacency,
    circulant,
    unitarity_residual,
)

FIGURE_TREE = from_parent_map(4, [0, 3, 3, 0])


class TestBiadjacency:
    def test_figure_tree_rows(self):
        a = biadjacency(FIGURE_TREE)
        ones = {(i, j) for i in range(4) for j in range(4) if a[i, j] == 1}
        assert ones == {(0, 0), (0, 3), (1, 3), (2, 3)}

    def test_single_vertex(self):
        assert biadjacency(from_parent_map(1, [0])).tolist() == [[1.0]]

    def test_star_row_zero(self):
        a = biadjacency(from_parent_map(4, [0, 0, 0, 0]))
        assert a[0].tolist() == [1, 1, 1, 1]
        assert np.abs(a[1:]).sum() == 0

    def test_entry_count_is_n(self):
        for n in range(1, 8):
            for entry in catalog(n):
                assert biadjacency(entry.tree).sum() == n


class TestBlockUnitary:
    def test_n2_roots_of_unity(self):
        u = build_block_unitary(2)
        w = np.exp(2j * np.pi * np.arange(2) / 2)
        assert np.allclose(w, [1, -1])
        assert unitarity_residual(u) <= 1e-9

    def test_n1(self):
        assert build_block_unitary(1).tolist() == [[1.0]]

    @pytest.mark.parametrize("n", range(1, 13))
    def test_unitarity_up_to_12(self, n):
        assert unitarity_residual(build_block_unitary(n)) <= 1e-9

    def test_circulant_first_row(self):
        c = circulant(4)
        assert c[0].tolist() == [0, 1, 0, 0]
        assert np.allclose(np.linalg.matrix_power(c, 4), np.eye(4))


class TestAllOnes:
    def test_figure_tree(self):
        rep = check_allones_identity(FIGURE_TREE, (0, 1, 2, 3))
        assert rep.ok and rep.max_deviation <= 1e-9

    def test_single_vertex(self):
        assert check_allones_identity(from_parent_map(1, [0]), (0,)).ok

    def test_raw_path4_negative_control(self):
        # signed labels of the unlabeled 4-path collide mod 4
        rep = check_allones_identity(from_parent_map(4, [0, 0, 1, 2]), None)
        assert not rep.ok
        assert rep.max_deviation >= 1

    @pytest.mark.parametrize("n", range(1, 8))
    def test_catalog(self, n):
        for entry in catalog(n):
            lab = find_beta(entry.tree, "first")
            assert check_allones_identity(entry.tree, lab).ok

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_dense_oracle(self, n):
        rng = random.Random(5000 + n)
        for entry in catalog(n):
            t = entry.tree
            for sigma in [find_beta(t, "first").sigma] + _non_beta_sigmas(t, 3, rng):
                rep = check_allones_identity(t, sigma)
                assert rep == allones_dense(relabeled_dense(t, sigma))

    @pytest.mark.parametrize("sigma", [[0, 0, 0, 0], [0, 1, 2], [3, 2, 1, 0, 4]])
    def test_rejects_non_permutation(self, sigma):
        with pytest.raises(InvalidPermutation):
            check_allones_identity(FIGURE_TREE, sigma)


class TestApportionment:
    def test_figure_tree(self):
        rep = check_apportionment(FIGURE_TREE, verify_beta(FIGURE_TREE, (0, 1, 2, 3)))
        assert rep.ok
        assert rep.kappa == 0.25
        assert rep.kappa_max_error <= 1e-9
        assert abs(rep.frobenius_modulus - 0.25) <= 1e-9

    def test_single_vertex_modulus_one(self):
        rep = check_apportionment(from_parent_map(1, [0]), (0,))
        assert rep.ok and rep.kappa == 1.0

    @pytest.mark.parametrize("n", range(1, 7))
    def test_catalog_uniformity(self, n):
        for entry in catalog(n):
            lab = find_beta(entry.tree, "first")
            rep = check_apportionment(entry.tree, lab)
            assert rep.ok
            assert rep.kappa_max_error <= 1e-9
            assert abs(rep.frobenius_modulus - 1.0 / n) <= 1e-9

    @pytest.mark.parametrize("n", range(1, 7))
    def test_unitary_similarity_preserves_spectrum(self, n):
        for entry in catalog(n):
            lab = find_beta(entry.tree, "first")
            m = apportion_dense(entry.tree, lab.sigma)
            kron = np.kron(np.eye(n), biadjacency(entry.tree))
            got = np.sort_complex(np.linalg.eigvals(m))
            want = np.sort_complex(np.linalg.eigvals(kron))
            assert np.abs(got - want).max() <= 1e-7

    def test_frobenius_norm_of_kron(self):
        # ||I (x) A||_F^2 = n * n, so the uniform modulus is 1/n
        for n in range(1, 7):
            for entry in catalog(n):
                a = biadjacency(entry.tree)
                kron = np.kron(np.eye(n), a)
                assert abs(np.linalg.norm(kron) ** 2 - n * n) <= 1e-9

    @pytest.mark.parametrize("sigma", [[0, 0, 0, 0], [0, 1, 2], [0, 1, 2, 4], [3, 2, 1, 0, 4]])
    def test_rejects_non_permutation(self, sigma):
        with pytest.raises(InvalidPermutation):
            check_apportionment(FIGURE_TREE, sigma)

    @pytest.mark.parametrize("check", [check_apportionment, check_allones_identity])
    @pytest.mark.parametrize("tol", [-1.0, -1e-300, math.nan, math.inf])
    def test_rejects_bad_tolerance(self, check, tol):
        with pytest.raises(MalformedInput):
            check(FIGURE_TREE, (0, 1, 2, 3), tol=tol)

    def test_unitary_residual_matches_dense(self):
        for n in range(1, 25):
            rep = check_apportionment(from_parent_map(n, [0] + list(range(n - 1))), range(n))
            assert abs(rep.unitary_residual - unitarity_residual(build_block_unitary(n))) <= 1e-12

    def test_ok_iff_edge_differences_distinct(self):
        # Both identities hold exactly when the labeled oriented edges fall in
        # n distinct difference classes mod n, beta-labeling or not.
        passed = pairs = 0
        for n in range(1, 7):
            for entry in catalog(n):
                t = entry.tree
                edges = orient(t).edges
                for sigma in permutations(range(n)):
                    distinct = len({(sigma[y - n] - sigma[x]) % n for x, y in edges}) == n
                    ones = check_allones_identity(t, sigma).ok
                    assert ones == check_apportionment(t, sigma).ok == distinct
                    passed += distinct
                    pairs += 1
        assert (pairs, passed) == (4737, 1433)


def _non_beta_sigmas(t, count, rng):
    """Up to count distinct permutations of Z_n that are not beta-labelings."""
    found: list[tuple[int, ...]] = []
    for _ in range(50 * count):
        sigma = tuple(rng.sample(range(t.n), t.n))
        if sigma not in found and not isinstance(verify_beta(t, sigma), Labeling):
            found.append(sigma)
            if len(found) == count:
                break
    return found


def _dense_report(t, sigma, tol=1e-9):
    """(ok, kappa_max_error, frobenius_modulus, |m|, unitary) by dense products."""
    n = t.n
    mod = np.abs(apportion_dense(t, sigma))
    unitary = unitarity_residual(build_block_unitary(n))
    err = float(np.abs(mod - 1.0 / n).max())
    frob = float(np.sqrt(np.square(mod).sum())) / (n * n)
    return err <= tol and unitary <= tol, err, frob, mod, unitary


class TestFftModuli:
    """The FFT table of calA's diagonals against the dense n^2 x n^2 oracle."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_table_matches_dense_oracle(self, n):
        rng = random.Random(4000 + n)
        i = np.arange(n)
        f = (i[None, :] - i[:, None]) % n  # f[i, k] = k - i mod n
        non_beta = 0
        for entry in catalog(n):
            t = entry.tree
            sigmas = [find_beta(t, "first").sigma] + _non_beta_sigmas(t, 3, rng)
            non_beta += len(sigmas) - 1
            for sigma in sigmas:
                table = _modulus_table(_relabeled_adjacency(t, sigma))
                # dense[i, a, k, b] = |entry (i*n+a, k*n+b)|
                dense = np.abs(apportion_dense(t, sigma)).reshape(n, n, n, n)
                want = table[:, :, f].transpose(2, 0, 3, 1)
                assert np.abs(dense - want).max() <= 1e-12
        if n >= 4:
            assert non_beta == 3 * len(catalog(n))

    def test_report_matches_dense_route(self):
        rng = random.Random(12)
        non_beta = failed = 0
        for n in range(1, 13):
            for entry in catalog(n)[-4:]:  # path-like end; near-stars search slowly
                t = entry.tree
                extra = _non_beta_sigmas(t, 1, rng)
                non_beta += len(extra)
                for sigma in [find_beta(t, "first").sigma] + extra:
                    rep = check_apportionment(t, sigma)
                    ok, err, frob, mod, unitary = _dense_report(t, sigma)
                    assert rep.ok == ok
                    assert abs(rep.kappa_max_error - err) <= 1e-12
                    assert abs(rep.frobenius_modulus - frob) <= 1e-12
                    assert abs(rep.unitary_residual - unitary) <= 1e-12
                    # the witness is a real worst entry of the dense matrix
                    assert abs(abs(mod[rep.worst_entry] - 1.0 / n) - err) <= 1e-12
                    failed += not ok
        # a non-beta sigma with distinct edge differences mod n still passes
        assert non_beta >= 30 and failed >= 10
