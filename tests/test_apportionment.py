import json
import os
import random
import subprocess
import sys
import tracemalloc
from itertools import permutations

import numpy as np
import pytest
from conftest import (
    allones_dense,
    apportion_dense,
    apportion_dense_report,
    apportion_fft_report,
    biadjacency,
    catalog,
    circulant,
    modulus_table,
    relabeled_dense,
    unitarity_residual,
)

from treedecomp import (
    InvalidPermutation,
    Labeling,
    build_block_unitary,
    check_allones_identity,
    check_apportionment,
    conjugate,
    find_beta,
    from_parent_map,
    verify_beta,
)
from treedecomp import cli
from treedecomp.labeling import labeled_pairs

FIGURE_TREE = from_parent_map(4, [0, 3, 3, 0])


def test_import_does_not_load_numpy():
    # numpy is a test dependency: with it blocked, the package, both checks,
    # `apportion check` and a campaign of all twelve checks still run, and
    # only build_block_unitary needs it
    src = os.path.dirname(os.path.dirname(sys.modules["treedecomp"].__file__))
    campaign = json.dumps({"checks": list(cli.CHECKS), "n": [1, 5], "x": [1, 2]})
    probe = f"""
import sys
sys.modules["numpy"] = None
import treedecomp
from treedecomp.cli import main
t = treedecomp.from_parent_map(4, [0, 0, 1, 1])
lab = treedecomp.find_beta(t)
assert treedecomp.check_allones_identity(t, lab).ok
assert treedecomp.check_apportionment(t, lab).ok
try:
    treedecomp.build_block_unitary(2)
    sys.exit("numpy was not blocked")
except ImportError:
    pass
codes = [
    main(["apportion", "check", "--tree", '{{"n": 4, "g": [0, 0, 1, 1]}}']),
    main(["campaign", "run", "--config", {campaign!r}]),
]
sys.exit(max(codes))
"""
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert out.returncode == 0 and "Traceback" not in out.stderr, out.stderr
    apportion, summary = out.stdout.splitlines()
    assert json.loads(apportion)["ok"] and json.loads(summary)["all_pass"]


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

    @pytest.mark.parametrize("n", range(1, 7))
    def test_relabeled_is_p_a_p_star(self, n):
        # calA = P A P* by dense products, and the bi-adjacency of the
        # conjugated tree, for every sigma
        for entry in catalog(n):
            t = entry.tree
            for sigma in permutations(range(n)):
                cal_a = biadjacency(t, sigma)
                assert np.array_equal(cal_a, relabeled_dense(t, sigma))
                assert np.array_equal(cal_a, biadjacency(conjugate(t, sigma)))

    @pytest.mark.parametrize("sigma", [[0, 0, 0, 0], [0, 1, 2], [3, 2, 1, 0, 4]])
    def test_rejects_non_permutation(self, sigma):
        with pytest.raises(InvalidPermutation):
            biadjacency(FIGURE_TREE, sigma)


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

    @pytest.mark.parametrize("n", range(1, 7))
    def test_blocks_are_circulant_powers(self, n):
        w = np.exp(2j * np.pi * np.arange(n) / n)
        u = build_block_unitary(n) * np.sqrt(n)
        for i in range(n):
            for j in range(n):
                block = u[i * n:(i + 1) * n, j * n:(j + 1) * n]
                want = np.linalg.matrix_power(circulant(n), j) @ np.diag(w**i)
                assert np.abs(block - want).max() <= 1e-12


class TestAllOnes:
    def test_figure_tree(self):
        rep = check_allones_identity(FIGURE_TREE, (0, 1, 2, 3))
        assert rep.ok and rep.max_deviation <= 1e-9

    def test_single_vertex(self):
        assert check_allones_identity(from_parent_map(1, [0]), (0,)).ok

    def test_raw_path4_negative_control(self):
        # signed labels of the unlabeled 4-path collide mod 4
        rep = check_allones_identity(from_parent_map(4, [0, 0, 1, 2]), (0, 1, 2, 3))
        assert not rep.ok
        assert rep.max_deviation >= 1

    @pytest.mark.parametrize("n", range(1, 8))
    def test_catalog(self, n):
        for entry in catalog(n):
            lab = find_beta(entry.tree, "first")
            # the difference counts are exact integers
            rep = check_allones_identity(entry.tree, lab)
            assert rep.ok and rep.max_deviation == 0.0

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

    def test_large_path_in_linear_memory(self):
        # one n x n complex array would take 160 GB at n = 100,000
        n = 100_000
        path = from_parent_map(n, [0] + list(range(n - 1)))
        snake = [v // 2 if v % 2 == 0 else n - 1 - v // 2 for v in range(n)]
        tracemalloc.start()
        try:
            rep = check_allones_identity(path, snake)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.ok and rep.max_deviation == 0.0
        assert peak < 64 * 2**20, peak


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

    def test_runs_past_the_old_cap(self):
        # the check holds no n x n array, so it needs no cap on n
        n = 2001
        path = from_parent_map(n, [0] + list(range(n - 1)))
        snake = [v // 2 if v % 2 == 0 else n - 1 - v // 2 for v in range(n)]
        rep = check_apportionment(path, snake)
        assert rep.ok and rep.kappa_max_error == 0.0 and rep.kappa == 1 / n

    def test_unitary_residual_matches_dense(self):
        # exactly 0: F F*/n = I; the dense product is rounding-level
        for n in range(1, 25):
            rep = check_apportionment(from_parent_map(n, [0] + list(range(n - 1))), range(n))
            assert rep.unitary_residual == 0.0
            assert unitarity_residual(build_block_unitary(n)) <= 1e-12

    def test_ok_iff_edge_differences_distinct(self):
        # Both identities hold exactly when the labeled oriented edges fall in
        # n distinct difference classes mod n, beta-labeling or not; the
        # report is the count's closed forms for every sigma.
        passed = pairs = 0
        for n in range(1, 7):
            for entry in catalog(n):
                t = entry.tree
                edges = labeled_pairs(t, range(n))
                for sigma in permutations(range(n)):
                    distinct = len({(sigma[y] - sigma[x]) % n for x, y in edges}) == n
                    ones = check_allones_identity(t, sigma)
                    rep = check_apportionment(t, sigma)
                    assert ones.ok == rep.ok == distinct
                    assert rep.kappa_max_error == ones.max_deviation / n
                    assert rep.worst_entry == ones.worst_entry
                    assert rep.frobenius_modulus == 1 / n and rep.unitary_residual == 0.0
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


class TestFftModuli:
    """The exact reports against the FFT oracle, and that oracle's table
    against the dense n^2 x n^2 matrix."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_table_matches_dense_oracle(self, n):
        rng = random.Random(4000 + n)
        i = np.arange(n)
        diff = (i[None, :] - i[:, None]) % n  # diff[a, b] = b - a mod n
        non_beta = 0
        for entry in catalog(n):
            t = entry.tree
            sigmas = [find_beta(t, "first").sigma] + _non_beta_sigmas(t, 3, rng)
            non_beta += len(sigmas) - 1
            for sigma in sigmas:
                table = modulus_table(t, sigma)
                # dense[i, a, k, b] = |entry (i*n+a, k*n+b)|
                dense = np.abs(apportion_dense(t, sigma)).reshape(n, n, n, n)
                # want[i, a, k, b] = table[(b - a) % n, (k - i) % n]
                want = table[diff[None, :, None, :], diff[:, None, :, None]]
                assert np.abs(dense - want).max() <= 1e-12
        if n >= 4:
            assert non_beta == 3 * len(catalog(n))

    @pytest.mark.parametrize("n", range(1, 10))
    def test_report_matches_fft_oracle(self, n):
        # the first labeling and 15 uniform permutations of every catalog tree
        rng = random.Random(6000 + n)
        failed = 0
        for entry in catalog(n):
            t = entry.tree
            sigmas = [find_beta(t, "first").sigma]
            sigmas += [tuple(rng.sample(range(n), n)) for _ in range(15)]
            for sigma in sigmas:
                rep, fft = check_apportionment(t, sigma), apportion_fft_report(t, sigma)
                assert rep.ok == fft.ok and rep.kappa == fft.kappa
                assert abs(rep.kappa_max_error - fft.kappa_max_error) <= 1e-12
                assert abs(rep.frobenius_modulus - fft.frobenius_modulus) <= 1e-12
                assert abs(rep.unitary_residual - fft.unitary_residual) <= 1e-12
                if not rep.ok:
                    # on a passing sigma the FFT argmax picks rounding noise
                    assert rep.worst_entry == fft.worst_entry
                    failed += 1
        if n >= 4:
            assert failed > 0

    def test_memory_stays_quadratic(self):
        # below one n x n complex table (640 kB at n = 200): both checks
        # hold the n pairs and n counts only
        n = 200
        path = from_parent_map(n, [0] + list(range(n - 1)))
        snake = [v // 2 if v % 2 == 0 else n - 1 - v // 2 for v in range(n)]
        tracemalloc.start()
        try:
            ones = check_allones_identity(path, snake)
            rep = check_apportionment(path, snake)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ones.ok and rep.ok
        assert peak < 16 * n * n, peak

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
                    ok, err, frob, mod, unitary = apportion_dense_report(t, sigma)
                    assert rep.ok == ok
                    assert abs(rep.kappa_max_error - err) <= 1e-12
                    assert abs(rep.frobenius_modulus - frob) <= 1e-12
                    assert abs(rep.unitary_residual - unitary) <= 1e-12
                    # the witness is a real worst entry of the dense matrix
                    assert abs(abs(mod[rep.worst_entry] - 1.0 / n) - err) <= 1e-12
                    failed += not ok
        # a non-beta sigma with distinct edge differences mod n still passes
        assert non_beta >= 30 and failed >= 10
