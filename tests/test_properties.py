"""Property tests on random labeled trees, decoded from Prufer sequences."""

from collections import Counter
from unittest import mock

from conftest import (
    allones_dense,
    apportion_dense_report,
    bases_by_labeled_pairs,
    prufer_decode,
    relabeled_dense,
    undirected_edges,
    unpruned_search,
    verify_partition_by_sets,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from treedecomp import (
    Decomposition,
    Labeling,
    canonical_code,
    check_allones_identity,
    check_apportionment,
    conjugate,
    decompose_directed_knn,
    decompose_k2n1,
    decompose_knxnx,
    decomposition,
    eval_certificate,
    find_beta,
    from_parent_map,
    phi_set,
    reroot,
    tree_from_json,
    tree_to_json,
    verify_beta,
    verify_partition,
)
from treedecomp.trees import bfs, canonical_code_of_edges, tree_from_level_sequence

# The same examples on every run, few enough for tier-1.
TIER1 = settings(derandomize=True, max_examples=80, deadline=None, database=None)


@st.composite
def labeled_trees(draw, max_n=12):
    """A labeled tree on Z_n, n <= max_n, rooted at a drawn vertex."""
    n = draw(st.integers(1, max_n))
    if n == 1:
        return from_parent_map(1, [0])
    seq = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    adj = [[] for _ in range(n)]
    for a, b in prufer_decode(tuple(seq), n):
        adj[a].append(b)
        adj[b].append(a)
    return from_parent_map(n, bfs(adj, draw(st.integers(0, n - 1)))[1])


@st.composite
def trees_with_points(draw):
    """A tree and a permutation of Z_n: about half the time a beta-labeling
    found by a seeded search, else a uniform random one."""
    t = draw(labeled_trees())
    if draw(st.booleans()):
        return t, find_beta(t, "first", seed=draw(st.integers(0, 2**16))).sigma
    return t, tuple(draw(st.permutations(range(t.n))))


@TIER1
@given(labeled_trees(max_n=60))
def test_level_sequence_round_trip(t):
    # a canonical code decodes to a tree with that code, so a record's
    # tree_code rebuilds its tree
    code = canonical_code(t)
    assert canonical_code(tree_from_level_sequence(code)) == code


@TIER1
@given(labeled_trees())
def test_json_round_trip(t):
    assert tree_from_json(tree_to_json(t)) == t


@TIER1
@given(labeled_trees(), st.data())
def test_reroot_round_trip(t, data):
    r = data.draw(st.integers(0, t.n - 1))
    assert reroot(reroot(t, r), t.root) == t


@TIER1
@given(labeled_trees())
def test_code_of_the_edge_list_is_the_trees_code(t):
    # the edge-list route the partition verifier takes, on the tree's own edges
    assert canonical_code_of_edges(sorted(undirected_edges(t))) == canonical_code(t)


@TIER1
@given(trees_with_points())
def test_beta_labeling_iff_certificate_nonzero(case):
    # the pointwise equivalence that the nonzero and Claim I routes rest on
    t, sigma = case
    assert isinstance(verify_beta(t, sigma), Labeling) == (eval_certificate(t, sigma) != 0)


@TIER1
@given(trees_with_points())
def test_verify_beta_accepts_exactly_when_each_label_appears_once(case):
    # verify_beta decides by one sort; count the signed labels directly
    t, sigma = case
    counts = Counter(t.sign(v) * (sigma[t.g[v]] - sigma[v]) for v in range(t.n))
    once = all(counts[lbl] == 1 for lbl in range(t.n))
    result = verify_beta(t, sigma)
    assert isinstance(result, Labeling) == once
    if not once:
        outside = sorted(lbl for lbl in counts.elements() if not 0 <= lbl < t.n)
        assert result.duplicated == tuple(lbl for lbl in range(t.n) if counts[lbl] > 1)
        assert result.out_of_range == tuple(outside)


@TIER1
@given(labeled_trees(max_n=10))
def test_search_agrees_with_the_unpruned_search(t):
    # the count rule and the leaf families' Hall checks cut only subtrees
    # with no labeling: the first labeling is the oracle's first in the same
    # order, and Phi is the oracle's
    assert [find_beta(t).sigma] == unpruned_search(t, first=True)[0]
    if t.n <= 7:
        assert phi_set(t) == sorted(unpruned_search(t, first=False)[0])


@TIER1
@given(labeled_trees(), st.integers(1, 3))
def test_decompositions_pass_and_equal_the_set_oracle(t, x):
    # the difference-lemma verifier and the edge-by-edge oracle, which codes
    # no shape, give the same report on every decomposition built from the
    # search's labeling; every built base is the labeled pairs' placement
    # and is witnessed by it, so none reaches the general shape check
    lab = find_beta(t)
    coded = AssertionError("a built base reached the general shape check")
    with mock.patch.object(decomposition, "_copy_is_tree_of_shape", side_effect=coded):
        ds = [decompose_directed_knn(t, lab)]
        if t.n >= 2:
            ds += [decompose_k2n1(t, lab, x), decompose_knxnx(t, lab, x)]
    for d in ds:
        report = verify_partition(d)
        assert report.ok and report == verify_partition_by_sets(d), d.host
        assert d.bases == bases_by_labeled_pairs(t, lab.sigma, d.host), d.host


@TIER1
@given(labeled_trees(), st.integers(1, 3), st.data())
def test_sigma_and_renamed_bases_meet_the_set_oracle(t, x, data):
    # the shape check trusts a base placed by d.sigma only when sigma is a
    # permutation of Z_n made of ints; a tampered sigma or a base renamed by
    # a bijection of each host part raises nothing and gets the oracle's
    # verdict, its whole report when both pass
    lab = find_beta(t)
    ds = [decompose_directed_knn(t, lab)]
    if t.n >= 2:
        ds += [decompose_k2n1(t, lab, x), decompose_knxnx(t, lab, x)]
    s = lab.sigma
    tampered = [s[:-1], s + (t.n,), s[:-1] + (str(s[-1]),)]
    if t.n >= 2:
        tampered.append(s[1:2] + s[1:])
    for d in ds:
        for sigma in tampered:
            bad = Decomposition(host=d.host, bases=d.bases, tree=d.tree, sigma=sigma)
            assert verify_partition(bad) == verify_partition_by_sets(bad), (d.host, sigma)
        m = len(d.copies) // len(d.bases)
        left = data.draw(st.permutations(range(m)))
        right = data.draw(st.permutations(range(m, 2 * m)))
        k = data.draw(st.integers(0, len(d.bases) - 1))
        named = ((left[u], right[v - m] if v >= m else left[v]) for u, v in d.bases[k])
        base = tuple(sorted((a, b) if a < b else (b, a) for a, b in named))
        renamed = Decomposition(
            host=d.host, bases=d.bases[:k] + (base,) + d.bases[k + 1:], tree=d.tree, sigma=s
        )
        report, want = verify_partition(renamed), verify_partition_by_sets(renamed)
        assert report.ok == want.ok and (report == want or not want.ok), (d.host, base)
        assert "shape" not in str(report.problem) and "injective" not in str(report.problem)


@TIER1
@given(labeled_trees(), st.data())
def test_canonical_code_ignores_labels_and_root(t, data):
    code = canonical_code(t)
    sigma = data.draw(st.permutations(range(t.n)))
    assert canonical_code(conjugate(t, sigma)) == code
    assert canonical_code(reroot(t, data.draw(st.integers(0, t.n - 1)))) == code


@TIER1
@given(trees_with_points())
def test_apportionment_reports_agree_with_the_dense_oracles(case):
    # the n cyclic diagonals stand for all n^2 diagonals: both reports are
    # the dense routes', and each witness is a real worst entry of its matrix
    t, sigma = case
    assert check_allones_identity(t, sigma) == allones_dense(relabeled_dense(t, sigma))
    rep = check_apportionment(t, sigma)
    ok, err, frob, mod, unitary = apportion_dense_report(t, sigma)
    assert rep.ok == ok
    assert abs(rep.kappa_max_error - err) <= 1e-12
    assert abs(rep.frobenius_modulus - frob) <= 1e-12
    assert abs(rep.unitary_residual - unitary) <= 1e-12
    assert abs(abs(mod[rep.worst_entry] - 1.0 / t.n) - err) <= 1e-12
