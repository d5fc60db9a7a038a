"""Trees as contractive self-maps of Z_n: beta-labelings, cyclic
decompositions of complete (bipartite) graphs, exact polynomial
certificates, entry-permutation group actions, and unitary apportionment."""

__version__ = "0.1.0"

from .apportionment import (
    biadjacency,
    build_block_unitary,
    check_allones_identity,
    check_apportionment,
)
from .certificate import (
    canonical_representative,
    certificate_magnitude_check,
    check_monomial_support,
    check_transposition_invariance,
    check_variable_dependency,
    eval_certificate,
    expected_magnitude,
    lagrange_basis,
    nonvanishing_by_sweep,
)
from .decomposition import (
    Decomposition,
    Host,
    OrientedBipartiteTree,
    decompose_directed_knn,
    decompose_k2n1,
    decompose_knxnx,
    decomposition_to_json,
    orient,
    verify_partition,
)
from .errors import (
    InvalidPermutation,
    MalformedInput,
    NotAFunctionalTree,
    NotBijective,
    PreconditionViolated,
    ResourceLimit,
    TreeDecompError,
    VerificationFailed,
)
from .groupaction import (
    EntryPermutation,
    closure,
    sigma_from_first_column,
    sigma_from_labeled_tree,
)
from .labeling import (
    BetaFailure,
    Labeling,
    find_beta,
    phi_orbits,
    phi_set,
    verify_beta,
    verify_graceful,
)
from .polynomial import Polynomial, reduce_falling_factorial
from .trees import (
    FunctionalTree,
    TreeCatalogEntry,
    canonical_code,
    collapse_leaf_siblings,
    conjugate,
    enumerate_free_trees,
    from_parent_map,
    normalize_for_collapse,
    reroot,
    tree_from_json,
    tree_to_dot,
    tree_to_json,
)
