"""Numerical checks of the unitary apportionment construction.

The bi-adjacency matrix A of a tree's left-to-right orientation, relabeled
by a beta-labeling into calA = P A P*, satisfies the circulant identity
1_{nxn} = sum_j C^j calA C^{-j}. Conjugating I (x) A by the block unitary U
built from C and the root-of-unity diagonal flattens every entry modulus to
the apportionment constant 1/n. Both identities read calA's diagonals
j -> calA[a+j, b+j] (their sums and their DFTs). That diagonal is the cyclic
diagonal j -> calA[j, j+e] of offset e = b - a turned by a, and turning a
sequence keeps its sum and multiplies its DFT by a unit phase, so the n
cyclic diagonals and their n FFTs stand for all n^2: O(n^2 log n) time. U's
unitarity is its n x n DFT factor's, by one n x n product. No array has more
than n^2 entries, so memory is O(n^2), and no n^2 x n^2 product is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from . import perms, trees
from .errors import MalformedInput
from .labeling import Labeling, labeled_pairs

# Each function imports numpy itself, so that importing the package, and
# every command that never reaches the apportionment, does not load it.
if TYPE_CHECKING:
    import numpy as np

DEFAULT_TOL = 1e-9


def biadjacency(t: trees.FunctionalTree, sigma: Sequence[int] | None = None) -> np.ndarray:
    """calA = P A P* with P[sigma(i), i] = 1, the bi-adjacency A itself when
    sigma is None: calA[a, b] = 1 iff (a, b) is one of labeled_pairs(t, sigma),
    the root's loop included. InvalidPermutation unless sigma permutes Z_n."""
    import numpy as np
    n = t.n
    a = np.zeros((n, n), dtype=complex)
    for x, y in labeled_pairs(t, range(n) if sigma is None else perms.check_perm(sigma, n)):
        a[x, y] = 1.0
    return a


def circulant(n: int) -> np.ndarray:
    """Adjacency matrix of the directed n-cycle; first row [0,1,0,...]."""
    import numpy as np
    return np.roll(np.eye(n, dtype=complex), 1, axis=1)


def build_block_unitary(n: int) -> np.ndarray:
    """n^2 x n^2 block matrix with (i,j)-block C^j diag(w)^i / sqrt(n)."""
    import numpy as np
    w = np.exp(2j * np.pi * np.arange(n) / n)
    c_pow = [np.linalg.matrix_power(circulant(n), j) for j in range(n)]
    return np.block([[c_j @ np.diag(w**i) for c_j in c_pow] for i in range(n)]) / np.sqrt(n)


def unitarity_residual(u: np.ndarray) -> float:
    import numpy as np
    return float(np.abs(u @ u.conj().T - np.eye(u.shape[0])).max())


def _diagonals(cal_a: np.ndarray) -> np.ndarray:
    """seq[e, j] = calA[j, j+e], indices mod n: the cyclic diagonal of offset
    e. The diagonal j -> calA[a+j, b+j] = (C^j calA C^{-j})[a, b] is
    seq[b-a] turned by a."""
    import numpy as np
    n = cal_a.shape[0]
    d = np.arange(n)
    return cal_a[d, (d[:, None] + d) % n]


@dataclass(frozen=True)
class AllOnesReport:
    ok: bool
    max_deviation: float
    worst_entry: tuple[int, int]


def check_allones_identity(
    t: trees.FunctionalTree,
    lab: Labeling | Sequence[int] | None,
    tol: float = DEFAULT_TOL,
) -> AllOnesReport:
    """1_{nxn} = sum_j C^j calA C^{-j} for the (relabeled) bi-adjacency.

    Entry (a, b) of the sum totals the diagonal j -> calA[a+j, b+j], the
    cyclic diagonal of offset b - a turned, exactly on 0/1 entries; the worst
    offset e is reported as the entry (0, e). lab=None checks the raw,
    unlabeled matrix (it fails whenever the raw orientation's differences
    collide mod n). Raises InvalidPermutation unless sigma permutes Z_n,
    MalformedInput unless 0 <= tol < inf (its sums are exact, so tol = 0 is
    attainable).
    """
    import numpy as np
    if not 0 <= tol < math.inf:
        raise MalformedInput(f"tolerance must be finite and >= 0, got {tol!r}")
    sigma = lab.sigma if isinstance(lab, Labeling) else lab
    dev = np.abs(_diagonals(biadjacency(t, sigma)).sum(axis=1) - 1)
    return AllOnesReport(
        ok=float(dev.max()) <= tol,
        max_deviation=float(dev.max()),
        worst_entry=(0, int(dev.argmax())),
    )


@dataclass(frozen=True)
class ApportionReport:
    ok: bool
    kappa: float
    kappa_max_error: float
    unitary_residual: float
    frobenius_modulus: float
    worst_entry: tuple[int, int]


def _modulus_table(cal_a: np.ndarray) -> np.ndarray:
    """table[e, f] = |entry (i*n+a, k*n+b)| of U (I (x) calA) U* for every
    a, b, i, k with b - a = e and k - i = f (mod n).

    That entry is (1/n) w^{ia-kb} sum_j calA[a+j, b+j] w^{(i-k)j}, so its
    modulus is 1/n times the f-th DFT coefficient of the diagonal
    j -> calA[a+j, b+j]. That diagonal is the cyclic diagonal of offset e
    turned by a, which multiplies the coefficient by w^{fa}, of modulus 1:
    n FFTs of length n instead of n^2 x n^2 products.
    """
    import numpy as np
    return np.abs(np.fft.fft(_diagonals(cal_a), axis=1)) / cal_a.shape[0]


def check_apportionment(
    t: trees.FunctionalTree,
    lab: Labeling | Sequence[int],
    tol: float = DEFAULT_TOL,
) -> ApportionReport:
    """Every entry of Q (I (x) A) Q* has modulus 1/n, with Q = U (I (x) P).

    Q (I (x) A) Q* = U (I (x) calA) U*, whose (i,k)-block is
    (1/n) sum_j C^j diag(w)^i calA diag(w)^{-k} C^{-j}: one unit-modulus
    term survives per entry once calA has one edge per difference class.
    The moduli come from _modulus_table; worst_entry is still a (row, col)
    index into Q (I (x) A) Q*: the worst table cell (e, f) is reported as
    (0, f*n + e), the entry with i = a = 0, k = f and b = e.

    unitary_residual = max |U U* - I| = max |F F*/n - I| for F[d, m] = w^{dm}:
    the (i, i')-block of U U*, (1/n) sum_j C^j diag(w)^{i-i'} C^{-j}, is
    (F F*/n)[i, i'] times I. Raises InvalidPermutation unless sigma permutes
    Z_n, MalformedInput unless 0 < tol < inf: the residual is rounding-level,
    not exact, so tol = 0 could never pass.
    """
    import numpy as np
    if not 0 < tol < math.inf:
        raise MalformedInput(f"tolerance must be finite and > 0, got {tol!r}")
    n = t.n
    table = _modulus_table(biadjacency(t, lab.sigma if isinstance(lab, Labeling) else lab))
    kappa = 1.0 / n
    err = np.abs(table - kappa)
    e, f = np.unravel_index(int(err.argmax()), err.shape)
    d = np.arange(n)
    unitary = unitarity_residual(np.exp(2j * np.pi * (np.outer(d, d) % n) / n) / math.sqrt(n))
    # each table cell stands for the n^2 entries with b - a = e and k - i = f
    frob = float(np.sqrt(n * n * np.square(table).sum())) / (n * n)
    return ApportionReport(
        ok=float(err.max()) <= tol and unitary <= tol,
        kappa=kappa,
        kappa_max_error=float(err.max()),
        unitary_residual=unitary,
        frobenius_modulus=frob,
        worst_entry=(0, int(f * n + e)),
    )
