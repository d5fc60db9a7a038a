"""Numerical checks of the unitary apportionment construction.

The bi-adjacency matrix A of a tree's left-to-right orientation, relabeled
by a beta-labeling into calA = P A P*, satisfies the circulant identity
1_{nxn} = sum_j C^j calA C^{-j}. Conjugating I (x) A by the block unitary U
built from C and the root-of-unity diagonal flattens every entry modulus to
the apportionment constant 1/n. calA[x, y] = 1 exactly for the labeled
pairs (x, y) of labeling.labeled_pairs, so both checks read those n pairs
and form no calA. Entry (a, b) of the circulant sum counts the pairs with
y - x = b - a (mod n): the all-ones identity is an O(n) count of label
differences. The moduli are the DFTs of calA's n cyclic diagonals
j -> calA[j, j+e], filled from the pairs: O(n^2 log n) time and O(n^2)
memory, with U's unitarity from its n x n DFT factor, by one n x n product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from . import perms, trees
from .errors import MalformedInput, ResourceLimit
from .labeling import Labeling, labeled_pairs

# The numpy functions import it themselves, so that importing the package,
# the all-ones check and every command that never reaches the apportionment
# do not load it.
if TYPE_CHECKING:
    import numpy as np

DEFAULT_TOL = 1e-9

# Largest n that check_apportionment takes: its table and DFT factor are
# n x n complex arrays (64 MB each at n = 2,000) and the unitarity residual
# an n x n product.
APPORTION_CAP = 2_000


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


def _pairs(t: trees.FunctionalTree, lab: Labeling | Sequence[int]) -> list[tuple[int, int]]:
    """The labeled pairs of t under lab: calA[x, y] = 1 for each (x, y).
    InvalidPermutation unless sigma permutes Z_n."""
    sigma = lab.sigma if isinstance(lab, Labeling) else lab
    return labeled_pairs(t, perms.check_perm(sigma, t.n))


@dataclass(frozen=True)
class AllOnesReport:
    ok: bool
    max_deviation: float
    worst_entry: tuple[int, int]


def check_allones_identity(
    t: trees.FunctionalTree, lab: Labeling | Sequence[int]
) -> AllOnesReport:
    """1_{nxn} = sum_j C^j calA C^{-j} for the relabeled bi-adjacency.

    Entry (a, b) of the sum counts the labeled pairs (x, y) with
    y - x = b - a (mod n), so the identity holds iff each difference class
    mod n holds one pair: the difference lemma's condition for the cyclic
    decomposition of directed K_{n,n} (decomposition's module docstring).
    The deviations |count - 1| are exact integers; the first worst class e
    is reported as the entry (0, e). Raises InvalidPermutation unless sigma
    permutes Z_n.
    """
    n = t.n
    count = [0] * n
    for x, y in _pairs(t, lab):
        count[(y - x) % n] += 1
    dev = [abs(c - 1) for c in count]
    worst = dev.index(max(dev))
    return AllOnesReport(
        ok=dev[worst] == 0, max_deviation=float(dev[worst]), worst_entry=(0, worst)
    )


@dataclass(frozen=True)
class ApportionReport:
    ok: bool
    kappa: float
    kappa_max_error: float
    unitary_residual: float
    frobenius_modulus: float
    worst_entry: tuple[int, int]


def _modulus_table(t: trees.FunctionalTree, lab: Labeling | Sequence[int]) -> np.ndarray:
    """table[e, f] = |entry (i*n+a, k*n+b)| of U (I (x) calA) U* for every
    a, b, i, k with b - a = e and k - i = f (mod n).

    That entry is (1/n) w^{ia-kb} sum_j calA[a+j, b+j] w^{(i-k)j}, so its
    modulus is 1/n times the f-th DFT coefficient of the diagonal
    j -> calA[a+j, b+j]. That diagonal is the cyclic diagonal
    seq[e, j] = calA[j, j+e] turned by a, which multiplies the coefficient
    by w^{fa}, of modulus 1: n FFTs of length n instead of n^2 x n^2
    products. The pair (x, y) is seq[y - x, x].
    """
    import numpy as np
    n = t.n
    seq = np.zeros((n, n), dtype=complex)
    for x, y in _pairs(t, lab):
        seq[(y - x) % n, x] = 1.0
    return np.abs(np.fft.fft(seq, axis=1)) / n


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
    (F F*/n)[i, i'] times I. Raises ResourceLimit above APPORTION_CAP,
    InvalidPermutation unless sigma permutes Z_n, MalformedInput unless
    0 < tol < inf: the residual is rounding-level, not exact, so tol = 0
    could never pass.
    """
    n = t.n
    if n > APPORTION_CAP:
        raise ResourceLimit(f"n = {n} exceeds the apportionment cap {APPORTION_CAP}")
    if not 0 < tol < math.inf:
        raise MalformedInput(f"tolerance must be finite and > 0, got {tol!r}")
    import numpy as np
    table = _modulus_table(t, lab)
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
