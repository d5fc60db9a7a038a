"""Exact checks of the unitary apportionment construction.

The relabeled bi-adjacency calA = P A P* of a beta-labeled tree has a 1
exactly at the n labeled pairs (x, y) of labeling.labeled_pairs. Both the
all-ones identity and the uniform moduli of U (I (x) calA) U* are closed
forms of how many pairs fall in each difference class y - x (mod n): one
O(n) count in exact integers. Only build_block_unitary, the explicit U,
uses numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from . import perms, trees
from .labeling import Labeling, labeled_pairs

if TYPE_CHECKING:
    import numpy as np


def build_block_unitary(n: int) -> np.ndarray:
    """n^2 x n^2 block matrix with (i,j)-block C^j diag(w)^i / sqrt(n), C the
    directed n-cycle's adjacency matrix (first row [0, 1, 0, ...])."""
    import numpy as np
    w = np.exp(2j * np.pi * np.arange(n) / n)
    c_pow = [np.roll(np.eye(n, dtype=complex), j, axis=1) for j in range(n)]
    return np.block([[c_j @ np.diag(w**i) for c_j in c_pow] for i in range(n)]) / np.sqrt(n)


@dataclass(frozen=True)
class AllOnesReport:
    ok: bool
    max_deviation: float
    worst_entry: tuple[int, int]


def check_allones_identity(
    t: trees.FunctionalTree, lab: Labeling | Sequence[int]
) -> AllOnesReport:
    """1_{nxn} = sum_j C^j calA C^{-j} for the relabeled bi-adjacency.

    With c_e the number of labeled pairs with y - x = e (mod n), entry (a, b)
    of the sum is c_{b-a}: the identity holds iff each difference class holds
    one pair, the difference lemma's condition for the cyclic decomposition
    of directed K_{n,n}. The deviations |c_e - 1| are exact integers; the
    first worst class e is reported as the entry (0, e). Raises
    InvalidPermutation unless sigma permutes Z_n.
    """
    n = t.n
    sigma = lab.sigma if isinstance(lab, Labeling) else lab
    count = [0] * n
    for x, y in labeled_pairs(t, perms.check_perm(sigma, n)):
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


def check_apportionment(
    t: trees.FunctionalTree, lab: Labeling | Sequence[int]
) -> ApportionReport:
    """Every entry of Q (I (x) A) Q* has modulus 1/n, with Q = U (I (x) P).

    Q (I (x) A) Q* = U (I (x) calA) U*, whose entry (i*n+a, k*n+b) has
    modulus |DFT_f(seq_e)| / n for e = b - a, f = k - i (mod n) and the
    cyclic diagonal seq_e: j -> calA[j, j+e], which holds c_e ones. Its
    |DFT_0| is c_e and every |DFT_f| is at most c_e (all 1 when c_e = 1, all
    0 when c_e = 0), so, read off check_allones_identity:
    - kappa_max_error = max_e |c_e - 1| / n, the count's max_deviation / n;
    - worst_entry = (0, e) for the count's worst class e, the cell f = 0;
    - frobenius_modulus = 1/n for every sigma: by Parseval the squares of
      |DFT_f(seq_e)| sum to n c_e, and the c_e sum to n;
    - unitary_residual = 0.0: the (i, i')-block of U U* is (F F*/n)[i, i']
      times I for F[d, m] = w^{dm}, and F F*/n = I exactly;
    - ok is the all-ones verdict. The errors are multiples of 1/n, so no
      tolerance is needed. Raises InvalidPermutation unless sigma permutes Z_n.
    """
    ones, kappa = check_allones_identity(t, lab), 1.0 / t.n
    return ApportionReport(
        ok=ones.ok, kappa=kappa, kappa_max_error=ones.max_deviation / t.n,
        unitary_residual=0.0, frobenius_modulus=kappa, worst_entry=ones.worst_entry,
    )
