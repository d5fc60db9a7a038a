"""Numerical checks of the unitary apportionment construction.

The bi-adjacency matrix A of a tree's left-to-right orientation, relabeled
by a beta-labeling into calA = P A P*, satisfies the circulant identity
1_{nxn} = sum_j C^j calA C^{-j}. Conjugating I (x) A by the block unitary U
built from C and the root-of-unity diagonal flattens every entry modulus to
the apportionment constant 1/n. Both identities read calA's diagonals
j -> calA[a+j, b+j] (their sums and their DFTs), and U's unitarity is its
n x n DFT factor's, so no n^2 x n^2 matrix is formed: O(n^3 log n), not O(n^6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import perms, trees
from .decomposition import orient
from .errors import MalformedInput
from .labeling import Labeling

DEFAULT_TOL = 1e-9


def biadjacency(t: trees.FunctionalTree) -> np.ndarray:
    """0/1 matrix with A[i, j] = 1 iff (i, n+j) is an oriented edge."""
    n = t.n
    a = np.zeros((n, n), dtype=complex)
    for x, y in orient(t).edges:
        a[x, y - n] = 1.0
    return a


def circulant(n: int) -> np.ndarray:
    """Adjacency matrix of the directed n-cycle; first row [0,1,0,...]."""
    return np.roll(np.eye(n, dtype=complex), 1, axis=1)


def build_block_unitary(n: int) -> np.ndarray:
    """n^2 x n^2 block matrix with (i,j)-block C^j diag(w)^i / sqrt(n)."""
    w = np.exp(2j * np.pi * np.arange(n) / n)
    c_pow = [np.linalg.matrix_power(circulant(n), j) for j in range(n)]
    return np.block([[c_j @ np.diag(w**i) for c_j in c_pow] for i in range(n)]) / np.sqrt(n)


def unitarity_residual(u: np.ndarray) -> float:
    return float(np.abs(u @ u.conj().T - np.eye(u.shape[0])).max())


def _relabeled_adjacency(t: trees.FunctionalTree, sigma: Sequence[int] | None) -> np.ndarray:
    """calA = P A P* with P[sigma(i), i] = 1. Relabeling keeps depth parity,
    so orienting the relabeled tree gives the relabeled orientation."""
    return biadjacency(t if sigma is None else trees.conjugate(t, sigma))


def _diagonals(cal_a: np.ndarray) -> np.ndarray:
    """seq[a, b, j] = calA[a+j, b+j] = (C^j calA C^{-j})[a, b], indices mod n."""
    n = cal_a.shape[0]
    d = np.arange(n)
    return cal_a[(d[:, None, None] + d) % n, (d[:, None] + d) % n]


def _check_tol(tol: float) -> None:
    if not 0 <= tol < math.inf:
        raise MalformedInput(f"tolerance must be finite and >= 0, got {tol!r}")


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

    Entry (a, b) of the sum totals the diagonal j -> calA[a+j, b+j], exactly
    on 0/1 entries. lab=None checks the raw, unlabeled matrix (it fails
    whenever the raw orientation's differences collide mod n). Raises
    InvalidPermutation unless sigma permutes Z_n, MalformedInput unless
    0 <= tol < inf.
    """
    _check_tol(tol)
    sigma = lab.sigma if isinstance(lab, Labeling) else lab
    dev = np.abs(_diagonals(_relabeled_adjacency(t, sigma)).sum(axis=2) - 1)
    worst = np.unravel_index(int(dev.argmax()), dev.shape)
    return AllOnesReport(
        ok=float(dev.max()) <= tol,
        max_deviation=float(dev.max()),
        worst_entry=(int(worst[0]), int(worst[1])),
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
    """table[a, b, f] = |entry (i*n+a, k*n+b)| of U (I (x) calA) U* for every
    i, k with k - i = f (mod n).

    That entry is (1/n) w^{ia-kb} sum_j calA[a+j, b+j] w^{(i-k)j}, so its
    modulus is 1/n times the f-th DFT coefficient of the diagonal sequence
    j -> calA[a+j, b+j]: n^2 FFTs of length n instead of n^2 x n^2 products.
    """
    return np.abs(np.fft.fft(_diagonals(cal_a), axis=2)) / cal_a.shape[0]


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
    index into Q (I (x) A) Q*: the worst table cell (a, b, f) is reported
    as (a, f*n + b), the entry with i = 0 and k = f.

    unitary_residual = max |U U* - I| = max |F F*/n - I| for F[d, m] = w^{dm}:
    the (i, i')-block of U U*, (1/n) sum_j C^j diag(w)^{i-i'} C^{-j}, is
    (F F*/n)[i, i'] times I. Raises InvalidPermutation unless sigma permutes
    Z_n, MalformedInput unless 0 <= tol < inf.
    """
    _check_tol(tol)
    n = t.n
    sigma = perms.check_perm(lab.sigma if isinstance(lab, Labeling) else lab, n)
    table = _modulus_table(_relabeled_adjacency(t, sigma))
    kappa = 1.0 / n
    err = np.abs(table - kappa)
    a, b, f = np.unravel_index(int(err.argmax()), err.shape)
    d = np.arange(n)
    unitary = unitarity_residual(np.exp(2j * np.pi * (np.outer(d, d) % n) / n) / math.sqrt(n))
    # each table cell stands for the n entries with k - i = f
    frob = float(np.sqrt(n * np.square(table).sum())) / (n * n)
    return ApportionReport(
        ok=float(err.max()) <= tol and unitary <= tol,
        kappa=kappa,
        kappa_max_error=float(err.max()),
        unitary_residual=unitary,
        frobenius_modulus=frob,
        worst_entry=(int(a), int(f * n + b)),
    )
