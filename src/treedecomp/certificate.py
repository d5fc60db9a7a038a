"""Exact evaluation of the decomposition certificate and its canonical form.

The certificate of a functional tree g at a lattice point f in Z_n^{Z_n} is
the integer product of three factors: vertex labels pairwise distinct,
signed edge labels pairwise distinct, and signed edge labels inside Z_n.
It is nonzero exactly at the points encoding a beta-labeling. Everything in
this module is integer/rational exact; there is no floating point.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from . import labeling as lb
from . import perms, trees
from .errors import MalformedInput, PreconditionViolated, ResourceLimit
from .polynomial import DensePolynomial, reduce_falling_factorial

DEFAULT_SWEEP_CAP = 7
DEFAULT_FULL_LATTICE_CAP = 5
DEFAULT_SYMBOLIC_CAP = 4


def eval_certificate(t: trees.FunctionalTree, f: Sequence[int]) -> int:
    """Exact integer value of the certificate at the lattice point f."""
    n = t.n
    f = tuple(f)
    if len(f) != n or any(type(v) is not int or not (0 <= v < n) for v in f):
        raise MalformedInput(f"lattice point must be a length-{n} map into Z_{n}")

    vertex_factor = 1
    for v in range(n):
        for u in range(v):
            vertex_factor *= f[v] - f[u]
        if vertex_factor == 0:
            return 0

    e = [t.sign(v) * (f[t.g[v]] - f[v]) for v in range(n)]
    edge_factor = 1
    for v in range(n):
        for u in range(v):
            edge_factor *= e[v] - e[u]
        if edge_factor == 0:
            return 0

    range_factor = 1
    for ev in e:
        for i in range(1, n):
            range_factor *= ev + i
        if range_factor == 0:
            return 0
    return vertex_factor * edge_factor * range_factor


def expected_magnitude(n: int) -> int:
    """prod over k in Z_n of k! * (n-1+k)!: the common |certificate| on Phi."""
    out = 1
    for k in range(n):
        out *= math.factorial(k) * math.factorial(n - 1 + k)
    return out


@dataclass(frozen=True)
class MagnitudeReport:
    ok: bool
    expected: int
    phi_size: int
    failures: tuple[tuple[int, ...], ...]


def certificate_magnitude_check(
    t: trees.FunctionalTree, cap: int = DEFAULT_SWEEP_CAP
) -> MagnitudeReport:
    """|certificate| equals expected_magnitude(n) at every member of Phi."""
    if t.n > cap:
        raise ResourceLimit(f"n = {t.n} exceeds the exhaustive cap {cap}")
    expected = expected_magnitude(t.n)
    phi = lb.phi_set(t)
    failures = tuple(
        f for f in phi if abs(eval_certificate(t, f)) != expected
    )
    return MagnitudeReport(
        ok=not failures, expected=expected, phi_size=len(phi), failures=failures
    )


def lattice_points(n: int, m: int) -> Iterator[tuple[int, ...]]:
    """All maps Z_m -> Z_n as tuples (the full n^m evaluation lattice)."""
    return itertools.product(range(n), repeat=m)


def nonvanishing_by_sweep(
    t: trees.FunctionalTree,
    full_lattice: bool = False,
    cap: int = DEFAULT_SWEEP_CAP,
) -> bool:
    """True iff some lattice point gives a nonzero certificate.

    Default sweeps permutations only; the certificate vanishes off S_n (the
    vertex-distinctness factor), a fact the test suite checks by full
    sweeps at small n. full_lattice=True forces the n^n sweep.
    """
    if t.n > cap:
        raise ResourceLimit(f"n = {t.n} exceeds the sweep cap {cap}")
    points = (
        lattice_points(t.n, t.n)
        if full_lattice
        else itertools.permutations(range(t.n))
    )
    return any(eval_certificate(t, f) != 0 for f in points)


# ---------------------------------------------------------------------------
# Lagrange bases and canonical representatives
# ---------------------------------------------------------------------------


def lagrange_basis(
    f: Sequence[int], n: int, cap: int = DEFAULT_SYMBOLIC_CAP
) -> DensePolynomial:
    """The basis polynomial taking value 1 at f and 0 elsewhere on the lattice.

    Product over variables i of prod_{j != f(i)} (x_i - j) / (f(i) - j),
    expanded to an exact coefficient table (per-variable degree n-1).
    """
    if n > cap:
        raise ResourceLimit(f"n = {n} exceeds the symbolic cap {cap}")
    f = tuple(f)
    m = len(f)
    if any(not (0 <= v < n) for v in f):
        raise MalformedInput(f"evaluation point must map into Z_{n}")

    # Univariate factor for each variable, as a dense coefficient list.
    factors: list[list[Fraction]] = []
    for i in range(m):
        num = [1]  # coefficients by power
        den = 1
        for j in range(n):
            if j == f[i]:
                continue
            nxt = [Fraction(0)] * (len(num) + 1)
            for d, a in enumerate(num):
                nxt[d + 1] += a
                nxt[d] -= j * a
            num = nxt
            den *= f[i] - j
        factors.append([Fraction(a, den) for a in num])

    table: dict[tuple[int, ...], Fraction] = {(): Fraction(1)}
    for coeffs in factors:
        nxt_table: dict[tuple[int, ...], Fraction] = {}
        for e, c in table.items():
            for d, a in enumerate(coeffs):
                if a:
                    nxt_table[e + (d,)] = c * a
        table = nxt_table
    return DensePolynomial(m, table)


def canonical_representative(
    t: trees.FunctionalTree, cap: int = DEFAULT_SYMBOLIC_CAP
) -> DensePolynomial:
    """Exact coefficient table of sum over Phi of certificate(f) * basis_f.

    Agrees with eval_certificate on every lattice point; identically zero
    exactly when Phi is empty.
    """
    if t.n > cap:
        raise ResourceLimit(f"n = {t.n} exceeds the symbolic cap {cap}")
    out = DensePolynomial.zero(t.n)
    for f in lb.phi_set(t):
        out = out + lagrange_basis(f, t.n, cap=cap).scale(eval_certificate(t, f))
    return out


# ---------------------------------------------------------------------------
# Statement-level lemma checks
# ---------------------------------------------------------------------------


def transposition_invariance_sweep(
    t: trees.FunctionalTree,
    tau: Sequence[int],
    cap: int = DEFAULT_FULL_LATTICE_CAP,
) -> tuple[int, ...] | None:
    """First lattice point with certificate(f o tau) != certificate(f), or None."""
    if t.n > cap:
        raise ResourceLimit(f"n = {t.n} exceeds the full-lattice cap {cap}")
    for f in lattice_points(t.n, t.n):
        f_tau = tuple(f[tau[i]] for i in range(t.n))
        if eval_certificate(t, f_tau) != eval_certificate(t, f):
            return f
    return None


@dataclass(frozen=True)
class InvarianceReport:
    ok: bool
    pairs: tuple[tuple[int, int], ...]
    sweep_checked: bool
    table_checked: bool
    witness: tuple[int, ...] | None


def check_transposition_invariance(
    t: trees.FunctionalTree,
    sweep_cap: int = DEFAULT_FULL_LATTICE_CAP,
    table_cap: int = DEFAULT_SYMBOLIC_CAP,
) -> InvarianceReport:
    """Both invariance claims for every sibling-leaf transposition of t.

    Claim I: the certificate value is unchanged by permuting any sibling-leaf
    pair, at every point of the full lattice (n <= sweep_cap).
    Claim II: the canonical coefficient table is fixed by the same variable
    transposition (n <= table_cap).
    """
    pairs = trees.sibling_leaf_pairs(t)
    if not pairs:
        raise PreconditionViolated("tree has no sibling-leaf pair")
    sweep_checked = t.n <= sweep_cap
    table_checked = t.n <= table_cap
    if not (sweep_checked or table_checked):
        raise ResourceLimit(f"n = {t.n} exceeds both invariance caps")
    table = canonical_representative(t) if table_checked else None
    for a, b in pairs:
        tau = perms.transposition(a, b, t.n)
        if sweep_checked:
            witness = transposition_invariance_sweep(t, tau, cap=sweep_cap)
            if witness is not None:
                return InvarianceReport(False, tuple(pairs), True, table_checked, witness)
        if table is not None and table.permute_variables(tau) != table:
            return InvarianceReport(False, tuple(pairs), sweep_checked, True, None)
    return InvarianceReport(True, tuple(pairs), sweep_checked, table_checked, None)


@dataclass(frozen=True)
class ChainReport:
    code: bytes
    transitions: int
    phi_nonempty: tuple[bool, ...]
    implications_ok: bool
    squaring_ok: bool

    @property
    def ok(self) -> bool:
        return self.implications_ok and self.squaring_ok


def collapse_chain(t: trees.FunctionalTree) -> tuple[list[trees.FunctionalTree], int]:
    """Normalize-and-collapse until the map is constant.

    Returns the visited trees (starting at t) and the number of
    tree-changing transitions (a normalization that alters the tree counts
    as one, each collapse as one).
    """
    chain = [t]
    transitions = 0
    cur = t
    guard = 0
    while not cur.is_constant():
        norm = trees.normalize_for_collapse(cur)
        if norm.g != cur.g:
            transitions += 1
            chain.append(norm)
        cur = trees.collapse_leaf_siblings(norm)
        transitions += 1
        chain.append(cur)
        guard += 1
        if guard > t.n:
            raise AssertionError("collapse chain failed to terminate")
    return chain, transitions


def squaring_chain_ends_constant(t: trees.FunctionalTree) -> bool:
    """g -> g^2 -> g^4 -> ... reaches the constant map in ceil(log2(n-1)) steps."""
    cur = t
    if t.n >= 2:
        for _ in range((t.n - 2).bit_length()):
            cur = trees.square(cur)
    return cur.is_constant()


def chain_report(t: trees.FunctionalTree) -> ChainReport:
    """Chain mechanics for one tree.

    Along the collapse chain, Phi nonempty at the collapsed tree must imply
    Phi nonempty one step earlier; the squaring chain must end constant.
    """
    chain, transitions = collapse_chain(t)
    nonempty = tuple(lb.find_beta(tree, "first") is not None for tree in chain)
    return ChainReport(
        code=trees.canonical_code(t),
        transitions=transitions,
        phi_nonempty=nonempty,
        implications_ok=all(
            nonempty[i] or not nonempty[i + 1] for i in range(len(nonempty) - 1)
        ),
        squaring_ok=squaring_chain_ends_constant(t),
    )


def check_composition_implication(n: int, cap: int = 6) -> list[ChainReport]:
    """chain_report for every catalog tree on n vertices."""
    if n > cap:
        raise ResourceLimit(f"n = {n} exceeds the chain cap {cap}")
    return [chain_report(entry.tree) for entry in trees.enumerate_free_trees(n)]


@dataclass(frozen=True)
class MonomialSupportReport:
    ok: bool
    n: int
    bases_checked: int
    violations: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


def check_monomial_support(n: int, cap: int = DEFAULT_SYMBOLIC_CAP) -> MonomialSupportReport:
    """Every monomial of every Lagrange basis misses at most one variable."""
    if n < 1:
        raise MalformedInput(f"n must be at least 1, got {n}")
    if n > cap:
        raise ResourceLimit(f"n = {n} exceeds the symbolic cap {cap}")
    violations = []
    count = 0
    for sigma in itertools.permutations(range(n)):
        count += 1
        basis = lagrange_basis(sigma, n, cap=cap)
        for e in basis.coeffs:
            if sum(1 for d in e if d == 0) > 1:
                violations.append((sigma, e))
    return MonomialSupportReport(
        ok=not violations, n=n, bases_checked=count, violations=tuple(violations)
    )


def check_variable_dependency(
    p: DensePolynomial, support: Sequence[int], t_power: int, n: int
) -> bool:
    """Reduce p**t_power modulo the falling factorials and test its support.

    True iff the reduced table only touches variables in support.
    """
    if t_power < 1:
        raise MalformedInput("t_power must be positive")
    support_set = set(support)
    if not support_set <= set(range(p.n_vars)) or len(support_set) >= p.n_vars:
        raise MalformedInput("support must be a proper subset of the variables")
    if not p.per_variable_degree_below(n):
        raise MalformedInput("p must have per-variable degree below n")
    if not p.variables_used() <= support_set:
        raise MalformedInput("p already depends on variables outside support")
    reduced = reduce_falling_factorial(p**t_power, n)
    return reduced.variables_used() <= support_set
