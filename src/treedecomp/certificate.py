"""Exact evaluation of the decomposition certificate and its canonical form.

The certificate of a functional tree g at a lattice point f in Z_n^{Z_n} is
the integer product of three factors: vertex labels pairwise distinct,
signed edge labels pairwise distinct, and signed edge labels inside Z_n.
It is nonzero exactly at the beta-labelings, the members of Phi, and the
checks read Phi at the one representative per orbit of labeling.phi_orbits.

Orbit lemma: certificate(f.alpha) = certificate(f) for alpha in Aut_r, the
rooted tree's automorphism group. Such an alpha keeps depths and commutes
with g, so f.alpha has the vertex labels and signed edge labels of f permuted
by alpha: the vertex and edge factors each change by sgn(alpha), and the
range factor, a product over all vertices, not at all.

Everything here is integer/rational exact; there is no floating point.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import labeling as lb
from . import perms, trees
from .errors import MalformedInput, PreconditionViolated, ResourceLimit
from .polynomial import Polynomial, reduced_power, root_product_coeffs

SYMBOLIC_CAP = 4
EVAL_CAP = 41  # vertices; past it, |certificate| can pass str()'s 4,300 digits


def eval_certificate(t: trees.FunctionalTree, f: Sequence[int]) -> int:
    """Exact integer value of the certificate at the lattice point f."""
    n = t.n
    if n > EVAL_CAP:
        raise ResourceLimit(f"n = {n} exceeds the evaluation cap {EVAL_CAP}")
    f = tuple(f)
    if len(f) != n or any(type(v) is not int or not (0 <= v < n) for v in f):
        raise MalformedInput(f"lattice point must be a length-{n} map into Z_{n}")

    vertex_factor = math.prod(b - a for a, b in itertools.combinations(f, 2))
    if vertex_factor == 0:
        return 0
    e = [t.sign(v) * (f[t.g[v]] - f[v]) for v in range(n)]
    edge_factor = math.prod(b - a for a, b in itertools.combinations(e, 2))
    if edge_factor == 0:
        return 0
    # the range factor: ev + i over i in 1..n-1, 0 exactly when ev < 0
    return vertex_factor * edge_factor * math.prod(math.prod(range(ev + 1, ev + n)) for ev in e)


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


def certificate_magnitude_check(phi: lb.PhiOrbits) -> MagnitudeReport:
    """|certificate| = expected_magnitude(n) on Phi, checked at each orbit's
    representative, which stands for its orbit by the orbit lemma. failures
    lists the representatives that miss."""
    t = phi.tree
    expected = expected_magnitude(t.n)
    failures = tuple(f for f in phi.reps if abs(eval_certificate(t, f)) != expected)
    return MagnitudeReport(not failures, expected, phi.size, failures)


def nonvanishing_by_sweep(phi: lb.PhiOrbits) -> tuple[int, ...] | None:
    """The first representative with a nonzero certificate, or None. It
    sweeps nothing: every representative passed verify_beta and the
    certificate is nonzero exactly on Phi, so this checks "Phi is nonempty",
    kept as a claim of its own because the certificate's value at the
    witness, which the nonzero record carries, is evaluated exactly here.
    perfbench wraps it by name, so the name stays."""
    t = phi.tree
    return next((f for f in phi.reps if eval_certificate(t, f) != 0), None)


# ---------------------------------------------------------------------------
# Lagrange bases and canonical representatives
# ---------------------------------------------------------------------------


def lagrange_basis(f: Sequence[int]) -> Polynomial:
    """The basis polynomial taking value 1 at f and 0 elsewhere on Z_n^{Z_n},
    n = len(f): the Polynomial product over i of the univariate
    prod_{j != f(i)} (x_i - j) / (f(i) - j), an exact coefficient table of
    per-variable degree n-1."""
    n = len(f)
    if n > SYMBOLIC_CAP:
        raise ResourceLimit(f"n = {n} exceeds the symbolic cap {SYMBOLIC_CAP}")
    f = tuple(f)
    if any(not (0 <= v < n) for v in f):
        raise MalformedInput(f"evaluation point must map into Z_{n}")

    basis = Polynomial.constant(n, 1)
    for i, v in enumerate(f):
        others = [j for j in range(n) if j != v]
        den = math.prod(v - j for j in others)
        factor = {
            (0,) * i + (d,) + (0,) * (n - 1 - i): Fraction(a, den)
            for d, a in enumerate(root_product_coeffs(others))
        }
        basis = basis * Polynomial(n, factor)
    return basis


def canonical_representative(phi: lb.PhiOrbits) -> Polynomial:
    """Exact coefficient table of sum over Phi of certificate(f) * basis_f.

    Agrees with eval_certificate on every lattice point; identically zero
    exactly when Phi is empty.
    """
    t = phi.tree
    if t.n > SYMBOLIC_CAP:
        raise ResourceLimit(f"n = {t.n} exceeds the symbolic cap {SYMBOLIC_CAP}")
    terms = (lagrange_basis(f).scale(eval_certificate(t, f)) for f in phi.members())
    return sum(terms, Polynomial.zero(t.n))


# ---------------------------------------------------------------------------
# Statement-level lemma checks
# ---------------------------------------------------------------------------


def transposition_witness(phi: lb.PhiOrbits, tau: Sequence[int]) -> tuple[int, ...] | None:
    """The first representative f with certificate(f.tau) != certificate(f).

    For tau in Aut_r this stands for Claim I at every lattice point: tau maps
    Phi onto Phi, so off Phi both sides vanish, and on Phi the orbit lemma
    gives certificate(rep.alpha.tau) = certificate(rep) = certificate(rep.alpha).
    Any other tau is compared at the representatives only.
    """
    t = phi.tree
    for f in phi.reps:
        f_tau = tuple(f[tau[i]] for i in range(t.n))
        if eval_certificate(t, f_tau) != eval_certificate(t, f):
            return f
    return None


@dataclass(frozen=True)
class InvarianceReport:
    ok: bool
    pairs: tuple[tuple[int, int], ...]
    witness: tuple[int, ...] | None


def check_transposition_invariance(phi: lb.PhiOrbits) -> InvarianceReport:
    """Claim I for every sibling-leaf transposition tau of t, a rooted
    automorphism: certificate(f.tau) = certificate(f) at every lattice point f,
    checked at the representatives (transposition_witness). Claim II, the
    canonical table P fixed by tau, is the same statement: P is the one
    polynomial of per-variable degree below n that agrees with the certificate
    on the lattice (Alon, Combinatorial Nullstellensatz, 1999), and P.tau keeps
    those degrees and takes certificate(f.tau) at f, so P.tau = P exactly when
    Claim I holds. No table is built."""
    t = phi.tree
    pairs = tuple(trees.sibling_leaf_pairs(t))
    if not pairs:
        raise PreconditionViolated("tree has no sibling-leaf pair")
    for a, b in pairs:
        witness = transposition_witness(phi, perms.transposition(a, b, t.n))
        if witness is not None:
            return InvarianceReport(False, pairs, witness)
    return InvarianceReport(True, pairs, None)


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
    Every tree in the chain is searched, so a tree above the search cap is
    refused before the chain, whose cost grows about as n^3, is built.
    """
    if t.n > lb.SEARCH_CAP:
        raise ResourceLimit(f"n = {t.n} exceeds the search cap {lb.SEARCH_CAP}")
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


@dataclass(frozen=True)
class MonomialSupportReport:
    ok: bool
    n: int
    bases_checked: int
    violations: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


def check_monomial_support(n: int) -> MonomialSupportReport:
    """Every monomial of every Lagrange basis misses at most one variable."""
    if n < 1:
        raise MalformedInput(f"n must be at least 1, got {n}")
    if n > SYMBOLIC_CAP:
        raise ResourceLimit(f"n = {n} exceeds the symbolic cap {SYMBOLIC_CAP}")
    violations = []
    count = 0
    for sigma in itertools.permutations(range(n)):
        count += 1
        basis = lagrange_basis(sigma)
        for e in basis.coeffs:
            if sum(1 for d in e if d == 0) > 1:
                violations.append((sigma, e))
    return MonomialSupportReport(
        ok=not violations, n=n, bases_checked=count, violations=tuple(violations)
    )


def check_variable_dependency(p: Polynomial, support: Sequence[int], t_power: int) -> bool:
    """Reduce p**t_power modulo the degree-n falling factorials, n = p.n_vars,
    one product at a time, and test its support.

    True iff the reduced table only touches variables in support.
    """
    if t_power < 1:
        raise MalformedInput("t_power must be positive")
    support_set = set(support)
    if not support_set <= set(range(p.n_vars)) or len(support_set) >= p.n_vars:
        raise MalformedInput("support must be a proper subset of the variables")
    if not p.per_variable_degree_below(p.n_vars):
        raise MalformedInput("p must have per-variable degree below n")
    if not p.variables_used() <= support_set:
        raise MalformedInput("p already depends on variables outside support")
    return reduced_power(p, t_power, p.n_vars).variables_used() <= support_set
