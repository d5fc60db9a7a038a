"""Exact multivariate polynomial arithmetic over the rationals.

Coefficients are stored sparsely in a dict keyed by exponent tuples (one
integer per variable); zero coefficients are never stored. All arithmetic
is Fraction-exact -- no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

Exponent = tuple[int, ...]


class Polynomial:
    """A polynomial in n_vars variables with exact rational coefficients."""

    __slots__ = ("n_vars", "coeffs")

    def __init__(
        self,
        n_vars: int,
        coeffs: Mapping[Exponent, Fraction | int] | None = None,
    ):
        self.n_vars = n_vars
        self.coeffs: dict[Exponent, Fraction] = {}
        if coeffs:
            for e, c in coeffs.items():
                c = Fraction(c)
                if c:
                    self.coeffs[tuple(e)] = c

    @classmethod
    def zero(cls, n_vars: int) -> "Polynomial":
        return cls(n_vars)

    @classmethod
    def constant(cls, n_vars: int, c: Fraction | int) -> "Polynomial":
        return cls(n_vars, {(0,) * n_vars: Fraction(c)})

    @classmethod
    def variable(cls, n_vars: int, i: int) -> "Polynomial":
        e = [0] * n_vars
        e[i] = 1
        return cls(n_vars, {tuple(e): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.n_vars == other.n_vars and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.n_vars, frozenset(self.coeffs.items())))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Polynomial(self.n_vars, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.n_vars, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def scale(self, c: Fraction | int) -> "Polynomial":
        c = Fraction(c)
        if not c:
            return Polynomial.zero(self.n_vars)
        return Polynomial(self.n_vars, {e: c * v for e, v in self.coeffs.items()})

    def __mul__(self, other: "Polynomial | Fraction | int") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return self.scale(other)
        out: dict[Exponent, Fraction] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, Fraction(0)) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return Polynomial(self.n_vars, out)

    __rmul__ = __mul__

    def evaluate(self, point: Sequence[int]) -> Fraction:
        total = Fraction(0)
        for e, c in self.coeffs.items():
            term = c
            for i, d in enumerate(e):
                if d:
                    term *= Fraction(point[i]) ** d
            total += term
        return total

    def variables_used(self) -> set[int]:
        return {i for e in self.coeffs for i, d in enumerate(e) if d}

    def per_variable_degree_below(self, n: int) -> bool:
        return all(d < n for e in self.coeffs for d in e)

    def __repr__(self) -> str:
        return f"Polynomial(n_vars={self.n_vars}, terms={len(self.coeffs)})"


def root_product_coeffs(roots: Iterable[int]) -> list[int]:
    """Coefficients (by power) of the product of (x - r) over roots; leading 1."""
    c = [1]
    for r in roots:
        c = [lo - r * hi for lo, hi in zip([0] + c, c + [0])]
    return c


def falling_factorial_coeffs(n: int) -> list[int]:
    """Coefficients (by power) of x(x-1)...(x-(n-1)); degree n, leading 1."""
    return root_product_coeffs(range(n))


def reduce_falling_factorial(p: Polynomial, n: int) -> Polynomial:
    """Canonical representative of p modulo the ideal {x_i^(falling n)}.

    red[d] holds x^d reduced below degree n, as coefficients by power: it is
    x * red[d-1] with that product's x^n term replaced by x^n - x^(falling n),
    which has degree n-1. A monomial reduces to the product of its variables'
    red[e_i], so every loop is bounded by the degrees of p.
    """
    ff = falling_factorial_coeffs(n)
    red = [[int(k == 0) for k in range(n)]]
    for _ in range(max((d for e in p.coeffs for d in e), default=0)):
        up = [0] + red[-1]
        red.append([up[k] - up[n] * ff[k] for k in range(n)])
    out: dict[Exponent, Fraction] = {}
    for e, c in p.coeffs.items():
        terms: dict[Exponent, Fraction] = {(): c}
        for d in e:
            terms = {
                t + (k,): a * r for t, a in terms.items() for k, r in enumerate(red[d]) if r
            }
        for t, a in terms.items():
            out[t] = out.get(t, Fraction(0)) + a
    return Polynomial(p.n_vars, out)


def reduced_power(p: Polynomial, k: int, n: int) -> Polynomial:
    """p**k modulo {x_i^(falling n)}, reduced after each of the k products.

    The reduced representative is unique, so this equals
    reduce_falling_factorial(p**k, n) without ever holding p**k in full.
    """
    out = reduce_falling_factorial(p, n)
    for _ in range(k - 1):
        out = reduce_falling_factorial(out * p, n)
    return out
