import random
from fractions import Fraction
from itertools import product
from math import prod

from conftest import permute_variables, poly_pow, reduce_by_rewriting

from treedecomp.polynomial import (
    Polynomial,
    falling_factorial_coeffs,
    reduce_falling_factorial,
    root_product_coeffs,
)


def random_poly(rng, n_vars, max_deg, terms):
    coeffs = {}
    for _ in range(terms):
        e = tuple(rng.randrange(max_deg + 1) for _ in range(n_vars))
        coeffs[e] = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
    return Polynomial(n_vars, coeffs)


class TestArithmetic:
    def test_zero_coefficients_never_stored(self):
        p = Polynomial(2, {(0, 0): 1, (1, 0): 0})
        assert (1, 0) not in p.coeffs
        q = Polynomial.variable(2, 0) - Polynomial.variable(2, 0)
        assert q.is_zero()

    def test_mul_and_eval(self):
        x0 = Polynomial.variable(2, 0)
        x1 = Polynomial.variable(2, 1)
        p = (x0 + x1) * (x0 - x1)
        for a, b in product(range(-3, 4), repeat=2):
            assert p.evaluate((a, b)) == a * a - b * b

    def test_pow(self):
        x = Polynomial.variable(1, 0)
        p = poly_pow(x + Polynomial.constant(1, 1), 3)
        assert p.coeffs == {(0,): 1, (1,): 3, (2,): 3, (3,): 1}

    def test_scale(self):
        x = Polynomial.variable(1, 0)
        assert (x.scale(Fraction(1, 2)) * 2) == x
        assert x.scale(0).is_zero()

    def test_permute_variables(self):
        x0 = Polynomial.variable(3, 0)
        x1 = Polynomial.variable(3, 1)
        p = x0 * x0 + x1
        q = permute_variables(p, (1, 0, 2))
        assert q.coeffs == {(0, 2, 0): 1, (1, 0, 0): 1}
        assert permute_variables(q, (1, 0, 2)) == p

    def test_variables_used_and_degrees(self):
        p = Polynomial(3, {(2, 0, 1): 1})
        assert p.variables_used() == {0, 2}
        assert [max(e[i] for e in p.coeffs) for i in range(3)] == [2, 0, 1]
        assert p.per_variable_degree_below(3)
        assert not p.per_variable_degree_below(2)


class TestFallingFactorial:
    def test_coefficients(self):
        # x(x-1)(x-2) = x^3 - 3x^2 + 2x
        assert falling_factorial_coeffs(3) == [0, 2, -3, 1]
        assert falling_factorial_coeffs(1) == [0, 1]

    def test_root_product(self):
        # (x - 2)(x + 1) = x^2 - x - 2; the empty product is 1
        assert root_product_coeffs([2, -1]) == [-2, -1, 1]
        assert root_product_coeffs([]) == [1]
        rng = random.Random(7)
        for _ in range(10):
            roots = [rng.randrange(-4, 5) for _ in range(rng.randrange(1, 6))]
            p = Polynomial(1, {(d,): a for d, a in enumerate(root_product_coeffs(roots))})
            assert all(p.evaluate((r,)) == 0 for r in roots)
            assert p.evaluate((5,)) == prod(5 - r for r in roots)

    def test_reduction_is_lattice_preserving(self):
        rng = random.Random(12345)
        n = 3
        for _ in range(25):
            p = random_poly(rng, 2, 6, 4)
            red = reduce_falling_factorial(p, n)
            assert red.per_variable_degree_below(n)
            for point in product(range(n), repeat=2):
                assert red.evaluate(point) == p.evaluate(point)

    def test_reduction_additivity(self):
        # canonical representative of a sum is the sum of representatives
        rng = random.Random(999)
        n = 3
        for _ in range(25):
            p1 = random_poly(rng, 2, 5, 3)
            p2 = random_poly(rng, 2, 5, 3)
            assert reduce_falling_factorial(p1 + p2, n) == reduce_falling_factorial(
                p1, n
            ) + reduce_falling_factorial(p2, n)

    def test_low_degree_fixed_point(self):
        rng = random.Random(7)
        p = random_poly(rng, 2, 2, 4)
        assert reduce_falling_factorial(p, 3) == p

    def test_agrees_with_rewriting_oracle(self):
        rng = random.Random(2024)
        for _ in range(200):
            n = rng.randrange(1, 6)
            p = random_poly(rng, rng.randrange(1, 5), n + 4, rng.randrange(1, 5))
            assert reduce_falling_factorial(p, n) == reduce_by_rewriting(p, n)

    def test_n_zero_gives_zero(self):
        # the falling factorial of degree 0 is 1, which generates every polynomial
        p = random_poly(random.Random(3), 2, 3, 4)
        assert reduce_falling_factorial(p, 0) == Polynomial.zero(2) == reduce_by_rewriting(p, 0)
