"""Polynomial plumbing and quotient-ring residues."""

import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbk3.cyclotomic import Cyclotomic, euler_phi, sesquilinear_sum
from orbk3.polyring import (
    QuotientRing,
    monomial,
    poly,
    poly_divmod,
    poly_fold,
    poly_inverse_mod,
    poly_mul,
)
from orbk3.toystacks import GroupRingElement, dft_inverse

polys = st.lists(
    st.fractions(min_value=-5, max_value=5, max_denominator=4), min_size=0, max_size=6
).map(poly)


def test_divmod_worked_example():
    # x^5 mod (x^2 - 1)(x^3 - 1) = x^5 - x^3 - x^2 + 1
    modulus = poly_mul(poly([-1, 0, 1]), poly([-1, 0, 0, 1]))
    q, r = poly_divmod(monomial(5), modulus)
    assert q == poly([1])
    assert r == poly([-1, 0, 1, 1])  # x^3 + x^2 - 1


@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_divmod_is_exact_division(p, m):
    if not m:
        with pytest.raises(ZeroDivisionError):
            poly_divmod(p, m)
        return
    sympy = pytest.importorskip("sympy")
    q, r = poly_divmod(p, m)
    assert _to_sympy(sympy, q) * _to_sympy(sympy, m) + _to_sympy(sympy, r) == _to_sympy(sympy, p)
    assert len(r) < len(m)


coefficients = st.fractions(min_value=-7, max_value=7, max_denominator=6)


@st.composite
def division_problems(draw):
    # any nonzero lead: non-monic, negative and fractional moduli; deg p - deg m from
    # -deg m - 1 (p shorter than m, p = 0 included) up to 12
    lower = draw(st.lists(coefficients, max_size=6))
    m = poly(lower + [draw(coefficients.filter(bool))])
    size = draw(st.integers(0, len(m) + 12))
    return poly(draw(st.lists(coefficients, min_size=size, max_size=size))), m


def _to_sympy(sympy, a):
    return sympy.Poly(list(reversed(a)) or [0], sympy.Symbol("x"), domain=sympy.QQ)


def _from_sympy(a):
    return poly(Fraction(int(c.p), int(c.q)) for c in reversed(a.all_coeffs()))


@settings(max_examples=200, deadline=None)
@given(division_problems())
def test_divmod_matches_sympy(problem):
    sympy = pytest.importorskip("sympy")
    p, m = problem
    q, r = _to_sympy(sympy, p).div(_to_sympy(sympy, m))
    assert poly_divmod(p, m) == (_from_sympy(q), _from_sympy(r))


def test_products_retain_no_memory(retained_bytes):
    # 4000 products in Q(zeta_L), 1400 sesquilinear sums of two terms, each with its weight
    # in a subfield, and 1520 transforms of integer and Fraction vectors: the kernels build
    # their int and Fraction vectors from lists, so nothing is stranded in CPython's free
    # lists between calls
    rng = random.Random(0)

    def element(L):
        return Cyclotomic(L, [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(euler_phi(L))])

    pairs = [(element(L), element(L)) for L in (12, 15, 20, 24, 30, 36, 40, 60) for _ in range(500)]
    assert retained_bytes(operator.mul, pairs) < 64 * 1024
    sums = [
        ([(element(L // 2 if L % 2 == 0 else 1), element(L), element(L)), (Fraction(1, 2), element(L), 3)],)
        for L in (3, 4, 5, 6, 7, 8, 12)
        for _ in range(200)
    ]
    assert retained_bytes(sesquilinear_sum, sums) < 64 * 1024
    orders = [*range(2, 17), 18, 20, 24, 30]
    for n in orders:  # Phi_n and Q(zeta_n) are cached on first use, before the measurement
        dft_inverse(GroupRingElement(n, ()))
    vectors = [
        (GroupRingElement(n, [Fraction(rng.randint(-9, 9), rng.randint(1, den)) for _ in range(n)]),)
        for n in orders
        for den in (1, 4)
        for _ in range(40)
    ]
    assert retained_bytes(dft_inverse, vectors) < 64 * 1024


def _gcd_over_q(a, b):
    # reference: plain Euclid with Fraction long division
    while b:
        a, b = b, poly_divmod(a, b)[1]
    return a


@settings(max_examples=150, deadline=None)
@given(polys, polys, polys, st.booleans())
def test_inverse_mod(a, m, common, share):
    sympy = pytest.importorskip("sympy")
    if share and len(common) > 1 and a:
        # a shared factor of positive degree is never invertible
        a, m = poly_mul(a, common), poly_mul(m, common)
    if len(m) < 2:
        with pytest.raises(ValueError):
            poly_inverse_mod(a, m)
    elif not poly_divmod(a, m)[1]:
        with pytest.raises(ZeroDivisionError):
            poly_inverse_mod(a, m)
    elif len(_gcd_over_q(m, a)) > 1:
        with pytest.raises(ValueError):
            poly_inverse_mod(a, m)
    else:
        inv = poly_inverse_mod(a, m)
        assert len(inv) < len(m)
        assert poly_divmod(poly_mul(a, inv), m)[1] == poly((1,))
        # an oracle that shares no code with the kernel
        assert inv == _from_sympy(sympy.invert(_to_sympy(sympy, a), _to_sympy(sympy, m)))


def test_inverse_mod_worked_examples():
    # (x + 1)(x - 1) = x^2 - 1 = 1 mod x^2 - 2
    assert poly_inverse_mod(poly([1, 1]), poly([-2, 0, 1])) == poly([-1, 1])
    # 1/2 x has inverse 2/x = 2x/3 mod x^2 - 3; a above the modulus degree is reduced first
    assert poly_inverse_mod(poly([0, Fraction(1, 2)]), poly([-3, 0, 1])) == poly([0, Fraction(2, 3)])
    assert poly_inverse_mod(poly([-3, 1, 1]), poly([-1, 1])) == poly([-1])
    with pytest.raises(ValueError):
        poly_inverse_mod(poly([-1, 1]), poly([-1, 0, 1]))  # gcd x - 1


def test_fold_worked_examples():
    p = poly([1, 2, 3])
    # p(x^2) = 1 + 2x^2 + 3x^4 = 1 + 3x + 2x^2 mod x^3 - 1
    assert poly_fold(p, 2, 3) == poly([1, 3, 2])
    # p(x^-1) = 1 + 2x^-1 + 3x^-2 = 1 + 3x + 2x^2 mod x^3 - 1
    assert poly_fold(p, -1, 3) == poly([1, 3, 2])
    # trailing zeros are kept: the result has exactly n coefficients
    assert poly_fold(p, 1, 5) == (1, 2, 3, 0, 0)
    assert poly_fold((), 1, 2) == (0, 0)


@settings(max_examples=60, deadline=None)
@given(polys, st.integers(-7, 7), st.integers(1, 9))
def test_fold_is_substitution_then_reduction(p, e, n):
    # oracle: substitute x^(e mod n) in sympy, then reduce mod x^n - 1 there
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    substituted = _to_sympy(sympy, p).compose(sympy.Poly(x ** (e % n), x, domain=sympy.QQ))
    reduced = substituted.rem(sympy.Poly(x ** n - 1, x, domain=sympy.QQ))
    assert poly(poly_fold(p, e, n)) == _from_sympy(reduced)


def test_quotient_reduce_idempotent():
    ring = QuotientRing(poly([-1, 0, 0, 1]))  # x^3 - 1
    el = ring.reduce(monomial(7))
    assert el == ring.reduce(el.coeffs)
    assert el == ring.x()


def test_x_inverse_cyclic():
    ring = QuotientRing(poly([-1, 0, 0, 1]))  # x^3 - 1
    assert ring.x().inverse() == ring.reduce(monomial(2))
    assert ring.x() * ring.x().inverse() == ring.one
    assert ring.x() ** -4 == ring.x() ** 2


def test_x_inverse_requires_unit_constant_term():
    ring = QuotientRing(poly([0, 0, 1]))  # x^2
    with pytest.raises(ValueError):
        ring.x().inverse()


def test_element_arithmetic():
    ring = QuotientRing(poly([1, 0, 1]))  # x^2 + 1, so x = i
    i = ring.x()
    assert i * i == -1
    assert (1 + i) * (1 - i) == 2
    assert (i ** 4) == ring.one
    assert (1 + i).coeffs == (1, 1)  # 1 + x, which is 3 at x = 2


def test_residue_is_padded_to_the_modulus_degree():
    ring = QuotientRing(poly([-1, 0, 0, 1]))  # x^3 - 1
    assert ring.reduce([3]).coeffs == (3, 0, 0)
    assert ring.reduce(monomial(4)).coeffs == (0, 1, 0)
    assert ring.zero.coeffs == (0, 0, 0)


def test_division_inverse_and_negative_powers():
    ring = QuotientRing(poly([1, 0, 1]))  # x^2 + 1, so x = i
    i = ring.x()
    assert (1 + i).inverse() == (1 - i) / 2
    assert (1 + i) / (1 - i) == i
    assert 1 / i == -i
    assert i ** -1 == -i and i ** -3 == i
    assert ring.x() ** -5 == ring.x().inverse()
    # a unit of a ring that is not a field: (2 + x)(2 - x) = 3 mod x^2 - 1
    split = QuotientRing(poly([-1, 0, 1]))
    u = split.reduce([2, 1])
    assert u.inverse() == split.reduce([Fraction(2, 3), Fraction(-1, 3)])
    assert u * u ** -2 == u.inverse()


def test_inverse_of_zero_and_of_a_zero_divisor():
    ring = QuotientRing(poly([-1, 0, 1]))  # x^2 - 1 = (x - 1)(x + 1)
    with pytest.raises(ZeroDivisionError):
        ring.zero.inverse()
    with pytest.raises(ZeroDivisionError):
        ring.one / ring.zero
    with pytest.raises(ValueError):
        ring.reduce([1, 1]).inverse()
    with pytest.raises(ValueError):
        ring.one / ring.reduce([1, 1])


def test_constant_residue_hashes_like_its_constant():
    a = QuotientRing(poly([1, 0, 1])).reduce([3])
    assert a == 3 and hash(a) == hash(3)
    assert len({a, 3}) == 1
    half = QuotientRing(poly([1, 0, 1])).reduce([Fraction(1, 2)])
    assert len({half, Fraction(1, 2)}) == 1


def test_elements_of_different_rings():
    i = QuotientRing(poly([1, 0, 1])).x()
    j = QuotientRing(poly([-1, 0, 1])).x()
    assert i != j
    with pytest.raises(ValueError):
        i + j
    # equal moduli make one ring, whichever instance built it
    assert i == QuotientRing(poly([1, 0, 1])).x()
    assert i * QuotientRing(poly([1, 0, 1])).x() == -1
