"""Polynomial plumbing and quotient-ring residues."""

import operator
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orbk3.cyclotomic import Cyclotomic, euler_phi, galois_sum, root_of_unity
from orbk3.hrr import BUILTIN_CLASSES, orbifold_mukai_pairing, orbifold_mukai_vector
from orbk3.inertia import preset_cyclic
from orbk3.polyring import (
    QuotientRing,
    monomial,
    poly,
    poly_fold,
    poly_inverse_mod,
    poly_mul,
)
from orbk3.toystacks import (
    GroupRingElement,
    dft_inverse,
    projective_space_euler_class,
    wps_euler_class_tangent,
    wps_relation_element,
)

polys = st.lists(
    st.fractions(min_value=-5, max_value=5, max_denominator=4), min_size=0, max_size=6
).map(poly)


def test_residue_worked_example():
    # x^5 mod (x^2 - 1)(x^3 - 1) = x^5 - x^3 - x^2 + 1
    modulus = poly_mul(poly([-1, 0, 1]), poly([-1, 0, 0, 1]))
    assert QuotientRing(modulus).residue(monomial(5)) == (-1, 0, 1, 1, 0)  # x^3 + x^2 - 1


@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_residue_is_exact_division(p, m):
    # the ring is the one divider: its residue is sympy's remainder, zero-padded to deg m
    if len(m) < 2:
        with pytest.raises(ValueError):
            QuotientRing(m)
        return
    sympy = pytest.importorskip("sympy")
    assert QuotientRing(m).residue(p) == _remainder(sympy, p, m)


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


def _remainder(sympy, p, m):
    """sympy's remainder of p by m, zero-padded to deg m coefficients: the canonical residue."""
    r = _from_sympy(_to_sympy(sympy, p).rem(_to_sympy(sympy, m)))
    return r + (0,) * (len(m) - 1 - len(r))


@settings(max_examples=200, deadline=None)
@given(st.lists(division_problems(), min_size=1, max_size=4), st.integers(1, 12))
def test_residue_is_the_padded_remainder(problems, d):
    # non-monic, fractional moduli: the ring's integer-row reduction against sympy's
    # remainder; several rows over one denominator d share a scale, the lcm of their
    # pseudo-division scales
    sympy = pytest.importorskip("sympy")
    m = problems[0][1]
    assume(len(m) > 1)
    ring = QuotientRing(m)
    expected = []
    for p, _ in problems:
        expected.append(_remainder(sympy, p, m))
        assert ring.residue(p) == expected[-1]
        assert all(type(c) is Fraction for c in ring.residue(p))
    rows = [[c.numerator * (720720 // c.denominator) for c in p] for p, _ in problems]
    expected = [tuple(c / d for c in r) for r in expected]
    residues = ring._residues(rows, 720720 * d)
    assert residues == expected
    assert all(type(c) is Fraction for r in residues for c in r)


def test_residue_paths_never_divide():
    # every residue comes from the ring's integer rows, the one division: products,
    # inverses, conjugates, embeddings, transforms and K-ring relations agree through it
    for L in (1, 2, 3, 5, 8, 12, 30):
        a = Cyclotomic(L, [Fraction(k - L, k + 1) for k in range(2 * L + 1)])
        b = root_of_unity(L) + Fraction(1, 3)
        assert (a * b) * b.inverse() == a
        assert a.conjugate().conjugate() == a and a.embed(2 * L).conjugate() == a.conjugate()
    assert dft_inverse(GroupRingElement(12, [Fraction(k, 5) for k in range(12)]))[0] == Fraction(66, 5)
    model = preset_cyclic(6)
    v = orbifold_mukai_vector(model, BUILTIN_CLASSES["TX"](model))
    assert orbifold_mukai_pairing(model, v, v) == -12
    assert wps_relation_element((2, 3, 4)).is_zero()
    assert wps_euler_class_tangent((1, 1, 1)) == projective_space_euler_class(2)
    f = GroupRingElement(5, [1, Fraction(1, 2), 0, -3, 2])
    assert (f * f * f).coeffs == (f * (f * f)).coeffs


def test_products_retain_no_memory(retained_bytes):
    # 4000 products in Q(zeta_L), 1400 Galois sums (e = -1) of two terms, each with its weight
    # in a subfield, and 1520 transforms of integer and Fraction vectors: the kernels keep
    # nothing alive between calls (no cache or accumulator grows with the number of calls)
    rng = random.Random(0)

    def element(L):
        return Cyclotomic(L, [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(euler_phi(L))])

    pairs = [(element(L), element(L)) for L in (12, 15, 20, 24, 30, 36, 40, 60) for _ in range(500)]
    assert retained_bytes(operator.mul, pairs) < 64 * 1024
    sums = [
        ([(element(L // 2 if L % 2 == 0 else 1), element(L), -1, element(L)),
          (Fraction(1, 2), element(L), -1, 3)],)
        for L in (3, 4, 5, 6, 7, 8, 12)
        for _ in range(200)
    ]
    assert retained_bytes(galois_sum, sums) < 64 * 1024
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


@settings(max_examples=150, deadline=None)
@given(polys, polys, polys, st.booleans())
def test_inverse_mod(a, m, common, share):
    sympy = pytest.importorskip("sympy")
    if share and len(common) > 1 and a:
        # a shared factor of positive degree is never invertible
        a, m = poly_mul(a, common), poly_mul(m, common)
    if len(m) < 2:
        with pytest.raises(ValueError):
            QuotientRing(m).reduce(a).inverse()
        return
    ring = QuotientRing(m)
    element = ring.reduce(a)
    if element.is_zero():
        with pytest.raises(ZeroDivisionError):
            element.inverse()
    elif _to_sympy(sympy, m).gcd(_to_sympy(sympy, a)).degree() > 0:
        with pytest.raises(ValueError):
            element.inverse()
    else:
        inv = element.inverse()
        assert element * inv == ring.one
        assert all(type(c) is Fraction for c in inv.coeffs)
        # an oracle that shares no code with the kernel
        expected = _from_sympy(sympy.invert(_to_sympy(sympy, a), _to_sympy(sympy, m)))
        assert inv.coeffs == expected + (0,) * (ring.degree - len(expected))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=1, max_size=6).filter(lambda M: M[-1]), st.data())
def test_inverse_mod_on_integer_rows(M, data):
    # the kernel's contract: S*A = c mod M for a canonical integer residue A, c a nonzero
    # integer, checked in sympy; M is left as it was, and a shared factor raises ValueError
    sympy = pytest.importorskip("sympy")
    assume(len(M) > 1)
    A = data.draw(st.lists(st.integers(-9, 9), min_size=1, max_size=len(M) - 1).filter(lambda A: A[-1]))
    modulus = list(M)

    def to_sympy(P):
        return sympy.Poly(P[::-1], sympy.Symbol("x"), domain=sympy.ZZ)

    if to_sympy(M).gcd(to_sympy(A)).degree() > 0:
        with pytest.raises(ValueError):
            poly_inverse_mod(list(A), M)
        return
    S, c = poly_inverse_mod(list(A), M)
    assert M == modulus
    assert type(c) is int and c != 0 and all(type(s) is int for s in S)
    assert len(S) < len(M)
    assert (to_sympy(S) * to_sympy(A) - c).rem(to_sympy(M)).is_zero
    with pytest.raises(ZeroDivisionError):
        poly_inverse_mod([], M)


def test_inverse_mod_worked_examples():
    def inverse(a, m):
        return QuotientRing(m).reduce(a).inverse().coeffs

    # (x + 1)(x - 1) = x^2 - 1 = 1 mod x^2 - 2
    assert inverse([1, 1], [-2, 0, 1]) == (-1, 1)
    # 1/2 x has inverse 2/x = 2x/3 mod x^2 - 3
    assert inverse([0, Fraction(1, 2)], [-3, 0, 1]) == (0, Fraction(2, 3))
    # a above the modulus degree is reduced first: x^2 + x - 3 = -1 mod x - 1
    assert inverse([-3, 1, 1], [-1, 1]) == (-1,)
    # on integer rows: (x + 1)(1 - x) = -1 mod x^2 - 2, so S = 1 - x and c = -1
    assert poly_inverse_mod([1, 1], [-2, 0, 1]) == ([1, -1], -1)
    with pytest.raises(ValueError):
        inverse([-1, 1], [-1, 0, 1])  # gcd x - 1


def test_fold_worked_examples():
    p = poly([1, 2, 3])
    # p(x^2) = 1 + 2x^2 + 3x^4 = 1 + 3x + 2x^2 mod x^3 - 1
    assert poly_fold(p, 2, 3) == poly([1, 3, 2])
    # p(x^-1) = 1 + 2x^-1 + 3x^-2 = 1 + 3x + 2x^2 mod x^3 - 1
    assert poly_fold(p, -1, 3) == poly([1, 3, 2])
    # trailing zeros are kept: the result has exactly n coefficients
    assert poly_fold(p, 1, 5) == (1, 2, 3, 0, 0)
    assert poly_fold((), 1, 2) == (0, 0)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-9, 9), max_size=8), st.integers(-7, 7), st.integers(1, 9), st.integers(-2, 2))
def test_poly_fold_keeps_ints(P, e, n, turns):
    # e + turns*n covers negative exponents and e = 0 mod n; ints in give ints out, zeros
    # included, with the values of the fold of the same vector as Fractions
    for exponent in (e + turns * n, turns * n):
        folded = poly_fold(P, exponent, n)
        assert all(type(c) is int for c in folded)
        assert folded == poly_fold([Fraction(c) for c in P], exponent, n)
    assert poly_fold(P, turns * n, n) == (sum(P),) + (0,) * (n - 1)


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


def test_ring_repr_names_the_modulus():
    assert repr(QuotientRing(poly([1, 0, 1]))) == "QuotientRing(1 + 1*x^2)"
    assert repr(GroupRingElement(4, ()).ring) == "QuotientRing(-1 + 1*x^4)"


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
