"""DFT/Parseval on B(mu_n), weighted projective K-theory, and counting."""

import operator
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbk3.cyclotomic import Cyclotomic, root_of_unity
from orbk3.groups import abelian_character_table, cyclic_group, trivial_character
from orbk3.polyring import QuotientRing, QuotientRingElement, monomial
from orbk3.toystacks import (
    ChowP23Element,
    GroupRingElement,
    ToyStackError,
    bg_euler_pairing,
    bg_moduli_count,
    coefficient_pairing,
    dft_inverse,
    orbch_p23,
    parseval_check,
    projective_space_euler_class,
    weighted_inner_product,
    wps_euler_class_tangent,
    wps_relation_element,
    wps_ring,
)


def test_dft_worked_example():
    x = GroupRingElement.monomial(4, 1)
    assert dft_inverse(x) == (
        Cyclotomic.one(),
        root_of_unity(4),
        Cyclotomic.from_rational(-1),
        -root_of_unity(4),
    )


def test_dft_of_constant():
    one = GroupRingElement.monomial(3, 0)
    assert all(v == 1 for v in dft_inverse(one))


def test_dft_is_additive_and_multiplicative():
    n = 6
    rng = random.Random(7)
    for _ in range(10):
        f = GroupRingElement(n, tuple(rng.randint(-5, 5) for _ in range(n)))
        g = GroupRingElement(n, tuple(rng.randint(-5, 5) for _ in range(n)))
        fs, gs = dft_inverse(f), dft_inverse(g)
        assert dft_inverse(f + g) == tuple(a + b for a, b in zip(fs, gs))
        # convolution goes to pointwise product
        assert dft_inverse(f * g) == tuple(a * b for a, b in zip(fs, gs))


def test_transforms_of_monomials_are_orthonormal():
    n = 6
    basis = [dft_inverse(GroupRingElement.monomial(n, k)) for k in range(n)]
    for i, u in enumerate(basis):
        for j, v in enumerate(basis):
            assert weighted_inner_product(u, v, n) == (1 if i == j else 0)


def test_parseval_worked():
    f = GroupRingElement(3, (1, 2, 0))
    g = GroupRingElement(3, (0, 1, -1))
    assert coefficient_pairing(f, g) == 2
    assert parseval_check(f, g)


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 12), st.data())
def test_parseval_property(n, data):
    ints = st.integers(-9, 9)
    f = GroupRingElement(n, tuple(data.draw(ints) for _ in range(n)))
    g = GroupRingElement(n, tuple(data.draw(ints) for _ in range(n)))
    assert parseval_check(f, g)


def _defining_sum(f):
    """sum_j f_j zeta_n^{jk} for each k, one root-of-unity term at a time.

    Each zeta_n^{jk} is x^{jk mod n} reduced by the generic residue, so the reference
    shares no code with the integer rows of the transform or of the cached powers.
    """
    n = f.n
    out = []
    for k in range(n):
        acc = Cyclotomic.zero(n)
        for j, c in enumerate(f.coeffs):
            acc = acc + Cyclotomic(n, monomial(j * k % n)) * c
        out.append(acc)
    return tuple(out)


def _coefficient_vectors(n):
    """n integer coefficients, or n Fraction coefficients."""
    ints = st.integers(-9, 9)
    fractions = st.fractions(min_value=-9, max_value=9, max_denominator=3)
    return st.lists(ints, min_size=n, max_size=n) | st.lists(fractions, min_size=n, max_size=n)


# n = len(coeffs); 18, 20, 24 and 30 have two or three primes, so Phi_n takes several divisions
@settings(max_examples=80, deadline=None)
@given(st.sampled_from([*range(1, 17), 18, 20, 24, 30]).flatmap(_coefficient_vectors))
@example(list(range(-9, 9)))
@example([Fraction(k, 3) for k in range(-10, 10)])
@example([k % 5 - 2 for k in range(24)])
@example([Fraction(k % 7 - 3, k % 3 + 1) for k in range(30)])
def test_dft_matches_defining_sum(coeffs):
    n = len(coeffs)
    for g in (GroupRingElement(n, coeffs), GroupRingElement(n, ())):
        got, want = dft_inverse(g), _defining_sum(g)
        assert got == want
        assert [(v.L, v.coeffs) for v in got] == [(v.L, v.coeffs) for v in want]
        assert all(type(c) is Fraction for v in got for c in v.coeffs)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 12), st.data())
def test_parseval_property_fractions(n, data):
    coeff = st.fractions(min_value=-9, max_value=9, max_denominator=3)
    f = GroupRingElement(n, tuple(data.draw(coeff) for _ in range(n)))
    g = GroupRingElement(n, tuple(data.draw(coeff) for _ in range(n)))
    assert parseval_check(f, g)


@pytest.mark.parametrize("a, b, n", [((), (), None), ((1,), (1,), 0), ((1, 2), (3, 4), -2)])
def test_weighted_inner_product_rejects_nonpositive_n(a, b, n):
    with pytest.raises(ToyStackError, match="n must be positive"):
        weighted_inner_product(a, b, n)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 10), st.data())
def test_group_ring_product_is_cyclic_convolution(n, data):
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=3)
    f = GroupRingElement(n, tuple(data.draw(coeff) for _ in range(n)))
    g = GroupRingElement(n, tuple(data.draw(coeff) for _ in range(n)))
    naive = [Fraction(0)] * n
    for i in range(n):
        for j in range(n):
            naive[(i + j) % n] += f.coeffs[i] * g.coeffs[j]
    assert (f * g).coeffs == tuple(naive)


def test_group_ring_validation():
    with pytest.raises(ToyStackError):
        GroupRingElement(2, (1, 2, 3))
    with pytest.raises(ToyStackError):
        GroupRingElement(2, (1, 0)) + GroupRingElement(3, (1, 0, 0))


def test_group_rings_of_two_ranks_compare_unequal():
    # arithmetic between them raises, but == answers: they lie in different rings
    assert GroupRingElement(2, (1,)) != GroupRingElement(3, (1,))
    assert GroupRingElement(2, (1,)) == GroupRingElement(2, (1, 0))


# -- weighted projective stacks ---------------------------------------------


@pytest.mark.parametrize("weights", [(2, 3), (1, 1, 2), (2, 2), (1, 2, 3), (3, 4)])
def test_wps_relation_vanishes(weights):
    assert wps_relation_element(weights).is_zero()


def test_wps_euler_class_p1():
    ring = wps_ring((1, 1))
    euler = wps_euler_class_tangent((1, 1))
    assert euler == (ring.one - ring.x().inverse()) * 2


@pytest.mark.parametrize("n", range(1, 7))
def test_projective_space_closed_form(n):
    assert wps_euler_class_tangent((1,) * (n + 1)) == projective_space_euler_class(n)


@pytest.mark.parametrize("weights", [(2, 3), (1, 1, 2), (1, 2, 3, 4), (3, 5), (2, 2, 2, 2)])
def test_wps_classes_match_their_defining_products(weights):
    """Both classes equal their definitions with x^{-a} taken as a fresh power each time."""
    ring = wps_ring(weights)

    def factors(skip=None):
        return [ring.one - ring.x() ** -a for j, a in enumerate(weights) if j != skip]

    euler = ring.zero
    for i in range(len(weights)):
        term = ring.one
        for f in factors(skip=i):
            term = term * f
        euler = euler + term
    relation = ring.one
    for f in factors():
        relation = relation * f
    assert wps_euler_class_tangent(weights).coeffs == euler.coeffs
    assert wps_relation_element(weights).coeffs == relation.coeffs


def test_wps_euler_p23_nonzero():
    euler = wps_euler_class_tangent((2, 3))
    assert not euler.is_zero()
    # evaluating x -> 1 recovers the sum over cyclic strata of the ranks:
    # each term prod_{j != i}(1 - x^{-a_j}) vanishes at x = 1, and the value of the
    # residue at x = 1 is the sum of its coefficients
    assert sum(euler.coeffs) == 0


def test_wps_rejects_bad_weights():
    with pytest.raises(ToyStackError):
        wps_ring((2,))
    with pytest.raises(ToyStackError):
        wps_ring((0, 1))


@pytest.mark.parametrize("weights", [(1.5, 2), (True, 2), ("2", 3)], ids=["float", "bool", "str"])
@pytest.mark.parametrize("build", [wps_ring, wps_euler_class_tangent, wps_relation_element])
def test_wps_weights_must_be_integers(build, weights):
    # a weight is an integer slot like any other (`polyring.integers`)
    with pytest.raises(TypeError):
        build(weights)


# -- P(2,3) twisted characters -----------------------------------------------


def test_orbch_p23_is_multiplicative():
    for a in range(-6, 7):
        for b in range(-6, 7):
            assert orbch_p23(a) * orbch_p23(b) == orbch_p23(a + b)


def test_orbch_p23_unit_and_inverse():
    unit = orbch_p23(0)
    assert unit.untwisted == (Cyclotomic.one(), Cyclotomic.zero())
    assert all(v == 1 for v in unit.twisted)
    assert orbch_p23(1) * orbch_p23(-1) == unit


def test_orbch_p23_values():
    ch = orbch_p23(1)
    assert ch.untwisted[1] == 1  # (1 + h)^1
    assert ch.twisted[0] == -1
    assert ch.twisted[1] == root_of_unity(6)
    assert ch.twisted[2] == root_of_unity(6, 5)
    assert ch.twisted[1] * ch.twisted[2] == 1  # conjugate pair


def test_orbch_p23_periods():
    # component periods: h-part has infinite order, the twists have 2, 6, 6
    assert orbch_p23(6).twisted == orbch_p23(0).twisted
    assert orbch_p23(6).untwisted[1] == 6


# -- B(mu_n) counting ---------------------------------------------------------


def test_bg_moduli_count_worked():
    assert bg_moduli_count(2, 3) == 4
    assert bg_moduli_count(1, 5) == 1
    assert bg_moduli_count(3, 0) == 1


def test_bg_moduli_count_pascal():
    for n in range(1, 7):
        for d in range(0, 7):
            assert bg_moduli_count(n, d) == comb(n + d - 1, n - 1)
            if n > 1 and d > 0:
                assert bg_moduli_count(n, d) == bg_moduli_count(n - 1, d) + bg_moduli_count(
                    n, d - 1
                )


def test_bg_moduli_count_rejects():
    with pytest.raises(ToyStackError):
        bg_moduli_count(0, 1)
    with pytest.raises(ToyStackError):
        bg_moduli_count(2, -1)


def test_bg_euler_pairing_is_hom_dimension():
    g = cyclic_group(5)
    table = abelian_character_table(g)
    for i, chi in enumerate(table):
        for j, psi in enumerate(table):
            assert bg_euler_pairing(chi, psi) == (1 if i == j else 0)
    total = trivial_character(g)
    for chi in table:
        if chi != trivial_character(g):
            total = total + chi
    # regular representation pairs to 1 with every irreducible
    assert all(bg_euler_pairing(chi, total) == 1 for chi in table)


def test_residue_types_share_one_implementation():
    assert issubclass(Cyclotomic, QuotientRingElement)
    assert issubclass(GroupRingElement, QuotientRingElement)


def test_constant_group_ring_element_hashes_like_its_constant():
    a = GroupRingElement(3, (2,))
    assert a == 2 and hash(a) == hash(2)
    assert len({a, 2, Fraction(2)}) == 1


def test_cross_type_arithmetic_raises_type_error():
    elements = [
        GroupRingElement(2, (1, 0)),
        Cyclotomic.one(),
        root_of_unity(4),
        QuotientRing([-1, 0, 1]).one,
    ]
    for a in elements:
        for b in elements:
            if type(a) is type(b):
                continue
            assert a != b
            for op in (operator.add, operator.sub, operator.mul, operator.truediv):
                with pytest.raises(TypeError):
                    op(a, b)
