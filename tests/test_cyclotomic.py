"""Cyclotomic field arithmetic: worked values and exact field laws."""

import operator
import random
import time
from fractions import Fraction
from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbk3 import cyclotomic, polyring
from orbk3.cyclotomic import (
    MAX_PARSED_FIELD_ORDER,
    AmbientFieldError,
    Cyclotomic,
    ExactnessError,
    cyclotomic_polynomial,
    euler_phi,
    format_cyclotomic,
    galois_sum,
    inverse_one_minus_re,
    parse_cyclotomic,
    root_of_unity,
    sum_inverse_one_minus_cos,
)
from orbk3.polyring import poly, poly_fold
from orbk3.toystacks import weighted_inner_product


def test_phi8_by_explicit_division():
    # independent derivation: x^8 - 1 divided by Phi_1 * Phi_2 * Phi_4, in sympy
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    quotient, rem = sympy.div(x**8 - 1, (x - 1) * (x + 1) * (x**2 + 1), x)
    assert rem == 0
    assert quotient == x**4 + 1
    coeffs = sympy.Poly(quotient, x).all_coeffs()[::-1]
    assert cyclotomic_polynomial(8) == tuple(Fraction(int(c)) for c in coeffs)


def test_root_of_unity_basics():
    assert root_of_unity(2, 1) == -1
    assert root_of_unity(4, 2) == -1
    z8 = root_of_unity(8, 1)
    assert z8.coeffs == (0, 1, 0, 0)  # the class of x mod x^4 + 1


def test_root_of_unity_reaches_larger_fields_by_embed():
    assert root_of_unity(12, 4) == root_of_unity(3).embed(12)


def test_inversion_worked_examples():
    one = Cyclotomic.one(4)
    z4 = root_of_unity(4)
    assert (one - z4.real_part()).inverse() == 1  # Re(z4) = 0

    z8 = root_of_unity(8)
    inv = (1 - z8.real_part()).inverse()
    # expected 2 + z8 + z8^{-1}; verified by brute-force product below
    expected = 2 + z8 + z8 ** (-1)
    assert inv == expected
    assert (1 - z8.real_part()) * expected == 1


def test_conjugate_unit_modulus():
    z3 = root_of_unity(3)
    assert z3.conjugate() * z3 == 1


def test_real_parts():
    assert root_of_unity(2).real_part() == -1
    assert root_of_unity(6).real_part() == Fraction(1, 2)
    assert Cyclotomic.one().real_part() == 1


def test_as_rational():
    assert Cyclotomic.from_rational(Fraction(3, 2)).as_rational() == Fraction(3, 2)
    z3 = root_of_unity(3)
    assert (z3 + z3 * z3).as_rational() == -1
    with pytest.raises(ExactnessError) as info:
        root_of_unity(5).as_rational()
    assert info.value.value == root_of_unity(5)
    assert str(info.value) == "not a rational element: c[5]: 1*z"
    # raised with a message alone, the message is kept as given
    assert str(ExactnessError("not a rational element")) == "not a rational element"


@pytest.mark.parametrize("n,expected", [(2, Fraction(1, 2)), (3, Fraction(4, 3)), (7, 8)])
def test_trig_identity_worked(n, expected):
    assert sum_inverse_one_minus_cos(n) == expected


def test_trig_identity_full_range():
    for n in range(2, 51):
        assert sum_inverse_one_minus_cos(n) == Fraction(n * n - 1, 6)


def test_trace_of_the_weight_core_is_jordans_totient():
    # Tr 1/(1 - Re zeta_m) = J_2(m) / 6, J_2(m) = m^2 prod_{p | m} (1 - p^-2), here in integers only
    for m in range(2, 121):
        j2, rest, p = m * m, m, 2
        while rest > 1:
            if rest % p == 0:
                j2 = j2 // (p * p) * (p * p - 1)
                while rest % p == 0:
                    rest //= p
            p += 1
        assert inverse_one_minus_re(root_of_unity(m)).trace() == Fraction(j2, 6), m


def test_fourier_dedekind_sum_in_closed_form():
    # sum_{k=1}^{m-1} zeta_m^(jk) / |1 - zeta_m^k|^2 = (m^2 - 1)/12 - j(m - j)/2 for 0 <= j < m
    # (Beck-Robins, ch. 8), exactly in Q(zeta_m); |1 - z|^2 = (1 - z) * conj(1 - z)
    for m in range(2, 21):
        zetas = [root_of_unity(m, k) for k in range(1, m)]
        weights = [((1 - z) * (1 - z).conjugate()).inverse() for z in zetas]
        for j in range(m):
            total = Cyclotomic.zero(m)
            for k, w in enumerate(weights, 1):
                total = total + root_of_unity(m, j * k) * w
            assert total.as_rational() == Fraction(m * m - 1, 12) - Fraction(j * (m - j), 2), (m, j)


def test_trig_sum_matches_the_sum_term_by_term():
    # the definition: one 1/(1 - Re zeta_n^k) per k, summed in Q(zeta_n)
    for n in range(2, 51):
        total = Cyclotomic.zero(n)
        for k in range(1, n):
            total = total + inverse_one_minus_re(root_of_unity(n, k))
        assert total.as_rational() == sum_inverse_one_minus_cos(n)


def test_trig_sum_inverts_once_per_divisor(inverse_calls):
    # one inverse in Q(zeta_m) per divisor m > 1, not n - 1 inverses in Q(zeta_n)
    for n in range(2, 51):
        inverse_calls.clear()
        sum_inverse_one_minus_cos(n)
        divisors = [m for m in range(2, n + 1) if n % m == 0]
        assert sorted(inverse_calls) == sorted(euler_phi(m) for m in divisors), n


FIELD_ORDERS = [1, 3, 4, 8, 12, 24]


def cyclo_elements(L):
    deg = euler_phi(L)
    coeff = st.fractions(
        min_value=-4, max_value=4, max_denominator=6
    )
    return st.lists(coeff, min_size=deg, max_size=deg).map(lambda cs: Cyclotomic(L, cs))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_field_laws(data):
    L = data.draw(st.sampled_from(FIELD_ORDERS))
    a = data.draw(cyclo_elements(L))
    b = data.draw(cyclo_elements(L))
    c = data.draw(cyclo_elements(L))
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    if not a.is_zero():
        assert a * a.inverse() == 1


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_conjugation_is_ring_involution(data):
    L = data.draw(st.sampled_from(FIELD_ORDERS))
    a = data.draw(cyclo_elements(L))
    b = data.draw(cyclo_elements(L))
    assert a.conjugate().conjugate() == a
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_trace_is_the_sum_of_the_galois_conjugates(data):
    L = data.draw(st.sampled_from(FIELD_ORDERS))
    a = data.draw(cyclo_elements(L))
    # sigma_j(a) = a(zeta^j) for j coprime to L
    conjugates = [Cyclotomic(L, poly_fold(a.coeffs, j, L)) for j in range(1, L + 1) if gcd(j, L) == 1]
    trace = a.trace()
    assert isinstance(trace, Fraction)
    assert trace == sum(conjugates, Cyclotomic.zero(L)).as_rational()
    big = data.draw(st.sampled_from([M for M in FIELD_ORDERS if M % L == 0]))
    assert a.embed(big).trace() == Fraction(euler_phi(big), euler_phi(L)) * trace


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_rational_embedding_round_trip(data):
    q = data.draw(st.fractions(min_value=-20, max_value=20, max_denominator=12))
    L = data.draw(st.sampled_from(FIELD_ORDERS))
    assert Cyclotomic.from_rational(q).embed(L).as_rational() == q


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_print_parse_round_trip(data):
    L = data.draw(st.sampled_from(FIELD_ORDERS))
    a = data.draw(cyclo_elements(L))
    assert parse_cyclotomic(format_cyclotomic(a)) == a


def test_parse_rejects_nonpositive_field_order():
    with pytest.raises(ValueError, match="field order must be positive"):
        parse_cyclotomic("c[0]: 1")


def test_parse_rejects_large_field_order_at_once():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exceeds"):
        parse_cyclotomic(f"c[{MAX_PARSED_FIELD_ORDER + 1}]: 1")
    with pytest.raises(ValueError, match="exceeds"):
        parse_cyclotomic("c[100000]: 1")
    assert time.perf_counter() - start < 1.0


def test_parse_accepts_the_largest_field_order():
    a = parse_cyclotomic(f"c[{MAX_PARSED_FIELD_ORDER}]: 1*z")
    assert (a.L, a.coeffs[:2]) == (MAX_PARSED_FIELD_ORDER, (0, 1))


def test_parse_bare_rationals_use_the_coefficient_grammar():
    assert parse_cyclotomic(" -3/2 ") == Fraction(-3, 2)
    assert parse_cyclotomic("9" * 1000 + "/7") == Fraction(int("9" * 1000), 7)
    start = time.perf_counter()
    for text in ("1e10000000", "1.5", "+2", "1_000", "3 / 2", "9" * 1001, "1/" + "9" * 1001):
        with pytest.raises(ValueError):
            parse_cyclotomic(text)
    with pytest.raises(ValueError, match="malformed cyclotomic term"):
        parse_cyclotomic("c[4]: " + "9" * 1001 + "*z")
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("value", [5, None, ["1"], "1/0", "c[4]: 1/0*z", "c[3]: 0/0"])
def test_parse_rejects_non_strings_and_zero_denominators(value):
    with pytest.raises(ValueError):
        parse_cyclotomic(value)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_conjugate_and_embed_match_root_sums(data):
    # oracle: a = sum c_k zeta_L^k, rebuilt term by term from root_of_unity
    L = data.draw(st.integers(1, 24))
    m = data.draw(st.integers(1, 3))
    a = data.draw(cyclo_elements(L))
    conj = Cyclotomic.zero(L)
    lifted = Cyclotomic.zero(m * L)
    for k, c in enumerate(a.coeffs):
        conj = conj + root_of_unity(L, -k) * c
        lifted = lifted + root_of_unity(m * L, k * m) * c
    assert a.conjugate() == conj
    assert a.embed(m * L) == lifted
    assert a.embed(m * L).L == m * L


def test_cyclotomic_polynomial_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for L in [*range(1, 121), 128, 243, 360, 720, 840]:
        expected = sympy.Poly(sympy.cyclotomic_poly(L, x), x).all_coeffs()[::-1]
        assert cyclotomic_polynomial(L) == tuple(Fraction(int(c)) for c in expected)
        assert euler_phi(L) == sympy.totient(L)


@pytest.mark.parametrize("n", [1, 2, 9, 12, 30, 128, 210, 243, 360, 720, 840])
def test_cyclotomic_polynomial_divides_once_per_prime(monkeypatch, fold_calls, n):
    # from a cleared cache, Phi_n costs one exact division per distinct prime of n; the
    # kernel is counted under both names it is imported by.  Each x -> x^p, and the
    # x -> x^(n/r) at the end, is a call to `poly_fold`
    calls, divmod_ = [], polyring._pseudo_divmod

    def counted(R, M):
        calls.append(len(M) - 1)
        return divmod_(R, M)

    monkeypatch.setattr(polyring, "_pseudo_divmod", counted)
    monkeypatch.setattr(cyclotomic, "_pseudo_divmod", counted)
    cyclotomic_polynomial.cache_clear()
    cyclotomic_polynomial(n)
    primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]
    assert len(calls) <= len(primes)
    assert [e for e, _ in fold_calls] == [*primes, n // prod(primes)]


def test_zeta_powers_match_the_generic_reduction():
    # zeta_L^k is the remainder of x^k by Phi_L, here sympy's, on a path the ring does not share:
    # every k for small L, and for L = 840 the k on both sides of phi(840) = 192 and the last
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    cases = [(L, range(L)) for L in [*range(1, 61), 84, 120]]
    cases.append((840, [0, 1, 190, 191, 192, 193, 194, 839]))
    for L, ks in cases:
        powers = cyclotomic._zeta_powers(L)
        assert len(powers) == L
        phi = sympy.Poly(sympy.cyclotomic_poly(L, x), x)
        for k in ks:
            rem = sympy.Poly(x**k, x).rem(phi).all_coeffs()[::-1]
            expected = [Fraction(int(c)) for c in rem] + [Fraction(0)] * (phi.degree() - len(rem))
            assert powers[k].coeffs == tuple(expected)
            assert all(type(c) is Fraction for c in powers[k].coeffs)


@pytest.mark.parametrize("L", [5, 8, 12, 15, 21, 31, 60, 97])
def test_inverse_matches_sympy(L):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    a = sum((root_of_unity(L, k) * Fraction(k + 1, 2 * k + 3) for k in range(4)), Cyclotomic.zero(L))
    a_expr = sum(sympy.Rational(c.numerator, c.denominator) * x**k for k, c in enumerate(a.coeffs))
    inv = sympy.Poly(sympy.invert(a_expr, sympy.cyclotomic_poly(L, x), x), x).all_coeffs()[::-1]
    expected = tuple(Fraction(int(c.p), int(c.q)) for c in inv)
    assert poly(a.inverse().coeffs) == poly(expected)


def test_dense_inverse_in_degree_96():
    rng = random.Random(97)
    a = Cyclotomic(97, [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(96)])
    assert a * a.inverse() == 1


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_hash_is_invariant_under_embedding(data):
    L = data.draw(st.integers(1, 24))
    M = L * data.draw(st.integers(1, 48 // L))
    a = data.draw(cyclo_elements(L))
    assert a == a.embed(M)
    assert hash(a) == hash(a.embed(M))
    if a.is_rational():
        assert hash(a) == hash(a.as_rational())


def test_galois_sum_worked_values():
    assert galois_sum([]) == 0 and galois_sum([]).L == 1
    # |zeta_n^k|^2 = 1 for each k, so the n terms sum to n
    for n in (3, 5, 8):
        total = galois_sum((1, root_of_unity(n, k), -1, root_of_unity(n, k)) for k in range(n))
        assert total == n and total.L == n
    # conj(zeta_4) = -zeta_4, and the weight may lie in another field than a and b
    total = galois_sum([(Fraction(1, 2), root_of_unity(4), -1, 1), (root_of_unity(3), 2, -1, 3)])
    assert total == -root_of_unity(4) / 2 + 6 * root_of_unity(3)
    assert total.L == 12
    # the Galois conjugates of zeta_n sum to its trace, the Moebius value mu(n)
    for n, mu in ((5, -1), (6, 1), (7, -1), (8, 0), (30, -1)):
        assert galois_sum((1, root_of_unity(n), e, 1) for e in range(n) if gcd(e, n) == 1) == mu


def test_galois_sum_takes_integer_units():
    # e is an integer, and bool is not one
    with pytest.raises(TypeError):
        galois_sum([(1, root_of_unity(4), True, 1)])
    # zeta_4 -> zeta_4^2 is no field map: x and x - Phi_4 = -x^2 + x - 1 are the same residue,
    # but their folds x^2 and -x^4 + x^2 - 1 are -1 and -3 mod Phi_4
    with pytest.raises(ValueError):
        galois_sum([(1, root_of_unity(4), 2, 1)])
    # sigma_e fixes Q, so a rational a takes any exponent
    assert galois_sum([(1, Cyclotomic(4, (3,)), 2, 1), (1, Fraction(1, 2), 0, 2)]) == 4


KERNEL_ORDERS = [1, 2, 3, 4, 5, 6, 7, 8, 12, 24]
kernel_factors = st.one_of(
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.sampled_from(KERNEL_ORDERS).flatmap(cyclo_elements),
)


@st.composite
def galois_terms(draw):
    """(c, a, e, b) with e a unit mod the order of a, or -1, shifted by a multiple of that order."""
    c, a, b = draw(kernel_factors), draw(kernel_factors), draw(kernel_factors)
    order = a.L if isinstance(a, Cyclotomic) else 1
    e = draw(st.sampled_from([-1] + [k for k in range(order) if gcd(k, order) == 1]))
    return c, a, e + order * draw(st.integers(-2, 2)), b


def galois_conjugate(a, e):
    """sigma_e(a) = sum_k a_k zeta^(e k), one `root_of_unity` term at a time."""
    a, total = Cyclotomic.coerce(a), Cyclotomic.zero()
    for k, x in enumerate(a.coeffs):
        total = total + root_of_unity(a.L, e * k) * x
    return total


@settings(max_examples=80, deadline=None)
@given(st.lists(galois_terms(), max_size=4))
def test_galois_sum_matches_the_sum_term_by_term(terms):
    # the reference reduces every product mod Phi_L; the kernel reduces the sum once
    expected = Cyclotomic.zero()
    for c, a, e, b in terms:
        expected = expected + c * galois_conjugate(a, e) * b
    total = galois_sum(terms)
    orders = [x.L for term in terms for x in term if isinstance(x, Cyclotomic)]
    assert total.L == expected.L == lcm(1, *orders)
    assert total.coeffs == expected.coeffs


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(kernel_factors, kernel_factors), max_size=4), st.integers(1, 12))
def test_weighted_inner_product_matches_the_sum_term_by_term(pairs, n):
    expected = Cyclotomic.zero()
    for a, b in pairs:
        expected = expected + Cyclotomic.coerce(a).conjugate() * b
    expected = expected * Fraction(1, n)
    total = weighted_inner_product([a for a, _ in pairs], [b for _, b in pairs], n)
    assert (total.L, total.coeffs) == (expected.L, expected.coeffs)


def test_equal_elements_collapse_in_a_set():
    z3 = root_of_unity(3)
    assert len({z3, z3.embed(6), root_of_unity(6, 2)}) == 1
    assert len({Cyclotomic.one(5), 1, Fraction(1)}) == 1


def test_embedding_is_a_field_map():
    z3 = root_of_unity(3)
    z3_in_12 = z3.embed(12)
    assert z3_in_12 == root_of_unity(12, 4)
    assert z3_in_12 ** 3 == 1
    assert z3_in_12 != 1


parsed_orders = st.one_of(st.integers(1, 30), st.integers(1, MAX_PARSED_FIELD_ORDER))


@settings(max_examples=40, deadline=None)
@given(parsed_orders, parsed_orders, st.data())
def test_parsed_values_meet_within_the_bound_or_raise(L, M, data):
    # a sum or product of parsed values lands in Q(zeta_lcm(L, M)) when lcm(L, M) <= 840
    # and raises AmbientFieldError otherwise, before any larger field is built
    x, y = (
        parse_cyclotomic(f"c[{n}]: 1 + -1/2*z^{data.draw(st.integers(0, euler_phi(n) - 1))}")
        for n in (L, M)
    )
    for op in (operator.add, operator.mul):
        if lcm(L, M) > MAX_PARSED_FIELD_ORDER:
            with pytest.raises(AmbientFieldError):
                op(x, y)
        else:
            assert op(x, y).L == lcm(L, M) <= MAX_PARSED_FIELD_ORDER


def test_equality_beyond_the_bound_raises_rather_than_answer_false():
    # c[839]: 1 and c[838]: 1 both equal 1 and hash alike, but comparing them would build
    # Q(zeta_703082): == raises instead of a wrong False, and a set cannot keep both
    one_839, one_838 = parse_cyclotomic("c[839]: 1"), parse_cyclotomic("c[838]: 1")
    assert hash(one_839) == hash(one_838) == hash(1)
    pairs = [(one_839, one_838), (one_839, parse_cyclotomic("c[3]: 1")),
             (parse_cyclotomic("c[839]: -1"), root_of_unity(2))]
    start = time.perf_counter()
    for a, b in pairs:
        for op in (operator.eq, operator.ne):
            with pytest.raises(AmbientFieldError, match="beyond 840"):
                op(a, b)
    with pytest.raises(AmbientFieldError):
        {one_839, one_838}
    assert time.perf_counter() - start < 2.0
    # within the bound, and against rationals, values of different orders compare exactly
    assert one_839 == 1 and parse_cyclotomic("c[839]: -1") == -1
    assert parse_cyclotomic("c[105]: 1") == parse_cyclotomic("c[8]: 1")
    assert root_of_unity(4) ** 2 == root_of_unity(2) and root_of_unity(3) != root_of_unity(5)
