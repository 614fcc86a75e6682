"""A second implementation of the orbifold pairing on sympy's number fields.

The oracle reads only a preset's `to_json()` payload and computes in sympy's
Q(zeta_L) = `QQ.algebraic_field(exp(2 pi i/L))`, L the lcm of the eigenvalue
orders, with no arithmetic of orbk3: the unit identity

    1/|G| + (1/4) sum mult / (|G_ij| (1 - Re lambda_ij)) = 1

and dim = 2 - <v~, v~> for O_X, a free orbit O_p and TX, where

    <v~, w~> = <v, w>_X / |G| + (1/2) sum mult * conj(v_ij) * w_ij / (|G_ij| (1 - Re lambda_ij)).

The same pairing of drawn classes on cyclic:2..8, whose twisted entries are rationals or
c * zeta_d^k with d | n, is recomputed from the payload and the drawn data; where sympy's
value is irrational, the library must raise ExactnessError.
The transform on B(mu_n) and the K-rings of weighted projective stacks are checked the
same way, on coefficient tuples alone: f_check(k) is f(x^k) mod Phi_n in sympy's QQ[x],
and the tangent Euler class is computed in QQ[x]/prod(x^a - 1) with x^-1 from `invert`.
"""

import json
import random
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbk3.cyclotomic import ExactnessError, root_of_unity
from orbk3.hrr import BUILTIN_CLASSES, EquivariantClass, euler_pairing, moduli_dimension
from orbk3.inertia import preset_cyclic
from orbk3.lattice import MukaiVector
from orbk3.toystacks import GroupRingElement, dft_inverse, wps_euler_class_tangent, wps_relation_element

sympy = pytest.importorskip("sympy")
QQ = sympy.QQ

# dim of O_X, O_p and TX on cyclic:2..8: the golden `dim` outputs
DIMENSIONS = {
    2: (0, 2, 42), 3: (0, 2, 30), 4: (0, 2, 22), 5: (0, 2, 18), 6: (0, 2, 14), 7: (0, 2, 12), 8: (0, 2, 10),
}


def _rational(a) -> Fraction:
    """A ground element of a sympy algebraic field as a Fraction; anything else fails."""
    assert a.is_ground, a
    c = a.LC() if a.rep else QQ(0)
    return Fraction(int(c.numerator), int(c.denominator))


def _coefficients(p, length: int) -> tuple[Fraction, ...]:
    """The ascending coefficients of a sympy Poly over QQ, zero-padded to length."""
    cs = [Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs())] if not p.is_zero else []
    return tuple(cs + [Fraction(0)] * (length - len(cs)))


@lru_cache(maxsize=None)
def _field(L: int):
    """sympy's Q(zeta_L) = QQ.algebraic_field(exp(2 pi i/L)) and its zeta_L, built once per L."""
    K = QQ.algebraic_field(sympy.exp(2 * sympy.pi * sympy.I / L))
    return K, K.convert(K.ext)


def _sectors(data: dict):
    """(L, K, zeta, weights, real parts) of a model payload: per sector, in sympy's Q(zeta_L),
    mult / (|G_ij| (1 - Re lambda_ij)) and Re lambda_ij, L the lcm of the eigenvalue orders."""
    L = lcm(*[s["eig_order"] for s in data["sectors"]])
    K, zeta = _field(L)
    real_parts, weights = [], []
    for s in data["sectors"]:
        k = s["eig_exp"] * (L // s["eig_order"]) % L
        re = (zeta**k + zeta ** ((L - k) % L)) * QQ(1, 2)
        real_parts.append(re)
        weights.append(K.one / ((K.one - re) * QQ(s["stabilizer"], s["multiplicity"])))
    return L, K, zeta, weights, real_parts


def _oracle(data: dict) -> tuple[Fraction, tuple[Fraction, ...]]:
    """(unit identity, (dim O_X, dim O_p, dim TX)) of a model payload, in sympy's Q(zeta_L)."""
    order, sectors = data["group"]["order"], data["sectors"]
    _, K, _, weights, real_parts = _sectors(data)
    unit = QQ(1, order) + sum(weights, K.zero) * QQ(1, 4)

    def dimension(r, s, twisted):
        # c1 = 0, so <v, v>_X = 2rs; every twisted entry is real, so conj(a) * a = a^2
        twisted_sum = sum((w * a * a for w, a in zip(weights, twisted)), K.zero)
        return 2 - _rational(QQ(2 * r * s, order) + twisted_sum * QQ(1, 2))

    return _rational(unit), (
        dimension(1, 1, [K.one] * len(sectors)),
        dimension(0, order, [K.zero] * len(sectors)),
        dimension(2, -22, [re * 2 for re in real_parts]),
    )


@pytest.mark.parametrize("n", sorted(DIMENSIONS))
def test_presets_match_the_sympy_oracle(n):
    model = preset_cyclic(n)
    unit, dims = _oracle(model.to_json())
    assert unit == 1
    assert dims == DIMENSIONS[n]
    assert tuple(moduli_dimension(model, BUILTIN_CLASSES[name](model)) for name in ("OX", "Op", "TX")) == dims


def _sympy_pairing(data: dict, x: dict, y: dict):
    """<v~, w~> of two drawn classes on a model payload, as an element of sympy's Q(zeta_L).

    A class is {"mukai": (r, c1, s), "twisted": [...]}, each twisted entry a Fraction c or a
    triple (c, d, k) for c * zeta_d^k; conj(zeta_L^j) = zeta_L^(L - j)."""
    L, K, zeta, weights, _ = _sectors(data)
    gram = data["lattice"]["gram"]

    def entry(value, sign):
        if isinstance(value, Fraction):
            return K.one * QQ(value.numerator, value.denominator)
        c, d, k = value
        return zeta ** (sign * k * (L // d) % L) * QQ(c.numerator, c.denominator)

    (rv, cv, sv), (rw, cw, sw) = x["mukai"], y["mukai"]
    c1 = sum(cv[i] * gram[i][j] * cw[j] for i in range(len(cv)) for j in range(len(cw)))
    twisted = sum(
        (wt * entry(a, -1) * entry(b, 1) for wt, a, b in zip(weights, x["twisted"], y["twisted"])), K.zero
    )
    return QQ(rv * sw - c1 + sv * rw, data["group"]["order"]) + twisted * QQ(1, 2)


@st.composite
def _drawn_class(draw, n: int, sectors: int, rank: int) -> dict:
    """A Mukai vector and one twisted entry per sector: a rational, or c * zeta_d^k with d | n."""
    small = st.integers(-3, 3)
    rational = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    root = st.tuples(rational, st.sampled_from(divisors), st.integers(0, n - 1))
    c1 = tuple(draw(st.lists(small, min_size=rank, max_size=rank)))
    twisted = draw(st.lists(st.one_of(rational, root), min_size=sectors, max_size=sectors))
    return {"mukai": (draw(small), c1, draw(small)), "twisted": twisted}


def _library_class(x: dict) -> EquivariantClass:
    twisted = [v if isinstance(v, Fraction) else root_of_unity(v[1], v[2]) * v[0] for v in x["twisted"]]
    return EquivariantClass(MukaiVector(*x["mukai"]), tuple(twisted))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_pairing_matches_sympy(data):
    # the library's pairing of drawn classes on cyclic:2..8 equals sympy's, read from
    # to_json() and the drawn data; where sympy's value is irrational the library raises
    n = data.draw(st.integers(2, 8), label="n")
    model = preset_cyclic(n)
    payload = model.to_json()
    drawn = _drawn_class(n, len(payload["sectors"]), payload["lattice"]["rank"])
    x = data.draw(drawn, label="x")
    y = x if data.draw(st.booleans(), label="self-pairing") else data.draw(drawn, label="y")
    expected, x, y = _sympy_pairing(payload, x, y), _library_class(x), _library_class(y)
    if expected.is_ground:
        assert euler_pairing(model, x, y) == _rational(expected)
    else:
        with pytest.raises(ExactnessError):
            euler_pairing(model, x, y)


@pytest.mark.parametrize("n", range(1, 17))
def test_transform_matches_sympy_remainders(n):
    x = sympy.Symbol("x")
    phi = sympy.Poly(sympy.cyclotomic_poly(n, x), x, domain=QQ)
    rng = random.Random(n)
    integral = [rng.randint(-9, 9) for _ in range(n)]
    fractional = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
    for f in (integral, fractional):
        for k, value in enumerate(dft_inverse(GroupRingElement(n, f))):
            dense = [QQ(0)] * ((n - 1) * k + 1)  # f(x^k), ascending
            for j, c in enumerate(f):
                dense[j * k] += QQ(c.numerator, c.denominator)
            folded = sympy.Poly(dense[::-1], x, domain=QQ)
            assert value.coeffs == _coefficients(folded.rem(phi), phi.degree())


def _golden_wps_weights() -> list[tuple[int, ...]]:
    golden = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())
    weights = [tuple(map(int, case["argv"][case["argv"].index("--weights") + 1].split(",")))
               for case in golden if case["argv"][0] == "wps-euler"]
    return sorted(set(weights))


@pytest.mark.parametrize("weights", _golden_wps_weights())
def test_wps_k_ring_matches_sympy(weights):
    x = sympy.Symbol("x")
    modulus = sympy.Poly(prod(x**a - 1 for a in weights), x, domain=QQ)
    x_inverse = sympy.Poly(x, x, domain=QQ).invert(modulus)
    factors = [(1 - x_inverse**a).rem(modulus) for a in weights]
    euler = sum(prod(factors[:i] + factors[i + 1:]) for i in range(len(weights))).rem(modulus)
    relation = prod(factors).rem(modulus)
    assert relation.is_zero
    degree = modulus.degree()
    assert wps_euler_class_tangent(weights).coeffs == _coefficients(euler, degree)
    assert wps_relation_element(weights).coeffs == _coefficients(relation, degree) == (Fraction(0),) * degree
