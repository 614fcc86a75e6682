"""Closed-form toy computations on classifying and weighted projective stacks.

Covers the exact discrete Fourier transform picture for B(mu_n) (including
Parseval's identity), K-theory rings of weighted projective stacks with
their tangent Euler classes, the fixed P(2,3) twisted-character example,
and the stars-and-bars moduli count on B(mu_n).  The transform works on
integer numerators: one fold per output in Z, one reduction mod the monic
integer Phi_n per output, and one Fraction per distinct value at the end.
The pairing of transforms, `weighted_inner_product`, stays on the Fraction
arithmetic of `QuotientRingElement`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, prod
from operator import mul

from .cyclotomic import Cyclotomic, _field_elements, root_of_unity
from .groups import Character, char_inner_product
from .polyring import QuotientRing, QuotientRingElement, integer, integers, monomial
from .polyring import _numerators, poly, poly_mul


class ToyStackError(ValueError):
    pass


@lru_cache(maxsize=None)
def _group_ring(n: int) -> QuotientRing:
    return QuotientRing([-1] + [0] * (n - 1) + [1])


class GroupRingElement(QuotientRingElement):
    """An element of Z[x]/(x^n - 1): the representation ring of mu_n."""

    __slots__ = ()

    def __init__(self, n: int, coeffs):
        coeffs = tuple(coeffs)
        if (n := integer(n)) < 1:
            raise ToyStackError("ring rank must be positive")
        if len(coeffs) > n:
            raise ToyStackError("coefficient vector longer than the ring rank")
        super().__init__(_group_ring(n), coeffs)

    @property
    def n(self) -> int:
        return self.ring.degree

    @classmethod
    def monomial(cls, n: int, k: int) -> "GroupRingElement":
        if (n := integer(n)) < 1:
            raise ToyStackError("ring rank must be positive")
        return cls(n, monomial(integer(k) % n))

    def _pair(self, other):
        if isinstance(other, GroupRingElement) and other.n != self.n:
            raise ToyStackError("ring rank mismatch")
        return super()._pair(other)


def dft_inverse(f: GroupRingElement) -> tuple[Cyclotomic, ...]:
    """The twisted-character vector of f: f_check(k) = sum_j zeta_n^{jk} f(j),
    which is f(x^k) mod x^n - 1, reduced once mod Phi_n (a divisor of x^n - 1).

    The transform runs in Z: f = P/d with P integral (`_numerators`), each fold
    P(x^k) mod x^n - 1 is an integer row, and `_field_elements` reduces the rows
    mod the monic Phi_n and divides by d, one Fraction per distinct value.
    """
    n = f.n
    P, d = _numerators(f.coeffs)
    terms = [(j, c) for j, c in enumerate(P) if c]
    rows = []
    for k in range(n):
        row = [0] * n
        for j, c in terms:
            row[j * k % n] += c
        rows.append(row)
    return _field_elements(n, rows, d)


def weighted_inner_product(a, b, n: int | None = None) -> Cyclotomic:
    """(1/n) sum conj(a_i) b_i, the centralizer-weighted sesquilinear pairing."""
    a, b = tuple(a), tuple(b)
    if len(a) != len(b):
        raise ToyStackError("vector length mismatch")
    n = len(a) if n is None else integer(n)
    if n < 1:
        raise ToyStackError("n must be positive")
    acc = Cyclotomic.zero()
    for ai, bi in zip(a, b):
        acc = acc + Cyclotomic.coerce(ai).conjugate() * Cyclotomic.coerce(bi)
    return acc * Fraction(1, n)


def coefficient_pairing(f: GroupRingElement, g: GroupRingElement) -> Fraction:
    """The Euler pairing on Z[x]/(x^n - 1): <x^i, x^j> = delta_ij, extended."""
    if f.n != g.n:
        raise ToyStackError("ring rank mismatch")
    return sum((a * b for a, b in zip(f.coeffs, g.coeffs)), Fraction(0))


def parseval_check(f: GroupRingElement, g: GroupRingElement) -> bool:
    """Does the coefficient pairing match the weighted pairing of transforms?"""
    lhs = coefficient_pairing(f, g)
    rhs = weighted_inner_product(dft_inverse(f), dft_inverse(g), f.n)
    return rhs == lhs


# -- weighted projective stacks -------------------------------------------


def wps_ring(weights) -> QuotientRing:
    """K(P(a_0..a_n)) = Z[x] / ((x^{a_0}-1) ... (x^{a_n}-1))."""
    weights = integers(weights)
    if len(weights) < 2 or any(a < 1 for a in weights):
        raise ToyStackError("need at least two positive weights")
    modulus = poly((1,))
    for a in weights:
        modulus = poly_mul(modulus, poly([-1] + [0] * (a - 1) + [1]))
    return QuotientRing(modulus)


def _wps_factors(weights) -> tuple[QuotientRing, list[QuotientRingElement]]:
    """The K-ring of P(weights) and its factors 1 - x^{-a}, one per weight; x is inverted once."""
    weights = integers(weights)
    ring = wps_ring(weights)
    x_inverse = ring.x().inverse()
    return ring, [ring.one - x_inverse ** a for a in weights]


def wps_euler_class_tangent(weights) -> QuotientRingElement:
    """e^K of the tangent bundle: sum_i prod_{j != i} (1 - x^{-a_j})."""
    return _wps_euler_and_relation(weights)[0]


def _wps_euler_and_relation(weights) -> tuple[QuotientRingElement, QuotientRingElement]:
    """e^K of the tangent bundle and the relation element, from one `_wps_factors`.

    prod_{j != i} is a prefix product times a suffix product: 3n multiplies, not n^2.
    The last suffix product is prod_i (1 - x^{-a_i}), the relation element.
    """
    ring, factors = _wps_factors(weights)
    prefixes = list(accumulate(factors[:-1], mul, initial=ring.one))
    total, suffix = ring.zero, ring.one
    for prefix, factor in zip(reversed(prefixes), reversed(factors)):
        total = total + prefix * suffix
        suffix = suffix * factor
    return total, suffix


def wps_relation_element(weights) -> QuotientRingElement:
    """prod_i (1 - x^{-a_i}), which must vanish in the K-ring."""
    ring, factors = _wps_factors(weights)
    return prod(factors, start=ring.one)


def projective_space_euler_class(n: int) -> QuotientRingElement:
    """(n+1)(1 - x^{-1})^n in K(P^n), the unweighted closed form."""
    ring = wps_ring((1,) * (n + 1))
    return ((ring.one - ring.x().inverse()) ** n) * (n + 1)


# -- the fixed P(2,3) example ----------------------------------------------


@dataclass(frozen=True)
class ChowP23Element:
    """An element of C[h]/(h^2) + three twisted components for P(2,3)."""

    untwisted: tuple[Cyclotomic, Cyclotomic]  # c0 + c1*h
    twisted: tuple[Cyclotomic, Cyclotomic, Cyclotomic]

    def __mul__(self, other: "ChowP23Element") -> "ChowP23Element":
        a0, a1 = self.untwisted
        b0, b1 = other.untwisted
        return ChowP23Element(
            (a0 * b0, a0 * b1 + a1 * b0),  # truncate mod h^2
            tuple(x * y for x, y in zip(self.twisted, other.twisted)),
        )


def orbch_p23(k: int) -> ChowP23Element:
    """Twisted characters of the k-th power of the twisting sheaf on P(2,3).

    The components are ((1+h)^k mod h^2, (-1)^k, zeta_6^k, zeta_6^{5k});
    negative k uses the formal inverse (1+h)^{-1} = 1 - h.
    """
    k = integer(k)
    return ChowP23Element(
        (Cyclotomic.one(), Cyclotomic.from_rational(k)),
        (
            Cyclotomic.from_rational((-1) ** (k % 2)),
            root_of_unity(6, k % 6),
            root_of_unity(6, (5 * k) % 6),
        ),
    )


# -- B(mu_n) moduli counting and the BG Euler pairing -----------------------


def bg_moduli_count(n: int, d: int) -> int:
    """Number of degree-d numerical classes on B(mu_n): C(n+d-1, n-1)."""
    if integer(n) < 1 or integer(d) < 0:
        raise ToyStackError("need n >= 1 and d >= 0")
    return comb(n + d - 1, n - 1)


def bg_euler_pairing(chi: Character, psi: Character) -> Fraction:
    """The orbifold Euler pairing on BG is exactly the character inner product:
    chi(V, W) = dim Hom(V, W)^G."""
    return char_inner_product(chi, psi)
