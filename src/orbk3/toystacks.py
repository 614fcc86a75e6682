"""Closed-form toy computations on classifying and weighted projective stacks.

Covers the exact discrete Fourier transform picture for B(mu_n) (including
Parseval's identity), K-theory rings of weighted projective stacks with
their tangent Euler classes, the twisted characters of P(2,3) as the powers
x^k in one residue ring, and the stars-and-bars moduli count on B(mu_n).
The transform works on integer numerators: one `poly_fold` per output in Z,
then the rows of all outputs go to the field's `QuotientRing._residues`: one
reduction mod the monic integer Phi_n per output, and one Fraction per distinct value.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb
from operator import mul

from .cyclotomic import Cyclotomic, galois_sum
from .groups import char_inner_product
from .polyring import InputError, QuotientRing, QuotientRingElement, integer, integers, monomial
from .polyring import _numerators, poly, poly_fold, poly_mul


class ToyStackError(InputError):
    pass


@lru_cache(maxsize=None)
def _group_ring(n: int) -> QuotientRing:
    return QuotientRing([-1] + [0] * (n - 1) + [1])


class GroupRingElement(QuotientRingElement):
    """An element of Q[x]/(x^n - 1), int or Fraction coefficients; Z[x]/(x^n - 1) is the
    representation ring of mu_n."""

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

    The transform runs in Z: f = P/d with P integral (`_numerators`), each
    `poly_fold(P, k, n)` is an integer row, and Q(zeta_n)'s `_residues` reduces the
    rows mod the monic Phi_n and divides by d, one Fraction per distinct value.
    """
    n, one = f.n, Cyclotomic.one(f.n)
    P, d = _numerators(f.coeffs)
    return tuple([one._new(r) for r in one.ring._residues([poly_fold(P, k, n) for k in range(n)], d)])


def weighted_inner_product(a, b, n: int | None = None) -> Cyclotomic:
    """(1/n) sum conj(a_i) b_i, the centralizer-weighted sesquilinear pairing."""
    a, b = tuple(a), tuple(b)
    if len(a) != len(b):
        raise ToyStackError("vector length mismatch")
    n = len(a) if n is None else integer(n)
    if n < 1:
        raise ToyStackError("n must be positive")
    return galois_sum((Fraction(1, n), ai, -1, bi) for ai, bi in zip(a, b))


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


def wps_euler_class_tangent(weights) -> QuotientRingElement:
    """e^K of the tangent bundle: sum_i prod_{j != i} (1 - x^{-a_j})."""
    return _wps_euler_and_relation(weights)[0]


def _wps_euler_and_relation(weights) -> tuple[QuotientRingElement, QuotientRingElement]:
    """e^K of the tangent bundle and the relation element, from the factors 1 - x^{-a_i}.

    x is inverted once.  prod_{j != i} is a prefix product times a suffix product: 3n
    multiplies, not n^2.  The last suffix product is prod_i (1 - x^{-a_i}), the relation element.
    """
    weights = integers(weights)
    ring = wps_ring(weights)
    x_inverse = ring.x().inverse()
    factors = [ring.one - x_inverse ** a for a in weights]
    prefixes = list(accumulate(factors[:-1], mul, initial=ring.one))
    total, suffix = ring.zero, ring.one
    for prefix, factor in zip(reversed(prefixes), reversed(factors)):
        total = total + prefix * suffix
        suffix = suffix * factor
    return total, suffix


def wps_relation_element(weights) -> QuotientRingElement:
    """prod_i (1 - x^{-a_i}), which must vanish in the K-ring."""
    return _wps_euler_and_relation(weights)[1]


def projective_space_euler_class(n: int) -> QuotientRingElement:
    """(n+1)(1 - x^{-1})^n in K(P^n), the unweighted closed form."""
    ring = wps_ring((1,) * (n + 1))
    return ((ring.one - ring.x().inverse()) ** n) * (n + 1)


# -- the fixed P(2,3) example ----------------------------------------------

_P23_RING = QuotientRing(poly_mul(poly((1, -2, 1)), poly((1, 0, 0, 1))))


class ChowP23Element(QuotientRingElement):
    """An element of C[h]/(h^2) + three twisted components for P(2,3): a residue p in
    Q[x]/((x - 1)^2 (x^3 + 1)), x^3 + 1 = (x + 1) Phi_6, which by CRT is Q[h]/(h^2), x = 1 + h,
    times the values at x = -1, zeta_6 and zeta_6^5."""

    __slots__ = ()

    @property
    def untwisted(self) -> tuple[Cyclotomic, Cyclotomic]:
        """(p(1), p'(1)): c0 + c1*h."""
        c = self.coeffs
        return Cyclotomic.from_rational(sum(c)), Cyclotomic.from_rational(sum(k * a for k, a in enumerate(c)))

    @property
    def twisted(self) -> tuple[Cyclotomic, Cyclotomic, Cyclotomic]:
        """(p(-1), p(zeta_6), p(zeta_6^5)), p(-1) in Q(zeta_1)."""
        c, at_zeta = self.coeffs, Cyclotomic(6, self.coeffs)
        return Cyclotomic.from_rational(sum(c[::2]) - sum(c[1::2])), at_zeta, at_zeta.conjugate()


def orbch_p23(k: int) -> ChowP23Element:
    """Twisted characters of the k-th power of the twisting sheaf on P(2,3): the residue of x^k.

    The components are ((1+h)^k mod h^2, (-1)^k, zeta_6^k, zeta_6^{5k}); negative k inverts x.
    The relation 1 - x^-2 - x^-3 + x^-5 of K(P(2,3)) (`wps_relation_element((2, 3))`) maps to
    2 + 2*z and 4 - 2*z on the zeta_6 components, not to 0; with zeta_3 it would map to 0.
    """
    return ChowP23Element(_P23_RING, monomial(1)) ** k


# -- B(mu_n) moduli counting and the BG Euler pairing -----------------------


def bg_moduli_count(n: int, d: int) -> int:
    """Number of degree-d numerical classes on B(mu_n): C(n+d-1, n-1)."""
    if integer(n) < 1 or integer(d) < 0:
        raise ToyStackError("need n >= 1 and d >= 0")
    return comb(n + d - 1, n - 1)


# The orbifold Euler pairing on BG is exactly the character inner product:
# chi(V, W) = dim Hom(V, W)^G.
bg_euler_pairing = char_inner_product
