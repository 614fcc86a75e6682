"""Exact arithmetic in cyclotomic fields Q(zeta_L).

Elements are canonical residues in Q[x]/Phi_L(x), where Phi_L is the L-th
cyclotomic polynomial, so equality is coefficient-wise and every operation
is exact.  Phi_L is obtained by dividing x^L - 1 by Phi_d over the proper
divisors d of L.  Embedding and conjugation substitute a power of x and
reduce: because x^L = 1 mod Phi_L, both are one `poly_fold`.  Inversion
clears denominators and runs the extended Euclid against Phi_L in integers
(`poly_inverse_mod`); only its result is turned back into Fractions.
Hashing uses the normalized trace Tr(a)/phi(L), which embedding preserves.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .polyring import (
    Coeffs,
    format_poly,
    monomial,
    poly,
    poly_add,
    poly_divmod,
    poly_fold,
    poly_inverse_mod,
    poly_mod,
    poly_mul,
    poly_neg,
    poly_sub,
)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> Coeffs:
    """Phi_n as an exact coefficient tuple."""
    if n < 1:
        raise ValueError("n must be positive")
    num = poly([-1] + [0] * (n - 1) + [1])  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            num, rem = poly_divmod(num, cyclotomic_polynomial(d))
            assert not rem
    return num


def euler_phi(n: int) -> int:
    """phi(n) = deg Phi_n."""
    return len(cyclotomic_polynomial(n)) - 1


@lru_cache(maxsize=None)
def _zeta_powers(L: int) -> tuple[Coeffs, ...]:
    """x^k mod Phi_L for k = 0..L-1."""
    phi = cyclotomic_polynomial(L)
    out = []
    cur = poly((1,))
    for _ in range(L):
        out.append(cur)
        cur = poly_mod(poly_mul(cur, monomial(1)), phi)
    return tuple(out)


@lru_cache(maxsize=None)
def _trace_weights(L: int) -> tuple[Fraction, ...]:
    """Tr(zeta_L^k)/phi(L) = mu(m)/phi(m) with m = L/gcd(k, L), for k < phi(L).

    mu(m), the sum of the primitive m-th roots of unity, is minus the
    next-to-leading coefficient of the monic Phi_m.
    """
    weights = []
    for k in range(euler_phi(L)):
        phi_m = cyclotomic_polynomial(L // gcd(k, L))
        weights.append(-phi_m[-2] / (len(phi_m) - 1))
    return tuple(weights)


class ExactnessError(ValueError):
    """Raised when a value expected to be rational is not."""


class AmbientFieldError(ValueError):
    """Raised when root orders or field orders are incompatible."""


class Cyclotomic:
    """An element of Q(zeta_L), stored as a residue mod Phi_L.

    Immutable; all arithmetic returns new values.  Mixed arithmetic with
    ints and Fractions embeds them into the prime field.
    """

    __slots__ = ("L", "coeffs")

    def __init__(self, L: int, coeffs):
        if L < 1:
            raise ValueError("field order must be positive")
        cs = poly(coeffs)
        deg = len(cyclotomic_polynomial(L)) - 1
        if len(cs) > deg:
            cs = poly_mod(cs, cyclotomic_polynomial(L))
        self.L = L
        self.coeffs = tuple(cs) + (Fraction(0),) * (deg - len(cs))

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rational(cls, value, L: int = 1) -> "Cyclotomic":
        return cls(L, (Fraction(value),))

    @classmethod
    def zero(cls, L: int = 1) -> "Cyclotomic":
        return cls(L, ())

    @classmethod
    def one(cls, L: int = 1) -> "Cyclotomic":
        return cls(L, (1,))

    # -- field embedding ----------------------------------------------

    def embed(self, L: int) -> "Cyclotomic":
        """Image in the larger field Q(zeta_L); requires self.L | L."""
        if L == self.L:
            return self
        if L % self.L != 0:
            raise AmbientFieldError(f"cannot embed Q(zeta_{self.L}) into Q(zeta_{L})")
        return Cyclotomic(L, poly_fold(self.coeffs, L // self.L, L))

    def _pair(self, other) -> tuple["Cyclotomic", "Cyclotomic"]:
        if isinstance(other, (int, Fraction)):
            return self, Cyclotomic(self.L, (other,))
        if not isinstance(other, Cyclotomic):
            raise TypeError(f"cannot combine Cyclotomic with {type(other).__name__}")
        L = lcm(self.L, other.L)
        return self.embed(L), other.embed(L)

    # -- ring/field operations ----------------------------------------

    def __add__(self, other):
        a, b = self._pair(other)
        return Cyclotomic(a.L, poly_add(a.coeffs, b.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.L, poly_neg(self.coeffs))

    def __sub__(self, other):
        a, b = self._pair(other)
        return Cyclotomic(a.L, poly_sub(a.coeffs, b.coeffs))

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        a, b = self._pair(other)
        prod = poly_mod(poly_mul(a.coeffs, b.coeffs), cyclotomic_polynomial(a.L))
        return Cyclotomic(a.L, prod)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        """Multiplicative inverse; raises ZeroDivisionError for zero.

        Phi_L is irreducible, so every nonzero residue is a unit;
        `poly_inverse_mod` finds its inverse by an extended Euclid in integers.
        """
        return Cyclotomic(self.L, poly_inverse_mod(poly(self.coeffs), cyclotomic_polynomial(self.L)))

    def __truediv__(self, other):
        a, b = self._pair(other)
        return a * b.inverse()

    def __rtruediv__(self, other):
        return Cyclotomic.from_rational(other) / self

    def __pow__(self, k: int):
        base = self if k >= 0 else self.inverse()
        k = abs(k)
        acc = Cyclotomic.one(self.L)
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation: zeta -> zeta^{-1}."""
        return Cyclotomic(self.L, poly_fold(self.coeffs, -1, self.L))

    def real_part(self) -> "Cyclotomic":
        return (self + self.conjugate()) * Fraction(1, 2)

    # -- predicates / extraction --------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_rational(self) -> Fraction:
        """The rational value; raises ExactnessError off the prime field."""
        if not self.is_rational():
            raise ExactnessError(f"not a rational element: {self}")
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, Cyclotomic)):
            a, b = self._pair(other)
            return a.coeffs == b.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        # Tr(a)/phi(L) does not change under embedding, and is a itself when a is rational
        return hash(sum(c * w for c, w in zip(self.coeffs, _trace_weights(self.L)) if c))

    # -- printing / parsing --------------------------------------------

    def __repr__(self) -> str:
        return format_cyclotomic(self)


def root_of_unity(order: int, exponent: int = 1, L: int | None = None) -> Cyclotomic:
    """zeta_order^exponent in the ambient field Q(zeta_L).

    The ambient order defaults to `order`; it must be a multiple of it.
    """
    if order < 1:
        raise ValueError("order must be positive")
    if L is None:
        L = order
    if L % order != 0:
        raise AmbientFieldError(f"order {order} does not divide ambient L={L}")
    k = (L // order) * (exponent % order)
    return Cyclotomic(L, _zeta_powers(L)[k % L])


def inverse_one_minus_re(lam: Cyclotomic) -> Cyclotomic:
    """1/(1 - Re lambda) for a root of unity lambda != 1: the core of every sector weight."""
    return (Cyclotomic.one(lam.L) - lam.real_part()).inverse()


def sum_inverse_one_minus_cos(n: int) -> Fraction:
    """Exact value of sum_{k=1}^{n-1} 1/(1 - cos(2 pi k / n)).

    Evaluated in Q(zeta_n); the total is rational and equals (n^2 - 1)/6.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    total = Cyclotomic.zero(n)
    for k in range(1, n):
        total = total + inverse_one_minus_re(root_of_unity(n, k))
    return total.as_rational()


_TERM_RE = re.compile(r"^(-?\d+(?:/\d+)?)(?:\*z(?:\^(\d+))?)?$")


def format_cyclotomic(a: Cyclotomic) -> str:
    """`c[L]: a0 + a1*z + ...`, nonzero terms only, exact rationals."""
    return f"c[{a.L}]: {format_poly(a.coeffs, 'z')}"


def parse_cyclotomic(text: str) -> Cyclotomic:
    """Inverse of format_cyclotomic; also accepts bare rationals like `3/2`."""
    text = text.strip()
    m = re.match(r"^c\[(\d+)\]:\s*(.*)$", text)
    if m is None:
        return Cyclotomic.from_rational(Fraction(text))
    L = int(m.group(1))
    if L < 1:
        raise ValueError("field order must be positive")
    body = m.group(2).strip()
    deg = euler_phi(L)
    coeffs = [Fraction(0)] * deg
    if body != "0":
        for raw in body.split(" + "):
            tm = _TERM_RE.match(raw.strip())
            if tm is None:
                raise ValueError(f"malformed cyclotomic term: {raw!r}")
            c = Fraction(tm.group(1))
            if "*z" not in raw:
                k = 0
            elif tm.group(2) is None:
                k = 1
            else:
                k = int(tm.group(2))
            if k >= deg:
                raise ValueError(f"term degree {k} exceeds field degree {deg}")
            coeffs[k] += c
    return Cyclotomic(L, coeffs)
