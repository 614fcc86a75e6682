"""Exact arithmetic in cyclotomic fields Q(zeta_L).

An element of Q(zeta_L) is a `QuotientRingElement` of Q[x]/Phi_L(x), where
Phi_L is the L-th cyclotomic polynomial, so it shares the one residue
arithmetic of `polyring`: equality is coefficient-wise, every operation is
exact, and since Phi_L is irreducible every nonzero element inverts.  Phi_L
is built in Z[x] from the primes of L, one substitution and one exact division
per prime.  The field is a `QuotientRing` that holds the integer Phi_L.  It builds
the powers of zeta_L, the residues of the monomials x^k, each from the one before
(`_monomial_residues`), and the transform `toystacks.dft_inverse` hands it integer
rows (`_residues`); both reduce mod the monic Phi_L in Z with one Fraction per
distinct value.
What is particular to the field lives here: operands of different orders meet
in Q(zeta_lcm) (bounded in `_common_order`).  Every substitution x -> x^e is one
`poly_fold`: in building Phi_L, and in embedding and conjugation, which reduce
mod x^L - 1 first, since x^L = 1 mod Phi_L.  The field trace Tr(a) = sum of the
Galois conjugates of a is read off the coefficients with no arithmetic in the
field, so a sum of a rational function over all primitive m-th roots of unity
costs one evaluation in Q(zeta_m) and one trace; `sum_inverse_one_minus_cos`
inverts once per divisor of n this way.  Hashing uses Tr(a)/phi(L), which
embedding preserves.

Reduction mod Phi_L is linear, so a sum of products need not be reduced term
by term (GAP's `cyclotom.c`, Breuer 1997).  `galois_sum` returns sum c*sigma_e(a)*b,
sigma_e: zeta -> zeta^e, over terms of mixed orders in one accumulator over Q[x]/(x^L - 1),
L the lcm of the orders, reduced mod Phi_L once.  The orbifold pairing and the pairing of
transforms (`toystacks.weighted_inner_product`) run on it with e = -1, conjugation, and the
unit identity (`inertia.validate_identity`) on the conjugates of one inverse per order.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm

from .polyring import (
    Coeffs,
    QuotientRing,
    QuotientRingElement,
    _EXACT,
    _pseudo_divmod,
    format_poly,
    integer,
    poly_fold,
)


@lru_cache(maxsize=None, typed=True)  # typed: True is not a cached 1
def cyclotomic_polynomial(n: int) -> Coeffs:
    """Phi_n as an exact coefficient tuple, built in Z[x] from the primes of n.

    Phi_1 = x - 1, and Phi_mp(x) = Phi_m(x^p)/Phi_m(x) for a prime p not
    dividing m: one exact division by a monic divisor per prime of n.  That
    gives Phi_r for r the radical of n, and Phi_n(x) = Phi_r(x^(n/r)).  Each
    P(x^e) is a `poly_fold` mod x^((deg P)*e + 1) - 1, past its degree, so nothing folds.
    """
    if (n := integer(n)) < 1:
        raise ValueError("n must be positive")
    phi, r = [-1, 1], 1
    for p in _prime_factors(n):
        phi, rem, scale = _pseudo_divmod(list(poly_fold(phi, p, (len(phi) - 1) * p + 1)), phi)
        assert not rem and scale == 1
        r *= p
    e = n // r
    return tuple([Fraction(c) for c in poly_fold(phi, e, (len(phi) - 1) * e + 1)])


def _prime_factors(n: int) -> list[int]:
    """The distinct primes of n, by trial division up to sqrt(n)."""
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return primes + [n] if n > 1 else primes


def euler_phi(n: int) -> int:
    """phi(n) = deg Phi_n."""
    return len(cyclotomic_polynomial(n)) - 1


@lru_cache(maxsize=None)
def _field(L: int) -> QuotientRing:
    """Q[x]/Phi_L, one instance per L, which records its order L."""
    ring = QuotientRing(cyclotomic_polynomial(L))
    ring.L = L
    return ring


@lru_cache(maxsize=None)
def _zeta_powers(L: int) -> tuple["Cyclotomic", ...]:
    """zeta_L^k for k = 0..L-1: the field's `_monomial_residues`, the residues of x^k."""
    one = Cyclotomic.one(L)
    return tuple([one._new(r) for r in one.ring._monomial_residues(L)])


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
    """Raised when a value expected to be rational is not; `value`, when given, is that value."""

    def __init__(self, message: str, value=None):
        super().__init__(message)
        self.value = value


class AmbientFieldError(ValueError):
    """Raised when root orders or field orders are incompatible."""


# The largest field built without an explicit embed, so untrusted input has a bounded cost:
# parsed `c[L]: ...` text and the lcm where orders meet (`_common_order`).  840 = lcm(2..8)
# holds every field of a symplectic K3 model (orders <= 8).  Parsing into a new field is worst
# for c[840]: 1.5 ms, Phi_840 itself 0.1 ms, on one core of a 2-vCPU x86-64 machine (Python
# 3.11.7), against 0.5 ms for c[24].
MAX_PARSED_FIELD_ORDER = 840


def _common_order(orders: list[int]) -> int:
    """The lcm of the operand orders; AmbientFieldError if it exceeds the bound and is none of them."""
    L = lcm(1, *orders)
    if L > MAX_PARSED_FIELD_ORDER and L not in orders:
        raise AmbientFieldError(
            f"orders {sorted(set(orders))} meet in Q(zeta_{L}), beyond {MAX_PARSED_FIELD_ORDER}"
        )
    return L


class Cyclotomic(QuotientRingElement):
    """An element of Q(zeta_L), stored as a residue mod Phi_L.

    Immutable; all arithmetic returns new values.  Mixed arithmetic with
    ints and Fractions embeds them into the prime field.
    """

    __slots__ = ()
    _eq_raises = (AmbientFieldError,)  # equal values of orders meeting beyond the bound

    def __init__(self, L: int, coeffs):
        L = integer(L)
        if L < 1:
            raise ValueError("field order must be positive")
        super().__init__(_field(L), coeffs)

    @property
    def L(self) -> int:
        return self.ring.L

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rational(cls, value) -> "Cyclotomic":
        """value, an int or a Fraction, in Q(zeta_1); a bool, float or str raises TypeError (`poly`)."""
        return cls(1, (value,))

    @classmethod
    def coerce(cls, value) -> "Cyclotomic":
        """value itself when it is a Cyclotomic, else the rational it names."""
        return value if isinstance(value, Cyclotomic) else cls.from_rational(value)

    @classmethod
    def zero(cls, L: int = 1) -> "Cyclotomic":
        return cls(L, ())

    @classmethod
    def one(cls, L: int = 1) -> "Cyclotomic":
        return cls(L, (1,))

    # -- field embedding ----------------------------------------------

    def embed(self, L: int) -> "Cyclotomic":
        """Image in the larger field Q(zeta_L); requires self.L | L."""
        if (L := integer(L)) == self.L:
            return self
        if L % self.L != 0:
            raise AmbientFieldError(f"cannot embed Q(zeta_{self.L}) into Q(zeta_{L})")
        return Cyclotomic(L, poly_fold(self.coeffs, L // self.L, L))

    def _pair(self, other) -> tuple["Cyclotomic", "Cyclotomic"]:
        if isinstance(other, Cyclotomic):
            if other.ring is self.ring:
                return self, other
            L = _common_order([self.L, other.L])
            return self.embed(L), other.embed(L)
        return super()._pair(other)

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation: zeta -> zeta^{-1}."""
        return Cyclotomic(self.L, poly_fold(self.coeffs, -1, self.L))

    def real_part(self) -> "Cyclotomic":
        return (self + self.conjugate()) * Fraction(1, 2)

    # -- predicates / extraction --------------------------------------

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_rational(self) -> Fraction:
        """The rational value; raises ExactnessError off the prime field."""
        if not self.is_rational():
            raise ExactnessError(f"not a rational element: {self}", value=self)
        return self.coeffs[0]

    def _mean_trace(self):
        """Tr(a)/phi(L): unchanged by embedding, and a itself when a is rational."""
        return sum(c * w for c, w in zip(self.coeffs, _trace_weights(self.L)) if c)

    def trace(self) -> Fraction:
        """Tr_{Q(zeta_L)/Q}(a), the sum of the phi(L) Galois conjugates of a, exact."""
        return Fraction(self.ring.degree * self._mean_trace())

    def __hash__(self) -> int:
        return hash(self._mean_trace())

    # -- printing / parsing --------------------------------------------

    def __repr__(self) -> str:
        return format_cyclotomic(self)


def galois_sum(terms) -> Cyclotomic:
    """sum of c * sigma_e(a) * b over (c, a, e, b), c, a and b Cyclotomics or rationals, exact.

    sigma_e: zeta -> zeta^e, e an `integer`, is a field map when e is a unit mod the order of a
    (e = -1 is conjugation); otherwise an irrational a raises ValueError.  L is the lcm of all the
    orders (`_common_order`), and embedding and sigma_e are each one `poly_fold` into Q[x]/(x^L - 1).
    c*b is formed first; its multiples by each nonzero coefficient of the folded a go into one
    length-L accumulator, and as Phi_L divides x^L - 1, the sum is reduced mod Phi_L once.
    """
    terms = [(c, a, integer(e), b) for c, a, e, b in terms]
    L = _common_order([x.L for term in terms for x in term if isinstance(x, Cyclotomic)])
    acc = [0] * L
    for c, a, e, b in terms:
        cb: dict[int, Fraction] = {}
        for (i, x), (j, y) in product(_folded(c, 1, L), _folded(b, 1, L)):
            k = (i + j) % L
            cb[k] = cb[k] + x * y if k in cb else x * y
        for (i, x), (j, y) in product(_folded(a, e, L), cb.items()):
            acc[(i + j) % L] += x * y
    return Cyclotomic(L, acc)


def _folded(x, e: int, L: int) -> list[tuple[int, Fraction]]:
    """The nonzero (k, coefficient) of sigma_e(x) in Q[x]/(x^L - 1); a rational is its own term."""
    if type(x) in _EXACT:
        return [(0, x)] if x else []
    x = Cyclotomic.coerce(x)  # any other non-Cyclotomic raises TypeError
    if gcd(e, x.L) != 1 and not x.is_rational():
        raise ValueError(f"zeta -> zeta^{e} is not a field map of Q(zeta_{x.L})")
    return [(k, y) for k, y in enumerate(poly_fold(x.coeffs, e * (L // x.L), L)) if y]


def root_of_unity(order: int, exponent: int = 1) -> Cyclotomic:
    """zeta_order^exponent, in Q(zeta_order); `embed` takes it into a larger field."""
    if (order := integer(order)) < 1:
        raise ValueError("order must be positive")
    return _zeta_powers(order)[integer(exponent) % order]


def inverse_one_minus_re(lam: Cyclotomic) -> Cyclotomic:
    """1/(1 - Re lambda) for a root of unity lambda != 1: the core of every sector weight."""
    return (1 - lam.real_part()).inverse()


def sum_inverse_one_minus_cos(n: int) -> Fraction:
    """Exact value of sum_{k=1}^{n-1} 1/(1 - cos(2 pi k / n)); it equals (n^2 - 1)/6.

    The zeta_n^k with n/gcd(k, n) = m are the Galois conjugates of zeta_m, so
    their terms sum to Tr_{Q(zeta_m)/Q} 1/(1 - Re zeta_m): one inverse in
    Q(zeta_m) per divisor m > 1 of n, not one in Q(zeta_n) per k.
    """
    if integer(n) < 2:
        raise ValueError("n must be at least 2")
    return sum(inverse_one_minus_re(root_of_unity(m)).trace() for m in range(2, n + 1) if n % m == 0)


# Digits of an untrusted integer: each part of a rational in `c[L]: ...` text here, and each
# integer of a JSON document or integer list in `cli`.  Parsing is cheap, and the square of
# such a value prints within Python's 4300-digit limit on int strings.
MAX_INT_DIGITS = 1000
# A rational of the wire format: -?p or -?p/q, each part at most MAX_INT_DIGITS digits.
_RATIONAL = rf"-?\d{{1,{MAX_INT_DIGITS}}}(?:/\d{{1,{MAX_INT_DIGITS}}})?"
_TERM_RE = re.compile(rf"^({_RATIONAL})(?:\*z(?:\^(\d+))?)?$")


def format_cyclotomic(a: Cyclotomic) -> str:
    """`c[L]: a0 + a1*z + ...`, nonzero terms only, exact rationals."""
    return f"c[{a.L}]: {format_poly(a.coeffs, 'z')}"


def parse_cyclotomic(text: str) -> Cyclotomic:
    """Inverse of format_cyclotomic; also accepts a bare rational of the coefficient grammar
    (`3/2`, `-7`, not `1.5` or `1e3`); else ValueError."""
    if not isinstance(text, str):
        raise ValueError(f"cyclotomic value must be a string, got {type(text).__name__}")
    try:
        return _parse_cyclotomic(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _parse_cyclotomic(text: str) -> Cyclotomic:
    m = re.match(r"^c\[(\d+)\]:\s*(.*)$", text)
    if m is None:
        if not re.fullmatch(_RATIONAL, text):
            raise ValueError(f"malformed rational: {text!r}")
        return Cyclotomic.from_rational(Fraction(text))
    L = int(m.group(1))
    if L < 1:
        raise ValueError("field order must be positive")
    if L > MAX_PARSED_FIELD_ORDER:
        raise ValueError(f"field order {L} exceeds {MAX_PARSED_FIELD_ORDER}")
    body = m.group(2).strip()
    deg = euler_phi(L)
    coeffs = [Fraction(0)] * deg
    if body != "0":
        for raw in body.split(" + "):
            tm = _TERM_RE.match(raw.strip())
            if tm is None:
                raise ValueError(f"malformed cyclotomic term: {raw!r}")
            c = Fraction(tm.group(1))
            k = int(tm.group(2) or 1) if "*z" in raw else 0
            if k >= deg:
                raise ValueError(f"term degree {k} exceeds field degree {deg}")
            coeffs[k] += c
    return Cyclotomic(L, coeffs)
