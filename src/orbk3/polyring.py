"""Univariate polynomials over Q, and the one residue type for quotients Q[x]/(m).

Polynomials are plain tuples of Fractions in ascending degree, with trailing
zeros stripped; the zero polynomial is the empty tuple.  A residue in Q[x]/(m)
is exactly deg m coefficients, padded with zeros.  `QuotientRingElement` does
all residue arithmetic; Q(zeta_L) and Z[x]/(x^n - 1) are subclasses of it.
Division with remainder and inversion both run on integer numerators, each
operand an integer vector over one denominator, through one pseudo-division
routine in Z[x], `_pseudo_divmod`: division calls it once, inversion once per
step of its remainder sequence.  One Fraction per output coefficient is built
at the end.  `integer` and `integers` are the one integer coercion of every
loader, and `poly` the one exact-coefficient coercion: a coefficient is an int
or a Fraction, and a bool, float, str or any other type raises TypeError.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import index
from typing import Iterable, Sequence

Coeffs = tuple[Fraction, ...]

_EXACT = frozenset((int, Fraction))  # matched by exact type, so bool, a subclass of int, is not


def poly(coeffs: Iterable) -> Coeffs:
    """ints and Fractions as Fractions, trailing zeros stripped; any other coefficient raises TypeError."""
    cs = [Fraction(c) if type(c) in _EXACT else _inexact(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _inexact(c):
    raise TypeError(f"expected an int or a Fraction, got {type(c).__name__}")


def integer(value) -> int:
    """value as an exact int (`operator.index`); bool is rejected, so JSON true is not 1."""
    if isinstance(value, bool):
        raise TypeError("expected an integer, got bool")
    return index(value)


def integers(values: Iterable) -> tuple[int, ...]:
    """`integer` of each value, with one type scan for bools (Cayley tables are long)."""
    values = tuple(values)
    if bool in set(map(type, values)):
        raise TypeError("expected integers, got bool")
    return tuple(map(index, values))


def poly_mul(p: Coeffs, q: Coeffs) -> Coeffs:
    if not p or not q:
        return ()
    # zero terms are skipped on both sides, so padded and scalar operands are cheap
    q_terms = [(j, b) for j, b in enumerate(q) if b != 0]
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in q_terms:
            out[i + j] += a * b
    return poly(out)


def poly_fold(p: Sequence[Fraction], e: int, n: int) -> Coeffs:
    """Coefficients of p(x^e) mod x^n - 1, all n of them (trailing zeros kept).

    Any integer e works, negative ones included: x^n = 1 makes x^e = x^(e mod n).
    """
    out = [Fraction(0)] * n
    for k, c in enumerate(p):
        if c:
            out[k * e % n] += c
    return tuple(out)


def poly_divmod(p: Coeffs, m: Coeffs) -> tuple[Coeffs, Coeffs]:
    """Exact division with remainder over Q, by pseudo-division in Z[x].

    Write p = P/d and m = M/e with P, M integral (`_numerators`);
    `_pseudo_divmod` gives S*P = Q*M + R, so the quotient is Q*e/(d*S) and
    the remainder R/(d*S).  For a monic modulus (Phi_L, x^n - 1 and every
    modulus the library builds) S is 1.  No Fraction is built until the end.
    Raises ZeroDivisionError on a zero divisor.
    """
    if not m:
        raise ZeroDivisionError("polynomial division by zero")
    R, d = _numerators(p)
    M, e = _numerators(m)
    Q, R, S = _pseudo_divmod(R, M)
    return _fractions(Q, e, d * S), _fractions(R, 1, d * S)


def _pseudo_divmod(R: list[int], M: Sequence[int]) -> tuple[list[int], list[int], int]:
    """(Q, R, S) with S*P = Q*M + R and deg R < deg M, for integer vectors P and M.

    P is passed as R and consumed; l is the (nonzero) lead of M.  Each step
    takes the top coefficient c of R and g = gcd(c, l), scales R and Q by
    f = l/g and subtracts (c/g)*x^s*M, which cancels the top term; S is the
    product of the f.  R is returned without trailing zeros.
    """
    n, lead = len(M), M[-1]
    # zero coefficients of the modulus are skipped; Phi_L and x^n - 1 are sparse
    terms = [(j, b) for j, b in enumerate(M[:-1]) if b]
    Q = [0] * max(len(R) - n + 1, 0)
    S = 1
    while len(R) >= n:
        c = R.pop()
        if c:
            g = gcd(c, lead)
            f, c = lead // g, c // g
            if f != 1:
                R = [f * x for x in R]
                Q = [f * x for x in Q]
                S *= f
            shift = len(R) + 1 - n
            Q[shift] = c
            for j, b in terms:
                R[shift + j] -= c * b
    while R and not R[-1]:
        R.pop()
    return Q, R, S


def _numerators(p: Coeffs) -> tuple[list[int], int]:
    """(P, d) with p = P/d, P an integer vector and d the lcm of the denominators."""
    # lcm of a list: unpacking a generator grows a tuple, stranding tuples in CPython's free lists
    d = lcm(*[c.denominator for c in p])
    return [c.numerator * (d // c.denominator) for c in p], d


def _fractions(P: Sequence[int], num: int, den: int) -> Coeffs:
    """The polynomial P*num/den for an integer vector P: trailing zeros stripped, one Fraction each."""
    k = len(P)
    while k and not P[k - 1]:
        k -= 1
    return tuple([Fraction(num * x, den) for x in P[:k]])


def poly_inverse_mod(a: Coeffs, m: Coeffs) -> Coeffs:
    """The inverse of a in Q[x]/(m), by a fraction-free extended Euclid.

    a = A/d with A in Z[x].  The remainder sequence of (m, A) runs in Z[x]:
    each step is one `_pseudo_divmod(r0, r1) = (Q, r, S)`, so r = S*r0 - Q*r1,
    and the cofactor of A is s = S*s0 - Q*s1; r and s are then divided by
    their joint content (the primitive remainder sequence, Collins 1967).  The
    invariant is r = s*A mod m; the last nonzero remainder is a constant c, so
    the inverse is d*s/c.  The cofactor of m is never needed and not computed.

    Raises ZeroDivisionError when a = 0 mod m, and ValueError when m is a
    constant or gcd(a, m) is not.
    """
    if len(m) < 2:
        raise ValueError("modulus must have degree >= 1")
    if len(a) >= len(m):
        a = poly_divmod(a, m)[1]
    if not a:
        raise ZeroDivisionError("inversion of zero modulo m")
    r0, s0 = _numerators(m)[0], []
    r1, d = _numerators(a)
    s1 = [1]
    while len(r1) > 1:
        # r0 is consumed: the sequence never reads it again
        Q, r, S = _pseudo_divmod(r0, r1)
        s = [S * x for x in s0] + [0] * (len(Q) + len(s1) - 1 - len(s0))
        for i, q in enumerate(Q):
            for j, b in enumerate(s1):
                s[i + j] -= q * b
        if not r:
            raise ValueError("not invertible: gcd with the modulus has positive degree")
        content = gcd(*r, *s)
        if content != 1:
            r = [x // content for x in r]
            s = [x // content for x in s]
        r0, s0, r1, s1 = r1, s1, r, s
    return _fractions(s1, d, r1[0])


def monomial(k: int) -> Coeffs:
    """x^k."""
    return poly([0] * k + [1])


def format_poly(p: Coeffs, var: str = "x") -> str:
    """Exact ascending-degree print: `1/2 + -3*x^2`; zero prints as `0`."""
    terms = []
    for k, c in enumerate(p):
        if c == 0:
            continue
        if k == 0:
            terms.append(str(c))
        elif k == 1:
            terms.append(f"{c}*{var}")
        else:
            terms.append(f"{c}*{var}^{k}")
    return " + ".join(terms) if terms else "0"


class QuotientRing:
    """Q[x]/(m) with canonical residues: exactly deg m Fraction coefficients."""

    def __init__(self, modulus: Iterable):
        m = poly(modulus)
        if len(m) < 2:
            raise ValueError("modulus must have degree >= 1")
        self.modulus = m
        self.degree = len(m) - 1

    def residue(self, p: Iterable) -> Coeffs:
        """The canonical residue of p: reduced only when longer than deg m, then zero-padded."""
        cs = poly(p)
        if len(cs) > self.degree:
            cs = poly_divmod(cs, self.modulus)[1]
        return cs + (Fraction(0),) * (self.degree - len(cs))

    def reduce(self, p: Iterable) -> "QuotientRingElement":
        return QuotientRingElement(self, p)

    @property
    def zero(self) -> "QuotientRingElement":
        return self.reduce(())

    @property
    def one(self) -> "QuotientRingElement":
        return self.reduce((1,))

    def x(self) -> "QuotientRingElement":
        return self.reduce(monomial(1))

    def __eq__(self, other) -> bool:
        return isinstance(other, QuotientRing) and self.modulus == other.modulus

    def __hash__(self) -> int:
        return hash(self.modulus)

    def __repr__(self) -> str:
        return f"QuotientRing({format_poly(self.modulus)})"


class QuotientRingElement:
    """A residue in a QuotientRing, and the one implementation of residue arithmetic.

    Immutable.  `coeffs` is the canonical residue (`QuotientRing.residue`).
    Ints and Fractions combine as constants; any other operand, a bool or a
    float included, raises TypeError, and an element of another ring
    ValueError.  Subclasses fix the ring and change only `_pair`, which brings
    two operands into one ring, and `_eq_raises`.
    """

    __slots__ = ("ring", "coeffs")
    _eq_raises: tuple = ()  # errors of `_pair` that `==` passes on, where False could be wrong

    def __init__(self, ring: QuotientRing, residue: Iterable):
        self.ring = ring
        self.coeffs = ring.residue(residue)

    def _new(self, coeffs: Coeffs):
        """An element of self's type and ring from a residue already canonical."""
        out = object.__new__(type(self))
        out.ring = self.ring
        out.coeffs = coeffs
        return out

    def _pair(self, other) -> tuple:
        """(self, other) as elements of one ring; a non-element is a constant, if `poly` takes it."""
        if not isinstance(other, QuotientRingElement):
            return self, self._new(self.ring.residue((other,)))
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if other.ring is not self.ring and other.ring != self.ring:
            raise ValueError("quotient-ring mismatch")
        return self, other

    def __add__(self, other):
        a, b = self._pair(other)
        # from a list: tuple() of an iterator resizes, stranding tuples in CPython's free lists
        return a._new(tuple([x + y for x, y in zip(a.coeffs, b.coeffs)]))

    __radd__ = __add__

    def __neg__(self):
        return self._new(tuple([-x for x in self.coeffs]))

    def __sub__(self, other):
        a, b = self._pair(other)
        return a._new(tuple([x - y for x, y in zip(a.coeffs, b.coeffs)]))

    def __rsub__(self, other):
        a, b = self._pair(other)
        return b - a

    def __mul__(self, other):
        a, b = self._pair(other)
        return a._new(a.ring.residue(poly_mul(a.coeffs, b.coeffs)))

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse; ZeroDivisionError for zero, ValueError for a zero divisor."""
        return self._new(self.ring.residue(poly_inverse_mod(poly(self.coeffs), self.ring.modulus)))

    def __truediv__(self, other):
        a, b = self._pair(other)
        return a * b.inverse()

    def __rtruediv__(self, other):
        a, b = self._pair(other)
        return b * a.inverse()

    def __pow__(self, k: int):
        k = integer(k)
        base = self if k >= 0 else self.inverse()
        k = abs(k)
        acc = self._pair(1)[1]
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    def __eq__(self, other) -> bool:
        try:
            a, b = self._pair(other)
        except self._eq_raises:
            raise
        except (TypeError, ValueError):
            return NotImplemented
        return a.coeffs == b.coeffs

    def __hash__(self) -> int:
        # a constant residue equals its constant, so it must hash like it
        if not any(self.coeffs[1:]):
            return hash(self.coeffs[0])
        return hash(self.coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __repr__(self) -> str:
        return format_poly(self.coeffs)
