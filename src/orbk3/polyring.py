"""Univariate polynomials over Q, and the one residue type for quotients Q[x]/(m).

Polynomials are plain tuples of Fractions in ascending degree, with trailing
zeros stripped; the zero polynomial is the empty tuple.  A residue in Q[x]/(m)
is exactly deg m coefficients, padded with zeros.  `QuotientRingElement` does
all residue arithmetic; Q(zeta_L) and Z[x]/(x^n - 1) are subclasses of it.
`integer` and `integers` are the one integer coercion of every loader.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import index
from typing import Iterable, Sequence

Coeffs = tuple[Fraction, ...]


def poly(coeffs: Iterable) -> Coeffs:
    """Normalize a coefficient sequence: Fractions, trailing zeros stripped."""
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


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


def poly_deg(p: Sequence[Fraction]) -> int:
    """Degree, with deg(0) = -1."""
    return len(p) - 1


def poly_add(p: Coeffs, q: Coeffs) -> Coeffs:
    n = max(len(p), len(q))
    return poly(
        (p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)
    )


def poly_sub(p: Coeffs, q: Coeffs) -> Coeffs:
    return poly_add(p, tuple(-c for c in q))


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


def poly_scale(p: Coeffs, c) -> Coeffs:
    return poly(Fraction(c) * a for a in p)


def poly_divmod(p: Coeffs, m: Coeffs) -> tuple[Coeffs, Coeffs]:
    """Exact long division over Q.  Raises on a zero divisor."""
    if not m:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quot = [Fraction(0)] * max(len(p) - len(m) + 1, 0)
    lead = m[-1]
    for i in range(len(rem) - len(m), -1, -1):
        c = rem[i + len(m) - 1] / lead
        if c == 0:
            continue
        quot[i] = c
        for j, b in enumerate(m):
            rem[i + j] -= c * b
    return poly(quot), poly(rem)


def poly_mod(p: Coeffs, m: Coeffs) -> Coeffs:
    return poly_divmod(p, m)[1]


def _numerators(p: Coeffs) -> tuple[list[int], int]:
    """(P, d) with p = P/d, P an integer vector and d the lcm of the denominators."""
    d = lcm(*(c.denominator for c in p))
    return [c.numerator * (d // c.denominator) for c in p], d


def poly_inverse_mod(a: Coeffs, m: Coeffs) -> Coeffs:
    """The inverse of a in Q[x]/(m), by a fraction-free extended Euclid.

    a = A/d with A in Z[x].  The remainder sequence of (m, A) runs in Z[x] by
    pseudo-division, and after each division the remainder and the cofactor
    of A are divided by their joint content (the primitive remainder sequence,
    Collins 1967), so no Fraction is built until the end.  The invariant is
    r = s*A mod m; the last nonzero remainder is a constant c, so the inverse
    is d*s/c.  The cofactor of m is never needed and not computed.

    Raises ZeroDivisionError when a = 0 mod m, and ValueError when m is a
    constant or gcd(a, m) is not.
    """
    if len(m) < 2:
        raise ValueError("modulus must have degree >= 1")
    if len(a) >= len(m):
        a = poly_mod(a, m)
    if not a:
        raise ZeroDivisionError("inversion of zero modulo m")
    r0, s0 = _numerators(m)[0], []
    r1, d = _numerators(a)
    s1 = [1]
    while len(r1) > 1:
        r, s = list(r0), list(s0)
        *low, lead = r1
        while len(r) >= len(r1):
            c = r.pop()
            if c:
                # lead*r - c*x^shift*r1 cancels the top term; scale by lead/g only
                g = gcd(c, lead)
                f, c = lead // g, c // g
                shift = len(r) + 1 - len(r1)
                if f != 1:
                    r = [f * x for x in r]
                    s = [f * x for x in s]
                for j, b in enumerate(low):
                    r[shift + j] -= c * b
                s += [0] * (shift + len(s1) - len(s))
                for j, b in enumerate(s1):
                    s[shift + j] -= c * b
        while r and not r[-1]:
            r.pop()
        if not r:
            raise ValueError("not invertible: gcd with the modulus has positive degree")
        content = gcd(*r, *s)
        if content != 1:
            r = [x // content for x in r]
            s = [x // content for x in s]
        r0, s0, r1, s1 = r1, s1, r, s
    return poly(Fraction(d * x, r1[0]) for x in s1)


def poly_eval(p: Coeffs, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def monomial(k: int, c=1) -> Coeffs:
    """c * x^k."""
    return poly([0] * k + [c])


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
        if poly_deg(m) < 1:
            raise ValueError("modulus must have degree >= 1")
        self.modulus = m
        self.degree = poly_deg(m)

    def residue(self, p: Iterable) -> Coeffs:
        """The canonical residue of p: reduced only when longer than deg m, then zero-padded."""
        cs = poly(p)
        if len(cs) > self.degree:
            cs = poly_mod(cs, self.modulus)
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

    def x_inverse(self) -> "QuotientRingElement":
        """x^{-1}; raises ValueError when x divides the modulus."""
        return self.x().inverse()

    def x_power(self, k: int) -> "QuotientRingElement":
        """x^k for any integer k."""
        return self.x() ** k

    def __eq__(self, other) -> bool:
        return isinstance(other, QuotientRing) and self.modulus == other.modulus

    def __hash__(self) -> int:
        return hash(self.modulus)

    def __repr__(self) -> str:
        return f"QuotientRing({format_poly(self.modulus)})"


class QuotientRingElement:
    """A residue in a QuotientRing, and the one implementation of residue arithmetic.

    Immutable.  `coeffs` is the canonical residue (`QuotientRing.residue`).
    Ints and Fractions combine as constants; an element of another type
    raises TypeError, and one of another ring ValueError.  Subclasses fix the
    ring and change only `_pair`, which brings two operands into one ring.
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: QuotientRing, residue: Iterable):
        self.ring = ring
        self.coeffs = ring.residue(residue)

    @property
    def residue(self) -> Coeffs:
        return self.coeffs

    def _new(self, coeffs: Coeffs):
        """An element of self's type and ring from a residue already canonical."""
        out = object.__new__(type(self))
        out.ring = self.ring
        out.coeffs = coeffs
        return out

    def _pair(self, other) -> tuple:
        """(self, other) as elements of one ring."""
        if isinstance(other, (int, Fraction)):
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
