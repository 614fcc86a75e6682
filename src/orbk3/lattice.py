"""Mukai lattice of a polarized K3 surface.

Picard Gram matrices, Mukai vectors with the pairing v0*w2 - v1*w1 + v2*w0, Hilbert
polynomials and slopes for the fixed polarization, and the hypothesis predicates used to
decide when moduli of stable sheaves are smooth irreducible symplectic manifolds.
`integer_form` evaluates a^t M b on integer vectors for the Picard lattice and the ADE forms.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import zip_longest
from math import gcd

from .polyring import Coeffs, integer, integers, poly

INFINITE_SLOPE = "infinity"


class LatticeError(ValueError):
    pass


def _sequence(value, what: str):
    """value when it is a sequence other than a string; else LatticeError."""
    if isinstance(value, (str, bytes)) or not isinstance(value, Sequence):
        raise LatticeError(f"{what} must be a sequence, got {type(value).__name__}")
    return value


def integer_form(matrix, a, b, error: type[ValueError], message: str) -> int:
    """a^t M b on integer vectors (`polyring.integers`); error(message) if a length is not M's rank."""
    a, b = integers(a), integers(b)
    if len(a) != len(matrix) or len(b) != len(matrix):
        raise error(message)
    return sum(x * m * y for x, row in zip(a, matrix) for m, y in zip(row, b))


class PicardLattice:
    """A sublattice of NS(X) with a fixed ample class.

    The Gram matrix must be symmetric with even diagonal (the K3
    intersection form is even) and the ample class must have positive
    self-intersection.  The matrix, each of its rows and the ample class must
    be sequences, so a JSON object or string is not iterated as one, and the
    entries integers (`polyring.integers`), so a float, bool or numeric string
    is rejected rather than truncated.
    """

    def __init__(self, gram, ample):
        g = tuple(integers(_sequence(row, "Gram matrix row")) for row in _sequence(gram, "Gram matrix"))
        rank = len(g)
        if any(len(row) != rank for row in g):
            raise LatticeError("Gram matrix must be square")
        for i, row in enumerate(g):
            if row[i] % 2 != 0:
                raise LatticeError("K3 intersection form must be even")
            if row != tuple(r[i] for r in g):
                raise LatticeError("Gram matrix must be symmetric")
        h = integers(_sequence(ample, "ample class"))
        h_squared = integer_form(g, h, h, LatticeError, "ample class length must equal rank")
        if rank > 0 and h_squared <= 0:
            raise LatticeError("ample class must have positive self-intersection")
        self.gram = g
        self.rank = rank
        self.ample = h

    def intersect(self, a: tuple[int, ...], b: tuple[int, ...]) -> int:
        return integer_form(self.gram, a, b, LatticeError, "class length does not match lattice rank")

    def degree(self, a: tuple[int, ...]) -> int:
        """(a . h) against the fixed polarization."""
        return self.intersect(a, self.ample)

    @property
    def h_squared(self) -> int:
        return self.intersect(self.ample, self.ample)

    def zero_class(self) -> tuple[int, ...]:
        return (0,) * self.rank

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PicardLattice)
            and self.gram == other.gram
            and self.ample == other.ample
        )

    def __hash__(self):
        return hash((self.gram, self.ample))

    def to_json(self) -> dict:
        return {"rank": self.rank, "gram": [list(r) for r in self.gram], "ample": list(self.ample)}

    @classmethod
    def from_json(cls, data: dict) -> "PicardLattice":
        try:
            lat = cls(data["gram"], data["ample"])
            declared = integer(data.get("rank", lat.rank))
        except (KeyError, TypeError) as exc:
            raise LatticeError(f"bad lattice descriptor ({type(exc).__name__}): {exc}") from exc
        if declared != lat.rank:
            raise LatticeError("declared rank does not match Gram matrix")
        return lat


def elliptic_k3_lattice() -> PicardLattice:
    """Rank-2 lattice with (s^2) = -2, (s.f) = 1, (f^2) = 0 and h = s + 3f."""
    return PicardLattice([[-2, 1], [1, 0]], [1, 3])


def fermat_quotient_lattice() -> PicardLattice:
    """Rank-1 lattice with (h^2) = 16, the quartic polarization pulled back by O(2)."""
    return PicardLattice([[16]], [1])


@dataclass(frozen=True)
class MukaiVector:
    """v = (r, c1, s) with c1 a coordinate vector in a fixed Picard lattice; all integers."""

    r: int
    c1: tuple[int, ...]
    s: int

    def __post_init__(self):
        object.__setattr__(self, "r", integer(self.r))
        object.__setattr__(self, "c1", integers(self.c1))
        object.__setattr__(self, "s", integer(self.s))

    def dual(self) -> "MukaiVector":
        return MukaiVector(self.r, tuple(-x for x in self.c1), self.s)

    def __add__(self, other: "MukaiVector") -> "MukaiVector":
        if len(self.c1) != len(other.c1):
            raise LatticeError(f"c1 lengths differ: {len(self.c1)} and {len(other.c1)}")
        return MukaiVector(
            self.r + other.r,
            tuple(a + b for a, b in zip(self.c1, other.c1)),
            self.s + other.s,
        )

    def scale(self, k: int) -> "MukaiVector":
        k = integer(k)
        return MukaiVector(k * self.r, tuple(k * x for x in self.c1), k * self.s)

    def is_primitive(self) -> bool:
        return gcd(self.r, self.s, *self.c1) == 1

    def to_json(self) -> dict:
        return {"r": self.r, "c1": list(self.c1), "s": self.s}

    @classmethod
    def from_json(cls, data: dict) -> "MukaiVector":
        try:
            return cls(data["r"], data["c1"], data["s"])
        except (KeyError, TypeError) as exc:
            raise LatticeError(f"bad Mukai vector descriptor ({type(exc).__name__}): {exc}") from exc


def mukai_pairing(lattice: PicardLattice, v: MukaiVector, w: MukaiVector) -> int:
    """<v, w> = r_v s_w - (c1_v . c1_w) + s_v r_w."""
    return v.r * w.s - lattice.intersect(v.c1, w.c1) + v.s * w.r


def hilbert_polynomial(lattice: PicardLattice, v: MukaiVector) -> Coeffs:
    """P(z) = r (h^2)/2 z^2 + (c1 . h) z + r + s for the fixed polarization.

    Every coefficient is an integer, so P is numerical: the form is even
    (PicardLattice rejects an odd diagonal), hence h^2 is even.
    """
    return poly([v.r + v.s, lattice.degree(v.c1), v.r * lattice.h_squared // 2])


def reduced_hilbert_polynomial(p: Coeffs) -> Coeffs:
    """P divided by its leading coefficient (monic normalization); trailing zeros are dropped."""
    if not (p := poly(p)):
        raise LatticeError("reduced Hilbert polynomial of the zero polynomial")
    return tuple(c / p[-1] for c in p)


def degree_and_slope(lattice: PicardLattice, v: MukaiVector):
    """(deg, slope) with slope = deg/r, or the infinity sentinel when r = 0."""
    d = lattice.degree(v.c1)
    if v.r == 0:
        return d, INFINITE_SLOPE
    return d, Fraction(d, v.r)


def poly_leq_eventually(p: Coeffs, q: Coeffs) -> bool:
    """p(z) <= q(z) for z >> 0: sign of the top coefficient of q - p."""
    diff = poly(b - a for a, b in zip_longest(poly(p), poly(q), fillvalue=0))
    return not diff or diff[-1] > 0


@dataclass(frozen=True)
class HypothesisReport:
    """Predicates feeding the smoothness and deformation-type statements."""

    positive_rank: bool
    primitive: bool
    degree: int
    positive_degree: bool
    gcd_r_d_is_one: bool
    gcd_r_d_s_is_one: bool
    generic_polarization: bool
    main_theorem_hypotheses: bool
    smoothness_hypotheses: bool

    def to_json(self) -> dict:
        return asdict(self)


def check_hypotheses(
    lattice: PicardLattice, v: MukaiVector, generic: bool = False
) -> HypothesisReport:
    """Evaluate the numerical hypotheses for v against the fixed polarization.

    Genericity of the polarization is an input flag: wall avoidance is an
    assumption, never computed here.
    """
    return hypotheses_at_degree(v, lattice.degree(v.c1), generic)


def hypotheses_at_degree(v: MukaiVector, d: int, generic: bool) -> HypothesisReport:
    """The hypothesis predicates for v when its degree (c1 . h) is d.

    gcd follows gcd(a, 0) = |a|.
    """
    primitive = v.is_primitive()
    positive_rank = v.r > 0
    gcd_rd = gcd(v.r, d) == 1
    gcd_rds = gcd(gcd(v.r, d), v.s) == 1
    main = positive_rank and primitive and generic and (d > 0 or gcd_rd)
    # the smoothness statement accepts either gcd(r,d,s) = 1 or
    # (primitive + generic polarization)
    smooth = gcd_rds or (primitive and generic)
    return HypothesisReport(
        positive_rank=positive_rank,
        primitive=primitive,
        degree=d,
        positive_degree=d > 0,
        gcd_r_d_is_one=gcd_rd,
        gcd_r_d_s_is_one=gcd_rds,
        generic_polarization=generic,
        main_theorem_hypotheses=main,
        smoothness_hypotheses=smooth,
    )
