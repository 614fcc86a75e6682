"""Equivariant Hilbert schemes of points on [K3/G].

Specialized machinery for the Nikulin-involution case (eight half-points,
classes indexed by (n, m_1..m_8)) plus the general ADE/quiver dimension
formula d = 2n + sum_i D_i^t M_i D_i over negative Cartan matrices, each D^t M D
one call to the integer-form kernel `lattice.integer_form`.  Each mu_2 dimension
is cross-checked against the orbifold Mukai pairing: `dim_mu2` pairs in the
cyclotomic field, `enumerate_mu2` a table in the integer form `hrr._integer_pairings`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import islice
from math import isqrt

from .hrr import OrbifoldMukaiVector, _integer_pairings, orbifold_mukai_pairing
from .inertia import K3GModel, preset_cyclic
from .lattice import MukaiVector, integer_form
from .polyring import ConsistencyError, InputError, integer, integers


class HilbertError(InputError):
    pass


class CrossCheckError(HilbertError, ConsistencyError):
    """Two independent dimension formulas disagree: an internal inconsistency."""


@dataclass(frozen=True)
class HilbClassMu2:
    """Numerical class (n, m_1..m_8) of an equivariant Hilbert scheme for mu_2; all integers."""

    n: int
    m: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "n", integer(self.n))
        object.__setattr__(self, "m", integers(self.m))
        if len(self.m) != 8:
            raise HilbertError("mu_2 class needs exactly 8 orbifold multiplicities")


@cache
def mu2_model() -> K3GModel:
    """The Nikulin involution (cyclic:2), the model of every mu_2 class."""
    return preset_cyclic(2)


def length_mu2(c: HilbClassMu2) -> int:
    """l = 2n + sum m_i, the length of the underlying subscheme of X."""
    return 2 * c.n + sum(c.m)


def _mukai_and_entries_mu2(c: HilbClassMu2) -> tuple[MukaiVector, tuple[int, ...]]:
    """(v, a): the Mukai vector (1, 0, 1 - l) and the integer twisted entries 1 + 4 m_i of (n, m)."""
    v = MukaiVector(1, mu2_model().lattice.zero_class(), 1 - length_mu2(c))
    return v, tuple([1 + 4 * mi for mi in c.m])


def omv_of_class_mu2(c: HilbClassMu2) -> OrbifoldMukaiVector:
    """The class of (n, m), its own orbifold Mukai vector:
    v~(n, m) = (1, 0, 1 - l, 1 + 4 m_1, ..., 1 + 4 m_8).

    Only + (not the 1 - 4 m_i that subtracting basis vectors suggests) fits
    the quadratic dimension formula.
    """
    return OrbifoldMukaiVector(*_mukai_and_entries_mu2(c))


def _checked_dim(c: HilbClassMu2, pairing: Fraction) -> int:
    """d = 2(n - sum m_i^2), the ADE formula on eight A_1 points, once it equals 2 - pairing,
    the pairing being <v~(n,m)^2>."""
    direct = dim_ade(c.n, [(mi,) for mi in c.m], _EIGHT_A1)
    if (via_pairing := 2 - pairing) != direct:
        raise CrossCheckError(
            f"dimension mismatch for {c}: quadratic form {direct}, pairing {via_pairing}"
        )
    return direct


def dim_mu2(c: HilbClassMu2) -> int:
    """d = 2(n - sum m_i^2), cross-checked against 2 - <v~(n,m)^2>."""
    omv = omv_of_class_mu2(c)
    return _checked_dim(c, orbifold_mukai_pairing(mu2_model(), omv, omv))


@dataclass(frozen=True)
class EnumerationRow:
    """All non-empty classes of a given length l with n points off the fixed locus."""

    length: int
    n: int
    count: int
    dims: tuple[int, ...]
    solutions: tuple[tuple[int, ...], ...] = field(repr=False)

    def to_json(self) -> dict:
        return {"l": self.length, "n": self.n, "count": self.count, "dims": list(self.dims)}


def _vectors_with_sum_and_norm(total: int, norm_bound: int, slots: int):
    """All integer vectors of given length with fixed sum and bounded square-sum, in lexicographic order."""
    if slots == 0:
        if total == 0:
            yield ()
        return
    bound = isqrt(norm_bound) if norm_bound >= 0 else -1
    for x in range(-bound, bound + 1):
        rest_norm = norm_bound - x * x
        # Cauchy-Schwarz prune: the remaining sum must be reachable within
        # the remaining square-sum budget
        if (total - x) ** 2 > rest_norm * (slots - 1):
            continue
        for tail in _vectors_with_sum_and_norm(total - x, rest_norm, slots - 1):
            yield (x,) + tail


def enumerate_mu2(length: int) -> list[EnumerationRow]:
    """Exhaustive solution tables S(l, n) = {m : sum m_i = l - 2n, sum m_i^2 <= n}.

    Rows with an empty solution set are omitted; dimensions are listed in the lexicographic
    order in which `_vectors_with_sum_and_norm` yields the solutions.  Every class is cross-checked
    against `dim_ade` as in `dim_mu2`, its pairing from the integer form `hrr._integer_pairings`
    over one evaluation of the sector weights; a negative or odd dimension raises CrossCheckError.
    """
    if (length := integer(length)) < 0:
        raise HilbertError("length must be non-negative")
    table = [(n, sols) for n in range(length + 1)
             if (sols := tuple(_vectors_with_sum_and_norm(length - 2 * n, n, 8)))]
    classes = [HilbClassMu2(n, m) for n, sols in table for m in sols]
    vectors = [_mukai_and_entries_mu2(c) for c in classes]
    dims = iter(map(_checked_dim, classes, _integer_pairings(mu2_model(), zip(vectors, vectors))))
    rows = [EnumerationRow(length, n, len(sols), tuple(islice(dims, len(sols))), sols) for n, sols in table]
    if bad := [(d, r.n, m) for r in rows for d, m in zip(r.dims, r.solutions) if d < 0 or d % 2]:
        raise CrossCheckError("dimension %d of the class n = %d, m = %s is negative or odd" % bad[0])
    return rows


# -- ADE intersection forms and the quiver-variety dimension formula -------


@dataclass(frozen=True)
class ADEForm:
    """Negative Cartan matrix of an ADE root system (exceptional-divisor form); integer entries."""

    kind: str
    rank: int
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "rank", integer(self.rank))
        object.__setattr__(self, "matrix", tuple(integers(row) for row in self.matrix))
        if self.matrix != _cartan_matrix(self.kind, self.rank):
            raise HilbertError(f"matrix is not the negative Cartan matrix of {self.kind}{self.rank}")

    def pair(self, a: tuple[int, ...], b: tuple[int, ...]) -> int:
        return integer_form(
            self.matrix, a, b, HilbertError, "divisor vector length does not match the form rank"
        )


def _ade_edges(kind: str, rank: int) -> list[tuple[int, int]]:
    if kind == "A":
        if rank < 1:
            raise HilbertError("type A requires rank >= 1")
        return [(i, i + 1) for i in range(rank - 1)]
    if kind == "D":
        if rank < 4:
            raise HilbertError("type D requires rank >= 4")
        return [(i, i + 1) for i in range(rank - 2)] + [(rank - 3, rank - 1)]
    if kind == "E":
        if rank not in (6, 7, 8):
            raise HilbertError("type E requires rank 6, 7 or 8")
        # chain 0-1-2-...-(rank-2) with the last node attached to node 2
        return [(i, i + 1) for i in range(rank - 2)] + [(2, rank - 1)]
    raise HilbertError(f"unknown ADE type {kind!r}")


def _cartan_matrix(kind: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """The intersection form: -2 on the diagonal, +1 for adjacent nodes."""
    mat = [[-2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j in _ade_edges(kind, rank):
        mat[i][j] = mat[j][i] = 1
    return tuple(tuple(row) for row in mat)


def ade_form(kind: str, rank: int) -> ADEForm:
    """The ADE form of the given type and rank."""
    return ADEForm(kind, rank, _cartan_matrix(kind, integer(rank)))


_EIGHT_A1 = (ade_form("A", 1),) * 8  # the eight A_1 points of the Nikulin involution


def dim_ade(n: int, divisors, forms) -> int:
    """d = 2n + sum_i mu_i(D_i^2) over the orbifold points."""
    divisors, forms = list(divisors), list(forms)
    if len(divisors) != len(forms):
        raise HilbertError("one divisor vector per ADE form required")
    return 2 * integer(n) + sum(form.pair(d, d) for d, form in zip(divisors, forms))
