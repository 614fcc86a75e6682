"""Orbifold Mukai vectors and the orbifold Mukai/Euler pairing for [K3/G].

Every twisted sector of [K3/G] is an isolated fixed point, so the twisted part
of v~(E) is just the local character values of E: a class on [K3/G] is its own
orbifold Mukai vector, and `OrbifoldMukaiVector` is another name for
`EquivariantClass`.  The pairing is

    <v~, w~> = <v, w>_X / |G|
             + (1/2) sum over orbit families of
               mult * conj(v_ij) * w_ij / (|G_ij| (1 - Re lambda_ij))

with all arithmetic in a cyclotomic field, so results are exact rationals
whenever they are rational (and an ExactnessError otherwise).  The twisted
sum is accumulated once, in Q[x]/(x^L - 1) with L the lcm of the weight and
entry orders, and reduced mod Phi_L once (`cyclotomic.galois_sum`, e = -1);
it is then halved and the untwisted term <v, w>_X / |G| added once; this field
path serves every class.  On integer twisted entries, such as those of a
`hilbert.enumerate_mu2` table, `_integer_pairings` evaluates the same pairing as
a rational form, over one reading of the sector weights and with no field arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cyclotomic import Cyclotomic, format_cyclotomic, galois_sum, parse_cyclotomic
from .inertia import K3GModel
from .lattice import MukaiVector, mukai_pairing
from .polyring import InputError, _numerators


class SectorMismatchError(InputError):
    pass


@dataclass(frozen=True)
class EquivariantClass:
    """A numerical class on [K3/G]: global Mukai vector + one local character
    value chi(g_i) per orbit family of the model."""

    mukai: MukaiVector
    local_chars: tuple[Cyclotomic, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "local_chars", tuple(Cyclotomic.coerce(v) for v in self.local_chars)
        )

    def to_json(self) -> dict:
        return {
            "mukai": self.mukai.to_json(),
            "twisted": [format_cyclotomic(v) for v in self.local_chars],
        }

    @classmethod
    def from_json(cls, data: dict) -> "EquivariantClass":
        if not isinstance(data, dict) or "mukai" not in data or not isinstance(data.get("twisted"), list):
            raise SectorMismatchError("class descriptor needs 'mukai' and a 'twisted' list")
        twisted = []
        for i, s in enumerate(data["twisted"]):
            try:
                twisted.append(parse_cyclotomic(s))
            except ValueError as exc:
                raise SectorMismatchError(f"twisted entry {i} ({s!r}): {exc}") from exc
        return cls(MukaiVector.from_json(data["mukai"]), tuple(twisted))


# v~(E) = (v(E), chi_E(g_i)): the twisted part is the local character values themselves
OrbifoldMukaiVector = EquivariantClass


def orbifold_mukai_vector(model: K3GModel, x: EquivariantClass) -> OrbifoldMukaiVector:
    """x itself, once its twisted entries match the sectors of the model."""
    if len(x.local_chars) != len(model.sectors):
        raise SectorMismatchError(
            f"class has {len(x.local_chars)} twisted entries, model has {len(model.sectors)} sectors"
        )
    return x


def orbifold_mukai_pairing(model: K3GModel, v: OrbifoldMukaiVector, w: OrbifoldMukaiVector) -> Fraction:
    v, w, weights = orbifold_mukai_vector(model, v), orbifold_mukai_vector(model, w), model.sector_weights()
    twisted = galois_sum((c, a, -1, b) for c, a, b in zip(weights, v.local_chars, w.local_chars))
    untwisted = Fraction(mukai_pairing(model.lattice, v.mukai, w.mukai), model.group.order)
    return (twisted * Fraction(1, 2) + untwisted).as_rational()


def _integer_pairings(model: K3GModel, pairs) -> list[Fraction]:
    """<v~, w~> for each ((v, a), (w, b)) in pairs, v and w MukaiVectors and a and b integer
    twisted entries, over one evaluation of the sector weights.

    An integer entry is real, so conj(a_s) b_s = a_s b_s, and the pairing is the rational form
    <v, w>_X / |G| + sum P_s a_s b_s / 2D, P_s / D the weights over one denominator D.  A weight
    that is not rational raises ExactnessError.
    """
    P, D = _numerators([Cyclotomic.coerce(c).as_rational() for c in model.sector_weights()])
    pairings = []
    for (v, a), (w, b) in pairs:
        if len(a) != len(P) or len(b) != len(P):
            raise SectorMismatchError(
                f"classes have {len(a)} and {len(b)} twisted entries, model has {len(P)} sectors"
            )
        twisted = sum([p * x * y for p, x, y in zip(P, a, b)])
        untwisted = mukai_pairing(model.lattice, v, w)
        pairings.append(Fraction(2 * D * untwisted + model.group.order * twisted, 2 * D * model.group.order))
    return pairings


def euler_pairing(model: K3GModel, x: EquivariantClass, y: EquivariantClass) -> Fraction:
    """chi(x, y) = <v~(x), v~(y)>; an integer for genuine sheaf classes."""
    return orbifold_mukai_pairing(model, x, y)


def moduli_dimension(model: K3GModel, x: EquivariantClass) -> Fraction:
    """dim M^s = 2 - <v~(x)^2>."""
    return 2 - euler_pairing(model, x, x)


# -- worked classes ------------------------------------------------------


def structure_sheaf_class(model: K3GModel) -> EquivariantClass:
    """O_X: v = (1, 0, 1) with every twisted entry 1."""
    return EquivariantClass(
        MukaiVector(1, model.lattice.zero_class(), 1),
        tuple(Cyclotomic.one() for _ in model.sectors),
    )


def generic_point_class(model: K3GModel) -> EquivariantClass:
    """Structure sheaf of a free orbit: v = (0, 0, |G|), twisted entries 0."""
    return EquivariantClass(
        MukaiVector(0, model.lattice.zero_class(), model.group.order),
        tuple(Cyclotomic.zero() for _ in model.sectors),
    )


def tangent_bundle_class(model: K3GModel) -> EquivariantClass:
    """TX: v = (2, 0, -22); each twisted entry is lambda + lambda^{-1} = 2 Re(lambda)."""
    twisted = tuple(s.eigenvalue().real_part() * 2 for s in model.sectors)
    return EquivariantClass(MukaiVector(2, model.lattice.zero_class(), -22), twisted)


BUILTIN_CLASSES = {
    "OX": structure_sheaf_class,
    "Op": generic_point_class,
    "TX": tangent_bundle_class,
}
