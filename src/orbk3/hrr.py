"""Orbifold Mukai vectors and the orbifold Mukai/Euler pairing for [K3/G].

The pairing is

    <v~, w~> = <v, w>_X / |G|
             + (1/2) sum over orbit families of
               mult * conj(v_ij) * w_ij / (|G_ij| (1 - Re lambda_ij))

with all arithmetic in a cyclotomic field, so results are exact rationals
whenever they are rational (and an ExactnessError otherwise).  The twisted
sum is accumulated once, in Q[x]/(x^L - 1) with L the lcm of the weight and
entry orders, and reduced mod Phi_L once (`cyclotomic.sesquilinear_sum`);
it is then halved and the untwisted term <v, w>_X / |G| added once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .cyclotomic import (
    MAX_PARSED_FIELD_ORDER,
    Cyclotomic,
    format_cyclotomic,
    parse_cyclotomic,
    sesquilinear_sum,
)
from .inertia import K3GModel
from .lattice import MukaiVector, mukai_pairing


class SectorMismatchError(ValueError):
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


@dataclass(frozen=True)
class OrbifoldMukaiVector:
    """(v, (v_ij)): the global Mukai vector plus twisted-sector components."""

    global_part: MukaiVector
    twisted: tuple[Cyclotomic, ...]

    def __post_init__(self):
        object.__setattr__(self, "twisted", tuple(Cyclotomic.coerce(v) for v in self.twisted))


def orbifold_mukai_vector(model: K3GModel, x: EquivariantClass) -> OrbifoldMukaiVector:
    if len(x.local_chars) != len(model.sectors):
        raise SectorMismatchError(
            f"class has {len(x.local_chars)} twisted entries, model has {len(model.sectors)} sectors"
        )
    # the pairing of the class with itself computes in Q(zeta_lcm) of the ambient order and
    # every entry order; bound that field as parsing bounds L
    ambient = model.ambient_order()
    limit = max(ambient, MAX_PARSED_FIELD_ORDER)
    orders = sorted({v.L for v in x.local_chars})
    field = lcm(ambient, *orders)
    if field > limit:
        raise SectorMismatchError(
            f"twisted entries of orders {orders} with ambient order {ambient} need Q(zeta_{field}), "
            f"beyond {limit}"
        )
    return OrbifoldMukaiVector(x.mukai, x.local_chars)


def orbifold_mukai_pairing(
    model: K3GModel, v: OrbifoldMukaiVector, w: OrbifoldMukaiVector
) -> Fraction:
    if len(v.twisted) != len(model.sectors) or len(w.twisted) != len(model.sectors):
        raise SectorMismatchError("orbifold Mukai vectors do not match the model")
    twisted = sesquilinear_sum(zip(model.sector_weights(), v.twisted, w.twisted))
    untwisted = Fraction(mukai_pairing(model.lattice, v.global_part, w.global_part), model.group.order)
    return (twisted * Fraction(1, 2) + untwisted).as_rational()


def euler_pairing(model: K3GModel, x: EquivariantClass, y: EquivariantClass) -> Fraction:
    """chi(x, y) = <v~(x), v~(y)>; an integer for genuine sheaf classes."""
    return orbifold_mukai_pairing(
        model, orbifold_mukai_vector(model, x), orbifold_mukai_vector(model, y)
    )


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
    ambient = model.ambient_order()
    twisted = tuple(
        s.eigenvalue(ambient).real_part() * 2 for s in model.sectors
    )
    return EquivariantClass(MukaiVector(2, model.lattice.zero_class(), -22), twisted)


BUILTIN_CLASSES = {
    "OX": structure_sheaf_class,
    "Op": generic_point_class,
    "TX": tangent_bundle_class,
}
