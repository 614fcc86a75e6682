"""Fixed-point data for symplectic actions of finite groups on K3 surfaces.

A model records, per nontrivial conjugacy class, the orbits of the fixed
locus: stabilizer order, the differential's eigenvalue (a primitive root of
unity of the representative's order), and orbit multiplicity.  The built-in
cyclic presets encode the known fixed-point counts and local types of
symplectic automorphisms of order 2..8, and every model can be checked
against the exact unit identity

    1/|G| + (1/4) sum 1/(|G_ij| (1 - Re lambda_ij)) = 1.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields
from fractions import Fraction
from math import gcd

from .cyclotomic import Cyclotomic, ExactnessError, _common_order, _prime_factors, _read_json, galois_sum
from .cyclotomic import inverse_one_minus_re, root_of_unity
from .groups import ConjugacyClass, FiniteGroup, conjugacy_classes, cyclic_group
from .lattice import PicardLattice
from .polyring import ConsistencyError, InputError, integer


class ModelError(InputError):
    pass


class IdentityError(ModelError):
    """The unit identity failed; carries its exact value, rational or not."""

    def __init__(self, value: Fraction | Cyclotomic):
        self.value = value
        super().__init__(f"unit identity failed: got {value}, expected 1")


MAX_SYMPLECTIC_ORDER = 8

# Known fixed-point counts f_n for a symplectic automorphism of order n.
FIXED_POINT_TABLE = {2: 8, 3: 6, 4: 4, 5: 4, 6: 2, 7: 3, 8: 2}


def fixed_points_closed_form(n: int) -> int:
    """f_n = (24/n) * prod_{p | n} (1 + 1/p)^{-1}, exact, for n >= 1."""
    if (n := integer(n)) < 1:
        raise ModelError(f"closed-form fixed point count requires n >= 1, got {n}")
    value = Fraction(24, n)
    for p in _prime_factors(n):
        value /= 1 + Fraction(1, p)
    if value.denominator != 1:
        raise ModelError(f"closed-form fixed point count for n={n} is not integral")
    return int(value)


# The JSON key of each SectorEntry field, in field order.
SECTOR_KEYS = ("class", "stabilizer", "eig_order", "eig_exp", "multiplicity")


@dataclass(frozen=True)
class SectorEntry:
    """One orbit family in a twisted sector.

    eig_order/eig_exp give the eigenvalue zeta_{eig_order}^{eig_exp} of the
    group element's differential on the fixed points; multiplicity counts
    identical orbits.  All five fields are integers (`polyring.integer`).
    """

    class_index: int  # index into the nontrivial conjugacy classes
    stabilizer_order: int
    eig_order: int
    eig_exp: int
    multiplicity: int

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, integer(getattr(self, f.name)))
        if self.stabilizer_order < 1 or self.multiplicity < 1:
            raise ModelError("stabilizer order and multiplicity must be positive")
        if self.eig_order < 2:
            raise ModelError("eigenvalue must be a nontrivial root of unity")
        if gcd(self.eig_exp, self.eig_order) != 1:
            raise ModelError(
                f"eigenvalue exponent {self.eig_exp} not coprime to order {self.eig_order}"
            )

    def eigenvalue(self) -> Cyclotomic:
        return root_of_unity(self.eig_order, self.eig_exp)

    def to_json(self) -> dict:
        return dict(zip(SECTOR_KEYS, astuple(self)))


class K3GModel:
    """A symplectic G-action on K3, at the granularity the pairing consumes."""

    def __init__(
        self,
        group: FiniteGroup,
        sectors,
        lattice: PicardLattice,
        validate: bool = True,
    ):
        self.group = group
        self.classes: tuple[ConjugacyClass, ...] = conjugacy_classes(group)
        self.sectors = tuple(sectors)
        self.lattice = lattice
        n_nontrivial = len(self.classes) - 1
        for s in self.sectors:
            if not (0 <= s.class_index < n_nontrivial):
                raise ModelError(f"sector class index {s.class_index} out of range")
            if group.order % s.stabilizer_order != 0:
                raise ModelError("stabilizer order must divide the group order")
            rep = self.classes[s.class_index + 1].representative
            if group.element_orders[rep] != s.eig_order:
                raise ModelError(
                    "eigenvalue order must equal the order of the class representative"
                )
            if s.stabilizer_order % s.eig_order != 0:
                raise ModelError(
                    f"stabilizer order {s.stabilizer_order} is not a multiple of the eigenvalue"
                    f" order {s.eig_order}: the stabilizer must contain the group element"
                )
        if validate:
            try:
                residual = validate_identity(self)
            except ExactnessError as exc:  # an irrational value is a failed identity too
                residual = exc.value
            if residual != 1:
                raise IdentityError(residual)

    def sector_weights(self) -> tuple[Cyclotomic, ...]:
        """mult / (|G_ij| (1 - Re lambda_ij)) per sector, each in the field of its eigenvalue.

        The orbifold pairing sums over these.  The unit identity sums the Galois conjugates of one
        inverse per eigenvalue order instead, and the tests sum these weights as its reference.
        """
        return tuple(
            inverse_one_minus_re(s.eigenvalue()) * Fraction(s.multiplicity, s.stabilizer_order)
            for s in self.sectors
        )

    def to_json(self) -> dict:
        return {
            "group": self.group.to_json(),
            "lattice": self.lattice.to_json(),
            "sectors": [s.to_json() for s in self.sectors],
        }

    @classmethod
    def from_json(cls, data: dict, validate: bool = True) -> "K3GModel":
        try:
            group, lattice = data["group"], data["lattice"]
            sectors = [SectorEntry(*(raw[key] for key in SECTOR_KEYS)) for raw in data["sectors"]]
        except (KeyError, TypeError) as exc:
            raise ModelError(f"bad model descriptor ({type(exc).__name__}): {exc}") from exc
        return cls(FiniteGroup.from_json(group), sectors, PicardLattice.from_json(lattice), validate)


def load_model(path: str, validate: bool = True) -> K3GModel:
    """The model in a JSON file; ModelError if the file cannot be read or decoded (`_read_json`)."""
    return K3GModel.from_json(_read_json(path, "model", ModelError), validate=validate)


def trivial_model() -> K3GModel:
    """The trivial group acting on K3: no twisted sectors."""
    return K3GModel(cyclic_group(1), (), _default_lattice())


def _default_lattice() -> PicardLattice:
    # minimal rank-1 polarized lattice; the preset identities never consume it
    return PicardLattice([[2]], [1])


def _exact_stabilizer_counts(n: int) -> dict[int, int]:
    """t_d = number of points whose stabilizer is exactly the order-d subgroup.

    Inverts f_m = sum over d with m | d | n of t_d, descending over divisors.
    """
    divs = [d for d in range(2, n + 1) if n % d == 0]
    t: dict[int, int] = {}
    for d in sorted(divs, reverse=True):
        t[d] = FIXED_POINT_TABLE[d] - sum(t[e] for e in divs if e > d and e % d == 0)
    return t


# Local types of the points fixed by all of Z/n (Nikulin 1979): g acts on the tangent
# plane at such a point as (zeta_n^a, zeta_n^-a), one a per point.  Other points, and
# every point for the orders not listed, have type a = 1.
LOCAL_TYPES = {5: (1, 1, 2, 2), 7: (1, 2, 4), 8: (1, 3)}


def preset_cyclic(n: int) -> K3GModel:
    """The model for a symplectic automorphism of order n, 2 <= n <= 8.

    Points with stabilizer of exact order d contribute t_d * d / n orbits
    with |G_ij| = d to the sector of every power fixing them.  An orbit of
    local type a (`LOCAL_TYPES`) gives g^k the eigenvalue zeta_n^(k*a) there,
    so every g != 1 satisfies the holomorphic Lefschetz formula
    sum_p 1/(1 - Re lambda_p) = 4.
    """
    if not (2 <= integer(n) <= MAX_SYMPLECTIC_ORDER):
        raise ModelError(f"cyclic preset requires 2 <= n <= {MAX_SYMPLECTIC_ORDER}")
    t = _exact_stabilizer_counts(n)
    sectors = []
    for k in range(1, n):
        order_k = n // gcd(n, k)
        for d, count in sorted(t.items()):
            if count == 0 or d % order_k != 0:
                continue  # these points are not fixed by g^k
            orbits = count * d // n
            assert count * d % n == 0
            types = LOCAL_TYPES.get(n, ()) if d == n else ()
            # one entry per orbit, so equivariant classes carry one twisted
            # component per fixed-point orbit
            sectors.extend(
                SectorEntry(
                    class_index=k - 1,
                    stabilizer_order=d,
                    eig_order=order_k,
                    eig_exp=(k // gcd(n, k)) * a % order_k,
                    multiplicity=1,
                )
                for a in types or (1,) * orbits
            )
    return K3GModel(cyclic_group(n), sectors, _default_lattice())


def validate_identity(model: K3GModel) -> Fraction:
    """Exact value of 1/|G| + (1/4) sum 1/(|G_ij| (1 - Re lambda_ij)).

    The factors mult/|G_ij| are summed per eigenvalue zeta_m^e, and each order m costs one
    inverse u_m = 1/(1 - Re zeta_m) in Q(zeta_m), whose Galois conjugate sigma_e(u_m) is the
    term of zeta_m^e: one `cyclotomic.galois_sum` adds (factor/4) * sigma_e(u_m) to 1/|G| and
    reduces once mod Phi_L, L the lcm of the eigenvalue orders, which is bounded
    (`_common_order`) before any inverse.  An irrational total raises ExactnessError.
    """
    factors: dict[int, dict[int, Fraction]] = {}  # m -> e mod m -> sum of mult/|G_ij|
    for s in model.sectors:
        by_exp = factors.setdefault(s.eig_order, {})
        exp = s.eig_exp % s.eig_order
        by_exp[exp] = by_exp.get(exp, 0) + Fraction(s.multiplicity, s.stabilizer_order)
    _common_order(list(factors))
    u = {m: inverse_one_minus_re(root_of_unity(m)) for m in factors}
    terms = [(factor / 4, u[m], exp, 1) for m, by_exp in factors.items() for exp, factor in by_exp.items()]
    return galois_sum([(Fraction(1, model.group.order), 1, 1, 1), *terms]).as_rational()


def solve_fixed_points_cyclic(n: int) -> int:
    """Recover f_n from the unit identity alone.

    The sector of g^k contributes s_k / (4n (1 - cos(2 pi k/n))) where s_k is
    the number of points fixed by g^k, which depends only on the order m of
    g^k.  The g^k of order m carry the Galois conjugates of zeta_m, so their
    terms sum to f_m T(m), T(m) = Tr_{Q(zeta_m)/Q} 1/(1 - Re zeta_m): one
    inverse per divisor m.  The identity for g^(n/m), of order m, reads
    sum_{d | m, d > 1} f_d T(d) = 4(m - 1); the divisors are solved smallest first.  An order
    outside 2..8 raises ModelError, a count that is not a positive integer ConsistencyError.
    """
    if not (2 <= integer(n) <= MAX_SYMPLECTIC_ORDER):
        raise ModelError(f"solver requires 2 <= n <= {MAX_SYMPLECTIC_ORDER}")
    solved: dict[int, tuple[Fraction, int]] = {}  # m -> (T(m), f_m)
    for m in (d for d in range(2, n + 1) if n % d == 0):
        weight = inverse_one_minus_re(root_of_unity(m)).trace()
        known = sum(t * f for d, (t, f) in solved.items() if m % d == 0)
        count = (4 * (m - 1) - known) / weight
        if count.denominator != 1 or count <= 0:
            raise ConsistencyError(f"fixed point solve for n={m} gave non-integer {count}")
        solved[m] = weight, int(count)
    return solved[n][1]
