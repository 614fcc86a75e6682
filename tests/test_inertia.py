"""Fixed-point models, the unit identity, and the cyclic presets."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbk3.cyclotomic import Cyclotomic, ExactnessError
from orbk3.inertia import (
    FIXED_POINT_TABLE,
    IdentityError,
    K3GModel,
    ModelError,
    SectorEntry,
    fixed_points_closed_form,
    preset_cyclic,
    solve_fixed_points_cyclic,
    trivial_model,
    validate_identity,
)


def test_table_matches_closed_form():
    for n, f in FIXED_POINT_TABLE.items():
        assert fixed_points_closed_form(n) == f


def test_solver_reproduces_table():
    assert [solve_fixed_points_cyclic(n) for n in range(2, 9)] == [8, 6, 4, 4, 2, 3, 2]


def test_solver_rejects_out_of_range():
    for n in (1, 9):
        with pytest.raises(ModelError):
            solve_fixed_points_cyclic(n)
    with pytest.raises(ModelError):
        preset_cyclic(9)


def test_identity_all_presets():
    for n in range(2, 9):
        assert validate_identity(preset_cyclic(n)) == 1


def test_identity_trivial_model():
    assert validate_identity(trivial_model()) == 1


def per_sector_identity(model):
    """The definition: one sector weight per sector, summed in Q(zeta_ambient)."""
    total = Cyclotomic.from_rational(Fraction(1, model.group.order))
    for weight in model.sector_weights():
        total = total + weight * Fraction(1, 4)
    return total.as_rational()


def outcome(identity, model):
    """The value, or the ExactnessError text, which prints the irrational total."""
    try:
        return identity(model)
    except ExactnessError as exc:
        return str(exc)


@pytest.mark.parametrize("n", [1, *range(2, 9)])
def test_identity_matches_the_per_sector_sum_on_presets(n):
    model = trivial_model() if n == 1 else preset_cyclic(n)
    assert validate_identity(model) == per_sector_identity(model) == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.data())
def test_identity_matches_the_per_sector_sum_on_json_models(n, data):
    # each sector gets another primitive root (so the total may be irrational), an
    # exponent shifted by a multiple of its order (negative, or >= the order) and
    # another multiplicity; equal eigenvalues repeat across sectors
    doc = preset_cyclic(n).to_json()
    for s in doc["sectors"]:
        m = s["eig_order"]
        unit = data.draw(st.sampled_from([u for u in range(1, m) if gcd(u, m) == 1]))
        s["eig_exp"] = s["eig_exp"] * unit % m + m * data.draw(st.integers(-2, 2))
        s["multiplicity"] = data.draw(st.integers(1, 3))
    model = K3GModel.from_json(doc, validate=False)
    assert outcome(validate_identity, model) == outcome(per_sector_identity, model)


def test_identity_with_negative_and_large_exponents_of_one_eigenvalue():
    # zeta_4^-1 = zeta_4^3 = zeta_4^7 = zeta_4^-5: one eigenvalue written four ways
    base = preset_cyclic(4)
    sectors = [
        SectorEntry(s.class_index, s.stabilizer_order, s.eig_order, s.eig_exp + shift * s.eig_order, 1)
        for s in base.sectors
        for shift in (-2, -1, 1, 2)
    ]
    model = K3GModel(base.group, sectors, base.lattice, validate=False)
    assert validate_identity(model) == per_sector_identity(model)


def test_identity_inverts_once_per_distinct_eigenvalue(inverse_calls):
    model = preset_cyclic(8)
    inverse_calls.clear()
    assert validate_identity(model) == 1
    eigenvalues = {(s.eig_order, s.eig_exp % s.eig_order) for s in model.sectors}
    assert (len(model.sectors), len(eigenvalues), len(inverse_calls)) == (18, 7, 7)


def test_solver_inverts_once_per_divisor(inverse_calls):
    # one inverse in Q(zeta_m) per divisor m > 1 of 8, of degree phi(m): m = 2, 4, 8,
    # each solved once, smallest first
    assert solve_fixed_points_cyclic(8) == 2
    assert sorted(inverse_calls) == [1, 2, 4]


@pytest.mark.parametrize("n", [0, -1, -3])
def test_closed_form_rejects_nonpositive_order(n):
    with pytest.raises(ModelError, match="requires n >= 1"):
        fixed_points_closed_form(n)


def test_preset_mu2_structure():
    model = preset_cyclic(2)
    assert len(model.sectors) == 8  # one per fixed point of the involution
    assert all(s.stabilizer_order == 2 and s.eig_order == 2 for s in model.sectors)
    assert all(s.multiplicity == 1 for s in model.sectors)


def test_preset_mu4_orbit_structure():
    # g fixes 4 points of stabilizer 4; g^2 fixes those plus 4 more points of
    # stabilizer 2 forming 2 free g-orbits of size 2
    model = preset_cyclic(4)
    by_class = {}
    for s in model.sectors:
        by_class.setdefault(s.class_index, []).append(s)
    assert len(by_class[0]) == 4 and len(by_class[2]) == 4  # g and g^3
    g2 = by_class[1]
    assert sorted(s.stabilizer_order for s in g2) == [2, 2, 4, 4, 4, 4]


def test_sector_entry_validation():
    with pytest.raises(ModelError):
        SectorEntry(0, 2, 4, 2, 1)  # exponent not coprime to order
    with pytest.raises(ModelError):
        SectorEntry(0, 2, 1, 0, 1)  # trivial eigenvalue
    with pytest.raises(ModelError):
        SectorEntry(0, 0, 2, 1, 1)  # bad stabilizer


def test_corrupted_model_fails_identity():
    good = preset_cyclic(3)
    bad_sectors = list(good.sectors)
    bad_sectors[0] = SectorEntry(
        class_index=bad_sectors[0].class_index,
        stabilizer_order=bad_sectors[0].stabilizer_order,
        eig_order=bad_sectors[0].eig_order,
        eig_exp=bad_sectors[0].eig_exp,
        multiplicity=2,  # duplicate one orbit
    )
    with pytest.raises(IdentityError) as exc_info:
        K3GModel(good.group, bad_sectors, good.lattice)
    assert exc_info.value.value != 1
    # validate=False defers the check
    model = K3GModel(good.group, bad_sectors, good.lattice, validate=False)
    assert validate_identity(model) != 1


def test_model_sector_consistency_checks():
    good = preset_cyclic(2)
    wrong_order = [
        SectorEntry(s.class_index, s.stabilizer_order, 4, 1, s.multiplicity)
        for s in good.sectors
    ]
    with pytest.raises(ModelError):
        K3GModel(good.group, wrong_order, good.lattice, validate=False)
    out_of_range = [SectorEntry(5, 2, 2, 1, 1)]
    with pytest.raises(ModelError):
        K3GModel(good.group, out_of_range, good.lattice, validate=False)


def test_identity_invariant_under_exponent_rebalancing():
    # order 8: pairing the eigenvalues zeta_8 and zeta_8^3 inside each sector
    # of the four order-8 classes leaves the identity at exactly 1
    base = preset_cyclic(8)
    sectors = []
    for s in base.sectors:
        if s.eig_order == 8:
            continue
        sectors.append(s)
    for k in (1, 3, 5, 7):
        sectors.append(SectorEntry(k - 1, 8, 8, 1, 1))
        sectors.append(SectorEntry(k - 1, 8, 8, 3, 1))
    model = K3GModel(base.group, sectors, base.lattice, validate=False)
    assert validate_identity(model) == 1


def test_model_json_round_trip():
    model = preset_cyclic(4)
    data = model.to_json()
    back = K3GModel.from_json(data)
    assert back.group == model.group
    assert back.sectors == model.sectors
    assert back.lattice == model.lattice


def test_model_json_schema_errors():
    model = preset_cyclic(2)
    data = model.to_json()
    del data["sectors"]
    with pytest.raises(ModelError):
        K3GModel.from_json(data)
    data = model.to_json()
    del data["sectors"][0]["eig_exp"]
    with pytest.raises(ModelError):
        K3GModel.from_json(data)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 8))
def test_preset_eigenvalues_are_primitive(n):
    model = preset_cyclic(n)
    for s in model.sectors:
        rep = model.classes[s.class_index + 1].representative
        assert model.group.element_order(rep) == s.eig_order
        # eigenvalue is a primitive eig_order-th root of unity
        lam = s.eigenvalue()
        assert lam ** s.eig_order == 1
        for k in range(1, s.eig_order):
            assert lam ** k != 1


def test_sector_weights_sum():
    # total weight of fixed points in the g-sector is f_n for the preset
    for n in range(2, 9):
        model = preset_cyclic(n)
        weight = sum(
            Fraction(s.multiplicity * s.stabilizer_order, 1)
            for s in model.sectors
            if s.class_index == 0
        )
        # each orbit of stabilizer d holds n/d points, each counted once:
        points = sum(
            s.multiplicity * n // s.stabilizer_order
            for s in model.sectors
            if s.class_index == 0
        )
        assert points == FIXED_POINT_TABLE[n]
        assert weight >= points
