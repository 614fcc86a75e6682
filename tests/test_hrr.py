"""The orbifold Mukai pairing and worked Euler characteristics."""

from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbk3.cyclotomic import Cyclotomic, ExactnessError, euler_phi, root_of_unity
from orbk3.hrr import (
    EquivariantClass,
    SectorMismatchError,
    euler_pairing,
    generic_point_class,
    moduli_dimension,
    orbifold_mukai_pairing,
    orbifold_mukai_vector,
    structure_sheaf_class,
    tangent_bundle_class,
)
from orbk3.inertia import preset_cyclic, trivial_model
from orbk3.lattice import MukaiVector, mukai_pairing


def test_tangent_bundle_worked_values():
    model = preset_cyclic(2)
    tx = tangent_bundle_class(model)
    assert euler_pairing(model, tx, tx) == -40
    assert moduli_dimension(model, tx) == 42

    trivial = trivial_model()
    tx0 = tangent_bundle_class(trivial)
    assert euler_pairing(trivial, tx0, tx0) == -88
    assert moduli_dimension(trivial, tx0) == 90


def test_structure_sheaf_and_point_classes():
    for model in (trivial_model(), preset_cyclic(2), preset_cyclic(3)):
        ox = structure_sheaf_class(model)
        op = generic_point_class(model)
        assert euler_pairing(model, ox, ox) == 2
        assert moduli_dimension(model, ox) == 0
        assert euler_pairing(model, op, op) == 0
        assert moduli_dimension(model, op) == 2
        assert euler_pairing(model, ox, op) == 1


def test_pairing_reduces_to_mukai_for_trivial_group():
    model = trivial_model()
    v = EquivariantClass(MukaiVector(3, model.lattice.zero_class(), -5), ())
    w = EquivariantClass(MukaiVector(1, model.lattice.zero_class(), 2), ())
    from orbk3.lattice import mukai_pairing

    assert euler_pairing(model, v, w) == mukai_pairing(model.lattice, v.mukai, w.mukai)


def test_sector_mismatch():
    model = preset_cyclic(2)
    short = EquivariantClass(MukaiVector(1, model.lattice.zero_class(), 1), (1, 1))
    with pytest.raises(SectorMismatchError):
        euler_pairing(model, short, short)


def _random_class(model, data):
    # rational twisted entries, so all pairings land in Q
    scalars = st.integers(-5, 5)
    mukai = MukaiVector(
        data.draw(scalars), model.lattice.zero_class(), data.draw(scalars)
    )
    twisted = tuple(data.draw(scalars) for _ in model.sectors)
    return EquivariantClass(mukai, twisted)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([2, 3, 4, 6]), st.data())
def test_pairing_sesquilinear_and_hermitian_on_rationals(n, data):
    model = preset_cyclic(n)
    x = _random_class(model, data)
    y = _random_class(model, data)
    z = _random_class(model, data)
    # additivity in the second slot
    y_plus_z = EquivariantClass(
        y.mukai + z.mukai, tuple(a + b for a, b in zip(y.local_chars, z.local_chars))
    )
    assert euler_pairing(model, x, y_plus_z) == euler_pairing(model, x, y) + euler_pairing(
        model, x, z
    )
    # rational scaling in either slot
    kx = EquivariantClass(x.mukai.scale(3), tuple(v * 3 for v in x.local_chars))
    assert euler_pairing(model, kx, y) == 3 * euler_pairing(model, x, y)
    assert euler_pairing(model, y, kx) == 3 * euler_pairing(model, y, x)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([2, 3, 4, 6]), st.data())
def test_pairing_symmetric_when_values_real(n, data):
    model = preset_cyclic(n)
    # real twisted entries: conjugation acts trivially, so the form is symmetric
    scalars = st.integers(-5, 5)
    def real_class():
        return EquivariantClass(
            MukaiVector(data.draw(scalars), model.lattice.zero_class(), data.draw(scalars)),
            tuple(data.draw(scalars) for _ in model.sectors),
        )
    x, y = real_class(), real_class()
    assert euler_pairing(model, x, y) == euler_pairing(model, y, x)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([3, 4, 6]), st.data())
def test_self_pairing_with_unit_twists_is_rational(n, data):
    model = preset_cyclic(n)
    ambient = model.ambient_order()
    twisted = tuple(
        root_of_unity(ambient) ** data.draw(st.integers(0, ambient - 1))
        for _ in model.sectors
    )
    x = EquivariantClass(MukaiVector(1, model.lattice.zero_class(), 0), twisted)
    value = euler_pairing(model, x, x)  # conj(z) z = 1 in every sector
    assert isinstance(value, Fraction)


def test_irrational_pairing_raises():
    from orbk3.cyclotomic import ExactnessError

    model = preset_cyclic(3)
    twisted = [1] * len(model.sectors)
    twisted[0] = root_of_unity(3)
    x = EquivariantClass(MukaiVector(1, model.lattice.zero_class(), 1), tuple(twisted))
    with pytest.raises(ExactnessError):
        euler_pairing(model, x, structure_sheaf_class(model))


def test_self_pairing_of_builtin_classes_is_rational_integer():
    for n in range(2, 9):
        model = preset_cyclic(n)
        for cls in (structure_sheaf_class, generic_point_class, tangent_bundle_class):
            value = euler_pairing(model, cls(model), cls(model))
            assert isinstance(value, Fraction)
            assert value.denominator == 1


def test_equivariant_class_json_round_trip():
    model = preset_cyclic(3)
    tx = tangent_bundle_class(model)
    back = EquivariantClass.from_json(tx.to_json())
    assert back == tx
    with pytest.raises(SectorMismatchError):
        EquivariantClass.from_json({"mukai": {"r": 1, "c1": [0], "s": 1}})


def test_orbifold_mukai_vector_shape():
    model = preset_cyclic(2)
    ox = structure_sheaf_class(model)
    omv = orbifold_mukai_vector(model, ox)
    assert omv.global_part == ox.mukai
    assert len(omv.twisted) == 8
    assert orbifold_mukai_pairing(model, omv, omv) == 2


def _pairing_term_by_term(model, v, w):
    # the reference: one conjugate, three ring multiplies and one reduction per sector
    total = Cyclotomic.from_rational(
        Fraction(mukai_pairing(model.lattice, v.global_part, w.global_part), model.group.order)
    )
    half = Fraction(1, 2)
    for weight, vij, wij in zip(model.sector_weights(), v.twisted, w.twisted):
        total = total + vij.conjugate() * wij * weight * half
    return total.as_rational()


_cached_preset = cache(preset_cyclic)
_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def _twisted_entries(L):
    coeffs = st.lists(_rationals, min_size=euler_phi(L), max_size=euler_phi(L))
    return coeffs.map(lambda cs: Cyclotomic(L, cs))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8), st.booleans(), st.data())
def test_pairing_matches_the_sum_term_by_term(n, self_pairing, data):
    model = _cached_preset(n)
    ambient = model.ambient_order()
    entries = st.one_of(
        _rationals,
        st.sampled_from([1, 2, 3, 4, ambient]).flatmap(_twisted_entries),
        st.integers(0, ambient - 1).map(lambda k: root_of_unity(ambient, k)),
    )

    def omv():
        mukai = MukaiVector(data.draw(st.integers(-5, 5)), model.lattice.zero_class(), data.draw(st.integers(-5, 5)))
        return orbifold_mukai_vector(
            model, EquivariantClass(mukai, tuple(data.draw(entries) for _ in model.sectors))
        )

    v = omv()
    w = v if self_pairing else omv()
    try:
        expected = _pairing_term_by_term(model, v, w)
    except ExactnessError as exc:
        # an irrational value: the same error, naming the same element of the same field
        with pytest.raises(ExactnessError) as got:
            orbifold_mukai_pairing(model, v, w)
        assert str(got.value) == str(exc)
        return
    assert orbifold_mukai_pairing(model, v, w) == expected
