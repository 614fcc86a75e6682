"""Picard lattices, Mukai vectors, Hilbert polynomials, hypothesis predicates."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbk3.lattice import (
    INFINITE_SLOPE,
    LatticeError,
    MukaiVector,
    PicardLattice,
    check_hypotheses,
    degree_and_slope,
    elliptic_k3_lattice,
    fermat_quotient_lattice,
    hilbert_polynomial,
    mukai_pairing,
    poly_leq_eventually,
    reduced_hilbert_polynomial,
)
from orbk3.polyring import poly


def test_lattice_validation():
    with pytest.raises(LatticeError):
        PicardLattice([[1]], [1])  # odd diagonal
    with pytest.raises(LatticeError):
        PicardLattice([[0, 1], [2, 0]], [1, 1])  # not symmetric
    with pytest.raises(LatticeError):
        PicardLattice([[-2]], [1])  # ample class with (h^2) <= 0


def test_elliptic_lattice_basics():
    lat = elliptic_k3_lattice()
    assert lat.intersect((1, 0), (1, 0)) == -2
    assert lat.intersect((1, 0), (0, 1)) == 1
    assert lat.intersect((0, 1), (0, 1)) == 0
    assert lat.h_squared == 4  # h = s + 3f


def test_mukai_pairing_worked_values():
    lat = fermat_quotient_lattice()
    ox = MukaiVector(1, (0,), 1)
    assert mukai_pairing(lat, ox, ox) == 2
    tx = MukaiVector(2, (0,), -22)
    assert mukai_pairing(lat, tx, tx) == -88
    for n in range(0, 12):
        v = MukaiVector(1, (0,), 1 - n)
        assert mukai_pairing(lat, v, v) == 2 - 2 * n
        assert 2 - mukai_pairing(lat, v, v) == 2 * n


vectors = st.builds(
    MukaiVector,
    st.integers(-6, 6),
    st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
    st.integers(-6, 6),
)


@settings(max_examples=60, deadline=None)
@given(vectors, vectors, st.integers(-4, 4))
def test_mukai_pairing_symmetric_bilinear_even(v, w, k):
    lat = elliptic_k3_lattice()
    assert mukai_pairing(lat, v, w) == mukai_pairing(lat, w, v)
    assert mukai_pairing(lat, v.scale(k), w) == k * mukai_pairing(lat, v, w)
    assert mukai_pairing(lat, v + w, w) == mukai_pairing(lat, v, w) + mukai_pairing(lat, w, w)
    assert mukai_pairing(lat, v, v) % 2 == 0


def test_dual_involution():
    v = MukaiVector(3, (1, -2), 5)
    assert v.dual().dual() == v
    lat = elliptic_k3_lattice()
    w = MukaiVector(1, (0, 1), -4)
    assert mukai_pairing(lat, v.dual(), w.dual()) == mukai_pairing(lat, v, w)


def test_sum_needs_equal_c1_lengths():
    assert MukaiVector(1, (1, 2), 0) + MukaiVector(1, (3, 4), -1) == MukaiVector(2, (4, 6), -1)
    with pytest.raises(LatticeError, match="c1 lengths differ"):
        MukaiVector(1, (1, 2), 0) + MukaiVector(1, (1,), 0)


def test_primitivity():
    assert MukaiVector(1, (0,), -3).is_primitive()
    assert not MukaiVector(2, (0,), -22).is_primitive()
    assert MukaiVector(0, (1,), 0).is_primitive()
    assert not MukaiVector(0, (0,), 6).is_primitive()


def test_hilbert_polynomial_fermat():
    lat = fermat_quotient_lattice()
    for n in range(0, 8):
        v = MukaiVector(1, (0,), 1 - n)
        assert hilbert_polynomial(lat, v) == poly([2 - n, 0, 8])


def test_hilbert_polynomial_elliptic_fiber():
    lat = elliptic_k3_lattice()
    # v = (0, h, 0) with h = s + 3f: P(z) = (h^2) z = 4z
    v = MukaiVector(0, (1, 3), 0)
    assert hilbert_polynomial(lat, v) == poly([0, 4])


def test_reduced_hilbert_polynomial():
    assert reduced_hilbert_polynomial(poly([2, 0, 8])) == poly([Fraction(1, 4), 0, 1])
    with pytest.raises(LatticeError):
        reduced_hilbert_polynomial(())


def test_reduced_hilbert_polynomial_drops_trailing_zeros():
    # the leading coefficient is the last nonzero one, not the last entry
    assert reduced_hilbert_polynomial((1, 0)) == (1,)
    assert reduced_hilbert_polynomial((2, 4, 0)) == (Fraction(1, 2), 1)


def test_degree_and_slope():
    lat = fermat_quotient_lattice()
    assert degree_and_slope(lat, MukaiVector(2, (1,), 0)) == (16, 8)
    d, mu = degree_and_slope(lat, MukaiVector(0, (1,), 0))
    assert d == 16 and mu == INFINITE_SLOPE


def test_poly_leq_eventually():
    assert poly_leq_eventually(poly([5, 1]), poly([0, 0, 1]))
    assert not poly_leq_eventually(poly([0, 0, 1]), poly([5, 1]))
    assert poly_leq_eventually(poly([1]), poly([1]))


def test_hypotheses_tangent_bundle_fails_primitivity():
    lat = fermat_quotient_lattice()
    report = check_hypotheses(lat, MukaiVector(2, (0,), -22), generic=True)
    assert not report.primitive
    assert not report.main_theorem_hypotheses


def test_hypotheses_hilbert_vector_passes():
    lat = fermat_quotient_lattice()
    for n in range(1, 6):
        v = MukaiVector(1, (0,), 1 - n)
        report = check_hypotheses(lat, v, generic=True)
        assert report.positive_rank and report.primitive
        assert report.gcd_r_d_is_one  # r = 1
        assert report.main_theorem_hypotheses
        assert report.smoothness_hypotheses


def test_hypotheses_generic_flag_is_required():
    lat = fermat_quotient_lattice()
    v = MukaiVector(1, (0,), 0)
    assert not check_hypotheses(lat, v, generic=False).main_theorem_hypotheses
    assert check_hypotheses(lat, v, generic=True).main_theorem_hypotheses


def test_hypotheses_degree_alternative():
    # d = 0 and gcd(r, 0) = r > 1: the (d > 0 or gcd(r,d) = 1) clause fails
    lat = fermat_quotient_lattice()
    v = MukaiVector(2, (0,), 1)
    report = check_hypotheses(lat, v, generic=True)
    assert report.primitive and not report.gcd_r_d_is_one
    assert not report.main_theorem_hypotheses
    # positive degree rescues it
    w = MukaiVector(2, (1,), 1)
    assert check_hypotheses(lat, w, generic=True).main_theorem_hypotheses


def test_hypotheses_smoothness_either_or():
    lat = fermat_quotient_lattice()
    # gcd(r,d,s) = 1 suffices even without genericity
    v = MukaiVector(2, (0,), 1)
    assert check_hypotheses(lat, v, generic=False).smoothness_hypotheses
    # otherwise primitivity + genericity is needed
    w = MukaiVector(2, (1,), 0)  # gcd(2, 16, 0) = 2
    assert not check_hypotheses(lat, w, generic=False).smoothness_hypotheses
    assert check_hypotheses(lat, w, generic=True).smoothness_hypotheses


def test_json_round_trips():
    lat = elliptic_k3_lattice()
    assert PicardLattice.from_json(lat.to_json()) == lat
    v = MukaiVector(1, (2, -1), 7)
    assert MukaiVector.from_json(v.to_json()) == v
    with pytest.raises(LatticeError):
        PicardLattice.from_json({"gram": [[2]]})
    with pytest.raises(LatticeError):
        MukaiVector.from_json({"r": 1, "s": 2})
