"""Equivariant Hilbert classes for the involution case and ADE forms."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbk3.hilbert import (
    EnumerationRow,
    HilbClassMu2,
    HilbertError,
    ade_form,
    dim_ade,
    dim_mu2,
    enumerate_mu2,
    length_mu2,
    mu2_model,
    omv_of_class_mu2,
)
from orbk3.hrr import euler_pairing, moduli_dimension
from orbk3.inertia import K3GModel


def test_class_validation():
    with pytest.raises(HilbertError):
        HilbClassMu2(1, (0,) * 7)


def test_length():
    assert length_mu2(HilbClassMu2(0, (0,) * 8)) == 0
    assert length_mu2(HilbClassMu2(3, (1, -1, 2, 0, 0, 0, 0, 0))) == 8


def test_omv_worked_examples():
    c = HilbClassMu2(0, (0,) * 8)
    omv = omv_of_class_mu2(c)
    assert (omv.mukai.r, omv.mukai.s) == (1, 1)
    assert all(v == 1 for v in omv.local_chars)

    c = HilbClassMu2(1, (0,) * 8)
    omv = omv_of_class_mu2(c)
    assert omv.mukai.s == -1
    assert all(v == 1 for v in omv.local_chars)

    c = HilbClassMu2(1, (-1,) + (0,) * 7)
    omv = omv_of_class_mu2(c)
    assert omv.mukai.s == 0  # l = 2 - 1 = 1, s = 1 - l
    assert omv.local_chars[0] == -3
    assert all(v == 1 for v in omv.local_chars[1:])


def test_dim_worked_examples():
    assert dim_mu2(HilbClassMu2(0, (0,) * 8)) == 0
    assert dim_mu2(HilbClassMu2(1, (0,) * 8)) == 2
    assert dim_mu2(HilbClassMu2(1, (1,) + (0,) * 7)) == 0
    assert dim_mu2(HilbClassMu2(3, (1, 1, 1) + (0,) * 5)) == 0
    assert dim_mu2(HilbClassMu2(4, (1, -1) + (0,) * 6)) == 4


def test_enumeration_small_lengths():
    by_length = {l: enumerate_mu2(l) for l in range(4)}
    assert [(r.n, r.count, r.dims) for r in by_length[0]] == [(0, 1, (0,))]
    assert [(r.n, r.count, r.dims) for r in by_length[1]] == [(1, 8, (0,) * 8)]
    assert [(r.n, r.count) for r in by_length[2]] == [(1, 1), (2, 28)]
    assert by_length[2][0].dims == (2,)
    assert set(by_length[2][1].dims) == {0}
    assert [(r.n, r.count) for r in by_length[3]] == [(1, 8), (2, 8), (3, 56)]


def test_enumeration_length_three_detail():
    rows = {r.n: r for r in enumerate_mu2(3)}
    # n = 1: one m_i = +1, dims 2(1 - 1) = 0
    assert rows[1].count == 8 and set(rows[1].dims) == {0}
    assert all(sorted(m) == [0] * 7 + [1] for m in rows[1].solutions)
    # n = 2: one m_i = -1, dims 2(2 - 1) = 2
    assert rows[2].count == 8 and rows[2].dims == (2,) * 8
    # n = 3: three entries -1, C(8,3) = 56 solutions of dimension 0
    assert rows[3].count == 56 and set(rows[3].dims) == {0}
    assert all(sorted(m) == [-1] * 3 + [0] * 5 for m in rows[3].solutions)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 10),
    st.lists(st.integers(-3, 3), min_size=8, max_size=8),
)
def test_dimension_cross_check(n, m):
    c = HilbClassMu2(n, tuple(m))
    # dim_mu2 raises internally if the two formulas disagree
    d = dim_mu2(c)
    assert d == 2 * (n - sum(x * x for x in m))
    assert d % 2 == 0


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 8),
    st.lists(st.integers(-2, 2), min_size=8, max_size=8),
)
def test_dim_agrees_with_moduli_dimension(n, m):
    c = HilbClassMu2(n, tuple(m))
    model = mu2_model()
    cls = omv_of_class_mu2(c)
    assert moduli_dimension(model, cls) == dim_mu2(c)
    assert euler_pairing(model, cls, cls) == 2 - dim_mu2(c)


def test_enumeration_matches_per_class_dimensions():
    # the table's one batch of pairings against one dim_mu2 per class and the quadratic form
    for length in range(7):
        rows = enumerate_mu2(length)
        per_class = [
            EnumerationRow(length, r.n, r.count, tuple(dim_mu2(HilbClassMu2(r.n, m)) for m in r.solutions),
                           r.solutions)
            for r in rows
        ]
        direct = [
            EnumerationRow(length, r.n, len(r.solutions),
                           tuple(2 * (r.n - sum(x * x for x in m)) for m in r.solutions), r.solutions)
            for r in rows
        ]
        assert rows == per_class == direct, length


def test_one_weight_evaluation_per_table_and_per_class(monkeypatch):
    calls, weights = [], K3GModel.sector_weights

    def counted(model):
        calls.append(model)
        return weights(model)

    mu2_model()  # the cached model is built before the count starts
    monkeypatch.setattr(K3GModel, "sector_weights", counted)
    for length in range(7):
        calls.clear()
        enumerate_mu2(length)
        assert len(calls) == 1, length
    # a single class evaluates the weights itself, every time: nothing is kept between calls
    calls.clear()
    c = HilbClassMu2(1, (0,) * 8)
    dim_mu2(c)
    dim_mu2(c)
    enumerate_mu2(2)
    assert len(calls) == 3


def test_enumeration_negative_length():
    with pytest.raises(HilbertError):
        enumerate_mu2(-1)


# -- ADE forms --------------------------------------------------------------


def test_a1_form():
    form = ade_form("A", 1)
    assert form.matrix == ((-2,),)
    assert form.pair((1,), (1,)) == -2


def test_a3_form_and_dim():
    form = ade_form("A", 3)
    assert form.pair((1, 1, 1), (1, 1, 1)) == -2
    for n in range(0, 5):
        assert dim_ade(n, [(1, 1, 1)], [form]) == 2 * n - 2


def test_d4_form():
    form = ade_form("D", 4)
    # node 1 is the center: three neighbours
    row_degrees = sorted(sum(1 for x in row if x == 1) for row in form.matrix)
    assert row_degrees == [1, 1, 1, 3]


def test_e8_form_unimodular():
    form = ade_form("E", 8)
    mat = [list(row) for row in form.matrix]
    # integer determinant by fraction-free elimination on the negative matrix
    from fractions import Fraction

    m = [[Fraction(-x) for x in row] for row in mat]  # Cartan matrix of E8
    det = Fraction(1)
    for i in range(8):
        pivot = next(r for r in range(i, 8) if m[r][i] != 0)
        if pivot != i:
            m[i], m[pivot] = m[pivot], m[i]
            det = -det
        det *= m[i][i]
        for r in range(i + 1, 8):
            factor = m[r][i] / m[i][i]
            for ccol in range(8):
                m[r][ccol] -= factor * m[i][ccol]
    assert det == 1


def test_eight_a1_reproduce_mu2_dimension():
    forms = [ade_form("A", 1)] * 8
    c = HilbClassMu2(4, (1, -1, 0, 0, 0, 0, 1, 0))
    divisors = [(mi,) for mi in c.m]
    assert dim_ade(c.n, divisors, forms) == dim_mu2(c)


def test_ade_validation():
    with pytest.raises(HilbertError):
        ade_form("D", 3)
    with pytest.raises(HilbertError):
        ade_form("E", 5)
    with pytest.raises(HilbertError):
        ade_form("F", 4)
    with pytest.raises(HilbertError):
        dim_ade(1, [(1,)], [])
