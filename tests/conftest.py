"""Fixtures shared by the test modules."""

import pytest

from orbk3 import polyring


@pytest.fixture
def inverse_calls(monkeypatch) -> list:
    """The field degree of every call to the one inversion kernel, `poly_inverse_mod`."""
    calls, inverse = [], polyring.poly_inverse_mod

    def counted(a, m):
        calls.append(len(m) - 1)
        return inverse(a, m)

    monkeypatch.setattr(polyring, "poly_inverse_mod", counted)
    return calls


@pytest.fixture
def mul_calls(monkeypatch) -> list:
    """The operand lengths of every call to the one multiplication kernel, `poly_mul`."""
    calls, mul = [], polyring.poly_mul

    def counted(p, q):
        calls.append((len(p), len(q)))
        return mul(p, q)

    monkeypatch.setattr(polyring, "poly_mul", counted)
    return calls
