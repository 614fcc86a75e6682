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
