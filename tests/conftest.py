"""Fixtures shared by the test modules."""

import gc
import sys
import tracemalloc

import pytest

import orbk3
from orbk3 import polyring


@pytest.fixture(scope="session")
def exported_callables() -> dict:
    """name -> callable: every callable orbk3 exports other than an exception class, and
    the classmethods of its exported classes (their alternative constructors) as `Class.name`."""
    out = {}
    for name, value in vars(orbk3).items():
        if name.startswith("_") or not callable(value):
            continue
        if isinstance(value, type) and issubclass(value, BaseException):
            continue
        out[name] = value
        if isinstance(value, type):
            for attr, raw in vars(value).items():
                if isinstance(raw, classmethod):
                    out[f"{name}.{attr}"] = getattr(value, attr)
    return out


def _patch_everywhere(monkeypatch, original, replacement) -> None:
    """Put replacement in place of original under every name an orbk3 module holds it by,
    found by identity, so a module that imports a kernel by name is counted wherever it moves."""
    for name, module in list(sys.modules.items()):
        if name == "orbk3" or name.startswith("orbk3."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, replacement)


@pytest.fixture
def inverse_calls(monkeypatch) -> list:
    """The field degree of every call to the one inversion kernel, `poly_inverse_mod(A, M)`:
    A a residue's integer numerator and M the modulus's, so the degree is len(M) - 1."""
    calls, inverse = [], polyring.poly_inverse_mod

    def counted(A, M):
        calls.append(len(M) - 1)
        return inverse(A, M)

    _patch_everywhere(monkeypatch, inverse, counted)
    return calls


@pytest.fixture
def mul_calls(monkeypatch) -> list:
    """The operand lengths of every call to the one multiplication kernel, `poly_mul`, under each
    name it is imported by."""
    calls, mul = [], polyring.poly_mul

    def counted(p, q):
        calls.append((len(p), len(q)))
        return mul(p, q)

    _patch_everywhere(monkeypatch, mul, counted)
    return calls


@pytest.fixture
def fold_calls(monkeypatch) -> list:
    """(e, n) of every call to the one substitution kernel, `poly_fold`, under each name it is
    imported by, so a hand-written x -> x^e in place of a call shows up as a missing call."""
    calls, fold = [], polyring.poly_fold

    def counted(p, e, n):
        calls.append((e, n))
        return fold(p, e, n)

    _patch_everywhere(monkeypatch, fold, counted)
    return calls


@pytest.fixture
def retained_bytes():
    """fn, inputs -> memory still traced after fn(*args) for every args in inputs and a collection."""

    def measure(fn, inputs):
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for args in inputs:
                fn(*args)
            gc.collect()
            return tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()

    return measure
