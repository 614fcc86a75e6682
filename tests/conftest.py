"""Fixtures shared by the test modules."""

import gc
import sys
import tracemalloc
from collections.abc import Iterator

import pytest

import orbk3
from orbk3 import cyclotomic, lattice, polyring


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


def _record_calls(monkeypatch, kernel, record) -> list:
    """A list that gets record(*args) for every call to kernel under each name it is imported by
    (`_patch_everywhere`); an iterator argument is read into a list first, so that record and the
    kernel both see all of it."""
    calls = []

    def counted(*args):
        args = [list(x) if isinstance(x, Iterator) else x for x in args]
        calls.append(record(*args))
        return kernel(*args)

    _patch_everywhere(monkeypatch, kernel, counted)
    return calls


@pytest.fixture
def inverse_calls(monkeypatch) -> list:
    """The field degree of every call to the one inversion kernel, `poly_inverse_mod(A, M)`:
    A a residue's integer numerator and M the modulus's, so the degree is len(M) - 1."""
    return _record_calls(monkeypatch, polyring.poly_inverse_mod, lambda A, M: len(M) - 1)


@pytest.fixture
def galois_sum_calls(monkeypatch) -> list:
    """The terms, as a list, of every call to the one twisted-sum kernel, `cyclotomic.galois_sum`."""
    return _record_calls(monkeypatch, cyclotomic.galois_sum, list)


@pytest.fixture
def mul_calls(monkeypatch) -> list:
    """The operand lengths of every call to the one multiplication kernel, `poly_mul`."""
    return _record_calls(monkeypatch, polyring.poly_mul, lambda p, q: (len(p), len(q)))


@pytest.fixture
def fold_calls(monkeypatch) -> list:
    """(e, n) of every call to the one substitution kernel, `poly_fold`, so a hand-written
    x -> x^e in place of a call shows up as a missing call."""
    return _record_calls(monkeypatch, polyring.poly_fold, lambda p, e, n: (e, n))


@pytest.fixture
def form_calls(monkeypatch) -> list:
    """The rank of M in every call to the one integer-form kernel, `lattice.integer_form`, so a
    hand-written sum of a_i M_ij b_j in place of a call shows up as a missing call."""
    return _record_calls(monkeypatch, lattice.integer_form, lambda M, a, b, error, message: len(M))


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
