"""A second implementation of the orbifold pairing on sympy's number fields.

The oracle reads only a preset's `to_json()` payload and computes in sympy's
Q(zeta_L) = `QQ.algebraic_field(exp(2 pi i/L))`, L the lcm of the eigenvalue
orders, with no arithmetic of orbk3: the unit identity

    1/|G| + (1/4) sum mult / (|G_ij| (1 - Re lambda_ij)) = 1

and dim = 2 - <v~, v~> for O_X, a free orbit O_p and TX, where

    <v~, w~> = <v, w>_X / |G| + (1/2) sum mult * conj(v_ij) * w_ij / (|G_ij| (1 - Re lambda_ij)).
"""

from fractions import Fraction
from math import lcm

import pytest

from orbk3.hrr import BUILTIN_CLASSES, moduli_dimension
from orbk3.inertia import preset_cyclic

sympy = pytest.importorskip("sympy")
QQ = sympy.QQ

# dim of O_X, O_p and TX on cyclic:2..8: the golden `dim` outputs
DIMENSIONS = {
    2: (0, 2, 42), 3: (0, 2, 30), 4: (0, 2, 22), 5: (0, 2, 18), 6: (0, 2, 14), 7: (0, 2, 12), 8: (0, 2, 10),
}


def _rational(a) -> Fraction:
    """A ground element of a sympy algebraic field as a Fraction; anything else fails."""
    assert a.is_ground, a
    c = a.LC() if a.rep else QQ(0)
    return Fraction(int(c.numerator), int(c.denominator))


def _oracle(data: dict) -> tuple[Fraction, tuple[Fraction, ...]]:
    """(unit identity, (dim O_X, dim O_p, dim TX)) of a model payload, in sympy's Q(zeta_L)."""
    order, sectors = data["group"]["order"], data["sectors"]
    L = lcm(*[s["eig_order"] for s in sectors])
    K = QQ.algebraic_field(sympy.exp(2 * sympy.pi * sympy.I / L))
    zeta = K.convert(K.ext)
    real_parts, weights = [], []
    for s in sectors:
        k = s["eig_exp"] * (L // s["eig_order"]) % L
        re = (zeta**k + zeta ** ((L - k) % L)) * QQ(1, 2)
        real_parts.append(re)
        weights.append(K.one / ((K.one - re) * QQ(s["stabilizer"], s["multiplicity"])))
    unit = QQ(1, order) + sum(weights, K.zero) * QQ(1, 4)

    def dimension(r, s, twisted):
        # c1 = 0, so <v, v>_X = 2rs; every twisted entry is real, so conj(a) * a = a^2
        twisted_sum = sum((w * a * a for w, a in zip(weights, twisted)), K.zero)
        return 2 - _rational(QQ(2 * r * s, order) + twisted_sum * QQ(1, 2))

    return _rational(unit), (
        dimension(1, 1, [K.one] * len(sectors)),
        dimension(0, order, [K.zero] * len(sectors)),
        dimension(2, -22, [re * 2 for re in real_parts]),
    )


@pytest.mark.parametrize("n", sorted(DIMENSIONS))
def test_presets_match_the_sympy_oracle(n):
    model = preset_cyclic(n)
    unit, dims = _oracle(model.to_json())
    assert unit == 1
    assert dims == DIMENSIONS[n]
    assert tuple(moduli_dimension(model, BUILTIN_CLASSES[name](model)) for name in ("OX", "Op", "TX")) == dims
