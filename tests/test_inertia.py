"""Fixed-point models, the unit identity, and the cyclic presets."""

import runpy
from fractions import Fraction
from math import gcd
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbk3 import inertia
from orbk3.cyclotomic import (
    MAX_PARSED_FIELD_ORDER,
    AmbientFieldError,
    Cyclotomic,
    ExactnessError,
    inverse_one_minus_re,
    sum_inverse_one_minus_cos,
)
from orbk3.groups import Character, abelian_character_table, invariant_dimension
from orbk3.hrr import BUILTIN_CLASSES, EquivariantClass, euler_pairing, moduli_dimension, structure_sheaf_class
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
from orbk3.polyring import ConsistencyError


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


def test_failed_solve_is_a_consistency_error(monkeypatch):
    # an order in range whose solve is not integral: the solver, not its argument, is at fault
    monkeypatch.setattr(inertia, "inverse_one_minus_re", lambda lam: inverse_one_minus_re(lam) * Fraction(3, 2))
    with pytest.raises(ConsistencyError, match="^fixed point solve for n=2 gave non-integer 16/3$") as info:
        solve_fixed_points_cyclic(4)
    assert not isinstance(info.value, ModelError)


def test_identity_all_presets():
    for n in range(2, 9):
        assert validate_identity(preset_cyclic(n)) == 1


def test_identity_trivial_model():
    assert validate_identity(trivial_model()) == 1


def per_sector_identity(model):
    """The definition: one sector weight per sector, summed in Q(zeta_L), L the lcm of the orders."""
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


def value_or_raised(f, *args):
    """(value, raised): an irrational value is read off the ExactnessError."""
    try:
        return f(*args), False
    except ExactnessError as exc:
        return exc.value, True


def assert_identity_is_half_the_structure_sheaf_pairing(model):
    # chi(O, O) on [X/G] is 2 for symplectic G: <(1,0,1)^2>/|G| = 2/|G| untwisted, and each
    # twisted term is half a sector weight, so the pairing is twice the unit identity.  The
    # identity folds one inverse per eigenvalue order; the pairing sums per-sector weights.
    identity, identity_raised = value_or_raised(validate_identity, model)
    structure = structure_sheaf_class(model)
    pairing, pairing_raised = value_or_raised(euler_pairing, model, structure, structure)
    assert identity_raised == pairing_raised
    assert pairing == identity * 2


@pytest.mark.parametrize("n", [1, *range(2, 9)])
def test_identity_is_half_the_structure_sheaf_pairing_on_presets(n):
    model = trivial_model() if n == 1 else preset_cyclic(n)
    assert_identity_is_half_the_structure_sheaf_pairing(model)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.data())
def test_identity_is_half_the_structure_sheaf_pairing_on_json_models(n, data):
    # each sector's eigenvalue moves to a Galois conjugate, shifted by a multiple of its
    # order, and its multiplicity changes: the totals may be irrational
    doc = preset_cyclic(n).to_json()
    for s in doc["sectors"]:
        m = s["eig_order"]
        unit = data.draw(st.sampled_from([u for u in range(1, m) if gcd(u, m) == 1]))
        s["eig_exp"] = s["eig_exp"] * unit % m + m * data.draw(st.integers(-2, 2))
        s["multiplicity"] = data.draw(st.integers(1, 3))
    assert_identity_is_half_the_structure_sheaf_pairing(K3GModel.from_json(doc, validate=False))


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


def test_identity_retains_no_memory(retained_bytes):
    # the seven presets, each also with exponents shifted by multiples of the order and with
    # every eigenvalue moved to a Galois conjugate (11 and 13 are prime to every order, and
    # the totals may be irrational), 20 times over: no accumulator or inverse outlives a call
    models = []
    for n in range(2, 9):
        base = preset_cyclic(n)
        for unit, shift in ((1, 0), (1, -2), (11, 3), (13, -1)):
            sectors = [
                SectorEntry(s.class_index, s.stabilizer_order, s.eig_order, s.eig_exp * unit + shift * s.eig_order, 1)
                for s in base.sectors
            ]
            models.append(K3GModel(base.group, sectors, base.lattice, validate=False))
    assert retained_bytes(outcome, [(validate_identity, model) for model in models] * 20) < 64 * 1024


def stand_in(order, *eigenvalues):
    """What the identity reads of a model: `.group.order`, and one orbit fixed by all of G per
    (eigenvalue order, exponent)."""
    sectors = tuple(SectorEntry(i, order, m, e, 1) for i, (m, e) in enumerate(eigenvalues))
    return SimpleNamespace(group=SimpleNamespace(order=order), sectors=sectors)


def test_identity_raises_where_orders_meet_beyond_the_bound(inverse_calls):
    # 29 and 31 meet in Q(zeta_899), beyond 840: the lcm is checked before any inverse
    with pytest.raises(AmbientFieldError):
        validate_identity(stand_in(899, (29, 1), (31, 1)))
    assert inverse_calls == []


def test_identity_evaluates_when_the_lcm_is_an_eigenvalue_order():
    # lcm(29, 30) = 870 exceeds 840 but is itself an eigenvalue order, so the bound allows
    # Q(zeta_870), which the order-870 term needs anyway; a sum folded pairwise, in sector
    # order, would meet 29 and 30 first and raise AmbientFieldError
    model = stand_in(870, (29, 1), (30, 7), (870, 11))
    expected = Cyclotomic.from_rational(Fraction(1, 870))
    for s in model.sectors:
        expected = expected + (inverse_one_minus_re(s.eigenvalue()) / (4 * 870)).embed(870)
    with pytest.raises(ExactnessError) as exc:
        validate_identity(model)
    assert exc.value.value == expected


def jordan_totient_2(m):
    """J_2(m) = m^2 prod_{p | m} (1 - p^-2), in integers only."""
    j2, rest, p = m * m, m, 2
    while rest > 1:
        if rest % p == 0:
            j2 = j2 // (p * p) * (p * p - 1)
            while rest % p == 0:
                rest //= p
        p += 1
    return j2


def totient_and_mobius(m):
    """(phi(m), mu(m)), in integers only."""
    phi, mu, rest, p = m, 1, m, 2
    while rest > 1:
        if rest % p == 0:
            rest //= p
            phi, mu = phi // p * (p - 1), 0 if rest % p == 0 else -mu
            while rest % p == 0:
                rest //= p
        p += 1
    return phi, mu


def galois_factors(model):
    """m -> F_m, the sum of mult/|G_ij| over the sectors of one eigenvalue zeta_m^e, with no field
    arithmetic; F_m must be the same for every unit e mod m (the model is Galois-closed)."""
    factors = {}
    for s in model.sectors:
        key = (s.eig_order, s.eig_exp % s.eig_order)
        factors[key] = factors.get(key, 0) + Fraction(s.multiplicity, s.stabilizer_order)
    per_order = {}
    for m in {m for m, _ in factors}:
        per_unit = {factors.get((m, e), 0) for e in range(m) if gcd(e, m) == 1}
        assert len(per_unit) == 1, f"not Galois-closed at order {m}"
        per_order[m] = per_unit.pop()
    return per_order


def jordan_closed_form(model):
    """1/|G| + sum_m F_m J_2(m)/24 (`galois_factors`): the identity of a Galois-closed model, since
    the conjugates of zeta_m sum to Tr 1/(1 - Re zeta_m) = J_2(m)/6."""
    total = sum((f * jordan_totient_2(m) for m, f in galois_factors(model).items()), Fraction(0))
    return Fraction(1, model.group.order) + total / 24


@pytest.mark.parametrize("n", range(2, 9))
def test_preset_identity_is_jordans_totient_in_closed_form(n):
    model = preset_cyclic(n)
    assert jordan_closed_form(model) == validate_identity(model) == 1


@st.composite
def galois_closed_multiplicities(draw):
    """|G| in {24, 60, 120}, and a multiplicity f_m for a few orders m | |G| with m <= 30."""
    order = draw(st.sampled_from([24, 60, 120]))
    orders = st.sampled_from([m for m in range(2, 31) if order % m == 0])
    return order, draw(st.dictionaries(orders, st.integers(1, 9), min_size=1, max_size=4))


@settings(max_examples=30, deadline=None)
@given(galois_closed_multiplicities())
def test_galois_closed_identity_is_jordans_totient(order_and_multiplicities):
    # one orbit fixed by all of G per unit e mod m, each with multiplicity f_m: the identity is
    # 1/|G| + sum_m f_m J_2(m) / (24 |G|), an integer oracle that shares no field arithmetic
    order, multiplicities = order_and_multiplicities
    eigenvalues = [(m, e, f) for m, f in multiplicities.items() for e in range(1, m) if gcd(e, m) == 1]
    sectors = tuple(SectorEntry(i, order, m, e, f) for i, (m, e, f) in enumerate(eigenvalues))
    model = SimpleNamespace(group=SimpleNamespace(order=order), sectors=sectors)
    expected = Fraction(1, order)
    expected += sum(Fraction(f * jordan_totient_2(m), 24 * order) for m, f in multiplicities.items())
    assert validate_identity(model) == expected == jordan_closed_form(model)


@pytest.mark.parametrize("n,tx", zip(range(2, 9), [42, 30, 22, 18, 14, 12, 10]))
def test_preset_builtin_dimensions_in_closed_form(n, tx):
    # with T(m) = J_2(m)/6 = sum over the units e of 1/(1 - Re zeta_m^e):
    # <OX, OX> = 2/n + (1/2) sum_m F_m T(m); <Op, Op> = 0, as its twisted entries are 0; and, as
    # (2 Re l)^2/(1 - Re l) = 4/(1 - Re l) - 4 - 4 Re l and the units sum Re zeta_m^e to mu(m),
    # <TX, TX> = -88/n + (1/2) sum_m F_m (4T(m) - 4 phi(m) - 4 mu(m))
    model = preset_cyclic(n)
    terms = [(f, Fraction(jordan_totient_2(m), 6), *totient_and_mobius(m)) for m, f in galois_factors(model).items()]
    pairings = {
        "OX": Fraction(2, n) + sum(f * t for f, t, _, _ in terms) / 2,
        "Op": 0,
        "TX": Fraction(-88, n) + sum(f * (4 * t - 4 * phi - 4 * mu) for f, t, phi, mu in terms) / 2,
    }
    dimensions = {name: 2 - pairing for name, pairing in pairings.items()}
    assert dimensions == {"OX": 0, "Op": 2, "TX": tx}
    assert {name: moduli_dimension(model, BUILTIN_CLASSES[name](model)) for name in dimensions} == dimensions


def test_solver_matches_the_integer_solve():
    # sum_{d | m, d > 1} f_d T(d) = 4(m - 1), times 6: sum f_d J_2(d) = 24(m - 1), solved for
    # m = 2..8 in order, so every divisor 1 < d < m is solved before m
    solved = {}
    for m in range(2, 9):
        known = sum(f * jordan_totient_2(d) for d, f in solved.items() if m % d == 0)
        count, rest = divmod(24 * (m - 1) - known, jordan_totient_2(m))
        assert rest == 0
        solved[m] = count
    assert [solve_fixed_points_cyclic(m) for m in range(2, 9)] == list(solved.values()) == [8, 6, 4, 4, 2, 3, 2]


@pytest.mark.parametrize("n", [210, 420, 720, 839, MAX_PARSED_FIELD_ORDER])
def test_trig_sum_at_large_n_is_a_sum_of_jordans_totients(n):
    # sum_{m | n} J_2(m) = n^2, and m = 1 gives J_2(1) = 1
    closed_form = Fraction(sum(jordan_totient_2(m) for m in range(2, n + 1) if n % m == 0), 6)
    assert sum_inverse_one_minus_cos(n) == closed_form == Fraction(n * n - 1, 6)


def test_identity_inverts_once_per_eigenvalue_order(inverse_calls):
    # 18 sectors carry 7 distinct eigenvalues of orders 2, 4 and 8: one inverse in
    # Q(zeta_m) per order m, of degree phi(m); the other eigenvalues are its Galois conjugates
    model = preset_cyclic(8)
    inverse_calls.clear()
    assert validate_identity(model) == 1
    eigenvalues = {(s.eig_order, s.eig_exp % s.eig_order) for s in model.sectors}
    assert (len(model.sectors), len(eigenvalues), len(inverse_calls)) == (18, 7, 3)
    assert sorted(inverse_calls) == [1, 2, 4]


def test_solver_inverts_once_per_divisor(inverse_calls):
    # one inverse in Q(zeta_m) per divisor m > 1 of 8, of degree phi(m): m = 2, 4, 8,
    # each solved once, smallest first
    assert solve_fixed_points_cyclic(8) == 2
    assert sorted(inverse_calls) == [1, 2, 4]


FIXED_POINT_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "fixed_point_table.py"


def test_fixed_point_script_checks_each_identity_once(capsys, inverse_calls):
    # per order n = 2..8: the solver's d(n) - 1 inverses (12 in all) and one preset built
    # once, with one inverse per eigenvalue order and its Galois conjugates in one
    # `galois_sum`: again d(n) - 1 inverses (12 in all)
    assert runpy.run_path(str(FIXED_POINT_SCRIPT))["main"]() == 0
    assert capsys.readouterr().out.count("1 (ok)") == 7
    assert len(inverse_calls) == 24


def test_fixed_point_script_fails_on_identity_error(capsys, monkeypatch):
    monkeypatch.setattr(inertia, "validate_identity", lambda model: Fraction(2))
    assert runpy.run_path(str(FIXED_POINT_SCRIPT))["main"]() == 1
    assert capsys.readouterr().out.count("2 (MISMATCH)") == 7


def per_class_sums(model):
    """class index -> (sum_p 1/(1 - Re lambda_p), #X^g): an orbit counts |G|/|G_ij| points."""
    sums = {}
    for s, weight in zip(model.sectors, model.sector_weights()):
        total, points = sums.get(s.class_index, (Cyclotomic.zero(), 0))
        sums[s.class_index] = (
            total + weight * model.group.order,
            points + s.multiplicity * model.group.order // s.stabilizer_order,
        )
    return sums


@pytest.mark.parametrize("n", range(2, 9))
def test_preset_satisfies_holomorphic_lefschetz_per_class(n):
    # chi_g(O_X) = sum_p 1/det(1 - dg_p) = 2 for every g != 1, i.e. sum_p 1/(1 - Re lambda_p) = 4
    model = preset_cyclic(n)
    sums = per_class_sums(model)
    assert sorted(sums) == list(range(n - 1))
    assert all(total.as_rational() == 4 for total, _ in sums.values())


@pytest.mark.parametrize("n", range(2, 9))
def test_preset_point_count_per_class(n):
    model = preset_cyclic(n)
    for index, (_, points) in per_class_sums(model).items():
        rep = model.classes[index + 1].representative
        assert points == fixed_points_closed_form(model.group.element_orders[rep])


@pytest.mark.parametrize(
    "n,invariant,orbits", [(2, 16, 8), (3, 12, 12), (4, 10, 14), (5, 8, 16), (6, 8, 16), (7, 6, 18), (8, 6, 18)]
)
def test_preset_orbifold_euler_number_is_24(n, invariant, orbits):
    # the stringy Euler number of the crepant resolution: <chi, 1> + (twisted orbits) = e(Y) = 24,
    # chi the Mukai character, chi(g) = #X^g (Dixon-Harvey-Vafa-Witten 1985; Hirzebruch-Hofer 1990)
    model = preset_cyclic(n)
    group = model.group
    points = [fixed_points_closed_form(group.element_orders[c.representative]) for c in group.classes]
    chi = Character(group, points)
    assert chi.degree() == 24
    assert invariant_dimension(chi) == invariant
    assert sum(s.multiplicity for s in model.sectors) == orbits
    assert invariant + orbits == 24


@pytest.mark.parametrize("n", range(2, 9))
def test_preset_twisted_structure_sheaf_pairings(n):
    # H^0(O) and H^2(O) are trivial representations of a symplectic G, so
    # chi(O, O (x) chi) is 2 for the trivial character and 0 for every other
    model = preset_cyclic(n)
    structure = structure_sheaf_class(model)
    values = []
    for chi in abelian_character_table(model.group):
        twisted = tuple(chi.values[s.class_index + 1] for s in model.sectors)
        values.append(euler_pairing(model, structure, EquivariantClass(structure.mukai, twisted)))
    assert sorted(values) == [0] * (n - 1) + [2]


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
        assert model.group.element_orders[rep] == s.eig_order
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
