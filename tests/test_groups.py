"""Group, conjugacy, and character-theory tests."""

import json
import random
import time
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orbk3.groups as groups_module
from orbk3.cyclotomic import Cyclotomic, ExactnessError, euler_phi, root_of_unity
from orbk3.groups import (
    Character,
    FiniteGroup,
    GroupError,
    abelian_character_table,
    char_inner_product,
    char_inner_product_elementwise,
    character_table_from_json,
    character_table_to_json,
    conjugacy_classes,
    cyclic_group,
    direct_product,
    invariant_dimension,
    regular_character,
    symmetric_group_s3,
    trivial_character,
    validate_orthogonality,
)
from orbk3.inertia import preset_cyclic

ABELIAN_GROUPS = [
    cyclic_group(1),
    cyclic_group(2),
    cyclic_group(3),
    cyclic_group(4),
    cyclic_group(6),
    direct_product(cyclic_group(2), cyclic_group(2)),
    direct_product(cyclic_group(2), cyclic_group(4)),
    direct_product(cyclic_group(3), cyclic_group(4)),
    direct_product(cyclic_group(2), cyclic_group(6)),
]


def s3_character_table():
    g = symmetric_group_s3()
    # classes in deterministic order: {e}, {r, r2}, {s, sr, sr2}
    return (
        trivial_character(g),
        Character(g, [1, 1, -1]),
        Character(g, [2, -1, 0]),
    )


def test_cayley_validation():
    with pytest.raises(GroupError):
        FiniteGroup([[0, 1], [1, 1]])  # 1 has no inverse
    with pytest.raises(GroupError):
        FiniteGroup([[0, 0], [0, 0]])  # no identity


def test_cyclic_group_structure():
    g = cyclic_group(6)
    assert g.order == 6
    assert g.element_order(1) == 6
    assert g.element_order(2) == 3
    assert g.exponent() == 6
    assert g.is_abelian()


def test_s3_conjugacy_classes():
    g = symmetric_group_s3()
    classes = conjugacy_classes(g)
    assert classes[0].members == (0,)
    sizes = [len(c.members) for c in classes]
    assert sorted(sizes) == [1, 2, 3]
    # brute-force centralizer oracle
    for c in classes:
        rep = c.representative
        centralizer = sum(
            1 for h in range(g.order) if g.mul(h, rep) == g.mul(rep, h)
        )
        assert centralizer == c.centralizer_order


def test_class_equation():
    for g in ABELIAN_GROUPS + [symmetric_group_s3()]:
        classes = conjugacy_classes(g)
        assert sum(len(c.members) for c in classes) == g.order


@pytest.mark.parametrize("g", ABELIAN_GROUPS, ids=lambda g: f"order{g.order}")
def test_abelian_table_orthonormal(g):
    table = abelian_character_table(g)
    assert len(table) == g.order
    validate_orthogonality(table)
    for chi in table:
        assert chi.degree() == 1


def test_abelian_table_mu4_explicit():
    table = abelian_character_table(cyclic_group(4))
    i = root_of_unity(4)
    value_sets = {tuple(ch.values) for ch in table}
    one = i ** 0
    expected = {
        (one, one, one, one),
        (one, i, -one, -i),
        (one, -one, one, -one),
        (one, -i, -one, i),
    }
    assert value_sets == expected


def test_two_pairing_forms_agree():
    groups = [g for g in ABELIAN_GROUPS if g.order <= 12] + [symmetric_group_s3()]
    for g in groups:
        if g.is_abelian():
            table = abelian_character_table(g)
        else:
            table = s3_character_table()
        for chi in table:
            for psi in table:
                assert char_inner_product(chi, psi) == char_inner_product_elementwise(chi, psi)


SMALL_GROUPS = [g for g in ABELIAN_GROUPS if g.order <= 12] + [symmetric_group_s3()]


@st.composite
def class_function_value(draw, orders):
    """A rational (order None) or an element of Q(zeta_L), L in orders; few are roots of unity."""
    rational = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    L = draw(st.sampled_from(orders))
    if L is None:
        return draw(rational)
    return Cyclotomic(L, draw(st.lists(rational, min_size=euler_phi(L), max_size=euler_phi(L))))


def _pairing_outcome(pairing, chi, psi):
    """The rational value of the pairing, or the irrational value its ExactnessError carries."""
    try:
        return "rational", pairing(chi, psi)
    except ExactnessError as exc:
        return "irrational", exc.value


# S3 has centralizer orders 6, 2 and 3, so its class form rescales three partial sums.
# Rational class functions (orders None, 1, 2) give the rational branch.
@settings(max_examples=100, deadline=None)
@given(st.sampled_from(SMALL_GROUPS), st.sampled_from([(None, 1, 2), (None, 1, 2, 3, 4, 6, 12)]), st.data())
def test_two_pairing_forms_agree_on_class_functions(g, orders, data):
    values = st.lists(class_function_value(orders), min_size=len(g.classes), max_size=len(g.classes))
    chi, psi = Character(g, data.draw(values)), Character(g, data.draw(values))
    expected = _pairing_outcome(char_inner_product_elementwise, chi, psi)
    assert _pairing_outcome(char_inner_product, chi, psi) == expected


# One ring multiply per class and one rescale per distinct centralizer order:
# Z/12 has 12 classes and one order, S3 has 3 classes and orders 6, 2 and 3.
@pytest.mark.parametrize("g, bound", [(cyclic_group(12), 13), (symmetric_group_s3(), 6)], ids=["Z12", "S3"])
def test_class_form_rescales_once_per_centralizer_order(mul_calls, g, bound):
    table = abelian_character_table(g) if g.is_abelian() else s3_character_table()
    mul_calls.clear()
    assert char_inner_product(table[1], table[-1]) == 0
    orders = {c.centralizer_order for c in g.classes}
    assert len(mul_calls) <= len(g.classes) + len(orders) == bound


def test_s3_table_orthogonality():
    validate_orthogonality(s3_character_table())


def test_orthogonality_pairs_each_unordered_pair_once(monkeypatch):
    table = abelian_character_table(direct_product(cyclic_group(2), cyclic_group(6)))
    calls = []

    def counting(chi, psi):
        calls.append((chi, psi))
        return char_inner_product(chi, psi)

    monkeypatch.setattr(groups_module, "char_inner_product", counting)
    validate_orthogonality(table)
    assert len(calls) == 12 * 13 // 2 == 78


@pytest.mark.parametrize(
    "row2, message",
    [
        ([2, 2, 0], "character table fails orthogonality at (0,2): 1"),
        # orthogonal to the trivial row, so the first failing pair is (1,2)
        ([2, 2, -2], "character table fails orthogonality at (1,2): 2"),
    ],
)
def test_corrupted_table_names_its_first_failing_pair(row2, message):
    table = s3_character_table()
    with pytest.raises(GroupError) as info:
        validate_orthogonality((*table[:2], Character(table[0].group, row2)))
    assert str(info.value) == message


def test_dual_is_involution_and_conjugation():
    for g in ABELIAN_GROUPS[1:]:
        for chi in abelian_character_table(g):
            assert chi.dual().dual() == chi
            assert chi.dual().values == tuple(v.conjugate() for v in chi.values)


def test_regular_character_decomposition():
    g = cyclic_group(4)
    reg = regular_character(g)
    for chi in abelian_character_table(g):
        assert char_inner_product(chi, reg) == 1
    assert invariant_dimension(reg) == 1


def test_invariant_dimension():
    g = cyclic_group(5)
    assert invariant_dimension(trivial_character(g)) == 1
    assert invariant_dimension(regular_character(g)) == 1
    table = abelian_character_table(g)
    nontrivial = [ch for ch in table if ch != trivial_character(g)]
    assert all(invariant_dimension(ch) == 0 for ch in nontrivial)
    # a non-integral class function is rejected
    with pytest.raises(GroupError):
        invariant_dimension(Character(g, [Fraction(1, 2)] * 5))


def test_character_products():
    g = cyclic_group(3)
    table = abelian_character_table(g)
    # the table is closed under multiplication (it is the dual group)
    for chi in table:
        for psi in table:
            assert chi * psi in table


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(ABELIAN_GROUPS[1:]), st.data())
def test_inner_product_semilinearity(g, data):
    table = abelian_character_table(g)
    chi = data.draw(st.sampled_from(table))
    psi = data.draw(st.sampled_from(table))
    phi = data.draw(st.sampled_from(table))
    lhs = char_inner_product(chi, psi + phi)
    assert lhs == char_inner_product(chi, psi) + char_inner_product(chi, phi)


def test_character_table_json_round_trip():
    table = abelian_character_table(direct_product(cyclic_group(2), cyclic_group(3)))
    data = character_table_to_json(table)
    back = character_table_from_json(data)
    assert back == table


def test_character_table_json_rejects_broken_table():
    table = s3_character_table()
    data = character_table_to_json(table)
    data["characters"][2][1] = data["characters"][2][0]  # break orthogonality
    with pytest.raises(GroupError):
        character_table_from_json(data)


def test_group_json_round_trip():
    g = symmetric_group_s3()
    assert FiniteGroup.from_json(g.to_json()) == g
    bad = g.to_json()
    bad["order"] = 7
    with pytest.raises(GroupError):
        FiniteGroup.from_json(bad)


def test_nonassociative_loop_is_rejected():
    # a Latin square with identity 0 and two-sided inverses, but (1*2)*3 != 1*(2*3)
    loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    with pytest.raises(GroupError, match="not associative"):
        FiniteGroup(loop)


def _identity_and_inverses(table) -> bool:
    n = len(table)
    ids = [e for e in range(n) if all(table[e][j] == j == table[j][e] for j in range(n))]
    return bool(ids) and all(
        any(table[i][j] == ids[0] == table[j][i] for j in range(n)) for i in range(n)
    )


def _is_group_by_triple_loop(table) -> bool:
    """Reference: identity, two-sided inverses, associativity over all n^3 triples."""
    n = len(table)
    return _identity_and_inverses(table) and all(
        table[table[a][b]][c] == table[a][table[b][c]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


def _accepted(table) -> bool:
    try:
        FiniteGroup(table)
    except GroupError:
        return False
    return True


def _relabel(table, perm):
    inv = {p: i for i, p in enumerate(perm)}
    return [[inv[table[p][q]] for q in perm] for p in perm]


SMALL_GROUPS = ABELIAN_GROUPS + [symmetric_group_s3()]


@pytest.mark.parametrize(
    "group", SMALL_GROUPS, ids=[f"{i}-order{g.order}" for i, g in enumerate(SMALL_GROUPS)]
)
def test_generator_associativity_check_matches_triple_loop(group):
    n = group.order
    rng = random.Random(n)
    base = [list(row) for row in group.cayley]
    tables = [base]
    for _ in range(10):
        # swap two products in one row, away from the identity row, column and value:
        # identity and inverses survive, associativity usually does not
        t = [row[:] for row in base]
        a, b, c = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        if group.identity not in (a, b, c, t[a][b], t[a][c]):
            t[a][b], t[a][c] = t[a][c], t[a][b]
        perm = rng.sample(range(n), n)
        tables += [t, _relabel(base, perm), _relabel(t, perm)]
    for t in tables:
        assert _accepted(t) == _is_group_by_triple_loop(t)
    assert all(_accepted(t) for t in tables[2::3])  # relabelled groups stay groups
    if n >= 4:
        # some perturbed table reaches the associativity check and fails it
        assert any(_identity_and_inverses(t) and not _accepted(t) for t in tables)


# -- conjugacy data is computed once per group and matches brute force ------


def _relabelled(g: FiniteGroup, seed: int) -> FiniteGroup:
    perm = random.Random(seed).sample(range(g.order), g.order)
    return FiniteGroup(_relabel([list(row) for row in g.cayley], perm))


CLASS_DATA_GROUPS = SMALL_GROUPS + [
    _relabelled(g, 10 * i + k) for i, g in enumerate(ABELIAN_GROUPS[2:]) for k in range(2)
] + [_relabelled(direct_product(cyclic_group(3), cyclic_group(6)), 99)]


def _closure(g: FiniteGroup, gens) -> set[int]:
    reached, todo = {g.identity}, [g.identity]
    for y in todo:
        for x in gens:
            if g.mul(y, x) not in reached:
                reached.add(g.mul(y, x))
                todo.append(g.mul(y, x))
    return reached


Z2_Z2 = direct_product(cyclic_group(2), cyclic_group(2))
GENERATOR_GROUPS = CLASS_DATA_GROUPS + [
    cyclic_group(60),
    direct_product(cyclic_group(2), cyclic_group(30)),
    direct_product(Z2_Z2, Z2_Z2),
    direct_product(symmetric_group_s3(), cyclic_group(2)),
    _relabelled(direct_product(symmetric_group_s3(), cyclic_group(2)), 4),
    _relabelled(symmetric_group_s3(), 8),
]


@pytest.mark.parametrize(
    "g", GENERATOR_GROUPS, ids=[f"{i}-order{g.order}" for i, g in enumerate(GENERATOR_GROUPS)]
)
def test_generator_chain(g):
    """The generators reach G, each lies outside what the ones before it reach,
    and testing their pairs for commutation agrees with testing all pairs."""
    gens = g.generators
    assert _closure(g, gens) == set(range(g.order))
    for i, x in enumerate(gens):
        assert x not in _closure(g, gens[:i])
    pairs = range(g.order)
    assert g.is_abelian() == all(g.mul(a, b) == g.mul(b, a) for a in pairs for b in pairs)


def _brute_class_data(table):
    """Classes, inverse classes and element orders straight from a Cayley table."""
    n = len(table)
    e = next(x for x in range(n) if all(table[x][y] == y for y in range(n)))
    inv = [next(y for y in range(n) if table[x][y] == e) for x in range(n)]
    conj = [frozenset(table[table[h][x]][inv[h]] for h in range(n)) for x in range(n)]
    orders = []
    for x in range(n):
        k, cur = 1, x
        while cur != e:
            cur, k = table[cur][x], k + 1
        orders.append(k)
    exponent = next(m for m in range(1, n + 1) if all(m % k == 0 for k in orders))
    return conj, inv, orders, exponent


@pytest.mark.parametrize(
    "g", CLASS_DATA_GROUPS, ids=[f"{i}-order{g.order}" for i, g in enumerate(CLASS_DATA_GROUPS)]
)
def test_class_data_matches_brute_force(g):
    conj, inv, orders, exponent = _brute_class_data(g.cayley)
    classes = conjugacy_classes(g)
    assert classes is conjugacy_classes(g) is g.classes
    assert classes[0].members == (g.identity,)
    for x in range(g.order):
        # the element -> class index picks the class that is x's conjugacy class
        assert set(classes[g.class_of[x]].members) == conj[x]
        assert g.element_order(x) == orders[x]
    for k, c in enumerate(classes):
        assert g.class_of[c.representative] == k
        assert inv[c.representative] in classes[g.inverse_class[k]].members
    assert g.element_orders == tuple(orders)
    assert g.exponent() == exponent


@pytest.mark.parametrize("n", range(2, 9))
def test_model_classes_are_the_groups_classes(n):
    model = preset_cyclic(n)
    assert model.classes is conjugacy_classes(model.group)


def test_partition_computed_once_per_group(monkeypatch):
    calls = []
    partition = groups_module._conjugacy_partition

    def counting(g):
        calls.append(g)
        return partition(g)

    monkeypatch.setattr(groups_module, "_conjugacy_partition", counting)
    g = direct_product(cyclic_group(2), cyclic_group(4))
    table = abelian_character_table(g)
    chi, psi = table[3], table[5]
    assert (chi * psi).dual() + chi * 2 == (chi * psi).dual() + 2 * chi
    assert char_inner_product(chi.dual(), psi) == char_inner_product_elementwise(chi.dual(), psi)
    assert invariant_dimension(regular_character(g) + trivial_character(g)) == 2
    assert calls == [g]
    # a second group computes its own partition, once
    s3_table = s3_character_table()
    validate_orthogonality(s3_table)
    assert calls == [g, s3_table[0].group]


@pytest.mark.parametrize(
    "g",
    [
        _relabelled(direct_product(cyclic_group(2), cyclic_group(30)), 7),
        cyclic_group(60),
    ],
    ids=["relabelled-Z2xZ30", "Z60"],
)
def test_large_table_gram_rows_are_identity(g):
    # The full 60x60 Gram matrix under both forms takes 30-100 s at 4-14 ms
    # per pairing (either form, with host load; 2-vCPU x86-64, Python 3.11.7), so
    # this checks the Gram row of a character of maximal order, not its own dual.
    table = abelian_character_table(g)
    assert len(table) == g.order == 60
    # a linear character of order m takes exactly the m values of mu_m
    chi = next(ch for ch in table if len(set(ch.values)) == g.exponent())
    assert chi.dual() != chi
    for pairing in (char_inner_product, char_inner_product_elementwise):
        assert [pairing(chi, psi) for psi in table] == [int(psi == chi) for psi in table]


@pytest.mark.parametrize("g", [cyclic_group(12), direct_product(cyclic_group(2), cyclic_group(6))])
def test_small_table_full_gram_matrix_is_identity(g):
    table = abelian_character_table(_relabelled(g, 5))
    for pairing in (char_inner_product, char_inner_product_elementwise):
        gram = [[pairing(chi, psi) for psi in table] for chi in table]
        assert gram == [[int(i == j) for j in range(len(table))] for i in range(len(table))]


def test_character_table_json_is_unchanged():
    expected = json.loads((Path(__file__).parent / "data" / "character_tables.json").read_text())
    assert character_table_to_json(abelian_character_table(cyclic_group(12))) == expected["cyclic_12"]
    z2_z6 = direct_product(cyclic_group(2), cyclic_group(6))
    assert character_table_to_json(abelian_character_table(z2_z6)) == expected["c2_x_c6"]
    z2_z2_z6 = direct_product(direct_product(cyclic_group(2), cyclic_group(2)), cyclic_group(6))
    assert character_table_to_json(abelian_character_table(z2_z2_z6)) == expected["c2_x_c2_x_c6"]
    z4_z6 = _relabelled(direct_product(cyclic_group(4), cyclic_group(6)), 3)
    assert character_table_to_json(abelian_character_table(z4_z6)) == expected["c4_x_c6_relabelled_3"]


# -- externally supplied tables must be complete ------------------------------


def test_incomplete_table_is_rejected():
    g = symmetric_group_s3()
    one_row = (trivial_character(g),)
    with pytest.raises(GroupError, match="one row per conjugacy class"):
        validate_orthogonality(one_row)
    with pytest.raises(GroupError, match="one row per conjugacy class"):
        character_table_from_json(character_table_to_json(one_row))
    with pytest.raises(GroupError):
        validate_orthogonality(())


def test_empty_table_is_rejected():
    data = character_table_to_json(s3_character_table())
    data["characters"] = []
    with pytest.raises(GroupError):
        character_table_from_json(data)
    with pytest.raises(GroupError):
        character_table_to_json(())


@pytest.mark.parametrize("key", ["group", "characters"])
def test_table_descriptor_missing_key_is_rejected(key):
    data = character_table_to_json(s3_character_table())
    del data[key]
    with pytest.raises(GroupError, match=key):
        character_table_from_json(data)
    with pytest.raises(GroupError):
        character_table_from_json([])


@pytest.mark.parametrize("rows", [5, [5], [[5]], ["c[1]: 1"], [["1/0"]], [["c[0]: 1"]]])
def test_malformed_table_rows_raise_group_error(rows):
    data = character_table_to_json(abelian_character_table(cyclic_group(1)))
    data["characters"] = rows
    with pytest.raises(GroupError):
        character_table_from_json(data)


def test_rows_meeting_beyond_840_raise_group_error_at_once():
    # each value parses alone; together they would build Phi_703082
    data = character_table_to_json(abelian_character_table(cyclic_group(2)))
    data["characters"][0] = ["c[839]: 1", "c[838]: 1"]
    start = time.perf_counter()
    with pytest.raises(GroupError, match=r"orthogonality check: orders \[838, 839\] meet in Q\(zeta_703082\)"):
        character_table_from_json(data)
    assert time.perf_counter() - start < 2.0


def test_irrational_inner_product_raises_group_error():
    data = character_table_to_json(abelian_character_table(cyclic_group(3)))
    data["characters"][1] = ["1", "c[3]: 1*z", "1"]
    message = r"orthogonality check: not a rational element: c\[3\]: -1/3 \+ -2/3\*z"
    with pytest.raises(GroupError, match=message):
        character_table_from_json(data)


@pytest.mark.parametrize("labels", ["ab", {"a": 1, "b": 2}, [[1], [2]], ["a"], ["a", 2], []])
def test_labels_must_be_a_list_of_n_strings(labels):
    data = cyclic_group(2).to_json()
    data["labels"] = labels
    with pytest.raises(GroupError, match="labels must be a list of 2 strings"):
        FiniteGroup.from_json(data)


def test_missing_or_null_labels_keep_the_defaults():
    data = cyclic_group(2).to_json()
    data["labels"] = None
    assert FiniteGroup.from_json(data).labels == ("g0", "g1")
    del data["labels"]
    assert FiniteGroup.from_json(data).labels == ("g0", "g1")
