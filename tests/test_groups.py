"""Group, conjugacy, and character-theory tests."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbk3.cyclotomic import root_of_unity
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


def test_s3_table_orthogonality():
    validate_orthogonality(s3_character_table())


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
