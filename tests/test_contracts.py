"""Each rule is checked where its data is built: raises that no other test reaches,
integer and exact-coefficient slots, the group axioms, Hilbert-polynomial integrality and
the hash contract."""

import inspect
import itertools
import json
import re
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orbk3
from orbk3.cli import main
from orbk3.cyclotomic import (
    AmbientFieldError,
    Cyclotomic,
    cyclotomic_polynomial,
    galois_sum,
    parse_cyclotomic,
    root_of_unity,
    sum_inverse_one_minus_cos,
)
from orbk3.groups import (
    Character,
    FiniteGroup,
    GroupError,
    abelian_character_table,
    char_inner_product,
    cyclic_group,
    symmetric_group_s3,
    trivial_character,
)
from orbk3.hilbert import ADEForm, HilbClassMu2, HilbertError, ade_form, dim_ade, enumerate_mu2
from orbk3.hrr import (
    EquivariantClass,
    OrbifoldMukaiVector,
    SectorMismatchError,
    orbifold_mukai_pairing,
    tangent_bundle_class,
)
from orbk3.inertia import (
    K3GModel,
    ModelError,
    SectorEntry,
    fixed_points_closed_form,
    load_model,
    preset_cyclic,
)
from orbk3.lattice import (
    LatticeError,
    MukaiVector,
    PicardLattice,
    elliptic_k3_lattice,
    fermat_quotient_lattice,
    hilbert_polynomial,
    poly_leq_eventually,
    reduced_hilbert_polynomial,
)
from orbk3.polyring import QuotientRing, QuotientRingElement
from orbk3.toystacks import (
    GroupRingElement,
    ToyStackError,
    bg_moduli_count,
    coefficient_pairing,
    orbch_p23,
    weighted_inner_product,
)


def _stabilizer_not_dividing_order():
    model = preset_cyclic(2)
    K3GModel(model.group, [SectorEntry(0, 3, 2, 1, 1)], model.lattice, validate=False)


def _stabilizer_without_element():
    # the class of g has order 4, so a point it fixes has a stabilizer of order 4
    model = preset_cyclic(4)
    K3GModel(model.group, [SectorEntry(0, 1, 4, 1, 1)], model.lattice, validate=False)


# Each call raises the exception type next to it.  Rows are (key, row) pairs, not a dict
# literal, so that a repeated key fails `test_raises_keys_are_unique` instead of dropping a row.
RAISES_ROWS = (
    ("cyclotomic-polynomial-0", (ValueError, lambda: cyclotomic_polynomial(0))),
    ("field-order-0", (ValueError, lambda: Cyclotomic(0, ()))),
    ("embed-3-into-4", (AmbientFieldError, lambda: root_of_unity(3).embed(4))),
    ("root-of-unity-0", (ValueError, lambda: root_of_unity(0))),
    ("trig-sum-1", (ValueError, lambda: sum_inverse_one_minus_cos(1))),
    ("parse-variable-y", (ValueError, lambda: parse_cyclotomic("c[4]: 1*y"))),
    ("parse-degree-too-high", (ValueError, lambda: parse_cyclotomic("c[4]: 1*z^2"))),
    ("group-empty", (GroupError, lambda: FiniteGroup([]))),
    ("group-label-count", (GroupError, lambda: FiniteGroup([[0]], ["a", "b"]))),
    ("cyclic-group-0", (GroupError, lambda: cyclic_group(0))),
    ("character-length", (GroupError, lambda: Character(cyclic_group(2), [1]))),
    ("inner-product-two-groups", (
        GroupError,
        lambda: char_inner_product(trivial_character(cyclic_group(2)), trivial_character(cyclic_group(3))),
    )),
    ("abelian-table-of-s3", (GroupError, lambda: abelian_character_table(symmetric_group_s3()))),
    ("ade-pair-length", (HilbertError, lambda: ade_form("A", 2).pair((1,), (1, 0)))),
    ("ade-rank-0", (HilbertError, lambda: ade_form("A", 0))),
    # an ADEForm is the negative Cartan matrix of its (kind, rank), and nothing else
    ("ade-form-matrix-too-small", (HilbertError, lambda: ADEForm("A", 2, ((-2,),)).pair((1, 1), (1, 1)))),
    ("ade-form-matrix-empty", (HilbertError, lambda: ADEForm("A", 1, ()).pair((1,), (1,)))),
    ("ade-form-unknown-kind", (HilbertError, lambda: ADEForm("Q", 1, ((-2,),)))),
    ("ade-form-negative-rank", (HilbertError, lambda: ADEForm("A", -1, ()))),
    ("ade-form-wrong-entry", (HilbertError, lambda: ADEForm("A", 1, ((2,),)))),
    ("pairing-short-vector", (
        SectorMismatchError,
        lambda: orbifold_mukai_pairing(
            preset_cyclic(2),
            OrbifoldMukaiVector(MukaiVector(1, (0,), 1), ()),
            OrbifoldMukaiVector(MukaiVector(1, (0,), 1), ()),
        ),
    )),
    ("closed-form-10", (ModelError, lambda: fixed_points_closed_form(10))),  # 4/3
    ("stabilizer-not-dividing", (ModelError, _stabilizer_not_dividing_order)),
    ("stabilizer-without-element", (ModelError, _stabilizer_without_element)),
    ("gram-not-square", (LatticeError, lambda: PicardLattice([[2, 0]], [1]))),
    ("ample-length", (LatticeError, lambda: PicardLattice([[2]], [1, 0]))),
    ("intersect-length", (LatticeError, lambda: fermat_quotient_lattice().intersect((1, 0), (1,)))),
    # a JSON object or string is not a matrix, a row or a class
    ("gram-object", (LatticeError, lambda: PicardLattice({}, ()))),
    ("gram-row-string", (LatticeError, lambda: PicardLattice(["2"], [1]))),
    ("ample-is-a-string", (LatticeError, lambda: PicardLattice([[2]], "1"))),
    ("declared-rank", (
        LatticeError,
        lambda: PicardLattice.from_json({"rank": 2, "gram": [[2]], "ample": [1]}),
    )),
    ("constant-modulus", (ValueError, lambda: QuotientRing([1]))),
    ("group-ring-rank-0", (ToyStackError, lambda: GroupRingElement(0, ()))),
    ("group-ring-monomial-rank-0", (ToyStackError, lambda: GroupRingElement.monomial(0, 1))),
    ("weighted-lengths", (ToyStackError, lambda: weighted_inner_product((1,), (1, 2)))),
    # orders 29 and 31 meet in Q(zeta_899), beyond 840
    ("weighted-orders-29-31", (
        AmbientFieldError,
        lambda: weighted_inner_product((root_of_unity(29),), (root_of_unity(31),)),
    )),
    ("coefficient-pairing-ranks", (
        ToyStackError,
        lambda: coefficient_pairing(GroupRingElement(2, (1,)), GroupRingElement(3, (1,))),
    )),
    # integer fields reject what int() would truncate or parse
    ("mukai-float", (TypeError, lambda: MukaiVector(1.5, (), 0))),
    ("mukai-string-c1", (TypeError, lambda: MukaiVector(1, "12", 0))),
    ("sector-float", (TypeError, lambda: SectorEntry(0, 2, 2, 1, 1.9))),
    ("cayley-float", (TypeError, lambda: FiniteGroup([[0.0]]))),
    ("gram-float", (TypeError, lambda: PicardLattice([[2.9]], [1]))),
    ("ample-string", (TypeError, lambda: PicardLattice([[2]], ["1"]))),
    ("hilb-class-float", (TypeError, lambda: HilbClassMu2(1.0, (0,) * 8))),
    ("ade-pair-float", (TypeError, lambda: ade_form("A", 1).pair((0.5,), (1,)))),
    ("dim-ade-float", (TypeError, lambda: dim_ade(1.5, [(1,)], [ade_form("A", 1)]))),
    ("intersect-float", (TypeError, lambda: fermat_quotient_lattice().intersect((0.5,), (1,)))),
    ("intersect-float-rank-2", (TypeError, lambda: elliptic_k3_lattice().intersect([1.5, 0], [1, 0]))),
    ("degree-float", (TypeError, lambda: elliptic_k3_lattice().degree([1.5, 0]))),
    # ... and bool, a subclass of int that `operator.index` takes as 0 or 1
    ("mukai-bool", (TypeError, lambda: MukaiVector(True, (), 0))),
    ("mukai-bool-c1", (TypeError, lambda: MukaiVector(1, (False,), 0))),
    ("sector-bool", (TypeError, lambda: SectorEntry(0, 2, 2, 1, True))),
    ("cayley-bool", (TypeError, lambda: FiniteGroup([[0, True], [True, 0]]))),
    ("gram-bool", (TypeError, lambda: PicardLattice([[2, False], [False, 2]], [1, 0]))),
    ("ample-bool", (TypeError, lambda: PicardLattice([[2]], [True]))),
    ("hilb-class-bool", (TypeError, lambda: HilbClassMu2(True, (0,) * 8))),
    ("hilb-class-bool-m", (TypeError, lambda: HilbClassMu2(1, (False,) * 8))),
    ("enumerate-bool", (TypeError, lambda: enumerate_mu2(True))),
    ("cyclotomic-order-bool", (TypeError, lambda: Cyclotomic(True, (3,)))),
    ("cyclic-group-bool", (TypeError, lambda: cyclic_group(True))),
    ("group-ring-bool", (TypeError, lambda: GroupRingElement(True, (1,)))),
    ("group-ring-monomial-bool", (TypeError, lambda: GroupRingElement.monomial(True, 0))),
    ("weighted-n-bool", (TypeError, lambda: weighted_inner_product((1,), (1,), n=True))),
    ("bg-moduli-bool", (TypeError, lambda: bg_moduli_count(True, 2))),
    ("closed-form-bool", (TypeError, lambda: fixed_points_closed_form(True))),
    ("ade-rank-bool", (TypeError, lambda: ade_form("A", True))),
    ("orbch-bool", (TypeError, lambda: orbch_p23(True))),
    ("root-of-unity-exponent-bool", (TypeError, lambda: root_of_unity(4, True))),
    ("root-of-unity-exponent-float", (TypeError, lambda: root_of_unity(4, 1.0))),
    ("root-of-unity-order-bool", (TypeError, lambda: root_of_unity(True))),
    ("mukai-scale-bool", (TypeError, lambda: MukaiVector(1, (0,), 0).scale(True))),
    # exact coefficients are ints and Fractions: a float would round in, a bool count as 0 or 1
    ("leq-eventually-float", (TypeError, lambda: poly_leq_eventually((0.5,), (1,)))),
    ("reduced-hilbert-bool", (TypeError, lambda: reduced_hilbert_polynomial((True, 2)))),
    ("reduced-hilbert-zeros", (LatticeError, lambda: reduced_hilbert_polynomial((0, 0)))),
    ("group-ring-monomial-exponent-bool", (TypeError, lambda: GroupRingElement.monomial(4, True))),
    ("embed-bool", (TypeError, lambda: Cyclotomic.one().embed(True))),
    # the exponent of `**` is an integer slot too: True is not the exponent 1
    ("pow-exponent-bool", (TypeError, lambda: Cyclotomic(4, (0, 1)) ** True)),
    ("pow-exponent-float", (TypeError, lambda: Cyclotomic(4, (0, 1)) ** 2.0)),
    ("pow-exponent-str", (TypeError, lambda: Cyclotomic(4, (0, 1)) ** "2")),
    ("quotient-ring-pow-bool", (TypeError, lambda: QuotientRing((1, 0, 1)).x() ** False)),
    # after Phi_1 is cached: an untyped cache would answer True with it
    ("cyclotomic-polynomial-bool", (
        TypeError,
        lambda: cyclotomic_polynomial(1) and cyclotomic_polynomial(True),
    )),
    ("cayley-bool-json", (GroupError, lambda: FiniteGroup.from_json({"cayley": [[False]]}))),
    # a declared size is an int too, not just equal to one
    ("declared-order-float", (GroupError, lambda: FiniteGroup.from_json({"order": 1.0, "cayley": [[0]]}))),
    ("declared-order-bool", (GroupError, lambda: FiniteGroup.from_json({"order": True, "cayley": [[0]]}))),
    ("declared-rank-float", (
        LatticeError,
        lambda: PicardLattice.from_json({"rank": 1.0, "gram": [[2]], "ample": [1]}),
    )),
    ("declared-rank-bool", (
        LatticeError,
        lambda: PicardLattice.from_json({"rank": True, "gram": [[2]], "ample": [1]}),
    )),
)


RAISES = dict(RAISES_ROWS)


def test_raises_keys_are_unique():
    keys = Counter(key for key, _ in RAISES_ROWS)
    assert [key for key, count in keys.items() if count > 1] == []


@pytest.mark.parametrize("case", sorted(RAISES))
def test_raises(case):
    exc_type, call = RAISES[case]
    with pytest.raises(exc_type):
        call()


# The parameter annotations that mark an integer slot, each with how deep its integers sit:
# an int, a sequence of them, or rows of them.  `Coeffs` is a sequence of exact
# coefficients, ints and Fractions, which bool, float and str are not either.
INTEGER_SLOTS = {
    "int": 0, "int | None": 0, "tuple[int, ...]": 1, "Coeffs": 1, "tuple[tuple[int, ...], ...]": 2,
}

# One valid call, by keyword, of every exported callable with an integer slot.
VALID_CALLS = {
    "ADEForm": {"kind": "A", "rank": 1, "matrix": ((-2,),)},
    "Cyclotomic": {"L": 4, "coeffs": (1, 2)},
    "Cyclotomic.one": {"L": 4},
    "Cyclotomic.zero": {"L": 4},
    "GroupRingElement": {"n": 3, "coeffs": (1, 2)},
    "GroupRingElement.monomial": {"n": 3, "k": 1},
    "HilbClassMu2": {"n": 1, "m": (0,) * 8},
    "MukaiVector": {"r": 1, "c1": (0,), "s": 1},
    "SectorEntry": {"class_index": 0, "stabilizer_order": 2, "eig_order": 2, "eig_exp": 1, "multiplicity": 1},
    "ade_form": {"kind": "A", "rank": 2},
    "bg_moduli_count": {"n": 2, "d": 3},
    "cyclic_group": {"n": 3},
    "cyclotomic_polynomial": {"n": 6},
    "dim_ade": {"n": 1, "divisors": [(1,)], "forms": [ade_form("A", 1)]},
    "enumerate_mu2": {"length": 2},
    "fixed_points_closed_form": {"n": 4},
    "orbch_p23": {"k": 2},
    "poly_leq_eventually": {"p": (1, 2), "q": (0, 3)},
    "preset_cyclic": {"n": 2},
    "reduced_hilbert_polynomial": {"p": (2, 4)},
    "root_of_unity": {"order": 4, "exponent": 1},
    "solve_fixed_points_cyclic": {"n": 2},
    "sum_inverse_one_minus_cos": {"n": 4},
    "weighted_inner_product": {"a": (1, 2), "b": (2, 1), "n": 2},
    # methods, called on the instance of their class in INSTANCES
    "ADEForm.pair": {"a": (1, 0), "b": (0, 1)},
    "Cyclotomic.embed": {"L": 8},
    "MukaiVector.scale": {"k": 2},
    "PicardLattice.degree": {"a": (1, 0)},
    "PicardLattice.intersect": {"a": (1, 0), "b": (0, 1)},
}

_MODEL = preset_cyclic(2)

# One instance of each exported class, so the sweep walks the integer slots of its methods too.
INSTANCES = {
    "ADEForm": ade_form("A", 2),
    "Character": trivial_character(cyclic_group(2)),
    "Cyclotomic": Cyclotomic(4, (1, 2)),
    "EquivariantClass": tangent_bundle_class(_MODEL),
    "FiniteGroup": cyclic_group(3),
    "GroupRingElement": GroupRingElement(3, (1, 2)),
    "HilbClassMu2": HilbClassMu2(1, (0,) * 8),
    "K3GModel": _MODEL,
    "MukaiVector": MukaiVector(1, (0, 0), 1),
    "OrbifoldMukaiVector": OrbifoldMukaiVector(MukaiVector(1, (0,), 1), (Cyclotomic.one(2),)),
    "PicardLattice": elliptic_k3_lattice(),
    "QuotientRing": QuotientRing((1, 0, 1)),
    "QuotientRingElement": QuotientRingElement(QuotientRing((1, 0, 1)), (1, 2)),
    "SectorEntry": SectorEntry(class_index=0, stabilizer_order=2, eig_order=2, eig_exp=1, multiplicity=1),
}


def test_instances_cover_the_exported_classes():
    classes = {
        name: value for name, value in vars(orbk3).items()
        if isinstance(value, type) and not issubclass(value, BaseException)
    }
    assert set(INSTANCES) == set(classes)
    assert all(type(INSTANCES[name]) is cls for name, cls in classes.items())


def _public_methods() -> dict:
    """`Class.method` -> the bound method, for the public instance methods of each instance."""
    out = {}
    for name, instance in INSTANCES.items():
        for attr in dir(type(instance)):
            if not attr.startswith("_") and inspect.isfunction(inspect.getattr_static(type(instance), attr)):
                out[f"{name}.{attr}"] = getattr(instance, attr)
    return out


def _with_first(value, depth: int, bad):
    """value with bad in place of its first integer, which sits depth sequences deep."""
    return bad if depth == 0 else (_with_first(value[0], depth - 1, bad),) + tuple(value[1:])


def test_integer_slots_reject_bool_float_and_str(exported_callables):
    # the valid call of an exported callable or of a method of INSTANCES, with True, 2.0 or
    # "2" in one integer slot (in its first element, for a sequence), raises TypeError, not a
    # domain error and not a result
    slotted, leaks = set(), []
    for name, f in {**exported_callables, **_public_methods()}.items():
        slots = {}
        for p in inspect.signature(f).parameters.values():
            if p.annotation in INTEGER_SLOTS:
                slots[p.name] = INTEGER_SLOTS[p.annotation]
            else:  # an integer annotation of another spelling would be skipped silently
                assert not re.search(r"\bint\b|Coeffs", str(p.annotation)), (name, p)
        if not slots:
            continue
        slotted.add(name)
        assert name in VALID_CALLS, f"{name} has an integer slot and no valid call"
        kwargs = VALID_CALLS[name]
        f(**kwargs)
        for param, depth in slots.items():
            for bad in (True, 2.0, "2"):
                try:
                    f(**{**kwargs, param: _with_first(kwargs[param], depth, bad)})
                except TypeError:
                    continue
                except Exception as exc:
                    leaks.append(f"{name} with {param} {bad!r}: {type(exc).__name__}")
                else:
                    leaks.append(f"{name} with {param} {bad!r}: no error")
    assert not leaks, "\n".join(leaks)
    assert slotted == set(VALID_CALLS)


# Coefficient slots without an annotation: each takes one value that is not an int or a
# Fraction, which `polyring.poly` rejects for all of them.
COEFFICIENT_SLOTS = {
    "cyclotomic": lambda c: Cyclotomic(4, (c, 1)),
    "group-ring": lambda c: GroupRingElement(3, (c, 1)),
    "quotient-ring": lambda c: QuotientRing((c, 1)),
    "quotient-ring-element": lambda c: QuotientRingElement(QuotientRing((1, 0, 1)), (c, 1)),
    "from-rational": lambda c: Cyclotomic.from_rational(c),
    "coerce": lambda c: Cyclotomic.coerce(c),
    "character": lambda c: Character(cyclic_group(2), (1, c)),
    "equivariant-class": lambda c: EquivariantClass(MukaiVector(1, (0,), 1), (c,)),
    "orbifold-mukai-vector": lambda c: OrbifoldMukaiVector(MukaiVector(1, (0,), 1), (c,)),
    "weighted-inner-product": lambda c: weighted_inner_product((1, c), (1, 1)),
    "sesquilinear-sum": lambda c: galois_sum([(1, 1, -1, c)]),
}


@pytest.mark.parametrize("value", [0.5, True, "1/2", Decimal("0.5")], ids=["float", "bool", "str", "decimal"])
@pytest.mark.parametrize("slot", sorted(COEFFICIENT_SLOTS))
def test_coefficients_are_ints_and_fractions(slot, value):
    with pytest.raises(TypeError):
        COEFFICIENT_SLOTS[slot](value)


def test_bool_is_not_a_constant():
    with pytest.raises(TypeError):
        Cyclotomic.one(2) * True
    assert (Cyclotomic.one(2) == True) is False


def _class_file(key, value):
    data = tangent_bundle_class(preset_cyclic(2)).to_json()
    data["mukai"][key] = value
    return ["--preset", "cyclic:2", "--class"], data


def _model_file(key, value, section="sectors", n=2, flags=()):
    data = preset_cyclic(n).to_json()
    (data[section][0] if section == "sectors" else data[section])[key] = value
    return ["--class", "OX", *flags, "--model"], data


# argv cases that exit 2 with an `error:` line; a (flags, document) pair runs `dim` with the
# document written to a file that follows the flags.
EXIT_2 = {
    "preset-cyclic-x": ["dim", "--preset", "cyclic:x", "--class", "OX"],
    "preset-foo": ["dim", "--preset", "foo", "--class", "OX"],
    "rank-1.5": _class_file("r", 1.5),
    "rank-string-1": _class_file("r", "1"),
    "multiplicity-1.9": _model_file("multiplicity", 1.9),
    # each of these equals the valid value, so only the type check rejects it
    "rank-true": _class_file("r", True),
    "c1-false": _class_file("c1", [False]),
    "multiplicity-true": _model_file("multiplicity", True),
    "cayley-true": _model_file("cayley", [[0, True], [True, 0]], "group"),
    "group-order-2.0": _model_file("order", 2.0, "group"),
    "lattice-rank-true": _model_file("rank", True, "lattice"),
    "lattice-rank-1.0": _model_file("rank", 1.0, "lattice"),
    # the identity is not checked, but the stabilizer of an orbit of g must contain g
    "stabilizer-1-no-validate": _model_file("stabilizer", 1, n=4, flags=("--no-validate", "--json")),
    "gram-2.9": ["check-hypotheses", "--r", "1", "--s", "1", "--gram", "[[2.9]]"],
    "gram-with-d": ["check-hypotheses", "--r", "1", "--s", "1", "--gram", "[[2]]", "--d", "5"],
    "ample-without-gram": ["check-hypotheses", "--r", "1", "--s", "1", "--d", "3", "--ample", "7"],
}


@pytest.mark.parametrize("case", sorted(EXIT_2))
def test_cli_exit_2(capsys, tmp_path, case):
    argv = EXIT_2[case]
    if isinstance(argv, tuple):
        flags, data = argv
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        argv = ["dim", *flags, str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_no_validate_is_a_dim_option(capsys):
    assert main(["dim", "--preset", "cyclic:2", "--class", "OX", "--no-validate"]) == 0
    assert main(["verify-identity", "--preset", "cyclic:2", "--no-validate"]) == 2
    assert "unrecognized arguments: --no-validate" in capsys.readouterr().err


def test_load_model_round_trips(tmp_path):
    model = preset_cyclic(4)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model.to_json()))
    loaded = load_model(str(path))
    assert loaded.to_json() == model.to_json()
    assert loaded.sectors == model.sectors


def _is_group(table):
    n = len(table)
    ids = [e for e in range(n) if all(table[e][x] == x == table[x][e] for x in range(n))]
    return (
        bool(ids)
        and all(any(table[a][b] == ids[0] == table[b][a] for b in range(n)) for a in range(n))
        and all(
            table[table[a][b]][c] == table[a][table[b][c]]
            for a, b, c in itertools.product(range(n), repeat=3)
        )
    )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_group_axioms_accept_exactly_the_groups(n):
    # every n x n table with entries in 0..n-1, against the axioms checked one by one
    accepted = 0
    for entries in itertools.product(range(n), repeat=n * n):
        table = [entries[i * n:(i + 1) * n] for i in range(n)]
        try:
            g = FiniteGroup(table)
        except GroupError:
            assert not _is_group(table), table
            continue
        accepted += 1
        assert _is_group(table), table
        assert all(g.cayley[a][g.inverses[a]] == g.identity == g.cayley[g.inverses[a]][a] for a in range(n))
    assert accepted == {1: 1, 2: 2, 3: 3}[n]


even_lattices = st.integers(1, 3).flatmap(
    lambda rank: st.tuples(
        st.lists(st.integers(-5, 5), min_size=rank * rank, max_size=rank * rank),
        st.lists(st.integers(-3, 3), min_size=rank, max_size=rank),
        st.lists(st.integers(-3, 3), min_size=rank, max_size=rank),
        st.integers(-5, 5),
        st.integers(-5, 5),
    )
)


@settings(max_examples=80, deadline=None)
@given(even_lattices)
def test_hilbert_polynomial_has_integer_coefficients(data):
    entries, ample, c1, r, s = data
    rank = len(ample)
    # symmetric with even diagonal, from the upper triangle
    gram = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i, rank):
            value = entries[i * rank + j]
            gram[i][j] = gram[j][i] = 2 * value if i == j else value
    try:
        lattice = PicardLattice(gram, ample)
    except LatticeError:
        return  # ample class not positive
    p = hilbert_polynomial(lattice, MukaiVector(r, tuple(c1), s))
    assert all(isinstance(c, Fraction) and c.denominator == 1 for c in p)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 9), st.data())
def test_equal_objects_built_two_ways_hash_equal(n, data):
    coeffs = data.draw(st.lists(st.integers(-9, 9), min_size=2, max_size=n))
    coeffs[1] = coeffs[1] or 1  # not a constant
    unpadded = GroupRingElement(n, coeffs)
    padded = GroupRingElement(n, coeffs + [0] * (n - len(coeffs)))
    assert unpadded == padded and hash(unpadded) == hash(padded)

    modulus = data.draw(st.lists(st.integers(-9, 9), min_size=2, max_size=5).filter(lambda m: m[-1]))
    as_list, as_tuple = QuotientRing(modulus), QuotientRing(tuple(modulus))
    assert as_list == as_tuple and hash(as_list) == hash(as_tuple)
    a, b = as_list.reduce([1, 1]), as_tuple.reduce((Fraction(1), Fraction(1)))
    assert a == b and hash(a) == hash(b)

    gram, ample = [[2 * n, 1], [1, -2]], [1, 0]
    lists, tuples = PicardLattice(gram, ample), PicardLattice(tuple(map(tuple, gram)), tuple(ample))
    assert lists == tuples and hash(lists) == hash(tuples)
