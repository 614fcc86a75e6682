"""The names the orbk3 package exports are part of its public contract."""

import inspect
import types

import orbk3

EXPORTS = {
    "ADEForm", "AmbientFieldError", "Character", "Cyclotomic", "EquivariantClass",
    "ExactnessError", "FIXED_POINT_TABLE", "FiniteGroup", "GroupRingElement",
    "HilbClassMu2", "K3GModel", "MukaiVector", "OrbifoldMukaiVector", "PicardLattice",
    "QuotientRing", "QuotientRingElement", "SectorEntry", "abelian_character_table",
    "ade_form", "bg_euler_pairing", "bg_moduli_count", "char_inner_product",
    "char_inner_product_elementwise", "check_hypotheses", "conjugacy_classes",
    "cyclic_group", "cyclotomic_polynomial", "degree_and_slope", "dft_inverse",
    "dim_ade", "dim_mu2", "elliptic_k3_lattice", "enumerate_mu2", "euler_pairing",
    "fermat_quotient_lattice", "fixed_points_closed_form", "format_cyclotomic",
    "generic_point_class", "hilbert_polynomial", "invariant_dimension", "length_mu2",
    "load_model", "moduli_dimension", "mukai_pairing", "omv_of_class_mu2", "orbch_p23",
    "orbifold_mukai_pairing", "orbifold_mukai_vector", "parse_cyclotomic",
    "parseval_check", "poly_leq_eventually", "preset_cyclic", "reduced_hilbert_polynomial",
    "regular_character", "root_of_unity", "solve_fixed_points_cyclic",
    "structure_sheaf_class", "sum_inverse_one_minus_cos", "symmetric_group_s3",
    "tangent_bundle_class", "trivial_character", "trivial_model", "validate_identity",
    "weighted_inner_product", "wps_euler_class_tangent", "wps_relation_element",
}


def test_exported_names():
    exported = {
        name
        for name, value in vars(orbk3).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == EXPORTS
    assert orbk3.__version__ == "0.1.0"


# str(inspect.signature(...)) of every exported callable and of the classmethods of the
# exported classes (their alternative constructors); exception classes have no signature of
# their own.  A new parameter, or a removed one, shows up here as a change to the contract.
SIGNATURES = {
    "ADEForm": "(kind: 'str', rank: 'int', matrix: 'tuple[tuple[int, ...], ...]') -> None",
    "Character": "(group: 'FiniteGroup', values)",
    "Cyclotomic": "(L: 'int', coeffs)",
    "Cyclotomic.from_rational": '(value) -> "\'Cyclotomic\'"',
    "Cyclotomic.coerce": '(value) -> "\'Cyclotomic\'"',
    "Cyclotomic.zero": '(L: \'int\' = 1) -> "\'Cyclotomic\'"',
    "Cyclotomic.one": '(L: \'int\' = 1) -> "\'Cyclotomic\'"',
    "EquivariantClass": "(mukai: 'MukaiVector', local_chars: 'tuple[Cyclotomic, ...]') -> None",
    "EquivariantClass.from_json": '(data: \'dict\') -> "\'EquivariantClass\'"',
    "FiniteGroup": '(cayley, labels=None)',
    "FiniteGroup.from_json": '(data: \'dict\') -> "\'FiniteGroup\'"',
    "GroupRingElement": "(n: 'int', coeffs)",
    "GroupRingElement.monomial": '(n: \'int\', k: \'int\') -> "\'GroupRingElement\'"',
    "HilbClassMu2": "(n: 'int', m: 'tuple[int, ...]') -> None",
    "K3GModel": "(group: 'FiniteGroup', sectors, lattice: 'PicardLattice', validate: 'bool' = True)",
    "K3GModel.from_json": '(data: \'dict\', validate: \'bool\' = True) -> "\'K3GModel\'"',
    "MukaiVector": "(r: 'int', c1: 'tuple[int, ...]', s: 'int') -> None",
    "MukaiVector.from_json": '(data: \'dict\') -> "\'MukaiVector\'"',
    "OrbifoldMukaiVector": "(global_part: 'MukaiVector', twisted: 'tuple[Cyclotomic, ...]') -> None",
    "PicardLattice": '(gram, ample)',
    "PicardLattice.from_json": '(data: \'dict\') -> "\'PicardLattice\'"',
    "QuotientRing": "(modulus: 'Iterable')",
    "QuotientRingElement": "(ring: 'QuotientRing', residue: 'Iterable')",
    "SectorEntry": (
        "(class_index: 'int', stabilizer_order: 'int', eig_order: 'int', eig_exp: 'int', multiplicity: 'int')"
        " -> None"
    ),
    "abelian_character_table": "(g: 'FiniteGroup') -> 'tuple[Character, ...]'",
    "ade_form": "(kind: 'str', rank: 'int') -> 'ADEForm'",
    "bg_euler_pairing": "(chi: 'Character', psi: 'Character') -> 'Fraction'",
    "bg_moduli_count": "(n: 'int', d: 'int') -> 'int'",
    "char_inner_product": "(chi: 'Character', psi: 'Character') -> 'Fraction'",
    "char_inner_product_elementwise": "(chi: 'Character', psi: 'Character') -> 'Fraction'",
    "check_hypotheses": (
        "(lattice: 'PicardLattice', v: 'MukaiVector', generic: 'bool' = False) -> 'HypothesisReport'"
    ),
    "conjugacy_classes": "(g: 'FiniteGroup') -> 'tuple[ConjugacyClass, ...]'",
    "cyclic_group": "(n: 'int') -> 'FiniteGroup'",
    "cyclotomic_polynomial": "(n: 'int') -> 'Coeffs'",
    "degree_and_slope": "(lattice: 'PicardLattice', v: 'MukaiVector')",
    "dft_inverse": "(f: 'GroupRingElement') -> 'tuple[Cyclotomic, ...]'",
    "dim_ade": "(n: 'int', divisors, forms) -> 'int'",
    "dim_mu2": "(c: 'HilbClassMu2') -> 'int'",
    "elliptic_k3_lattice": "() -> 'PicardLattice'",
    "enumerate_mu2": "(length: 'int') -> 'list[EnumerationRow]'",
    "euler_pairing": "(model: 'K3GModel', x: 'EquivariantClass', y: 'EquivariantClass') -> 'Fraction'",
    "fermat_quotient_lattice": "() -> 'PicardLattice'",
    "fixed_points_closed_form": "(n: 'int') -> 'int'",
    "format_cyclotomic": "(a: 'Cyclotomic') -> 'str'",
    "generic_point_class": "(model: 'K3GModel') -> 'EquivariantClass'",
    "hilbert_polynomial": "(lattice: 'PicardLattice', v: 'MukaiVector') -> 'Coeffs'",
    "invariant_dimension": "(chi: 'Character') -> 'Fraction'",
    "length_mu2": "(c: 'HilbClassMu2') -> 'int'",
    "load_model": "(path: 'str', validate: 'bool' = True) -> 'K3GModel'",
    "moduli_dimension": "(model: 'K3GModel', x: 'EquivariantClass') -> 'Fraction'",
    "mukai_pairing": "(lattice: 'PicardLattice', v: 'MukaiVector', w: 'MukaiVector') -> 'int'",
    "omv_of_class_mu2": "(c: 'HilbClassMu2') -> 'OrbifoldMukaiVector'",
    "orbch_p23": "(k: 'int') -> 'ChowP23Element'",
    "orbifold_mukai_pairing": (
        "(model: 'K3GModel', v: 'OrbifoldMukaiVector', w: 'OrbifoldMukaiVector') -> 'Fraction'"
    ),
    "orbifold_mukai_vector": "(model: 'K3GModel', x: 'EquivariantClass') -> 'OrbifoldMukaiVector'",
    "parse_cyclotomic": "(text: 'str') -> 'Cyclotomic'",
    "parseval_check": "(f: 'GroupRingElement', g: 'GroupRingElement') -> 'bool'",
    "poly_leq_eventually": "(p: 'Coeffs', q: 'Coeffs') -> 'bool'",
    "preset_cyclic": "(n: 'int', lattice: 'PicardLattice | None' = None) -> 'K3GModel'",
    "reduced_hilbert_polynomial": "(p: 'Coeffs') -> 'Coeffs'",
    "regular_character": "(g: 'FiniteGroup') -> 'Character'",
    "root_of_unity": "(order: 'int', exponent: 'int' = 1, L: 'int | None' = None) -> 'Cyclotomic'",
    "solve_fixed_points_cyclic": "(n: 'int') -> 'int'",
    "structure_sheaf_class": "(model: 'K3GModel') -> 'EquivariantClass'",
    "sum_inverse_one_minus_cos": "(n: 'int') -> 'Fraction'",
    "symmetric_group_s3": "() -> 'FiniteGroup'",
    "tangent_bundle_class": "(model: 'K3GModel') -> 'EquivariantClass'",
    "trivial_character": "(g: 'FiniteGroup') -> 'Character'",
    "trivial_model": "(lattice: 'PicardLattice | None' = None) -> 'K3GModel'",
    "validate_identity": "(model: 'K3GModel') -> 'Fraction'",
    "weighted_inner_product": "(a, b, n: 'int | None' = None) -> 'Cyclotomic'",
    "wps_euler_class_tangent": "(weights) -> 'QuotientRingElement'",
    "wps_relation_element": "(weights) -> 'QuotientRingElement'",
}


def _signatures():
    for name, value in vars(orbk3).items():
        if name.startswith("_") or not callable(value):
            continue
        if isinstance(value, type) and issubclass(value, BaseException):
            continue
        yield name, str(inspect.signature(value))
        if isinstance(value, type):
            for attr, raw in vars(value).items():
                if isinstance(raw, classmethod):
                    yield f"{name}.{attr}", str(inspect.signature(getattr(value, attr)))


def test_public_signatures():
    assert dict(_signatures()) == SIGNATURES
