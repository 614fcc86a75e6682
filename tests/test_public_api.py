"""The names the orbk3 package exports are part of its public contract."""

import ast
import importlib
import inspect
import runpy
import types
from collections import Counter
from pathlib import Path

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
    "OrbifoldMukaiVector": "(mukai: 'MukaiVector', local_chars: 'tuple[Cyclotomic, ...]') -> None",
    "OrbifoldMukaiVector.from_json": '(data: \'dict\') -> "\'EquivariantClass\'"',
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
    "preset_cyclic": "(n: 'int') -> 'K3GModel'",
    "reduced_hilbert_polynomial": "(p: 'Coeffs') -> 'Coeffs'",
    "regular_character": "(g: 'FiniteGroup') -> 'Character'",
    "root_of_unity": "(order: 'int', exponent: 'int' = 1) -> 'Cyclotomic'",
    "solve_fixed_points_cyclic": "(n: 'int') -> 'int'",
    "structure_sheaf_class": "(model: 'K3GModel') -> 'EquivariantClass'",
    "sum_inverse_one_minus_cos": "(n: 'int') -> 'Fraction'",
    "symmetric_group_s3": "() -> 'FiniteGroup'",
    "tangent_bundle_class": "(model: 'K3GModel') -> 'EquivariantClass'",
    "trivial_character": "(g: 'FiniteGroup') -> 'Character'",
    "trivial_model": "() -> 'K3GModel'",
    "validate_identity": "(model: 'K3GModel') -> 'Fraction'",
    "weighted_inner_product": "(a, b, n: 'int | None' = None) -> 'Cyclotomic'",
    "wps_euler_class_tangent": "(weights) -> 'QuotientRingElement'",
    "wps_relation_element": "(weights) -> 'QuotientRingElement'",
}


def test_public_signatures(exported_callables):
    assert {name: str(inspect.signature(f)) for name, f in exported_callables.items()} == SIGNATURES


# The public names in vars() of each exported class: its methods, properties and class
# attributes (instance attributes such as FiniteGroup.cayley are set in __init__ and are not
# listed).  A method added or removed shows up here as a change to the contract.
METHODS = {
    "ADEForm": {"pair"},
    "AmbientFieldError": set(),
    "Character": {"degree", "dual"},
    "Cyclotomic": {
        "L", "as_rational", "coerce", "conjugate", "embed", "from_rational", "is_rational", "one",
        "real_part", "trace", "zero",
    },
    "EquivariantClass": {"from_json", "to_json"},
    "ExactnessError": set(),
    "FiniteGroup": {
        "class_of", "classes", "element_orders", "exponent", "from_json", "inverse_class",
        "is_abelian", "to_json",
    },
    "GroupRingElement": {"monomial", "n"},
    "HilbClassMu2": set(),
    "K3GModel": {"from_json", "sector_weights", "to_json"},
    "MukaiVector": {"dual", "from_json", "is_primitive", "scale", "to_json"},
    "OrbifoldMukaiVector": {"from_json", "to_json"},
    "PicardLattice": {"degree", "from_json", "h_squared", "intersect", "to_json", "zero_class"},
    "QuotientRing": {"one", "reduce", "residue", "x", "zero"},
    "QuotientRingElement": {"coeffs", "inverse", "is_zero", "ring"},
    "SectorEntry": {"eigenvalue", "to_json"},
}


def test_public_methods():
    methods = {
        name: {attr for attr in vars(value) if not attr.startswith("_")}
        for name, value in vars(orbk3).items()
        if isinstance(value, type) and not name.startswith("_")
    }
    assert methods == METHODS


TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# Benchmark span targets that name no callable of the library, so their spans read 0 calls:
# inversion is `poly_inverse_mod`, division is `QuotientRing`'s, and residue arithmetic is on
# `QuotientRingElement`.
DEAD_SPAN_TARGETS = {
    ("polyring", "poly_xgcd"),
    ("polyring", "poly_divmod"),
    ("cyclotomic", "Cyclotomic.__mul__"),
    ("cyclotomic", "Cyclotomic.__add__"),
    ("cyclotomic", "Cyclotomic.inverse"),
}


def test_benchmark_span_targets():
    # each target is looked up as the benchmark tracer does, in vars() of its module or
    # class, so renaming a traced callable fails here instead of zeroing a per-layer metric
    unresolved = set()
    for targets in runpy.run_path(str(TRACING))["SPANS"].values():
        for module_name, attr in targets:
            cls_name, _, fn_name = attr.rpartition(".")
            owner = importlib.import_module(f"orbk3.{module_name}")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            if owner is None or vars(owner).get(fn_name) is None:
                unresolved.add((module_name, attr))
    assert unresolved == DEAD_SPAN_TARGETS


# Top-level names that nothing else under src/ reads and orbk3 does not export, with the reason
# each stays in the library.
UNREFERENCED = {
    "projective_space_euler_class": "the parseval-kring benchmark workload calls it",
    "validate_orthogonality": "the exact orthogonality check of a table; tests and ROADMAP item 9 use it",
    "direct_product": "ROADMAP item 8 builds Nikulin's abelian groups from it",
}


def _references(node) -> Counter:
    """How often each name is read in node's tree, as a name or as an attribute."""
    refs = (getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(node))
    return Counter(ref for ref in refs if isinstance(ref, str))


def test_every_definition_is_used():
    # each top-level def or class under src/orbk3 is read somewhere under src/ outside its
    # own body, or is exported by orbk3; what only tests and the benchmark reach is listed
    trees = [ast.parse(path.read_text(), str(path)) for path in sorted(Path(orbk3.__file__).parent.glob("*.py"))]
    everywhere = sum(map(_references, trees), Counter())
    unused = {
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in vars(orbk3)
        and everywhere[node.name] == _references(node)[node.name]
    }
    assert unused == set(UNREFERENCED)


def test_imports_are_at_module_level():
    # every import of the library is a top-level statement of its module, so the
    # dependencies of a module are read off its head and none is deferred into a call
    hidden = []
    for path in sorted(Path(orbk3.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        top = set(map(id, tree.body))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top:
                hidden.append(f"{path.name}:{node.lineno}")
    assert hidden == []


def test_only_polyring_reads_the_integer_modulus():
    # reduction mod a ring's modulus is `QuotientRing`'s alone, so no other module reads
    # the integer modulus to reduce by hand
    readers = []
    for path in sorted(Path(orbk3.__file__).parent.glob("*.py")):
        if path.name == "polyring.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "_integer_modulus":
                readers.append(f"{path.name}:{node.lineno}")
    assert readers == []


def _class_attributes(cls):
    """The names that cls's body binds: its defs and the names its assignments target."""
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (target.id for target in targets if isinstance(target, ast.Name))


def test_only_the_residue_kernel_multiplies():
    # every ring product is `QuotientRingElement`'s; `Character` multiplies pointwise over its
    # values, which are kernel elements, and no other class has a product of its own
    multipliers = set()
    for path in sorted(Path(orbk3.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            if {"__mul__", "__rmul__"} & set(_class_attributes(cls)):
                multipliers.add(cls.name)
    assert multipliers == {"QuotientRingElement", "Character"}


def test_sources_parse_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10, so no module may use later syntax
    # (`except*`, `type X = ...`); the 3.10 grammar rejects both
    for path in sorted(Path(orbk3.__file__).parent.glob("*.py")):
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))
