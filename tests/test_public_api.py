"""The names the orbk3 package exports are part of its public contract."""

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
