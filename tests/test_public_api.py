"""The package's public surface: the exported names are pinned."""

import cylcavity

PUBLIC_NAMES = {
    "BesselZeroTable", "BoundaryReport", "CavityGeometry", "CurlIdentityReport",
    "CylPoint", "CylVector", "FORMAT_VERSION", "FieldState", "GramReport", "HBAR",
    "MaxwellResidualReport", "ModeData", "ModeIndex", "QuadratureRule",
    "SPEED_OF_LIGHT", "TE", "TM", "VACUUM_PERMITTIVITY",
    "bessel_j", "bessel_j_prime", "bessel_prime_zero", "bessel_zero",
    "check_boundary", "check_curl_identity", "check_scalar_orthonormality",
    "check_vector_orthonormality", "curl_u", "curl_u_grid", "default_rule",
    "dumps_state", "electric_field", "electric_field_grid", "enumerate_modes",
    "evolve", "field_samplers", "integrate_cavity", "load_state", "loads_state",
    "magnetic_field", "magnetic_field_grid", "maxwell_residual", "mode_data",
    "mode_sum_energy", "project", "psi", "psi_grid", "quadrature_rule",
    "save_state", "to_cartesian", "total_energy", "u_grid", "u_mode",
    "wall_samples", "zero_point_energy", "zero_table",
}


def test_all_is_pinned_and_resolves():
    assert len(cylcavity.__all__) == len(set(cylcavity.__all__)) == 55
    assert set(cylcavity.__all__) == PUBLIC_NAMES
    for name in cylcavity.__all__:
        assert getattr(cylcavity, name) is not None
