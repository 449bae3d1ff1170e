"""Quadrature rule and the certification checks built on it."""

import dataclasses
import gc
import json
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylcavity import (
    TE,
    TM,
    CavityGeometry,
    FieldState,
    ModeIndex,
    QuadratureRule,
    check_boundary,
    check_curl_identity,
    check_scalar_orthonormality,
    check_vector_orthonormality,
    curl_u_grid,
    default_rule,
    enumerate_modes,
    field_samplers,
    integrate_cavity,
    mode_data,
    project,
    psi_grid,
    quadrature_rule,
    total_energy,
    u_grid,
    bessel_j,
    bessel_j_prime,
    wall_samples,
    zero_table,
)
import cylcavity.bessel as bessel
import cylcavity.verify as verify
from cylcavity.cli import main
from cylcavity.modefield import _CURL, _PSI, _U
from cylcavity.verify import (_SUITES, DEFAULT_NR, DEFAULT_NZ, CurlIdentityReport, GramReport, _bessel_suite, _gram,
                              _run_suites, _walls, default_nphi)
from oracles import dense_boundary, dense_gram, dense_project, masked_gram, rz_gram


def test_weights_sum_to_volume(unit_geom):
    rule = quadrature_rule(unit_geom, nr=12, nphi=7, nz=9)
    assert rule.weight_sum == pytest.approx(unit_geom.volume, rel=1e-14)


def test_rules_keep_their_own_nodes(unit_geom):
    # the [-1, 1] nodes are built once per count and shared read-only; each
    # rule scales them into read-only arrays of its own, bitwise as from leggauss
    t, w = np.polynomial.legendre.leggauss(12)
    for _ in range(2):
        rule = quadrature_rule(unit_geom, nr=12, nphi=3, nz=12)
        r = 0.5 * unit_geom.a * (t + 1.0)
        assert rule.r.tobytes() == r.tobytes()
        assert rule.wr.tobytes() == (0.5 * unit_geom.a * w * r).tobytes()
        assert rule.z.tobytes() == (0.5 * unit_geom.L * (t + 1.0)).tobytes()
        assert rule.wz.tobytes() == (0.5 * unit_geom.L * w).tobytes()
        for nodes in (rule.r, rule.wz):
            with pytest.raises(ValueError, match="read-only"):
                nodes[:] = 0.0


def test_replaced_sizes_give_their_own_nodes(unit_geom):
    # the sizes are the whole rule: a rule replaced to other sizes has the
    # nodes and weights of a rule built with them, bit for bit
    rule = quadrature_rule(unit_geom, nphi=11)
    finer = dataclasses.replace(rule, nr=96, nz=80)
    built = quadrature_rule(unit_geom, 96, rule.nphi, 80)
    assert (finer.nr, finer.nphi, finer.nz) == (96, rule.nphi, 80)
    for name in ("r", "wr", "phi", "wphi", "z", "wz"):
        assert getattr(finer, name).tobytes() == getattr(built, name).tobytes(), name
    assert rule.r.shape == rule.wr.shape == (DEFAULT_NR,)


def test_every_construction_path_checks_the_sizes(unit_geom):
    rule = quadrature_rule(unit_geom)
    for name in ("nr", "nphi", "nz"):
        with pytest.raises(ValueError, match=f"{name} must be a positive integer, got 0"):
            dataclasses.replace(rule, **{name: 0})
    with pytest.raises(ValueError, match="nphi must be a positive integer, got 0"):
        QuadratureRule(unit_geom, 64, 0, 64)
    with pytest.raises(ValueError, match="nz must be a positive integer, got 2.0"):
        QuadratureRule(unit_geom, 64, 8, 2.0)


def test_rules_compare_by_geometry_and_sizes(unit_geom):
    rule = quadrature_rule(unit_geom, nr=12, nphi=7, nz=9)
    same = QuadratureRule(CavityGeometry(a=unit_geom.a, L=unit_geom.L, c=unit_geom.c, eps0=unit_geom.eps0,
                                         hbar=unit_geom.hbar), np.int64(12), 7, 9)
    assert same == rule and hash(same) == hash(rule) and same is not rule
    assert len({rule, same}) == 1
    assert rule != QuadratureRule(CavityGeometry(a=2 * unit_geom.a, L=unit_geom.L), 12, 7, 9)
    assert rule != quadrature_rule(unit_geom, nr=12, nphi=7, nz=10)


def test_polynomial_exactness(unit_geom):
    a, L = unit_geom.a, unit_geom.L
    rule = quadrature_rule(unit_geom, nr=6, nphi=4, nz=6)
    got = integrate_cavity(lambda r, phi, z: r**3 * z**2, rule)
    expect = 2.0 * math.pi * (a**5 / 5.0) * (L**3 / 3.0)
    assert complex(got).real == pytest.approx(expect, rel=1e-14)


def test_azimuthal_fourier_exactness(unit_geom):
    rule = quadrature_rule(unit_geom, nr=4, nphi=16, nz=4)
    for q in (1, 2, 7, 15):
        got = integrate_cavity(lambda r, phi, z: np.exp(1j * q * phi), rule)
        assert abs(got) < 1e-13 * unit_geom.volume


def test_default_nphi(unit_geom):
    assert default_nphi([]) == 8
    modes = [mode_data(unit_geom, ModeIndex(m=m, mu=1, n=1, sigma=TM)) for m in (-3, 0, 2)]
    assert default_nphi(modes) == 20


def test_integrate_rejects_non_finite(unit_geom):
    rule = quadrature_rule(unit_geom, nr=4, nphi=4, nz=4)
    node = f"r={float(rule.r[0])!r}, phi={float(rule.phi[0])!r}, z={float(rule.z[0])!r}"
    with pytest.raises(ValueError, match=re.escape(f"integrand not finite at node {node}") + "$"):
        integrate_cavity(lambda r, phi, z: np.full(np.broadcast_shapes(
            np.shape(r), np.shape(phi), np.shape(z)), np.nan), rule)


def test_scalar_orthonormality_tm(unit_geom):
    modes = [md for md in enumerate_modes(unit_geom, 8.0) if md.index.sigma == TM][:12]
    rule = quadrature_rule(unit_geom, nr=48, nphi=default_nphi(modes), nz=48)
    rep = check_scalar_orthonormality(modes, rule)
    assert rep.max_deviation < 1e-10


def test_scalar_orthonormality_te(unit_geom):
    modes = [md for md in enumerate_modes(unit_geom, 8.0) if md.index.sigma == TE][:12]
    rule = quadrature_rule(unit_geom, nr=48, nphi=default_nphi(modes), nz=48)
    rep = check_scalar_orthonormality(modes, rule)
    assert rep.max_deviation < 1e-10


def test_scalar_check_rejects_mixed_sigma(unit_geom):
    modes = enumerate_modes(unit_geom, 5.0)
    assert {md.index.sigma for md in modes} == {TM, TE}
    rule = quadrature_rule(unit_geom, nr=8, nphi=8, nz=8)
    with pytest.raises(ValueError):
        check_scalar_orthonormality(modes, rule)


def test_vector_orthonormality(unit_geom):
    modes = enumerate_modes(unit_geom, 5.0)
    rule = quadrature_rule(unit_geom, nr=48, nphi=default_nphi(modes), nz=48)
    rep = check_vector_orthonormality(modes, rule)
    assert rep.max_offdiag < 1e-10
    assert rep.max_diag_deviation < 1e-10
    assert rep.hermiticity_error < 1e-14
    assert rep.max_deviation == max(rep.max_offdiag, rep.max_diag_deviation)


def test_gram_determinism(unit_geom):
    modes = enumerate_modes(unit_geom, 4.5)
    rule = quadrature_rule(unit_geom, nr=24, nphi=default_nphi(modes), nz=24)
    g1 = check_vector_orthonormality(modes, rule).matrix
    g2 = check_vector_orthonormality(modes, rule).matrix
    assert np.array_equal(g1, g2)


def test_curl_identity(unit_geom):
    modes = enumerate_modes(unit_geom, 5.0)
    rule = quadrature_rule(unit_geom, nr=48, nphi=default_nphi(modes), nz=48)
    rep = check_curl_identity(modes, rule)
    assert rep.passed
    assert rep.max_relative_mismatch < 1e-10


def test_curl_report_mismatch_math():
    dummies = ("i", "j")
    lhs = np.array([[2.0 + 0j, 0.0], [0.0, 3.0]])
    # off-diagonal: both sides below abs_tol (absolute bucket, passing);
    # diagonal (1,1): relative mismatch 1e-7 above rel_tol
    rhs = np.array([[2.0 + 0j, 5e-13], [0.0, 3.0 + 3e-7]])
    rep = CurlIdentityReport(modes=dummies, lhs=lhs, rhs=rhs, rel_tol=1e-8, abs_tol=1e-12)
    assert rep.max_absolute_mismatch == pytest.approx(5e-13)
    assert rep.max_relative_mismatch == pytest.approx(1e-7, rel=1e-3)
    assert not rep.passed
    ok = CurlIdentityReport(modes=dummies, lhs=lhs, rhs=lhs.copy(),
                            rel_tol=1e-8, abs_tol=1e-12)
    assert ok.passed
    assert ok.max_relative_mismatch == 0.0


def _report_formulas(gram, curl):
    """Every report property rebuilt from the matrices, as each access did
    before the reports kept their values."""
    u, lhs, rhs = gram.matrix, curl.lhs, curl.rhs
    mismatch = np.abs(lhs - rhs)
    scale = np.maximum(np.abs(lhs), np.abs(rhs))
    norms = np.abs(np.diag(lhs))
    bound = np.sqrt(np.outer(norms, norms))
    sig = scale > curl.abs_tol * bound
    g = {"max_offdiag": float(np.max(np.abs(u - np.diag(np.diag(u))))),
         "max_diag_deviation": float(np.max(np.abs(np.diag(u) - 1.0))),
         "hermiticity_error": float(np.max(np.abs(u - u.conj().T)))}
    g["max_deviation"] = max(g["max_offdiag"], g["max_diag_deviation"])
    c = {"max_relative_mismatch": float(np.max(mismatch[sig] / scale[sig])),
         "max_absolute_mismatch": float(np.max(mismatch[~sig])),
         "max_scaled_mismatch": float(np.max(mismatch / bound, initial=0.0)),
         "passed": bool(np.all(mismatch <= np.maximum(curl.rel_tol * scale, curl.abs_tol * bound)))}
    return g, c


def test_report_properties_are_computed_once_with_the_bits_of_their_formulas(unit_geom, capsys):
    modes = tuple(enumerate_modes(unit_geom, 10.0))
    assert len(modes) == 105
    rule = default_rule(unit_geom, modes)
    gram = GramReport(modes=modes, matrix=_gram(modes, rule, _U)[0])
    curl = check_curl_identity(modes, rule)
    want_gram, want_curl = _report_formulas(gram, curl)
    for rep, want in ((gram, want_gram), (curl, want_curl)):
        for key, value in want.items():
            got = getattr(rep, key)
            assert getattr(rep, key) is got, key       # kept, not rebuilt
            assert type(got) is type(value) and np.asarray(got).tobytes() == np.asarray(value).tobytes(), key
    # besides their figures the reports keep only the matrices they were given
    assert [k for k, v in vars(gram).items() if isinstance(v, np.ndarray)] == ["matrix"]
    assert [k for k, v in vars(curl).items() if isinstance(v, np.ndarray)] == ["lhs", "rhs"]
    # the CLI JSON carries the same bits
    assert main(["verify", "--radius", "0.9", "--height", "1.3", "--speed-of-light", "1",
                 "--vacuum-permittivity", "1", "--hbar", "1", "--omega-max", "10", "--suite", "gram,curl"]) == 0
    suites = json.loads(capsys.readouterr().out)["suites"]
    for key in ("hermiticity_error", "max_diag_deviation", "max_offdiag"):
        assert repr(suites["gram"][key]) == repr(want_gram[key]), key
    for key in ("max_absolute_mismatch", "max_relative_mismatch", "max_scaled_mismatch", "passed"):
        assert repr(suites["curl"][key]) == repr(want_curl[key]), key


_SIGNED = st.builds(lambda e, sign: sign * 10.0**e, st.floats(-16.0, 0.0), st.sampled_from([-1.0, 1.0]))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 4), data=st.data())
def test_scaled_curl_floor_rejects_all_the_absolute_floor_rejected(n, data):
    # with every sqrt(|lhs_ii lhs_jj|) <= 1 the floor abs_tol sqrt(|lhs_ii lhs_jj|)
    # is at most abs_tol, so no entry the old criterion, mismatch <=
    # max(rel_tol scale, abs_tol), rejected can pass
    rel_tol, abs_tol = 1e-8, 1e-12
    lhs = np.array(data.draw(st.lists(_SIGNED, min_size=n * n, max_size=n * n))).reshape(n, n)
    rhs = np.array(data.draw(st.lists(_SIGNED, min_size=n * n, max_size=n * n))).reshape(n, n)
    diag = np.array(data.draw(st.lists(st.floats(1e-8, 1.0), min_size=n, max_size=n)))
    np.fill_diagonal(lhs, diag)
    dummies = tuple(range(n))
    scaled = 0.0
    for i in range(n):
        for j in range(n):
            one = lhs.copy()
            one[i, j] = rhs[i, j]       # this entry alone differs
            rep = CurlIdentityReport(modes=dummies, lhs=lhs, rhs=one, rel_tol=rel_tol, abs_tol=abs_tol)
            gap = abs(lhs[i, j] - rhs[i, j])
            if gap > max(rel_tol * max(abs(lhs[i, j]), abs(rhs[i, j])), abs_tol):
                assert not rep.passed, (i, j)
            assert rep.max_scaled_mismatch == gap / math.sqrt(diag[i] * diag[j])
            scaled = max(scaled, rep.max_scaled_mismatch)
    full = CurlIdentityReport(modes=dummies, lhs=lhs, rhs=rhs, rel_tol=rel_tol, abs_tol=abs_tol)
    assert full.max_scaled_mismatch == scaled


def test_wall_samples_cover_all_walls(unit_geom):
    r, phi, z = wall_samples(unit_geom)
    on_side = np.abs(r - unit_geom.a) <= 1e-12 * unit_geom.a
    on_cap = np.minimum(np.abs(z), np.abs(unit_geom.L - z)) <= 1e-12 * unit_geom.L
    assert np.all(on_side | on_cap)
    assert np.any(on_side) and np.any(z <= 1e-12) and np.any(z >= unit_geom.L * (1 - 1e-12))


def test_default_wall_samples_are_shared_read_only(unit_geom):
    md = mode_data(unit_geom, ModeIndex(1, 1, 1, TE))
    samples = wall_samples(unit_geom)
    assert check_boundary(md) == check_boundary(md, samples)
    for v in samples:
        v[:] = unit_geom.a          # wall_samples' arrays are the caller's own
    assert check_boundary(md) == check_boundary(md, wall_samples(unit_geom))


def test_default_wall_layout_is_built_once_per_geometry(unit_geom, monkeypatch):
    # check_boundary without samples classifies the default samples once per
    # geometry; samples a caller passes are validated on every call
    verify._default_walls.cache_clear()
    built = []
    original = verify._wall_nodes
    monkeypatch.setattr(verify, "_wall_nodes", lambda geom, samples: built.append(geom) or original(geom, samples))
    other = CavityGeometry(a=1.1 * unit_geom.a, L=unit_geom.L, c=1.0, eps0=1.0, hbar=1.0)
    for geom in (unit_geom, other):
        for index in (ModeIndex(1, 1, 1, TE), ModeIndex(0, 2, 1, TM)):
            check_boundary(mode_data(geom, index))
    assert built == [unit_geom, other]
    md = mode_data(unit_geom, ModeIndex(1, 1, 1, TE))
    for _ in range(2):
        assert check_boundary(md, wall_samples(unit_geom)) == check_boundary(md)
    assert built == [unit_geom, other, unit_geom, unit_geom]
    # the 324 default samples are 25 distinct (r, z) nodes on 9 radii and 9
    # heights, then the 24 interior radii and heights
    nodes = verify._default_walls(unit_geom)
    r, z, r_at, z_at, on_side = nodes
    assert (r.size, z.size, on_side.size) == (9 + 24, 9 + 24, 25)
    assert r_at.shape == z_at.shape == on_side.shape
    assert not any(v.flags.writeable for v in nodes)
    verify._default_walls.cache_clear()


@pytest.mark.parametrize("m,mu,n,sigma", [(0, 1, 0, TM), (1, 1, 1, TM),
                                          (0, 1, 1, TE), (-2, 1, 1, TE)])
def test_boundary_leakage_is_negligible(unit_geom, m, mu, n, sigma):
    md = mode_data(unit_geom, ModeIndex(m=m, mu=mu, n=n, sigma=sigma))
    rep = check_boundary(md)
    assert rep.tangential_ratio < 1e-12
    assert rep.normal_curl_ratio < 1e-12
    assert rep.interior_max_u > 0.0


def test_boundary_rejects_interior_samples(unit_geom):
    md = mode_data(unit_geom, ModeIndex(m=0, mu=1, n=0, sigma=TM))
    bad = (np.array([0.5 * unit_geom.a]), np.array([0.0]), np.array([0.5]))
    with pytest.raises(ValueError):
        check_boundary(md, bad)


def test_boundary_rejects_empty_sample_set(unit_geom):
    md = mode_data(unit_geom, ModeIndex(m=0, mu=1, n=0, sigma=TM))
    empty = np.zeros(0)
    with pytest.raises(ValueError, match="no wall samples"):
        check_boundary(md, (empty, empty, empty))


def test_quadrature_rule_validation(unit_geom):
    with pytest.raises(ValueError):
        quadrature_rule(unit_geom, nr=0, nphi=4, nz=4)
    with pytest.raises(ValueError):
        quadrature_rule(unit_geom, nr=4, nphi=-1, nz=4)


@pytest.mark.parametrize("name", ["nr", "nphi", "nz"])
def test_quadrature_rule_counts_are_integers_not_bools(unit_geom, name):
    sizes = {"nr": 4, "nphi": 4, "nz": 4}
    plain = quadrature_rule(unit_geom, **sizes)
    numpy_int = quadrature_rule(unit_geom, **{**sizes, name: np.int64(4)})
    for attr in ("r", "wr", "phi", "wphi", "z", "wz"):
        assert np.array_equal(getattr(numpy_int, attr), getattr(plain, attr))
    for bad in (True, False, 4.0):
        with pytest.raises(ValueError, match=f"{name} must be a positive integer"):
            quadrature_rule(unit_geom, **{**sizes, name: bad})


@pytest.mark.parametrize("name,default", [("n_r", 9), ("n_phi", 12), ("n_z", 9)])
def test_wall_sample_counts_are_integers_not_bools(unit_geom, name, default):
    numpy_int = wall_samples(unit_geom, **{name: np.int32(default)})
    for got, want in zip(numpy_int, wall_samples(unit_geom)):
        assert np.array_equal(got, want)
    for bad in (2.5, 12.0, True, False, 0, -3):
        with pytest.raises(ValueError, match=f"{name} must be a positive integer"):
            wall_samples(unit_geom, **{name: bad})


def test_rule_of_another_geometry_is_rejected(unit_geom):
    # at a = 1.0, L = 1.5 the unit_geom rule still lies inside the cavity, so
    # a missing check returns plausible wrong numbers instead of failing
    other = CavityGeometry(a=1.0, L=1.5, c=1.0, eps0=1.0, hbar=1.0)
    modes = enumerate_modes(other, 5.0)
    rule = default_rule(unit_geom, modes)
    te = [md for md in modes if md.index.sigma == TE]
    state = FieldState(geom=other, entries=tuple((md, 1.0) for md in modes))
    for call, first in ((lambda: check_vector_orthonormality(modes, rule), modes[0]),
                        (lambda: check_curl_identity(modes, rule), modes[0]),
                        (lambda: check_scalar_orthonormality(te, rule), te[0]),
                        (lambda: project(*field_samplers(state), modes[::-1], rule), modes[-1]),
                        (lambda: total_energy(state, rule), modes[0])):
        with pytest.raises(ValueError, match=re.escape(f"mode {first.index} belongs to {other}")):
            call()
    # the same numbers on an equal geometry pass
    same = CavityGeometry(a=1.0, L=1.5, c=1.0, eps0=1.0, hbar=1.0)
    assert check_vector_orthonormality(modes, default_rule(same, modes)).max_deviation < 1e-12


def test_default_rule_accepts_numpy_integers(unit_geom):
    modes = enumerate_modes(unit_geom, 3.0)
    rule = default_rule(unit_geom, modes, nr=np.int64(16), nz=np.int32(12))
    assert (rule.nr, rule.nz) == (16, 12)
    with pytest.raises(ValueError, match="nr must be a positive integer"):
        default_rule(unit_geom, modes, nr=True)


# ------------------------------------- sum-factorized kernel vs dense oracle

def _assert_matches_dense(got, ref):
    scale = float(np.max(np.abs(ref)))
    assert scale > 0.0
    assert float(np.max(np.abs(got - ref))) <= 1e-13 * scale


def _oracle_rules(geom, modes):
    # the default rule, and one with nr != nz and an odd nphi that still
    # resolves every azimuthal difference of the set (max |m| = 4)
    return (default_rule(geom, modes), quadrature_rule(geom, nr=20, nphi=13, nz=14))


@pytest.fixture
def oracle_modes(unit_geom):
    # 30 lowest modes: +-m pairs up to |m| = 4, TM with n = 0 and n > 0, TE
    modes = enumerate_modes(unit_geom, 6.5)
    kinds = {(md.index.sigma, md.index.n == 0, md.index.m < 0) for md in modes}
    assert {(TM, True, True), (TM, False, False), (TE, False, True)} <= kinds
    return modes


def test_vector_gram_matches_dense_oracle(unit_geom, oracle_modes):
    for rule in _oracle_rules(unit_geom, oracle_modes):
        got = check_vector_orthonormality(oracle_modes, rule).matrix
        _assert_matches_dense(got, dense_gram(oracle_modes, rule, u_grid))


def test_curl_identity_matrices_match_dense_oracle(unit_geom, oracle_modes):
    ksq = np.array([md.k**2 for md in oracle_modes])
    for rule in _oracle_rules(unit_geom, oracle_modes):
        rep = check_curl_identity(oracle_modes, rule)
        _assert_matches_dense(rep.lhs, dense_gram(oracle_modes, rule, curl_u_grid))
        _assert_matches_dense(rep.rhs, dense_gram(oracle_modes, rule, u_grid) * ksq)


def test_scalar_gram_matches_dense_oracle(unit_geom, oracle_modes):
    psi = lambda md, r, phi, z: (psi_grid(md, r, phi, z),)
    for sigma in (TM, TE):
        modes = [md for md in oracle_modes if md.index.sigma == sigma]
        diag = np.array([0.5 * md.c_norm**2 * md.geom.volume * md.alpha for md in modes])
        for rule in _oracle_rules(unit_geom, modes):
            got = check_scalar_orthonormality(modes, rule).matrix
            ref = dense_gram(modes, rule, psi) / np.sqrt(np.outer(diag, diag))
            _assert_matches_dense(got, ref)


def test_projection_matches_dense_oracle(unit_geom, oracle_modes, rng):
    amps = rng.normal(size=len(oracle_modes)) + 1j * rng.normal(size=len(oracle_modes))
    state = FieldState(geom=unit_geom, entries=tuple(zip(oracle_modes, amps)))
    e_sampler, b_sampler = field_samplers(state)
    for rule in _oracle_rules(unit_geom, oracle_modes):
        got = project(e_sampler, b_sampler, oracle_modes, rule)
        _assert_matches_dense(got, dense_project(e_sampler, b_sampler, oracle_modes, rule))


def test_gram_and_curl_match_rz_oracle_at_183_modes(unit_geom):
    # past the reach of the 3-D oracle: |m| up to 8, the default rule
    modes = enumerate_modes(unit_geom, 12.0)
    assert len(modes) == 183 and max(abs(md.index.m) for md in modes) == 8
    rule = default_rule(unit_geom, modes)
    u = rz_gram(modes, rule, u_grid)
    gram = check_vector_orthonormality(modes, rule).matrix
    _assert_matches_dense(gram, u)
    rep = check_curl_identity(modes, rule)
    _assert_matches_dense(rep.lhs, rz_gram(modes, rule, curl_u_grid))
    _assert_matches_dense(rep.rhs, u * np.array([md.k**2 for md in modes]))
    # the phi sum is exact: on the default rule no two m classes meet
    m = np.array([md.index.m for md in modes])
    cross = m[:, None] != m[None, :]
    assert np.all(gram[cross] == 0.0) and np.all(rep.lhs[cross] == 0.0)


@pytest.mark.parametrize("count", [0, 1, 183])
def test_gram_is_exactly_hermitian_and_matches_rz_oracle(unit_geom, count):
    # every row set's Gram from the table Grams equals its conjugate
    # transpose bit for bit, and the (r, z)-plane GEMM within rounding
    modes = tuple(enumerate_modes(unit_geom, 12.0)[:count])
    rule = default_rule(unit_geom, modes)
    psi = lambda md, r, phi, z: (psi_grid(md, r, phi, z),)
    for rows, evaluator in ((_PSI, psi), (_U, u_grid), (_CURL, curl_u_grid)):
        (got,) = _gram(modes, rule, rows)
        assert got.shape == (count, count) and np.array_equal(got, got.conj().T)
        if modes:
            _assert_matches_dense(got, rz_gram(modes, rule, evaluator))
    assert check_vector_orthonormality(modes, rule).hermiticity_error == 0.0


def test_under_resolved_phi_rule_aliases_like_dense_sum(unit_geom, oracle_modes):
    # nphi = 7 cannot resolve m differences of 7 or 8: the factorized phi
    # sum must show the same aliased entries as the full 3-D sum
    rule = quadrature_rule(unit_geom, nr=20, nphi=7, nz=14)
    got = check_vector_orthonormality(oracle_modes, rule)
    assert got.max_offdiag > 1e-3
    _assert_matches_dense(got.matrix, dense_gram(oracle_modes, rule, u_grid))
    # the aliased cross-m entries keep their sum w_phi, all other cross-m entries are 0
    m = np.array([md.index.m for md in oracle_modes])
    q = m[None, :] - m[:, None]
    aliased = (q % 7 == 0) & (q != 0)
    assert np.any(aliased) and np.all(got.matrix[aliased] != 0.0)
    assert np.all(got.matrix[q % 7 != 0] == 0.0)


@pytest.mark.parametrize("nphi", [0, 7])
def test_gram_sums_the_in_class_pairs_with_the_bits_of_the_masked_sum(unit_geom, oracle_modes, nphi):
    # the default nphi resolves every m difference of the set, nphi = 7 puts
    # m differences of 7 and 8 in one class; in-class entries keep the bits of
    # the sum over all pairs, the others are 0.0 with no sign bit
    rule = quadrature_rule(unit_geom, nr=20, nphi=nphi or default_nphi(oracle_modes), nz=14)
    m = np.array([md.index.m for md in oracle_modes])
    same = (m[:, None] - m[None, :]) % rule.nphi == 0
    assert np.any(~same) and np.any(same != (m[:, None] == m[None, :])) == bool(nphi)   # aliased pairs
    for rows in ((_PSI,), (_U,), (_CURL,), (_U, _CURL)):
        for got, want in zip(_gram(oracle_modes, rule, *rows), masked_gram(oracle_modes, rule, *rows), strict=True):
            assert got[same].tobytes() == want[same].tobytes(), rows
            assert not np.any(got[~same].view(np.uint64)), rows      # all bits 0


def test_gram_holds_no_cross_class_array(unit_geom):
    # at 878 modes 95 % of the pairs cross m classes: the peak is little more
    # than the two output matrices, where summing every pair takes twice that
    modes = enumerate_modes(unit_geom, 20.0)
    assert len(modes) == 878
    rule = default_rule(unit_geom, modes)
    _gram(modes, rule, _U, _CURL)       # the kept radial tables are built
    tracemalloc.start()
    try:
        _gram(modes, rule, _U, _CURL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2 * 16 * len(modes) ** 2


# -------------------------------------------- wall check vs phased oracle

def _assert_boundary_matches(md, samples):
    # wall values are rounding noise; hold them to the interior scale
    rep = check_boundary(md, samples)
    ref = dense_boundary(md, samples)
    for name, scale in (("max_tangential_u", "interior_max_u"), ("interior_max_u", "interior_max_u"),
                        ("max_normal_curl", "interior_max_curl"),
                        ("interior_max_curl", "interior_max_curl")):
        assert ref[scale] > 0.0
        assert abs(getattr(rep, name) - ref[name]) <= 1e-13 * ref[scale], (md.index, name)


def test_boundary_matches_phased_oracle(unit_geom, oracle_modes):
    for md in oracle_modes:
        _assert_boundary_matches(md, wall_samples(unit_geom))


def test_boundary_broadcasts_samples_before_flattening(unit_geom, oracle_modes):
    # a scalar r = a with arrays of phi and z covers the side wall
    phi, z = np.meshgrid(np.linspace(0.0, 6.0, 7), np.linspace(0.0, unit_geom.L, 5),
                         indexing="ij")
    for md in oracle_modes:
        _assert_boundary_matches(md, (unit_geom.a, phi, z))
        side = check_boundary(md, (unit_geom.a, phi, z))
        full = check_boundary(md, (np.full(phi.shape, unit_geom.a), phi, z))
        assert side == full


def test_repeated_phi_samples_are_one_node(unit_geom, oracle_modes):
    # every default wall node, the corners r = a, z in {0, L} among them, at
    # 5 phi: the oracle still agrees, and the report has the bits of the set
    # without repeats, since samples that differ only in phi are one node
    r, phi, z = wall_samples(unit_geom)
    corners = np.isclose(r, unit_geom.a) & (np.isclose(z, 0.0) | np.isclose(z, unit_geom.L))
    assert np.any(corners)
    repeated = (np.repeat(r, 5), np.tile(np.linspace(0.0, 6.0, 5), r.size), np.repeat(z, 5))
    for md in oracle_modes:
        _assert_boundary_matches(md, repeated)
        assert check_boundary(md, repeated) == check_boundary(md, (r, phi, z))


def test_interior_heights_do_not_alias():
    # the reference maxima take cos(n pi t) and sin(n pi t) on the 24
    # Gauss-Legendre nodes t of (0, 1); on the 24 cell centres cos(24 pi t)
    # vanishes at every node
    geom = CavityGeometry(a=1.0, L=1.0, c=1.0, eps0=1.0, hbar=1.0)
    t = verify._default_walls(geom)[1][-24:]
    nt = np.arange(1, 2001)[:, None] * math.pi * t
    assert np.min(np.max(np.abs(np.cos(nt)), axis=1)) >= 0.70
    assert np.min(np.max(np.abs(np.sin(nt)), axis=1)) >= 0.69
    cells = (np.arange(24) + 0.5) / 24.0
    assert np.max(np.abs(np.cos(24.0 * math.pi * cells))) < 1e-13


@pytest.mark.parametrize("m,mu", [(6, 2), (9, 1), (-35, 1)])
def test_tm_modes_with_n_24_pass_the_wall_check(unit_geom, m, mu):
    # cos(h z) with n = 24 vanished on every cell-centre height, so the curl's
    # interior maximum read ~1e-12 and the normal-curl ratio ~0.3
    md = mode_data(unit_geom, ModeIndex(m=m, mu=mu, n=24, sigma=TM))
    rep = check_boundary(md)
    assert rep.tangential_ratio < 1e-12 and rep.normal_curl_ratio < 1e-12
    _assert_boundary_matches(md, wall_samples(unit_geom))


# --------------------------------------------- a verify run shares its work

def test_walls_equal_one_mode_checks_bitwise(unit_geom, oracle_modes):
    # one evaluation per chunk of |m| groups gives each mode the bits it gets alone
    samples = wall_samples(unit_geom)
    maxima = _walls(tuple(oracle_modes), samples)
    assert maxima.shape == (4, len(oracle_modes))
    for column, md in zip(maxima.T.tolist(), oracle_modes):
        rep = check_boundary(md, samples)
        assert column == [rep.max_tangential_u, rep.max_normal_curl, rep.interior_max_u, rep.interior_max_curl]
    assert _walls((), samples).shape == (4, 0)


_TOLERANCES = {"gram_tol": 1e-8, "curl_rel_tol": 1e-8, "curl_abs_tol": 1e-12,
               "boundary_tol": 1e-10, "bessel_tol": 1e-12}


def _assert_suites_carry_the_report_bits(got, modes, rule):
    # the figures _run_suites takes from the class blocks have the bits of
    # the dense reports' figures, NaN included
    gram = check_vector_orthonormality(modes, rule)
    curl = check_curl_identity(modes, rule, _TOLERANCES["curl_rel_tol"], _TOLERANCES["curl_abs_tol"])
    if "gram" in got:
        assert got["gram"]["mode_count"] == len(modes)
        assert got["gram"]["passed"] is bool(gram.max_deviation <= _TOLERANCES["gram_tol"])
        for key in ("hermiticity_error", "max_diag_deviation", "max_offdiag"):
            assert repr(got["gram"][key]) == repr(getattr(gram, key)), key
    if "curl" in got:
        for key in ("max_absolute_mismatch", "max_relative_mismatch", "max_scaled_mismatch", "passed"):
            assert repr(got["curl"][key]) == repr(getattr(curl, key)), key


def test_run_suites_gram_and_curl_equal_public_checks_bitwise(unit_geom):
    # a resolving rule, an under-resolved nr = nz = 10 (fails), and no modes
    # at all; an aliasing nphi is covered by the dense sum and the masked sum
    for omega_max, nr, nz, passed in ((6.5, DEFAULT_NR, DEFAULT_NZ, True), (10.0, 10, 10, False),
                                      (0.1, DEFAULT_NR, DEFAULT_NZ, True)):
        modes = enumerate_modes(unit_geom, omega_max)
        rule = default_rule(unit_geom, modes, nr=nr, nz=nz)
        # gram alone reads a three-component Gram, with curl a six-component one
        for suites in (("gram",), ("curl",), ("gram", "curl")):
            got = _run_suites(unit_geom, omega_max, suites, nr, nz, _TOLERANCES)
            assert got["suites"].keys() == set(suites) and got["passed"] is passed, (omega_max, nr)
            _assert_suites_carry_the_report_bits(got["suites"], modes, rule)


def test_run_suites_show_a_nan_in_any_one_block_as_the_dense_reports_do(unit_geom, oracle_modes, monkeypatch):
    # np.max keeps a NaN wherever it is, where Python's max keeps it only first;
    # at omega <= 2.7 the one mode TM(0,1,0) is the one class, a 1 x 1 block
    original = verify._blocks
    one_mode = enumerate_modes(unit_geom, 2.7)
    assert [md.index for md in one_mode] == [ModeIndex(m=0, mu=1, n=0, sigma=TM)]
    for omega_max, modes in ((6.5, oracle_modes), (2.7, one_mode)):
        rule = default_rule(unit_geom, modes)
        sizes = [len(idx) for idx, _ in original(modes, rule, _U)]
        assert (len(sizes) > 2 and max(sizes) > 1) or sizes == [1]
        for poisoned_class, size in enumerate(sizes):
            for at, rows in ((0, _U), (0, _CURL), (size * size - 2, _U), (1, _CURL)):
                if size == 1 and at != 0:
                    continue

                def poisoned(modes, rule, *row_sets):
                    for k, (idx, blocks) in enumerate(original(modes, rule, *row_sets)):
                        for sliced, block in zip(row_sets, blocks):
                            if k == poisoned_class and sliced == rows:
                                block.flat[at] = np.nan
                        yield idx, blocks

                monkeypatch.setattr(verify, "_blocks", poisoned)
                got = _run_suites(unit_geom, omega_max, ("gram", "curl"), None, None, _TOLERANCES)   # rule's sizes
                # a NaN in u fails both suites (the curl rhs is k^2 u), one in curl u the curl suite
                assert got["passed"] is False and got["suites"]["curl"]["passed"] is False
                assert got["suites"]["gram"]["passed"] is (rows == _CURL), (omega_max, poisoned_class, at)
                got = got["suites"]
                assert any(isinstance(v, float) and math.isnan(v) for suite in got.values() for v in suite.values())
                _assert_suites_carry_the_report_bits(got, modes, rule)
                monkeypatch.undo()


def test_a_nan_in_a_one_mode_gram_shows_in_max_deviation():
    # the off-diagonal maximum of a 1 x 1 matrix is over no entries
    rep = GramReport(modes=(), matrix=np.array([[np.nan]]))
    assert rep.max_offdiag == 0.0 and math.isnan(rep.max_diag_deviation) and math.isnan(rep.max_deviation)
    assert math.isnan(rep.hermiticity_error)
    finite = GramReport(modes=(), matrix=np.array([[1.0 + 2e-16j]]))
    assert (finite.max_offdiag, finite.max_deviation, finite.hermiticity_error) == (0.0, 2e-16, 4e-16)


@pytest.mark.parametrize("nphi", [0, 7])
def test_blocks_yield_the_m_classes_by_size_then_class_with_stable_members(unit_geom, oracle_modes, nphi):
    # the default nphi resolves every m difference of the set; nphi = 7 puts
    # m and m - 7 (or m + 7) in one class
    for modes in (oracle_modes, oracle_modes[5:6]):
        rule = quadrature_rule(unit_geom, nr=20, nphi=nphi or default_nphi(modes), nz=14)
        m = np.array([md.index.m for md in modes])
        q = m % rule.nphi
        got = list(verify._blocks(modes, rule, _U, _CURL))
        classes = sorted(set(q.tolist()), key=lambda c: (np.count_nonzero(q == c), c))
        assert [idx.tolist() for idx, _ in got] == [np.flatnonzero(q == c).tolist() for c in classes]
        # not the ascending class order: the sizes decide first
        assert (classes != sorted(classes)) == (len(modes) > 1)
        assert all(len(blocks) == 2 and {b.shape for b in blocks} == {(len(idx),) * 2} for idx, blocks in got)
        assert any(len(set(m[idx].tolist())) > 1 for idx, _ in got) == (bool(nphi) and len(modes) > 1)
    assert list(verify._blocks((), rule, _U)) == []


def test_run_suites_read_each_class_once_and_hold_no_earlier_one(unit_geom, monkeypatch):
    # when class k is yielded, the blocks of classes 0 .. k - 2 are gone:
    # neither _blocks nor _run_suites keeps a block it is done with (the
    # loop of _run_suites still names class k - 1's blocks)
    original, refs, alive = verify._blocks, [], []

    def watched(modes, rule, *row_sets):
        for idx, blocks in original(modes, rule, *row_sets):
            gc.collect()
            alive.extend((len(refs), j) for j, kept in enumerate(refs[:-1]) if any(ref() is not None for ref in kept))
            refs.append([weakref.ref(block) for block in blocks])
            yield idx, blocks

    monkeypatch.setattr(verify, "_blocks", watched)
    got = _run_suites(unit_geom, 10.0, ("gram", "curl"), DEFAULT_NR, DEFAULT_NZ, _TOLERANCES)
    assert got["passed"] and len(refs) > 10 and all(len(kept) == 2 for kept in refs)
    assert alive == []


def test_run_suites_hold_no_n_by_n_array(unit_geom):
    # at 878 modes the peak stays below one complex 878 x 878 matrix, where
    # the dense reports took 5 of them; at 2999 modes the peak stays below
    # 18 MB, where holding every class block of u and of curl u (9.5 MB)
    # until the curl suite read them peaked at 22 MB, and summing the pairs
    # of all classes in one expression at 53 MB
    for omega_max, count, bound in ((20.0, 878, 16 * 878**2), (30.0, 2999, 18e6)):
        _run_suites(unit_geom, omega_max, ("gram", "curl"), DEFAULT_NR, DEFAULT_NZ, _TOLERANCES)     # tables kept
        tracemalloc.start()
        try:
            got = _run_suites(unit_geom, omega_max, ("gram", "curl"), DEFAULT_NR, DEFAULT_NZ, _TOLERANCES)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got["mode_count"] == count and got["passed"]
        assert peak < bound, omega_max


def test_boundary_suite_shows_a_nan_ratio_of_any_mode(unit_geom, monkeypatch):
    original = verify._walls

    def poisoned(modes, samples=None):
        maxima = original(modes, samples)
        maxima[0, 5] = math.nan     # mode 5's max tangential u
        return maxima

    monkeypatch.setattr(verify, "_walls", poisoned)
    got = _run_suites(unit_geom, 6.5, ("boundary",), DEFAULT_NR, DEFAULT_NZ, _TOLERANCES)
    rep = got["suites"]["boundary"]
    assert got["mode_count"] == 30 and got["passed"] is False and rep["passed"] is False
    assert math.isnan(rep["max_tangential_ratio"])
    assert type(rep["max_tangential_ratio"]) is float and type(rep["max_normal_curl_ratio"]) is float
    assert rep["max_normal_curl_ratio"] < 1e-10


@pytest.mark.parametrize("bad", [-1e-12, math.nan, math.inf])
def test_tolerances_must_be_finite_and_not_negative(unit_geom, oracle_modes, bad):
    rule = default_rule(unit_geom, oracle_modes)
    for name in ("rel_tol", "abs_tol"):
        with pytest.raises(ValueError, match=f"^{name} must be a finite number >= 0, got {bad!r}$"):
            check_curl_identity(oracle_modes, rule, **{name: bad})
    for name in _TOLERANCES:
        with pytest.raises(ValueError, match=f"^{name} must be a finite number >= 0, got {bad!r}$"):
            _run_suites(unit_geom, 6.5, _SUITES, DEFAULT_NR, DEFAULT_NZ, {**_TOLERANCES, name: bad})


# ----------------------------------------------------------- bessel suite

def test_bessel_suite_evaluates_every_residual_in_one_call(monkeypatch):
    _bessel_suite(1e-12)        # the zero tables are found once and kept
    calls = []
    original = bessel._j_points
    monkeypatch.setattr(bessel, "_j_points", lambda orders, x: calls.append(len(x)) or original(orders, x))
    rep = _bessel_suite(1e-12)
    assert calls == [18 * 8]
    monkeypatch.undo()
    # each residual has the bits the public functions give the certified tables
    want = max(float(np.max(np.abs(f(m, np.asarray(zero_table(m, kind, 8).zeros)))))
               for kind, f in (("j", bessel_j), ("jprime", bessel_j_prime)) for m in range(9))
    assert rep["max_residual"] == want < 1e-12
    assert rep["passed"] and rep["interlacing_ok"] and rep["orders_checked"] == 9


@pytest.mark.parametrize("tol", ["1e-12", "1e-3"])
def test_verify_rejects_an_uncertified_zero_whatever_the_tolerance(monkeypatch, capsys, tol):
    original = verify._root_funcs

    def off(m, is_j, x, with_derivative):
        f = original(m, is_j, x, with_derivative).copy()
        f[4 * 8 + 5] = 1e-12        # zero 6 of J_4
        return f

    monkeypatch.setattr(verify, "_root_funcs", off)
    argv = ["verify", "--radius", "0.9", "--height", "1.3", "--omega-max", "1",
            "--suite", "bessel", "--bessel-tol", tol]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert not out
    assert "residual 1.000e-12 exceeds 1e-12 at zero 6 of kind 'j', order 4" in err


def test_bessel_suite_checks_interlacing(monkeypatch):
    original = verify._zero_tables

    def swapped(counts, below=0.0):
        found = dict(original(counts, below))
        found[2, "j"], found[3, "j"] = found[3, "j"], found[2, "j"]
        return found

    monkeypatch.setattr(verify, "_zero_tables", swapped)
    monkeypatch.setattr(verify, "_root_funcs", lambda m, is_j, x, with_derivative: np.zeros_like(x))
    rep = _bessel_suite(1e-12)
    assert rep["max_residual"] == 0.0 and not rep["interlacing_ok"] and not rep["passed"]
