"""End-to-end acceptance criteria.

Each test checks one headline guarantee of the package at its stated
tolerance and prints a single PASS/FAIL line with the measured numbers
(written to the real stdout so it shows up in captured pytest runs).
"""

import math
import sys
import time

import numpy as np
import pytest

from cylcavity import (
    TE,
    TM,
    CavityGeometry,
    FieldState,
    ModeIndex,
    bessel_j,
    bessel_j_prime,
    check_curl_identity,
    check_scalar_orthonormality,
    check_vector_orthonormality,
    curl_u_grid,
    default_rule,
    enumerate_modes,
    evolve,
    field_samplers,
    magnetic_field_grid,
    electric_field_grid,
    maxwell_residual,
    mode_data,
    mode_sum_energy,
    project,
    quadrature_rule,
    total_energy,
    u_grid,
    wall_samples,
    zero_table,
)
from cylcavity.bessel import _ROOTS
from cylcavity.verify import default_nphi
from oracles import bessel_zero_oracle

GEOM = CavityGeometry(a=0.9, L=1.3, c=1.0, eps0=1.0, hbar=1.0)
OMEGA_MAX = 6.5

_terminal = None


@pytest.fixture(scope="module", autouse=True)
def _grab_terminal(request):
    # the terminal reporter writes to the pre-capture stream, so the
    # PASS/FAIL summary lines stay visible in plain `pytest -v` runs
    global _terminal
    _terminal = request.config.pluginmanager.get_plugin("terminalreporter")
    yield


def _report(ok: bool, name: str, detail: str) -> str:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    if _terminal is not None:
        _terminal.write_line(line)
    else:
        sys.__stdout__.write(line + "\n")
    return line


def test_bessel_zero_fidelity():
    _ROOTS.clear()
    t0 = time.perf_counter()
    worst_resid = 0.0
    worst_diff = 0.0
    for m in range(21):
        for kind, f in (("j", bessel_j), ("jprime", bessel_j_prime)):
            zeros = np.asarray(zero_table(m, kind, 20).zeros)
            worst_resid = max(worst_resid, float(np.max(np.abs(f(m, zeros)))))
            oracle = bessel_zero_oracle(m, kind, 20)
            worst_diff = max(worst_diff, float(np.max(np.abs(zeros - oracle))))
    dt = time.perf_counter() - t0
    ok = worst_resid < 1e-12 and worst_diff < 1e-12 and dt < 5.0
    line = _report(ok, "bessel zeros m<=20 mu<=20",
                   f"residual {worst_resid:.2e}, oracle diff {worst_diff:.2e}, {dt:.1f} s")
    assert ok, line


def test_scalar_inner_products():
    t0 = time.perf_counter()
    pool = enumerate_modes(GEOM, 8.5)
    worst = 0.0
    for sigma in (TM, TE):
        modes = [md for md in pool if md.index.sigma == sigma][:15]
        assert len(modes) == 15
        rep = check_scalar_orthonormality(modes, default_rule(GEOM, modes))
        worst = max(worst, rep.max_deviation)
    dt = time.perf_counter() - t0
    ok = worst < 1e-8 and dt < 30.0
    line = _report(ok, "scalar products 15 lowest per family",
                   f"max deviation from 0.5|c|^2 V alpha: {worst:.2e}, {dt:.1f} s")
    assert ok, line


def test_vector_orthonormality():
    t0 = time.perf_counter()
    modes = enumerate_modes(GEOM, OMEGA_MAX)[:20]
    rep = check_vector_orthonormality(modes, default_rule(GEOM, modes))
    dt = time.perf_counter() - t0
    ok = rep.max_deviation < 1e-8 and dt < 120.0
    line = _report(ok, "vector Gram 20 lowest modes",
                   f"max |G - I| = {rep.max_deviation:.2e}, {dt:.1f} s")
    assert ok, line


def test_large_vector_gram():
    t0 = time.perf_counter()
    modes = enumerate_modes(GEOM, 20.0)
    assert len(modes) == 878
    rep = check_vector_orthonormality(modes, default_rule(GEOM, modes))
    dt = time.perf_counter() - t0
    ok = rep.max_deviation < 1e-8 and dt < 120.0
    line = _report(ok, "vector Gram all 878 modes omega<=20",
                   f"max |G - I| = {rep.max_deviation:.2e}, {dt:.1f} s")
    assert ok, line


def test_boundary_conditions():
    modes = enumerate_modes(GEOM, OMEGA_MAX)
    r_w, phi_w, z_w = wall_samples(GEOM)
    on_side = np.abs(r_w - GEOM.a) <= 1e-12 * GEOM.a
    # interior reference grid
    ri = GEOM.a * (np.arange(24) + 0.5) / 24.0
    pin = 2.0 * math.pi * np.arange(20) / 20.0
    zi = GEOM.L * (np.arange(24) + 0.5) / 24.0
    grid = (ri[:, None, None], pin[None, :, None], zi[None, None, :])
    worst = 0.0
    for md in modes:
        state = FieldState(geom=GEOM, entries=((md, 1.0 + 0.5j),))
        e_w = electric_field_grid(state, r_w, phi_w, z_w)
        b_w = magnetic_field_grid(state, r_w, phi_w, z_w)
        e_tan = np.where(on_side, np.hypot(e_w[1], e_w[2]), np.hypot(e_w[0], e_w[1]))
        b_norm = np.where(on_side, np.abs(b_w[0]), np.abs(b_w[2]))
        e_i = electric_field_grid(state, *grid)
        b_i = magnetic_field_grid(state, *grid)
        e_max = float(np.max(np.sqrt(sum(c * c for c in e_i))))
        b_max = float(np.max(np.sqrt(sum(c * c for c in b_i))))
        worst = max(worst, float(np.max(e_tan)) / e_max, float(np.max(b_norm)) / b_max)
    ok = worst < 1e-10
    line = _report(ok, "wall conditions all 30 modes",
                   f"max tangential E / normal B leakage: {worst:.2e} of interior max")
    assert ok, line


def _random_state(rng, count):
    modes = enumerate_modes(GEOM, OMEGA_MAX)
    pick = [modes[i] for i in rng.choice(len(modes), size=count, replace=False)]
    amps = rng.normal(size=count) + 1j * rng.normal(size=count)
    return FieldState(geom=GEOM, entries=tuple(zip(pick, amps)))


def test_maxwell_residual_convergence():
    rng = np.random.default_rng(41)
    state = _random_state(rng, 10)
    pts = (rng.uniform(0.15, 0.75, size=20),
           rng.uniform(0.0, 2.0 * math.pi, size=20),
           rng.uniform(0.15, 1.15, size=20))
    coarse = maxwell_residual(state, pts, 1e-3)
    fine = maxwell_residual(state, pts, 5e-4)
    orders = {name: math.log2(getattr(coarse, name) / getattr(fine, name))
              for name in ("div_e", "div_b", "faraday", "ampere")}
    ok = all(v >= 1.9 for v in orders.values())
    detail = ", ".join(f"{k} {v:.2f}" for k, v in orders.items())
    line = _report(ok, "Maxwell residual convergence order", detail)
    assert ok, line


def test_energy_identity_and_invariance():
    rng = np.random.default_rng(42)
    worst = 0.0
    for count in (1, 5, 10):
        state = _random_state(rng, count)
        rule = quadrature_rule(GEOM, nr=48, nphi=default_nphi(state.modes), nz=48)
        closed = mode_sum_energy(state)
        worst = max(worst, abs(total_energy(state, rule) - closed) / closed)
        if count == 10:
            for dt in rng.uniform(-3.0, 3.0, size=10):
                drift = abs(total_energy(evolve(state, float(dt)), rule) - closed)
                worst = max(worst, drift / closed)
    ok = worst < 1e-8
    line = _report(ok, "energy = sum hbar omega |a|^2",
                   f"max relative deviation {worst:.2e} (incl. 10 evolved times)")
    assert ok, line


def test_curl_identity():
    modes = enumerate_modes(GEOM, OMEGA_MAX)[:12]
    rep = check_curl_identity(modes, default_rule(GEOM, modes),
                              rel_tol=1e-8, abs_tol=1e-12)
    ok = rep.passed
    line = _report(ok, "curl cross-products 12 lowest modes",
                   f"rel {rep.max_relative_mismatch:.2e}, abs {rep.max_absolute_mismatch:.2e}")
    assert ok, line


def test_polarization_split():
    worst = math.inf
    for m in range(6):
        for mu in range(1, 6):
            for n in range(1, 6):
                w1 = mode_data(GEOM, ModeIndex(m=m, mu=mu, n=n, sigma=TM)).omega
                w2 = mode_data(GEOM, ModeIndex(m=m, mu=mu, n=n, sigma=TE)).omega
                worst = min(worst, abs(w1 - w2) / w1)
    ok = worst > 1e-6
    line = _report(ok, "TM/TE split at equal index",
                   f"min relative gap {worst:.2e} over 150 index triples")
    assert ok, line


def test_projection_round_trip():
    rng = np.random.default_rng(43)
    state = _random_state(rng, 8)
    rule = quadrature_rule(GEOM, nr=48, nphi=default_nphi(state.modes), nz=48)
    worst = 0.0
    for st in (state, evolve(state, float(rng.uniform(0.1, 5.0)))):
        e_sampler, b_sampler = field_samplers(st)
        got = project(e_sampler, b_sampler, st.modes, rule)
        worst = max(worst, float(np.max(np.abs(got - st.amplitudes))))
    ok = worst < 1e-8
    line = _report(ok, "projection round trip 8 random modes",
                   f"max amplitude error {worst:.2e} at t = 0 and random t")
    assert ok, line
