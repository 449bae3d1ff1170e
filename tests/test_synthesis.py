"""Field synthesis, energy bookkeeping, projection, Maxwell residuals."""

import cmath
import dataclasses
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cylcavity import (
    TE,
    TM,
    CavityGeometry,
    CylPoint,
    FieldState,
    ModeIndex,
    QuadratureRule,
    curl_u_grid,
    default_rule,
    electric_field,
    electric_field_grid,
    enumerate_modes,
    evolve,
    field_samplers,
    magnetic_field,
    magnetic_field_grid,
    maxwell_residual,
    mode_data,
    mode_sum_energy,
    project,
    psi_grid,
    quadrature_rule,
    total_energy,
    u_grid,
    zero_point_energy,
)
import cylcavity
import cylcavity.modefield as modefield
from cylcavity.modefield import _CHUNK_POINTS, _groups, _walk
from cylcavity.synthesis import _contract, _fd_stencil, _synthesize
from cylcavity.verify import default_nphi
from oracles import dense_energy, dense_fields, dense_project


def _random_state(geom, rng, count, omega_max=6.5, t=0.0):
    modes = enumerate_modes(geom, omega_max)
    pick = [modes[i] for i in rng.choice(len(modes), size=count, replace=False)]
    amps = rng.normal(size=count) + 1j * rng.normal(size=count)
    return FieldState(geom=geom, entries=tuple(zip(pick, amps)), t=t)


def _rule_for(state, extra=()):
    return quadrature_rule(state.geom, nr=48,
                           nphi=default_nphi(list(state.modes) + list(extra)), nz=48)


def test_fields_are_real_float_arrays(unit_geom, rng):
    state = _random_state(unit_geom, rng, 6)
    r = np.linspace(0.0, unit_geom.a, 5)[:, None, None]
    phi = np.linspace(0.0, 2.0 * math.pi, 6, endpoint=False)[None, :, None]
    z = np.linspace(0.0, unit_geom.L, 5)[None, None, :]
    for comp in (*electric_field_grid(state, r, phi, z),
                 *magnetic_field_grid(state, r, phi, z)):
        assert comp.dtype == np.float64
        assert np.all(np.isfinite(comp))


def test_point_api_matches_grid(unit_geom, rng):
    state = _random_state(unit_geom, rng, 5)
    p = CylPoint(r=0.4, phi=2.1, z=0.8)
    e = electric_field(state, p)
    b = magnetic_field(state, p)
    eg = electric_field_grid(state, np.array([p.r]), np.array([p.phi]), np.array([p.z]))
    bg = magnetic_field_grid(state, np.array([p.r]), np.array([p.phi]), np.array([p.z]))
    assert np.array_equal(e, np.array([float(c[0]) for c in eg]))
    assert np.array_equal(b, np.array([float(c[0]) for c in bg]))


def test_evolve_phases_and_time(unit_geom, rng):
    state = _random_state(unit_geom, rng, 5, t=0.3)
    dt = 0.77
    out = evolve(state, dt)
    assert out.t == pytest.approx(state.t + dt)
    for (md, a0), (_, a1) in zip(state.entries, out.entries):
        assert a1 == pytest.approx(a0 * cmath.exp(-1j * md.omega * dt), abs=1e-15)
        assert abs(a1) == pytest.approx(abs(a0), rel=1e-15)


def test_evolve_composes(unit_geom, rng):
    state = _random_state(unit_geom, rng, 4)
    one = evolve(state, 0.9)
    two = evolve(evolve(state, 0.4), 0.5)
    assert np.max(np.abs(one.amplitudes - two.amplitudes)) < 1e-14


def test_energy_matches_mode_sum(unit_geom, rng):
    state = _random_state(unit_geom, rng, 8)
    rule = _rule_for(state)
    closed = mode_sum_energy(state)
    assert total_energy(state, rule) == pytest.approx(closed, rel=1e-10)


def test_energy_invariant_under_evolution(unit_geom, rng):
    state = _random_state(unit_geom, rng, 6)
    rule = _rule_for(state)
    closed = mode_sum_energy(state)
    for dt in rng.uniform(-2.0, 2.0, size=4):
        assert total_energy(evolve(state, float(dt)), rule) == pytest.approx(
            closed, rel=1e-10)


def test_energy_in_si_units(si_geom, rng):
    modes = enumerate_modes(si_geom, 1.2 * si_geom.c * 2.4049 / si_geom.a)
    state = FieldState(geom=si_geom, entries=((modes[0], 2.0 - 1.0j),))
    rule = quadrature_rule(si_geom, nr=48, nphi=8, nz=48)
    closed = mode_sum_energy(state)
    assert closed == pytest.approx(si_geom.hbar * modes[0].omega * 5.0, rel=1e-15)
    assert total_energy(state, rule) == pytest.approx(closed, rel=1e-10)


def test_zero_point_reported_separately(unit_geom):
    modes = enumerate_modes(unit_geom, 5.0)
    silent = FieldState(geom=unit_geom,
                        entries=tuple((md, 0.0 + 0.0j) for md in modes))
    rule = quadrature_rule(unit_geom, nr=16, nphi=12, nz=16)
    assert total_energy(silent, rule) == 0.0
    expect = 0.5 * sum(md.omega for md in modes)
    assert zero_point_energy(silent) == pytest.approx(expect, rel=1e-15)


def _energy_state(geom, rng, kind):
    modes = enumerate_modes(geom, 6.5)     # the 30 lowest: +-m pairs, TM n = 0 and n > 0, TE
    pick = {"pm_pairs": modes,
            "tm_n0": [md for md in modes if md.index.sigma == TM and md.index.n == 0],
            "m0": [md for md in modes if md.index.m == 0],
            "single": [mode_data(geom, ModeIndex(2, 1, 1, TE))]}[kind]
    amps = rng.normal(size=len(pick)) + 1j * rng.normal(size=len(pick))
    return FieldState(geom=geom, entries=tuple(zip(pick, amps)))


def _energy_rule(state, kind):
    geom, modes = state.geom, state.modes
    if kind.startswith("nphi"):
        return quadrature_rule(geom, nphi=int(kind[4:]))
    if kind.startswith("nrz"):
        return quadrature_rule(geom, nr=int(kind[3:]), nphi=default_nphi(modes), nz=int(kind[3:]))
    return default_rule(geom, modes)


_ENERGY_RULES = ["default", "nphi3", "nphi4", "nphi5", "nphi7", "nphi8", "nrz6", "nrz10"]
# the (state, rule) cases whose doubled set, the modes and their conjugates
# (-m), holds two members of different m in one class m mod nphi
_ALIASING = {("pm_pairs", "nphi3"), ("pm_pairs", "nphi4"), ("pm_pairs", "nphi5"), ("pm_pairs", "nphi7"),
             ("pm_pairs", "nphi8"), ("tm_n0", "nphi3"), ("tm_n0", "nphi4"), ("single", "nphi4")}


def _doubled_set_aliases(modes, nphi):
    m = {sign * md.index.m for md in modes for sign in (1, -1)}
    return len({v % nphi for v in m}) < len(m)


@pytest.mark.parametrize("rule_kind", _ENERGY_RULES)
@pytest.mark.parametrize("state_kind", ["pm_pairs", "tm_n0", "m0", "single"])
def test_energy_matches_dense_quadrature(unit_geom, rng, state_kind, rule_kind):
    # the same discrete sum as the 3-D quadrature of the dense fields, so a
    # coarse r, z rule errs exactly as that sum does; an aliasing phi rule,
    # on which that sum errs too, raises instead
    state = _energy_state(unit_geom, rng, state_kind)
    assert state_kind != "tm_n0" or {md.index.m for md in state.modes} >= {-1, 0, 1}
    rule = _energy_rule(state, rule_kind)
    assert _doubled_set_aliases(state.modes, rule.nphi) == ((state_kind, rule_kind) in _ALIASING)
    if (state_kind, rule_kind) in _ALIASING:
        with pytest.raises(ValueError, match=f"phi rule aliases .*: m differs by a multiple of nphi={rule.nphi}$"):
            total_energy(state, rule)
        return
    want = dense_energy(state, rule)
    assert abs(total_energy(state, rule) - want) <= 1e-14 * want


def test_energy_shows_the_error_of_an_under_resolved_rule(unit_geom, rng):
    state = _energy_state(unit_geom, rng, "pm_pairs")
    closed = mode_sum_energy(state)
    for kind in _ENERGY_RULES:
        rule = _energy_rule(state, kind)
        if ("pm_pairs", kind) in _ALIASING:
            with pytest.raises(ValueError, match=f"nphi={rule.nphi}$"):
                total_energy(state, rule)
            continue
        err = abs(total_energy(state, rule) - closed) / closed
        assert (err < 1e-14) if kind == "default" else (err > 1e-12), (kind, err)
    assert {kind for kind in _ENERGY_RULES if ("pm_pairs", kind) not in _ALIASING} == {"default", "nrz6", "nrz10"}


def _readme_state_at_12(geom):
    modes = enumerate_modes(geom, 12.0)     # 183 modes, |m| <= 8
    rng = np.random.default_rng(12)
    amps = rng.normal(size=len(modes)) + 1j * rng.normal(size=len(modes))
    return FieldState(geom=geom, entries=tuple(zip(modes, amps)))


_MEMBER = r"(the conjugate of )?ModeIndex\(m=(-?\d+),[^)]*\) \(m=(-?\d+)\)"
_CLASH = re.compile(rf"phi rule aliases {_MEMBER} and {_MEMBER}: m differs by a multiple of nphi=(\d+)")


def _clash(message, nphi):
    """Which of the two members named are conjugates; each shows its own m, and
    the two m differ by a nonzero multiple of nphi."""
    found = _CLASH.fullmatch(message)
    assert found, message
    first, index_m, m1, second, partner_m, m2, named = found.groups()
    assert int(m1) == (-1 if first else 1) * int(index_m) and int(m2) == (-1 if second else 1) * int(partner_m)
    assert int(named) == nphi and m1 != m2 and (int(m1) - int(m2)) % nphi == 0
    return bool(first), bool(second)


@pytest.mark.parametrize("nphi, lowest_m, count", [(9, 1, 81), (16, 0, 102)])
def test_projection_rejects_a_rule_that_aliases_a_mode_with_a_conjugate(unit_geom, nphi, lowest_m, count):
    # no two of these modes agree mod nphi, but a real field holds every
    # mode's conjugate at -m too, and m = 1 meets -8 mod 9, m = 8 meets -8 mod 16
    state = _readme_state_at_12(unit_geom)
    picked = [k for k, md in enumerate(state.modes) if md.index.m >= lowest_m]
    targets = [state.modes[k] for k in picked]
    assert len(state.modes) == 183 and len(targets) == count
    assert len({md.index.m % nphi for md in targets}) == len({md.index.m for md in targets})
    samplers = field_samplers(state)
    with pytest.raises(ValueError) as err:
        project(*samplers, targets, quadrature_rule(unit_geom, nphi=nphi))
    assert _clash(str(err.value), nphi) == (False, True)     # a mode, then the conjugate of another
    got = project(*samplers, targets, quadrature_rule(unit_geom, nphi=17))
    assert np.max(np.abs(got - state.amplitudes[picked])) < 1e-10


@pytest.mark.parametrize("nphi", [16, 15])
def test_energy_rejects_a_rule_that_aliases_a_mode_with_a_conjugate(unit_geom, nphi):
    # both reductions state the rule once: the same modes and nphi, the same message
    state = _readme_state_at_12(unit_geom)
    rule = quadrature_rule(unit_geom, nphi=nphi)
    with pytest.raises(ValueError) as err:
        total_energy(state, rule)
    _clash(str(err.value), nphi)
    with pytest.raises(ValueError) as same:
        project(*field_samplers(state), state.modes, rule)
    assert str(same.value) == str(err.value)
    closed = mode_sum_energy(state)
    assert abs(total_energy(state, quadrature_rule(unit_geom, nphi=17)) - closed) <= 1e-12 * closed


def test_energy_holds_no_field_on_the_rule_grid(unit_geom, rng):
    # the energy comes from Grams of the factor tables: a warm call's peak
    # stays below one 3-component field on the rule's nodes
    modes = enumerate_modes(unit_geom, 20.0)
    assert len(modes) == 878
    state = FieldState(geom=unit_geom, entries=tuple(zip(modes, rng.normal(size=len(modes)) + 1j)))
    rule = default_rule(unit_geom, modes)
    total_energy(state, rule)
    tracemalloc.start()
    try:
        total_energy(state, rule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * rule.nr * rule.nphi * rule.nz * 8


_ENERGY_AT_40 = """
import numpy as np
from cylcavity import CavityGeometry, FieldState, default_rule, enumerate_modes, total_energy
geom = CavityGeometry(a=0.9, L=1.3, c=1.0, eps0=1.0, hbar=1.0)
modes = enumerate_modes(geom, 40.0)
rng = np.random.default_rng(7)
amps = rng.normal(size=len(modes)) + 1j * rng.normal(size=len(modes))
print(len(modes), repr(total_energy(FieldState(geom=geom, entries=tuple(zip(modes, amps))), default_rule(geom, modes))))
"""


def test_energy_bits_do_not_depend_on_the_blas_thread_count():
    # each class's sum is numpy's own reduction: a BLAS dot sums a long
    # vector in per-thread parts, so its last bits follow the thread count
    # (here 425390.6549218467 on two threads against 425390.65492184664 on one)
    package = str(Path(cylcavity.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package, os.environ.get("PYTHONPATH")]))}
    runs = [subprocess.run([sys.executable, "-c", _ENERGY_AT_40], env={**env, "OPENBLAS_NUM_THREADS": threads},
                           capture_output=True, text=True, timeout=300, check=True).stdout
            for threads in ("1", "2")]
    assert runs[0] == runs[1] and runs[0].startswith("7128 "), runs


def test_quadrature_rule_cannot_take_phi_nodes_or_weights(unit_geom, rng):
    # every node and weight is part of the type: r, wr, z and wz follow from
    # nr and nz, and the uniform phi rule total_energy needs from nphi; none is
    # an argument, so no rule has nodes other than its sizes give
    state = _random_state(unit_geom, rng, 4)
    rule = _rule_for(state)
    for name in ("r", "wr", "phi", "wphi", "z", "wz"):
        bad = {name: getattr(rule, name) + 0.1}
        with pytest.raises(TypeError, match=f"\\b{name}\\b"):
            QuadratureRule(geom=unit_geom, nr=rule.nr, nphi=rule.nphi, nz=rule.nz, **bad)
        with pytest.raises(TypeError if "phi" in name else ValueError, match=f"\\b{name}\\b"):
            dataclasses.replace(rule, **bad)
    rule.phi[0] += 0.1      # each access is a new array: the rule's nodes stay uniform
    rule.wphi[0] *= 1.5
    assert np.array_equal(rule.phi, 2.0 * math.pi * np.arange(rule.nphi) / rule.nphi)
    assert np.array_equal(rule.wphi, np.full(rule.nphi, 2.0 * math.pi / rule.nphi))
    finer = dataclasses.replace(rule, nphi=rule.nphi + 3)
    assert finer.phi.shape == finer.wphi.shape == (rule.nphi + 3,)
    assert total_energy(state, finer) == total_energy(state, quadrature_rule(unit_geom, 48, rule.nphi + 3, 48))


def test_projection_round_trip(unit_geom, rng):
    state = _random_state(unit_geom, rng, 8)
    rule = _rule_for(state)
    e_sampler, b_sampler = field_samplers(state)
    got = project(e_sampler, b_sampler, state.modes, rule)
    assert np.max(np.abs(got - state.amplitudes)) < 1e-10


def test_projection_round_trip_after_evolution(unit_geom, rng):
    state = evolve(_random_state(unit_geom, rng, 6), 1.234)
    rule = _rule_for(state)
    e_sampler, b_sampler = field_samplers(state)
    got = project(e_sampler, b_sampler, state.modes, rule)
    assert np.max(np.abs(got - state.amplitudes)) < 1e-10


def test_projection_on_absent_modes_is_zero(unit_geom, rng):
    modes = enumerate_modes(unit_geom, 6.0)
    state = FieldState(geom=unit_geom, entries=((modes[0], 1.5 - 0.5j),))
    others = [md for md in modes[1:6]]
    rule = quadrature_rule(unit_geom, nr=48, nphi=default_nphi(modes[:6]), nz=48)
    e_sampler, b_sampler = field_samplers(state)
    got = project(e_sampler, b_sampler, others, rule)
    assert np.max(np.abs(got)) < 1e-10


def test_projection_rejects_aliasing_phi_rule(unit_geom, rng):
    # 105 modes reach |m| = 7; on nphi = 8 the pair m = 4, m = -4 takes the
    # same value at every phi node and amplitudes come back O(1) wrong
    modes = enumerate_modes(unit_geom, 10.0)
    assert len(modes) == 105
    amps = rng.normal(size=105) + 1j * rng.normal(size=105)
    state = FieldState(geom=unit_geom, entries=tuple(zip(modes, amps)))
    e_sampler, b_sampler = field_samplers(state)
    coarse = quadrature_rule(unit_geom, nr=48, nphi=8, nz=48)
    with pytest.raises(ValueError, match="nphi=8") as err:
        project(e_sampler, b_sampler, modes, coarse)
    named = re.findall(r"ModeIndex\(m=(-?\d+),[^)]*\) \(m=(-?\d+)\)", str(err.value))
    assert len(named) == 2 and all(a == b for a, b in named)
    m1, m2 = (int(a) for a, _ in named)
    assert m1 != m2 and (m1 - m2) % 8 == 0
    got = project(e_sampler, b_sampler, modes, default_rule(unit_geom, modes))
    assert np.max(np.abs(got - amps)) < 1e-10


@pytest.mark.parametrize("field", ["E", "B"])
@pytest.mark.parametrize("count", [2, 4])
def test_projection_rejects_a_sampler_without_three_components(unit_geom, rng, field, count):
    # a fourth array must not be ignored, nor two fail in broadcasting
    state = _random_state(unit_geom, rng, 6)
    rule = _rule_for(state)
    samplers = list(field_samplers(state))
    clean = samplers["EB".index(field)]
    samplers["EB".index(field)] = lambda r, phi, z: (tuple(clean(r, phi, z)) * 2)[:count]
    with pytest.raises(ValueError, match=f"{field} sampler returned {count} components, expected 3"):
        project(*samplers, state.modes, rule)


def test_projection_memory_is_one_chunk_of_factors_and_the_planes(unit_geom, rng):
    # 878 modes on 32 radii take 9 chunks; project holds the folded (r, |m|, z)
    # planes of E and B and the factors of u and curl u of one chunk at a
    # time, never those of every mode
    modes = enumerate_modes(unit_geom, 20.0)
    rule = quadrature_rule(unit_geom, nr=32, nphi=default_nphi(modes), nz=32)
    state = FieldState(geom=unit_geom, entries=tuple(zip(modes, rng.normal(size=len(modes)) + 0j)))
    e, b = (np.array(f(state, *rule.grid())) for f in (electric_field_grid, magnetic_field_grid))
    samplers = (lambda *_: e, lambda *_: b)
    assert np.max(np.abs(project(*samplers, modes, rule) - state.amplitudes)) < 1e-12
    chunks = _groups([abs(md.index.m) for md in modes], rule.nr)
    assert len(chunks) > 2
    planes = 2 * 3 * rule.nr * len({abs(md.index.m) for md in modes}) * rule.nz * 16
    chunk = 6 * (rule.nr + rule.nz) * max(map(len, chunks)) * 8
    every = 6 * (rule.nr + rule.nz) * len(modes) * 8
    assert every > 0.5 * planes + 2 * chunk
    tracemalloc.start()
    try:
        project(*samplers, modes, rule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * planes + 2 * chunk


def test_maxwell_residuals_second_order(unit_geom, rng):
    state = _random_state(unit_geom, rng, 10)
    pts = (rng.uniform(0.15, 0.75, size=16),
           rng.uniform(0.0, 2.0 * math.pi, size=16),
           rng.uniform(0.15, 1.15, size=16))
    coarse = maxwell_residual(state, pts, 1e-3)
    fine = maxwell_residual(state, pts, 5e-4)
    for name in ("div_e", "div_b", "faraday", "ampere"):
        order = math.log2(getattr(coarse, name) / getattr(fine, name))
        assert order > 1.9, name
    assert coarse.e_scale > 0.0 and coarse.b_scale > 0.0


def test_maxwell_residuals_small_against_field_scale(unit_geom, rng):
    state = _random_state(unit_geom, rng, 6)
    pts = (rng.uniform(0.2, 0.7, size=12),
           rng.uniform(0.0, 2.0 * math.pi, size=12),
           rng.uniform(0.2, 1.1, size=12))
    rep = maxwell_residual(state, pts, 1e-4)
    # h^2 k^3 ~ 1e-6 of the field scale at these frequencies
    assert rep.faraday < 1e-4 * max(rep.e_scale, rep.b_scale)
    assert rep.ampere < 1e-4 * max(rep.e_scale, rep.b_scale)


def _derivative_state(state):
    """The state whose fields are the time derivative of state's: a_s -> -i omega_s a_s."""
    entries = tuple((md, -1j * md.omega * a) for md, a in state.entries)
    return FieldState(geom=state.geom, entries=entries, t=state.t)


@pytest.mark.parametrize("layout", ["scattered", "broadcast", "scalar phi"])
def test_stencil_time_derivative_matches_centre_synthesis(unit_geom, rng, layout):
    # the stencil's time derivative comes from its own factors, yet has the
    # bits of the derivative state synthesized on the centres alone
    state = _random_state(unit_geom, rng, 12)
    r, phi, z = rng.uniform(0.2, 0.7, 6), rng.uniform(0.0, 6.0, 6), rng.uniform(0.2, 1.1, 6)
    points = {"scattered": (r, phi, z), "broadcast": (r[:, None, None], phi[None, :, None], z[:5]),
              "scalar phi": (r, 0.4, z)}[layout]
    h = 1e-3
    want = _synthesize(_derivative_state(state), *points, "EB")
    for got, field in zip(_fd_stencil(state, *points, h, h / unit_geom.a), want):
        assert len(got[3]) == 3
        for g, w in zip(got[3], field):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()


def test_maxwell_residual_rejects_wall_adjacent_points(unit_geom, rng):
    state = _random_state(unit_geom, rng, 3)
    with pytest.raises(ValueError):
        maxwell_residual(state, (np.array([unit_geom.a - 1e-4]),
                                 np.array([0.0]), np.array([0.5])), 1e-3)
    with pytest.raises(ValueError):
        maxwell_residual(state, (np.array([0.5]), np.array([0.0]),
                                 np.array([5e-4])), 1e-3)


@pytest.mark.parametrize("bad", [True, np.True_, "1e-3", None, 1e-3j])
def test_maxwell_residual_takes_a_real_step(unit_geom, rng, bad):
    # a bool is not the step 1.0, and a string is a ValueError, not a TypeError
    state = _random_state(unit_geom, rng, 3)
    points = (np.array([0.5]), np.array([0.0]), np.array([0.6]))
    with pytest.raises(ValueError, match=f"^step must be a real number, got {re.escape(repr(bad))}$"):
        maxwell_residual(state, points, bad)


@pytest.mark.parametrize("bad", [0.0, -1e-3, math.nan, math.inf])
def test_maxwell_residual_takes_a_positive_finite_step(unit_geom, rng, bad):
    state = _random_state(unit_geom, rng, 3)
    points = (np.array([0.5]), np.array([0.0]), np.array([0.6]))
    with pytest.raises(ValueError, match=f"^step must be positive and finite, got {bad!r}$"):
        maxwell_residual(state, points, bad)


def test_state_validation(unit_geom, rng):
    modes = enumerate_modes(unit_geom, 5.0)
    with pytest.raises(ValueError):
        FieldState(geom=unit_geom,
                   entries=((modes[0], 1.0), (modes[0], 2.0)))
    with pytest.raises(ValueError):
        FieldState(geom=unit_geom, entries=((modes[0], float("nan")),))
    with pytest.raises(ValueError):
        FieldState(geom=unit_geom, entries=((modes[0], 1.0),), t=float("inf"))
    other = CavityGeometry(a=1.1, L=1.3, c=1.0, eps0=1.0, hbar=1.0)
    with pytest.raises(ValueError):
        FieldState(geom=other, entries=((modes[0], 1.0),))
    # amplitudes are finite numbers and t and dt real numbers, none of them a
    # bool or a string, which complex() and float() would take; the state
    # keeps them as Python complex and float
    for bad in ("1+2j", True, np.True_, None, complex(0.0, math.nan)):
        with pytest.raises(ValueError, match="amplitude of entry 1 must be a finite number"):
            FieldState(geom=unit_geom, entries=((modes[0], 1.0), (modes[1], bad)))
    for bad in ("0", True):
        with pytest.raises(ValueError, match="FieldState.t must be a real number"):
            FieldState(geom=unit_geom, entries=(), t=bad)
    state = FieldState(geom=unit_geom, entries=((modes[0], np.complex64(1 + 2j)), (modes[1], 3)), t=np.float32(0.5))
    assert [type(a) for _, a in state.entries] == [complex, complex] and state.amplitudes.tolist() == [1 + 2j, 3]
    assert type(state.t) is float and state.t == 0.5
    for bad in (True, "1"):
        with pytest.raises(ValueError, match="dt must be a real number"):
            evolve(state, bad)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"^dt must be finite, got {bad!r}$"):
            evolve(state, bad)
    with pytest.raises(ValueError, match="^entries must pair ModeData with amplitudes, got ModeIndex"):
        FieldState(geom=unit_geom, entries=((modes[0], 1.0), (modes[1].index, 2.0)))


def test_empty_state(unit_geom):
    state = FieldState(geom=unit_geom, entries=())
    rule = quadrature_rule(unit_geom, nr=8, nphi=8, nz=8)
    assert total_energy(state, rule) == 0.0
    assert zero_point_energy(state) == 0.0
    e = electric_field(state, CylPoint(r=0.2, phi=0.0, z=0.5))
    assert np.array_equal(e, np.zeros(3))
    assert project(*field_samplers(state), (), rule).shape == (0,)


def test_synthesis_keeps_each_evaluation_within_the_chunk_budget(unit_geom, rng, monkeypatch):
    # 878 modes on 200 scattered points: the factors are asked for one chunk
    # of whole |m| groups at a time, each within the budget of radii x modes
    # unless one |m| group alone is larger
    modes = enumerate_modes(unit_geom, 20.0)
    assert len(modes) == 878
    state = FieldState(geom=unit_geom, entries=tuple((md, 1.0) for md in modes))
    asked = []
    original = modefield._tables
    monkeypatch.setattr(modefield, "_tables", lambda chunk, r, z: asked.append(
        (len(chunk), np.size(r), len({abs(md.index.m) for md in chunk}))) or original(chunk, r, z))
    points = tuple(rng.uniform(0.0, top, 200) for top in (unit_geom.a, 2.0 * math.pi, unit_geom.L))
    e = electric_field_grid(state, *points)
    assert sum(n for n, _, _ in asked) == len(modes) and len(asked) > 1
    assert all(n * radii <= _CHUNK_POINTS or groups == 1 for n, radii, groups in asked)
    assert any(groups > 1 for _, _, groups in asked) and all(np.all(np.isfinite(c)) for c in e)


def test_fields_match_dense_oracle(unit_geom, rng):
    # 30 lowest modes: +-m pairs up to |m| = 4, TM with n = 0 and n > 0, TE
    modes = enumerate_modes(unit_geom, 6.5)
    assert len(modes) == 30
    amps = rng.normal(size=len(modes)) + 1j * rng.normal(size=len(modes))
    state = FieldState(geom=unit_geom, entries=tuple(zip(modes, amps)), t=0.4)
    scattered = (rng.uniform(0.0, unit_geom.a, 300), rng.uniform(0.0, 2.0 * math.pi, 300),
                 rng.uniform(0.0, unit_geom.L, 300))
    for r, phi, z in (default_rule(unit_geom, modes).grid(), scattered):
        ref_e, ref_b = dense_fields(state, r, phi, z)
        for got, ref in ((electric_field_grid(state, r, phi, z), ref_e),
                         (magnetic_field_grid(state, r, phi, z), ref_b)):
            scale = float(np.max(np.abs(ref)))
            assert scale > 0.0
            assert float(np.max(np.abs(np.array(got) - ref))) <= 1e-13 * scale


def _conjugate_rule_state(geom, rng):
    """Every case of the |m| slots, where an m < 0 mode takes the conjugate of
    its coefficient: +-m pairs with independent amplitudes, a lone m < 0 mode,
    modes of one |m| that differ in sigma and n (of one sign and of both),
    and m = 0 modes."""
    labels = [(0, 1, 0, TM), (0, 2, 1, TE),                                 # m = 0
              (1, 1, 1, TM), (-1, 1, 1, TM), (2, 2, 1, TE), (-2, 2, 1, TE),   # +-m pairs
              (2, 1, 0, TM),                                                # |m| = 2, other sigma and n
              (-3, 1, 2, TE),                                               # lone m < 0
              (4, 1, 0, TM), (-4, 1, 2, TE)]                                # |m| = 4, other sign, sigma, n
    modes = [mode_data(geom, ModeIndex(*label)) for label in labels]
    amps = rng.normal(size=len(modes)) + 1j * rng.normal(size=len(modes))
    return FieldState(geom=geom, entries=tuple(zip(modes, amps)), t=0.25)


@pytest.mark.parametrize("where", ["tensor", "scattered"])
def test_conjugate_rule_fields_and_rates_match_dense_oracle(unit_geom, rng, where):
    # E, B and the stencil's time derivatives from the |m| slots against a
    # per-mode sum of the full u and curl u with their own e^{i m phi}
    state = _conjugate_rule_state(unit_geom, rng)
    points = {"tensor": (np.linspace(0.1, 0.8, 5)[:, None, None],
                         np.linspace(0.0, 2.0 * math.pi, 7, endpoint=False)[None, :, None] + 0.3,
                         np.linspace(0.1, 1.2, 4)[None, None, :]),
              "scattered": (rng.uniform(0.1, 0.8, 40), rng.uniform(0.0, 2.0 * math.pi, 40),
                            rng.uniform(0.1, 1.2, 40))}[where]
    h = 1e-3
    stencil = _fd_stencil(state, *points, h, h / unit_geom.a)
    pairs = [*zip(_synthesize(state, *points, "EB"), dense_fields(state, *points)),
             *zip((np.array(f[3]) for f in stencil), dense_fields(_derivative_state(state), *points))]
    for got, ref in pairs:
        scale = float(np.max(np.abs(ref)))
        assert scale > 0.0 and got.shape == ref.shape
        assert float(np.max(np.abs(got - ref))) <= 1e-13 * scale


def test_conjugate_rule_projection_matches_dense_oracle_and_the_amplitudes(unit_geom, rng):
    # an m < 0 mode reads the |m| fold with its imaginary part negated
    state = _conjugate_rule_state(unit_geom, rng)
    rule = default_rule(unit_geom, state.modes)
    samplers = field_samplers(state)
    got = project(*samplers, state.modes, rule)
    scale = float(np.max(np.abs(state.amplitudes)))
    assert float(np.max(np.abs(got - dense_project(*samplers, state.modes, rule)))) <= 1e-13 * scale
    assert float(np.max(np.abs(got - state.amplitudes))) <= 1e-13 * scale


def test_empty_point_set(unit_geom, rng):
    state = _random_state(unit_geom, rng, 6)
    empty = np.zeros(0)
    for comps in (electric_field_grid(state, empty, empty, empty),
                  magnetic_field_grid(state, empty, empty, empty)):
        assert len(comps) == 3
        for c in comps:
            assert c.dtype == np.float64 and c.shape == (0,)
    rep = maxwell_residual(state, (empty, empty, empty), 1e-3)
    assert (rep.div_e, rep.div_b, rep.faraday, rep.ampere, rep.e_scale, rep.b_scale) == (0.0,) * 6


def _layout(name, geom, rng):
    """Coordinate arrays of one point layout: which axes r, phi and z share."""
    r = np.linspace(0.05, geom.a, 7)
    phi = np.linspace(0.0, 2.0 * math.pi, 9, endpoint=False) + 0.1
    z = np.linspace(0.0, geom.L, 8)
    if name == "phi_z_r_grid":
        return r[None, None, :], phi[:, None, None], z[None, :, None]
    if name == "r_phi_shared":
        return rng.uniform(0.0, geom.a, (40, 1)), rng.uniform(0.0, 2.0 * math.pi, (40, 1)), z[None, :]
    if name == "scalar_phi_rz_mesh":
        rr, zz = np.meshgrid(r, z, indexing="ij")
        return rr, 1.3, zz
    if name == "full_meshgrid":
        return tuple(np.meshgrid(r, phi, z, indexing="ij"))
    if name == "size_one_axis":
        return r[:, None, None], phi[None, :, None], z[None, None, 3:4]
    assert name == "axis_r0_grid"
    return np.linspace(0.0, geom.a, 6)[:, None, None], phi[None, :, None], z[None, None, :]


@pytest.mark.parametrize("layout", ["phi_z_r_grid", "r_phi_shared", "scalar_phi_rz_mesh",
                                    "full_meshgrid", "size_one_axis", "axis_r0_grid"])
def test_fields_match_dense_oracle_on_every_layout(unit_geom, rng, layout):
    # every axis class of the contraction: GEMM rows, columns, batch axes, size-1 axes
    modes = enumerate_modes(unit_geom, 6.5)
    assert len(modes) == 30
    amps = rng.normal(size=len(modes)) + 1j * rng.normal(size=len(modes))
    state = FieldState(geom=unit_geom, entries=tuple(zip(modes, amps)), t=0.4)
    r, phi, z = _layout(layout, unit_geom, rng)
    shape = np.broadcast_shapes(np.shape(r), np.shape(phi), np.shape(z))
    ref_e, ref_b = dense_fields(state, r, phi, z)
    for got, ref in ((electric_field_grid(state, r, phi, z), ref_e),
                     (magnetic_field_grid(state, r, phi, z), ref_b)):
        got = np.array(got)
        assert got.shape == (3, *shape) and got.dtype == np.float64
        scale = float(np.max(np.abs(ref)))
        assert scale > 0.0
        assert float(np.max(np.abs(got - ref))) <= 1e-13 * scale


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_phi_raises(unit_geom, rng, bad):
    state = _random_state(unit_geom, rng, 5)
    r, phi, z = np.array([0.4, 0.5]), np.array([0.3, bad]), np.array([0.5, 0.6])
    for synth in (electric_field_grid, magnetic_field_grid):
        with pytest.raises(ValueError, match="coordinates must be finite"):
            synth(state, r, phi, z)
    for mode_grid in (psi_grid, u_grid, curl_u_grid):
        with pytest.raises(ValueError, match="coordinates must be finite"):
            mode_grid(state.modes[0], r, phi, z)
    with pytest.raises(ValueError, match="coordinates must be finite"):
        maxwell_residual(state, (r, phi, z), 1e-3)


@pytest.mark.parametrize("field, comp, bad", [("E", 1, math.nan), ("B", 2, math.inf)])
def test_projection_rejects_non_finite_sample(unit_geom, rng, field, comp, bad):
    state = _random_state(unit_geom, rng, 6)
    rule = _rule_for(state)
    samplers = list(field_samplers(state))
    clean = samplers["EB".index(field)]

    def spoiled(r, phi, z):
        comps = [np.array(c) for c in clean(r, phi, z)]
        comps[comp][3, 2, 5] = bad
        return tuple(comps)

    samplers["EB".index(field)] = spoiled
    with pytest.raises(ValueError) as err:
        project(*samplers, state.modes, rule)
    msg = str(err.value)
    assert f"{field}_{('r', 'phi', 'z')[comp]}" in msg
    for axis, i in (("r", 3), ("phi", 2), ("z", 5)):
        assert f"{axis}={float(getattr(rule, axis)[i])!r}" in msg
    assert msg.endswith(repr(bad))


@pytest.mark.parametrize("field, comp", [("E", 0), ("B", 2)])
def test_projection_rejects_a_complex_sample(unit_geom, rng, field, comp):
    # E and B are real: a complex array with zero imaginary parts projects as
    # its real part, and a nonzero imaginary part is named like a non-finite value
    state = _random_state(unit_geom, rng, 6)
    rule = _rule_for(state)
    samplers = list(field_samplers(state))
    want = project(*samplers, state.modes, rule)
    clean = samplers["EB".index(field)]
    as_complex = lambda r, phi, z: [np.array(c, dtype=complex) for c in clean(r, phi, z)]
    samplers["EB".index(field)] = as_complex
    assert project(*samplers, state.modes, rule).tobytes() == want.tobytes()

    def spoiled(r, phi, z):
        comps = as_complex(r, phi, z)
        comps[comp][3, 2, 5] += 1e-3j
        return comps

    samplers["EB".index(field)] = spoiled
    with pytest.raises(ValueError, match="sample not real") as err:
        project(*samplers, state.modes, rule)
    msg = str(err.value)
    assert f"{field}_{('r', 'phi', 'z')[comp]}" in msg
    for axis, i in (("r", 3), ("phi", 2), ("z", 5)):
        assert f"{axis}={float(getattr(rule, axis)[i])!r}" in msg
    assert msg.endswith(repr(spoiled(*rule.grid())[comp][3, 2, 5].item()))


@pytest.mark.parametrize("layout", ["sampler_views", "c_ordered_copies", "broadcast_scalar"])
def test_fold_matches_dense_projection_on_every_sample_layout(unit_geom, rng, layout):
    # the fold takes each component as (phi, r z): a view of the samplers'
    # phi-major output, a copy of any other layout
    modes = enumerate_modes(unit_geom, 6.5)
    amps = rng.normal(size=len(modes)) + 1j * rng.normal(size=len(modes))
    state = FieldState(geom=unit_geom, entries=tuple(zip(modes, amps)), t=0.2)
    rule = default_rule(unit_geom, modes)
    e_sampler, b_sampler = field_samplers(state)
    grid = rule.grid()
    if layout == "sampler_views":
        samplers = (e_sampler, b_sampler)
        for c in (*e_sampler(*grid), *b_sampler(*grid)):
            assert np.shares_memory(np.moveaxis(c, 1, 0).reshape(rule.nphi, -1), c)
    elif layout == "c_ordered_copies":
        samplers = tuple(lambda *g, f=f: [np.array(c, order="C") for c in f(*g)] for f in (e_sampler, b_sampler))
        assert all(c.flags.c_contiguous for c in samplers[0](*grid))
    else:
        samplers = (lambda *g: (e_sampler(*g)[0], 0.37, e_sampler(*g)[2]), b_sampler)
    got = project(*samplers, modes, rule)
    ref = dense_project(*samplers, modes, rule)
    scale = float(np.max(np.abs(ref)))
    assert scale > 0.0
    assert float(np.max(np.abs(got - ref))) <= 1e-14 * scale


@pytest.mark.parametrize("layout", ["phi_z_r_grid", "r_phi_shared", "size_one_axis", "scattered"])
def test_contract_by_runs_equals_one_contraction_per_run(unit_geom, rng, layout):
    # synthesis lays out a chunk's factors once and runs one matmul per |m| into
    # that |m|'s block; each must equal the contraction of that |m|'s slices alone
    # bit for bit: GEMMs written in place, GEMMs copied out, batched dots
    modes = enumerate_modes(unit_geom, 6.5)
    if layout == "scattered":
        r, z = rng.uniform(0.0, unit_geom.a, 50), rng.uniform(0.0, unit_geom.L, 50)
    else:
        r, _, z = _layout(layout, unit_geom, rng)
    nd = max(np.ndim(r), np.ndim(z))
    r, z = (np.reshape(v, (1,) * (nd - np.ndim(v)) + np.shape(v)) for v in (r, z))
    ((_, m, _, R, Z, runs),) = _walk(modes, r, z, slice(1, 7))
    assert len(runs) > 3
    a = R[None]
    b = Z * rng.normal(size=(2, 6, *(1,) * (Z.ndim - 2), len(m)))
    blocks = list(range(len(runs)))[::-1]
    got = np.full((len(runs), *np.broadcast_shapes(a.shape[:-1], b.shape[:-1])), np.nan)
    want = got.copy()
    assert _contract(a, b, out=got, runs=[(lo, hi, k) for (lo, hi), k in zip(runs, blocks)]) is got
    for (lo, hi), k in zip(runs, blocks):
        _contract(a[..., lo:hi], b[..., lo:hi], out=want[k])
    assert got.tobytes() == want.tobytes()
    assert not np.any(np.isnan(got))


def _shuffled_state(geom, rng):
    """The 878 modes with omega <= 20 in a random order, with random
    amplitudes: the modes of one m lie far apart, between those of -m and
    of other m."""
    modes = enumerate_modes(geom, 20.0)
    assert len(modes) == 878
    modes = [modes[i] for i in rng.permutation(len(modes))]
    amps = rng.normal(size=len(modes)) + 1j * rng.normal(size=len(modes))
    return FieldState(geom=geom, entries=tuple(zip(modes, amps)), t=0.3)


def test_multi_chunk_shuffled_state_matches_dense_oracle(unit_geom, rng):
    state = _shuffled_state(unit_geom, rng)
    m = np.array([md.index.m for md in state.modes])
    grid = (np.linspace(0.0, unit_geom.a, 5)[:, None, None],
            np.linspace(0.0, 2.0 * math.pi, 6, endpoint=False)[None, :, None] + 0.2,
            np.linspace(0.0, unit_geom.L, 5)[None, None, :])
    scattered = (rng.uniform(0.0, unit_geom.a, 50), rng.uniform(0.0, 2.0 * math.pi, 50),
                 rng.uniform(0.0, unit_geom.L, 50))
    for r, phi, z in (grid, scattered):
        # several chunks, each taking the modes of one m from several runs
        chunks = _groups([abs(md.index.m) for md in state.modes], np.size(r))
        assert len(chunks) > 1
        assert any(np.count_nonzero(np.diff(m[idx])) >= len(set(m[idx])) for idx in chunks)
        ref_e, ref_b = dense_fields(state, r, phi, z)
        got_e, got_b = _synthesize(state, r, phi, z, "EB")
        for got, ref in ((got_e, ref_e), (got_b, ref_b)):
            scale = float(np.max(np.abs(ref)))
            assert scale > 0.0
            assert float(np.max(np.abs(got - ref))) <= 1e-13 * scale


def test_multi_chunk_stencil_time_derivative_matches_centre_synthesis(unit_geom, rng):
    # the rates' planes are filled chunk by chunk next to the fields', from
    # slices of the same m-ordered factors
    state = _shuffled_state(unit_geom, rng)
    points = (rng.uniform(0.2, 0.7, 20), rng.uniform(0.0, 6.0, 20), rng.uniform(0.2, 1.1, 20))
    h = 1e-3
    assert len(_groups([abs(md.index.m) for md in state.modes], 7 * 20)) > 2
    want = _synthesize(_derivative_state(state), *points, "EB")
    for got, field in zip(_fd_stencil(state, *points, h, h / unit_geom.a), want):
        for g, w in zip(got[3], field):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()


def test_rule_grid_synthesis_holds_no_second_copy_of_the_planes(unit_geom):
    # the (|m|, Re/Im) planes and the output dominate the memory; the inverse
    # DFT reads the planes in place, so a copy of them would show here
    modes = enumerate_modes(unit_geom, 20.0)
    state = FieldState(geom=unit_geom, entries=tuple((md, 1.0) for md in modes))
    rule = default_rule(unit_geom, modes)
    grid = rule.grid()
    _synthesize(state, *grid, "EB")
    planes = len({abs(md.index.m) for md in modes}) * 2 * 6 * rule.nr * rule.nz * 8
    tracemalloc.start()
    try:
        out = _synthesize(state, *grid, "EB")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.nbytes == 2 * 3 * rule.nr * rule.nphi * rule.nz * 8
    assert peak <= 1.15 * (planes + out.nbytes)
