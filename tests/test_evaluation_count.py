"""Every consumer of u and curl u evaluates each mode once per point set.

One modefield._potential call (one three-order Bessel sweep) gives both
fields of a mode, so the count of those calls per mode pins how often
each check, synthesizer, projection and stencil evaluates a mode.
"""

from collections import Counter

import pytest

import cylcavity.modefield as modefield
from cylcavity import (
    FieldState,
    check_boundary,
    check_curl_identity,
    check_vector_orthonormality,
    electric_field_grid,
    enumerate_modes,
    magnetic_field_grid,
    maxwell_residual,
    project,
    quadrature_rule,
    total_energy,
)
from cylcavity.verify import default_nphi


@pytest.fixture
def calls(monkeypatch):
    seen = Counter()
    original = modefield._potential

    def counting(mode, r, z):
        seen[mode.index] += 1
        return original(mode, r, z)

    monkeypatch.setattr(modefield, "_potential", counting)
    return seen


@pytest.fixture
def state(unit_geom, rng):
    # the 30 lowest modes: +-m pairs, TM with n = 0 and n > 0, TE
    modes = enumerate_modes(unit_geom, 6.5)
    amps = rng.normal(size=len(modes)) + 1j * rng.normal(size=len(modes))
    return FieldState(geom=unit_geom, entries=tuple(zip(modes, amps)))


@pytest.fixture
def rule(state):
    return quadrature_rule(state.geom, nr=12, nphi=default_nphi(state.modes), nz=12)


def _per_mode(calls, state, count):
    assert calls == Counter({md.index: count for md in state.modes})
    calls.clear()


def test_checks_evaluate_each_mode_once(calls, state, rule):
    check_vector_orthonormality(state.modes, rule)
    _per_mode(calls, state, 1)
    check_curl_identity(state.modes, rule)
    _per_mode(calls, state, 1)
    for md in state.modes:
        check_boundary(md)
    _per_mode(calls, state, 1)


def test_synthesis_evaluates_each_mode_once(calls, state, rule):
    grid = rule.grid()
    total_energy(state, rule)
    _per_mode(calls, state, 1)
    electric_field_grid(state, *grid)
    _per_mode(calls, state, 1)
    magnetic_field_grid(state, *grid)
    _per_mode(calls, state, 1)


def test_projection_contraction_evaluates_each_mode_once(calls, state, rule):
    e = electric_field_grid(state, *rule.grid())
    b = magnetic_field_grid(state, *rule.grid())
    calls.clear()
    project(lambda *_: e, lambda *_: b, state.modes, rule)
    _per_mode(calls, state, 1)


def test_maxwell_residual_evaluates_each_mode_twice(calls, state, rng):
    # once for the whole stencil, once for the time derivative
    points = (rng.uniform(0.1, 0.8, 8), rng.uniform(0.0, 6.0, 8), rng.uniform(0.1, 1.2, 8))
    maxwell_residual(state, points, 1e-3)
    _per_mode(calls, state, 2)
