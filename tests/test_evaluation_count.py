"""Every consumer of u and curl u evaluates each mode once per point set,
in one Bessel sweep per |m|.

modefield evaluates all modes that share |m| with one bessel._j_orders call
(J_{|m|-1}, J_{|m|}, J_{|m|+1} on every mode's g r), so counting those calls,
keyed by |m| and by how many modes each served, pins how often each check,
synthesizer, projection and stencil sweeps.  Only the public one-mode
check_boundary sweeps per mode; a CLI verify run checks the walls per |m|.
"""

from collections import Counter

import numpy as np
import pytest

import cylcavity.modefield as modefield
from cylcavity import (
    TM,
    FieldState,
    check_boundary,
    check_curl_identity,
    check_scalar_orthonormality,
    check_vector_orthonormality,
    electric_field_grid,
    enumerate_modes,
    magnetic_field_grid,
    maxwell_residual,
    project,
    quadrature_rule,
    total_energy,
)
from cylcavity.cli import main
from cylcavity.verify import default_nphi


@pytest.fixture
def sweeps(monkeypatch):
    seen = Counter()
    original = modefield._j_orders

    def counting(orders, x):
        seen[abs(orders[1]), np.shape(x)[-1]] += 1     # (|m|, modes served)
        return original(orders, x)

    monkeypatch.setattr(modefield, "_j_orders", counting)
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


def _per_abs_m(sweeps, modes, count):
    groups = Counter(abs(md.index.m) for md in modes)
    assert sweeps == Counter({(ma, n): count for ma, n in groups.items()})
    sweeps.clear()


def test_checks_evaluate_each_mode_once(sweeps, state, rule):
    assert len({abs(md.index.m) for md in state.modes}) < len(state.modes)
    check_vector_orthonormality(state.modes, rule)
    _per_abs_m(sweeps, state.modes, 1)
    check_curl_identity(state.modes, rule)
    _per_abs_m(sweeps, state.modes, 1)
    tm = [md for md in state.modes if md.index.sigma == TM]
    check_scalar_orthonormality(tm, rule)
    _per_abs_m(sweeps, tm, 1)
    for md in state.modes:
        check_boundary(md)
    assert sweeps == Counter((abs(md.index.m), 1) for md in state.modes)


def test_synthesis_evaluates_each_mode_once(sweeps, state, rule):
    grid = rule.grid()
    total_energy(state, rule)
    _per_abs_m(sweeps, state.modes, 1)
    electric_field_grid(state, *grid)
    _per_abs_m(sweeps, state.modes, 1)
    magnetic_field_grid(state, *grid)
    _per_abs_m(sweeps, state.modes, 1)


def test_projection_contraction_evaluates_each_mode_once(sweeps, state, rule):
    e = electric_field_grid(state, *rule.grid())
    b = magnetic_field_grid(state, *rule.grid())
    sweeps.clear()
    project(lambda *_: e, lambda *_: b, state.modes, rule)
    _per_abs_m(sweeps, state.modes, 1)


def test_maxwell_residual_evaluates_each_mode_twice(sweeps, state, rng):
    # once for the whole stencil, once for the time derivative
    points = (rng.uniform(0.1, 0.8, 8), rng.uniform(0.0, 6.0, 8), rng.uniform(0.1, 1.2, 8))
    maxwell_residual(state, points, 1e-3)
    _per_abs_m(sweeps, state.modes, 2)


@pytest.mark.parametrize("suites,per_abs_m", [
    ("gram,curl,boundary", 2),      # one Gram for both suites, then the walls
    ("bessel,boundary", 1),         # the zero tables sweep no mode
])
def test_cli_verify_sweeps_once_per_abs_m_per_point_set(sweeps, state, capsys, suites, per_abs_m):
    argv = ["verify", "--radius", "0.9", "--height", "1.3", "--speed-of-light", "1",
            "--vacuum-permittivity", "1", "--hbar", "1", "--omega-max", "6.5", "--suite", suites]
    assert main(argv) == 0
    capsys.readouterr()
    _per_abs_m(sweeps, state.modes, per_abs_m)
