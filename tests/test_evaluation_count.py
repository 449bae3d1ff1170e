"""Every consumer of u and curl u evaluates each radial function once per
point set, in one Bessel sweep per chunk of |m| groups.

A mode's radial function J_m(g r) depends on (|m|, g) alone, so the +-m
partners and every axial index n of one (|m|, mu, sigma) share it.
modefield evaluates the distinct radial functions of one chunk
(modefield._groups of the modes' |m|: whole |m| groups in ascending |m|,
within a budget of radii x modes) with one bessel._j_points call (J_{|m|-1}, J_{|m|},
J_{|m|+1} on every function's g r), so counting those calls, and the
points each serves per |m|, pins how often each check, synthesizer,
projection and stencil sweeps: one call per chunk, each (|m|, g) once per
point set.  A repeat of the same modes on the same nodes reads the radial
tables modefield keeps per set of radii and makes no sweep, and so does a
radial function already swept on the same radii: the one-mode
check_boundary sweeps once per (|m|, g), not once per mode.  A sweep also
takes along, within its chunks, the functions of the same radius a kept on
other radii, so after a Gram the first wall check sweeps every function of
the Gram's modes and the other wall checks none.  So every test starts with
no table kept.
The spectrum builds every ModeData of one _modes call from one
spectrum._j_points call (J_|m|, J_|m|+1 at every chi), and finds the zero
tables it needs with one pooled scan and one pooled Newton pass.
"""

from collections import Counter

import numpy as np
import pytest

import cylcavity.bessel as bessel
import cylcavity.modefield as modefield
import cylcavity.spectrum as spectrum
from cylcavity import (
    TM,
    CavityGeometry,
    FieldState,
    check_boundary,
    check_curl_identity,
    check_scalar_orthonormality,
    check_vector_orthonormality,
    default_rule,
    dumps_state,
    electric_field_grid,
    enumerate_modes,
    field_samplers,
    loads_state,
    magnetic_field_grid,
    maxwell_residual,
    mode_data,
    project,
    quadrature_rule,
    total_energy,
)
from cylcavity.cli import main
from cylcavity.modefield import _tables
from cylcavity.verify import DEFAULT_NR, _default_walls, default_nphi


@pytest.fixture(autouse=True)
def nothing_kept():
    modefield._KEPT.clear()
    yield
    modefield._KEPT.clear()


@pytest.fixture
def sweeps(monkeypatch):
    """Per Bessel kernel call modefield makes, the points it serves per |m|."""
    seen = []
    original = modefield._j_points

    def counting(orders, x):
        # the middle order of each point is its mode's |m|
        seen.append(Counter(np.broadcast_to(orders[1], np.shape(x)).tolist()))
        return original(orders, x)

    monkeypatch.setattr(modefield, "_j_points", counting)
    return seen


@pytest.fixture
def spectrum_sweeps(monkeypatch):
    seen = []
    original = spectrum._j_points

    def counting(orders, x):
        seen.append(len(x))         # points served
        return original(orders, x)

    monkeypatch.setattr(spectrum, "_j_points", counting)
    return seen


@pytest.fixture
def kernel_calls(monkeypatch):
    """Every call of the one Bessel kernel, the zero finder's and the spectrum's."""
    seen = []
    original = bessel._j_points

    def counting(orders, x):
        seen.append(len(x))
        return original(orders, x)

    monkeypatch.setattr(bessel, "_j_points", counting)
    monkeypatch.setattr(spectrum, "_j_points", counting)
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


def _walk_chunks(modes, radii):
    """Positions of modes in the chunks of one modefield._walk on `radii` radii."""
    return modefield._groups([abs(md.index.m) for md in modes], radii)


def _functions(modes):
    """The distinct radial functions (|m|, g) of modes, in order of first use."""
    return list(dict.fromkeys((abs(md.index.m), md.g) for md in modes))


def _per_chunk(sweeps, modes, *radii, distinct=None):
    """The sweeps were one kernel call per chunk of modes on each point set,
    given by its number of radii, each serving its chunk's distinct radial
    functions at every distinct radius (`distinct` of them when the radii
    repeat): so each (|m|, g) once per point set."""
    want = [Counter(ma for ma, _ in _functions([modes[i] for i in idx]) for _ in range(distinct or n))
            for n in radii for idx in _walk_chunks(modes, n)]
    assert sweeps == want
    sweeps.clear()


def _once_then_memo(sweeps, modes, radii, call, distinct=None):
    """call() sweeps once per chunk of modes with no table kept; a repeat, none."""
    modefield._KEPT.clear()
    call()
    _per_chunk(sweeps, modes, radii, distinct=distinct)
    call()
    assert not sweeps


def test_checks_evaluate_each_mode_once(sweeps, state, rule):
    assert len({abs(md.index.m) for md in state.modes}) < len(state.modes)
    _once_then_memo(sweeps, state.modes, rule.nr, lambda: check_vector_orthonormality(state.modes, rule))
    check_curl_identity(state.modes, rule)      # the Gram's modes on the Gram's nodes
    assert not sweeps
    _once_then_memo(sweeps, state.modes, rule.nr, lambda: check_curl_identity(state.modes, rule))
    tm = [md for md in state.modes if md.index.sigma == TM]
    _once_then_memo(sweeps, tm, rule.nr, lambda: check_scalar_orthonormality(tm, rule))
    radii = _default_walls(state.geom)[0].size
    assert len(_functions(state.modes)) == 10 and len(state.modes) == 30
    # with nothing kept elsewhere, one sweep per radial function on the wall radii: 10, not 30
    modefield._KEPT.clear()
    for md in state.modes:
        check_boundary(md)
    assert sweeps == [Counter({ma: radii}) for ma, _ in _functions(state.modes)]
    sweeps.clear()
    for md in state.modes:
        check_boundary(md)
    assert not sweeps
    # after a Gram, the first wall check sweeps its function and the 9 others
    # the Gram kept on the rule, in one call: 1 sweep, not 10
    modefield._KEPT.clear()
    check_vector_orthonormality(state.modes, rule)
    sweeps.clear()
    for md in state.modes:
        check_boundary(md)
    assert sweeps == [Counter(ma for ma, _ in _functions(state.modes) for _ in range(radii))]


def test_certify_op_sweeps_each_radial_function_once(sweeps, unit_geom):
    # the benchmark's certify op: the 20 lowest modes of the README cavity,
    # their Gram and curl identity on the default rule, then check_boundary
    # of each; the Gram sweeps its 7 radial functions in one call, the curl
    # identity reuses the Gram's factors, and the first wall check sweeps all
    # 7 on the wall radii in one call: 2 kernel calls, where one sweep per
    # radial function on the walls takes 8 and one per mode 21
    geom = unit_geom
    modes = enumerate_modes(geom, 6.0)[:20]
    rule = default_rule(geom, modes)
    assert len(modes) == 20 and len(_functions(modes)) == 7
    check_vector_orthonormality(modes, rule)
    check_curl_identity(modes, rule)
    assert len(_walk_chunks(modes, rule.nr)) == len(sweeps) == 1
    _per_chunk(sweeps, modes, rule.nr)
    walls = [check_boundary(md) for md in modes]
    assert max(max(w.tangential_ratio, w.normal_curl_ratio) for w in walls) < 1e-10
    radii = _default_walls(geom)[0].size
    assert sweeps == [Counter(ma for ma, _ in _functions(modes) for _ in range(radii))]


def test_first_wall_check_after_a_gram_at_omega_20_sweeps_every_function(sweeps, unit_geom):
    # the Gram keeps the 86 radial functions of the 878 modes on the rule; the
    # first wall check takes all of them into its one kernel call (86 x 33
    # points, within _CHUNK_POINTS), and the walls of every mode then sweep none
    modes = enumerate_modes(unit_geom, 20.0)
    rule = default_rule(unit_geom, modes)
    radii = _default_walls(unit_geom)[0].size
    assert len(modes) == 878 and len(_functions(modes)) * radii <= modefield._CHUNK_POINTS
    check_vector_orthonormality(modes, rule)
    sweeps.clear()
    check_boundary(modes[-1])
    assert sweeps == [Counter(ma for ma, _ in _functions(modes) for _ in range(radii))]
    sweeps.clear()
    for md in modes:
        check_boundary(md)
    assert not sweeps


def test_a_sweep_takes_kept_functions_up_to_the_chunk_budget(sweeps, unit_geom):
    # 15 functions kept on one set; a call of one function on 1000 radii has
    # room for 4 in its one chunk (4000 <= _CHUNK_POINTS points), so it takes
    # the 3 lowest (|m|, g) of the others, and the next call of one of the
    # rest makes the same one call
    modes = enumerate_modes(unit_geom, 9.0)
    funcs = _functions(modes)
    assert len(funcs) >= 15 and modefield._CHUNK_POINTS // 1000 == 4
    r = np.linspace(0.0, unit_geom.a, 1000)
    _tables(modes, np.linspace(0.0, unit_geom.a, 16), 0.5)
    sweeps.clear()
    one = modes[-1]
    _tables((one,), r, 0.5)
    mine = (abs(one.index.m), one.g)
    taken = [mine, *sorted(f for f in funcs if f != mine)[:3]]
    assert sweeps == [Counter(ma for ma, _ in taken for _ in range(r.size))]
    assert set(modefield._KEPT[r.tobytes()]) == {(*f, unit_geom.a) for f in taken}
    sweeps.clear()
    rest = next(md for md in modes if (abs(md.index.m), md.g) not in taken)
    _tables((rest,), r, 0.5)
    assert len(sweeps) == 1 and sum(sweeps[0].values()) == 4 * r.size


def test_the_chunk_budget_counts_distinct_radii(sweeps, unit_geom):
    # the 1000 radii each given twice: one sweep at 1000 points per function,
    # with room for the same 4 functions as on the 1000 radii once
    modes = enumerate_modes(unit_geom, 9.0)
    r = np.repeat(np.linspace(0.0, unit_geom.a, 1000), 2)
    _tables(modes, np.linspace(0.0, unit_geom.a, 16), 0.5)
    sweeps.clear()
    one = modes[-1]
    _tables((one,), r, 0.5)
    mine = (abs(one.index.m), one.g)
    taken = [mine, *sorted(f for f in _functions(modes) if f != mine)[:3]]
    assert sweeps == [Counter(ma for ma, _ in taken for _ in range(1000))]
    assert set(modefield._KEPT[r.tobytes()]) == {(*f, unit_geom.a) for f in taken}


def test_a_sweep_takes_no_function_of_another_radius(sweeps, unit_geom):
    # the Gram's functions belong to a = 0.9; a wall check of a cavity with
    # a = 0.99 sweeps its own function alone, on radii inside both cavities too
    modes = enumerate_modes(unit_geom, 6.0)[:20]
    check_vector_orthonormality(modes, default_rule(unit_geom, modes))
    other = CavityGeometry(a=1.1 * unit_geom.a, L=unit_geom.L, c=1.0, eps0=1.0, hbar=1.0)
    md = mode_data(other, modes[5].index)
    for call, radii in ((lambda: check_boundary(md), _default_walls(other)[0].size),
                        (lambda: _tables((md,), np.linspace(0.0, unit_geom.a, 9), 0.5), 9)):
        sweeps.clear()
        call()
        assert sweeps == [Counter({abs(md.index.m): radii})]


def test_taken_tables_have_the_bytes_of_a_cold_sweep(unit_geom):
    # every table a wall check takes from the Gram's set equals the table of
    # its function swept alone, with nothing kept
    modes = enumerate_modes(unit_geom, 6.0)[:20]
    check_vector_orthonormality(modes, default_rule(unit_geom, modes))
    check_boundary(modes[0])
    r = _default_walls(unit_geom)[0]
    taken = dict(modefield._KEPT[r.tobytes()])
    assert len(taken) == len(_functions(modes))
    for f, table in taken.items():
        modefield._KEPT.clear()
        cold = modefield._radial([f], r)
        assert cold.shape == table.shape and cold.tobytes() == table.tobytes(), f


def test_repeated_radii_take_the_bits_of_each_radius_swept_alone(unit_geom, rng):
    # a miss sweeps the distinct radii once and expands them: every column,
    # repeats and the axis included, has the bytes of its radius swept alone
    funcs = [(*f, unit_geom.a) for f in _functions(enumerate_modes(unit_geom, 6.5))]
    r = rng.uniform(0.0, unit_geom.a, 6)
    r = np.concatenate([r, r[::-1], r + 1e-3, [0.0, 0.0]]).reshape(4, 5)
    table = modefield._radial(funcs, r)
    assert table.shape == (4 * len(funcs), r.size)
    for j, radius in enumerate(r.ravel()):
        modefield._KEPT.clear()
        alone = modefield._radial(funcs, np.array([radius]))
        assert alone.tobytes() == table[:, j].tobytes(), radius


def test_gram_after_energy_on_one_rule_makes_no_sweep(sweeps, state, rule):
    # total_energy takes the rule's radii shaped (nr, 1, 1) and the Grams the
    # 1-D radii: the same bytes, so the same radial tables
    total_energy(state, rule)
    sweeps.clear()
    check_vector_orthonormality(state.modes, rule)
    check_curl_identity(state.modes, rule)
    assert not sweeps


def test_synthesis_evaluates_each_mode_once(sweeps, state, rule):
    grid = rule.grid()
    _once_then_memo(sweeps, state.modes, rule.nr, lambda: total_energy(state, rule))
    electric_field_grid(state, *grid)           # energy's modes on energy's nodes
    magnetic_field_grid(state, *grid)
    assert not sweeps
    _once_then_memo(sweeps, state.modes, rule.nr, lambda: electric_field_grid(state, *grid))
    _once_then_memo(sweeps, state.modes, rule.nr, lambda: magnetic_field_grid(state, *grid))


def test_synthesis_on_scattered_points_sweeps_once_per_chunk(sweeps, state, rng):
    # scattered points give one radius each: more points, smaller chunks
    points = tuple(rng.uniform(0.0, top, 300) for top in (state.geom.a, 2.0 * np.pi, state.geom.L))
    assert len(_walk_chunks(state.modes, 300)) > 1
    _once_then_memo(sweeps, state.modes, 300, lambda: electric_field_grid(state, *points))


def test_projection_contraction_evaluates_each_mode_once(sweeps, state, rule):
    e = electric_field_grid(state, *rule.grid())
    b = magnetic_field_grid(state, *rule.grid())
    sweeps.clear()
    _once_then_memo(sweeps, state.modes, rule.nr,
                    lambda: project(lambda *_: e, lambda *_: b, state.modes, rule))


def test_projection_samplers_reuse_the_energy_factors(sweeps, state, rule):
    # the samplers and the contraction take the factors per chunk on the
    # rule's radii, where total_energy left them (the contraction on the 1-D
    # radii, the energy on the grid's (nr, 1, 1) ones); on 160 radii in more
    # than one chunk
    fine = quadrature_rule(state.geom, nr=160, nphi=rule.nphi, nz=8)
    assert len(_walk_chunks(state.modes, fine.nr)) > 1
    for on in (rule, fine):
        total_energy(state, on)
        sweeps.clear()
        project(*field_samplers(state), state.modes, on)
        assert not sweeps


def test_maxwell_residual_evaluates_each_mode_once(sweeps, state, rng):
    # the time derivative is taken on the stencil's own nodes: 7 rows of 8
    # points, on 3 x 8 distinct radii (r, r + h, r - h)
    points = (rng.uniform(0.1, 0.8, 8), rng.uniform(0.0, 6.0, 8), rng.uniform(0.1, 1.2, 8))
    _once_then_memo(sweeps, state.modes, 7 * 8, lambda: maxwell_residual(state, points, 1e-3), distinct=3 * 8)


def test_maxwell_residual_sweeps_once_without_the_memo(sweeps, state, rng, monkeypatch):
    # the stencil and the time derivative share one walk of the factors,
    # so keeping no table changes no count
    monkeypatch.setattr(modefield, "_kept", lambda radii: {})
    points = (rng.uniform(0.1, 0.8, 8), rng.uniform(0.0, 6.0, 8), rng.uniform(0.1, 1.2, 8))
    for _ in range(2):
        maxwell_residual(state, points, 1e-3)
        _per_chunk(sweeps, state.modes, 7 * 8, distinct=3 * 8)
    assert not modefield._KEPT


@pytest.mark.parametrize("n", [1, 16])
def test_cold_maxwell_residual_sweeps_each_distinct_radius_once(sweeps, state, rng, n):
    # the stencil hands 7 n radii to the sweep, of which r, r + h and r - h
    # are distinct: each radial function is swept at 3 n points, not 7 n
    points = (rng.uniform(0.1, 0.8, n), rng.uniform(0.0, 6.0, n), rng.uniform(0.1, 1.2, n))
    maxwell_residual(state, points, 1e-3)
    assert sum(sum(c.values()) for c in sweeps) == 3 * n * len(_functions(state.modes))


def test_projection_after_energy_at_omega_40_makes_no_sweep(sweeps, unit_geom, rng):
    # the 7128 modes' 333 radial tables on the default rule stay kept whole:
    # a repeat total_energy and project with its samplers sweep nothing
    modes = enumerate_modes(unit_geom, 40.0)
    rule = default_rule(unit_geom, modes)
    state = FieldState(geom=unit_geom, entries=tuple(zip(modes, rng.normal(size=len(modes)) + 0j)))
    assert len(modes) == 7128 and len(_functions(modes)) == 333
    total_energy(state, rule)
    assert sweeps
    sweeps.clear()
    total_energy(state, rule)
    project(*field_samplers(state), modes, rule)
    assert not sweeps


@pytest.mark.parametrize("suites,point_sets", [
    ("gram,curl,boundary", 2),      # one Gram for both suites, then the walls
    ("bessel,boundary", 1),         # the zero tables sweep no mode
])
def test_cli_verify_sweeps_once_per_abs_m_per_point_set(sweeps, state, capsys, suites, point_sets):
    argv = ["verify", "--radius", "0.9", "--height", "1.3", "--speed-of-light", "1",
            "--vacuum-permittivity", "1", "--hbar", "1", "--omega-max", "6.5", "--suite", suites]
    assert main(argv) == 0
    capsys.readouterr()
    radii = (DEFAULT_NR, _default_walls(state.geom)[0].size)
    _per_chunk(sweeps, state.modes, *radii[-point_sets:])


def test_spectrum_sweeps_once_per_modes_call(spectrum_sweeps, unit_geom):
    modes = enumerate_modes(unit_geom, 20.0)
    assert len(modes) == 878
    assert len(spectrum_sweeps) == 1
    # a batch changes no bit: each mode equals its one-mode mode_data
    for md in modes:
        one = mode_data(unit_geom, md.index)
        assert one.index == md.index
        for name in ("chi", "g", "h", "k", "omega", "alpha", "c_norm"):
            assert getattr(one, name).hex() == getattr(md, name).hex(), (md.index, name)


def test_loads_state_sweeps_once(spectrum_sweeps, state):
    text = dumps_state(state)
    spectrum_sweeps.clear()
    back = loads_state(text)
    assert len(back.modes) == 30
    assert spectrum_sweeps == [30]


def test_cold_enumeration_pools_the_zero_finder(kernel_calls, unit_geom, monkeypatch):
    # one pooled scan, a Newton pass of a handful of steps and the ModeData
    # sweep; a scan and a Newton pass per (m, kind) would take 236 calls
    monkeypatch.setattr(bessel, "_ROOTS", {})
    assert len(enumerate_modes(unit_geom, 20.0)) == 878
    assert len(kernel_calls) <= 24
    kernel_calls.clear()
    enumerate_modes(unit_geom, 20.0)
    assert len(kernel_calls) == 1           # warm: the ModeData sweep alone
