"""Vector mode functions against finite-difference oracles of the scalar
potential, plus symmetry, axis, boundary and domain behavior."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylcavity import (
    TE,
    TM,
    CavityGeometry,
    CylPoint,
    CylVector,
    FieldState,
    ModeIndex,
    check_boundary,
    check_curl_identity,
    check_vector_orthonormality,
    curl_u,
    curl_u_grid,
    default_rule,
    electric_field_grid,
    enumerate_modes,
    field_samplers,
    magnetic_field_grid,
    mode_data,
    project,
    psi,
    psi_grid,
    to_cartesian,
    total_energy,
    u_grid,
    u_mode,
)
import cylcavity.modefield as modefield
from cylcavity.modefield import (_CHUNK_POINTS, _CURL, _KEPT, _KEPT_SETS, _PSI, _U, _gather, _groups, _phase,
                                 _tables, _walk)
from cylcavity.verify import _default_walls
from oracles import fd_curl_cyl, fd_div_cyl, fd_grad_cyl

MODES = [
    (0, 1, 0, TM),
    (0, 1, 2, TM),
    (1, 1, 1, TM),
    (-1, 1, 1, TM),
    (2, 2, 1, TM),
    (0, 1, 1, TE),
    (1, 1, 1, TE),
    (-3, 1, 2, TE),
]


def _interior_points(geom, rng, count=24):
    return (rng.uniform(0.1 * geom.a, 0.9 * geom.a, size=count),
            rng.uniform(0.0, 2.0 * math.pi, size=count),
            rng.uniform(0.1 * geom.L, 0.9 * geom.L, size=count))


def _fd_u(md, r, phi, z, h, hphi):
    # u = k^2 e_z psi + grad(d_z psi), with d_z psi itself by differences
    def dz_psi(rr, pp, zz):
        return (psi_grid(md, rr, pp, zz + h) - psi_grid(md, rr, pp, zz - h)) / (2.0 * h)

    g_r, g_phi, g_z = fd_grad_cyl(dz_psi, r, phi, z, h, hphi)
    u_z = md.k**2 * psi_grid(md, r, phi, z) + g_z
    return g_r, g_phi, u_z


@pytest.mark.parametrize("m,mu,n,sigma", MODES)
def test_u_matches_fd_of_psi(unit_geom, rng, m, mu, n, sigma):
    md = mode_data(unit_geom, ModeIndex(m=m, mu=mu, n=n, sigma=sigma))
    r, phi, z = _interior_points(unit_geom, rng)
    # nested second differences amplify rounding, so h cannot be tiny
    h = 2e-4
    hphi = h / unit_geom.a
    if sigma == TM:
        expect = _fd_u(md, r, phi, z, h, hphi)
        got = u_grid(md, r, phi, z)
    else:
        # TE: u = i omega curl(e_z psi)
        #   = i omega ((1/r) d_phi psi, -d_r psi, 0)
        d_r, d_phi, _ = fd_grad_cyl(lambda *a: psi_grid(md, *a), r, phi, z, h, hphi)
        expect = (1j * md.omega * d_phi, -1j * md.omega * d_r, np.zeros_like(d_r))
        got = u_grid(md, r, phi, z)
    for e, g in zip(expect, got):
        assert np.max(np.abs(e - g)) < 5e-6


@pytest.mark.parametrize("m,mu,n,sigma", MODES)
def test_curl_u_matches_fd_curl(unit_geom, rng, m, mu, n, sigma):
    md = mode_data(unit_geom, ModeIndex(m=m, mu=mu, n=n, sigma=sigma))
    r, phi, z = _interior_points(unit_geom, rng)
    h = 1e-4
    fd = fd_curl_cyl(lambda *a: u_grid(md, *a), r, phi, z, h, h / unit_geom.a)
    got = curl_u_grid(md, r, phi, z)
    for e, g in zip(fd, got):
        assert np.max(np.abs(e - g)) < 5e-6


@pytest.mark.parametrize("m,mu,n,sigma", MODES)
def test_u_is_divergence_free(unit_geom, rng, m, mu, n, sigma):
    md = mode_data(unit_geom, ModeIndex(m=m, mu=mu, n=n, sigma=sigma))
    r, phi, z = _interior_points(unit_geom, rng)
    div = fd_div_cyl(lambda *a: u_grid(md, *a), r, phi, z, 1e-4, 1e-4 / unit_geom.a)
    assert np.max(np.abs(div)) < 5e-6


def test_fd_convergence_is_second_order(unit_geom, rng):
    md = mode_data(unit_geom, ModeIndex(m=2, mu=1, n=1, sigma=TM))
    r, phi, z = _interior_points(unit_geom, rng, count=12)
    errs = []
    for h in (2e-4, 1e-4):
        fd = _fd_u(md, r, phi, z, h, h / unit_geom.a)
        got = u_grid(md, r, phi, z)
        errs.append(max(float(np.max(np.abs(e - g))) for e, g in zip(fd, got)))
    order = math.log2(errs[0] / errs[1])
    assert order > 1.9


def test_helmholtz_identity(unit_geom, rng):
    # curl curl u = k^2 u for divergence-free eigenfields
    for m, mu, n, sigma in ((1, 1, 1, TM), (2, 1, 1, TE)):
        md = mode_data(unit_geom, ModeIndex(m=m, mu=mu, n=n, sigma=sigma))
        r, phi, z = _interior_points(unit_geom, rng, count=6)
        h = 5e-4
        hphi = h / unit_geom.a
        cc = fd_curl_cyl(
            lambda *a: fd_curl_cyl(lambda *b: u_grid(md, *b), *a, h, hphi),
            r, phi, z, h, hphi)
        u = u_grid(md, r, phi, z)
        scale = max(float(np.max(np.abs(c))) for c in u) * md.k**2
        err = max(float(np.max(np.abs(c - md.k**2 * uu))) for c, uu in zip(cc, u))
        assert err < 1e-4 * scale


@pytest.mark.parametrize("m,mu,n,sigma", MODES)
def test_conjugation_symmetry(unit_geom, rng, m, mu, n, sigma):
    # flipped azimuthal index: u_{-m} = +-(-1)^m conj(u_m), plus sign for
    # the axial-electric family, minus for the axial-magnetic one
    plus = mode_data(unit_geom, ModeIndex(m=m, mu=mu, n=n, sigma=sigma))
    minus = mode_data(unit_geom, ModeIndex(m=-m, mu=mu, n=n, sigma=sigma))
    r, phi, z = _interior_points(unit_geom, rng, count=16)
    sign = (-1.0) ** m * (1.0 if sigma == TM else -1.0)
    for up, um in zip(u_grid(plus, r, phi, z), u_grid(minus, r, phi, z)):
        assert np.max(np.abs(um - sign * np.conj(up))) < 1e-14


def test_axis_values_match_limit(unit_geom):
    phi = np.array([0.4])
    z = np.array([0.7])
    for m, sigma, n in ((1, TM, 1), (-1, TM, 1), (1, TE, 1), (0, TM, 0), (2, TE, 1)):
        md = mode_data(unit_geom, ModeIndex(m=m, mu=1, n=n, sigma=sigma))
        at0 = u_grid(md, np.array([0.0]), phi, z)
        near = u_grid(md, np.array([1e-7 * unit_geom.a]), phi, z)
        for c0, cn in zip(at0, near):
            assert np.all(np.isfinite(c0))
            assert np.max(np.abs(c0 - cn)) < 1e-6 * (1.0 + np.max(np.abs(c0)))


def test_axis_transverse_components_vanish_unless_unit_m(unit_geom):
    z = np.array([0.3])
    for m in (0, 2, 3):
        md = mode_data(unit_geom, ModeIndex(m=m, mu=1, n=1, sigma=TE))
        u_r, u_phi, _ = u_grid(md, np.array([0.0]), np.array([1.0]), z)
        if m == 0:
            assert complex(u_r[0]) == 0j
        else:
            assert complex(u_r[0]) == 0j and complex(u_phi[0]) == 0j
    md = mode_data(unit_geom, ModeIndex(m=1, mu=1, n=1, sigma=TE))
    u_r, u_phi, _ = u_grid(md, np.array([0.0]), np.array([1.0]), z)
    assert abs(complex(u_r[0])) > 0.0


def test_potential_boundary_values(unit_geom):
    phi = np.linspace(0.0, 2.0 * math.pi, 7)
    z = np.linspace(0.0, unit_geom.L, 5)
    tm = mode_data(unit_geom, ModeIndex(m=1, mu=2, n=1, sigma=TM))
    wall = psi_grid(tm, np.array([unit_geom.a]), phi[:, None], z[None, :])
    assert np.max(np.abs(wall)) < 1e-13
    te = mode_data(unit_geom, ModeIndex(m=1, mu=2, n=1, sigma=TE))
    h = 1e-6
    # one-sided second-order difference; r = a + h is outside the domain
    a = unit_geom.a
    p0 = psi_grid(te, np.array([a]), phi, np.array([0.5]))
    p1 = psi_grid(te, np.array([a - h]), phi, np.array([0.5]))
    p2 = psi_grid(te, np.array([a - 2.0 * h]), phi, np.array([0.5]))
    dpsi = (3.0 * p0 - 4.0 * p1 + p2) / (2.0 * h)
    assert np.max(np.abs(dpsi)) < 1e-9


def _abs_m(modes):
    return [abs(md.index.m) for md in modes]


def _walked(modes, r, z):
    """s (7, n), R (7, *r.shape, n) and Z (7, *z.shape, n) of every row of
    modes, in their own order, from one _walk."""
    n = len(modes)
    s, R, Z = np.empty((7, n), dtype=complex), np.empty((7, *np.shape(r), n)), np.empty((7, *np.shape(z), n))
    for idx, _, s_c, R_c, Z_c, _ in _walk(modes, r, z, slice(None)):
        s[:, idx], R[..., idx], Z[..., idx] = s_c, R_c, Z_c
    return s, R, Z


def _equal_single_mode_fields(modes, r, phi, z):
    """Each mode of one _walk on modes equals that mode's own u_grid /
    curl_u_grid, bit for bit."""
    s, R, Z = _walked(modes, r, z)
    for j, md in enumerate(modes):
        phase = _phase(md.index.m, phi)
        for rows, single in ((_U, u_grid), (_CURL, curl_u_grid)):
            got = [sc * Rc * Zc * phase for sc, Rc, Zc in zip(s[rows, j], R[rows, ..., j], Z[rows, ..., j])]
            for f, want in zip(got, single(md, r, phi, z)):
                assert np.array_equal(f, want), (md.index, rows)


def test_single_mode_rows_equal_walk_rows_bitwise(unit_geom, rng):
    # psi_grid, u_grid and curl_u_grid read one mode straight from _tables:
    # the bits of s R Z e^{i m phi} from a one-mode _walk, on every layout
    modes = enumerate_modes(unit_geom, 12.0)
    layouts = [(0.3, 1.0, 0.4),
               (np.array([0.0, 0.45, unit_geom.a]), np.array([0.0, 2.0, 4.0]), np.array([0.0, 0.6, unit_geom.L])),
               (np.linspace(0.0, unit_geom.a, 5)[:, None, None], np.linspace(0.0, 6.0, 4)[None, :, None],
                np.linspace(0.0, unit_geom.L, 6)[None, None, :]),
               (rng.uniform(0.0, unit_geom.a, (3, 4)), 0.7, rng.uniform(0.0, unit_geom.L, (3, 4))),
               (np.array([1e-10, 0.2]), np.array([[0.1], [5.0]]), 0.0)]
    for md in (modes[0], modes[5], modes[40], modes[-1]):
        for r, phi, z in layouts:
            ((_, _, s, R, Z, _),) = _walk((md,), r, z, slice(None))
            phase = _phase(md.index.m, phi)
            want = [sc * Rc * Zc * phase for sc, Rc, Zc in zip(s[:, 0], R[..., 0], Z[..., 0])]
            got = [psi_grid(md, r, phi, z), *u_grid(md, r, phi, z), *curl_u_grid(md, r, phi, z)]
            assert all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(got, want)), md.index


def test_abs_m_group_equals_single_mode_fields(unit_geom, rng):
    # one Bessel sweep per |m| group must not change a mode's bits
    # chi up to 10.8: a group's g r spans several Miller start indices
    modes = enumerate_modes(unit_geom, 12.0)
    groups = {}
    for md in modes:
        groups.setdefault(abs(md.index.m), []).append(md)
    assert any({md.index.m for md in g} == {1, -1} and len({md.index.sigma for md in g}) == 2
               for g in groups.values())
    assert any(md.index.sigma == TM and md.index.n == 0 for md in modes)
    tensor = (np.linspace(0.0, unit_geom.a, 17)[:, None, None],
              np.linspace(0.0, 2.0 * math.pi, 5)[None, :, None],
              np.linspace(0.0, unit_geom.L, 13)[None, None, :])
    for r, phi, z in (tensor, _interior_points(unit_geom, rng, 40)):
        for group in groups.values():
            _equal_single_mode_fields(tuple(group), r, phi, z)


def test_pooled_chunks_equal_single_mode_fields(unit_geom, rng):
    # every mode up to omega = 12 in one call, swept in several chunks of
    # several |m| each with per-point orders, has the bits it has alone: on
    # the axis, inside the on-axis limit's reach, on the wall and in between
    modes = tuple(enumerate_modes(unit_geom, 12.0))
    assert len(modes) == 183
    a = unit_geom.a
    radii = np.concatenate([[0.0, 1e-12 * a, 0.9e-8 * a, 1.1e-8 * a, a],
                            np.linspace(0.0, a, 61)[1:-1]])
    tensor = (radii[:, None, None], np.linspace(0.0, 2.0 * math.pi, 3)[None, :, None],
              np.linspace(0.0, unit_geom.L, 5)[None, None, :])
    scattered = (np.concatenate([[0.0, 1e-12 * a, a], rng.uniform(0.0, a, 61)]),
                 rng.uniform(0.0, 2.0 * math.pi, 64), rng.uniform(0.0, unit_geom.L, 64))
    for r, phi, z in (tensor, scattered):
        chunks = _groups(_abs_m(modes), np.size(r))
        assert len(chunks) > 2 and any(len({abs(modes[i].index.m) for i in c}) > 2 for c in chunks)
        _equal_single_mode_fields(modes, r, phi, z)


@pytest.mark.parametrize("omega_max", [6.5, 20.0, 40.0])
@pytest.mark.parametrize("radii", [1, 17, 64, 348, 5000])
@pytest.mark.parametrize("order", ["spectrum", "reversed"])
def test_chunks_take_whole_abs_m_groups_within_budget(unit_geom, omega_max, radii, order):
    modes = enumerate_modes(unit_geom, omega_max)
    modes = modes if order == "spectrum" else modes[::-1]
    chunks = _groups(_abs_m(modes), radii)
    assert sorted(i for c in chunks for i in c) == list(range(len(modes)))
    abs_m = [sorted({abs(modes[i].index.m) for i in c}) for c in chunks]
    flat = [ma for ms in abs_m for ma in ms]
    assert flat == sorted(set(flat))     # ascending, and each |m| group in one chunk
    for c, ms, following in zip(chunks, abs_m, abs_m[1:] + [None]):
        assert len(c) * radii <= _CHUNK_POINTS or len(ms) == 1
        # ascending |m|, each group's positions ascending: _walk yields the chunk as it is
        assert c == sorted(c, key=lambda i: (abs(modes[i].index.m), i))
        if following:       # a chunk stops only where the next group would pass the budget
            nxt = sum(abs(md.index.m) == following[0] for md in modes)
            assert (len(c) + nxt) * radii > _CHUNK_POINTS
    assert _groups([], radii) == []


@pytest.mark.parametrize("rows", [_PSI, _U, _CURL, slice(_U.start, _CURL.stop), slice(None)])
def test_walk_yields_each_mode_once_in_stable_abs_m_order(unit_geom, rng, rows):
    # the 183 modes up to omega = 12 shuffled, on 60 radii: several chunks,
    # each with only the asked rows of its modes in stable |m| order, the
    # +-m partners in one run, and those equal one full gather from _tables
    # of every mode, bit for bit
    modes = list(enumerate_modes(unit_geom, 12.0))
    modes = [modes[i] for i in rng.permutation(len(modes))]
    r, z = np.linspace(0.0, unit_geom.a, 60)[:, None], np.linspace(0.0, unit_geom.L, 6)[None, :]
    s_all, c, radial, r_at, axial, z_at = _tables(modes, r, z)
    full = (s_all[rows], _gather(radial, r_at, r.shape)[rows], (c * _gather(axial, z_at, z.shape))[rows])
    chunks = list(_walk(modes, r, z, rows))
    assert len(chunks) > 2
    seen, paired = [], 0
    for idx, m, s, R, Z, runs in chunks:
        assert m.tolist() == [modes[i].index.m for i in idx]
        paired += sum(m[lo:hi].min() < 0 < m[lo:hi].max() for lo, hi in runs)
        assert [lo for lo, _ in runs] == [0, *(hi for _, hi in runs[:-1])] and runs[-1][1] == len(idx)
        assert np.all(np.diff([abs(m[lo]) for lo, _ in runs]) > 0)      # one run per |m|, ascending
        for lo, hi in runs:     # one |m|, in the order modes gives
            assert np.all(np.abs(m[lo:hi]) == abs(m[lo])) and np.all(np.diff(idx[lo:hi]) > 0)
        for got, want in zip((s, R, Z), full):
            want = want[..., idx]
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        seen.extend(idx.tolist())
    assert sorted(seen) == list(range(len(modes))) and paired > 2


def test_empty_mode_set_has_empty_factors(unit_geom):
    r, z = np.linspace(0.0, unit_geom.a, 4)[:, None], np.linspace(0.0, unit_geom.L, 3)[None, :]
    assert list(_walk((), r, z, slice(None))) == []
    s, c, radial, r_at, axial, z_at = _tables((), r, z)
    assert s.shape == r_at.shape == z_at.shape == (7, 0) and c.shape == (0,) and radial.shape == (0, 4)
    assert _gather(radial, r_at, r.shape).shape == (7, 4, 1, 0)
    assert _gather(axial, z_at, z.shape).shape == (7, 1, 3, 0)


@pytest.fixture
def sweeps(monkeypatch):
    """The orders' shape of each Bessel kernel call made by modefield,
    starting with no table kept (a shape, so the list holds no array)."""
    calls = []
    original = modefield._j_points
    monkeypatch.setattr(modefield, "_j_points", lambda orders, x: calls.append(np.shape(orders)) or original(orders, x))
    _KEPT.clear()
    yield calls
    _KEPT.clear()


def _kept_tables(r):
    """The tables kept on the radii r, which must be a kept set, each checked
    to be one radial function's read-only (4, radii) table (J, g J',
    (|m|/r) J, g^2 J) keyed on (|m|, g, a)."""
    radii = np.asarray(r, dtype=float).reshape(-1).tobytes()
    assert radii in _KEPT, "the radii set is not kept"
    kept = _KEPT[radii]
    for (absm, g, a), table in kept.items():
        assert isinstance(absm, int) and absm >= 0 and g > 0.0 and a > 0.0
        assert table.shape == (4, np.size(r)) and not table.flags.writeable
    assert len(_KEPT) <= _KEPT_SETS
    return kept


def test_factor_memo_serves_repeats_read_only(unit_geom, sweeps):
    # one read-only table per radial function is kept on a set of radii; a
    # repeat of the same modes on radii with the same float64 bytes, in any
    # shape, reads every table from it
    modes = tuple(enumerate_modes(unit_geom, 6.5))
    r, z = np.linspace(0.0, unit_geom.a, 9)[:, None], np.linspace(0.0, unit_geom.L, 7)[None, :]
    first = _walked(modes, r, z)
    count = len(sweeps)
    again = _walked(list(modes), r.copy(), z.tolist())
    flat = _walked(modes, r.ravel()[None, :], z)
    assert len(sweeps) == count and len(_KEPT) == 1
    assert set(_kept_tables(r)) == {(abs(md.index.m), md.g, md.geom.a) for md in modes}
    assert len(_kept_tables(r)) == 10
    _KEPT.clear()
    fresh = _walked(modes, r, z)
    for a, b, c, d in zip(first, again, fresh, flat):
        assert a.tobytes() == b.tobytes() == c.tobytes() == d.tobytes() and a.shape == b.shape == c.shape


def test_factor_memo_misses_on_other_geometry_or_nodes(unit_geom, sweeps):
    # a table is shared where the radial function and the radii are: a
    # geometry with the same radius a has the same g, other heights leave
    # the radii as they are, and a table lies on the flattened radii, so
    # the same radii in another shape share it
    other_l = CavityGeometry(a=unit_geom.a, L=1.1 * unit_geom.L, c=1.0, eps0=1.0, hbar=1.0)
    other_a = CavityGeometry(a=1.1 * unit_geom.a, L=unit_geom.L, c=1.0, eps0=1.0, hbar=1.0)
    index = ModeIndex(m=1, mu=1, n=1, sigma=TM)
    r, z = np.array([0.2, 0.5]), np.array([0.3, 0.9])
    calls, cases = [], ((mode_data(unit_geom, index), r, z), (mode_data(other_l, index), r, z),
                        (mode_data(other_a, index), r, z),
                        (mode_data(unit_geom, index), np.nextafter(r, 1.0), z),
                        (mode_data(unit_geom, index), r, np.nextafter(z, 0.0)),
                        (mode_data(unit_geom, index), r[None, :], z))
    for md, rr, zz in cases:
        before = len(sweeps)
        _walked((md,), rr, zz)
        calls.append(len(sweeps) - before)
    assert calls == [1, 0, 1, 1, 0, 0] and len(_KEPT) == 2
    assert len(_kept_tables(r)) == 2 and len(_kept_tables(np.nextafter(r, 1.0))) == 1
    _KEPT.clear()
    for md, rr, zz in cases:     # each cold factor equals its kept one
        want = _walked((md,), rr, zz)
        _KEPT.clear()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(want, _walked((md,), rr, zz)))


def test_partners_read_one_triple_bit_for_bit(unit_geom, sweeps):
    # TE(1,1,1), TE(-1,1,1) and TE(1,1,2) share J_1(g r): from a warm memo
    # their factors equal the cold one-mode factors bit for bit, and the
    # wall checks after the first make no kernel call
    modes = [mode_data(unit_geom, ModeIndex(m=m, mu=1, n=n, sigma=TE)) for m, n in ((1, 1), (-1, 1), (1, 2))]
    r, z = np.linspace(0.0, unit_geom.a, 11), np.linspace(0.0, unit_geom.L, 5)
    cold = []
    for md in modes:
        _KEPT.clear()
        cold.append(_walked((md,), r, z))
    _KEPT.clear()
    del sweeps[:]
    for md, want in zip(modes, cold):
        got = _walked((md,), r, z)
        assert all(a.tobytes() == b.tobytes() and a.shape == b.shape for a, b in zip(got, want))
    assert len(sweeps) == 1
    reports = []
    for md in modes:
        reports.append(check_boundary(md))
        assert len(sweeps) == 2, md.index      # the walls' radii: one more sweep
    _KEPT.clear()
    assert reports == [check_boundary(md) for md in modes]


def test_one_call_shares_each_function_without_the_memo(unit_geom, sweeps, monkeypatch):
    # with no table kept, one call still sweeps each of its radial functions
    # once, in one kernel call per chunk: here two functions, two |m| groups
    monkeypatch.setattr(modefield, "_kept", lambda radii: {})
    modes = [mode_data(unit_geom, ModeIndex(m=m, mu=1, n=n, sigma=sigma))
             for m, n, sigma in ((1, 1, TE), (-1, 1, TE), (1, 2, TE), (0, 0, TM), (0, 2, TM))]
    r, z = np.linspace(0.0, unit_geom.a, 13), np.linspace(0.0, unit_geom.L, 5)
    for _ in range(2):
        got = _walked(modes, r, z)
        assert sweeps == [(3, 2 * r.size)]
        del sweeps[:]
    assert len(_KEPT) == 0
    for j, md in enumerate(modes):      # each mode as it is alone
        assert all(a[..., j].tobytes() == b[..., 0].tobytes() for a, b in zip(got, _walked((md,), r, z)))


def test_factor_memo_keeps_within_budget(unit_geom, sweeps):
    # _KEPT_SETS radii sets are kept and a further one evicts the least
    # recently used set whole; a set of more than _CHUNK_POINTS radii is used
    # but not kept
    one, two = (mode_data(unit_geom, ModeIndex(m=m, mu=1, n=1, sigma=TM)) for m in (0, 2))
    sets = [np.linspace(0.0, unit_geom.a, 9 + k) for k in range(_KEPT_SETS + 1)]
    _walked((one,), sets[0], 0.5)
    _walked((two,), sets[0], 0.5)           # two functions on the oldest set, swept apart
    for r in sets[1:]:
        _walked((one,), r, 0.5)
    assert len(_KEPT) == _KEPT_SETS
    del sweeps[:]
    for r in sets[:0:-1]:
        _walked((one,), r, 0.7)
    assert not sweeps
    _walked((one, two), sets[0], 0.5)       # both functions again, in one sweep
    assert sweeps == [(3, 2 * sets[0].size)]
    # a kept set read again is the most recently used: the reverse walk left
    # sets[-1] least recently used, and sets[0] evicted it
    assert list(_KEPT) == [r.tobytes() for r in (*sets[-2:0:-1], sets[0])]
    edge, wide = (np.linspace(0.0, unit_geom.a, n) for n in (_CHUNK_POINTS, _CHUNK_POINTS + 1))
    calls, kept = [], []
    for r in (wide, wide, edge, edge):
        before = len(sweeps)
        kept.append(r.tobytes() in _KEPT)
        s, R, Z = _walked((one,), r, 0.5)
        calls.append(len(sweeps) - before)
        assert R.shape == (7, r.size, 1)
    assert calls == [1, 1, 1, 0] and kept == [False, False, False, True]


def test_factor_memo_budget_bounds_its_memory(unit_geom, sweeps):
    # the kept tables take at most _KEPT_SETS x _CHUNK_POINTS x 32 bytes per
    # radial function, besides each set's key of 8 bytes per radius: here two
    # functions on more sets of _CHUNK_POINTS radii than are kept
    modes = [mode_data(unit_geom, ModeIndex(m=m, mu=1, n=1, sigma=TE)) for m in (1, 3)]
    sets = [np.linspace(0.0, unit_geom.a, _CHUNK_POINTS) * (1.0 - k * 1e-3) for k in range(_KEPT_SETS + 2)]
    _walked(modes, sets[0], 0.5)
    _KEPT.clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for r in sets:
            _walked(modes, r, 0.5)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    tables = _KEPT_SETS * _CHUNK_POINTS * 32 * len(modes)
    assert len(_KEPT) == _KEPT_SETS
    assert tables <= held <= tables + _KEPT_SETS * _CHUNK_POINTS * 8 + (64 << 10), held


def test_factor_memo_accounting_survives_threads(unit_geom, sweeps):
    # more threads than cores, each evicting the others' sets: every call
    # returns the bytes of a cold call, and no more sets are kept than allowed
    md = mode_data(unit_geom, ModeIndex(m=2, mu=1, n=1, sigma=TE))
    radii = [np.linspace(0.0, unit_geom.a, 512) * (1.0 - k * 1e-3) for k in range(_KEPT_SETS + 2)]
    want = []
    for r in radii:
        _KEPT.clear()
        want.append(_walked((md,), r, 0.3)[1].tobytes())
    errors = []

    def work(k):
        try:
            for i in range(40):
                j = (k + i) % len(radii)
                assert _walked((md,), radii[j], 0.3)[1].tobytes() == want[j]
        except Exception as exc:    # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads) and not errors
    assert len(_KEPT) == _KEPT_SETS


def test_taking_kept_functions_survives_threads(unit_geom, sweeps):
    # more threads than cores, each sweeping one of three functions on sets
    # that the others fill and evict, so each sweep takes along the others'
    # functions from sets that come and go: every call returns the bytes of
    # a cold call, and no more sets are kept than allowed
    modes = [mode_data(unit_geom, ModeIndex(m=m, mu=1, n=1, sigma=TE)) for m in (0, 2, 5)]
    radii = [np.linspace(0.0, unit_geom.a, 512) * (1.0 - k * 1e-3) for k in range(_KEPT_SETS + 2)]
    want = {}
    for i, md in enumerate(modes):
        for j, r in enumerate(radii):
            _KEPT.clear()
            want[i, j] = _walked((md,), r, 0.3)[1].tobytes()
    _KEPT.clear()
    del sweeps[:]
    errors = []

    def work(k):
        try:
            for step in range(40):
                i, j = (k + step) % len(modes), (k + 2 * step) % len(radii)
                assert _walked((modes[i],), radii[j], 0.3)[1].tobytes() == want[i, j]
        except Exception as exc:    # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads) and not errors
    assert len(_KEPT) == _KEPT_SETS
    # some sweeps took other functions along, none beyond one chunk
    assert max(points for _, points in sweeps) in (2 * 512, 3 * 512)


def test_memo_keeps_radial_tables_only_after_certify_and_fields_ops(unit_geom, rng, sweeps):
    # the two benchmark ops' calls, each repeated: at most _KEPT_SETS radii
    # sets are kept, each holding only radial-function tables, and every
    # repeat reads all its tables from them
    modes = enumerate_modes(unit_geom, 6.5)
    rule = default_rule(unit_geom, modes)
    state = FieldState(geom=unit_geom, entries=tuple(zip(modes, rng.normal(size=len(modes)) + 0j)))
    grid = (np.linspace(0.0, unit_geom.a, 7)[:, None, None], np.linspace(0.0, 6.0, 5)[None, :, None],
            np.linspace(0.0, unit_geom.L, 6)[None, None, :])
    funcs = {(abs(md.index.m), md.g, md.geom.a) for md in modes}
    calls = [(rule.r, lambda: check_vector_orthonormality(modes, rule)),
             (rule.r, lambda: check_curl_identity(modes, rule)),
             *((_default_walls(unit_geom)[0], lambda md=md: check_boundary(md)) for md in modes),
             (grid[0], lambda: electric_field_grid(state, *grid)), (grid[0], lambda: magnetic_field_grid(state, *grid)),
             (rule.r, lambda: total_energy(state, rule)), (rule.r, lambda: project(*field_samplers(state), modes, rule))]
    for radii, call in calls:
        call()
        assert set(_kept_tables(radii)) <= funcs
        before = len(sweeps)
        call()
        assert len(sweeps) == before
    assert set(_kept_tables(rule.r)) == set(_kept_tables(grid[0])) == funcs


def test_n0_mode_has_no_axial_dependence(unit_geom):
    md = mode_data(unit_geom, ModeIndex(m=1, mu=1, n=0, sigma=TM))
    z = np.linspace(0.0, unit_geom.L, 9)
    vals = psi_grid(md, np.array([0.4]), np.array([0.2]), z)
    assert np.max(np.abs(vals - vals[0])) < 1e-15


def test_domain_rejection(unit_geom):
    md = mode_data(unit_geom, ModeIndex(m=0, mu=1, n=0, sigma=TM))
    for r, z in ((unit_geom.a * 1.001, 0.5), (0.5, -0.01), (0.5, unit_geom.L + 0.01)):
        with pytest.raises(ValueError):
            u_grid(md, np.array([r]), np.array([0.0]), np.array([z]))
        with pytest.raises(ValueError):
            u_mode(md, CylPoint(r=r, phi=0.0, z=z))
    for r, z in ((math.nan, 0.5), (0.5, math.inf), (-math.inf, 0.5)):
        with pytest.raises(ValueError, match="^coordinates must be finite$"):
            u_grid(md, np.array([r]), np.array([0.0]), np.array([z]))
    # no slack below the axis, where the Bessel kernel takes no radius
    with pytest.raises(ValueError, match=rf"^radius outside closed cavity domain \[0, {unit_geom.a}\]$"):
        u_grid(md, np.array([-1e-14]), 0.0, 0.5)


def test_cyl_point_validation():
    with pytest.raises(ValueError):
        CylPoint(r=-0.1, phi=0.0, z=0.0)
    p = CylPoint(r=0.2, phi=2.0 * math.pi + 0.3, z=0.1)
    assert p.phi == pytest.approx(0.3, abs=1e-12)
    # a tiny negative phi, which % rounds up to 2 pi, folds to 0
    for phi in (-1e-20, -1e-16, -0.0):
        p = CylPoint(r=0.1, phi=phi, z=0.2)
        assert p.phi == 0.0 and not math.copysign(1.0, p.phi) < 0.0, phi
    assert 0.0 < CylPoint(r=0.1, phi=-5e-16, z=0.2).phi < 2.0 * math.pi
    for name in ("r", "phi", "z"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"^CylPoint.{name} must be finite, got {bad!r}$"):
                CylPoint(**{"r": 0.5, "phi": 0.0, "z": 0.5, name: bad})


def test_cyl_point_stores_numpy_reals_as_floats_and_rejects_bools():
    p = CylPoint(r=np.float32(0.5), phi=np.float64(1.0), z=np.int64(1))
    assert (p.r, p.phi, p.z) == (0.5, 1.0, 1.0)
    assert all(type(v) is float for v in (p.r, p.phi, p.z))
    for name in ("r", "phi", "z"):
        for bad in (True, np.False_, "0.5"):
            with pytest.raises(ValueError, match=f"CylPoint.{name} must be a real number"):
                CylPoint(**{"r": 0.5, "phi": 0.0, "z": 0.5, name: bad})


def test_cyl_vector_stores_numbers_as_complex_and_rejects_bools_and_strings():
    v = CylVector(np.float32(0.5), np.complex128(2j), 3)
    assert (v.v_r, v.v_phi, v.v_z) == (0.5, 2j, 3)
    assert all(type(c) is complex for c in (v.v_r, v.v_phi, v.v_z))
    for name in ("v_r", "v_phi", "v_z"):
        for bad in ("1", "2j", True, np.False_, complex(0.0, math.inf), math.nan):
            with pytest.raises(ValueError, match=f"CylVector.{name} must be a finite number"):
                CylVector(**{"v_r": 1.0, "v_phi": 0j, "v_z": 0j, name: bad})


def test_point_api_matches_grid(unit_geom):
    md = mode_data(unit_geom, ModeIndex(m=2, mu=1, n=1, sigma=TE))
    p = CylPoint(r=0.31, phi=1.2, z=0.9)
    vec = u_mode(md, p)
    grid = u_grid(md, np.array([p.r]), np.array([p.phi]), np.array([p.z]))
    assert vec.v_r == complex(grid[0][0])
    assert vec.v_phi == complex(grid[1][0])
    assert vec.v_z == complex(grid[2][0])


def test_point_functions_equal_the_grid_functions_bit_for_bit(unit_geom):
    # psi, u_mode and curl_u at one point, and CylVector.as_array, hold the
    # grid functions' values at that point unchanged
    p = CylPoint(r=0.31, phi=1.2, z=0.9)
    at = (np.array([p.r]), np.array([p.phi]), np.array([p.z]))
    for index in (ModeIndex(m=2, mu=1, n=1, sigma=TE), ModeIndex(m=-1, mu=2, n=0, sigma=TM)):
        md = mode_data(unit_geom, index)
        assert np.array([psi(md, p)]).tobytes() == psi_grid(md, *at).tobytes()
        for point, grid in ((u_mode, u_grid), (curl_u, curl_u_grid)):
            got, want = point(md, p).as_array(), np.concatenate(grid(md, *at)).astype(complex)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), point.__name__


@settings(max_examples=80, deadline=None)
@given(phi=st.floats(min_value=0.0, max_value=2.0 * math.pi),
       vr=st.floats(-5, 5), vp=st.floats(-5, 5), vz=st.floats(-5, 5))
def test_to_cartesian_preserves_norm(phi, vr, vp, vz):
    p = CylPoint(r=0.5, phi=phi, z=0.1)
    v = CylVector(v_r=vr + 0.0j, v_phi=vp + 0.0j, v_z=vz + 0.0j)
    cart = to_cartesian(p, v)
    assert np.linalg.norm(cart) == pytest.approx(math.sqrt(vr**2 + vp**2 + vz**2),
                                                 abs=1e-12)


def test_to_cartesian_axes():
    p = CylPoint(r=1.0, phi=0.0, z=0.0)
    ex = to_cartesian(p, CylVector(v_r=1.0 + 0j, v_phi=0j, v_z=0j))
    assert np.allclose(ex, [1.0, 0.0, 0.0])
    ey = to_cartesian(p, CylVector(v_r=0j, v_phi=1.0 + 0j, v_z=0j))
    assert np.allclose(ey, [0.0, 1.0, 0.0])
    q = CylPoint(r=1.0, phi=math.pi / 2.0, z=0.0)
    assert np.allclose(to_cartesian(q, CylVector(v_r=1.0 + 0j, v_phi=0j, v_z=0j)),
                       [0.0, 1.0, 0.0], atol=1e-15)
