"""The mirror rule m -> -m: each pair of mirror classes summed once, and each
mirror class of wall figures evaluated once.

A mode and its -m partner read the same rows of every table of
modefield._tables; only the signs of s differ (modefield._flips).  So in a
mode set closed under m -> -m, verify._blocks sums the classes q <= -q mod
nphi and _class_blocks gives class -q the block of class q with per-entry
signs, and a partner's wall moduli are its mode's.  Each test here compares
one of those shortcuts with the direct computation, bit for bit.
"""

import dataclasses
import gc
import inspect
import re
import tracemalloc
import weakref

import numpy as np
import pytest

import cylcavity.modefield as modefield
import cylcavity.verify as verify
from cylcavity import (
    TE,
    ModeIndex,
    check_boundary,
    check_vector_orthonormality,
    default_rule,
    enumerate_modes,
    mode_data,
    quadrature_rule,
    wall_samples,
)
from cylcavity.modefield import _CURL, _PSI, _U, _mirror, _reads, _tables
from cylcavity.verify import (_MIRROR_PAIRS, DEFAULT_NR, DEFAULT_NZ, _class_blocks, _curl_figures, _curl_row, _gram,
                              _gram_figures, _gram_row, _run_suites, _walls)
from oracles import class_sum, masked_gram

_TOLERANCES = {"gram_tol": 1e-8, "curl_rel_tol": 1e-8, "curl_abs_tol": 1e-12,
               "boundary_tol": 1e-10, "bessel_tol": 1e-12}


def _classes(modes, nphi):
    """Each m class (m mod nphi) of modes: its positions, in stable order."""
    q = np.array([md.index.m for md in modes]) % nphi
    return {c: np.flatnonzero(q == c) for c in sorted(set(q.tolist()))}


# ------------------------------------------------------------ the mirror rule

def test_partners_are_the_minus_m_modes_with_the_flipped_rows(unit_geom):
    modes = enumerate_modes(unit_geom, 20.0)
    partner, flip = _mirror(modes)
    m = np.array([md.index.m for md in modes])
    assert np.array_equal(partner[partner], np.arange(len(modes))) and np.array_equal(m[partner], -m)
    assert all(_reads(modes[j]) == _reads(md) for md, j in zip(modes, partner.tolist()))
    assert np.array_equal(partner[m == 0], np.flatnonzero(m == 0))
    # a partner's rows are the mode's table rows, s negated where flip says
    s, c, radial, r_at, axial, z_at = _tables(modes, np.linspace(0.0, unit_geom.a, 7), np.linspace(0.0, unit_geom.L, 5))
    assert np.array_equal(flip[:, partner], flip) and np.array_equal(c[partner], c)
    assert np.array_equal(r_at[:, partner], r_at) and np.array_equal(z_at[:, partner], z_at)
    assert s[:, partner].tobytes() == np.where(flip, -s, s).tobytes()
    # the rows of a row set flip together, mode by mode: relative to the first
    # row, each row flips alike for every mode with m != 0 whose s it holds
    for rows in (_PSI, _U, _CURL):
        relative, held = flip[rows] != flip[rows.start], (s[rows] != 0.0) & (m != 0)
        assert all(len(set(relative[k][held[k]].tolist())) == 1 for k in range(len(relative))), rows


def test_a_set_is_closed_only_when_every_mode_has_exactly_one_partner(unit_geom):
    modes = enumerate_modes(unit_geom, 6.5)
    assert _mirror(modes)[0] is not None and _mirror(())[0].size == 0
    assert modes[1].index.m != 0 and _mirror(modes[:1] + modes[2:])[0] is None
    assert _mirror(modes + modes[1:3])[0] is None       # a repeated pair
    at_zero = [md for md in modes if md.index.m == 0]
    assert np.array_equal(_mirror(at_zero)[0], np.arange(len(at_zero)))
    # equal in all that _tables reads but c_norm, or but g, is no partner
    plus = mode_data(unit_geom, ModeIndex(m=1, mu=1, n=1, sigma=TE))
    minus = mode_data(unit_geom, ModeIndex(m=-1, mu=1, n=1, sigma=TE))
    assert _mirror((plus, minus))[0].tolist() == [1, 0]
    for off in (dataclasses.replace(minus, c_norm=minus.c_norm * (1.0 + 2.0**-52)),
                dataclasses.replace(minus, g=np.nextafter(minus.g, 0.0))):
        assert _mirror((plus, off))[0] is None


# ------------------------------------------------------------------- Grams

@pytest.mark.parametrize("omega_max", [20.0, 40.0])
@pytest.mark.parametrize("nphi", [0, 7])
def test_mirror_blocks_and_suite_figures_have_the_bits_of_the_direct_sums(unit_geom, omega_max, nphi, monkeypatch):
    # the default nphi resolves every m difference; nphi = 7 aliases m and
    # m +- 7 into one class, so class 3 holds m = 3 and m = -4 and mirrors
    # class 4.  _blocks sums the classes by size, then class, leaving out the
    # mirrors -q of the classes q of more than _MIRROR_PAIRS pairs, and
    # _class_blocks gives each mirror right after its class.  Every class,
    # summed or mirrored, has the bits of its direct complex sum, and the
    # verify suites' figures are those of every class's direct sum
    modes = enumerate_modes(unit_geom, omega_max)
    if nphi:
        monkeypatch.setattr(verify, "default_rule",
                            lambda geom, modes, nr, nz: quadrature_rule(geom, nr=nr, nphi=nphi, nz=nz))
    rule = verify.default_rule(unit_geom, modes, nr=DEFAULT_NR, nz=DEFAULT_NZ)
    classes = _classes(modes, rule.nphi)
    mirrored = {c for c, idx in classes.items() if c > -c % rule.nphi and len(idx) ** 2 > _MIRROR_PAIRS}
    assert 0 < len(mirrored) < len(classes) / 2
    summed = sorted(set(classes) - mirrored, key=lambda c: (len(classes[c]), c))
    assert [int(modes[idx[0]].index.m % rule.nphi) for idx, _ in verify._blocks(modes, rule, _U)] == summed
    direct, ksq = class_sum(modes, rule, _U, _CURL), np.array([md.k**2 for md in modes])
    seen, gram_rows, curl_rows = [], [], []
    for idx, blocks in _class_blocks(modes, rule, _U, _CURL):
        c = int(modes[idx[0]].index.m % rule.nphi)
        assert sorted(idx.tolist()) == classes[c].tolist() and (c not in mirrored or seen[-1] == -c % rule.nphi)
        seen.append(c)
        want = direct(idx)
        for block, ref in zip(blocks, want, strict=True):
            assert block.dtype == np.float64 and block.astype(complex).tobytes() == ref.tobytes(), c
        u, curl = want
        gram_rows.append(_gram_row(u))
        curl_rows.append(_curl_row(curl, u * ksq[idx], _TOLERANCES["curl_rel_tol"], _TOLERANCES["curl_abs_tol"]))
    assert sorted(seen) == sorted(classes)
    got = _run_suites(unit_geom, omega_max, ("gram", "curl"), DEFAULT_NR, DEFAULT_NZ, _TOLERANCES)["suites"]
    for suite, want in (("gram", _gram_figures(gram_rows)), ("curl", _curl_figures(curl_rows))):
        for key, value in want.items():
            if key != "max_deviation":
                assert repr(got[suite][key]) == repr(value), (suite, key)


@pytest.mark.parametrize("nphi", [0, 7])
def test_a_set_not_closed_under_m_to_minus_m_sums_every_class(unit_geom, nphi):
    # without TE(-1,1,1) the modes up to omega 12 have no mirror rule: every
    # class is summed, with the bits of the masked sum over all pairs
    modes = enumerate_modes(unit_geom, 12.0)
    open_set = [md for md in modes if md.index != ModeIndex(m=-1, mu=1, n=1, sigma=TE)]
    assert len(open_set) == len(modes) - 1 and _mirror(open_set)[0] is None
    rule = quadrature_rule(unit_geom, nr=20, nphi=nphi or verify.default_nphi(open_set), nz=14)
    got = list(verify._blocks(open_set, rule, _U))
    assert sorted(idx.tolist() for idx, _ in got) == sorted(idx.tolist() for idx in _classes(open_set, rule.nphi).values())
    m = np.array([md.index.m for md in open_set])
    same = (m[:, None] - m[None, :]) % rule.nphi == 0
    for rows in ((_PSI,), (_U,), (_CURL,), (_U, _CURL)):
        for gram, want in zip(_gram(open_set, rule, *rows), masked_gram(open_set, rule, *rows), strict=True):
            assert gram[same].tobytes() == want[same].tobytes() and not np.any(gram[~same].view(np.uint64)), rows


@pytest.mark.parametrize("row", [2, 1])
def test_a_row_neither_real_nor_imaginary_is_named_with_its_mode(unit_geom, monkeypatch, row):
    # u_phi is imaginary and u_r real for every mode: give mode 7 a real part
    # in u_phi, or make its u_r imaginary
    modes = enumerate_modes(unit_geom, 6.5)
    rule = default_rule(unit_geom, modes)
    original = verify._tables

    def skewed(modes, r, z):
        s, *rest = original(modes, r, z)
        s = s.copy()
        s[row, 7] = s[row, 7] + 1.0 if row == 2 else 1j * s[row, 7]
        return (s, *rest)

    monkeypatch.setattr(verify, "_tables", skewed)
    name = ("u_phi", "u_r")[row == 1]
    with pytest.raises(ValueError, match=rf"^row {name} of mode {re.escape(str(modes[7].index))} has s = "
                                         r".*: a row of s must be purely real or purely imaginary"):
        check_vector_orthonormality(modes, rule)


def _mirror_bytes() -> int:
    """Bytes traced now whose allocation ran a line of modefield._mirror."""
    lines, first = inspect.getsourcelines(_mirror)
    where = (modefield.__file__, range(first, first + len(lines)))
    return sum(t.size for t in tracemalloc.take_snapshot().traces
               if any((f.filename, f.lineno in where[1]) == (where[0], True) for f in t.traceback))


@pytest.mark.parametrize("walk", ["gram", "suites"])
def test_the_mirror_a_walk_reads_is_released_when_it_ends(unit_geom, walk):
    # at omega <= 20 the largest class is above _MIRROR_PAIRS, so the walk
    # pairs the modes, and _class_blocks reads that pairing again during it;
    # once the walk ends it keeps neither the pairing nor the modes alive
    tracemalloc.start(4)
    try:
        _mirror(enumerate_modes(unit_geom, 6.5))       # numpy's own caches, which stay, fill here
        modefield._MIRRORED.clear()
        before = _mirror_bytes()
        modes = enumerate_modes(unit_geom, 20.0)
        rule = default_rule(unit_geom, modes)
        blocks = _class_blocks(modes, rule, _U) if walk == "gram" else verify._blocks(modes, rule, _U, _CURL)
        idx, _ = next(blocks)
        held = _mirror_bytes() - before
        assert modefield._MIRRORED and held > 16 * len(modes)      # partner, flip and the modes' tuple
        assert max(len(idx) for idx, _ in blocks) ** 2 > _MIRROR_PAIRS
        assert not modefield._MIRRORED
        alive = weakref.ref(modes[0])
        del modes, blocks
        gc.collect()
        assert alive() is None and _mirror_bytes() - before < held / 10     # numpy's caches may grow a little
    finally:
        tracemalloc.stop()


# ------------------------------------------------------------------- walls

@pytest.fixture
def wall_calls(monkeypatch):
    """The modes of each _walls call, with no earlier check kept."""
    verify._LAST_WALLS.clear()
    calls, original = [], verify._walls
    monkeypatch.setattr(verify, "_walls", lambda modes, samples=None: calls.append(modes) or original(modes, samples))
    yield calls
    verify._LAST_WALLS.clear()


def _figures(rep):
    return np.array([rep.max_tangential_u, rep.max_normal_curl, rep.interior_max_u, rep.interior_max_curl])


def test_a_partner_checked_next_takes_the_figures_of_a_fresh_evaluation(unit_geom, wall_calls):
    # the 20 modes of the certify op hold 8 pairs, -m listed just before +m
    modes = enumerate_modes(unit_geom, 6.0)[:20]
    pairs = [(a, b) for a, b in zip(modes, modes[1:]) if a.index.m and dataclasses.replace(a.index, m=-a.index.m) == b.index]
    assert len(pairs) == 8
    for minus, plus in pairs:
        for first, second in ((minus, plus), (plus, minus)):
            verify._LAST_WALLS.clear()
            wall_calls.clear()
            check_boundary(first)
            rep = check_boundary(second)
            assert wall_calls == [(first,)] and rep.mode is second
            assert _figures(rep).tobytes() == verify._walls((second,))[:, 0].tobytes()


def test_a_mode_that_differs_in_what_tables_read_is_evaluated(unit_geom, wall_calls):
    # equal to TE(-1,1,1) but in c_norm, or but in g: no reuse of TE(1,1,1)'s figures
    plus = mode_data(unit_geom, ModeIndex(m=1, mu=1, n=1, sigma=TE))
    minus = mode_data(unit_geom, ModeIndex(m=-1, mu=1, n=1, sigma=TE))
    for off in (dataclasses.replace(minus, c_norm=minus.c_norm * (1.0 + 2.0**-52)),
                dataclasses.replace(minus, g=np.nextafter(minus.g, 0.0))):
        check_boundary(plus)
        wall_calls.clear()
        rep = check_boundary(off)
        assert wall_calls == [(off,)]
        assert _figures(rep).tobytes() == verify._walls((off,))[:, 0].tobytes()


def test_explicit_samples_are_evaluated_on_every_call(unit_geom, wall_calls):
    plus = mode_data(unit_geom, ModeIndex(m=1, mu=1, n=1, sigma=TE))
    minus = mode_data(unit_geom, ModeIndex(m=-1, mu=1, n=1, sigma=TE))
    samples = wall_samples(unit_geom)
    for md in (plus, plus, minus):
        check_boundary(md, samples)
    assert [modes for modes, in wall_calls] == [plus, plus, minus]
    check_boundary(plus)
    check_boundary(minus, samples)
    assert wall_calls[-2:] == [(plus,), (minus,)]


def test_walls_evaluate_each_mirror_class_once_with_the_bits_of_one_mode_checks(unit_geom, monkeypatch):
    modes = tuple(enumerate_modes(unit_geom, 20.0))
    assert len(modes) == 878
    want = np.array([_walls((md,))[:, 0] for md in modes]).T
    evaluated, original = [], verify._tables
    monkeypatch.setattr(verify, "_tables", lambda modes, r, z: evaluated.extend(modes) or original(modes, r, z))
    got = _walls(modes)
    classes = {_reads(md) for md in modes}
    assert len(evaluated) == len(classes) < 0.6 * len(modes) and {_reads(md) for md in evaluated} == classes
    assert got.shape == (4, len(modes)) and got.tobytes() == want.tobytes()
