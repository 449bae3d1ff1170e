"""Mode indexing, dispersion data, and spectrum enumeration."""

import functools
import math
import re
from collections import Counter

import numpy as np
import pytest

from cylcavity import (
    TE,
    TM,
    CavityGeometry,
    ModeIndex,
    bessel_j,
    bessel_prime_zero,
    bessel_zero,
    enumerate_modes,
    mode_data,
    quadrature_rule,
    zero_table,
)
import cylcavity.bessel as bessel
import cylcavity.spectrum as spectrum


def test_mode_data_tm(unit_geom):
    md = mode_data(unit_geom, ModeIndex(m=2, mu=3, n=1, sigma=TM))
    chi = bessel_zero(2, 3)
    assert md.chi == chi
    assert md.g == pytest.approx(chi / unit_geom.a, rel=1e-15)
    assert md.h == pytest.approx(math.pi / unit_geom.L, rel=1e-15)
    assert md.k == pytest.approx(math.hypot(md.g, md.h), rel=1e-15)
    assert md.omega == pytest.approx(unit_geom.c * md.k, rel=1e-15)
    assert md.alpha == pytest.approx(bessel_j(3, chi) ** 2, rel=1e-13)


def test_mode_data_te(unit_geom):
    md = mode_data(unit_geom, ModeIndex(m=2, mu=1, n=2, sigma=TE))
    chi = bessel_prime_zero(2, 1)
    assert md.chi == chi
    # alpha = (1 - m^2/chi^2) J_m(chi)^2 for the derivative-zero kind
    alpha = (1.0 - 4.0 / chi**2) * bessel_j(2, chi) ** 2
    assert md.alpha == pytest.approx(alpha, rel=1e-13)
    assert md.alpha > 0.0


def test_negative_m_same_dispersion(unit_geom):
    for sigma, n in ((TM, 0), (TE, 1)):
        plus = mode_data(unit_geom, ModeIndex(m=3, mu=2, n=n, sigma=sigma))
        minus = mode_data(unit_geom, ModeIndex(m=-3, mu=2, n=n, sigma=sigma))
        assert plus.omega == minus.omega
        assert plus.alpha == minus.alpha
        assert plus.c_norm == minus.c_norm


def test_normalization_constants(unit_geom):
    v = unit_geom.volume
    tm = mode_data(unit_geom, ModeIndex(m=1, mu=1, n=2, sigma=TM))
    expect = math.sqrt(2.0 * unit_geom.c**2 * unit_geom.a**2
                       / (v * tm.alpha * tm.chi**2 * tm.omega**2))
    assert tm.c_norm == pytest.approx(expect, rel=1e-14)
    te = mode_data(unit_geom, ModeIndex(m=1, mu=1, n=2, sigma=TE))
    expect = math.sqrt(2.0 * unit_geom.a**2 / (v * te.alpha * te.chi**2 * te.omega**2))
    assert te.c_norm == pytest.approx(expect, rel=1e-14)


def test_te_n0_rejected(unit_geom):
    with pytest.raises(ValueError):
        ModeIndex(m=0, mu=1, n=0, sigma=TE)


@pytest.mark.parametrize("kwargs", [
    dict(m=0, mu=0, n=0, sigma=TM),
    dict(m=0, mu=1, n=-1, sigma=TM),
    dict(m=0, mu=1, n=0, sigma=3),
    dict(m=0.5, mu=1, n=0, sigma=TM),
])
def test_bad_indices_rejected(kwargs):
    with pytest.raises(ValueError):
        ModeIndex(**kwargs)


@pytest.mark.parametrize("kind", [np.int64, np.int32])
def test_mode_index_stores_numpy_integers_as_ints(kind):
    plain = ModeIndex(m=-2, mu=3, n=1, sigma=TE)
    numpy_int = ModeIndex(m=kind(-2), mu=kind(3), n=kind(1), sigma=kind(TE))
    assert numpy_int == plain
    assert hash(numpy_int) == hash(plain)
    assert all(type(getattr(numpy_int, f)) is int for f in ("m", "mu", "n", "sigma"))


def test_integer_entry_points_reject_bools(unit_geom):
    calls = [lambda f=f: ModeIndex(**{**dict(m=1, mu=1, n=1, sigma=TM), f: True})
             for f in ("m", "mu", "n", "sigma")]
    calls += [lambda: bessel_zero(True, 1), lambda: bessel_zero(1, True),
              lambda: bessel_prime_zero(True, 1), lambda: bessel_prime_zero(1, True),
              lambda: zero_table(True, "j", 3), lambda: zero_table(1, "j", True),
              lambda: quadrature_rule(unit_geom, nr=4, nphi=True, nz=4)]
    for call in calls:
        with pytest.raises(ValueError, match="must be an? (positive |non-negative )?integer"):
            call()


def test_geometry_validation():
    with pytest.raises(ValueError):
        CavityGeometry(a=-1.0, L=1.0)
    with pytest.raises(ValueError):
        CavityGeometry(a=1.0, L=0.0)
    with pytest.raises(ValueError):
        CavityGeometry(a=1.0, L=1.0, c=float("inf"))


def test_geometry_stores_numpy_reals_as_floats_and_rejects_bools():
    geom = CavityGeometry(a=np.float32(0.9), L=np.float64(1.3), c=np.int64(2), eps0=1, hbar=1.0)
    assert (geom.a, geom.L, geom.c, geom.eps0) == (float(np.float32(0.9)), 1.3, 2.0, 1.0)
    assert all(type(getattr(geom, f)) is float for f in ("a", "L", "c", "eps0", "hbar"))
    assert geom == CavityGeometry(a=float(np.float32(0.9)), L=1.3, c=2.0, eps0=1.0, hbar=1.0)
    with pytest.raises(ValueError, match=r"CavityGeometry.a must be positive and finite, got -0.5"):
        CavityGeometry(a=np.float32(-0.5), L=1.0)
    for name in ("a", "L", "c", "eps0", "hbar"):
        for bad in (True, np.True_, "1.0", 1j):
            with pytest.raises(ValueError, match=f"CavityGeometry.{name} must be a real number"):
                CavityGeometry(**{"a": 1.0, "L": 1.0, name: bad})


@pytest.mark.parametrize("bad", [True, np.True_, "6.5", None, 1j])
def test_enumerate_modes_takes_a_real_cutoff(unit_geom, bad):
    # a bool is not the cutoff 1.0, and a string is a ValueError, not a TypeError
    with pytest.raises(ValueError, match=f"^omega_max must be a real number, got {re.escape(repr(bad))}$"):
        enumerate_modes(unit_geom, bad)


def test_enumeration_cutoff_and_order(unit_geom):
    modes = enumerate_modes(unit_geom, 6.5)
    assert len(modes) == 30
    omegas = [md.omega for md in modes]
    assert omegas == sorted(omegas)
    assert all(w <= 6.5 for w in omegas)
    # lowest mode: sigma=1, m=0, first radial zero, no axial variation
    first = modes[0].index
    assert (first.m, first.mu, first.n, first.sigma) == (0, 1, 0, TM)
    assert modes[0].omega == pytest.approx(bessel_zero(0, 1) / unit_geom.a, rel=1e-14)


def test_enumeration_contains_sign_pairs(unit_geom):
    modes = enumerate_modes(unit_geom, 6.5)
    keys = {(md.index.m, md.index.mu, md.index.n, md.index.sigma) for md in modes}
    for m, mu, n, sigma in keys:
        assert (-m, mu, n, sigma) in keys


_UNIT = CavityGeometry(a=0.9, L=1.3, c=1.0, eps0=1.0, hbar=1.0)    # the unit_geom fixture
_SI = CavityGeometry(a=0.012, L=0.03)                                # the si_geom fixture
_TALL = CavityGeometry(a=0.3, L=3.0, c=1.0, eps0=1.0, hbar=1.0)
_FLAT = CavityGeometry(a=1.0, L=0.2, c=1.0, eps0=1.0, hbar=1.0)


@functools.lru_cache(maxsize=None)
def _box_zeros():
    """chi of every (|m|, mu, sigma) with |m| <= 12, mu <= 11: the mu-th zero
    of J_|m| (TM) or of J_|m|' (TE), one table for every geometry."""
    return {(m, mu, sigma): (bessel_zero if sigma == TM else bessel_prime_zero)(m, mu)
            for sigma in (TM, TE) for m in range(13) for mu in range(1, 12)}


@functools.lru_cache(maxsize=None)
def _index_box(geom):
    """(m, mu, n, sigma) and omega of every index with |m| <= 12, mu <= 11,
    n <= 11, omega = c sqrt((chi/a)^2 + (n pi/L)^2) in closed form (hypot,
    so a mode's omega has the bits mode_data gives it)."""
    zeros = _box_zeros()
    return tuple(((m, mu, n, sigma), geom.c * math.hypot(zeros[abs(m), mu, sigma] / geom.a, n * math.pi / geom.L))
                 for sigma in (TM, TE) for m in range(-12, 13) for mu in range(1, 12)
                 for n in range(0 if sigma == TM else 1, 12))


# unit cavity cutoffs straddle the J' first-zero inversion: chi_max below
# j'_{1,1}, inside (j'_{1,1}, j'_{0,1}) where only m >= 1 prime zeros fit,
# and above; the others vary c, a and L so that n reaches its bound
# omega L/(pi c), and a ModeIndex cutoff sits exactly on that mode's omega
@pytest.mark.parametrize("geom,cutoff", [
    *(pytest.param(_UNIT, w, id=str(w)) for w in (1.5, 2.5, 3.2, 4.0, 7.0)),
    pytest.param(CavityGeometry(a=0.9, L=1.3, c=2.5, eps0=1.0, hbar=1.0), 17.5, id="c2.5"),
    pytest.param(_FLAT, 16.0, id="flat"),
    pytest.param(_FLAT, ModeIndex(1, 1, 1, TE), id="flat-at-TE(1,1,1)"),
    pytest.param(_TALL, 10.0, id="tall"),
    pytest.param(_TALL, ModeIndex(-1, 1, 9, TE), id="tall-at-TE(-1,1,9)"),
    pytest.param(_SI, 2.5 * _SI.c / _SI.a, id="si-2.5c/a"),
    pytest.param(_SI, 7.0 * _SI.c / _SI.a, id="si-7c/a"),
])
def test_enumeration_complete_against_brute_force(geom, cutoff):
    omega_max = mode_data(geom, cutoff).omega if isinstance(cutoff, ModeIndex) else cutoff
    modes = enumerate_modes(geom, omega_max)
    got = {(md.index.m, md.index.mu, md.index.n, md.index.sigma) for md in modes}
    box = _index_box(geom)
    expect = {index for index, omega in box if omega <= omega_max}
    assert got == expect
    if isinstance(cutoff, ModeIndex):
        assert (cutoff.m, cutoff.mu, cutoff.n, cutoff.sigma) in got
    # the box is large enough: every index on its outer faces is above the cutoff
    edge = [omega for (m, mu, n, _), omega in box if abs(m) == 12 or mu == 11 or n == 11]
    assert min(edge) > omega_max


@pytest.mark.parametrize("k", [5.0, 10.0, 15.0, 20.0])
def test_weyl_law_has_no_surface_term(unit_geom, k):
    # a perfectly conducting cavity has N(k) = V k^3 / (3 pi^2) + O(k)
    # (Balian & Duplantier 1977); a surface term S k^2 / (16 pi) would
    # reach ~99 at k = 20, far outside 1.5 k
    count = len(enumerate_modes(unit_geom, k))
    weyl = unit_geom.volume * k**3 / (3.0 * math.pi**2)
    assert abs(count - weyl) <= 1.5 * k


def test_lowest_te_pair_not_dropped_at_tight_cutoff(unit_geom):
    # regression: the scan over m must not stop at m = 0 when only the
    # m = 0 prime zero exceeds chi_max; TE(+-1, 1, 1) lies below this cutoff
    got = [(md.index.m, md.index.mu, md.index.n, md.index.sigma)
           for md in enumerate_modes(unit_geom, 4.0)]
    assert got == [(0, 1, 0, TM), (-1, 1, 1, TE), (1, 1, 1, TE), (0, 1, 1, TM)]


def test_degenerate_triplet_order(unit_geom):
    # TE(0, mu, n) and TM(+-1, mu, n) are exactly degenerate (J_0' = -J_1);
    # the tie breaks on sigma, then sign(m), and a cutoff at the shared
    # omega keeps all three
    modes = enumerate_modes(unit_geom, 12.0)
    pos = {md.index: i for i, md in enumerate(modes)}
    triplets = 0
    for md in modes:
        idx = md.index
        if idx.sigma != TE or idx.m != 0:
            continue
        trio = [ModeIndex(-1, idx.mu, idx.n, TM), ModeIndex(1, idx.mu, idx.n, TM), idx]
        i = pos[trio[0]]
        assert [m.index for m in modes[i:i + 3]] == trio
        assert modes[i].chi == modes[i + 1].chi == md.chi
        assert modes[i].omega == modes[i + 1].omega == md.omega
        assert [m.index for m in enumerate_modes(unit_geom, md.omega)[-3:]] == trio
        triplets += 1
    assert triplets >= 5


def test_enumeration_prefix_property(unit_geom):
    cuts = [2.0, 3.2, 4.0, 5.0, 6.5]
    lists = [[md.index for md in enumerate_modes(unit_geom, w)] for w in cuts]
    for small, large in zip(lists, lists[1:]):
        assert small == large[: len(small)]


def test_enumeration_scaling(unit_geom):
    lam = 2.5
    scaled = CavityGeometry(a=lam * unit_geom.a, L=lam * unit_geom.L,
                            c=1.0, eps0=1.0, hbar=1.0)
    base = enumerate_modes(unit_geom, 6.5)
    shrunk = enumerate_modes(scaled, 6.5 / lam)
    assert [md.index for md in base] == [md.index for md in shrunk]
    for b, s in zip(base, shrunk):
        assert s.omega == pytest.approx(b.omega / lam, rel=1e-13)


def test_si_geometry_lowest_mode(si_geom):
    # a/L = 0.4 makes the cavity tall enough that TE(+-1, 1, 1) undercuts
    # the flat TM(0, 1, 0) resonance
    omega_tm = si_geom.c * bessel_zero(0, 1) / si_geom.a
    omega_te = si_geom.c * math.hypot(
        bessel_prime_zero(1, 1) / si_geom.a, math.pi / si_geom.L)
    assert omega_te < omega_tm
    modes = enumerate_modes(si_geom, 1.05 * omega_tm)
    assert modes[0].index == ModeIndex(m=-1, mu=1, n=1, sigma=TE)
    assert modes[0].omega == pytest.approx(omega_te, rel=1e-14)
    flat = [md for md in modes if md.index == ModeIndex(m=0, mu=1, n=0, sigma=TM)]
    assert len(flat) == 1 and flat[0].omega == pytest.approx(omega_tm, rel=1e-14)


def test_empty_spectrum(unit_geom):
    assert enumerate_modes(unit_geom, 1.0) == []


def test_enumeration_rejects_bad_cutoff(unit_geom):
    with pytest.raises(ValueError):
        enumerate_modes(unit_geom, float("nan"))


def test_mode_data_is_hashable(unit_geom):
    md = mode_data(unit_geom, ModeIndex(m=0, mu=1, n=0, sigma=TM))
    assert md == mode_data(unit_geom, ModeIndex(m=0, mu=1, n=0, sigma=TM))
    assert len({md, md}) == 1


@pytest.mark.parametrize("omega_max", [6.0, 20.0])
def test_enumerate_modes_builds_at_most_one_candidate_above_the_cutoff(unit_geom, monkeypatch, omega_max):
    # n is bounded per radial quantum chi by h = n pi / L <= sqrt((omega/c)^2 - (chi/a)^2)
    built = []
    original = spectrum._modes
    monkeypatch.setattr(spectrum, "_modes", lambda geom, indices: built.extend(original(geom, indices)) or built)
    got = enumerate_modes(unit_geom, omega_max)
    above = Counter((md.index.sigma, md.index.m, md.index.mu) for md in built if md.omega > omega_max)
    assert got and max(above.values(), default=0) <= 1
    assert got == sorted((md for md in built if md.omega <= omega_max), key=spectrum._sort_key)


def test_a_warm_enumerate_modes_constructs_no_zero_cache_entry(unit_geom, monkeypatch):
    enumerate_modes(unit_geom, 6.0)
    made = []

    class Counted(bessel._Roots):
        def __init__(self, *key):
            made.append(key)
            super().__init__(*key)

    monkeypatch.setattr(bessel, "_Roots", Counted)
    assert len(enumerate_modes(unit_geom, 6.0)) == 20
    assert made == []
