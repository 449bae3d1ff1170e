"""Bessel evaluation and zero tables against independent references.

Reference values were computed once with mpmath at 40 significant
digits and frozen; the mpmath grid comparison reruns live.
"""

import hashlib
import math
import sys
import threading

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cylcavity.bessel as bessel
from cylcavity.bessel import (
    BesselZeroTable,
    _j_orders,
    _j_points,
    _newton_passes,
    _runs,
    _zero_tables,
    bessel_j,
    bessel_j_prime,
    bessel_prime_zero,
    bessel_zero,
    zero_table,
)
from oracles import bessel_zero_oracle

# mpmath besseljzero, 40 dps
J0_ZEROS = (2.404825557695773, 5.520078110286311, 8.653727912911013)
J1_ZERO_1 = 3.8317059702075125
JP1_ZERO_1 = 1.8411837813406593
JP0_ZERO_1 = 3.8317059702075125       # J_0' = -J_1, x = 0 not counted
J1_AT_J0_ZERO_1 = 0.51914749728946679


def test_frozen_zero_values():
    for mu, ref in enumerate(J0_ZEROS, start=1):
        assert bessel_zero(0, mu) == pytest.approx(ref, rel=1e-14)
    assert bessel_zero(1, 1) == pytest.approx(J1_ZERO_1, rel=1e-14)
    assert bessel_prime_zero(1, 1) == pytest.approx(JP1_ZERO_1, rel=1e-14)
    assert bessel_prime_zero(0, 1) == pytest.approx(JP0_ZERO_1, rel=1e-14)


def test_j0_prime_zeros_are_j1_zeros_bitwise():
    # J_0' = -J_1: TE(0, mu) and TM(+-1, mu) must share chi to the last bit
    for mu in range(1, 31):
        assert bessel_prime_zero(0, mu) == bessel_zero(1, mu)


# sha256 of the float64 (little-endian) bytes of zero_table(m, kind, 30).zeros
# for m = 0..40, kind "j" then "jprime" per m, computed with the per-order
# zero finder that scanned and refined each (m, kind) on its own
ZERO_TABLE_DIGEST = "955cce35eef7485640cecbb4bdbd4e7035e29310f41a61eee5190b4d396af8f4"


def test_zero_tables_match_frozen_digest():
    digest = hashlib.sha256()
    for m in range(41):
        for kind in ("j", "jprime"):
            digest.update(np.asarray(zero_table(m, kind, 30).zeros, dtype="<f8").tobytes())
    assert digest.hexdigest() == ZERO_TABLE_DIGEST


def test_zero_does_not_depend_on_how_many_were_requested(monkeypatch):
    # a table grown one zero per request, mu by mu, from an empty cache has
    # the bits of a table of 24 built in one request from an empty cache
    for m in range(41):
        for kind, zero in (("j", bessel_zero), ("jprime", bessel_prime_zero)):
            monkeypatch.setattr(bessel, "_ROOTS", {})
            grown = [zero(m, mu) for mu in range(1, 25)]
            monkeypatch.setattr(bessel, "_ROOTS", {})
            table = zero_table(m, kind, 24).zeros
            assert [v.hex() for v in grown] == [v.hex() for v in table], (m, kind)


def _alone(key, count, monkeypatch):
    monkeypatch.setattr(bessel, "_ROOTS", {})
    return zero_table(*key, count).zeros, _newton_passes(*key, count)


def test_pooled_zeros_equal_zeros_requested_alone(monkeypatch):
    monkeypatch.setattr(bessel, "_ROOTS", {})
    counts = {(m, kind): 3 + m % 11 for m in range(0, 61, 3) for kind in ("j", "jprime")}
    pooled = _zero_tables(counts)
    passes = {key: _newton_passes(*key, count) for key, count in counts.items()}
    for key, count in counts.items():
        zeros, alone_passes = _alone(key, count, monkeypatch)
        assert [v.hex() for v in pooled[key][:count]] == [v.hex() for v in zeros], key
        assert passes[key] == alone_passes, key


def test_zeros_below_a_bound_equal_zeros_requested_alone(monkeypatch):
    monkeypatch.setattr(bessel, "_ROOTS", {})
    chi_max = 27.5
    below = _zero_tables({(m, kind): 0 for m in range(28) for kind in ("j", "jprime")}, chi_max)
    for (m, kind), found in below.items():
        count = sum(v <= chi_max for v in found)
        zeros, _ = _alone((m, kind), count + 1, monkeypatch)
        assert zeros[count] > chi_max, (m, kind)        # none below the bound is missing
        assert [v.hex() for v in found[:count]] == [v.hex() for v in zeros[:count]], (m, kind)


def test_zero_cache_survives_threads(monkeypatch):
    # more threads than cores growing the same tables by different amounts;
    # a lost update would repeat or drop a scan cell or a zero
    want = {key: zero_table(*key, 24).zeros for key in ((3, "j"), (3, "jprime"), (8, "j"))}
    monkeypatch.setattr(bessel, "_ROOTS", {})
    errors = []

    def work(k):
        try:
            for count in range(1 + k % 3, 25, 3):
                for key, zeros in want.items():
                    assert zero_table(*key, count).zeros == zeros[:count]
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
    for roots in bessel._ROOTS.values():
        assert len(roots.zeros) == len(roots.cells) == len(set(roots.cells))
        assert roots.cells == sorted(roots.cells)


def test_newton_passes_are_recorded_per_zero():
    passes = _newton_passes(7, "jprime", 10)
    assert len(passes) == 10
    assert all(1 <= p <= 8 for p in passes)
    assert _newton_passes(0, "jprime", 10) == _newton_passes(1, "j", 10)


def test_value_at_first_zero_of_j0():
    assert bessel_j(1, J0_ZEROS[0]) == pytest.approx(J1_AT_J0_ZERO_1, rel=1e-13)


def test_small_argument_limits():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(1, 0.0) == 0.0
    assert bessel_j(7, 0.0) == 0.0
    # leading series term J_m(x) ~ (x/2)^m / m!
    x = 1e-8
    assert bessel_j(3, x) == pytest.approx((x / 2.0) ** 3 / 6.0, rel=1e-10)


def test_against_mpmath_grid():
    mpmath.mp.dps = 40
    orders = (0, 1, 2, 3, 5, 8, 13, 21, 34)
    xs = (1e-8, 0.1, 0.5, 1.0, 2.0, 3.7, 5.0, 7.3, 10.0, 14.0, 20.0,
          28.9, 40.0, 60.0, 85.0, 120.0, 185.6, 300.0)
    worst = 0.0
    for m in orders:
        got = bessel_j(m, np.array(xs))
        for x, num in zip(xs, got):
            ref = float(mpmath.besselj(m, mpmath.mpf(x)))
            # the oscillation envelope sets the meaningful error floor
            env = max(abs(ref), math.sqrt(2.0 / (math.pi * (x + 1.0))))
            worst = max(worst, abs(num - ref) / env)
    assert worst < 5e-13


def test_negative_order_reflection(rng):
    x = rng.uniform(0.0, 40.0, size=64)
    for m in (1, 2, 5, 8):
        expect = (-1.0) ** m * bessel_j(m, x)
        assert np.array_equal(bessel_j(-m, x), expect)


def test_derivative_matches_finite_difference(rng):
    x = rng.uniform(0.5, 60.0, size=48)
    h = 1e-6
    for m in (0, 1, 4, 9):
        fd = (bessel_j(m, x + h) - bessel_j(m, x - h)) / (2.0 * h)
        assert np.allclose(bessel_j_prime(m, x), fd, rtol=0.0, atol=5e-9)


def _envelope(ref, x):
    return np.maximum(np.abs(ref), np.sqrt(2.0 / (math.pi * (x + 1.0))))


@pytest.mark.parametrize("m", [0, 1, 2, 5, 13, 40, 100, -1, -2, -13, -100])
def test_derivative_against_mpmath_at_branch_thresholds(m):
    # J_{m-1} and J_{m+1} share one sweep, so each may sit on either side
    # of the Miller / Hankel threshold of the other order; x = 5 and
    # x^2 = 4(m+1) probe the small-argument side of the recurrence
    ma = abs(m)
    centres = (5.0, 2.0 * math.sqrt(ma + 1.0), max(30.0, 0.5 * ma * ma))
    x = np.array([c + d for c in centres for d in (-0.3, 0.0, 0.3)])
    with mpmath.workdps(40):
        ref = np.array([float(mpmath.besselj(m, mpmath.mpf(v), derivative=1)) for v in x])
    err = np.abs(bessel_j_prime(m, x) - ref) / _envelope(ref, x)
    assert np.max(err) <= 1e-12


@pytest.mark.parametrize("m", [0, 1, -1, 2, 5, 13, 40, 100])
def test_tiny_and_zero_arguments_against_mpmath(m):
    # the leading-term rule: no overflow, NaN or stray floating-point
    # exception down to the smallest subnormal, and x = 0 exact
    xs = (0.0, 5e-324, 1e-300, 1e-200, 1e-50, 1e-20, 1e-8, 1e-4)
    with np.errstate(all="raise"):
        got = bessel_j(m, np.array(xs))
        alone = [bessel_j(m, x) for x in xs]
    assert np.array_equal(got, alone)
    with mpmath.workdps(40):
        refs = [float(mpmath.besselj(m, mpmath.mpf(x))) for x in xs]
    for x, num, ref in zip(xs, got, refs):
        if abs(ref) >= np.finfo(float).tiny:
            assert abs(num - ref) <= 1e-14 * abs(ref), (m, x, num, ref)
        else:
            assert num == 0.0 or num == ref, (m, x, num, ref)


def _threshold(m):
    return max(30.0, 0.5 * m * m)


@st.composite
def _order_and_batch(draw):
    m = draw(st.integers(min_value=-60, max_value=60))
    top = _threshold(m)
    near = st.floats(min_value=top - 2.0, max_value=top + 2.0)
    x = draw(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.5 * top), near))
    batch = draw(st.lists(st.one_of(st.floats(min_value=0.0, max_value=1.5 * top), near),
                          min_size=1, max_size=40))
    return m, x, [0.0, *batch[: len(batch) // 2], x, *batch[len(batch) // 2:]]


@settings(max_examples=150, deadline=None)
@given(_order_and_batch())
def test_value_does_not_depend_on_the_rest_of_the_call(case):
    m, x, batch = case
    i = batch.index(x, 1) if x != 0.0 else 0
    assert bessel_j(m, np.array(batch))[i] == bessel_j(m, x)
    assert bessel_j_prime(m, np.array(batch))[i] == bessel_j_prime(m, x)


@st.composite
def _mixed_orders(draw):
    # per point: an order and an x in one regime of its three orders: the
    # leading term, Miller (from far below the turning point, where the
    # sweep rescales, up to the Hankel threshold), or across that threshold
    points = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        m = draw(st.integers(min_value=-100, max_value=100))
        top = _threshold(abs(m) + 1)
        x = draw(st.one_of(
            st.just(0.0),
            st.floats(min_value=0.0, max_value=1e-7),
            st.floats(min_value=1e-3, max_value=0.5 * max(abs(m), 1)),
            st.floats(min_value=0.0, max_value=min(top, 120.0)),
            st.floats(min_value=_threshold(m) - 2.0, max_value=top + 2.0),
            st.floats(min_value=top, max_value=4.0 * top),
        ))
        points.append((m, x))
    return points


@settings(max_examples=60, deadline=None)
@given(_mixed_orders())
def test_per_point_orders_equal_one_point_calls(points):
    m = np.array([p[0] for p in points])
    x = np.array([p[1] for p in points])
    got = _j_points(np.stack([m - 1, m, m + 1]), x)
    for i, (mi, xi) in enumerate(points):
        alone = np.array(_j_orders((mi - 1, mi, mi + 1), xi))
        assert got[:, i].tobytes() == alone.tobytes(), (mi, xi)


@settings(max_examples=120, deadline=None)
@given(m=st.integers(min_value=-100, max_value=100),
       d=st.floats(min_value=-2.0, max_value=2.0))
def test_against_mpmath_across_hankel_threshold(m, d):
    x = _threshold(m) + d
    with mpmath.workdps(40):
        ref = float(mpmath.besselj(m, mpmath.mpf(x)))
        dref = float(mpmath.besselj(m, mpmath.mpf(x), derivative=1))
    assert abs(bessel_j(m, x) - ref) <= 1e-12 * _envelope(ref, x)
    assert abs(bessel_j_prime(m, x) - dref) <= 1e-12 * _envelope(dref, x)


@pytest.mark.parametrize("m", [4, 9, 10, 12, 20, 24])
def test_zero_tables_within_a_few_ulp_of_mpmath(m):
    # Newton stops once its step no longer moves x, not by bisecting away
    # from a zero it has already found
    with mpmath.workdps(40):
        for kind, derivative in (("j", 0), ("jprime", 1)):
            ref = np.array([float(mpmath.besseljzero(m, mu, derivative=derivative))
                            for mu in range(1, 13)])
            got = np.asarray(zero_table(m, kind, 12).zeros)
            assert np.max(np.abs(got - ref) / np.spacing(ref)) <= 3.0, kind


def test_zero_tables_against_scipy():
    special = pytest.importorskip("scipy.special")
    worst = 0.0
    for m in (*range(21), 30, 45, 60, 75, 90, 100):
        for kind, ref in (("j", special.jn_zeros(m, 20)), ("jprime", special.jnp_zeros(m, 20))):
            got = np.asarray(zero_table(m, kind, 20).zeros)
            worst = max(worst, float(np.max(np.abs(got - ref) / ref)))
    assert worst <= 1e-13


def test_values_against_scipy():
    # x stays <= 200: far out (x ~ 4000) scipy itself is the less accurate side
    special = pytest.importorskip("scipy.special")
    x = np.concatenate([np.linspace(0.0, 40.0, 801), np.linspace(40.0, 200.0, 321)])
    worst = 0.0
    for m in (*range(-5, 31), 40, 60, 100):
        for got, ref in ((bessel_j(m, x), special.jv(m, x)),
                         (bessel_j_prime(m, x), special.jvp(m, x))):
            worst = max(worst, float(np.max(np.abs(got - ref) / _envelope(ref, x))))
    assert worst <= 1e-12


@settings(max_examples=150, deadline=None)
@given(m=st.integers(min_value=1, max_value=30),
       x=st.floats(min_value=0.5, max_value=200.0))
def test_three_term_recurrence(m, x):
    lhs = bessel_j(m - 1, x) + bessel_j(m + 1, x)
    rhs = 2.0 * m / x * bessel_j(m, x)
    env = math.sqrt(2.0 / (math.pi * x)) * max(1.0, 2.0 * m / x)
    assert abs(lhs - rhs) < 1e-12 * env + 1e-300


@settings(max_examples=60, deadline=None)
@given(m=st.integers(min_value=0, max_value=25))
def test_zero_interlacing(m):
    lower = np.asarray(zero_table(m, "j", 6).zeros)
    upper = np.asarray(zero_table(m + 1, "j", 6).zeros)
    assert np.all(lower < upper)
    assert np.all(upper[:-1] < lower[1:])


@settings(max_examples=40, deadline=None)
@given(m=st.integers(min_value=1, max_value=25))
def test_prime_zero_below_zero(m):
    # J_m' vanishes before J_m does on every oscillation
    jp = np.asarray(zero_table(m, "jprime", 5).zeros)
    j = np.asarray(zero_table(m, "j", 5).zeros)
    assert np.all(jp < j)
    assert np.all(j[:-1] < jp[1:])


@pytest.mark.parametrize("m,kind", [(0, "j"), (3, "j"), (11, "j"),
                                    (0, "jprime"), (3, "jprime"), (11, "jprime")])
def test_zeros_match_bisection_oracle(m, kind):
    table = zero_table(m, kind, 12)
    oracle = bessel_zero_oracle(m, kind, 12)
    assert np.max(np.abs(np.asarray(table.zeros) - oracle)) < 1e-12


@pytest.mark.parametrize("m,kind", [(0, "j"), (1, "j"), (4, "j"),
                                    (0, "jprime"), (2, "jprime"), (5, "jprime")])
def test_radial_orthogonality(m, kind):
    # int_0^1 x J_m(chi_i x) J_m(chi_j x) dx = delta_ij alpha/2 with
    # alpha = J_{m+1}(chi)^2 for J_m zeros and (1 - m^2/chi^2) J_m(chi)^2
    # for J_m' zeros
    chis = np.asarray(zero_table(m, kind, 4).zeros)
    nodes, weights = np.polynomial.legendre.leggauss(200)
    x = 0.5 * (nodes + 1.0)
    w = 0.5 * weights * x
    for i, ci in enumerate(chis):
        fi = bessel_j(m, ci * x)
        for j, cj in enumerate(chis):
            integral = float(np.sum(w * fi * bessel_j(m, cj * x)))
            if i != j:
                assert abs(integral) < 1e-13
                continue
            if kind == "j":
                alpha = bessel_j(m + 1, ci) ** 2
            else:
                alpha = (1.0 - m * m / (ci * ci)) * bessel_j(m, ci) ** 2
            assert integral == pytest.approx(0.5 * alpha, rel=1e-12)


def test_alpha_normalizer_frozen_value():
    # J_1(j_{0,1})^2, mpmath 40 dps
    assert bessel_j(1, bessel_zero(0, 1)) ** 2 == pytest.approx(0.2695141239419169, rel=1e-13)


def test_zero_table_residuals_and_order():
    for m in (0, 2, 7):
        for kind in ("j", "jprime"):
            table = zero_table(m, kind, 10)
            zeros = np.asarray(table.zeros)
            assert np.all(np.diff(zeros) > 0)
            f = bessel_j if kind == "j" else bessel_j_prime
            assert np.max(np.abs(f(m, zeros))) < 1e-12


def test_zero_table_getitem_is_one_based():
    table = zero_table(0, "j", 3)
    assert table[1] == bessel_zero(0, 1)
    assert table[3] == bessel_zero(0, 3)
    assert len(table) == 3
    with pytest.raises(IndexError):
        table[0]
    with pytest.raises(IndexError):
        table[4]


def test_zero_table_rejects_wrong_zeros():
    with pytest.raises(ValueError):
        BesselZeroTable(m=0, kind="j", zeros=(2.5, 5.52))
    with pytest.raises(ValueError):
        BesselZeroTable(m=0, kind="j", zeros=(5.52, 2.404825557695773))


@pytest.mark.parametrize("call", [
    lambda: bessel_zero(-1, 1),
    lambda: bessel_zero(0, 0),
    lambda: bessel_prime_zero(2, -3),
    lambda: zero_table(0, "weird", 4),
    lambda: zero_table(0, "j", 0),
    lambda: bessel_j(0, -1.0),
    lambda: bessel_j(0, float("nan")),
    lambda: zero_table(0, "j", True),
    lambda: bessel_j(1.5, 2.0),           # J_{3/2}(2) = 0.4913, not J_1(2)
    lambda: bessel_j_prime(2.7, 1.0),
    lambda: bessel_j("3", 2.0),
    lambda: bessel_j(True, 2.0),
    lambda: BesselZeroTable(m=0, kind="weird", zeros=()),
    lambda: BesselZeroTable(m=2.5, kind="j", zeros=(bessel_zero(2, 1),)),   # not certified as J_2's
    lambda: BesselZeroTable(m=-2, kind="j", zeros=(bessel_zero(2, 1),)),
])
def test_invalid_inputs_raise(call):
    with pytest.raises(ValueError):
        call()


def test_order_accepts_numpy_integers_of_any_sign():
    for m in (-3, 0, 4):
        assert bessel_j(np.int64(m), 2.0) == bessel_j(m, 2.0)
        assert bessel_j_prime(np.int32(m), 2.0) == bessel_j_prime(m, 2.0)


def test_runs_group_keys_in_ascending_order_and_stable_order():
    order, runs = _runs(np.array([], dtype=int))
    assert order.size == 0 and runs == []      # no keys give no run, not one run (0, 0)
    keys = np.array([2, -1, 2, 0, -1, 2])
    order, runs = _runs(keys)
    assert order.tolist() == [1, 4, 3, 0, 2, 5] and runs == [(0, 2), (2, 3), (3, 6)]
    assert all(type(v) is int for run in runs for v in run)
    # many repeats of a few keys: an unstable sort mixes the order within a run
    keys = np.random.default_rng(1).integers(-3, 4, size=500)
    order, runs = _runs(keys)
    assert [int(keys[order[lo]]) for lo, _ in runs] == sorted(set(keys.tolist()))
    assert [hi - lo for lo, hi in runs] == np.bincount(keys + 3).tolist()
    for lo, hi in runs:
        assert order[lo:hi].tolist() == np.flatnonzero(keys == keys[order[lo]]).tolist()
