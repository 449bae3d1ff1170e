"""default_rule sizes nr and nz from the modes' largest chi = g a and n = h L / pi.

Each pair sum is a product of a radial and an axial 1-D table Gram, so the
derived sizes are checked one axis at a time against independent values:
the axial table Gram against its closed form (elementary integrals), the
radial table Gram against a rule 1.5 times finer and its J rows against
Lommel's integrals through mpmath.  All are 1-D: no 3-D Gram is formed.
"""

import functools
import math

import numpy as np
import pytest

from cylcavity import TE, TM, CavityGeometry, ModeIndex, default_rule, enumerate_modes, mode_data, quadrature_rule
from cylcavity.modefield import _radial, _tables
from cylcavity.verify import default_nphi
from oracles import axial_closed_form, lommel_gram

GEOM = CavityGeometry(a=0.9, L=1.3, c=1.0, eps0=1.0, hbar=1.0)
# cutoff -> the derived (nr, nz) on GEOM; the largest chi and n are 5.52 / 2,
# 17.96 / 8, 35.87 / 16 and 71.89 / 33
SIZES = {6.5: (20, 20), 20.0: (28, 32), 40.0: (40, 48), 80.0: (64, 82)}


@functools.lru_cache(maxsize=None)
def _modes(omega_max):
    return tuple(enumerate_modes(GEOM, omega_max))


def _axial_error(modes, nz: int) -> float:
    """max |G - G_exact| / (L/2) of the axial table Gram of _tables on nz
    Gauss-Legendre heights, each row divided by its constant: the table
    holds sin, h cos, cos and -h sin of each distinct h, in the order of the
    modes, then 1/sqrt(2) and 0."""
    first = {}      # one mode per n, TM first, ascending n: the table's h in that order
    for md in sorted(modes, key=lambda md: (md.index.n, md.index.sigma)):
        first.setdefault(md.index.n, md)
    ns = sorted(first)
    rule = quadrature_rule(GEOM, nr=1, nphi=1, nz=nz)
    axial = _tables(tuple(first.values()), rule.r, rule.z)[4]
    h = np.array(ns) * math.pi / GEOM.L
    # per row of the table: the row of the closed form (sin n, then cos n) and the constant
    at = np.concatenate([np.arange(len(ns)), len(ns) + np.arange(len(ns)), len(ns) + np.arange(len(ns)),
                         np.arange(len(ns)), [len(ns), len(ns)]])
    const = np.concatenate([np.ones_like(h), h, np.ones_like(h), -h, [math.sqrt(0.5), 0.0]])
    assert axial.shape == (len(at), nz)
    live = const != 0.0
    t = axial[live] / const[live, None] * np.sqrt(rule.wz)
    exact = axial_closed_form(ns, GEOM.L)[np.ix_(at[live], at[live])]
    return float(np.max(np.abs(t @ t.T - exact))) / (GEOM.L / 2)


def _radial_grams(funcs, nr: int):
    """Per |m|, the radial table Gram of funcs (rows J, g J', (|m|/r) J and
    g^2 J of each) on nr Gauss-Legendre radii."""
    rule = quadrature_rule(GEOM, nr=nr, nphi=1, nz=1)
    t = _radial(funcs, rule.r) * np.sqrt(rule.wr)
    abs_m = np.repeat([f[0] for f in funcs], 4)
    return {m: t[abs_m == m] @ t[abs_m == m].T for m in np.unique(abs_m).tolist()}


@pytest.mark.parametrize("omega_max", sorted(SIZES))
def test_axial_table_gram_on_the_derived_nz_is_its_closed_form(omega_max):
    modes = _modes(omega_max)
    rule = default_rule(GEOM, modes)
    assert (rule.nr, rule.nphi, rule.nz) == (SIZES[omega_max][0], default_nphi(modes), SIZES[omega_max][1])
    assert _axial_error(modes, rule.nz) < 2e-14       # rounding: 82 terms of up to 1 in each entry at omega <= 80
    assert _axial_error(modes, rule.nz - 8) > 1e-13      # the check sees a rule too coarse


@pytest.mark.parametrize("omega_max", sorted(SIZES))
def test_radial_table_gram_on_the_derived_nr_is_that_of_a_finer_rule(omega_max):
    modes = _modes(omega_max)
    nr = default_rule(GEOM, modes).nr
    funcs = sorted({(abs(md.index.m), md.g, GEOM.a) for md in modes})
    got, finer, coarse = (_radial_grams(funcs, n) for n in (nr, math.ceil(1.5 * nr), nr // 2))
    worst = {}
    for name, grams in (("derived", got), ("coarse", coarse)):
        errors = []
        for m, ref in finer.items():
            d = np.sqrt(np.diag(ref))
            live = d > 0.0      # (|m|/r) J of m = 0 is a row of zeros
            errors.append(np.max(np.abs(grams[m] - ref)[np.ix_(live, live)] / np.outer(d[live], d[live])))
        worst[name] = max(errors)
    assert worst["derived"] < 1e-13 < worst["coarse"], worst


@pytest.mark.parametrize("omega_max", [6.5, 20.0, 40.0])
def test_radial_j_rows_on_the_derived_nr_are_lommels_integrals(omega_max):
    modes = _modes(omega_max)
    rule = default_rule(GEOM, modes)
    funcs = {}      # (|m|, g) -> (chi, whether a zero of J_m')
    for md in modes:
        funcs[abs(md.index.m), md.g] = (md.chi, md.index.sigma == TE)
    worst = 0.0
    for m in sorted({m for m, _ in funcs}):
        keys = sorted(key for key in funcs if key[0] == m)
        chis, te = zip(*(funcs[key] for key in keys))
        j_rows = _radial([(m, g, GEOM.a) for _, g in keys], rule.r)[::4] * np.sqrt(rule.wr)
        exact = lommel_gram(m, chis, te, GEOM.a)
        d = np.sqrt(np.diag(exact))
        worst = max(worst, float(np.max(np.abs(j_rows @ j_rows.T - exact) / np.outer(d, d))))
    assert worst < 1e-13


def test_default_rule_floor_and_overrides(unit_geom):
    # no modes: the floor; one mode: the floor plus what its chi and n need
    assert default_rule(unit_geom, ()) == quadrature_rule(unit_geom, nr=16, nphi=8, nz=16)
    one = mode_data(unit_geom, ModeIndex(0, 1, 0, TM))
    assert default_rule(unit_geom, [one]) == quadrature_rule(unit_geom, nr=18, nphi=8, nz=16)
    te = mode_data(unit_geom, ModeIndex(2, 1, 3, TE))
    assert default_rule(unit_geom, iter([one, te])) == quadrature_rule(unit_geom, nr=16 + math.ceil(2 * te.chi / 3),
                                                                       nphi=16, nz=22)
    # a given size is taken as given, the other one derived
    modes = _modes(6.5)
    assert default_rule(GEOM, modes, nr=64, nz=64) == quadrature_rule(GEOM, nr=64, nphi=default_nphi(modes), nz=64)
    assert default_rule(GEOM, modes, nz=9) == quadrature_rule(GEOM, nr=20, nphi=default_nphi(modes), nz=9)
    with pytest.raises(ValueError, match="nz must be a positive integer"):
        default_rule(GEOM, modes, nz=0)
