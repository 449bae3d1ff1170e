"""Calibration of default_rule: the 1-D Gram errors at and below its sizes.

Usage: python scripts/quadrature_convergence.py [OMEGA_MAX...]   (default 6.5 20 40 60 80)

Every pair sum of the package (the verify Grams, total_energy, project)
is a product of a radial and an axial 1-D table Gram, so each axis can be
checked alone.  For the modes with omega <= OMEGA_MAX in the a = 0.9,
L = 1.3 cavity of the README (c = eps0 = hbar = 1), two rows per cutoff,
one per axis: the cutoff, the mode count, the axis, the largest radial
argument chi = g a (r) or axial index n = h L / pi (z) of the modes, the
size default_rule derives from it, and the error of that axis's 1-D Gram
on 8, 6, 4, 2 and 0 nodes fewer than that size:

* z: the Gram of sin and cos of every h of the modes on the Gauss-Legendre
  rule against its closed form (elementary integrals), relative to L/2;
* r: the radial table Gram of every radial function of the modes (the
  rows J, g J', (|m|/r) J and g^2 J of J_|m|(g r)), per |m|, against the
  same on a rule 1.5 times finer, relative to its diagonal there.

Gauss-Legendre converges geometrically once its nodes resolve the
oscillation of a pair product, so each error falls to the floor of double
precision a few nodes below the derived size.
"""

import math
import sys

import numpy as np

from cylcavity import CavityGeometry, default_rule, enumerate_modes, quadrature_rule
from cylcavity.modefield import _radial

GEOM = CavityGeometry(a=0.9, L=1.3, c=1.0, eps0=1.0, hbar=1.0)
CUTOFFS = (6.5, 20.0, 40.0, 60.0, 80.0)
FEWER = (8, 6, 4, 2, 0)


def axial_error(ns, nodes: int) -> float:
    """max |G - G_exact| / (L/2) of sin and cos of n pi z / L, n in ns, on nodes nodes."""
    rule, L, n = quadrature_rule(GEOM, nr=1, nphi=1, nz=nodes), GEOM.L, np.asarray(ns, dtype=float)
    hz = np.multiply.outer(n * math.pi / L, rule.z)
    t = np.concatenate([np.sin(hz), np.cos(hz)]) * np.sqrt(rule.wz)
    i, j = np.meshgrid(n, n, indexing="ij")
    same = i == j
    sin_sin = np.where(same & (i > 0), L / 2, 0.0)
    cos_cos = np.where(same, np.where(i > 0, L / 2, L), 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        sin_cos = np.where(same, 0.0, L * (1.0 - (-1.0) ** (i + j)) * i / (math.pi * (i * i - j * j)))
    exact = np.block([[sin_sin, sin_cos], [sin_cos.T, cos_cos]])
    return float(np.max(np.abs(t @ t.T - exact))) / (L / 2)


def radial_error(funcs, nodes: int, finer: int) -> float:
    """max |G - G_finer| / sqrt(d_i d_j), d the diagonal of G_finer, of the
    radial table Gram of funcs per |m|, on nodes and on finer nodes."""
    tables = []
    for size in (nodes, finer):
        rule = quadrature_rule(GEOM, nr=size, nphi=1, nz=1)
        tables.append(_radial(funcs, rule.r) * np.sqrt(rule.wr))
    abs_m, worst = np.repeat([f[0] for f in funcs], 4), 0.0
    for m in np.unique(abs_m):
        got, ref = (t[abs_m == m] @ t[abs_m == m].T for t in tables)
        d = np.sqrt(np.diag(ref))
        live = d > 0.0     # (|m|/r) J of m = 0 is a row of zeros
        worst = max(worst, float(np.max(np.abs(got - ref)[np.ix_(live, live)] / np.outer(d[live], d[live]))))
    return worst


def main(argv=()):
    cutoffs = [float(v) for v in argv] or CUTOFFS
    print(f"{'omega_max':>9} {'modes':>6} {'axis':>4} {'extent':>7} {'size':>4} "
          + " ".join(f"{f'err-{k}' if k else 'err':>8}" for k in FEWER))
    for omega_max in cutoffs:
        modes = enumerate_modes(GEOM, omega_max)
        rule = default_rule(GEOM, modes)
        funcs = sorted({(abs(md.index.m), md.g, GEOM.a) for md in modes})
        ns = sorted({md.index.n for md in modes})
        chi = max(md.chi for md in modes)
        for axis, extent, size, error in (
                ("r", f"{chi:.2f}", rule.nr, lambda k: radial_error(funcs, k, math.ceil(1.5 * rule.nr))),
                ("z", f"{ns[-1]}", rule.nz, lambda k: axial_error(ns, k))):
            errors = " ".join(f"{error(size - k):>8.1e}" for k in FEWER)
            print(f"{omega_max:>9g} {len(modes):>6} {axis:>4} {extent:>7} {size:>4} {errors}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
