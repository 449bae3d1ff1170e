"""Convergence study: Gram-matrix and energy errors vs quadrature order.

Gauss-Legendre in r and z converges spectrally for these smooth
integrands, so a handful of nodes per wavelength already reaches the
floor set by double precision.  The Gram is a product of a radial and an
axial 1-D Gram per component, so the last two columns resolve one axis at
a time: max|G-I| with only nr = order (nz = 48) and with only nz = order
(nr = 48).  Run with no arguments.
"""

import numpy as np

from cylcavity import (
    CavityGeometry,
    FieldState,
    check_vector_orthonormality,
    enumerate_modes,
    mode_sum_energy,
    quadrature_rule,
    total_energy,
)
from cylcavity.verify import default_nphi


def main():
    geom = CavityGeometry(a=0.9, L=1.3, c=1.0, eps0=1.0, hbar=1.0)
    modes = enumerate_modes(geom, 6.5)[:12]
    rng = np.random.default_rng(7)
    amps = rng.normal(size=len(modes)) + 1j * rng.normal(size=len(modes))
    state = FieldState(geom=geom, entries=tuple(zip(modes, amps)))
    closed = mode_sum_energy(state)
    nphi = default_nphi(modes)

    print(f"{len(modes)} modes, nphi = {nphi}")
    print(f"{'order':>6} {'max|G-I|':>12} {'energy rel err':>15} {'nr only':>12} {'nz only':>12}")
    gram = lambda nr, nz: check_vector_orthonormality(
        modes, quadrature_rule(geom, nr=nr, nphi=nphi, nz=nz)).max_deviation
    for order in (4, 8, 12, 16, 24, 32, 48):
        rule = quadrature_rule(geom, nr=order, nphi=nphi, nz=order)
        energy = abs(total_energy(state, rule) - closed) / closed
        print(f"{order:>6} {gram(order, order):>12.3e} {energy:>15.3e} "
              f"{gram(order, 48):>12.3e} {gram(48, order):>12.3e}")


if __name__ == "__main__":
    main()
