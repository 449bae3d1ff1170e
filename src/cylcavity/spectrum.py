"""Cavity geometry, mode indexing, and the discrete frequency spectrum.

A conducting circular cylinder of radius a and height L supports two
polarization families, labelled sigma:

* sigma = 1 (TM): radial quantum chi is the mu-th zero of J_m, axial
  index n >= 0,
* sigma = 2 (TE): chi is the mu-th strictly positive zero of J_m',
  axial index n >= 1 (n = 0 would make the mode function vanish).

Every mode has chi > 0, so there is no TEM branch.  The dispersion is

    g = chi/a,  h = n pi/L,  k^2 = g^2 + h^2,  omega = c k;

enumerate_modes cuts off on this omega, the one each ModeData carries.
alpha is the radial normalization integral 2/a^2 * int_0^a r J_m(gr)^2 dr:
J_{m+1}(chi)^2 for TM, J_m(chi)^2 - J_{m+1}(chi)^2 for TE.  c_norm is the
scalar-potential amplitude that makes the vector mode function u carry
unit L2 norm over the cavity volume.

Azimuthal index m runs over all integers; +m and -m are distinct complex
modes with identical frequency.  Physical constants are geometry fields
so natural units (c = eps0 = hbar = 1) can be used in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bessel import _KIND_J, _KIND_JPRIME, _as_int, _as_real, _j_points, _zero_tables

# CODATA 2018 SI values
SPEED_OF_LIGHT = 299792458.0            # m/s (exact)
VACUUM_PERMITTIVITY = 8.8541878128e-12  # F/m
HBAR = 1.054571817e-34                  # J s

TM = 1
TE = 2


@dataclass(frozen=True)
class CavityGeometry:
    """Cylinder dimensions plus the physical constants used throughout."""

    a: float
    L: float
    c: float = SPEED_OF_LIGHT
    eps0: float = VACUUM_PERMITTIVITY
    hbar: float = HBAR

    def __post_init__(self) -> None:
        for name in ("a", "L", "c", "eps0", "hbar"):
            v = _as_real(f"CavityGeometry.{name}", getattr(self, name))
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"CavityGeometry.{name} must be positive and finite, got {v!r}")
            object.__setattr__(self, name, v)

    @property
    def mu0(self) -> float:
        """Vacuum permeability, derived as 1/(eps0 c^2)."""
        return 1.0 / (self.eps0 * self.c * self.c)

    @property
    def volume(self) -> float:
        return math.pi * self.a * self.a * self.L


# the name of each CavityGeometry field in state files, CLI options and verify JSON
_GEOMETRY_KEYS = (("radius", "a"), ("height", "L"), ("speed_of_light", "c"),
                  ("vacuum_permittivity", "eps0"), ("hbar", "hbar"))


@dataclass(frozen=True)
class ModeIndex:
    """(m, mu, n, sigma) mode label; sigma is TM=1 or TE=2."""

    m: int
    mu: int
    n: int
    sigma: int

    def __post_init__(self) -> None:
        for name in ("m", "mu", "n", "sigma"):
            object.__setattr__(self, name, _as_int(f"ModeIndex.{name}", getattr(self, name)))
        if self.mu < 1:
            raise ValueError(f"mu must be >= 1, got {self.mu}")
        if self.sigma not in (TM, TE):
            raise ValueError(f"sigma must be {TM} (TM) or {TE} (TE), got {self.sigma}")
        if self.n < 0:
            raise ValueError(f"n must be >= 0, got {self.n}")
        if self.sigma == TE and self.n == 0:
            raise ValueError("TE modes require n >= 1 (the n = 0 mode function vanishes)")


@dataclass(frozen=True)
class ModeData:
    """Derived per-mode quantities tied to one geometry."""

    geom: CavityGeometry
    index: ModeIndex
    chi: float      # radial eigenvalue, zero of J_m (TM) or J_m' (TE)
    g: float        # chi / a
    h: float        # n pi / L
    k: float        # sqrt(g^2 + h^2)
    omega: float    # c k
    alpha: float    # radial norm integral, 2/a^2 int r J_m(gr)^2 dr
    c_norm: float   # scalar amplitude giving int |u|^2 dV = 1


_KIND_OF = {TM: _KIND_J, TE: _KIND_JPRIME}     # chi is a zero of J_m (TM) or J_m' (TE)


def _modes(geom: CavityGeometry, indices) -> list[ModeData]:
    """ModeData for each index, in input order, from one zero request for
    every index and one Bessel sweep (J_|m|, J_|m|+1 at every chi)."""
    keys = [(abs(idx.m), _KIND_OF[idx.sigma]) for idx in indices]
    need = {}
    for key, idx in zip(keys, indices):
        need[key] = max(need.get(key, 0), idx.mu)
    tables = _zero_tables(need)
    chis = np.array([tables[key][idx.mu - 1] for key, idx in zip(keys, indices)])
    abs_m = np.array([m for m, _ in keys], dtype=int)
    js = _j_points(np.stack([abs_m, abs_m + 1]), chis)     # a point's bits ignore its batch
    out = []
    for idx, chi, jm, jp1 in zip(indices, chis.tolist(), *js.tolist()):
        # Python floats: numpy's x**2 differs from Python's by 1 ulp for a few modes
        alpha, scale = (jp1**2, geom.c**2) if idx.sigma == TM else (jm**2 - jp1**2, 1.0)
        g, h = chi / geom.a, idx.n * math.pi / geom.L
        k = math.hypot(g, h)
        omega = geom.c * k
        c2 = 2.0 * scale * geom.a**2 / (geom.volume * alpha * chi**2 * omega**2)
        out.append(ModeData(geom=geom, index=idx, chi=chi, g=g, h=h, k=k, omega=omega,
                            alpha=alpha, c_norm=math.sqrt(c2)))
    return out


def mode_data(geom: CavityGeometry, idx: ModeIndex) -> ModeData:
    """Evaluate dispersion and normalization data for one mode."""
    return _modes(geom, (idx,))[0]


def _sort_key(md: ModeData):
    m = md.index.m
    sign = 0 if m == 0 else (1 if m > 0 else -1)
    return (md.omega, md.index.sigma, abs(m), sign, md.index.mu, md.index.n)


def enumerate_modes(geom: CavityGeometry, omega_max: float) -> list[ModeData]:
    """All modes with omega <= omega_max, sorted by
    (omega, sigma, |m|, sign(m), mu, n).

    Both signs of m are listed.  The output for a smaller omega_max is a
    prefix of the output for a larger one.
    """
    omega_max = _as_real("omega_max", omega_max)
    if not (math.isfinite(omega_max) and omega_max >= 0.0):
        raise ValueError(f"omega_max must be finite and >= 0, got {omega_max!r}")
    k_max, chi_max = omega_max / geom.c, omega_max * geom.a / geom.c
    # every zero of J_m or J_m' exceeds m, so the orders up to chi_max hold
    # every zero <= chi_max; x = 0 is not counted as a zero of J_0'
    orders = range(math.floor(chi_max) + 1)
    tables = _zero_tables({(m, kind): 0 for kind in _KIND_OF.values() for m in orders}, chi_max)
    # per chi, n up to one past h = n pi/L <= sqrt(k_max^2 - g^2); the omega filter decides
    candidates = [ModeIndex(mm, mu, n, sigma)
                  for sigma in (TM, TE) for m in orders
                  for mu, chi in enumerate(tables[m, _KIND_OF[sigma]], start=1) if chi <= chi_max
                  for n_top in [math.floor(geom.L / math.pi * math.sqrt(max(0.0, k_max**2 - (chi / geom.a)**2))) + 1]
                  for mm in ((m,) if m == 0 else (m, -m))
                  for n in range(0 if sigma == TM else 1, n_top + 1)]
    return sorted((md for md in _modes(geom, candidates) if md.omega <= omega_max), key=_sort_key)
