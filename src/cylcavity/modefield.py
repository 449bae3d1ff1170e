"""Scalar potentials and vector mode functions on the cavity interior.

The scalar potential of mode s = (m, mu, n, sigma) is

    psi_TM = c_norm J_m(g r) e^{i m phi} cos(h z)   (cos -> 1/sqrt(2) for n = 0)
    psi_TE = c_norm J_m(g r) e^{i m phi} sin(h z)

and every vector mode function and curl is one of two vectors built from it,

    a = k^2 e_z psi + grad(d_z psi),    b = curl(e_z psi),

with curl a = k^2 b and curl b = a (psi solves the Helmholtz equation):

    u_TM = a            curl u_TM = k^2 b
    u_TE = i omega b    curl u_TE = i omega a

All mode functions are time independent; the harmonic time dependence
lives entirely in the expansion amplitudes (see synthesis).

Each component is F(r, z) e^{i m phi}: one prologue gives the (r, z)
factors of psi for all modes that share |m| from one Bessel sweep, two
builders assemble those of a and b with the scalar 1, k^2 or i omega folded
in, so one call of _u_curl gives the factors of u and curl u for the group,
and _phase alone forms e^{i m phi}, here and in verify and synthesis.  The
only removable singularity is (m/r) J_m(g r) on the axis, which tends to
g/2 for |m| = 1 (both signs, since J_{-1} = -J_1) and to 0 otherwise;
radii below 1e-8 a are evaluated with that limit.

Grid evaluation: the *_grid functions accept numpy arrays for r, phi, z
and broadcast them, so a tensor grid can be passed as r[:,None,None],
phi[None,:,None], z[None,None,:] and the Bessel factors are evaluated
once per distinct radius.  Points are validated against the closed
domain 0 <= r <= a, 0 <= z <= L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bessel import _j_orders
from .spectrum import TE, TM, ModeData

_AXIS_FRACTION = 1e-8       # r/a below which the on-axis limits are used
_DOMAIN_SLACK = 1e-12       # relative tolerance for boundary membership
_INV_SQRT2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class CylPoint:
    """Cylindrical point (r, phi, z); phi is stored reduced to [0, 2 pi)."""

    r: float
    phi: float
    z: float

    def __post_init__(self) -> None:
        for name in ("r", "phi", "z"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise ValueError(f"CylPoint.{name} must be finite, got {v!r}")
        if self.r < 0.0:
            raise ValueError(f"CylPoint.r must be >= 0, got {self.r}")
        object.__setattr__(self, "phi", self.phi % (2.0 * math.pi))


@dataclass(frozen=True)
class CylVector:
    """Complex vector in the local cylindrical basis (e_r, e_phi, e_z)."""

    v_r: complex
    v_phi: complex
    v_z: complex

    def __post_init__(self) -> None:
        for name in ("v_r", "v_phi", "v_z"):
            v = complex(getattr(self, name))
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise ValueError(f"CylVector.{name} must be finite, got {v!r}")

    def as_array(self) -> np.ndarray:
        return np.array([self.v_r, self.v_phi, self.v_z], dtype=complex)


def _check_domain(geom, r, z) -> None:
    ra = np.asarray(r, dtype=float)
    za = np.asarray(z, dtype=float)
    if not (np.all(np.isfinite(ra)) and np.all(np.isfinite(za))):
        raise ValueError("coordinates must be finite")
    if np.any(ra < -_DOMAIN_SLACK * geom.a) or np.any(ra > geom.a * (1.0 + _DOMAIN_SLACK)):
        raise ValueError(f"radius outside closed cavity domain [0, {geom.a}]")
    if np.any(za < -_DOMAIN_SLACK * geom.L) or np.any(za > geom.L * (1.0 + _DOMAIN_SLACK)):
        raise ValueError(f"z outside closed cavity domain [0, {geom.L}]")


def _by_abs_m(modes) -> list:
    """Positions of `modes` grouped by |m|, the unit of one Bessel sweep."""
    ms = [abs(md.index.m) for md in modes]
    return [[i for i, v in enumerate(ms) if v == a] for a in dict.fromkeys(ms)]


def _axial(mode: ModeData, z):
    """c Z(z) and c Z'(z) of one mode."""
    h, c = mode.h, mode.c_norm
    if mode.index.sigma == TE:
        zf, dzf = np.sin(h * z), h * np.cos(h * z)
    elif mode.index.n == 0:
        zf, dzf = np.full_like(z, _INV_SQRT2), np.zeros_like(z)
    else:
        zf, dzf = np.cos(h * z), -h * np.sin(h * z)
    return c * zf, c * dzf


def _potential(modes, r, z):
    """For modes sharing |m|, on a trailing mode axis: g and the (r, z) factors
    of psi = c J_m(g r) e^{i m phi} Z(z), i.e. J_m(g r), J_m'(g r), (m/r) J_m(g r)
    with its axis limit, c Z(z), c Z'(z); one Bessel sweep serves them all."""
    for geom in {md.geom for md in modes}:
        _check_domain(geom, r, z)
    ra = np.asarray(r, dtype=float)[..., None]
    za = np.asarray(z, dtype=float)
    ma = abs(modes[0].index.m)
    g = np.array([md.g for md in modes])
    m = np.array([md.index.m for md in modes])
    sign = np.where(m < 0, (-1.0) ** ma, 1.0)      # J_{-n} = (-1)^n J_n
    jm1, jm, jp1 = _j_orders((ma - 1, ma, ma + 1), g * ra)
    jm, jp = sign * jm, sign * (0.5 * (jm1 - jp1))
    near_axis = ra < _AXIS_FRACTION * np.array([md.geom.a for md in modes])
    if np.any(near_axis):
        limit = 0.5 * g if ma == 1 else 0.0
        safe_r = np.where(near_axis, 1.0, ra)
        m_over_r_jm = np.where(near_axis, limit, m * jm / safe_r)
    else:
        m_over_r_jm = m * jm / ra if ma != 0 else np.zeros_like(jm)
    cz, dcz = (np.stack(f, axis=-1) for f in zip(*(_axial(md, za) for md in modes)))
    return g, jm, jp, m_over_r_jm, cz, dcz


def _phase(m, phi):
    """e^{i m phi}, the only place the azimuthal factor is formed; an array
    of m gives one row per m."""
    return np.exp(1j * np.multiply.outer(m, np.asarray(phi, dtype=float)))


def _a(parts, s):
    """s (k^2 e_z psi + grad d_z psi) e^{-i m phi} = s (g J_m' cZ', i (m/r) J_m cZ', g^2 J_m cZ)."""
    g, jm, jp, mjr, cz, dcz = parts
    return (s * g * jp) * dcz, (1j * s * mjr) * dcz, (s * g * g * jm) * cz


def _b(parts, s):
    """s curl(e_z psi) e^{-i m phi} = s (i (m/r) J_m cZ, -g J_m' cZ, 0)."""
    g, _, jp, mjr, cz, _ = parts
    b_r = (1j * s * mjr) * cz
    return b_r, (-s * g * jp) * cz, np.zeros_like(b_r)


def _psi(modes, r, z):
    """(r, z) factor of psi = _psi e^{i m phi} for each of modes sharing |m|."""
    _, jm, _, _, cz, _ = _potential(modes, r, z)
    for i in range(len(modes)):
        yield jm[..., i] * cz[..., i]


def _u_curl(modes, r, z):
    """(r, z) factors (F, G) of u = F e^{i m phi} and curl u = G e^{i m phi} for
    each of modes sharing |m|: one prologue serves them all, and only one
    mode's full-size factors exist at a time."""
    parts = _potential(modes, r, z)
    for i, md in enumerate(modes):
        own = tuple(p[..., i] for p in parts)
        if md.index.sigma == TM:
            yield _a(own, 1.0), _b(own, md.k * md.k)
        else:
            s = 1j * md.omega
            yield _b(own, s), _a(own, s)


def psi_grid(mode: ModeData, r, phi, z) -> np.ndarray:
    """Scalar potential on broadcastable coordinate arrays."""
    return next(_psi((mode,), r, z)) * _phase(mode.index.m, phi)


def u_grid(mode: ModeData, r, phi, z):
    """Vector mode function components (u_r, u_phi, u_z), broadcast."""
    phase = _phase(mode.index.m, phi)
    return tuple(f * phase for f in next(_u_curl((mode,), r, z))[0])


def curl_u_grid(mode: ModeData, r, phi, z):
    """Curl of the vector mode function, components broadcast."""
    phase = _phase(mode.index.m, phi)
    return tuple(f * phase for f in next(_u_curl((mode,), r, z))[1])


def psi(mode: ModeData, p: CylPoint) -> complex:
    """Scalar potential at one point."""
    return complex(psi_grid(mode, p.r, p.phi, p.z))


def u_mode(mode: ModeData, p: CylPoint) -> CylVector:
    """Vector mode function at one point."""
    u_r, u_phi, u_z = u_grid(mode, p.r, p.phi, p.z)
    return CylVector(complex(u_r), complex(u_phi), complex(u_z))


def curl_u(mode: ModeData, p: CylPoint) -> CylVector:
    """Curl of the vector mode function at one point."""
    v_r, v_phi, v_z = curl_u_grid(mode, p.r, p.phi, p.z)
    return CylVector(complex(v_r), complex(v_phi), complex(v_z))


def to_cartesian(p: CylPoint, v: CylVector) -> np.ndarray:
    """Rotate a local cylindrical vector at p into Cartesian components."""
    cph = math.cos(p.phi)
    sph = math.sin(p.phi)
    return np.array(
        [
            v.v_r * cph - v.v_phi * sph,
            v.v_r * sph + v.v_phi * cph,
            v.v_z,
        ],
        dtype=complex,
    )
