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

Every row (psi and each cylindrical component of u and of curl u) is
separable: a constant s times a real radial factor R(r) -- J_m, g J_m',
(m/r) J_m or g^2 J_m -- times a real axial factor Z(z), c Z or c Z', times
e^{i m phi}.  The radial factors depend on the mode only through its
radial function J_|m|(g r), shared by the +-m partners and every n of one
(|m|, mu, sigma), with the signs of m < 0 in s.  Two entry points give
them.  _tables gives, for any set of modes, s, a radial table on the r
nodes, an axial table on the z nodes and each mode's rows in them; the
quadrature reductions (verify's Grams, synthesis.total_energy) take Grams
of those tables.  The radial table holds J, g J', (|m|/r) J and g^2 J of
each distinct radial function (|m|, g, a), from one Bessel sweep of
J_{|m|-1}, J_|m|, J_{|m|+1} per chunk of functions (_groups: whole |m|
groups in ascending |m|, within a budget of radii x functions); the axial
table holds sin, h cos, cos and -h sin of each distinct h.  The wall
check (verify._walls) indexes the tables of its distinct wall nodes, and
the one-mode *_grid functions read their mode's rows from them.  _walk
gives synthesis and projection the (s, R, Z) triple of one chunk of whole
|m| groups at a time, one run per |m| that holds the +-m partners, R and
Z each one gather from the tables; _phase alone forms e^{i m phi}.  The
radial tables are kept per set of radii in one dict in order of use
(_KEPT, _kept), the least recently used set evicted whole; a sweep takes
only functions not kept on its radii yet, plus, in its chunks, those of
the same a kept on other radii (a Gram's, for the walls), and each
distinct radius once.  The only removable singularity is (m/r) J_m(g r)
on the axis, which tends to g/2 for |m| = 1 (both signs, since J_{-1} =
-J_1) and to 0 otherwise; radii below 1e-8 a are evaluated with that
limit.

Grid evaluation: the *_grid functions accept numpy arrays for r, phi, z
and broadcast them, so a tensor grid can be passed as r[:,None,None],
phi[None,:,None], z[None,None,:] and the Bessel factors are evaluated
once per distinct radius.  Points are validated against the closed
domain 0 <= r <= a, 0 <= z <= L, and phi must be finite.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bessel import _as_complex, _as_real, _j_points, _runs
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
            v = _as_real(f"CylPoint.{name}", getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(f"CylPoint.{name} must be finite, got {v!r}")
            object.__setattr__(self, name, v)
        if self.r < 0.0:
            raise ValueError(f"CylPoint.r must be >= 0, got {self.r}")
        phi = self.phi % (2.0 * math.pi)      # rounds a tiny negative phi up to 2 pi
        object.__setattr__(self, "phi", phi if phi < 2.0 * math.pi else 0.0)


@dataclass(frozen=True)
class CylVector:
    """Complex vector in the local cylindrical basis (e_r, e_phi, e_z)."""

    v_r: complex
    v_phi: complex
    v_z: complex

    def __post_init__(self) -> None:
        for name in ("v_r", "v_phi", "v_z"):
            object.__setattr__(self, name, _as_complex(f"CylVector.{name}", getattr(self, name)))

    def as_array(self) -> np.ndarray:
        return np.array([self.v_r, self.v_phi, self.v_z], dtype=complex)


def _check_domain(geom, r, z) -> None:
    """Raise ValueError unless the float arrays r and z lie in the closed cavity."""
    # a NaN or an infinity shows in the extremes (0.0 stands in for no node)
    (r_lo, r_hi), (z_lo, z_hi) = ((v.min(), v.max()) if v.size else (0.0, 0.0) for v in (r, z))
    if not all(map(math.isfinite, (r_lo, r_hi, z_lo, z_hi))):
        raise ValueError("coordinates must be finite")
    if r_lo < 0.0 or r_hi > geom.a * (1.0 + _DOMAIN_SLACK):     # as CylPoint, no slack below the axis
        raise ValueError(f"radius outside closed cavity domain [0, {geom.a}]")
    if z_lo < -_DOMAIN_SLACK * geom.L or z_hi > geom.L * (1.0 + _DOMAIN_SLACK):
        raise ValueError(f"z outside closed cavity domain [0, {geom.L}]")


_CHUNK_POINTS = 4096        # radii x modes of one Bessel sweep (see _groups); most radii of a kept set


def _groups(abs_m, radii: int) -> list:
    """Positions of `abs_m` in chunks of whole |m| groups.  Groups are taken
    in ascending |m| and a chunk takes the next group while radii x members
    stays within _CHUNK_POINTS; a group larger than that alone is a chunk
    of its own.

    Pooling spares the kernel's per-call set-up, about 0.3 ms, but per-point
    orders cost more per point than the same orders at every point, and
    the sweep runs to the chunk's highest Miller start at every point;
    ascending |m| keeps those starts close.  On one Xeon core, two |m|
    groups in one call beat two calls up to about 1000 points per group
    and take 1.6 to 1.9 times as long at 2048 to 4096 per group.  With
    4096 the fields and certify ops ran 16 and 17 % faster than with one
    call per group, while the factors of 878 and 7128 modes on 64 radii and
    the walls of 878 modes stayed within the noise."""
    groups = {}
    for i, ma in enumerate(abs_m):
        groups.setdefault(ma, []).append(i)
    chunks = []
    for ma in sorted(groups):
        if chunks and (len(chunks[-1]) + len(groups[ma])) * radii <= _CHUNK_POINTS:
            chunks[-1] += groups[ma]
        else:
            chunks.append(list(groups[ma]))
    return chunks


# rows of a factor triple: psi, then the (r, phi, z) components of u and of curl u
_PSI, _U, _CURL = slice(0, 1), slice(1, 4), slice(4, 7)
# per row (columns TM, TE): the radial factor (J, g J', (|m|/r) J, g^2 J of
# J_|m|) and the axial factor (c Z, c Z') it takes, a row with s = 0 taking
# any; and s, a constant times k^2 (TM) or omega (TE) where marked, else times 1
_R_ROW = np.array([(0, 1, 2, 3, 2, 1, 0), (0, 2, 1, 0, 1, 2, 3)]).T
_Z_ROW = np.array([(0, 1, 1, 0, 0, 0, 0), (0, 0, 0, 0, 1, 1, 0)]).T
_S_CONST = np.array([(1, 1, 1j, 1, 1j, -1, 0), (1, -1, -1j, 0, 1j, -1, 1j)]).T     # u = a, curl u = k^2 b; i omega (b, a)
_S_MARKED = np.array([(0, 0, 0, 0, 1, 1, 0), (0, 1, 1, 0, 1, 1, 1)], dtype=bool).T


def _tables(modes, r, z):
    """(s, c, radial, r_at, axial, z_at) of modes: row k of mode j is
    s[k, j] radial[r_at[k, j]] c[j] axial[z_at[k, j]] e^{i m phi}, with s
    (7, n) complex, c the modes' c_norm, and two real tables of rows on the
    flattened nodes: radial (4 F, r.size), the rows J, g J', (|m|/r) J and
    g^2 J of each of the modes' F distinct radial functions (|m|, g, a)
    (_radial), shared by the +-m partners and every n of one function, and
    axial (4 H + 2, z.size) of the modes' H distinct h.  J_m = (-1)^|m| J_|m|
    for m < 0, and (m/r) J_m takes the opposite sign of (|m|/r) J_|m|:
    those signs go into s."""
    ra, za = np.asarray(r, dtype=float), np.asarray(z, dtype=float)
    # geometries by identity: hashing one per mode costs more than the check
    for geom in {id(md.geom): md.geom for md in modes}.values():
        _check_domain(geom, ra, za)
    funcs, heights = {}, {}
    m, te, flat, column, at_h = np.array([
        (md.index.m, md.index.sigma == TE, md.index.sigma == TM and md.index.n == 0,
         funcs.setdefault((abs(md.index.m), md.g, md.geom.a), len(funcs)), heights.setdefault(md.h, len(heights)))
        for md in modes], dtype=int).reshape(-1, 5).T
    k, omega, c = np.array([(md.k, md.omega, md.c_norm) for md in modes], dtype=float).reshape(-1, 3).T
    kind = _R_ROW[:, te]
    s = _S_CONST[:, te] * np.where(_S_MARKED[:, te], np.where(te, omega, k * k), 1.0)
    s = np.where((m < 0) & ((np.abs(m) % 2 == 1) != (kind == 2)), -s, s)
    # per distinct h, the rows sin, h cos, cos and -h sin of h z, then 1/sqrt(2)
    # and 0: (Z, Z') is (sin, h cos) for TE, (cos, -h sin) for TM and
    # (1/sqrt(2), 0) for TM with n = 0
    nh, hs, zs = len(heights), np.array(list(heights), dtype=float)[:, None], za.reshape(-1)
    sin, cos = np.sin(hs * zs), np.cos(hs * zs)
    axial = np.concatenate([sin, hs * cos, cos, -hs * sin, np.full((1, zs.size), _INV_SQRT2), np.zeros((1, zs.size))])
    z_at = np.where(te, at_h, np.where(flat, 4 * nh, 2 * nh + at_h))      # the row of Z
    z_at = np.where(_Z_ROW[:, te], z_at + np.where(flat, 1, nh), z_at)   # or of Z'
    return s, c, _radial(list(funcs), ra), 4 * column + kind, axial, z_at


def _walk(modes, r, z, rows):
    """Per chunk of whole |m| groups (_groups), one _tables call: yields (idx,
    m, s, R, Z, runs), idx the chunk's positions in modes, which _groups
    gives in stable |m| order, m their m, and runs each |m|'s (lo, hi)
    slice (_runs), the +-m partners together; row c of mode idx[j] is
    s[c, j] R[c, ..., j] Z[c, ..., j] e^{i m phi} for each c of rows, s
    complex, R (rows, *r.shape, k) and Z (rows, *z.shape, k) real."""
    for chunk in _groups([abs(md.index.m) for md in modes], np.size(r)):
        s, c, radial, r_at, axial, z_at = _tables(tuple(modes[i] for i in chunk), r, z)
        m = np.array([modes[i].index.m for i in chunk])     # _groups' order: ascending |m|, stable
        yield (np.asarray(chunk), m, s[rows], _gather(radial, r_at[rows], np.shape(r)),
               c * _gather(axial, z_at[rows], np.shape(z)), _runs(np.abs(m))[1])


def _gather(table, index, shape):
    """out[c, ..., j] = table[index[c, j]] on the nodes of a (rows, nodes)
    table, shaped (len(index), *shape, modes), each mode's rows together in
    memory: one gather, in the layout synthesis's GEMMs take."""
    return table[index.T].transpose(1, 2, 0).reshape(len(index), *shape, index.shape[1])


# radii sets whose tables are kept: the most one benchmark op uses, a fields
# op's display grid, rule and two Maxwell stencils (a certify op uses the
# rule and the walls)
_KEPT_SETS = 4
_KEPT: dict = {}        # radii bytes -> the tables kept on them, least recently used first


def _kept(radii: bytes) -> dict:
    """The radial tables kept on one set of radii, given by the float64 bytes
    of the flattened radii: radial function (|m|, g, a) -> its read-only
    (4, radii) table.  The set moves to the end of _KEPT, and the least
    recently used sets beyond _KEPT_SETS are evicted whole.  No lock: two
    threads may sweep one function twice and keep equal bytes, or keep a
    set's tables in a dict that another thread has just replaced."""
    _KEPT[radii] = kept = _KEPT.pop(radii, {})
    for old in list(_KEPT)[:-_KEPT_SETS]:
        _KEPT.pop(old, None)
    return kept


def _radial(funcs, ra):
    """Radial tables of each radial function (|m|, g, a) of funcs on the radii
    ra, rows J, g J', (|m|/r) J and g^2 J of J_|m|(g r), shaped (4 len(funcs),
    ra.size); (|m|/r) J takes its limit, g/2 for |m| = 1 and 0 otherwise,
    below _AXIS_FRACTION a.  The functions not yet kept on these radii (_kept)
    take one kernel call per chunk (_groups) at each distinct radius and are
    kept read-only; a set of more than _CHUNK_POINTS radii keeps nothing, so
    the tables kept take at most _KEPT_SETS x _CHUNK_POINTS x 32 bytes per
    radial function.  Each chunk is filled up to _CHUNK_POINTS points with the
    functions of the same a kept on other radii (_KEPT), in ascending
    (|m|, g): a point has the same bits in any batch, and a later call here
    finds them (a certify op's 20 wall checks make one sweep)."""
    rs = ra.reshape(-1)
    kept = _kept(rs.tobytes()) if rs.size <= _CHUNK_POINTS else {}
    missing = [f for f in funcs if f not in kept]
    distinct = not missing or len(set(rs.tolist())) == rs.size     # a stencil's 7 n radii hold 3 n
    ru, back = (rs, slice(None)) if distinct else np.unique(rs, return_inverse=True)
    chunks = _groups([f[0] for f in missing], ru.size)
    if missing and ru.size:
        cavity, live = {f[2] for f in missing}, set().union(*_KEPT.values())
        pool = iter(sorted(f for f in live.difference(kept, missing) if f[2] in cavity))
        for idx in chunks:
            extra = list(itertools.islice(pool, max(0, _CHUNK_POINTS // ru.size - len(idx))))
            idx += range(len(missing), len(missing) + len(extra))
            missing += extra
    absm = np.array([f[0] for f in missing], dtype=int)
    g, a = np.array([f[1:] for f in missing], dtype=float).reshape(-1, 2).T
    for idx in chunks:
        ms, gs, near = absm[idx, None], g[idx, None], ru < _AXIS_FRACTION * a[idx, None]
        orders = np.repeat(ms[:, 0], ru.size) + np.arange(-1, 2)[:, None]     # J_{|m|-1}, J_|m|, J_{|m|+1}
        lower, jm, upper = _j_points(orders, (gs * ru).reshape(-1)).reshape(3, len(idx), ru.size)
        m_over_r = np.where(near | (ms == 0), np.where(ms == 1, 0.5 * gs, 0.0), ms * jm / np.where(near, 1.0, ru))
        tables = np.stack([jm, gs * (0.5 * (lower - upper)), m_over_r, gs * gs * jm], axis=1)[..., back]
        tables.flags.writeable = False
        kept.update(zip([missing[i] for i in idx], tables))
    return np.array([kept[f] for f in funcs], dtype=float).reshape(4 * len(funcs), rs.size)


def _phase(m, phi):
    """e^{i m phi}, the only place the azimuthal factor is formed; an array
    of m gives one row per m.  Raises ValueError on a non-finite phi."""
    phi = np.asarray(phi, dtype=float)
    if not np.all(np.isfinite(phi)):
        raise ValueError("coordinates must be finite")
    return np.exp(1j * np.multiply.outer(m, phi))


def _rows(mode: ModeData, r, phi, z, rows):
    """s R Z e^{i m phi} of one mode on broadcastable coordinates, for each row
    of rows, read straight from one _tables call."""
    s, c, radial, r_at, axial, z_at = _tables((mode,), r, z)
    R = radial[r_at[rows, 0]].reshape(-1, *np.shape(r))
    Z = c[0] * axial[z_at[rows, 0]].reshape(-1, *np.shape(z))
    phase = _phase(mode.index.m, phi)
    return tuple(sc * Rc * Zc * phase for sc, Rc, Zc in zip(s[rows, 0], R, Z))


def psi_grid(mode: ModeData, r, phi, z) -> np.ndarray:
    """Scalar potential on broadcastable coordinate arrays."""
    return _rows(mode, r, phi, z, _PSI)[0]


def u_grid(mode: ModeData, r, phi, z):
    """Vector mode function components (u_r, u_phi, u_z), broadcast."""
    return _rows(mode, r, phi, z, _U)


def curl_u_grid(mode: ModeData, r, phi, z):
    """Curl of the vector mode function, components broadcast."""
    return _rows(mode, r, phi, z, _CURL)


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
