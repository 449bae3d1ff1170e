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
e^{i m phi}.  _factors gives that (s, R, Z) triple for any set of modes,
R on the r nodes and Z on the z nodes separately.  The radial factors
depend on the mode only through its radial function J_|m|(g r), shared by
the +-m partners and every n of one (|m|, mu, sigma), so _factors sweeps
J_{|m|-1}, J_|m|, J_{|m|+1} once per distinct (|m|, g), one Bessel sweep
per chunk of them (_groups: whole |m| groups in ascending |m|, within a
budget of radii x functions).  A memo of fixed byte budget keeps, read-only,
the factors of each call, for a repeat of the same modes on the same nodes,
and the triple of each radial function, so a later call on the same radii
sweeps only the functions not seen there yet (check_boundary of TE(-1,1,1)
after TE(1,1,1) makes no sweep).  Every consumer here and in verify and
synthesis takes the factors one chunk at a time and contracts them, and
_phase alone forms e^{i m phi}.  The
only removable singularity is (m/r) J_m(g r) on the axis, which tends to
g/2 for |m| = 1 (both signs, since J_{-1} = -J_1) and to 0 otherwise;
radii below 1e-8 a are evaluated with that limit.

Grid evaluation: the *_grid functions accept numpy arrays for r, phi, z
and broadcast them, so a tensor grid can be passed as r[:,None,None],
phi[None,:,None], z[None,None,:] and the Bessel factors are evaluated
once per distinct radius.  Points are validated against the closed
domain 0 <= r <= a, 0 <= z <= L, and phi must be finite.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .bessel import _as_real, _j_points
from .spectrum import TE, TM, ModeData

_AXIS_FRACTION = 1e-8       # r/a below which the on-axis limits are used
_DOMAIN_SLACK = 1e-12       # relative tolerance for boundary membership
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_NEIGHBOURS = np.arange(-1, 2)  # the orders |m| - 1, |m|, |m| + 1 of a mode's sweep


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
    # a NaN or an infinity shows in the extremes (0.0 stands in for no node)
    (r_lo, r_hi), (z_lo, z_hi) = ((np.min(v, initial=0.0), np.max(v, initial=0.0))
                                  for v in (np.asarray(r, dtype=float), np.asarray(z, dtype=float)))
    if not np.isfinite([r_lo, r_hi, z_lo, z_hi]).all():
        raise ValueError("coordinates must be finite")
    if r_lo < -_DOMAIN_SLACK * geom.a or r_hi > geom.a * (1.0 + _DOMAIN_SLACK):
        raise ValueError(f"radius outside closed cavity domain [0, {geom.a}]")
    if z_lo < -_DOMAIN_SLACK * geom.L or z_hi > geom.L * (1.0 + _DOMAIN_SLACK):
        raise ValueError(f"z outside closed cavity domain [0, {geom.L}]")


_CHUNK_POINTS = 4096        # radii x modes of one Bessel sweep; see _chunks


def _chunks(modes, radii: int) -> list:
    """Positions of `modes` in chunks of whole |m| groups, the unit of one
    Bessel sweep on `radii` radii: _groups of the modes' |m|."""
    return _groups([abs(md.index.m) for md in modes], radii)


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
    call per group, while _factors of 878 and 7128 modes on 64 radii and
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
# per row, the radial factor (J_m, g J_m', (m/r) J_m, g^2 J_m) and the axial
# factor (c Z, c Z') it takes; a row with s = 0 takes any
_R_ROW = {TM: (0, 1, 2, 3, 2, 1, 0), TE: (0, 2, 1, 0, 1, 2, 3)}
_Z_ROW = {TM: (0, 1, 1, 0, 0, 0, 0), TE: (0, 0, 0, 0, 1, 1, 0)}
# per row, s: a constant times k^2 (TM) or omega (TE) where marked, else times 1
_S_ROW = {sigma: (np.array(const, dtype=complex)[:, None], np.array(marked, dtype=bool)[:, None])
          for sigma, const, marked in (
              (TM, (1, 1, 1j, 1, 1j, -1, 0), (0, 0, 0, 0, 1, 1, 0)),        # u = a, curl u = k^2 b
              (TE, (1, -1, -1j, 0, 1j, -1, 1j), (0, 1, 1, 0, 1, 1, 1)))}    # i omega (b, a)


class _FactorMemo:
    """Least-recently-used map from a key to read-only factor arrays, holding
    at most `budget` bytes of arrays, of the key's bytes parts and of a fixed
    per-entry overhead; an entry larger than the budget is not kept.

    _factors keeps two kinds of entry here, under one budget: the (s, R, Z)
    of a whole call, keyed on its ordered modes and nodes, and the Bessel
    triple of one radial function, keyed on its (|m|, g) and radii."""

    # object headers of an entry: its arrays, key, tuples and map node, about
    # 1.1 kB by tracemalloc for one mode at one point under eviction
    entry_overhead = 1536

    def __init__(self, budget: int):
        self.budget = budget
        self.nbytes = 0
        self._entries: OrderedDict = OrderedDict()      # key -> (factors, bytes)
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key):
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            return entry[0]

    def put(self, key, factors) -> None:
        size = self.entry_overhead + sum(f.nbytes for f in factors) + sum(
            len(k) for k in key if isinstance(k, bytes))
        if size > self.budget:
            return
        with self._lock:
            if key in self._entries:
                return
            while self.nbytes + size > self.budget:
                _, (_, old) = self._entries.popitem(last=False)
                self.nbytes -= old
            self._entries[key] = (factors, size)
            self.nbytes += size

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.nbytes = 0


class _Key(tuple):
    """A memo key that hashes its parts once: a tuple keeps no hash, and the
    memo hashes its key on every lookup, move and store."""

    def __new__(cls, parts):
        key = super().__new__(cls, parts)
        key.hash = tuple.__hash__(key)
        return key

    def __hash__(self) -> int:
        return self.hash


_MEMO_BYTES = 1 << 20       # byte budget of the factor memo
_memo = _FactorMemo(_MEMO_BYTES)


def _factors(modes, r, z):
    """(s, R, Z) of modes: row c of mode j is s[c, j] R[c, ..., j] Z[c, ..., j] e^{i m phi}
    with s (7, n) complex, R (7, *r.shape, n) and Z (7, *z.shape, n) real.
    The arrays are read-only: a repeat of the same ordered modes on nodes
    with the same float64 bytes and shapes is served from _memo without a
    sweep.  Otherwise each radial function (|m|, g) of the modes is swept
    once (_triples), or read from _memo where an earlier call on the same
    radii left it, and shared by the +-m and every n that use it."""
    modes = tuple(modes)
    ra, za = np.asarray(r, dtype=float), np.asarray(z, dtype=float)
    radii = (ra.shape, ra.tobytes())
    key = _Key((modes, *radii, za.shape, za.tobytes()))
    factors = _memo.get(key)
    if factors is None:
        # geometries by identity: hashing one per mode costs more than the check
        for geom in {id(md.geom): md.geom for md in modes}.values():
            _check_domain(geom, ra, za)
        funcs = {}
        column = np.array([funcs.setdefault((abs(md.index.m), md.g), len(funcs)) for md in modes], dtype=int)
        bessel, swept = _triples(list(funcs), ra[..., None], radii)
        factors = _sweep(modes, bessel[..., column], ra[..., None], za[..., None])
        for f in factors:
            f.flags.writeable = False
        # the new triples go in after the factors, so the memo drops the
        # factors first: a miss of the factors then takes no kernel call
        _memo.put(key, factors)
        for entry in swept:
            _memo.put(*entry)
    return factors


def _triples(funcs, ra, radii):
    """(J, new): J holds J_{|m|-1}, J_|m|, J_{|m|+1} at g r of each radial
    function (|m|, g) of funcs on radii ra (with a trailing axis), shaped
    (3, *radii shape, len(funcs)).  A triple is read from _memo under
    ((|m|, g), *radii), the radii's shape and bytes; the missing ones take
    one kernel call per chunk (_groups) and are returned in new as
    read-only (key, (triple,)) entries for the memo."""
    shape = ra.shape[:-1]
    out = np.empty((3, *shape, len(funcs)))
    keys = [(f, *radii) for f in funcs]
    missing = []
    for j, key in enumerate(keys):
        kept = _memo.get(key)
        if kept is None:
            missing.append(j)
        else:
            out[..., j] = kept[0]
    absm = np.array([funcs[j][0] for j in missing], dtype=int)
    g = np.array([funcs[j][1] for j in missing], dtype=float)
    for idx in _groups(absm.tolist(), ra.size):
        ms = absm[idx]
        if ms[0] == ms[-1]:     # one |m|: the same orders at every point
            orders = (ms[0] + _NEIGHBOURS)[:, None]
        else:
            orders = np.broadcast_to(ms, (*shape, len(idx))).reshape(-1) + _NEIGHBOURS[:, None]
        cols = [missing[i] for i in idx]
        out[..., cols] = _j_points(orders, (g[idx] * ra).reshape(-1)).reshape(3, *shape, len(idx))
    new = []
    for j in missing:
        triple = out[..., j].copy()
        triple.flags.writeable = False
        new.append((keys[j], (triple,)))
    return out, new


def _sweep(modes, bessel, ra, za):
    """_factors of modes on radii ra and heights za, each with a trailing mode
    axis, from bessel: J_{|m|-1}, J_|m|, J_{|m|+1} of each mode at g r."""
    m = np.array([md.index.m for md in modes], dtype=int)
    g, h, k, omega, c, a = np.array([(md.g, md.h, md.k, md.omega, md.c_norm, md.geom.a) for md in modes],
                                    dtype=float).reshape(-1, 6).T
    te = np.array([md.index.sigma == TE for md in modes], dtype=bool)
    absm = np.abs(m)
    sign = np.where((m < 0) & (absm % 2 == 1), -1.0, 1.0)      # J_{-n} = (-1)^n J_n
    jm, jp = sign * bessel[1], sign * (0.5 * (bessel[0] - bessel[2]))
    near_axis = ra < _AXIS_FRACTION * a
    # (m/r) J_m vanishes for m = 0 and takes its limit near the axis
    m_over_r_jm = np.where(near_axis | (m == 0), np.where(absm == 1, 0.5 * g, 0.0),
                           m * jm / np.where(near_axis, 1.0, ra))
    radial = (jm, g * jp, m_over_r_jm, g * g * jm)

    sin, cos = np.sin(h * za), np.cos(h * za)
    flat = np.array([md.index.sigma == TM and md.index.n == 0 for md in modes], dtype=bool)
    zf = np.where(te, sin, np.where(flat, _INV_SQRT2, cos))
    dzf = np.where(te, h * cos, np.where(flat, 0.0, -h * sin))
    axial = (c * zf, c * dzf)

    def pick(table, parts):             # row c of mode j is parts[table[sigma_j][c]]
        out = np.empty((len(table[TM]), *parts[0].shape))
        for row, i_tm, i_te in zip(out, table[TM], table[TE]):
            np.copyto(row, parts[i_tm])
            if i_te != i_tm:
                np.copyto(row, parts[i_te], where=te)
        return out

    def scaled(sigma, by):
        const, marked = _S_ROW[sigma]
        return const * np.where(marked, by, 1.0)

    s = np.where(te, scaled(TE, omega), scaled(TM, k * k))
    return s, pick(_R_ROW, radial), pick(_Z_ROW, axial)


def _phase(m, phi):
    """e^{i m phi}, the only place the azimuthal factor is formed; an array
    of m gives one row per m.  Raises ValueError on a non-finite phi."""
    phi = np.asarray(phi, dtype=float)
    if not np.all(np.isfinite(phi)):
        raise ValueError("coordinates must be finite")
    return np.exp(1j * np.multiply.outer(m, phi))


def _rows(mode: ModeData, r, phi, z, rows):
    """s R Z e^{i m phi} of one mode on broadcastable coordinates, for each row of rows."""
    s, R, Z = _factors((mode,), r, z)
    phase = _phase(mode.index.m, phi)
    return tuple(sc * Rc * Zc * phase for sc, Rc, Zc in zip(s[rows, 0], R[rows, ..., 0], Z[rows, ..., 0]))


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
