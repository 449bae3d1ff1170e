"""Classical fields of the quantized expansion, energy, and projection.

A field state is a finite set of modes with complex amplitudes a_s at a
common time t.  The physical fields are

    E = i sum_s sqrt(hbar omega_s / 2 eps0) [a_s u_s - a_s* u_s*]
    B =   sum_s sqrt(hbar / 2 eps0 omega_s) [a_s curl u_s + a_s* curl u_s*]

which are exactly real by construction: each component of u_s and curl u_s
is s R_s(r) Z_s(z) e^{i m_s phi} (modefield._factors), all from one
evaluation per |m_s|; per m and component the modes are contracted as
(R Z) @ (p a s) on (r, z) and each m-sum takes its phase once, giving
E = i (c - c*) and B = c + c* of one complex sum c each.  Time evolution
multiplies each amplitude by e^{-i omega_s dt}; with that rule (E, B)
satisfies the free-space Maxwell equations, and the classical field energy

    int [ eps0/2 |E|^2 + 1/(2 mu0) |B|^2 ] dV  =  sum_s hbar omega_s |a_s|^2

is time independent.  The zero-point contribution sum_s hbar omega_s / 2
of a truncated mode set is reported separately by zero_point_energy and
is never folded into the classical total (it diverges with the cutoff).

Amplitudes can be recovered from sampled fields: with the inner product
<f, g> = int f* . g dV,

    a_s = 1/2 [ -i sqrt(2 eps0 / hbar omega_s) <u_s, E>
                + sqrt(2 eps0 omega_s / hbar) / k_s^2 <curl u_s, B> ]

The two halves each equal a_s plus opposite-sign leakage from the
conjugate (-m) partner mode, so their mean is exact; the averaging is
what makes the projection safe for states containing +-m pairs.
project samples E and B once on the rule grid, folds phi with one
weighted DFT row per m, and contracts each inner product from the
factors as sum_c conj(s_c) R_c^T hat_{c, m} Z_c.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .modefield import _CURL, _U, CylPoint, _by_abs_m, _factors, _phase
from .spectrum import CavityGeometry, ModeData
from .verify import QuadratureRule, _same_geometry, integrate_cavity


@dataclass(frozen=True)
class FieldState:
    """Mode amplitudes a_s at time t inside one cavity."""

    geom: CavityGeometry
    entries: tuple
    t: float = 0.0

    def __post_init__(self) -> None:
        entries = tuple((md, complex(a)) for md, a in self.entries)
        object.__setattr__(self, "entries", entries)
        if not math.isfinite(self.t):
            raise ValueError(f"time must be finite, got {self.t!r}")
        seen = set()
        for md, a in entries:
            if not isinstance(md, ModeData):
                raise ValueError(f"entries must pair ModeData with amplitudes, got {md!r}")
            if md.geom != self.geom:
                raise ValueError(f"mode {md.index} belongs to a different geometry")
            if not (math.isfinite(a.real) and math.isfinite(a.imag)):
                raise ValueError(f"amplitude for {md.index} must be finite, got {a!r}")
            if md.index in seen:
                raise ValueError(f"duplicate mode {md.index} in state")
            seen.add(md.index)

    @property
    def modes(self) -> tuple:
        return tuple(md for md, _ in self.entries)

    @property
    def amplitudes(self) -> np.ndarray:
        return np.array([a for _, a in self.entries], dtype=complex)


def evolve(state: FieldState, dt: float) -> FieldState:
    """Advance by dt: a_s -> a_s e^{-i omega_s dt}."""
    if not math.isfinite(dt):
        raise ValueError(f"dt must be finite, got {dt!r}")
    entries = tuple(
        (md, a * cmath.exp(-1j * md.omega * dt)) for md, a in state.entries
    )
    return FieldState(geom=state.geom, entries=entries, t=state.t + dt)


def _derivative_state(state: FieldState) -> FieldState:
    """State whose field values equal the time derivative: a_s -> -i omega_s a_s."""
    entries = tuple((md, -1j * md.omega * a) for md, a in state.entries)
    return FieldState(geom=state.geom, entries=entries, t=state.t)


def _synthesize(state: FieldState, r, phi, z, fields) -> np.ndarray:
    """Real fields named in `fields` ("E", "B" or "EB"), shaped (field,
    component, ...), from c = sum_s p_s a_s s_s R_s(r) Z_s(z) e^{i m_s phi}:
    E = -2 Im c of u with p = sqrt(hbar omega / 2 eps0), B = 2 Re c of curl u
    with p = sqrt(hbar / 2 eps0 omega).  One _factors call per |m| group gives
    both; each m-sum of a component is one (R Z) @ (p a s) contraction and
    takes its phase once."""
    geom = state.geom
    shape = np.broadcast_shapes(np.shape(r), np.shape(phi), np.shape(z))
    r, z = (np.reshape(v, (1,) * (len(shape) - np.ndim(v)) + np.shape(v)) for v in (r, z))
    rz = np.broadcast_shapes(r.shape, z.shape)
    is_b = np.repeat(["EB".index(f) for f in fields], 3)    # per output row: E (0) or B (1)
    rows = 3 * is_b + np.tile([1, 2, 3], len(fields))       # its factor row: u for E, curl u for B
    omega = np.array([md.omega for md in state.modes])
    pre = state.amplitudes * np.array([np.sqrt(geom.hbar * omega / (2.0 * geom.eps0)),
                                        np.sqrt(geom.hbar / (2.0 * geom.eps0 * omega))])[is_b]
    out = np.zeros((len(rows), *shape))
    for idx in _by_abs_m(state.modes):      # one group's factors live at a time
        group = tuple(state.modes[i] for i in idx)
        m, (s, R, Z) = np.array([md.index.m for md in group]), _factors(group, r, z)
        coef = s[rows] * pre[:, idx]
        for mv in dict.fromkeys(m.tolist()):
            at = m == mv
            rzf = (R[rows][..., at] * Z[rows][..., at]).reshape(len(rows), -1, np.count_nonzero(at))
            re_im = rzf @ np.stack([coef.real[:, at], coef.imag[:, at]], axis=-1)
            phase = _phase(mv, phi)
            for k, sums in enumerate((re_im[..., 0] + 1j * re_im[..., 1]).reshape(len(rows), *rz)):
                c = sums * phase        # one full-size component at a time; E = i (c - c*), B = c + c*
                out[k] += 2.0 * c.real if is_b[k] else -2.0 * c.imag
    return out.reshape(len(fields), 3, *shape)


def electric_field_grid(state: FieldState, r, phi, z):
    """Real (E_r, E_phi, E_z) on broadcastable coordinate arrays."""
    return tuple(_synthesize(state, r, phi, z, "E")[0])


def magnetic_field_grid(state: FieldState, r, phi, z):
    """Real (B_r, B_phi, B_z) on broadcastable coordinate arrays."""
    return tuple(_synthesize(state, r, phi, z, "B")[0])


def electric_field(state: FieldState, p: CylPoint) -> np.ndarray:
    """Real cylindrical E components at one point."""
    return _synthesize(state, p.r, p.phi, p.z, "E")[0]


def magnetic_field(state: FieldState, p: CylPoint) -> np.ndarray:
    """Real cylindrical B components at one point."""
    return _synthesize(state, p.r, p.phi, p.z, "B")[0]


def field_samplers(state: FieldState):
    """State-agnostic (E, B) samplers for use with project()."""
    def e_sampler(r, phi, z):
        return electric_field_grid(state, r, phi, z)

    def b_sampler(r, phi, z):
        return magnetic_field_grid(state, r, phi, z)

    return e_sampler, b_sampler


def total_energy(state: FieldState, rule: QuadratureRule) -> float:
    """Classical field energy by quadrature; equals sum hbar omega |a|^2."""
    geom = state.geom
    _same_geometry(state.modes, rule)
    e, b = _synthesize(state, *rule.grid(), "EB")
    dens = 0.5 * geom.eps0 * sum(c * c for c in e) + 0.5 / geom.mu0 * sum(c * c for c in b)
    return float(integrate_cavity(lambda *_: dens, rule).real)


def mode_sum_energy(state: FieldState) -> float:
    """Closed-form classical energy sum hbar omega_s |a_s|^2."""
    return float(sum(md.geom.hbar * md.omega * abs(a) ** 2 for md, a in state.entries))


def zero_point_energy(state: FieldState) -> float:
    """sum hbar omega / 2 over the truncated mode set (reported separately;
    grows without bound as the cutoff rises)."""
    return float(sum(0.5 * md.geom.hbar * md.omega for md, _ in state.entries))


def project(e_sampler, b_sampler, modes, rule: QuadratureRule) -> np.ndarray:
    """Recover amplitudes of `modes` from sampled E and B fields.

    Raises ValueError when two modes' m differ by a nonzero multiple of
    nphi: the phi rule cannot tell them apart."""
    modes = tuple(modes)
    _same_geometry(modes, rule)
    first = {}
    for md in modes:
        other = first.setdefault(md.index.m % rule.nphi, md).index
        if other.m != md.index.m:
            raise ValueError(f"phi rule aliases modes {other} (m={other.m}) and {md.index} "
                             f"(m={md.index.m}): m differs by a multiple of nphi={rule.nphi}")
    r, phi, z = rule.grid()
    shape = (rule.nr, rule.nphi, rule.nz)
    m_vals, row_of = np.unique([md.index.m for md in modes], return_inverse=True)
    dft = rule.wphi * np.conj(_phase(m_vals, rule.phi))
    w = np.outer(rule.wr, rule.wz)

    def fold(sampler):          # (component, m, r, z), weights included
        return np.array([np.einsum("mp,rpz->mrz", dft, np.broadcast_to(np.asarray(c), shape)) * w
                         for c in sampler(r, phi, z)])

    # <u_i, E> and <curl u_i, B>: sum_c conj(s_ci) R_ci^T hat_{c, m_i} Z_ci
    s, R, Z = _factors(modes, rule.r, rule.z)
    inner = np.empty((2, len(modes)), dtype=complex)
    for half, (hat, rows) in enumerate(((fold(e_sampler), _U), (fold(b_sampler), _CURL))):
        for row in range(len(m_vals)):
            at = row_of == row
            rz = np.sum(R[rows][..., at] * (hat[:, row] @ Z[rows][..., at]), axis=1)
            inner[half, at] = np.sum(np.conj(s[rows][:, at]) * rz, axis=0)
    geom, omega, k = rule.geom, np.array([md.omega for md in modes]), np.array([md.k for md in modes])
    return 0.5 * (-1j * np.sqrt(2.0 * geom.eps0 / (geom.hbar * omega)) * inner[0]
                  + np.sqrt(2.0 * geom.eps0 * omega / geom.hbar) / k**2 * inner[1])


# ------------------------------------------------- Maxwell residuals (FD)

@dataclass(frozen=True)
class MaxwellResidualReport:
    """Max-norm residuals of the four Maxwell equations at sample points.

    Spatial derivatives are second-order central differences with the
    given step; time derivatives are analytic (a_s -> -i omega_s a_s).
    """

    step: float
    div_e: float
    div_b: float
    faraday: float      # |curl E + dB/dt|
    ampere: float       # |curl B - dE/dt / c^2|
    e_scale: float
    b_scale: float


def _fd_stencil(state: FieldState, r, phi, z, h, hphi):
    """(div, curl, centre value) of E and of B by second-order central
    differences; the centre and its six neighbours are sampled in one call."""
    r, phi, z = np.broadcast_arrays(r, phi, z)
    # rows: centre, r + h, r - h, phi + hphi, phi - hphi, z + h, z - h
    rs = np.stack([r, r + h, r - h, r, r, r, r])
    ps = np.stack([phi, phi, phi, phi + hphi, phi - hphi, phi, phi])
    zs = np.stack([z, z, z, z, z, z + h, z - h])
    dif = lambda f, row, width: (f[row] - f[row + 1]) / width

    def ops(f_r, f_phi, f_z):
        div = (dif(rs * f_r, 1, 2.0 * h * r) + dif(f_phi, 3, 2.0 * hphi * r)
               + dif(f_z, 5, 2.0 * h))
        curl = (
            dif(f_z, 3, 2.0 * hphi * r) - dif(f_phi, 5, 2.0 * h),
            dif(f_r, 5, 2.0 * h) - dif(f_z, 1, 2.0 * h),
            dif(rs * f_phi, 1, 2.0 * h * r) - dif(f_r, 3, 2.0 * hphi * r),
        )
        return div, curl, (f_r[0], f_phi[0], f_z[0])

    return [ops(*f) for f in _synthesize(state, rs, ps, zs, "EB")]


def maxwell_residual(state: FieldState, points, step: float) -> MaxwellResidualReport:
    """Check the four Maxwell equations at interior points.

    points is a triple of arrays (r, phi, z); every point must be farther
    than `step` from the walls and from the axis so the stencil stays in
    the domain.
    """
    geom = state.geom
    r, phi, z = (np.asarray(v, dtype=float) for v in points)
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be positive and finite, got {step!r}")
    if np.any(r - step <= 0.0) or np.any(r + step >= geom.a):
        raise ValueError("points must keep r within (step, a - step)")
    if np.any(z - step <= 0.0) or np.any(z + step >= geom.L):
        raise ValueError("points must keep z within (step, L - step)")

    hphi = step / geom.a
    de_dt, db_dt = _synthesize(_derivative_state(state), r, phi, z, "EB")
    (div_e, curl_e, e_here), (div_b, curl_b, b_here) = _fd_stencil(state, r, phi, z, step, hphi)
    inv_c2 = 1.0 / (geom.c * geom.c)
    faraday = [ce + db for ce, db in zip(curl_e, db_dt)]
    ampere = [cb - inv_c2 * de for cb, de in zip(curl_b, de_dt)]

    vec_max = lambda comps: float(np.max(np.sqrt(sum(c * c for c in comps)), initial=0.0))
    return MaxwellResidualReport(
        step=step,
        div_e=float(np.max(np.abs(div_e), initial=0.0)),
        div_b=float(np.max(np.abs(div_b), initial=0.0)),
        faraday=vec_max(faraday),
        ampere=vec_max(ampere),
        e_scale=vec_max(e_here),
        b_scale=vec_max(b_here),
    )
