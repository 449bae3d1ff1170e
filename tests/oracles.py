"""Independent numerical oracles used by the tests.

Deliberately avoids the production root finder and field formulas:
zeros come from sign scanning plus pure bisection, derivatives from
central differences, and cavity inner products from a dense sum over
every node of the 3-D rule, pair by pair (or, for sizes the 3-D sum cannot
reach, one GEMM over the (r, z) planes), fields from a per-mode sum over
every point, the field energy from those fields on every node, and wall
checks from the full phased mode functions.  Slow and simple on purpose.
One reference is not independent: masked_gram is the production Gram's
formula summed over every pair and masked by the phi sum afterwards.
"""

from __future__ import annotations

import math

import numpy as np

from cylcavity.bessel import bessel_j, bessel_j_prime
from cylcavity.modefield import _tables, curl_u_grid, u_grid


def bisect_zeros(f, count: int, x_start: float, x_stop: float, scan_step: float = 0.5):
    """First `count` sign-change roots of f on (x_start, x_stop), by bisection."""
    grid = np.arange(x_start, x_stop, scan_step)
    vals = f(grid)
    flips = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    if len(flips) < count:
        raise RuntimeError(f"only {len(flips)} brackets below {x_stop}, need {count}")
    lo = grid[flips[:count]].astype(float)
    hi = grid[flips[:count] + 1].astype(float)
    flo = f(lo)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        same = np.sign(fmid) == np.sign(flo)
        lo = np.where(same, mid, lo)
        flo = np.where(same, fmid, flo)
        hi = np.where(same, hi, mid)
        if np.all(hi - lo <= 2e-13):
            break
    return 0.5 * (lo + hi)


def bessel_zero_oracle(m: int, kind: str, count: int):
    """Zeros of J_m (kind 'j') or J_m' (kind 'jprime'), bisection only."""
    f = (lambda x: bessel_j(m, x)) if kind == "j" else (lambda x: bessel_j_prime(m, x))
    # generous upper bound: zeros are spaced < pi apart past the first
    x_stop = m + np.pi * (count + 3) + 10.0
    return bisect_zeros(f, count, 0.1, x_stop)


# --------------------------------------------------- finite differences

def fd_grad_cyl(scalar, r, phi, z, h: float, hphi: float):
    """(d_r, (1/r) d_phi, d_z) of a scalar field by central differences."""
    d_r = (scalar(r + h, phi, z) - scalar(r - h, phi, z)) / (2.0 * h)
    d_phi = (scalar(r, phi + hphi, z) - scalar(r, phi - hphi, z)) / (2.0 * hphi * r)
    d_z = (scalar(r, phi, z + h) - scalar(r, phi, z - h)) / (2.0 * h)
    return d_r, d_phi, d_z


def fd_div_cyl(field, r, phi, z, h: float, hphi: float):
    """Cylindrical divergence of a 3-component field by central differences."""
    rp = field(r + h, phi, z)[0] * (r + h)
    rm = field(r - h, phi, z)[0] * (r - h)
    pp = field(r, phi + hphi, z)[1]
    pm = field(r, phi - hphi, z)[1]
    zp = field(r, phi, z + h)[2]
    zm = field(r, phi, z - h)[2]
    return (rp - rm) / (2.0 * h * r) + (pp - pm) / (2.0 * hphi * r) + (zp - zm) / (2.0 * h)


def fd_curl_cyl(field, r, phi, z, h: float, hphi: float):
    """Cylindrical curl of a 3-component field by central differences."""
    f_rp = field(r + h, phi, z)
    f_rm = field(r - h, phi, z)
    f_pp = field(r, phi + hphi, z)
    f_pm = field(r, phi - hphi, z)
    f_zp = field(r, phi, z + h)
    f_zm = field(r, phi, z - h)
    c_r = (f_pp[2] - f_pm[2]) / (2.0 * hphi * r) - (f_zp[1] - f_zm[1]) / (2.0 * h)
    c_phi = (f_zp[0] - f_zm[0]) / (2.0 * h) - (f_rp[2] - f_rm[2]) / (2.0 * h)
    c_z = ((r + h) * f_rp[1] - (r - h) * f_rm[1]) / (2.0 * h * r) \
        - (f_pp[0] - f_pm[0]) / (2.0 * hphi * r)
    return c_r, c_phi, c_z


# ------------------------------------------------ dense quadrature sums

def _weighted(rule, comps):
    """Broadcast field components to the full grid and fold the weights in."""
    shape = (rule.nr, rule.nphi, rule.nz)
    w3 = rule.wr[:, None, None] * rule.wphi[None, :, None] * rule.wz[None, None, :]
    return [np.broadcast_to(c, shape) * w3 for c in comps]


def _pair_sum(weighted_i, plain_j) -> complex:
    total = 0.0 + 0.0j
    for wc, pc in zip(weighted_i, plain_j):
        total += complex(np.einsum("ijk,ijk->", np.conj(pc), wc))
    return total


def dense_gram(modes, rule, evaluator):
    """G_ij = sum over all nr*nphi*nz nodes of w conj(F_i) . F_j.

    evaluator(md, r, phi, z) returns a tuple of components.
    """
    r, phi, z = rule.grid()
    fields = [evaluator(md, r, phi, z) for md in modes]
    weighted = [_weighted(rule, comps) for comps in fields]
    shape = (rule.nr, rule.nphi, rule.nz)
    plain = [[np.broadcast_to(c, shape) for c in comps] for comps in fields]
    n = len(modes)
    gram = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            gram[i, j] = _pair_sum(weighted[j], plain[i])
    return gram


def rz_gram(modes, rule, evaluator):
    """G_ij from full (r, z) planes: evaluator(md, r, phi, z) at phi = 0 on the
    rule's (r, z) nodes, weighted by sqrt(w_r w_z), one complex GEMM over every
    node and component, times Phi(m_j - m_i) = sum_phi w_phi e^{i (m_j - m_i) phi}."""
    r, z = rule.r[:, None], rule.z[None, :]
    sqrt_w = np.sqrt(np.outer(rule.wr, rule.wz))
    planes = np.array([np.concatenate([(np.broadcast_to(c, sqrt_w.shape) * sqrt_w).ravel()
                                       for c in evaluator(md, r, 0.0, z)]) for md in modes])
    m = np.array([md.index.m for md in modes])
    phi_sum = np.exp(1j * (m[None, :, None] - m[:, None, None]) * rule.phi) @ rule.wphi
    return (np.conj(planes) @ planes.T) * phi_sum


def masked_gram(modes, rule, *row_sets):
    """_gram's sum over every pair (i, j) of the n x n matrix, each entry then
    multiplied by the exact phi sum: sum w_phi when m_j = m_i mod nphi, else
    0.  Reads the production factor tables; the reference for summing only
    the in-class pairs."""
    s, c, radial, r_at, axial, z_at = _tables(modes, rule.r, rule.z)
    a = s * c
    g_r, g_z = (t @ t.T for t in (radial * np.sqrt(rule.wr), axial * np.sqrt(rule.wz)))
    m = np.array([md.index.m for md in modes], dtype=int)
    phi_sum = np.where((m[None, :] - m[:, None]) % rule.nphi == 0, rule.wphi.sum(), 0.0)
    return [sum(np.outer(np.conj(a[k]), a[k]) * g_r[np.ix_(r_at[k], r_at[k])] * g_z[np.ix_(z_at[k], z_at[k])]
                for k in range(7)[rows]) * phi_sum for rows in row_sets]


def dense_project(e_sampler, b_sampler, modes, rule):
    """Mode amplitudes from sampled E and B, one dense 3-D sum per mode."""
    r, phi, z = rule.grid()
    e = _weighted(rule, [np.asarray(c) for c in e_sampler(r, phi, z)])
    b = _weighted(rule, [np.asarray(c) for c in b_sampler(r, phi, z)])
    shape = (rule.nr, rule.nphi, rule.nz)
    out = np.zeros(len(modes), dtype=complex)
    for i, md in enumerate(modes):
        geom = md.geom
        u = [np.broadcast_to(c, shape) for c in u_grid(md, r, phi, z)]
        v = [np.broadcast_to(c, shape) for c in curl_u_grid(md, r, phi, z)]
        term_e = -1j * math.sqrt(2.0 * geom.eps0 / (geom.hbar * md.omega)) * _pair_sum(e, u)
        term_b = math.sqrt(2.0 * geom.eps0 * md.omega / geom.hbar) / md.k**2 * _pair_sum(b, v)
        out[i] = 0.5 * (term_e + term_b)
    return out


def dense_fields(state, r, phi, z):
    """Real (E, B) components from a per-mode sum of the full u and curl u,
    made real by i (c - c*) and c + c*."""
    geom = state.geom
    shape = np.broadcast_shapes(np.shape(r), np.shape(phi), np.shape(z))
    ce = np.zeros((3, *shape), dtype=complex)
    cb = np.zeros((3, *shape), dtype=complex)
    for md, a in state.entries:
        pe = math.sqrt(geom.hbar * md.omega / (2.0 * geom.eps0)) * a
        pb = math.sqrt(geom.hbar / (2.0 * geom.eps0 * md.omega)) * a
        for i, (u, v) in enumerate(zip(u_grid(md, r, phi, z), curl_u_grid(md, r, phi, z))):
            ce[i] += pe * np.broadcast_to(u, shape)
            cb[i] += pb * np.broadcast_to(v, shape)
    e = 1j * (ce - np.conj(ce))
    b = cb + np.conj(cb)
    assert not np.any(e.imag) and not np.any(b.imag)
    return e.real, b.real


def dense_energy(state, rule):
    """Classical field energy as the 3-D quadrature of dense_fields:
    eps0/2 |E|^2 + |B|^2 / 2 mu0 summed with the weights of every node of
    the rule's grid."""
    geom = state.geom
    e, b = dense_fields(state, *rule.grid())
    density = 0.5 * geom.eps0 * np.sum(e * e, axis=0) + 0.5 / geom.mu0 * np.sum(b * b, axis=0)
    return float(np.sum(_weighted(rule, [density])[0]))


def dense_boundary(mode, samples):
    """The four BoundaryReport fields from the phased u_grid and curl_u_grid:
    tangential u and normal curl u at the wall samples (broadcast), and the
    interior maxima of |u| and |curl u| over the 24 x 24 (r, z) grid of
    Gauss-Legendre nodes of (0, a) and (0, L), at three phi."""
    geom = mode.geom
    r, phi, z = (np.asarray(v, dtype=float) for v in samples)
    u_r, u_phi, u_z = u_grid(mode, r, phi, z)
    v_r, v_phi, v_z = curl_u_grid(mode, r, phi, z)
    on_side = np.abs(r - geom.a) <= 1e-12 * geom.a
    tangential = np.where(on_side, np.hypot(np.abs(u_phi), np.abs(u_z)),
                          np.hypot(np.abs(u_r), np.abs(u_phi)))
    normal_curl = np.where(on_side, np.abs(v_r), np.abs(v_z))
    cells = 0.5 * (np.polynomial.legendre.leggauss(24)[0] + 1.0)
    grid = (geom.a * cells[:, None, None], np.array([0.0, 1.0, 2.5])[None, :, None],
            geom.L * cells[None, None, :])
    return {
        "max_tangential_u": float(np.max(tangential)),
        "max_normal_curl": float(np.max(normal_curl)),
        "interior_max_u": max(float(np.max(np.abs(c))) for c in u_grid(mode, *grid)),
        "interior_max_curl": max(float(np.max(np.abs(c))) for c in curl_u_grid(mode, *grid)),
    }
