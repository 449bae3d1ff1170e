"""Classical fields of the quantized expansion, energy, and projection.

A field state is a finite set of modes with complex amplitudes a_s at a
common time t.  The physical fields are

    E = i sum_s sqrt(hbar omega_s / 2 eps0) [a_s u_s - a_s* u_s*]
    B =   sum_s sqrt(hbar / 2 eps0 omega_s) [a_s curl u_s + a_s* curl u_s*]

which are exactly real by construction: E = i (c - c*) = 2 Re (i c) and
B = c + c* = 2 Re c of one complex sum c each.  Every component of u_s and
curl u_s is s R_s(r) Z_s(z) e^{i m_s phi}, taken from modefield._walk one
chunk of |m_s| groups at a time, to bound the memory of the factors, with
each chunk's modes in |m| order.  As Re(b e^{-i|m| phi}) = Re(conj(b)
e^{i|m| phi}), a mode with m < 0 enters the slot of |m| with b conjugated.
Synthesis is two real contractions: per |m| and component the (r, z)
planes of Re c_|m| and Im c_|m| are R diag(2 p a s) Z^T, and one
contraction of every |m|'s planes with [cos |m| phi, -sin |m| phi] is the
real inverse DFT over |m|.  The planes are laid out slot-major, (|m|,
Re/Im, component, r, z), so the modes of one |m| are a slice of a chunk's
factors and its planes one contiguous block; the inverse DFT reads the
leading axes in place as its contracted axis.  _contract runs both, a
GEMM on a tensor grid and batched dots on scattered points; per chunk it
lays out the factors once and runs one matmul per |m| block.
Time evolution multiplies each amplitude by e^{-i omega_s dt}; with that
rule (E, B) satisfies the free-space Maxwell equations, and the classical
field energy

    int [ eps0/2 |E|^2 + 1/(2 mu0) |B|^2 ] dV  =  sum_s hbar omega_s |a_s|^2

is time independent.  total_energy takes the rule's quadrature of the
left side without synthesizing E or B: it is the same discrete sum over
every node, formed from the factor tables (modefield._tables).  A real
field row holds each mode at m_s and its conjugate at -m_s, so, as in
synthesis, the slot of |m| takes the modes of -|m| conjugated and stands
for the conjugates at -|m| too.  The uniform phi rule of every
QuadratureRule sums e^{i q phi} to sum w_phi when q = 0 mod nphi and to
0 otherwise (trapezoid rule), so only members of one slot meet; the
(r, z) sums of each, still numeric, are small Grams of the radial and
axial table rows it uses (sum factorization).  An nphi that aliases two
of the modes and their conjugates makes total_energy and project raise
ValueError (_classes); a coarse r or z rule errs as the 3-D sum does.
The zero-point contribution sum_s hbar omega_s / 2 of a truncated mode
set is reported separately by zero_point_energy and is never folded into
the classical total (it diverges with the cutoff).

Amplitudes can be recovered from sampled fields: with the inner product
<f, g> = int f* . g dV,

    a_s = 1/2 [ -i sqrt(2 eps0 / hbar omega_s) <u_s, E>
                + sqrt(2 eps0 omega_s / hbar) / k_s^2 <curl u_s, B> ]

The two halves each equal a_s plus opposite-sign leakage from the
conjugate (-m) partner mode, so their mean is exact; the averaging is
what makes the projection safe for states containing +-m pairs.
project samples E and B once on the rule grid, rejects a sampler without
three components and a sample that is not finite or not real, folds phi
by one real GEMM per component into a real (component, Re/Im, |m|, r, z)
array, and contracts each inner product, per |m|, as one real matmul,
sum_c conj(s_c) R_c^T hat_{c, m} Z_c from modefield._walk on the rule's
nodes; a real sample's fold at -m is the conjugate of that at |m|, so a
mode with m < 0 takes the |m| fold with its imaginary part negated.  After
total_energy or the samplers on the same rule, every radial table is one
modefield keeps on the rule's radii, and project makes no Bessel sweep.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .bessel import _as_complex, _as_real, _runs
from .modefield import _CURL, _U, CylPoint, _phase, _tables, _walk
from .spectrum import CavityGeometry, ModeData
from .verify import QuadratureRule, _same_geometry


@dataclass(frozen=True)
class FieldState:
    """Mode amplitudes a_s at time t inside one cavity."""

    geom: CavityGeometry
    entries: tuple
    t: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "t", _as_real("FieldState.t", self.t))
        if not math.isfinite(self.t):
            raise ValueError(f"time must be finite, got {self.t!r}")
        entries, seen = [], set()
        for k, (md, a) in enumerate(self.entries):
            if not isinstance(md, ModeData):
                raise ValueError(f"entries must pair ModeData with amplitudes, got {md!r}")
            if md.geom != self.geom:
                raise ValueError(f"mode {md.index} belongs to a different geometry")
            if md.index in seen:
                raise ValueError(f"duplicate mode {md.index} in state")
            seen.add(md.index)
            entries.append((md, _as_complex(f"amplitude of entry {k}", a)))
        object.__setattr__(self, "entries", tuple(entries))

    @property
    def modes(self) -> tuple:
        return tuple(md for md, _ in self.entries)

    @property
    def amplitudes(self) -> np.ndarray:
        return np.array([a for _, a in self.entries], dtype=complex)


def evolve(state: FieldState, dt: float) -> FieldState:
    """Advance by dt: a_s -> a_s e^{-i omega_s dt}."""
    dt = _as_real("dt", dt)
    if not math.isfinite(dt):
        raise ValueError(f"dt must be finite, got {dt!r}")
    entries = tuple(
        (md, a * cmath.exp(-1j * md.omega * dt)) for md, a in state.entries
    )
    return FieldState(geom=state.geom, entries=entries, t=state.t + dt)


def _contract(a, b, out=None, runs=None) -> np.ndarray:
    """sum_j a[..., j] b[..., j] over broadcast leading axes, as one matmul: an
    axis where only a varies is a GEMM row, one where only b varies a column,
    and one where both vary a batch axis.  With out, an array of the
    broadcast shape, the result is written into it: straight from the
    matmul when out's last column axis has unit stride, its row axes merge
    and each GEMM is at least 2 x 2 (leading column axes that cannot merge
    with the rest become batch axes, broadcast in a), else by a copy.
    With runs of (lo, hi, k), out[k] gets j in lo:hi: operands laid out once, a matmul per run."""
    nd, n = max(a.ndim, b.ndim) - 1, a.shape[-1]
    sa, sb = ((1,) * (nd + 1 - v.ndim) + v.shape[:-1] for v in (a, b))
    full = np.broadcast_shapes(sa, sb)
    kind = [(x != 1) + 2 * (y != 1) for x, y in zip(sa, sb)]
    batch, rows, cols, ones = ([i for i in range(nd) if kind[i] == k] for k in (3, 1, 2, 0))
    size = lambda axes: math.prod(full[i] for i in axes)
    blocks, runs = (out, runs) if runs is not None else (None if out is None else out[None], [(0, n, 0)])

    def operands(lead, cols, merge):    # the matmul's (batch..., rows, n) and (batch..., n, cols)
        head = lambda shape: [math.prod(shape[i] for i in lead)] if merge else [shape[i] for i in lead]
        lhs = a.reshape(*sa, n).transpose(*lead, *rows, *cols, *ones, nd)
        rhs = b.reshape(*sb, n).transpose(*lead, *cols, *rows, *ones, nd)
        return (lhs.reshape(*head(sa), size(rows), n),
                rhs.reshape(*head(sb), size(cols), n).swapaxes(-1, -2))

    if out is not None and cols and blocks[0].strides[cols[-1]] == out.itemsize and _merges(blocks[0], rows):
        split = next(k for k in range(len(cols)) if _merges(blocks[0], cols[k:]))
        lead, rest = batch + cols[:split], cols[split:]
        if min(size(rows), size(rest)) >= 2:    # GEMMs, as on the copy path
            lhs, rhs = operands(lead, rest, merge=False)
            views = blocks.transpose(0, *(1 + i for i in lead + rows + rest + ones)).reshape(
                len(blocks), *(full[i] for i in lead), size(rows), size(rest))   # a view: rows and rest merge
            for lo, hi, k in runs:
                np.matmul(lhs[..., lo:hi], rhs[..., lo:hi, :], out=views[k])
            return out
    order = batch + rows + cols + ones
    lhs, rhs = operands(batch, cols, merge=True)
    for lo, hi, k in runs:
        res = np.matmul(lhs[..., lo:hi], rhs[..., lo:hi, :]).reshape([full[i] for i in order])
        res = res.transpose(np.argsort(order))
        if blocks is None:
            return res
        blocks[k][...] = res
    return out


def _merges(out, axes) -> bool:
    """Whether out's axes, in this order, form one strided axis."""
    live = [i for i in axes if out.shape[i] != 1]
    return all(out.strides[i] == out.strides[j] * out.shape[j] for i, j in zip(live, live[1:]))


def _synthesize(state: FieldState, r, phi, z, fields, rate_at=None):
    """Real fields named in `fields` ("E", "B" or "EB"), shaped (field,
    component, ...), from c = sum_s p_s a_s s_s R_s(r) Z_s(z) e^{i m_s phi}:
    E = -2 Im c of u with p = sqrt(hbar omega / 2 eps0), B = 2 Re c of curl u
    with p = sqrt(hbar / 2 eps0 omega).  E rows take i p, since -2 Im c =
    2 Re (i c), so every row is 2 Re c = 2 (Re c cos m phi - Im c sin m phi).
    Per chunk of |m| groups, the factors from modefield._walk, whose modes
    are in |m| order: the modes of each |m| are one slice of R, of Z
    diag(Re, Im of 2 p a s, conjugated for m < 0) and of the coefficients.
    One _contract per chunk and output writes, per |m|, the (Re/Im,
    component, r, z) planes of c_|m| into the block planes[slot of |m|].
    Then one _contract of the planes with [cos |m| phi, -sin |m| phi], the
    real inverse DFT over |m|, reads their leading (slot, Re/Im) axes in place.

    With rate_at, indices into the point axes of r, phi and z (each padded
    to the points' dimensions), returns (fields, rates): rates are the time
    derivatives of the same fields (a_s -> -i omega_s a_s) on the nodes
    those indices pick, contracted from the same factors, so both share
    one sweep per chunk."""
    geom, modes = state.geom, state.modes
    shape = np.broadcast_shapes(np.shape(r), np.shape(phi), np.shape(z))
    r, phi, z = (np.reshape(v, (1,) * (len(shape) - np.ndim(v)) + np.shape(v))
                 for v in (r, phi, z))
    rows = {"E": _U, "B": _CURL, "EB": slice(_U.start, _CURL.stop)}[fields]   # u for E, curl u for B
    slot = {mv: j for j, mv in enumerate(dict.fromkeys(abs(md.index.m) for md in modes))}
    omega = np.array([md.omega for md in modes])
    p = np.array([1j * np.sqrt(geom.hbar * omega / (2.0 * geom.eps0)),
                  np.sqrt(geom.hbar / (2.0 * geom.eps0 * omega))])
    scale = np.repeat(p[["EB".index(f) for f in fields]], 3, axis=0)
    # per output, 2 p a and an index into the point axes: the fields, then their rates
    outputs = [(2.0 * state.amplitudes * scale, ((), (), ()))]
    if rate_at is not None:
        outputs.append((2.0 * (-1j * omega * state.amplitudes) * scale, rate_at))
    planes = [np.empty((len(slot), 2, len(scale), *np.broadcast_shapes(r[at_r].shape, z[at_z].shape)))
              for _, (at_r, _, at_z) in outputs]
    for idx, m, s, R, Z, runs in _walk(modes, r, z, rows):
        for (pre, (at_r, _, at_z)), out in zip(outputs, planes):
            coef = s * pre[:, idx]
            np.conjugate(coef, out=coef, where=m < 0)   # Re(b e^{-i|m| phi}) = Re(conj(b) e^{i|m| phi})
            Ra = R[(None, slice(None), *at_r)]      # (1, row, *r, mode)
            Za = Z[(slice(None), *at_z)]
            Zw = Za * np.stack([coef.real, coef.imag]).reshape(2, len(scale), *(1,) * (Za.ndim - 2), -1)
            _contract(Ra, Zw, out=out, runs=[(lo, hi, slot[abs(m[lo])]) for lo, hi in runs])   # per |m|, its block
        del s, R, Z, Ra, Za, Zw     # one chunk's factors live at a time
    phase = _phase(np.array(list(slot), dtype=int), phi)
    dft = np.moveaxis(np.stack([phase.real, -phase.imag], axis=-1), 0, -2)   # Re c cos - Im c sin
    outs = []
    for (_, (at_r, at_phi, at_z)), out in zip(outputs, planes):
        table = dft[at_phi]
        # the planes' leading (slot, Re/Im) axes as the contracted axis: a view, no copy
        outs.append(_contract(table.reshape(*table.shape[:-2], 2 * len(slot)),
                              np.moveaxis(out.reshape(2 * len(slot), *out.shape[2:]), 0, -1)).reshape(
            len(fields), 3, *np.broadcast_shapes(r[at_r].shape, table.shape[:-2], z[at_z].shape)))
    return outs[0] if rate_at is None else tuple(outs)


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
    """Classical field energy by the rule's quadrature; equals sum hbar omega |a|^2.

    The same discrete sum as eps0/2 |E|^2 + |B|^2 / 2 mu0 over every node,
    without the 3-D fields.  Each row of E and B is Re X on the nodes, X =
    sum_i beta_i R_i(r) Z_i(z) e^{i m_i phi}, and Y = 2 Re X = X + conj(X)
    is the sum of the slots Y_|m| e^{i |m| phi} and their conjugates: as in
    _synthesize, slot |m| takes beta of m = |m| and conj beta of m = -|m|,
    and slot 0 takes beta + conj beta.  With the phi rule exact (_classes
    raises otherwise), the weighted sum of (Re X)^2 = Y^2 / 4 is sum w_phi / 4
    times |Y_0|^2 + 2 sum |Y_|m||^2.  Per slot, the coefficients scatter into
    A[row, rho, zeta] over the radial and axial table rows it uses, and the
    (r, z) sum is sum conj(A) G_R A G_Z, with the 1-D Grams G_R = T_R
    diag(w_r) T_R^T of those radial rows alone and G_Z of the axial table;
    they stay numeric, so a coarse r or z rule shows as in the full 3-D sum."""
    geom, modes = state.geom, state.modes
    _same_geometry(modes, rule)
    if not modes:
        return 0.0
    _classes(modes, rule.nphi)
    r, _, z = rule.grid()
    s, c, radial, r_at, axial, z_at = _tables(modes, r, z)
    rows = slice(_U.start, _CURL.stop)
    m, omega = np.array([md.index.m for md in modes]), np.array([md.omega for md in modes])
    # beta of the E rows (i p) and of the B rows (p), 2 p a c s, each times the
    # square root of its energy density's factor, eps0 / 2 or 1 / (2 mu0)
    p = np.repeat([1j * np.sqrt(geom.hbar * omega / (2.0 * geom.eps0)) * math.sqrt(0.5 * geom.eps0),
                   np.sqrt(geom.hbar / (2.0 * geom.eps0 * omega)) * math.sqrt(0.5 / geom.mu0)], 3, axis=0)
    beta = s[rows] * p * (2.0 * state.amplitudes * c)
    np.conjugate(beta, out=beta, where=m < 0)   # -m enters the slot of |m| conjugated, as in _synthesize
    r_at, z_at, g_z = r_at[rows], z_at[rows], (axial * rule.wz) @ axial.T
    order, runs = _runs(np.abs(m))
    total = 0.0
    for lo, hi in runs:
        j = order[lo:hi]
        (rho, at_rho), (zeta, at_zeta) = (np.unique(v[:, j], return_inverse=True) for v in (r_at, z_at))
        shape = (len(beta), len(rho), len(zeta))
        at = np.ravel_multi_index((np.arange(len(beta))[:, None], at_rho.reshape(-1, len(j)),
                                   at_zeta.reshape(-1, len(j))), shape).ravel()
        b, weight = beta[:, j].ravel(), 2.0     # slot |m| > 0 stands for itself and its conjugate at -|m|
        if m[j[0]] == 0:
            b, weight = b + b.conj(), 1.0       # Y_0 holds each mode and its conjugate
        # A[Re/Im, row, rho, zeta], and the same parts of G_R A G_Z
        A = np.array([np.bincount(at, part, math.prod(shape)) for part in (b.real, b.imag)])
        t = radial[rho]
        GA = ((t * rule.wr) @ t.T) @ (A.reshape(-1, len(zeta)) @ g_z[zeta[:, None], zeta]).reshape(-1, *shape[1:])
        total += weight * (A.ravel() * GA.ravel()).sum()     # numpy's sum: no BLAS threads
    return float(0.25 * rule.wphi.sum() * total)


def _classes(modes, nphi: int) -> None:
    """Raise ValueError when the phi rule aliases two members of the modes and
    their conjugates (-m), which a real field holds: names the first two
    neighbours, in stable order of m mod nphi, of one class whose m differ."""
    m = np.outer([1, -1], [md.index.m for md in modes]).ravel()     # the modes, then their conjugates
    order = np.argsort(q := m % nphi, kind="stable")
    clash = np.flatnonzero((np.diff(q[order]) == 0) & (np.diff(m[order]) != 0))
    if clash.size:
        name = lambda i: f"{modes[i].index}" if i < len(modes) else f"the conjugate of {modes[i - len(modes)].index}"
        i, j = order[clash[0]:clash[0] + 2].tolist()
        raise ValueError(f"phi rule aliases {name(i)} (m={m[i]}) and {name(j)} (m={m[j]}): "
                         f"m differs by a multiple of nphi={nphi}")


def mode_sum_energy(state: FieldState) -> float:
    """Closed-form classical energy sum hbar omega_s |a_s|^2."""
    return float(sum(md.geom.hbar * md.omega * abs(a) ** 2 for md, a in state.entries))


def zero_point_energy(state: FieldState) -> float:
    """sum hbar omega / 2 over the truncated mode set (reported separately;
    grows without bound as the cutoff rises)."""
    return float(sum(0.5 * md.geom.hbar * md.omega for md, _ in state.entries))


def project(e_sampler, b_sampler, modes, rule: QuadratureRule) -> np.ndarray:
    """Recover amplitudes of `modes` from sampled E and B fields.

    Each sampler maps the rule's grid() to the real components (r, phi, z).
    Raises ValueError on another number of components, on a sample that is
    not finite or not real (complex with a nonzero imaginary part), and
    when nphi aliases two of the modes and their conjugates (-m), which a real
    field holds: their m differ by a nonzero multiple of nphi (_classes).
    nphi must also exceed max|m| of modes + max|m| of the field, unchecked
    (default_rule(geom, modes) cannot see the field); the |m| fold needs real samples."""
    modes = tuple(modes)
    _same_geometry(modes, rule)
    _classes(modes, rule.nphi)
    r, phi, z = rule.grid()
    shape = (rule.nr, rule.nphi, rule.nz)
    slot = {mv: j for j, mv in enumerate(sorted({abs(md.index.m) for md in modes}))}
    dft = rule.wphi * np.conj(_phase(np.array(list(slot), dtype=int), rule.phi))
    table = np.concatenate([dft.real, dft.imag])    # (Re/Im slot, phi)

    def fold(name, sampler):    # (component, Re/Im, slot, r, z), weights included
        comps = tuple(sampler(r, phi, z))
        if len(comps) != 3:
            raise ValueError(f"{name} sampler returned {len(comps)} components, expected 3 (r, phi, z)")
        hat = np.empty((3, len(table), rule.nr * rule.nz))
        for comp, c, out in zip(("r", "phi", "z"), comps, hat):
            c = np.broadcast_to(np.asarray(c), shape)
            if not (ok := np.isfinite(c) & ((c.imag == 0) if np.iscomplexobj(c) else True)).all():
                i, j, k = np.argwhere(~ok)[0]
                v = c[i, j, k].item()
                raise ValueError(f"{name}_{comp} sample not {'real' if cmath.isfinite(v) else 'finite'} at node "
                                 f"r={float(rule.r[i])!r}, phi={float(rule.phi[j])!r}, z={float(rule.z[k])!r}: {v!r}")
            np.matmul(table, np.moveaxis(c.real, 1, 0).reshape(rule.nphi, -1), out=out)    # a view of phi-major c
        hat *= np.outer(rule.wr, rule.wz).ravel()
        return hat.reshape(3, 2, len(slot), rule.nr, rule.nz)

    # <u_i, E> and <curl u_i, B>: sum_c conj(s_ci) R_ci^T hat_{c, m_i} Z_ci, per
    # m from the walk's factors of u (rows 0-2) and curl u (rows 3-5)
    halves = ((fold("E", e_sampler), slice(0, 3)), (fold("B", b_sampler), slice(3, 6)))
    inner = np.empty((2, len(modes)), dtype=complex)
    for idx, m, s, R, Z, runs in _walk(modes, rule.r, rule.z, slice(_U.start, _CURL.stop)):
        for lo, hi in runs:
            i = np.where(m[lo:hi] < 0, -1j, 1j)     # a real sample's fold at -|m| is the conjugate of that at |m|
            for half, (hat, rows) in enumerate(halves):
                rz = np.sum(R[rows, None, :, lo:hi] * (hat[:, :, slot[abs(m[lo])]] @ Z[rows, None, :, lo:hi]), axis=2)
                inner[half, idx[lo:hi]] = np.sum(np.conj(s[rows, lo:hi]) * (rz[:, 0] + i * rz[:, 1]), axis=0)
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
    """(div, curl, centre value, time derivative) of E and of B: div and curl
    by second-order central differences, d/dt analytic at the centre.  One
    synthesis samples the centre and its six neighbours and gives the time
    derivative at the centre from the same factors."""
    nd = np.broadcast(r, phi, z).ndim
    # the centres as given: row 0, one entry along an axis a coordinate is broadcast on
    centre = tuple((0, *(slice(0, 1) if n == 1 else slice(None)
                         for n in (1,) * (nd - np.ndim(v)) + np.shape(v))) for v in (r, phi, z))
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

    fields, rates = _synthesize(state, rs, ps, zs, "EB", rate_at=centre)
    return [ops(*f) + (tuple(dfdt),) for f, dfdt in zip(fields, rates)]


def maxwell_residual(state: FieldState, points, step: float) -> MaxwellResidualReport:
    """Check the four Maxwell equations at interior points.

    points is a triple of arrays (r, phi, z); every point must be farther
    than `step` from the walls and from the axis so the stencil stays in
    the domain.
    """
    geom = state.geom
    r, phi, z = (np.asarray(v, dtype=float) for v in points)
    step = _as_real("step", step)
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be positive and finite, got {step!r}")
    if np.any(r - step <= 0.0) or np.any(r + step >= geom.a):
        raise ValueError("points must keep r within (step, a - step)")
    if np.any(z - step <= 0.0) or np.any(z + step >= geom.L):
        raise ValueError("points must keep z within (step, L - step)")

    hphi = step / geom.a
    (div_e, curl_e, e_here, de_dt), (div_b, curl_b, b_here, db_dt) = _fd_stencil(
        state, r, phi, z, step, hphi)
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
