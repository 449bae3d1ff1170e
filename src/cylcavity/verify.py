"""Numerical certification of mode-function identities by quadrature.

The cavity integral int_0^a r dr int_0^{2pi} dphi int_0^L dz is done with
a tensor-product rule: Gauss-Legendre in r (the Jacobian r is folded into
the radial weights) and in z, and the uniform rectangle rule in phi; every
QuadratureRule derives all its nodes and weights from its sizes nr, nphi
and nz.  Weights are positive and sum to the cavity volume pi a^2 L.
default_rule sizes a rule for a set of modes: nphi from their largest |m|,
nr and nz from their largest chi = g a and n = h L / pi.

Checks provided, with the suite of `cylcavity verify` (_run_suites) that
runs each:

* scalar products of the potentials against the closed form
  (1/2) |c_norm|^2 V alpha delta_{ss'}  (one polarization at a time),
* gram: the full vector Gram matrix <u_s, u_s'> against the identity;
  GramReport gives max_offdiag, max_diag_deviation, hermiticity_error and
  max_deviation,
* curl: the curl identity <curl u_s, curl u_s'> = k'^2 <u_s, u_s'>, each
  entry judged on the scale sqrt(|lhs_ss lhs_s's'|) (about k k'), both
  sides from one evaluation of the factors, which a verify run shares with
  gram; a check_curl_identity after a Gram on the same rule reads every
  radial table modefield keeps on the rule's radii and makes no Bessel
  sweep; CurlIdentityReport gives max_relative_mismatch,
  max_absolute_mismatch, max_scaled_mismatch and passed.  Each report
  computes all its figures together from its matrices, on the first access
  to any of them, and keeps no other n x n array.  Per report kind, one
  row function (_gram_row, _curl_row) takes a diagonal block's worst
  entries and one np.max merge (_gram_figures, _curl_figures) the figures
  from the rows: a report passes its own matrices as the one block, and a
  verify run each m class as _blocks yields it, so it forms no n x n array;
  a mirror class's block (below) has its class's figures, so a verify run
  reads each mirror pair once,
* boundary: conductor boundary conditions on the walls (vanishing
  tangential u, vanishing normal component of curl u), from the moduli
  |s| |R| |Z|, since |e^{i m phi}| = 1: samples that differ only in phi
  are one node (the 324 default samples are 25 nodes on 9 radii and 9
  heights), and one modefield._tables call per chunk of modes on the
  distinct wall radii and heights and on 24 interior Gauss-Legendre radii
  and heights gives every node by indexing; the default wall layout is
  built once per geometry.  Modes equal in all that _tables reads but the
  sign of m (modefield._reads), such as the +-m partners, have equal
  moduli: _walls evaluates each such class once, and check_boundary reuses
  the figures of its last default-layout check of the same class,
* bessel: residuals and interlacing of the zero tables of orders 0 to 8,
  every residual from one kernel call.

Pair sums are sum-factorized: every component of psi, u and curl u is
s R(r) Z(z) e^{i m phi} on a tensor-product rule, R and Z rows of the
tables of modefield._tables, so the sum over all nodes is, per component,
conj(s_i) s_j times entries of two real 1-D table Grams, [sum_r w_r R_i
R_j] [sum_z w_z Z_i Z_j], times Phi(m_j - m_i), Phi(q) = sum_phi w_phi
e^{i q phi}.  On the uniform phi rule Phi(q) is exactly sum w_phi when
q = 0 mod nphi and 0 otherwise (discrete orthogonality of the trapezoid
rule), so _blocks sums only the pairs of one m class (m mod nphi) and
yields each class's positions and square block as it forms them, by class
size, then m mod nphi; _gram scatters them into a zero matrix for the
reports, and a verify run reads each once, holding one class at a time:
entries between different classes are exactly 0.0, and an aliasing nphi
puts its aliased pairs in one class, so they keep their entries.  A mode
and its -m partner share every table row, s up to the signs of
modefield._flips, so in a set closed under m -> -m class -q mirrors class
q: of the classes of more than _MIRROR_PAIRS pairs _blocks sums only those
with q <= -q mod nphi, and _class_blocks gives each mirror its class's
block with the per-entry sign flip, the bits of the direct sum.  Every row
of s is purely real or purely imaginary, so the blocks are real and summed
in real arithmetic, with the bits of the real parts of the complex sum
(Hermitian symmetry of real data: Sorensen, Jones, Heideman & Burrus,
IEEE Trans. ASSP 35, 849 (1987); discrete orthogonality of the trapezoid
rule: Trefethen & Weideman, SIAM Rev. 56, 385 (2014)).
The r and z factors are summed numerically over the rule's own nodes, so
an under-resolved r or z rule shows as it would in the full 3-D sum.  The
dense per-pair sum, an (r, z)-plane GEMM and the same table sum over every
pair, masked by Phi, are the references in tests/oracles.py.

All reports are deterministic: fixed node sets and a fixed summation
order, so identical inputs give identical bytes.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .bessel import (_KIND_J, _KIND_JPRIME, _ZERO_RESIDUAL_MAX, _as_int, _as_tolerance, _newton_passes, _root_funcs,
                     _zero_tables)
from .modefield import _CURL, _MIRRORED, _PSI, _ROWS, _U, _groups, _mirror, _reads, _tables
from .spectrum import _GEOMETRY_KEYS, CavityGeometry, ModeData, enumerate_modes

DEFAULT_NR = 64
DEFAULT_NZ = 64
_INTERIOR = 24      # interior radii and heights of a wall check's reference maxima
_STACK_PAIRS = 4096     # pairs whose terms _blocks forms in one expression
# pairs a class of a set closed under m -> -m must exceed to be mirrored rather
# than summed (_class_blocks): a smaller one rides in a stacked sum for less than
# its mirror's few scatter calls (mirroring every class of the 20-mode Gram and
# curl checks cost them ~45 us, ~15 %, with no class summed fewer times)
_MIRROR_PAIRS = 256
_RULE_FLOOR = 16        # radial and axial nodes of default_rule beyond those its modes need


@dataclass(frozen=True)
class QuadratureRule:
    """Tensor-product cavity quadrature bound to one geometry.

    geom and the sizes nr, nphi, nz (positive integers) are the whole rule:
    rules with equal ones are equal and hash alike, and every node and weight
    follows from them.  r/z are read-only Gauss-Legendre nodes and weights
    (radial weights include the cylindrical Jacobian r); phi and wphi are the
    uniform nodes 2 pi k / nphi and equal weights 2 pi / nphi, so every rule
    has the exact phi sums _gram and total_energy use.
    """

    geom: CavityGeometry
    nr: int
    nphi: int
    nz: int
    r: np.ndarray = field(init=False, repr=False, compare=False)
    wr: np.ndarray = field(init=False, repr=False, compare=False)
    z: np.ndarray = field(init=False, repr=False, compare=False)
    wz: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("nr", "nphi", "nz"):
            object.__setattr__(self, name, _as_int(name, getattr(self, name), 1))
        (tr, twr), (tz, twz), a, L = _gauss_legendre(self.nr), _gauss_legendre(self.nz), self.geom.a, self.geom.L
        r = 0.5 * a * (tr + 1.0)
        for name, v in zip(("r", "wr", "z", "wz"), (r, 0.5 * a * twr * r, 0.5 * L * (tz + 1.0), 0.5 * L * twz)):
            v.flags.writeable = False
            object.__setattr__(self, name, v)

    @property
    def phi(self) -> np.ndarray:
        return 2.0 * math.pi * np.arange(self.nphi) / self.nphi

    @property
    def wphi(self) -> np.ndarray:
        return np.full(self.nphi, 2.0 * math.pi / self.nphi)

    @property
    def weight_sum(self) -> float:
        return float(np.sum(self.wr) * np.sum(self.wphi) * np.sum(self.wz))

    def grid(self):
        """Coordinate arrays shaped for broadcasting to (nr, nphi, nz)."""
        return (
            self.r[:, None, None],
            self.phi[None, :, None],
            self.z[None, None, :],
        )


@functools.lru_cache(maxsize=32)
def _gauss_legendre(n: int):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def quadrature_rule(
    geom: CavityGeometry,
    nr: int = DEFAULT_NR,
    nphi: int = 8,
    nz: int = DEFAULT_NZ,
) -> QuadratureRule:
    """Build the tensor rule; nphi must exceed every azimuthal difference used."""
    return QuadratureRule(geom, nr, nphi, nz)


def default_nphi(modes) -> int:
    """4 max|m| + 8: resolves the m differences, at most 2 max|m| (2 max|m| + 1
    would do), of pair products, of the modes and their conjugates at -m, and
    of project's fold of a field with the same max|m|."""
    mmax = max((abs(md.index.m) for md in modes), default=0)
    return 4 * mmax + 8


def default_rule(geom: CavityGeometry, modes, nr: int | None = None, nz: int | None = None) -> QuadratureRule:
    """The rule for the pair sums of modes: nphi = default_nphi(modes), and nr
    and nz, where not given, sized from the modes' largest radial argument
    chi = g a and axial index n = h L / pi,

        nr = 16 + ceil(2 chi / 3),    nz = 16 + 2 n,

    16 x 8 x 16 for no modes.  Every row is a Bessel factor of J_m(chi r / a)
    times sin or cos(n pi z / L), and Gauss-Legendre converges geometrically
    once its nodes resolve the oscillation of a pair product (Trefethen, SIAM
    Rev. 50, 67 (2008)).  On the README cavity at omega <= 6.5, 20, 40, 60 and
    80 (20 x 20, 28 x 32, 40 x 48, 52 x 64 and 64 x 82) each 1-D table Gram
    reaches rounding 4 or more nodes below these sizes;
    scripts/quadrature_convergence.py prints that calibration."""
    modes = tuple(modes)
    if nr is None:
        nr = _RULE_FLOOR + math.ceil(2.0 * max((md.chi for md in modes), default=0.0) / 3.0)
    if nz is None:
        nz = _RULE_FLOOR + 2 * max((md.index.n for md in modes), default=0)
    return quadrature_rule(geom, nr=nr, nphi=default_nphi(modes), nz=nz)


def integrate_cavity(f, rule: QuadratureRule) -> complex:
    """Integrate f(r, phi, z) over the cavity.

    f receives broadcastable coordinate arrays (see QuadratureRule.grid)
    and must return values broadcastable to (nr, nphi, nz).
    """
    vals = np.broadcast_to(np.asarray(f(*rule.grid())), (rule.nr, rule.nphi, rule.nz))
    if not np.all(np.isfinite(vals)):
        i, j, k = np.argwhere(~np.isfinite(vals))[0]
        raise ValueError(f"integrand not finite at node r={float(rule.r[i])!r}, "
                         f"phi={float(rule.phi[j])!r}, z={float(rule.z[k])!r}")
    return complex(np.einsum("i,j,k,ijk->", rule.wr, rule.wphi, rule.wz, vals))


def _same_geometry(modes, rule: QuadratureRule) -> None:
    """Raise ValueError naming the first of modes whose geometry is not the rule's."""
    for md in modes:
        if md.geom != rule.geom:
            raise ValueError(f"mode {md.index} belongs to {md.geom}, the quadrature rule to {rule.geom}")


def _real_rows(modes, s, lo: int) -> np.ndarray:
    """Rows lo, lo + 1, ... of _tables' s as reals.  Each row must be purely
    real or purely imaginary over all modes, so that every pair term
    conj(s_i) s_j is real; an imaginary row is taken by its imaginary part,
    as conj(i b_i) i b_j = b_i b_j.  Raises ValueError naming the row and the
    first mode whose entry has a part of the other kind than the row's
    first nonzero entry."""
    imaginary = s.imag.any(axis=1, keepdims=True)
    parts, rest = np.where(imaginary, s.imag, s.real), np.where(imaginary, s.real, s.imag)
    if rest.any():
        k = int(np.argmax(rest.any(axis=1)))
        re, im = s[k].real != 0.0, s[k].imag != 0.0
        j = int(np.argmax(im if re[np.argmax(re | im)] else re))
        raise ValueError(f"row {_ROWS[lo + k]} of mode {modes[j].index} has s = {complex(s[k, j])!r}: "
                         "a row of s must be purely real or purely imaginary over all modes")
    return parts


def _blocks(modes, rule: QuadratureRule, *row_sets):
    """Per class of the modes whose m agree mod nphi, by class size, then m
    mod nphi: the class's positions in modes, in stable order, and for each
    slice of factor rows in row_sets the class's real square block of the
    sums of w conj(row_i) row_j over the nodes and the rows.  The exact phi
    sum Phi(m_j - m_i) is sum w_phi in a class and 0 between classes: per
    row k of _tables, conj(s_ki c_i) s_kj c_j G_R[rho_ki, rho_kj]
    G_Z[zeta_ki, zeta_kj] with the table Grams G = t t^T, t a table times
    sqrt(w) (exactly symmetric, so each block is exactly symmetric), times
    sum w_phi.  Every row of s is real or imaginary (_real_rows), so the
    terms are summed in real arithmetic; their real parts have the bits of
    the complex sum, whose imaginary parts are exactly 0.  Of the classes of
    more than _MIRROR_PAIRS pairs, a set closed under m -> -m
    (modefield._mirror) yields only those with q <= -q mod nphi: class -q
    holds the partners of class q, and its block is class q's with signs
    (_class_blocks).  Classes of one size are formed together, up to
    _STACK_PAIRS pairs, and a class of more pairs in runs of rows within that
    bound, each entry with its bits alone; each class is yielded as formed.
    The modes' _mirror, which _class_blocks reads again during the walk, is
    released when the walk ends (modefield._MIRRORED)."""
    _same_geometry(modes, rule)
    s, c, radial, r_at, axial, z_at = _tables(modes, rule.r, rule.z)
    g_r, g_z = (t @ t.T for t in (radial * np.sqrt(rule.wr), axial * np.sqrt(rule.wz)))
    q, w = np.array([md.index.m for md in modes], dtype=int) % rule.nphi, rule.wphi.sum()
    size = np.bincount(q)[q]
    order = np.lexsort((q, size))       # by class size, then class, then position
    try:
        if len(modes) and size.max() ** 2 > _MIRROR_PAIRS and _mirror(modes)[0] is not None:
            order = order[(size[order] ** 2 <= _MIRROR_PAIRS) | (q[order] <= -q[order] % rule.nphi)]
        # the factors of the first to the last requested row in that order: each stack a run of columns
        lo, hi = min(rows.start for rows in row_sets), max(rows.stop for rows in row_sets)
        a, r, z = (_real_rows(modes, s[lo:hi], lo) * c)[:, order], r_at[lo:hi, order], z_at[lo:hi, order]
        sizes, start = size[order].tolist(), 0
        while start < len(order):       # a stack: the next classes of one size, within _STACK_PAIRS pairs
            k = sizes[start]
            stop = min(start + k * max(1, _STACK_PAIRS // (k * k)), bisect.bisect(sizes, k))
            ai, ri, zi = (v[:, start:stop].reshape(hi - lo, -1, k) for v in (a, r, z))
            sums = [np.empty(ai.shape[1:] + (k,)) for _ in row_sets]
            step = max(1, _STACK_PAIRS // k)       # a larger class is formed step rows at a time
            for i in range(0, k, step):
                terms = ai[..., i:i + step, None] * ai[..., None, :]
                terms *= g_r[ri[..., i:i + step, None], ri[..., None, :]]
                terms *= g_z[zi[..., i:i + step, None], zi[..., None, :]]
                for out, rows in zip(sums, row_sets):
                    np.multiply(sum(terms[rows.start - lo:rows.stop - lo]), w, out=out[:, i:i + step])
            del terms       # while the stack's classes are read, only its sums are held
            for j, at in enumerate(range(start, stop, k)):
                yield order[at:at + k], [v[j] for v in sums]
            start = stop
    finally:        # _class_blocks reads the modes' _mirror during the walk; it keeps them alive no longer
        _MIRRORED.clear()


def _class_blocks(modes, rule: QuadratureRule, *row_sets):
    """Every m class of the modes with its blocks: each class _blocks yields
    and, for a set closed under m -> -m, after each class q != -q mod nphi
    of more than _MIRROR_PAIRS pairs, its mirror -q at the partners'
    positions (modefield._mirror).  Partner rows are the rows with s negated
    where flip says, and a row set's rows flip together mode by mode, so
    mirror entry (i', j') is entry (i, j) negated where the first rows of i
    and j flip differently, with the bits of the direct sum (0.0 - x keeps
    an exact 0 unsigned, as that sum leaves it)."""
    mirror = None       # modefield._mirror, once a class may have a mirror
    for idx, blocks in _blocks(modes, rule, *row_sets):
        yield idx, blocks
        if len(idx) ** 2 <= _MIRROR_PAIRS:
            continue
        q = modes[idx[0]].index.m % rule.nphi
        if q == -q % rule.nphi:
            continue
        partner, flip = mirror = mirror or _mirror(modes)
        if partner is not None:
            flips = (flip[rows.start, idx] for rows in row_sets)
            yield partner[idx], [np.where(f[:, None] != f, 0.0 - block, block) for f, block in zip(flips, blocks)]


def _gram(modes, rule: QuadratureRule, *row_sets) -> list:
    """For each slice of factor rows in row_sets, the complex n x n matrix
    with the class blocks of _class_blocks; every entry between classes is
    exactly 0.0, and every imaginary part too."""
    grams = [np.zeros((len(modes),) * 2, dtype=complex) for _ in row_sets]
    for idx, blocks in _class_blocks(modes, rule, *row_sets):
        for gram, block in zip(grams, blocks):
            gram[idx[:, None], idx] = block
    return grams


def _figure(name: str, doc: str | None = None) -> property:
    """A report property: one entry of the figures the report computes together."""
    return property(lambda rep: rep._figures[name], doc=doc)


def _gram_row(g: np.ndarray) -> list:
    """One square diagonal block's max|off-diagonal|, max|diagonal - 1| and max|g - g^H|."""
    return [np.max(np.abs(g[~np.eye(len(g), dtype=bool)]), initial=0.0),
            np.max(np.abs(np.diag(g) - 1.0), initial=0.0), np.max(np.abs(g - g.conj().T), initial=0.0)]


def _gram_figures(rows) -> dict:
    """GramReport's figures of a matrix that is 0 outside its square diagonal
    blocks, from each block's _gram_row; as in np.max, a NaN anywhere shows."""
    off, diag, hermiticity = np.max(np.reshape(rows, (-1, 3)), axis=0, initial=0.0).tolist()
    return {"max_offdiag": off, "max_diag_deviation": diag, "max_deviation": float(np.max((off, diag))),
            "hermiticity_error": hermiticity}


@dataclass(frozen=True, eq=False)
class GramReport:
    """Inner-product matrix against its expected identity form.

    For the scalar check the matrix is normalized by the closed-form
    diagonal (1/2)|c_norm|^2 V alpha, so the target is the identity in
    both cases.  All figures are computed together from the matrix, on the
    first access to any of them, and kept.
    """

    modes: tuple
    matrix: np.ndarray

    max_offdiag = _figure("max_offdiag")
    max_diag_deviation = _figure("max_diag_deviation")
    hermiticity_error = _figure("hermiticity_error")
    max_deviation = _figure("max_deviation")

    @functools.cached_property
    def _figures(self) -> dict:
        return _gram_figures([_gram_row(self.matrix)])


def check_scalar_orthonormality(modes, rule: QuadratureRule) -> GramReport:
    """Gram matrix of the scalar potentials, one polarization family."""
    modes = tuple(modes)
    sigmas = {md.index.sigma for md in modes}
    if len(sigmas) > 1:
        raise ValueError("scalar orthogonality holds within one polarization; "
                         "pass modes of a single sigma")
    (gram,) = _gram(modes, rule, _PSI)
    expected = np.array([0.5 * md.c_norm**2 * md.geom.volume * md.alpha for md in modes])
    return GramReport(modes=modes, matrix=gram / np.sqrt(np.outer(expected, expected)))


def check_vector_orthonormality(modes, rule: QuadratureRule) -> GramReport:
    """Full Gram matrix <u_i, u_j>, all polarizations and signs of m."""
    modes = tuple(modes)
    return GramReport(modes=modes, matrix=_gram(modes, rule, _U)[0])


@dataclass(frozen=True, eq=False)
class CurlIdentityReport:
    """<curl u_i, curl u_j> compared with k_j^2 <u_i, u_j>, entrywise.

    An entry's absolute floor is abs_tol times its bound sqrt(|lhs_ii lhs_jj|),
    the Cauchy-Schwarz bound of |<curl u_i, curl u_j>| (about k_i k_j), so
    the criterion has no units and does not tighten as the cutoff grows.
    An entry's mismatch is |lhs - rhs| and its scale max(|lhs|, |rhs|); it
    is significant when its scale exceeds abs_tol times its bound, and
    passes when its mismatch is at most max(rel_tol scale, abs_tol bound).
    All figures are computed together from lhs and rhs, on the first access
    to any of them, and kept."""

    modes: tuple
    lhs: np.ndarray
    rhs: np.ndarray
    rel_tol: float
    abs_tol: float

    max_relative_mismatch = _figure("max_relative_mismatch", "Worst mismatch/scale over the significant entries.")
    max_absolute_mismatch = _figure("max_absolute_mismatch", "Worst mismatch over the other entries.")
    max_scaled_mismatch = _figure("max_scaled_mismatch", "Worst mismatch/bound over all entries.")
    passed = _figure("passed", "Whether every entry passes.")

    @functools.cached_property
    def _figures(self) -> dict:
        return _curl_figures([_curl_row(self.lhs, self.rhs, self.rel_tol, self.abs_tol)])


def _curl_row(lhs: np.ndarray, rhs: np.ndarray, rel_tol: float, abs_tol: float) -> list:
    """One square diagonal block pair's relative, absolute and scaled
    mismatch, and 1.0 if an entry of it fails, else 0.0."""
    mismatch = np.abs(lhs - rhs)
    scale = np.maximum(np.abs(lhs), np.abs(rhs))
    norms = np.abs(np.diag(lhs))
    bound = np.sqrt(np.outer(norms, norms))
    sig = scale > abs_tol * bound
    row = [np.max(mismatch[sig] / scale[sig], initial=0.0), np.max(mismatch[~sig], initial=0.0),
           np.max(mismatch / bound, initial=0.0)]
    # in place, scale becomes each entry's floor max(rel_tol scale, abs_tol bound)
    np.maximum(np.multiply(scale, rel_tol, out=scale), np.multiply(bound, abs_tol, out=bound), out=scale)
    return [*row, float(not np.all(mismatch <= scale))]


def _curl_figures(rows) -> dict:
    """CurlIdentityReport's figures of an lhs and rhs that are 0 outside their
    square diagonal blocks, from each block pair's _curl_row; as in np.max, a
    NaN anywhere shows.  An entry outside the blocks passes and adds 0 to
    every figure while each |lhs_ii| is positive and finite and abs_tol >= 0."""
    relative, absolute, scaled, failed = np.max(np.reshape(rows, (-1, 4)), axis=0, initial=0.0).tolist()
    return {"max_relative_mismatch": relative, "max_absolute_mismatch": absolute, "max_scaled_mismatch": scaled,
            "passed": not failed}


def check_curl_identity(
    modes,
    rule: QuadratureRule,
    rel_tol: float = 1e-8,
    abs_tol: float = 1e-12,
) -> CurlIdentityReport:
    """Both matrices from one evaluation of the factors of u and curl u."""
    rel_tol, abs_tol = _as_tolerance("rel_tol", rel_tol), _as_tolerance("abs_tol", abs_tol)
    modes = tuple(modes)
    u_gram, curl_gram = _gram(modes, rule, _U, _CURL)
    rhs = u_gram * np.array([md.k**2 for md in modes])
    return CurlIdentityReport(modes=modes, lhs=curl_gram, rhs=rhs, rel_tol=rel_tol, abs_tol=abs_tol)


# ------------------------------------------------------------- boundary

@dataclass(frozen=True)
class BoundaryReport:
    """Wall behaviour of one mode against its interior magnitude."""

    mode: ModeData
    max_tangential_u: float
    max_normal_curl: float
    interior_max_u: float
    interior_max_curl: float

    @property
    def tangential_ratio(self) -> float:
        return self.max_tangential_u / self.interior_max_u

    @property
    def normal_curl_ratio(self) -> float:
        return self.max_normal_curl / self.interior_max_curl


def wall_samples(geom: CavityGeometry, n_r: int = 9, n_phi: int = 12, n_z: int = 9):
    """Deterministic sample points covering the three conducting walls."""
    n_r, n_phi, n_z = (_as_int(name, v, 1) for name, v in (("n_r", n_r), ("n_phi", n_phi), ("n_z", n_z)))
    rs = np.linspace(0.0, geom.a, n_r)
    phis = 2.0 * math.pi * np.arange(n_phi) / n_phi
    zs = np.linspace(0.0, geom.L, n_z)
    side_phi, side_z = np.meshgrid(phis, zs, indexing="ij")
    cap_r, cap_phi = np.meshgrid(rs, phis, indexing="ij")
    r = np.concatenate([np.full(side_phi.size, geom.a), cap_r.ravel(), cap_r.ravel()])
    phi = np.concatenate([side_phi.ravel(), cap_phi.ravel(), cap_phi.ravel()])
    z = np.concatenate([side_z.ravel(), np.zeros(cap_r.size), np.full(cap_r.size, geom.L)])
    return r, phi, z


def _wall_nodes(geom: CavityGeometry, samples):
    """The nodes one wall check evaluates, (r, z, r_at, z_at, on_side): r and z
    the distinct radii and heights of the wall samples followed by the
    _INTERIOR Gauss-Legendre nodes of (0, a) and of (0, L), and per distinct
    wall node (r, z) its index into r and into z and whether it lies on the
    side wall (else on a cap).  Raises ValueError naming the first sample
    that is on no wall.

    The interior nodes set the reference maxima, so they must not alias:
    cos(24 pi t) vanishes on every cell centre t = (i + 1/2)/24, while on
    the 24 Gauss-Legendre nodes of (0, 1) max|cos n pi t| >= 0.70 and
    max|sin n pi t| >= 0.69 for every n <= 2000."""
    r, phi, z = (np.asarray(v, dtype=float).ravel() for v in np.broadcast_arrays(*samples))
    if not r.size:
        raise ValueError("no wall samples given")
    on_side = np.abs(r - geom.a) <= 1e-12 * geom.a
    on_cap = np.minimum(np.abs(z), np.abs(geom.L - z)) <= 1e-12 * geom.L
    off_wall = ~(on_side | on_cap)
    if np.any(off_wall):
        i = int(np.nonzero(off_wall)[0][0])
        raise ValueError(f"sample {i} (r={r[i]}, phi={phi[i]}, z={z[i]}) is not on a wall")
    # |e^{i m phi}| = 1, so samples that differ only in phi are one node;
    # every np.unique asks for an index (a plain call imports numpy.ma)
    rs, r_of = np.unique(r, return_inverse=True)
    zs, z_of = np.unique(z, return_inverse=True)
    nodes, first = np.unique(r_of * zs.size + z_of, return_index=True)
    interior = quadrature_rule(geom, nr=_INTERIOR, nz=_INTERIOR)
    return (np.concatenate([rs, interior.r]), np.concatenate([zs, interior.z]),
            nodes // zs.size, nodes % zs.size, on_side[first])


@functools.lru_cache(maxsize=32)
def _default_walls(geom: CavityGeometry):
    """_wall_nodes of wall_samples(geom) with its default sizes, read-only and
    built once per geometry: 25 wall nodes on 9 radii and 9 heights."""
    nodes = _wall_nodes(geom, wall_samples(geom))
    for v in nodes:
        v.flags.writeable = False
    return nodes


_LAST_WALLS: dict = {}      # (geometry, *_reads) of the last default-layout check_boundary -> its figures


def check_boundary(mode: ModeData, samples=None) -> BoundaryReport:
    """Tangential u and normal curl u on the walls, vs interior maxima.  Modes
    with the same radial function (|m|, g), such as the +-m partners, share
    its radial table, which modefield keeps on the wall radii.  On the default
    wall layout a mode of the same geometry and modefield._reads as the one
    checked just before it, such as its -m partner (enumerate_modes lists the
    partners together), takes that check's figures, which are its own bit for
    bit (_walls); samples a caller passes are evaluated on every call."""
    if samples is not None:
        return BoundaryReport(mode, *_walls((mode,), samples)[:, 0].tolist())
    key = (mode.geom, *_reads(mode))
    figures = _LAST_WALLS.get(key)
    if figures is None:
        figures = _walls((mode,))[:, 0].tolist()
        _LAST_WALLS.clear()
        _LAST_WALLS[key] = figures
    return BoundaryReport(mode, *figures)


def _walls(modes, samples=None) -> np.ndarray:
    """The four maxima of BoundaryReport, a (4, n) array with one column per mode
    of modes (one geometry), on the same samples, the default wall layout when
    samples is None.  The figures are moduli, so modes of equal modefield._reads,
    such as the +-m partners, have the same bits: each such class is evaluated
    once, for its first mode, and its column copied to the others.  Per chunk of
    whole |m| groups of those (modefield._groups, which bounds the memory), one
    modefield._tables call on the nodes of _wall_nodes."""
    first = {}      # _reads -> the position of its first mode
    of = [first.setdefault(_reads(md), j) for j, md in enumerate(modes)]
    firsts = list(first.values())
    maxima = np.empty((4, len(modes)))
    if not firsts:
        return maxima
    geom = modes[0].geom
    r, z, r_at, z_at, on_side = _default_walls(geom) if samples is None else _wall_nodes(geom, samples)
    for chunk in _groups([abs(modes[j].index.m) for j in firsts], r.size):
        chunk = [firsts[i] for i in chunk]
        s, c, radial, rho, axial, zeta = _tables(tuple(modes[j] for j in chunk), r, z)
        # the moduli are |s| |R| |Z| since |e^{i m phi}| = 1, so the interior
        # maxima over the grid of interior radii and heights are |s| max|R| max|Z|
        s, R, Z = np.abs(s)[..., None], np.abs(radial)[rho], np.abs(c[:, None] * axial[zeta])
        wall = s * R[..., r_at] * Z[..., z_at]     # (row, mode, node)
        inner = s[..., 0] * R[..., -_INTERIOR:].max(axis=-1) * Z[..., -_INTERIOR:].max(axis=-1)
        tangential = np.where(on_side, np.hypot(wall[2], wall[3]), np.hypot(wall[1], wall[2]))
        normal_curl = np.where(on_side, wall[4], wall[6])
        maxima[:, chunk] = tangential.max(1), normal_curl.max(1), inner[_U].max(0), inner[_CURL].max(0)
    return maxima if len(firsts) == len(modes) else maxima[:, of]


# --------------------------------------------------------------- suites

_SUITES = ("bessel", "gram", "curl", "boundary")


def _bessel_suite(tol: float) -> dict:
    count, orders = 8, range(9)
    keys = [(m, kind) for kind in (_KIND_J, _KIND_JPRIME) for m in orders]
    found = _zero_tables({key: count for key in keys})
    tables = np.array([found[key][:count] for key in keys])
    # every table's residual from one kernel call over all the zeros
    resid = np.abs(_root_funcs(np.repeat([m for m, _ in keys], count),
                               np.repeat([kind == _KIND_J for _, kind in keys], count),
                               tables.ravel(), with_derivative=False)).reshape(tables.shape)
    worst = np.unravel_index(np.argmax(resid), resid.shape)
    if resid[worst] >= _ZERO_RESIDUAL_MAX:
        m, kind = keys[worst[0]]
        raise ValueError(f"zero table residual {resid[worst]:.3e} exceeds {_ZERO_RESIDUAL_MAX:g} "
                         f"at zero {worst[1] + 1} of kind {kind!r}, order {m}")
    interlacing_ok = True
    for (m, kind), zeros, prev in zip(keys[1:], tables[1:], tables[:-1]):
        # zeros of consecutive orders strictly interlace; the pair (0, 1) of
        # kind jprime is exempt because x = 0 is not counted as a zero of J_0'
        if m > 0 and not (kind == _KIND_JPRIME and m == 1):
            interlacing_ok &= bool(np.all(prev < zeros))
            interlacing_ok &= bool(np.all(zeros[:-1] < prev[1:]))
    passes = max(max(_newton_passes(m, kind, count)) for m, kind in keys)
    max_residual = float(resid[worst])
    return {"interlacing_ok": interlacing_ok, "max_newton_iterations": passes,
            "max_residual": max_residual, "orders_checked": len(orders),
            "passed": bool(interlacing_ok and max_residual <= tol), "tolerance": tol,
            "zeros_per_order": count}


def _run_suites(geom: CavityGeometry, omega_max: float, suites, nr: int | None, nz: int | None,
                tolerances: dict) -> dict:
    """The `cylcavity verify` report: each requested suite of _SUITES on the modes
    with omega <= omega_max, gram and curl on their default_rule with nr and nz,
    each checked first where given, else sized from the modes; tolerances holds
    gram_tol, curl_rel_tol, curl_abs_tol, boundary_tol and bessel_tol.  gram
    and curl read the rows of each class _blocks yields: for these modes,
    closed under m -> -m, one class of each mirror pair of more than
    _MIRROR_PAIRS pairs, whose figures are its mirror's too."""
    nr, nz = (None if v is None else _as_int(name, v, 1) for name, v in (("nr", nr), ("nz", nz)))
    tolerances = {key: _as_tolerance(key, v) for key, v in tolerances.items()}
    modes = tuple(enumerate_modes(geom, omega_max))
    out = {}
    if "bessel" in suites:
        out["bessel"] = _bessel_suite(tolerances["bessel_tol"])
    if "gram" in suites or "curl" in suites:
        rule = default_rule(geom, modes, nr=nr, nz=nz)
        ksq, gram_rows, curl_rows = np.array([md.k**2 for md in modes]), [], []
        # both suites' rows from each summed class as it is formed, so one class is held at a time
        for idx, (u, *curl) in _blocks(modes, rule, *((_U, _CURL) if "curl" in suites else (_U,))):
            if "gram" in suites:
                gram_rows.append(_gram_row(u))
            if curl:
                curl_rows.append(_curl_row(*curl, u * ksq[idx], tolerances["curl_rel_tol"], tolerances["curl_abs_tol"]))
    if "gram" in suites:
        figures = _gram_figures(gram_rows)
        passed = bool(figures.pop("max_deviation") <= tolerances["gram_tol"])
        out["gram"] = {**figures, "mode_count": len(modes), "passed": passed, "tolerance": tolerances["gram_tol"]}
    if "curl" in suites:
        out["curl"] = {**_curl_figures(curl_rows), "abs_tolerance": tolerances["curl_abs_tol"],
                       "mode_count": len(modes), "rel_tolerance": tolerances["curl_rel_tol"]}
    if "boundary" in suites:
        walls, tol = _walls(modes), tolerances["boundary_tol"]
        worst_t, worst_n = np.max(walls[:2] / walls[2:], axis=1, initial=0.0).tolist()    # over the interior maxima
        out["boundary"] = {"max_normal_curl_ratio": worst_n, "max_tangential_ratio": worst_t, "mode_count": len(modes),
                           "passed": bool(worst_t <= tol and worst_n <= tol), "tolerance": tol}
    return {"geometry": {key: getattr(geom, name) for key, name in _GEOMETRY_KEYS}, "mode_count": len(modes),
            "omega_max": omega_max, "passed": all(s["passed"] for s in out.values()), "suites": out}
