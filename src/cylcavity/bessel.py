"""Bessel functions of the first kind and their positive zeros.

Self-contained double-precision evaluation of J_m(x) for integer order,
with no dependency on scipy.special.  Two regimes are used:

* Miller's backward recurrence, normalized by the Neumann sum
  J_0 + 2*J_2 + 2*J_4 + ... = 1, for every x below max(30, m**2/2),
* the Hankel asymptotic expansion above that, where the order is small
  enough for the expansion to reach machine precision.  The phase
  x - (2m+1)pi/4 is never formed explicitly: cos and sin of the offset
  are exactly +-sqrt(2)/2, so the oscillatory factors are recombined
  from cos(x) and sin(x) without cancellation in the argument.

Tiny x, where (x/2)**2/(m+1) < 2**-56 and the recurrence's growth 2k/x
would overflow, takes the series' leading term (x/2)**m / m!: x = 0 gives
exactly 1 for m = 0 and 0 otherwise.  _j_points is the one kernel: every
point carries its own orders (J_{m-1}, J_m, J_{m+1} for the zero finder
and for modefield's chunks, J_|m|, J_|m|+1 for the spectrum), its lowest
order picks the leading term, its highest order and its x set its Miller
start, and each order its own Hankel threshold and length.  None of these
depends on anything else in the array, so J_m(x) has the same bits alone
as inside any batch, and one backward sweep serves every point and
order; _j_orders is the case of the same orders at every point.

Zeros are bracketed on the grid lo0 + i, i = 0, 1, ..., whose unit step
is safely below the minimal spacing of consecutive zeros (> 3.11 for any
order) and whose start lo0 lies below the first zero (near
m + 1.86*m**(1/3)); each grid point is rounded once.  Each sign change is
refined by a bracket-guarded Newton iteration that stops once its step no
longer moves x.  The work is pooled across orders: one _zero_tables
request evaluates the missing grid points of every (m, kind) it names in
one kernel call and refines every new bracket in one Newton pass, each
zero leaving the pass on the step it converges.  The cache (_ROOTS) grows
per (m, kind) by scan cell: each cell is scanned once and each zero
refined once, with the pass on which it converged, so a zero has the same
bits whatever was requested before it or with it.  The derivative zeros
use the recurrence form J_m' = (J_{m-1} - J_{m+1})/2 and the Bessel
equation for J_m''.

Convention: zeros are the strictly positive roots.  In particular the
first zero of J_0' is 3.8317... (the stationary point at x = 0 is not
counted).  Since J_0' = -J_1, the zeros of J_0' are those of J_1, taken
from the same table so the two agree to the last bit.
"""

from __future__ import annotations

import cmath
import math
import numbers
import threading
from dataclasses import dataclass

import numpy as np

_ASYM_X_MIN = 30.0        # Hankel above this and m^2/2: smallest term below round-off
_LEADING_MAX = 2.0 ** -56  # (x/2)^2/(m+1) below this: the series' leading term suffices
_MILLER_EXTRA = 16        # start margin above the recurrence turning point
_MILLER_STRIDE = 8        # starts are multiples of it; overflow is checked as often
_RESCALE_LIMIT = 1e150    # overflow guard
_NEWTON_PASSES = 80       # cap on the pooled Newton pass; zeros converge in 5 to 7
_HANKEL_SIGNS = np.array([(1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)])   # by m mod 4
_KIND_J = "j"
_KIND_JPRIME = "jprime"
_ZERO_RESIDUAL_MAX = 1e-12  # a certified zero's root function evaluates below this


def _asym_min(m):
    """Smallest x where the Hankel expansion of order |m| reaches round-off."""
    return np.maximum(_ASYM_X_MIN, 0.5 * m * m)


def _gather_plan(want: np.ndarray, out: np.ndarray) -> tuple:
    """(target, plan) for writing orders into out, a (slots, points) result:
    plan maps each order of want to (where, at), and the values of that
    order at the points `at` go to target[where].

    Each order is a run of the flat orders (_runs): a run of flat indices
    into out (target is out.ravel()) with the points they fall on.  On a
    stencil-shaped call (3 x 3360 orders of two |m| groups; one Xeon core,
    min of 51) this plan takes 0.15 ms against 0.44 ms for a 2-D nonzero
    per order."""
    flat = want.ravel()
    perm, runs = _runs(flat)
    points = perm % want.shape[1]
    return out.reshape(-1), {int(flat[perm[lo]]): (perm[lo:hi], points[lo:hi]) for lo, hi in runs}


def _leading(hi: np.ndarray, want: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(x/2)^m / m! for each order of want, one factor at a time: a normal
    result never underflows."""
    out = np.empty((len(want), len(x)))
    target, plan = _gather_plan(want, out)
    term = np.ones_like(x)
    for k in range(int(np.max(hi)) + 1):
        if k:
            term = term * (0.5 * x) / k
        if k in plan:
            where, at = plan[k]
            target[where] = term[at]
    return out


def _asymptotic(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Hankel expansion J_m ~ sqrt(2/(pi x)) (P cos w - Q sin w), order m per point.

    With w = x - (2m+1)pi/4 the offset is an odd multiple of pi/4, so
    cos(w), sin(w) are exact +-sqrt(1/2) combinations of cos(x), sin(x).
    """
    mu4 = 4.0 * m * m
    inv8x = 1.0 / (8.0 * x)
    p = np.ones_like(x)
    q = np.zeros_like(x)
    term = np.ones_like(x)
    prev = np.full_like(x, math.inf)
    for j in range(1, 60):
        term = term * ((mu4 - (2 * j - 1) ** 2) / j) * inv8x
        mag = np.abs(term)
        term[mag > prev] = 0.0      # divergent tail reached; truncate at best term
        prev = mag
        sign = -1.0 if (j // 2) % 2 else 1.0
        if j % 2:
            q = q + sign * term
        else:
            p = p + sign * term
        term[mag < 1e-18] = 0.0     # a stopped point carries a zero term
        if not term.any():
            break
    c1, c2 = _HANKEL_SIGNS[m % 4].T
    cx = np.cos(x)
    sx = np.sin(x)
    amp = np.sqrt(1.0 / (math.pi * x))
    return amp * (c1 * (p * cx - q * sx) + c2 * (p * sx + q * cx))


def _miller(hi: np.ndarray, want: np.ndarray, x: np.ndarray) -> np.ndarray:
    """J_{want[s, p]}(x[p]) for every slot s and point p from one backward
    recurrence sweep, normalized by the Neumann sum; want is (slots, points).

    Each point starts at its own index above its turning point max(hi, x),
    with hi its highest order; until then it carries f_k = f_{k+1} = 0,
    which the recurrence keeps.  Each order is gathered as the sweep passes
    it, only at the points that want it."""
    top = np.maximum(hi, np.ceil(x))
    start = top + np.floor(9.0 * top ** (1.0 / 3.0)) + _MILLER_EXTRA
    start += -start % _MILLER_STRIDE
    inv_x = 1.0 / x
    out = np.zeros((len(want), len(x)))
    target, plan = _gather_plan(want, out)
    fk = np.zeros_like(x)
    fkp1 = np.zeros_like(x)
    even_sum = np.zeros_like(x)
    for k in range(int(np.max(start)), 0, -1):
        if k % _MILLER_STRIDE == 0:
            if float(np.max(np.abs(fk))) > _RESCALE_LIMIT:
                # rescale point by point: growth rates differ wildly across
                # the pooled x values and a shared factor would underflow
                # the slow-growing ones
                scale = np.where(np.abs(fk) > _RESCALE_LIMIT, 1.0 / _RESCALE_LIMIT, 1.0)
                fk = fk * scale
                fkp1 = fkp1 * scale
                even_sum = even_sum * scale
                out *= scale
            fk[start == k] = 1e-150     # arbitrary seed; the Neumann sum divides it out
        fkm1 = (2.0 * k) * inv_x * fk - fkp1
        fkp1 = fk
        fk = fkm1
        order = k - 1
        if order in plan:
            where, at = plan[order]
            target[where] = fk[at]
        if order > 0 and not order & 1:
            even_sum += fk
    norm = fk + 2.0 * even_sum          # Neumann sum, f_0 + 2 sum f_{2k}
    return out / norm


def _j_points(orders, x) -> np.ndarray:
    """J_{orders[s, p]}(x[p]) for each slot s and point p of a 1-D x, with
    integer orders of any sign shaped (slots, points).

    The package's one Bessel kernel; the module docstring says how each
    point picks its regime.  J_{-m} = (-1)^m J_m, and values below the
    normal range underflow quietly towards 0, as the true values do.
    """
    x = np.asarray(x, dtype=float)
    if not x.size:
        return np.empty((len(orders), 0))
    x_min, x_max = x.min(), x.max()
    if not (x_min >= 0.0 and x_max < math.inf):
        raise ValueError("bessel_j requires finite x" if not np.all(np.isfinite(x))
                         else "bessel_j requires x >= 0")
    absm = np.abs(orders)
    lo, hi = absm.min(axis=0), absm.max(axis=0)     # per point
    with np.errstate(under="ignore"):
        leading, xm = None, x
        if 0.25 * x_min * x_min <= _LEADING_MAX * (lo.max() + 1.0):
            leading = 0.25 * x * x <= _LEADING_MAX * (lo + 1.0)
            xm = np.where(leading, 1.0, x)      # these ride the sweep at x = 1, then are overwritten
        if x_max < _ASYM_X_MIN:
            out = _miller(hi, absm, xm)
        else:
            out = np.empty((len(absm), len(x)))
            miller = xm < _asym_min(hi)
            if miller.any():
                out[:, miller] = _miller(hi[miller], absm[:, miller], xm[miller])
        if leading is not None and leading.any():
            out[:, leading] = _leading(hi[leading], absm[:, leading], x[leading])
    if x_max >= _ASYM_X_MIN:
        xs, ms = np.broadcast_arrays(x, absm)
        asym = xs >= _asym_min(ms)
        if asym.any():
            out[asym] = _asymptotic(ms[asym], xs[asym])
    if orders.min() < 0:
        out = np.where((orders < 0) & (orders % 2 == 1), -out, out)
    return out


def _j_orders(orders: tuple, x) -> list:
    """J_m(x) for each integer order in `orders` (any sign), shaped like x:
    _j_points with the same orders at every point."""
    xa = np.asarray(x, dtype=float)
    got = _j_points(np.repeat(np.array(orders, dtype=int)[:, None], xa.size, axis=1), xa.reshape(-1))
    return [v.reshape(xa.shape) for v in got]


def bessel_j(m: int, x):
    """J_m(x) for integer m (any sign) and x >= 0, scalar or ndarray."""
    out = _j_orders((_as_int("order m", m),), x)[0]
    return float(out) if out.ndim == 0 else out


def bessel_j_prime(m: int, x):
    """dJ_m/dx via the recurrence (J_{m-1} - J_{m+1})/2."""
    m = _as_int("order m", m)
    jm1, jp1 = _j_orders((m - 1, m + 1), x)
    out = 0.5 * (jm1 - jp1)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------- zeros

def _root_funcs(m, is_j, x: np.ndarray, with_derivative: bool):
    """f(x) (and optionally f'(x)) of the root function of order m, kind "j"
    where is_j holds and "jprime" elsewhere; m and is_j per point or scalar.

    kind "j":       f = J_m,   f' = (J_{m-1} - J_{m+1})/2
    kind "jprime":  f = J_m',  f' = J_m'' = -J_m'/x + (m^2/x^2 - 1) J_m
    """
    m = np.broadcast_to(m, x.shape)
    jm1, jm, jp1 = _j_points(np.stack([m - 1, m, m + 1]), x)
    d = 0.5 * (jm1 - jp1)
    f = np.where(is_j, jm, d)
    if not with_derivative:
        return f
    return f, np.where(is_j, d, -d / x + (m * m / (x * x) - 1.0) * jm)


def _scan_start(m: int, kind: str) -> float:
    # J_m > 0 on (0, j_{m,1}) and J_m' > 0 on (0, j'_{m,1}) for m >= 1;
    # start where the function is far above underflow but below the first zero
    if kind == _KIND_J:
        return 0.5 if m == 0 else m + 0.5
    return 0.3 if m == 0 else max(0.3, 0.7 * m)


class _Roots:
    """The zeros of one root function (m, kind) found so far.

    The scan grid is lo0 + i, i = 0, 1, ...; `scanned` grid points have
    been evaluated, `last` is f at the last of them, and `cells` holds the
    index i of each cell [lo0 + i, lo0 + i + 1] where f changes sign, with
    the sign of f at its lower end.  Every cell found is refined before a
    request returns: `zeros` and `passes` (the Newton pass on which each
    converged) then run parallel to `cells`."""

    def __init__(self, m: int, kind: str):
        self.m, self.kind, self.lo0 = m, kind, _scan_start(m, kind)
        self.scanned, self.last = 0, None
        self.cells, self.signs, self.zeros, self.passes = [], [], [], []

    def to_scan(self, count: int, below: float) -> int:
        """How many more grid points hold the first `count` zeros and every zero <= below."""
        need = 0
        if len(self.cells) < count:
            # first zero near m + 1.86 m^(1/3); later spacing approaches pi
            if self.scanned == 0:
                need = int(1.86 * self.m ** (1.0 / 3.0) + (count + 3) * math.pi + 5.0) + 2
            else:
                need = self.scanned + int((count - len(self.cells) + 2) * math.pi + 5.0) + 1
        if below > self.lo0:
            # up to the first grid point >= below; a zero at or under it lies in a cell before
            need = max(need, math.ceil(below - self.lo0) + 2)
        return max(0, need - self.scanned)

    def add_scan(self, f: np.ndarray) -> None:
        """Record f at the next len(f) grid points and the sign changes it shows."""
        seq = f if self.last is None else np.concatenate([[self.last], f])
        base = self.scanned - (self.last is not None)
        flips = np.nonzero((seq[:-1] * seq[1:] <= 0.0) & ((seq[:-1] != 0.0) | (seq[1:] != 0.0)))[0]
        self.cells += (base + flips).tolist()
        self.signs += np.sign(seq[flips]).tolist()
        self.scanned += len(f)
        self.last = float(f[-1])


def _newton(m, is_j, lo, hi, slo):
    """Bracket-guarded Newton iteration on every point at once; returns the
    zeros and the pass on which each converged (the cap if it did not).

    A point has converged once Newton stops moving x, even onto a bracket
    end; it then leaves the pass, so its zero does not depend on the batch."""
    x = 0.5 * (lo + hi)
    passes = np.full(x.shape, _NEWTON_PASSES)
    live = np.arange(len(x))
    for it in range(1, _NEWTON_PASSES + 1):
        xl = x[live]
        f, fp = _root_funcs(m[live], is_j[live], xl, with_derivative=True)
        shrink_hi = np.sign(f) != slo[live]
        hi[live] = np.where(shrink_hi, xl, hi[live])
        lo[live] = np.where(shrink_hi, lo[live], xl)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(fp != 0.0, f / fp, 0.0)
        xn = xl - step
        now = (fp != 0.0) & (np.abs(step) <= 1e-15 * xl)
        inside = (xn > lo[live]) & (xn < hi[live])
        x[live] = np.where(inside | now, xn, 0.5 * (lo[live] + hi[live]))
        passes[live[now]] = it
        live = live[~now]
        if not live.size:
            break
    return x, passes


def _canonical(m: int, kind: str) -> tuple:
    # J_0' = -J_1: one root finder for both keeps TE(0, mu) and TM(+-1, mu)
    # exactly degenerate
    return (1, _KIND_J) if m == 0 and kind == _KIND_JPRIME else (m, kind)


_ROOTS: dict = {}               # (m, kind) in canonical form -> _Roots
_ROOTS_LOCK = threading.Lock()


def _zero_tables(counts: dict, below: float = 0.0) -> dict:
    """{(m, kind): every zero found so far} holding, for each key of counts,
    at least its first counts[key] zeros and every zero <= below.  The lists
    are the cache's own: read them, do not change them.

    One pooled scan evaluates every missing grid point of every key (a
    second only if the first fell short of a count), and one pooled Newton
    pass refines every new cell."""
    keys = {key: _canonical(*key) for key in counts}
    with _ROOTS_LOCK:
        roots = {c: _ROOTS.get(c) or _ROOTS.setdefault(c, _Roots(*c)) for c in keys.values()}  # built only when new
        need = {c: 0 for c in roots}
        for key, c in keys.items():
            need[c] = max(need[c], counts[key])
        while True:
            todo = [(r, n) for c, r in roots.items() if (n := r.to_scan(need[c], below))]
            if not todo:
                break
            m, is_j, x = _pool([(r, r.lo0 + np.arange(r.scanned, r.scanned + n, dtype=float))
                                for r, n in todo])
            f = _root_funcs(m, is_j, x, with_derivative=False)
            for (r, n), part in zip(todo, np.split(f, np.cumsum([n for _, n in todo])[:-1])):
                r.add_scan(part)
        # the cells not yet refined: zeros run parallel to the cells before them
        new = [(r, np.array(r.cells[len(r.zeros):], dtype=float)) for r in roots.values()]
        new = [(r, i) for r, i in new if i.size]
        if new:
            m, is_j, lo = _pool([(r, r.lo0 + i) for r, i in new])
            hi = np.concatenate([r.lo0 + (i + 1.0) for r, i in new])
            slo = np.concatenate([r.signs[len(r.zeros):] for r, _ in new])
            zeros, passes = _newton(m, is_j, lo, hi, slo)
            at = np.cumsum([i.size for _, i in new])[:-1]
            for (r, _), z, p in zip(new, np.split(zeros, at), np.split(passes, at)):
                r.zeros += z.tolist()
                r.passes += p.tolist()
    return {key: roots[c].zeros for key, c in keys.items()}


def _pool(parts):
    """Per-point order, kind flag and x of [(roots, x), ...], concatenated."""
    m = np.concatenate([np.full(x.size, r.m) for r, x in parts])
    is_j = np.concatenate([np.full(x.size, r.kind == _KIND_J) for r, x in parts])
    return m, is_j, np.concatenate([x for _, x in parts])


def _zeros(m: int, kind: str, count: int) -> tuple:
    roots = _ROOTS.get(_canonical(m, kind))     # zeros only grow, so a read needs no lock
    zeros = roots.zeros if roots and len(roots.zeros) >= count else _zero_tables({(m, kind): count})[m, kind]
    return tuple(zeros[:count])


def _newton_passes(m: int, kind: str, count: int) -> tuple:
    """The Newton pass on which each of the first `count` zeros converged."""
    _zero_tables({(m, kind): count})
    return tuple(_ROOTS[_canonical(m, kind)].passes[:count])


def _runs(keys) -> tuple:
    """(order, runs) of a 1-D key array: order a stable argsort, runs per
    distinct key, ascending, the (lo, hi) slice of order holding it; no keys, no run."""
    order = np.argsort(keys, kind="stable")
    ends = (np.flatnonzero(np.diff(keys[order])) + 1).tolist()
    return order, (list(zip([0, *ends], [*ends, len(order)])) if len(order) else [])


def _as_int(name: str, v, low=None) -> int:
    """v as a Python int when it is an int or numpy integer >= low; else ValueError."""
    if not isinstance(v, (int, np.integer)) or isinstance(v, bool) or (low is not None and v < low):
        what = {None: "an integer", 0: "a non-negative integer", 1: "a positive integer"}[low]
        raise ValueError(f"{name} must be {what}, got {v!r}")
    return int(v)


def _as_real(name: str, v) -> float:
    """v as a Python float when it is a real number other than a bool; else ValueError."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {v!r}")
    return float(v)


def _as_tolerance(name: str, v) -> float:
    """v as a Python float when it is a finite real number >= 0 other than a bool; else ValueError."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real) or not (math.isfinite(v) and v >= 0):
        raise ValueError(f"{name} must be a finite number >= 0, got {v!r}")
    return float(v)


def _as_complex(name: str, v) -> complex:
    """v as a Python complex when it is a finite number other than a bool; else ValueError."""
    if isinstance(v, bool) or not isinstance(v, numbers.Complex) or not cmath.isfinite(v):
        raise ValueError(f"{name} must be a finite number, got {v!r}")
    return complex(v)


def bessel_zero(m: int, mu: int) -> float:
    """mu-th positive zero of J_m (mu = 1, 2, ...)."""
    m, mu = _as_int("order m", m, 0), _as_int("zero index mu", mu, 1)
    return _zeros(m, _KIND_J, mu)[mu - 1]


def bessel_prime_zero(m: int, mu: int) -> float:
    """mu-th strictly positive zero of J_m'."""
    m, mu = _as_int("order m", m, 0), _as_int("zero index mu", mu, 1)
    return _zeros(m, _KIND_JPRIME, mu)[mu - 1]


@dataclass(frozen=True)
class BesselZeroTable:
    """Leading positive zeros of J_m or J_m' for one order.

    kind is "j" or "jprime".  Entries are strictly increasing and each is
    certified at construction: the root function evaluates below 1e-12.
    """

    m: int
    kind: str
    zeros: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", _as_int("order m", self.m, 0))
        if self.kind not in (_KIND_J, _KIND_JPRIME):
            raise ValueError(f"kind must be 'j' or 'jprime', got {self.kind!r}")
        z = np.asarray(self.zeros, dtype=float)
        if z.size and (np.any(z <= 0.0) or np.any(np.diff(z) <= 0.0)):
            raise ValueError("zeros must be strictly increasing and positive")
        if z.size:
            resid = np.abs(_root_funcs(self.m, self.kind == _KIND_J, z, with_derivative=False))
            if np.max(resid) >= _ZERO_RESIDUAL_MAX:
                raise ValueError(
                    f"zero table residual {np.max(resid):.3e} exceeds {_ZERO_RESIDUAL_MAX:g}"
                )

    def __getitem__(self, mu: int) -> float:
        """Zero number mu (1-based)."""
        if mu < 1 or mu > len(self.zeros):
            raise IndexError(f"mu={mu} outside table of {len(self.zeros)} zeros")
        return self.zeros[mu - 1]

    def __len__(self) -> int:
        return len(self.zeros)


def zero_table(m: int, kind: str, count: int) -> BesselZeroTable:
    """Build the table of the first `count` zeros for one order."""
    count, m = _as_int("count", count, 1), _as_int("order m", m, 0)
    if kind not in (_KIND_J, _KIND_JPRIME):
        raise ValueError(f"kind must be 'j' or 'jprime', got {kind!r}")
    return BesselZeroTable(m=m, kind=kind, zeros=_zeros(m, kind, count))
