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
exactly 1 for m = 0 and 0 otherwise.  Each point's regime, Miller start
index (set by its x and the highest order of the call) and Hankel length
depend on nothing else in the array, so J_m(x) has the same bits alone as
inside any batch; J_{m-1}, J_m and J_{m+1} share one recurrence sweep.

Zeros are bracketed by scanning with a step safely below the minimal
spacing of consecutive zeros (> 3.11 for any order), starting just below
the first-zero location m + 1.86*m**(1/3), and refined with a
bracket-guarded Newton iteration that stops once its step no longer
moves x.  The derivative zeros use the recurrence form
J_m' = (J_{m-1} - J_{m+1})/2 and the Bessel equation for J_m''.

Convention: zeros are the strictly positive roots.  In particular the
first zero of J_0' is 3.8317... (the stationary point at x = 0 is not
counted).  Since J_0' = -J_1, the zeros of J_0' are those of J_1, taken
from the same table so the two agree to the last bit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_ASYM_X_MIN = 30.0        # Hankel above this and m^2/2: smallest term below round-off
_LEADING_MAX = 2.0 ** -56  # (x/2)^2/(m+1) below this: the series' leading term suffices
_MILLER_EXTRA = 16        # start margin above the recurrence turning point
_MILLER_STRIDE = 8        # starts are multiples of it; overflow is checked as often
_RESCALE_LIMIT = 1e150    # overflow guard
_SCAN_STEP = 1.0          # zero bracketing; minimal zero spacing is > 3.11
_KIND_J = "j"
_KIND_JPRIME = "jprime"


def _leading(orders: tuple, x: np.ndarray) -> dict:
    """(x/2)^m / m!, one factor at a time: a normal result never underflows."""
    terms = [np.ones_like(x)]
    for k in range(1, orders[-1] + 1):
        terms.append(terms[-1] * (0.5 * x) / k)
    return {m: terms[m] for m in orders}


def _asymptotic(m: int, x: np.ndarray) -> np.ndarray:
    """Hankel expansion J_m ~ sqrt(2/(pi x)) (P cos w - Q sin w).

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
    c1, c2 = ((1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0))[m % 4]
    cx = np.cos(x)
    sx = np.sin(x)
    amp = np.sqrt(1.0 / (math.pi * x))
    return amp * (c1 * (p * cx - q * sx) + c2 * (p * sx + q * cx))


def _miller_multi(orders: tuple, x: np.ndarray) -> dict:
    """One backward recurrence sweep returning J_m(x) for several orders.
    Each point starts at its own index above its turning point max(m, x);
    until then it carries f_k = f_{k+1} = 0, which the recurrence keeps."""
    top = np.maximum(orders[-1], np.ceil(x))
    start = top + np.floor(9.0 * top ** (1.0 / 3.0)) + _MILLER_EXTRA
    start += -start % _MILLER_STRIDE
    inv_x = 1.0 / x
    fk = np.zeros_like(x)
    fkp1 = np.zeros_like(x)
    targets = {}
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
                for o in targets:
                    targets[o] = targets[o] * scale
            fk[start == k] = 1e-150     # arbitrary seed; the Neumann sum divides it out
        fkm1 = (2.0 * k) * inv_x * fk - fkp1
        fkp1 = fk
        fk = fkm1
        order = k - 1
        if order in orders:
            targets[order] = fk.copy()
        if order > 0 and not order & 1:
            even_sum += fk
    norm = fk + 2.0 * even_sum          # Neumann sum, f_0 + 2 sum f_{2k}
    return {m: targets[m] / norm for m in orders}


def _j_orders(orders: tuple, x) -> list:
    """J_m(x) for each integer order in `orders` (any sign), shaped like x.

    Each point takes the leading term, Miller or Hankel; one Miller sweep
    serves all orders, and J_{-m} = (-1)^m J_m.  Values below the normal
    range underflow quietly towards 0, as the true values do.
    """
    xa = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xa)):
        raise ValueError("bessel_j requires finite x")
    if np.any(xa < 0.0):
        raise ValueError("bessel_j requires x >= 0")
    x = np.atleast_1d(xa).ravel()
    absm = tuple(sorted({abs(m) for m in orders}))
    asym_min = {m: max(_ASYM_X_MIN, 0.5 * m * m) for m in absm}
    got = {m: np.empty_like(x) for m in absm}
    with np.errstate(under="ignore"):
        leading = 0.25 * x * x <= _LEADING_MAX * (absm[0] + 1.0)
        miller = ~leading & (x < asym_min[absm[-1]])
        parts = [(where, kernel(absm, x[where])) for where, kernel in
                 ((leading, _leading), (miller, _miller_multi)) if np.any(where)]
    for m in absm:
        for where, part in parts:
            got[m][where] = part[m]
        asym = x >= asym_min[m]
        if np.any(asym):
            got[m][asym] = _asymptotic(m, x[asym])
    return [(-got[-m] if m < 0 and m % 2 else got[abs(m)]).reshape(xa.shape) for m in orders]


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

def _root_funcs(m: int, kind: str, x: np.ndarray, with_derivative: bool):
    """f(x) (and optionally f'(x)) for the root function of one kind.

    kind "j":       f = J_m,   f' = (J_{m-1} - J_{m+1})/2
    kind "jprime":  f = J_m',  f' = J_m'' = -J_m'/x + (m^2/x^2 - 1) J_m
    """
    jm1, jm, jp1 = _j_orders((m - 1, m, m + 1), x)
    if kind == _KIND_J:
        f = jm
        fp = 0.5 * (jm1 - jp1)
    else:
        f = 0.5 * (jm1 - jp1)
        fp = -f / x + (m * m / (x * x) - 1.0) * jm
    if with_derivative:
        return f, fp
    return f


def _scan_start(m: int, kind: str) -> float:
    # J_m > 0 on (0, j_{m,1}) and J_m' > 0 on (0, j'_{m,1}) for m >= 1;
    # start where the function is far above underflow but below the first zero
    if kind == _KIND_J:
        return 0.5 if m == 0 else m + 0.5
    return 0.3 if m == 0 else max(0.3, 0.7 * m)


def _brackets(m: int, kind: str, count: int):
    """First `count` sign-change intervals of the root function."""
    lo = _scan_start(m, kind)
    # first zero sits near m + 1.86 m^(1/3); later spacing approaches pi
    span = 1.86 * m ** (1.0 / 3.0) + (count + 3) * math.pi + 5.0
    los, his = [], []
    while len(los) < count:
        grid = lo + _SCAN_STEP * np.arange(int(span / _SCAN_STEP) + 2)
        fg = _root_funcs(m, kind, grid, with_derivative=False)
        flips = np.nonzero(fg[:-1] * fg[1:] <= 0.0)[0]
        for i in flips:
            if fg[i] == 0.0 and fg[i + 1] == 0.0:
                continue
            los.append(grid[i])
            his.append(grid[i + 1])
            if len(los) == count:
                break
        lo = grid[-1]
        span = (count - len(los) + 2) * math.pi + 5.0
    return np.array(los[:count]), np.array(his[:count])


def _refine(m: int, kind: str, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Vectorized Newton iteration kept inside the brackets."""
    slo = np.sign(_root_funcs(m, kind, lo, with_derivative=False))
    x = 0.5 * (lo + hi)
    done = np.zeros(x.shape, dtype=bool)
    for _ in range(80):
        f, fp = _root_funcs(m, kind, x, with_derivative=True)
        shrink_hi = np.sign(f) != slo
        hi = np.where(shrink_hi, x, hi)
        lo = np.where(shrink_hi, lo, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(fp != 0.0, f / fp, 0.0)
        xn = x - step
        # converged once Newton stops moving x, even onto a bracket end; a
        # converged point stays put, so its zero does not depend on the batch
        now = (fp != 0.0) & (np.abs(step) <= 1e-15 * x)
        inside = (xn > lo) & (xn < hi)
        x = np.where(done, x, np.where(inside | now, xn, 0.5 * (lo + hi)))
        done |= now
        if np.all(done):
            break
    return x


@lru_cache(maxsize=None)
def _zero_block(m: int, kind: str, block: int) -> tuple:
    lo, hi = _brackets(m, kind, block)
    return tuple(float(v) for v in _refine(m, kind, lo, hi))


def _zeros(m: int, kind: str, count: int) -> tuple:
    if m == 0 and kind == _KIND_JPRIME:
        # J_0' = -J_1: one root finder for both keeps TE(0, mu) and
        # TM(+-1, mu) exactly degenerate
        m, kind = 1, _KIND_J
    block = 8 * ((count + 7) // 8)      # round cache key up; reuse across calls
    return _zero_block(m, kind, block)[:count]


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
        if self.kind not in (_KIND_J, _KIND_JPRIME):
            raise ValueError(f"kind must be 'j' or 'jprime', got {self.kind!r}")
        z = np.asarray(self.zeros, dtype=float)
        if z.size and (np.any(z <= 0.0) or np.any(np.diff(z) <= 0.0)):
            raise ValueError("zeros must be strictly increasing and positive")
        if z.size:
            resid = np.abs(_root_funcs(self.m, self.kind, z, with_derivative=False))
            if np.max(resid) >= 1e-12:
                raise ValueError(
                    f"zero table residual {np.max(resid):.3e} exceeds 1e-12"
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
