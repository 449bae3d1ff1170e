"""Bessel functions of the first kind and their positive zeros.

Self-contained double-precision evaluation of J_m(x) for integer order,
with no dependency on scipy.special.  Three regimes are used:

* ascending power series where it is free of destructive cancellation
  (small x, or x**2 <= 4(m+1) where the terms decrease monotonically),
* Miller's backward recurrence, normalized by the Neumann sum
  J_0 + 2*J_2 + 2*J_4 + ... = 1, for moderate arguments,
* the Hankel asymptotic expansion for large x when the order is small
  enough for the expansion to reach machine precision.  The phase
  x - (2m+1)pi/4 is never formed explicitly: cos and sin of the offset
  are exactly +-sqrt(2)/2, so the oscillatory factors are recombined
  from cos(x) and sin(x) without cancellation in the argument.

Zeros are bracketed by scanning with a step safely below the minimal
spacing of consecutive zeros (> 3.11 for any order), starting just below
the first-zero location m + 1.86*m**(1/3), and refined with a
bracket-guarded Newton iteration.  The derivative zeros use the
recurrence form J_m' = (J_{m-1} - J_{m+1})/2 and the Bessel equation
for J_m''.

Convention: zeros are the strictly positive roots.  In particular the
first zero of J_0' is 3.8317... (the stationary point at x = 0 is not
counted).  Since J_0' = -J_1, the zeros of J_0' are those of J_1, taken
from the same table so the two agree to the last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Branch thresholds.  The series bound keeps the largest partial-sum term
# below ~1e1 so cancellation costs at most a few ulps; the asymptotic
# bound keeps the smallest Hankel term below round-off.
_SERIES_X_MAX = 5.0
_ASYM_X_MIN = 30.0
_MILLER_EXTRA = 16        # start margin above the recurrence turning point
_RESCALE_LIMIT = 1e150    # overflow guard, tested every _RESCALE_EVERY steps
_RESCALE_EVERY = 12
_SCAN_STEP = 1.0          # zero bracketing; minimal zero spacing is > 3.11
_KIND_J = "j"
_KIND_JPRIME = "jprime"
_SQRT_HALF = math.sqrt(0.5)


def _validate_x(x: np.ndarray) -> None:
    if not np.all(np.isfinite(x)):
        raise ValueError("bessel_j requires finite x")
    if np.any(x < 0.0):
        raise ValueError("bessel_j requires x >= 0")


def _series(m: int, x: np.ndarray) -> np.ndarray:
    """Ascending series sum_k (-1)^k (x/2)^(m+2k) / (k! (m+k)!).

    Only called where the terms decay fast enough that the compensated
    sum is accurate to a few ulps.
    """
    q = 0.25 * x * x
    # leading term (x/2)^m / m! via logs; exact 1.0 at x = 0 for m = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        logt0 = m * np.log(0.5 * x) - math.lgamma(m + 1)
    term = np.where(x > 0.0, np.exp(logt0), 1.0 if m == 0 else 0.0)
    total = term.copy()
    comp = np.zeros_like(term)          # Kahan compensation
    for k in range(1, 80):
        term = -term * q / (k * (m + k))
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if np.all(np.abs(term) <= 1e-18 * (np.abs(total) + 1e-300)):
            break
    return total


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
    prev = math.inf
    for j in range(1, 60):
        term = term * ((mu4 - (2 * j - 1) ** 2) / j) * inv8x
        mag = float(np.max(np.abs(term)))
        if mag > prev:      # divergent tail reached; truncate at best term
            break
        prev = mag
        sign = -1.0 if (j // 2) % 2 else 1.0
        if j % 2:
            q = q + sign * term
        else:
            p = p + sign * term
        if mag < 1e-18:
            break
    c1, c2 = ((1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0))[m % 4]
    cx = np.cos(x)
    sx = np.sin(x)
    amp = np.sqrt(1.0 / (math.pi * x))
    return amp * (c1 * (p * cx - q * sx) + c2 * (p * sx + q * cx))


def _miller_multi(orders: tuple, x: np.ndarray) -> dict:
    """One backward recurrence sweep returning J_m(x) for several orders."""
    top = max(max(orders), int(math.ceil(float(np.max(x)))))
    nstart = top + int(9.0 * top ** (1.0 / 3.0)) + _MILLER_EXTRA
    if nstart % 2:
        nstart += 1
    inv_x = 1.0 / x
    fk = np.full_like(x, 1e-150)        # arbitrary seed; scale divides out
    fkp1 = np.zeros_like(x)
    targets = {m: np.zeros_like(x) for m in orders}
    even_sum = np.zeros_like(x)
    for k in range(nstart, 0, -1):
        fkm1 = (2.0 * k) * inv_x * fk - fkp1
        fkp1 = fk
        fk = fkm1
        order = k - 1
        if order in targets:
            targets[order] = fk.copy()
        if order > 0 and not order & 1:
            even_sum += fk
        if k % _RESCALE_EVERY == 0 and float(np.max(np.abs(fk))) > _RESCALE_LIMIT:
            # rescale point by point: growth rates differ wildly across
            # the pooled x values and a shared factor would underflow
            # the slow-growing ones
            scale = np.where(np.abs(fk) > _RESCALE_LIMIT, 1.0 / _RESCALE_LIMIT, 1.0)
            fk = fk * scale
            fkp1 = fkp1 * scale
            even_sum = even_sum * scale
            for o in targets:
                targets[o] = targets[o] * scale
    norm = fk + 2.0 * even_sum          # Neumann sum, f_0 + 2 sum f_{2k}
    return {m: targets[m] / norm for m in orders}


def _eval_orders(orders: tuple, x: np.ndarray) -> dict:
    """J_m(x) for each non-negative order in `orders`, branch-partitioned."""
    out = {m: np.empty_like(x) for m in orders}
    miller_need = {}
    miller_union = np.zeros(x.shape, dtype=bool)
    for m in orders:
        series = (x <= _SERIES_X_MAX) | (x * x <= 4.0 * (m + 1.0))
        asym = ~series & (x >= max(_ASYM_X_MIN, 0.5 * m * m))
        rest = ~series & ~asym
        if np.any(series):
            out[m][series] = _series(m, x[series])
        if np.any(asym):
            out[m][asym] = _asymptotic(m, x[asym])
        miller_need[m] = rest
        miller_union |= rest
    if np.any(miller_union):
        got = _miller_multi(orders, x[miller_union])
        for m in orders:
            need = miller_need[m]
            if np.any(need):
                out[m][need] = got[m][need[miller_union]]
    return out


def _j_orders(orders: tuple, x) -> list:
    """J_m(x) for each integer order in `orders` (any sign), shaped like x.

    One branch-partitioned evaluation serves all orders, so neighbouring
    orders share a single Miller sweep; J_{-m} = (-1)^m J_m.
    """
    xa = np.asarray(x, dtype=float)
    _validate_x(xa)
    got = _eval_orders(tuple(sorted({abs(m) for m in orders})), np.atleast_1d(xa).ravel())
    return [(-got[-m] if m < 0 and m % 2 else got[abs(m)]).reshape(xa.shape) for m in orders]


def bessel_j(m: int, x):
    """J_m(x) for integer m (any sign) and x >= 0, scalar or ndarray."""
    out = _j_orders((int(m),), x)[0]
    return float(out) if out.ndim == 0 else out


def bessel_j_prime(m: int, x):
    """dJ_m/dx via the recurrence (J_{m-1} - J_{m+1})/2."""
    m = int(m)
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
    for _ in range(80):
        f, fp = _root_funcs(m, kind, x, with_derivative=True)
        shrink_hi = np.sign(f) != slo
        hi = np.where(shrink_hi, x, hi)
        lo = np.where(shrink_hi, lo, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(fp != 0.0, f / fp, 0.0)
        xn = x - step
        inside = (xn > lo) & (xn < hi)
        xn = np.where(inside, xn, 0.5 * (lo + hi))
        done = np.abs(xn - x) <= 1e-15 * xn
        x = xn
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


def _validate_order_index(m: int, mu: int) -> None:
    if not isinstance(m, (int, np.integer)) or isinstance(m, bool) or m < 0:
        raise ValueError(f"order m must be a non-negative integer, got {m!r}")
    if not isinstance(mu, (int, np.integer)) or isinstance(mu, bool) or mu < 1:
        raise ValueError(f"zero index mu must be a positive integer, got {mu!r}")


def bessel_zero(m: int, mu: int) -> float:
    """mu-th positive zero of J_m (mu = 1, 2, ...)."""
    _validate_order_index(m, mu)
    return _zeros(int(m), _KIND_J, int(mu))[mu - 1]


def bessel_prime_zero(m: int, mu: int) -> float:
    """mu-th strictly positive zero of J_m'."""
    _validate_order_index(m, mu)
    return _zeros(int(m), _KIND_JPRIME, int(mu))[mu - 1]


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
    if not isinstance(count, (int, np.integer)) or count < 1:
        raise ValueError(f"count must be a positive integer, got {count!r}")
    _validate_order_index(m, 1)
    if kind not in (_KIND_J, _KIND_JPRIME):
        raise ValueError(f"kind must be 'j' or 'jprime', got {kind!r}")
    return BesselZeroTable(m=int(m), kind=kind, zeros=_zeros(int(m), kind, int(count)))
