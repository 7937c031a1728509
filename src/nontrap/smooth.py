"""Smooth (C-infinity) cutoff primitives built from the exponential bump.

Everything is vectorized over numpy arrays and each function comes with an
analytic derivative; no finite differencing is used anywhere in the cutoff
layer.  The transition profile is the standard mollifier step

    step(s) = f(s) / (f(s) + f(1-s)),   f(s) = exp(-1/s) for s > 0, else 0,

which vanishes to infinite order at s = 0 and equals 1 to infinite order at
s = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


def _expbump(s):
    """f(s) = exp(-1/s) for s > 0, 0 otherwise (flat zero)."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    pos = s > 0.0
    with np.errstate(over="ignore", divide="ignore"):
        out[pos] = np.exp(-1.0 / s[pos])
    return out


def _expbump_d(s):
    """Derivative of _expbump: exp(-1/s)/s**2 on s > 0."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    pos = s > 0.0
    with np.errstate(over="ignore", divide="ignore"):
        sp = s[pos]
        out[pos] = np.exp(-1.0 / sp) / sp**2
    return out


def smoothstep(s):
    """Monotone C-infinity step: 0 on s <= 0, 1 on s >= 1."""
    s = np.asarray(s, dtype=float)
    a = _expbump(s)
    b = _expbump(1.0 - s)
    denom = a + b
    # denom > 0 except where both tails underflow; resolve those by side.
    safe = denom > 0.0
    out = np.where(s >= 0.5, 1.0, 0.0)
    np.divide(a, denom, out=out, where=safe)
    return out


def smoothstep_d(s):
    """Analytic derivative of smoothstep (compactly supported in (0, 1))."""
    s = np.asarray(s, dtype=float)
    a = _expbump(s)
    b = _expbump(1.0 - s)
    ad = _expbump_d(s)
    bd = _expbump_d(1.0 - s)  # chain rule sign applied below
    denom = (a + b) ** 2
    out = np.zeros_like(s)
    safe = denom > 0.0
    np.divide(ad * b + a * bd, denom, out=out, where=safe)
    return out


@dataclass(frozen=True)
class SmoothFn:
    """A scalar C-infinity function bundled with its analytic derivative."""

    f: Callable
    df: Callable

    def __call__(self, s):
        return self.f(s)

    def d(self, s):
        return self.df(s)


def rising_step(lo: float, hi: float) -> SmoothFn:
    """0 on (-inf, lo], 1 on [hi, inf), monotone increasing."""
    if not hi > lo:
        raise ValueError(f"rising_step needs hi > lo, got [{lo}, {hi}]")
    w = hi - lo
    return SmoothFn(
        lambda s: smoothstep((np.asarray(s, float) - lo) / w),
        lambda s: smoothstep_d((np.asarray(s, float) - lo) / w) / w,
    )


def falling_step(lo, hi) -> SmoothFn:
    """1 on (-inf, lo], 0 on [hi, inf), monotone decreasing.  lo and hi may
    be arrays, one pair per point s."""
    if not np.all(np.greater(hi, lo)):
        raise ValueError(f"falling_step needs hi > lo, got [{lo}, {hi}]")
    w = hi - lo
    return SmoothFn(
        lambda s: smoothstep((hi - np.asarray(s, float)) / w),
        lambda s: -smoothstep_d((hi - np.asarray(s, float)) / w) / w,
    )


def plateau(a: float, b: float, c: float, d: float) -> SmoothFn:
    """0 outside (a, d), 1 on [b, c]; rises on (a, b), falls on (c, d)."""
    if not (a < b <= c < d):
        raise ValueError(f"plateau needs a < b <= c < d, got {(a, b, c, d)}")
    up = rising_step(a, b)
    down = falling_step(c, d)
    return SmoothFn(
        lambda s: up(s) * down(s),
        lambda s: up.d(s) * down(s) + up(s) * down.d(s),
    )
