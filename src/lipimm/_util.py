"""Small shared helpers: batched bisection, the largest pairwise difference
quotient, bulk-validated dataclass instances and Halton sequences."""

from __future__ import annotations

import numpy as np


def bisect(residual, lo, hi, r_lo, iters: int):
    """Halve every bracket [lo, hi] ``iters`` times, keeping the sign change.

    ``r_lo`` is ``residual(lo)``; the brackets are arrays narrowed at once,
    one ``residual`` call per step.  Returns the final (lo, hi).
    """
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        r_mid = residual(mid)
        take_low = (r_mid > 0) == (r_lo > 0)
        lo = np.where(take_low, mid, lo)
        r_lo = np.where(take_low, r_mid, r_lo)
        hi = np.where(take_low, hi, mid)
    return lo, hi


def max_quotient(dv: np.ndarray, dx: np.ndarray) -> float:
    """Largest dv / dx over the pairs with dx > 1e-14.

    ``dv`` and ``dx`` are the value and chart distances of the same pairs;
    0.0 when no pair is left.
    """
    keep = dx > 1e-14
    return float(np.max(dv[keep] / dx[keep])) if np.any(keep) else 0.0


def unchecked(cls, **fields):
    """Instance of a frozen dataclass built without running its __post_init__.

    For values the caller has already validated in bulk, such as a stack of
    frames checked once instead of once per frame.
    """
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def halton(count: int, dim: int, *, offset: int = 0) -> np.ndarray:
    """Low-discrepancy Halton points in [0, 1)^dim, deterministic for a seed offset."""
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    if dim > len(primes):
        raise ValueError("halton helper supports up to 10 dimensions")
    idx = np.arange(offset + 1, offset + count + 1)
    out = np.empty((count, dim))
    for d in range(dim):
        base = primes[d]
        n = idx.astype(np.int64)
        value = np.zeros(count)
        denom = np.ones(count)
        while np.any(n > 0):
            denom *= base
            value += (n % base) / denom
            n //= base
        out[:, d] = value
    return out
