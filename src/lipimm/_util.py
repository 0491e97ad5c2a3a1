"""Small shared helpers: batched root finding, the largest pairwise
difference quotient, bulk-validated dataclass instances, Halton sequences
and a workspace of reused arrays.

``bracketed_newton`` solves residuals with an analytic slope (Newton kept
inside a bracket, the ``rtsafe`` of Numerical Recipes), in 2-3 iterations
on a smooth root, or in one from an ``inverse_hermite`` start with a
certified last step; each root stops on its own, so it does not depend on
the roots solved with it.
"""

from __future__ import annotations

import math

import numpy as np

NEWTON_ITERATIONS = 60  # hard cap of bracketed_newton


def rounding_floor(points: np.ndarray) -> np.ndarray:
    """Absolute step floor 1e-15 (1 + max|p|) of residuals of points p, one
    per row.  A stop relative to |t| instead asks for less than one unit in
    the last place of t, and can cycle there until the iteration cap."""
    return 1e-15 * (1.0 + np.max(np.abs(points), axis=-1))


def bracketed_newton(residual_slope, lo, hi, r_lo, r_hi, floor, start=None,
                     bound=None):
    """Roots of a residual in the brackets [lo, hi] by bracketed Newton.

    ``residual_slope(t)`` returns the residual and its derivative at an
    array of parameters; ``r_lo`` and ``r_hi`` are the residuals at the
    bracket ends, and ``floor`` broadcasts against them.  ``lo``, ``hi``
    and ``r_lo`` are float arrays narrowed in place.  The iterates start
    from ``start`` (overwritten), by default the secant point of each
    bracket; a start outside its bracket, or NaN, is the bracket's
    midpoint.  Each iteration keeps the sign change in the bracket and
    takes the Newton step, or the midpoint where the step would leave the
    bracket.  An element stops once its step is at most its ``floor``, with
    that step taken, or after ``NEWTON_ITERATIONS``, or, given a ``bound``
    L on |residual''|, on a Newton step d with (L/2) d^2 <= floor: by
    Taylor's theorem the residual at t + d is within the floor of the
    linearization's, which the step makes zero.  A bracket without a sign
    change drifts to an end; callers flag it.  Returns the roots, the
    certified step d of each root that stopped that way at the last
    ``residual_slope`` call (else 0), and the roots to confirm by another
    evaluation: those that call moved without a certificate.  Every other
    root is where that call evaluated it, or d past that.
    """
    if start is None:
        with np.errstate(divide="ignore", invalid="ignore"):
            start = lo - r_lo * (hi - lo) / (r_hi - r_lo)
    t = start
    np.copyto(t, 0.5 * (lo + hi), where=~((t >= lo) & (t <= hi)))  # NaN too
    active = np.ones(np.shape(t), dtype=bool)
    certified = False
    for _ in range(NEWTON_ITERATIONS):
        r, slope = residual_slope(t)
        keep_lo = (r > 0) == (r_lo > 0)
        np.copyto(lo, t, where=keep_lo)
        np.copyto(r_lo, r, where=keep_lo)
        np.copyto(hi, t, where=~keep_lo)
        with np.errstate(divide="ignore", invalid="ignore"):
            new = np.divide(r, slope)
        del r, slope
        np.subtract(t, new, out=new)
        # a step below half a unit in the last place of t keeps t
        newton = ((new > lo) & (new < hi)) | (new == t)
        if not newton.all():
            np.copyto(new, 0.5 * (lo + hi), where=~newton)
        step = new - t
        done = np.abs(step) <= floor
        if bound is not None:
            certified = newton & (0.5 * bound * np.square(step) <= floor)
            done |= certified
        moved = active & (new != t)  # NaN too
        np.copyto(t, new, where=active)
        active &= ~done
        if not active.any():
            break
    certified = moved & certified
    np.copyto(step, 0.0, where=~certified)
    return t, step, moved & ~certified


def inverse_hermite(lo, hi, r_lo, r_hi, s_lo, s_hi):
    """t(0) of the cubic Hermite interpolant of t(r) through (r_lo, lo) and
    (r_hi, hi) with slopes 1/s_lo and 1/s_hi: at u = r_lo / (r_lo - r_hi),
    lo + (hi - lo) u^2 (3 - 2u) + (r_hi - r_lo) u (1 - u) ((1 - u) / s_lo
    - u / s_hi).  NaN or beyond the bracket where the residuals or slopes
    do not fit one; a start for ``bracketed_newton``, which clips it."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        h = r_hi - r_lo
        u = np.divide(r_lo, h)
        np.negative(u, out=u)
        w = np.divide(u, s_hi)
        t = np.subtract(1.0, u)  # the slope term, in t
        t /= s_lo
        t -= w
        t *= h
        t *= u
        t *= np.subtract(1.0, u, out=w)
        np.multiply(u, -2.0, out=w)  # the value term, in w
        w += 3.0
        w *= u
        w *= u
        w *= np.subtract(hi, lo, out=h)
        t += w
        t += lo
    return t


def max_quotient(dv: np.ndarray, dx: np.ndarray) -> float:
    """Largest dv / dx over the pairs with dx > 1e-14.

    ``dv`` and ``dx`` are the value and chart distances of the same pairs;
    0.0 when no pair is left.
    """
    keep = dx > 1e-14
    return float(np.max(dv[keep] / dx[keep])) if np.any(keep) else 0.0


class Workspace:
    """Float arrays reused from call to call of a loop.

    ``take(name, shape)`` is a C-contiguous view of the first prod(shape)
    entries of the buffer kept under ``name``, which is allocated only when
    it is too small.  A stack of rows cut to its first rows therefore keeps
    each of them where it was.
    """

    def __init__(self):
        self._buffers = {}

    def take(self, name, shape):
        size = math.prod(shape)
        buffer = self._buffers.get(name)
        if buffer is None or len(buffer) < size:
            buffer = self._buffers[name] = np.empty(size)
        return buffer[:size].reshape(shape)


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
    """Low-discrepancy Halton points in [0, 1)^dim, deterministic for a seed offset.

    The digits n - b floor(n / b) of the indices n are exact in float64
    below 2^53; in base 2 their sum is n's 64 bits reversed, times 2^-64.
    """
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    if dim > len(primes):
        raise ValueError("halton helper supports up to 10 dimensions")
    idx = np.arange(offset + 1, offset + count + 1, dtype=float)
    v = idx.astype(np.uint64).byteswap()  # reversed: bytes, then bits
    for s in (4, 2, 1):  # under the masks 0x0F0F.., 0x3333.., 0x5555..
        v = (v >> s) & (m := (2 ** 64 - 1) // (2 ** s + 1)) | (v & m) << s
    out = np.empty((count, dim))
    for d in range(dim):  # base 2 takes the reversed bits, then frees them
        base, n, denom = primes[d], idx, 1.0
        v = v * 2.0 ** -64 if d == 0 else np.zeros(count)
        while d and denom <= offset + count:  # a digit of the largest left
            quotient = np.floor(n / base)
            denom *= base
            v += (n - base * quotient) / denom
            n = quotient
        out[:, d] = v
    return out
