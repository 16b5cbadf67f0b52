"""Piecewise wavefunction reconstruction for a solved bound state.

Region layout (centered coordinates, shallow well on the left):

    I    wall        x < x0
    II   shallow     x0 .. x1   a1, a2   (exp basis in regime A, trig in B)
    III  barrier     x1 .. x2   b, c     (exp basis)
    IV   deep        x2 .. x3   d1, d2   (trig basis)
    V    wall        x > x3

Each region holds ``c1*f + c2*g`` in the exp basis (e^{kx}, e^{-kx}) or the
trig basis (sin kx, cos kx).  One set of helpers, elementwise over arrays,
serves every region: value and slope, coefficients from a value and slope,
and the closed-form squared integral.  :func:`build_wavefunction` is one loop
over regions II-IV from (psi, psi') = (0, k1) at the left wall, which makes
the first lobe positive; matching value and slope at each left edge makes
interior continuity exact by construction.  The right-wall zero then only
holds when the energy is a true eigenvalue, and its relative violation is
reported as the matching residual; a level whose residual exceeds 1e-8 is
rejected.  Propagating left to right follows the growing barrier solution,
the numerically stable direction for deep-well dominated states.  Region
wavenumbers come from :func:`~wellcascade.transcendental.wavenumbers`, the
routine the matching function uses, and region bounds from
:func:`~wellcascade.potential.pair_profile`.

The closed-form L2 norm over the whole domain is one.
:func:`sample_wavefunction` tabulates a state; the ``wavefunction`` command
of ``wellcascade.cli`` writes that table as CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eigensolver import Level
from .potential import WellPair, pair_profile
from .quantities import CODATA2018, PhysicalConstants
from .transcendental import Regime, classify_regime, wavenumbers

__all__ = [
    "PiecewiseWavefunction",
    "build_wavefunction",
    "sample_wavefunction",
]

# largest right-wall residual of an eigenvalue (relative to the deep-well amplitude)
_WALL_TOL = 1e-8


def _value_slope(trig: bool, c1, c2, k, x):
    """Value and slope of ``c1*f + c2*g`` at ``x`` in the exp or trig basis."""
    if trig:
        s, c = np.sin(k * x), np.cos(k * x)
        return c1 * s + c2 * c, k * (c1 * c - c2 * s)
    grow, fall = np.exp(k * x), np.exp(-k * x)
    return c1 * grow + c2 * fall, k * (c1 * grow - c2 * fall)


def _coefficients(trig: bool, k, x, value, slope):
    """Coefficients ``(c1, c2)`` whose combination has ``value`` and ``slope`` at ``x``."""
    if trig:
        s, c = np.sin(k * x), np.cos(k * x)
        return value * s + (slope / k) * c, value * c - (slope / k) * s
    # keep (k*v + s)/(2k): the barrier match cancels, and 0.5*(v + s/k) rounds it differently
    return (
        np.exp(-k * x) * (k * value + slope) / (2.0 * k),
        np.exp(k * x) * (k * value - slope) / (2.0 * k),
    )


def _sq_integral(trig: bool, c1, c2, k, x_lo, x_hi):
    """Integral of ``(c1*f + c2*g)**2`` over ``[x_lo, x_hi]`` in the exp or trig basis."""
    if trig:

        def antiderivative(x):
            s2, c2x = np.sin(2.0 * k * x), np.cos(2.0 * k * x)
            return (
                c1 * c1 * (0.5 * x - s2 / (4.0 * k))
                + c2 * c2 * (0.5 * x + s2 / (4.0 * k))
                - c1 * c2 * c2x / (2.0 * k)
            )

        return antiderivative(x_hi) - antiderivative(x_lo)
    return (
        c1 * c1 * (np.exp(2.0 * k * x_hi) - np.exp(2.0 * k * x_lo)) / (2.0 * k)
        + 2.0 * c1 * c2 * (x_hi - x_lo)
        + c2 * c2 * (np.exp(-2.0 * k * x_lo) - np.exp(-2.0 * k * x_hi)) / (2.0 * k)
    )


@dataclass(frozen=True)
class PiecewiseWavefunction:
    """Normalised bound-state wavefunction of a well pair."""

    pair: WellPair
    energy: float
    regime: Regime
    a1: float
    a2: float
    b: float
    c: float
    d1: float
    d2: float
    region_bounds: tuple[float, float, float, float]
    k1: float
    beta: float
    k2: float
    wall_residual: float

    def _region(self, region: int):
        """Basis, coefficients and wavenumber of region 2, 3 or 4."""
        if region == 2:
            return self.regime is Regime.B, self.a1, self.a2, self.k1
        if region == 3:
            return False, self.b, self.c, self.beta
        if region == 4:
            return True, self.d1, self.d2, self.k2
        raise ValueError(f"region must be 2, 3 or 4, got {region}")

    def region_value(self, region: int, x):
        """Evaluate the analytic form of region 2, 3 or 4 (no domain guard)."""
        out = _value_slope(*self._region(region), np.asarray(x, dtype=float))[0]
        return float(out) if np.isscalar(x) else out

    def region_derivative(self, region: int, x):
        out = _value_slope(*self._region(region), np.asarray(x, dtype=float))[1]
        return float(out) if np.isscalar(x) else out

    def __call__(self, x):
        """Wavefunction value; zero on and beyond the walls."""
        xa = np.atleast_1d(np.asarray(x, dtype=float))
        x0, x1, x2, x3 = self.region_bounds
        out = np.zeros_like(xa)
        inside = (xa >= x0) & (xa <= x3)
        region = 2 + np.searchsorted((x1, x2), xa, side="right")
        for r in (2, 3, 4):
            mask = inside & (region == r)
            out[mask] = self.region_value(r, xa[mask])
        # walls pin the ends to exactly zero
        out[xa == x0] = 0.0
        out[xa == x3] = 0.0
        return float(out[0]) if np.isscalar(x) else out


def build_wavefunction(
    pair: WellPair,
    level: Level,
    constants: PhysicalConstants = CODATA2018,
) -> PiecewiseWavefunction:
    """Reconstruct and normalise the wavefunction of a solved level.

    Raises ValueError when the right-wall consistency residual exceeds 1e-8,
    i.e. when ``level.energy`` is not actually an eigenvalue of this pair.
    """
    energy = level.energy
    regime = classify_regime(pair, energy)
    k1, beta, k2 = (float(k) for k in wavenumbers(pair, energy, constants))
    if k1 == 0.0:
        raise ValueError("level sits exactly on the regime boundary; wavefunction undefined")
    profile = pair_profile(pair)
    bounds = (profile.x_min, *profile.breakpoints, profile.x_max)

    # regions II-IV: (trig basis?, wavenumber), matched at each left edge
    value, slope = 0.0, k1
    coefficients = []
    norm_sq = 0.0
    for i, (trig, k) in enumerate(((regime is Regime.B, k1), (False, beta), (True, k2))):
        c1, c2 = _coefficients(trig, k, bounds[i], value, slope)
        value, slope = _value_slope(trig, c1, c2, k, bounds[i + 1])
        norm_sq += _sq_integral(trig, c1, c2, k, bounds[i], bounds[i + 1])
        coefficients += [c1, c2]
    if not math.isfinite(norm_sq):  # a NaN coefficient passes the wall check
        raise ValueError(f"wavefunction at energy {energy!r} overflows double precision")

    amplitude = math.hypot(*coefficients[4:])
    if amplitude == 0.0:
        raise ValueError("degenerate wavefunction: zero amplitude in the deep well")
    residual = float(abs(value)) / amplitude
    if residual > _WALL_TOL:
        raise ValueError(
            f"energy {energy!r} is not an eigenvalue of this pair: "
            f"right-wall residual {residual:.3e} exceeds {_WALL_TOL:.1e}"
        )
    scale = 1.0 / math.sqrt(norm_sq)
    a1, a2, b, c, d1, d2 = (float(coef * scale) for coef in coefficients)
    return PiecewiseWavefunction(
        pair=pair,
        energy=energy,
        regime=regime,
        a1=a1,
        a2=a2,
        b=b,
        c=c,
        d1=d1,
        d2=d2,
        region_bounds=bounds,
        k1=k1,
        beta=beta,
        k2=k2,
        wall_residual=residual,
    )


def sample_wavefunction(wf: PiecewiseWavefunction, n_points: int):
    """Uniform samples (x, psi) across the whole domain, walls included."""
    if n_points < 2:
        raise ValueError(f"need at least 2 sample points, got {n_points}")
    x0, _, _, x3 = wf.region_bounds
    x = np.linspace(x0, x3, n_points)
    return x, wf(x)
