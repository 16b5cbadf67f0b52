"""Piecewise wavefunction reconstruction for a solved bound state.

Region layout (centered coordinates, shallow well on the left):

    I    wall        x < x0
    II   shallow     x0 .. x1   a1, a2   (exp basis in regime A, trig in B)
    III  barrier     x1 .. x2   b, c     (exp basis)
    IV   deep        x2 .. x3   d1, d2   (trig basis)
    V    wall        x > x3

Coefficients are obtained by propagating the left-wall zero through the two
interior matching conditions (2x2 steps), which makes interior continuity
exact by construction; the right-wall zero then only holds when the energy
is a true eigenvalue, and its relative violation is reported as the matching
residual; a level whose residual exceeds 1e-8 is rejected.  Propagating
left to right follows the growing barrier solution, which is the numerically
stable direction for deep-well dominated states.  The region wavenumbers
come from :func:`~wellcascade.transcendental.wavenumbers`, the routine the
matching function itself uses.

The overall sign convention fixes the first interior lobe from the left to
be positive, and the closed-form L2 norm over the whole domain is one.
:func:`sample_wavefunction` tabulates a state; the ``wavefunction`` command
of ``wellcascade.cli`` writes that table as CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eigensolver import Level
from .potential import WellPair
from .quantities import CODATA2018, PhysicalConstants
from .transcendental import Regime, classify_regime, wavenumbers

__all__ = [
    "PiecewiseWavefunction",
    "build_wavefunction",
    "sample_wavefunction",
]

# largest right-wall residual of an eigenvalue (relative to the deep-well amplitude)
_WALL_TOL = 1e-8


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

    def region_value(self, region: int, x):
        """Evaluate the analytic form of region 2, 3 or 4 (no domain guard)."""
        xa = np.asarray(x, dtype=float)
        if region == 2:
            if self.regime is Regime.A:
                out = self.a1 * np.exp(self.k1 * xa) + self.a2 * np.exp(-self.k1 * xa)
            else:
                out = self.a1 * np.sin(self.k1 * xa) + self.a2 * np.cos(self.k1 * xa)
        elif region == 3:
            out = self.b * np.exp(self.beta * xa) + self.c * np.exp(-self.beta * xa)
        elif region == 4:
            out = self.d1 * np.sin(self.k2 * xa) + self.d2 * np.cos(self.k2 * xa)
        else:
            raise ValueError(f"region must be 2, 3 or 4, got {region}")
        return float(out) if np.isscalar(x) else out

    def region_derivative(self, region: int, x):
        xa = np.asarray(x, dtype=float)
        if region == 2:
            if self.regime is Regime.A:
                out = self.k1 * (
                    self.a1 * np.exp(self.k1 * xa) - self.a2 * np.exp(-self.k1 * xa)
                )
            else:
                out = self.k1 * (
                    self.a1 * np.cos(self.k1 * xa) - self.a2 * np.sin(self.k1 * xa)
                )
        elif region == 3:
            out = self.beta * (
                self.b * np.exp(self.beta * xa) - self.c * np.exp(-self.beta * xa)
            )
        elif region == 4:
            out = self.k2 * (
                self.d1 * np.cos(self.k2 * xa) - self.d2 * np.sin(self.k2 * xa)
            )
        else:
            raise ValueError(f"region must be 2, 3 or 4, got {region}")
        return float(out) if np.isscalar(x) else out

    def __call__(self, x):
        """Wavefunction value; zero on and beyond the walls."""
        xa = np.atleast_1d(np.asarray(x, dtype=float))
        x0, x1, x2, x3 = self.region_bounds
        out = np.zeros_like(xa)
        inside = (xa >= x0) & (xa <= x3)
        in2 = inside & (xa < x1)
        in3 = inside & (xa >= x1) & (xa < x2)
        in4 = inside & (xa >= x2)
        if np.any(in2):
            out[in2] = self.region_value(2, xa[in2])
        if np.any(in3):
            out[in3] = self.region_value(3, xa[in3])
        if np.any(in4):
            out[in4] = self.region_value(4, xa[in4])
        # walls pin the ends to exactly zero
        out[xa == x0] = 0.0
        out[xa == x3] = 0.0
        return float(out[0]) if np.isscalar(x) else out


def _exp_sq_integral(c1, c2, k, x_lo, x_hi):
    """Integral of (c1*exp(kx) + c2*exp(-kx))**2 over [x_lo, x_hi]."""
    return (
        c1 * c1 * (math.exp(2.0 * k * x_hi) - math.exp(2.0 * k * x_lo)) / (2.0 * k)
        + 2.0 * c1 * c2 * (x_hi - x_lo)
        + c2 * c2 * (math.exp(-2.0 * k * x_lo) - math.exp(-2.0 * k * x_hi)) / (2.0 * k)
    )


def _trig_sq_integral(c1, c2, k, x_lo, x_hi):
    """Integral of (c1*sin(kx) + c2*cos(kx))**2 over [x_lo, x_hi]."""

    def antiderivative(x):
        s2, c2x = math.sin(2.0 * k * x), math.cos(2.0 * k * x)
        return (
            c1 * c1 * (0.5 * x - s2 / (4.0 * k))
            + c2 * c2 * (0.5 * x + s2 / (4.0 * k))
            - c1 * c2 * c2x / (2.0 * k)
        )

    return antiderivative(x_hi) - antiderivative(x_lo)


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
    half_outer = 0.5 * (pair.distance + pair.width)
    half_inner = 0.5 * (pair.distance - pair.width)
    x0, x1, x2, x3 = -half_outer, -half_inner, half_inner, half_outer

    # region II from the left-wall zero, first lobe positive
    if regime is Regime.A:
        a1 = 0.5 * math.exp(-k1 * x0)
        a2 = -0.5 * math.exp(k1 * x0)
        v1 = a1 * math.exp(k1 * x1) + a2 * math.exp(-k1 * x1)
        s1 = k1 * (a1 * math.exp(k1 * x1) - a2 * math.exp(-k1 * x1))
    else:
        a1 = math.cos(k1 * x0)
        a2 = -math.sin(k1 * x0)
        v1 = a1 * math.sin(k1 * x1) + a2 * math.cos(k1 * x1)
        s1 = k1 * (a1 * math.cos(k1 * x1) - a2 * math.sin(k1 * x1))

    # region III from value/slope continuity at x1
    b = math.exp(-beta * x1) * (beta * v1 + s1) / (2.0 * beta)
    c = math.exp(beta * x1) * (beta * v1 - s1) / (2.0 * beta)
    v2 = b * math.exp(beta * x2) + c * math.exp(-beta * x2)
    s2 = beta * (b * math.exp(beta * x2) - c * math.exp(-beta * x2))

    # region IV from continuity at x2
    d1 = v2 * math.sin(k2 * x2) + (s2 / k2) * math.cos(k2 * x2)
    d2 = v2 * math.cos(k2 * x2) - (s2 / k2) * math.sin(k2 * x2)

    amplitude = math.hypot(d1, d2)
    if amplitude == 0.0:
        raise ValueError("degenerate wavefunction: zero amplitude in the deep well")
    residual = abs(d1 * math.sin(k2 * x3) + d2 * math.cos(k2 * x3)) / amplitude
    if residual > _WALL_TOL:
        raise ValueError(
            f"energy {energy!r} is not an eigenvalue of this pair: "
            f"right-wall residual {residual:.3e} exceeds {_WALL_TOL:.1e}"
        )

    if regime is Regime.A:
        norm_sq_2 = _exp_sq_integral(a1, a2, k1, x0, x1)
    else:
        norm_sq_2 = _trig_sq_integral(a1, a2, k1, x0, x1)
    norm_sq = (
        norm_sq_2
        + _exp_sq_integral(b, c, beta, x1, x2)
        + _trig_sq_integral(d1, d2, k2, x2, x3)
    )
    scale = 1.0 / math.sqrt(norm_sq)

    return PiecewiseWavefunction(
        pair=pair,
        energy=energy,
        regime=regime,
        a1=a1 * scale,
        a2=a2 * scale,
        b=b * scale,
        c=c * scale,
        d1=d1 * scale,
        d2=d2 * scale,
        region_bounds=(x0, x1, x2, x3),
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

