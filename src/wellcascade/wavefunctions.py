"""Piecewise wavefunction reconstruction for a solved bound state.

A pair's potential is the ``(x_start, x_end, value)`` segments of
:func:`~wellcascade.potential.pair_segments`, between hard walls.  On each
segment the state is a closed form in ``t = x - x_start``, with ``k`` the
segment's wavenumber or decay rate at the level's energy:

* ``a cos(k t) + b sin(k t)`` where the energy lies above the segment's value;
* ``a exp(k (t - length)) + b exp(-k t)`` where it lies below, the growing
  term referenced to the right edge, so that neither term exceeds its value
  at an edge.

:func:`_walk` propagates the solution with ``psi = 0`` at the left wall
across the segments, as :func:`~wellcascade.transcendental.count_below`
does: at every edge it rescales ``(psi, psi'/k)`` to unit length and keeps
the scale as a logarithm, so no barrier overflows however wide it is.  Each
segment's two coefficients are read from the states at its edges, so value
and slope match at every interior edge by construction, and the squared
integral of every segment has a closed form, which normalises the state.

The far-wall zero holds only at a true eigenvalue.  Its violation is the
matching residual: ``|psi|`` at the far wall of the unit-length
``(psi, psi'/k)`` state.  Rounding grows wherever the walk runs against the
state's decay, so :func:`build_wavefunction` walks from both walls, the right
one as the same walk over the mirrored segments, and keeps the direction with
the smaller residual.  A level whose residual exceeds 1e-8 is rejected.  The
sign is chosen so that the first lobe is positive.

:func:`sample_wavefunction` tabulates a state; the ``wavefunction`` command
of ``wellcascade.cli`` writes that table as CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eigensolver import _MAX_GRID_POINTS, Level
from .potential import WellPair, pair_segments
from .quantities import CODATA2018, PhysicalConstants

__all__ = [
    "PiecewiseWavefunction",
    "build_wavefunction",
    "sample_wavefunction",
]

# largest far-wall residual of an eigenvalue (|psi| of the unit-length (psi, psi'/k) state)
_WALL_TOL = 1e-8


def _evaluate(piece, x):
    """Value and slope at ``x`` of one ``(x_start, x_end, k, above, a, b)`` piece."""
    x_start, x_end, k, above, a, b = piece
    if above:
        c, s = np.cos(k * (x - x_start)), np.sin(k * (x - x_start))
        return a * c + b * s, k * (b * c - a * s)
    grow, fall = a * np.exp(k * (x - x_end)), b * np.exp(-k * (x - x_start))
    return grow + fall, k * (grow - fall)


@dataclass(frozen=True)
class PiecewiseWavefunction:
    """Normalised bound-state wavefunction: one piece per segment of the pair.

    Each piece is ``(x_start, x_end, k, above, a, b)``, in the form of the
    module notes that ``above`` selects.
    """

    energy: float
    region_bounds: tuple[float, ...]
    pieces: tuple[tuple[float, float, float, bool, float, float], ...]
    wall_residual: float

    def __call__(self, x):
        """Wavefunction value; zero on and beyond the walls."""
        xa = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros_like(xa)
        inside = (xa > self.region_bounds[0]) & (xa < self.region_bounds[-1])
        segment = np.searchsorted(self.region_bounds[1:-1], xa, side="right")
        for i, piece in enumerate(self.pieces):
            mask = inside & (segment == i)
            out[mask] = _evaluate(piece, xa[mask])[0]
        return float(out[0]) if np.isscalar(x) else out


def _walk(segments, energy, ks):
    """States ``(psi, psi', log scale)`` at every edge, from ``psi = 0`` at the left wall.

    ``(psi, psi'/k)`` has unit length at each edge, with ``k`` of the segment
    to the edge's left (of the first segment at the wall).
    """
    psi, slope, log = 0.0, ks[0], 0.0
    edges = [(psi, slope, log)]
    for (x_start, x_end, value), k in zip(segments, ks):
        kl, w = k * (x_end - x_start), slope / k
        if energy > value:
            c, s = math.cos(kl), math.sin(kl)
            psi, w = psi * c + w * s, w * c - psi * s
        else:  # the far edge over e^{kl}: (psi cosh + w sinh, psi sinh + w cosh)
            grow, fall = 0.5 * (psi + w), 0.5 * (psi - w) * math.exp(-2.0 * kl)
            psi, w, log = grow + fall, grow - fall, log + kl
        norm = math.hypot(psi, w) or math.nan  # an underflowed state leaves a NaN residual
        psi, slope, log = psi / norm, k * w / norm, log + math.log(norm)
        edges.append((psi, slope, log))
    return edges


def build_wavefunction(
    pair: WellPair,
    level: Level,
    constants: PhysicalConstants = CODATA2018,
) -> PiecewiseWavefunction:
    """Reconstruct and normalise the wavefunction of a solved level.

    Raises ValueError when the far-wall residual exceeds 1e-8, i.e. when
    ``level.energy`` is not actually an eigenvalue of this pair.
    """
    energy = level.energy
    segments = pair_segments(pair)
    ks = [constants.wavenumber_factor * math.sqrt(abs(energy - v)) for _, _, v in segments]
    if not min(ks) > 0.0:
        raise ValueError(f"energy {energy!r} is not finite or lies on a segment value")

    # the right-to-left walk is the same walk over the mirrored segments
    left = _walk(segments, energy, ks)
    right = _walk([(-x1, -x0, v) for x0, x1, v in reversed(segments)], energy, ks[::-1])
    residual, edges = abs(left[-1][0]), left
    if abs(right[-1][0]) < residual:  # mapped back: edges reversed, slopes negated
        residual, edges = abs(right[-1][0]), [(p, -s, log) for p, s, log in reversed(right)]
    if not residual <= _WALL_TOL:
        raise ValueError(
            f"energy {energy!r} is not an eigenvalue of this pair: "
            f"far-wall residual {residual:.3e} exceeds {_WALL_TOL:.1e}"
        )
    top = max(log for _, _, log in edges)
    sign = math.copysign(1.0, edges[0][1])  # first lobe positive

    raw, norm_sq = [], 0.0
    for (x0, x1, v), k, (p0, s0, l0), (p1, s1, l1) in zip(segments, ks, edges, edges[1:]):
        kl, scale0, scale1 = k * (x1 - x0), math.exp(l0 - top), math.exp(l1 - top)
        if energy > v:
            a, b = p0 * scale0, s0 / k * scale0
            norm_sq += (a * a + b * b) * (x1 - x0) / 2.0
            norm_sq += ((a * a - b * b) * math.sin(2.0 * kl) / 4.0 + a * b * math.sin(kl) ** 2) / k
        else:
            a, b = 0.5 * (p1 + s1 / k) * scale1, 0.5 * (p0 - s0 / k) * scale0
            norm_sq += (a * a + b * b) * -math.expm1(-2.0 * kl) / (2.0 * k)
            norm_sq += 2.0 * a * b * (x1 - x0) * math.exp(-kl)
        raw.append((x0, x1, k, energy > v, a, b))
    scale = sign / math.sqrt(norm_sq)
    return PiecewiseWavefunction(
        energy=energy,
        region_bounds=(segments[0][0], *(x1 for _, x1, _ in segments)),
        pieces=tuple((x0, x1, k, above, a * scale, b * scale) for x0, x1, k, above, a, b in raw),
        wall_residual=residual,
    )


def sample_wavefunction(wf: PiecewiseWavefunction, n_points: int):
    """Uniform samples (x, psi) across the whole domain, walls included; 2 to 10**7 points."""
    if not 2 <= n_points <= _MAX_GRID_POINTS:
        raise ValueError(f"need 2 to {_MAX_GRID_POINTS} sample points, got {n_points}")
    x = np.linspace(wf.region_bounds[0], wf.region_bounds[-1], n_points)
    return x, wf(x)
