"""Geometry of well pairs and the four-well chain.

A :class:`WellPair` is one asymmetric double square well: two wells of equal
width ``width`` whose centers sit ``distance`` apart, confined by hard walls
on the outside and separated by a barrier of width ``distance - width``.
Energies are measured from the bottom of the deeper well, so the barrier top
sits at ``v_deep`` and the shallow well floor at ``v_deep - v_shallow``.

:class:`CascadeSpec` chains four such wells into a ring of pairs, indexed
0..3 with the closing pair last, and carries the two inputs of the transfer
schedule (absorption target and resonance window).  :func:`cascade_profile`
places every well floor at ``max(depths) - depth`` above the global zero (the
bottom of the deepest well), which puts all barrier tops at the same height.
Writing a profile to a file is the command line's job (``wellcascade.cli``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "WellPair",
    "CascadeSpec",
    "PotentialProfile",
    "pair_profile",
    "cascade_profile",
]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


@dataclass(frozen=True)
class WellPair:
    """One asymmetric double well (lengths in Angstrom, depths in eV)."""

    width: float
    distance: float
    v_shallow: float
    v_deep: float

    def __post_init__(self) -> None:
        for name in ("width", "distance", "v_shallow", "v_deep"):
            _require(math.isfinite(getattr(self, name)), f"{name} must be finite")
        _require(self.width > 0.0, f"well width must be positive, got {self.width}")
        _require(
            self.distance > self.width,
            f"center distance {self.distance} must exceed width {self.width} "
            "(barrier width would not be positive)",
        )
        _require(
            0.0 < self.v_shallow < self.v_deep,
            f"depths must satisfy 0 < v_shallow < v_deep, got "
            f"{self.v_shallow} / {self.v_deep}",
        )

    @property
    def shallow_floor(self) -> float:
        """Shallow-well floor above the deep-well bottom (eV)."""
        return self.v_deep - self.v_shallow


@dataclass(frozen=True)
class CascadeSpec:
    """Four-well chain: widths/depths per well, center distances per pair.

    The pairs form a ring: pair ``i`` joins wells ``i`` and ``(i + 1) % 4`` at
    center distance ``distances[i]``.  The three active pairs are required;
    a fourth distance adds the closing pair 3 (last well back to the first).
    The first well must be the deepest one, and the pairwise solver requires
    all well widths to be equal.  The photon lifts the electron
    ``absorption_target_ev`` above the first well's ground state, and each
    doublet is searched within ``resonance_window_ev`` of its incoming energy.
    """

    widths: tuple[float, float, float, float]
    distances: tuple[float, ...]
    depths: tuple[float, float, float, float]
    labels: tuple[str, str, str, str] = ("P", "B", "H", "Q")
    absorption_target_ev: float = 1.4267
    resonance_window_ev: float = 0.05

    def __post_init__(self) -> None:
        object.__setattr__(self, "widths", tuple(float(w) for w in self.widths))
        object.__setattr__(self, "distances", tuple(float(d) for d in self.distances))
        object.__setattr__(self, "depths", tuple(float(v) for v in self.depths))
        object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))
        _require(len(self.widths) == 4, "cascade needs exactly 4 well widths")
        _require(len(self.depths) == 4, "cascade needs exactly 4 well depths")
        _require(len(self.labels) == 4, "cascade needs exactly 4 site labels")
        _require(
            len(self.distances) in (3, 4),
            "cascade needs 3 inter-well distances (closing distance optional 4th)",
        )
        _require(len(set(self.labels)) == 4, "site labels must be unique")
        for name in ("absorption_target_ev", "resonance_window_ev"):
            value = getattr(self, name)
            _require(math.isfinite(value) and value > 0.0, f"{name} must be positive, got {value!r}")
        _require(
            all(math.isclose(w, self.widths[0], rel_tol=1e-12) for w in self.widths),
            "the pairwise matching equations assume equal well widths; "
            f"got {self.widths}",
        )
        _require(
            all(self.depths[0] > v for v in self.depths[1:]),
            f"first well must be the deepest, got depths {self.depths}",
        )
        # every pair, the closing one included, must be a valid WellPair
        for i in range(len(self.distances)):
            self.pair(i)

    @property
    def max_depth(self) -> float:
        return self.depths[0]

    def floors(self) -> tuple[float, float, float, float]:
        """Well floors above the global zero (deepest well bottom)."""
        return tuple(self.max_depth - v for v in self.depths)

    def _wells(self, index: int) -> tuple[int, int]:
        """Wells (index, index+1 mod 4) of pair ``index``; index 3 is the closing pair."""
        if not 0 <= index < len(self.distances):
            raise ValueError(f"pair index must be 0..{len(self.distances) - 1}, got {index}")
        return index, (index + 1) % 4

    def pair(self, index: int) -> WellPair:
        """Well pair ``index`` with its shallower and deeper depth."""
        i, j = self._wells(index)
        va, vb = self.depths[i], self.depths[j]
        return WellPair(
            width=self.widths[i],
            distance=self.distances[i],
            v_shallow=min(va, vb),
            v_deep=max(va, vb),
        )

    def closing_pair(self) -> WellPair:
        """The closing pair: last well back to the first."""
        return self.pair(3)

    def pair_labels(self, index: int) -> tuple[str, str]:
        """Site labels of the two wells of pair ``index``."""
        i, j = self._wells(index)
        return self.labels[i], self.labels[j]

    def pair_offset(self, index: int) -> float:
        """Shift adding pair-local energies onto the global reference."""
        i, j = self._wells(index)
        return self.max_depth - max(self.depths[i], self.depths[j])


@dataclass(frozen=True)
class PotentialProfile:
    """Piecewise-constant potential between two hard walls.

    ``breakpoints`` are the interior segment boundaries (strictly increasing);
    segment ``i`` spans from the previous boundary (or ``x_min``) up to
    ``breakpoints[i]`` and carries ``segment_values[i]``.  Evaluation at a
    breakpoint returns the right-hand segment.
    """

    breakpoints: tuple[float, ...]
    segment_values: tuple[float, ...]
    x_min: float
    x_max: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "breakpoints", tuple(float(b) for b in self.breakpoints))
        object.__setattr__(self, "segment_values", tuple(float(v) for v in self.segment_values))
        _require(
            len(self.segment_values) == len(self.breakpoints) + 1,
            "segment count must be breakpoint count + 1",
        )
        edges = (self.x_min, *self.breakpoints, self.x_max)
        _require(
            all(b1 > b0 for b0, b1 in zip(edges, edges[1:])),
            f"breakpoints must increase strictly inside ({self.x_min}, {self.x_max})",
        )

    def segments(self) -> list[tuple[float, float, float]]:
        """(x_start, x_end, value) triples covering the whole domain."""
        edges = (self.x_min, *self.breakpoints, self.x_max)
        return [
            (edges[i], edges[i + 1], self.segment_values[i])
            for i in range(len(self.segment_values))
        ]

    def __call__(self, x):
        """Potential value at ``x`` (scalar or array); walls are not included."""
        xa = np.asarray(x, dtype=float)
        idx = np.searchsorted(np.asarray(self.breakpoints), xa, side="right")
        values = np.asarray(self.segment_values)[idx]
        return float(values) if np.isscalar(x) else values

    def max_value(self) -> float:
        return max(self.segment_values)


def pair_profile(pair: WellPair) -> PotentialProfile:
    """Profile of a single pair in centered coordinates.

    The shallow well occupies the left region, the deep well the right one;
    hard walls sit at +-(distance + width)/2 and the energy zero is the
    deep-well bottom.
    """
    half_outer = 0.5 * (pair.distance + pair.width)
    half_inner = 0.5 * (pair.distance - pair.width)
    return PotentialProfile(
        breakpoints=(-half_inner, half_inner),
        segment_values=(pair.shallow_floor, pair.v_deep, 0.0),
        x_min=-half_outer,
        x_max=half_outer,
    )


def cascade_profile(spec: CascadeSpec) -> PotentialProfile:
    """Global profile of the four-well chain, left wall at x = 0.

    Well floors sit at ``max(depths) - depth`` and every barrier top at
    ``max(depths)``.  The optional closing distance does not appear here;
    it only defines the wrap-around pair.
    """
    floors = spec.floors()
    top = spec.max_depth
    breaks: list[float] = []
    values: list[float] = []
    x = 0.0
    for i in range(4):
        values.append(floors[i])
        x += spec.widths[i]
        if i < 3:
            breaks.append(x)
            barrier = spec.distances[i] - 0.5 * (spec.widths[i] + spec.widths[i + 1])
            _require(barrier > 0.0, f"pair {i + 1} barrier width must be positive")
            values.append(top)
            x += barrier
            breaks.append(x)
    return PotentialProfile(
        breakpoints=tuple(breaks),
        segment_values=tuple(values),
        x_min=0.0,
        x_max=x,
    )

