"""Geometry of well pairs and the four-well chain.

A :class:`WellPair` is one asymmetric double square well: two wells of equal
width ``width`` whose centers sit ``distance`` apart, confined by hard walls
on the outside and separated by a barrier of width ``distance - width``.
Energies are measured from the bottom of the deeper well, so the barrier top
sits at ``v_deep`` and the shallow well floor at ``v_deep - v_shallow``.

:class:`CascadeSpec` chains four such wells into a ring of pairs, indexed
0..3 with the closing pair last, and carries the two inputs of the transfer
schedule (absorption target and resonance window).

A potential is its segments: :class:`PotentialProfile` holds the
``(x_start, x_end, value)`` triples of a piecewise-constant profile between
hard walls, the same triples :func:`pair_segments` gives for one pair (or a
batch of pairs as arrays) and the level count reads.  :func:`pair_profile`
wraps one pair's segments; :func:`cascade_profile` lays out the chain and
places every well floor at ``max(depths) - depth`` above the global zero (the
bottom of the deepest well), which puts all barrier tops at the same height.
Writing a profile to a file is the command line's job (``wellcascade.cli``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "WellPair",
    "CascadeSpec",
    "PotentialProfile",
    "pair_segments",
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

    ``segments`` are its ``(x_start, x_end, value)`` triples from the left
    wall to the right one: every number finite, every segment of positive
    length, and each starting exactly where the one before it ends.
    """

    segments: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        segments = tuple(tuple(map(float, segment)) for segment in self.segments)
        object.__setattr__(self, "segments", segments)
        _require(len(segments) > 0, "a profile needs at least one segment")
        for i, (x_start, x_end, _) in enumerate(segments):
            where = f"segment {i} {segments[i]}"
            _require(all(map(math.isfinite, segments[i])), f"{where} must be finite")
            _require(x_end > x_start, f"{where} must end after it starts")
            joined = i == 0 or x_start == segments[i - 1][1]
            _require(joined, f"{where} must start where segment {i - 1} ends")

    def max_value(self) -> float:
        return max(value for _, _, value in self.segments)


def pair_segments(pair):
    """A pair's ``(x_start, x_end, value)`` segments in centered coordinates.

    Shallow well left, deep well right, hard walls at +-(distance + width)/2,
    energy zero at the deep-well bottom.  Elementwise: ``pair`` may carry its
    parameters as arrays, one pair per element (the last value stays 0.0).
    """
    half_outer = 0.5 * (pair.distance + pair.width)
    half_inner = 0.5 * (pair.distance - pair.width)
    return (
        (-half_outer, -half_inner, pair.shallow_floor),
        (-half_inner, half_inner, pair.v_deep),
        (half_inner, half_outer, 0.0),
    )


def pair_profile(pair: WellPair) -> PotentialProfile:
    """Profile of a single pair, from its :func:`pair_segments`."""
    return PotentialProfile(pair_segments(pair))


def cascade_profile(spec: CascadeSpec) -> PotentialProfile:
    """Global profile of the four-well chain, left wall at x = 0.

    Well floors sit at ``max(depths) - depth`` and every barrier top at
    ``max(depths)``.  The optional closing distance does not appear here;
    it only defines the wrap-around pair.
    """
    floors = spec.floors()
    top = spec.max_depth
    segments: list[tuple[float, float, float]] = []
    x = 0.0
    for i in range(4):
        start, x = x, x + spec.widths[i]
        segments.append((start, x, floors[i]))
        if i < 3:
            barrier = spec.distances[i] - 0.5 * (spec.widths[i] + spec.widths[i + 1])
            _require(barrier > 0.0, f"pair {i + 1} barrier width must be positive")
            start, x = x, x + barrier
            segments.append((start, x, top))
    return PotentialProfile(tuple(segments))
