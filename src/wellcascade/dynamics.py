"""Two-level resonance dynamics: oscillation, tunneling time, decay time.

A :class:`ResonantPair` is a near-degenerate doublet, its two eigenstate
energies E+ > E-.  In the resonant approximation the oscillation probability
between the wells is

    P(t) = sin^2((E+ - E-) t / (2 hbar)),

which reaches one at every maximum.  The tunneling time is the time of the
k-th maximum,

    T = (2k + 1) * pi * hbar / (E+ - E-),

and the intra-well decay time is the uncertainty-principle lower bound
``hbar / (2 delta_E)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .quantities import CODATA2018, PhysicalConstants

__all__ = [
    "ResonantPair",
    "TransferStep",
    "rabi_probability",
    "tunneling_time",
    "decay_time",
]


@dataclass(frozen=True)
class ResonantPair:
    """Near-degenerate doublet: its two finite energies, ``e_plus > e_minus`` (eV)."""

    e_plus: float
    e_minus: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.e_plus) and math.isfinite(self.e_minus)):
            raise ValueError("doublet energies must be finite")
        if not self.e_plus > self.e_minus:
            raise ValueError(
                f"doublet requires e_plus > e_minus, got {self.e_plus} / {self.e_minus}"
            )

    @property
    def splitting(self) -> float:
        """E+ - E- in eV (always positive)."""
        return self.e_plus - self.e_minus


@dataclass(frozen=True)
class TransferStep:
    """One tunnel-then-decay stage of the cascade."""

    from_site: str
    to_site: str
    resonance: ResonantPair
    tunneling_time_s: float
    decay_gap_ev: float
    decay_time_s: float

    def __post_init__(self) -> None:
        if not self.tunneling_time_s > 0.0:
            raise ValueError(f"tunneling time must be positive, got {self.tunneling_time_s}")
        if not self.decay_time_s > 0.0:
            raise ValueError(f"decay time must be positive, got {self.decay_time_s}")

    @property
    def tunneling_vs_decay_ratio(self) -> float:
        """tunneling_time / decay_time of this step."""
        return self.tunneling_time_s / self.decay_time_s


def rabi_probability(
    t_s: float,
    pair: ResonantPair,
    constants: PhysicalConstants = CODATA2018,
) -> float:
    """Resonant oscillation probability at time ``t_s`` (seconds)."""
    if not (math.isfinite(t_s) and t_s >= 0.0):
        raise ValueError(f"time must be non-negative, got {t_s!r}")
    phase = pair.splitting * t_s / (2.0 * constants.hbar_eV_s)
    return math.sin(phase) ** 2


def tunneling_time(
    pair: ResonantPair,
    k: int = 0,
    constants: PhysicalConstants = CODATA2018,
) -> float:
    """Time of the oscillation's k-th maximum, (2k+1) pi hbar / splitting."""
    if k < 0 or k != int(k):
        raise ValueError(f"k must be a non-negative integer, got {k!r}")
    return (2 * k + 1) * math.pi * constants.hbar_eV_s / pair.splitting


def decay_time(delta_e_ev: float, constants: PhysicalConstants = CODATA2018) -> float:
    """Uncertainty-principle lower bound hbar/(2 delta_E) in seconds."""
    if not (math.isfinite(delta_e_ev) and delta_e_ev > 0.0):
        raise ValueError(f"decay gap must be positive, got {delta_e_ev!r}")
    return constants.hbar_eV_s / (2.0 * delta_e_ev)
