"""Four-well cascade assembly: levels, resonances, schedule and comparisons.

The chain is solved pairwise, one solve per pair of the spec's ring (wells
1-2, 2-3, 3-4 and optionally the closing 4-1 pair).  Pair-local energies are
shifted onto the global reference (the bottom of the deepest well) by
``max(depths) - max(depth_i, depth_j)``.  The electron schedule is: photon
absorption from the first well's ground state into the first resonant
doublet, then for each pair a tunnel step timed by the doublet splitting
followed by an intra-well decay to the next well's ground-class level.  The
closing pair is solved for information only and produces no transfer step.
The report is plain data; ``wellcascade.cli`` turns it into ``report.json``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dynamics import ResonantPair, TransferStep, decay_time, tunneling_time
from .eigensolver import SolveResult, SolverConfig, _solve_all
from .potential import CascadeSpec
from .quantities import CODATA2018, PhysicalConstants, photon_wavelength_nm
from .transcendental import Regime

__all__ = [
    "ResonanceNotFoundError",
    "PairLevels",
    "WellSummary",
    "Absorption",
    "CascadeReport",
    "ComparisonRow",
    "StepReference",
    "EXPERIMENT_REFERENCE",
    "REFERENCE_TIMES_PS",
    "REFERENCE_LEVELS_EV",
    "solve_cascade",
    "compare_to_experiment",
    "tunneling_vs_decay",
]

# Published reference solution of this four-well model (for comparison output).
REFERENCE_TIMES_PS = (0.14, 0.35, 11.0)
REFERENCE_LEVELS_EV = {
    "well1_ground": 0.01828,
    "doublet1": (1.445, 1.460),
    "doublet2": (1.329, 1.335),
    "doublet3": (1.0785, 1.0787),
    "well4_ground": 0.6529,
    "absorption": 1.426676,
    "wavelength_nm": 869.7,
}


@dataclass(frozen=True)
class StepReference:
    """One reference row: transfer time and energy span of a step."""

    time_ps: float
    energy_from_ev: float
    energy_to_ev: float


# Measured charge-separation steps of the Rhodobacter sphaeroides reaction
# center: P* -> B (3 ps, 1.40 -> 1.30 eV), B -> H (1 ps, 1.30 -> 1.15 eV),
# H -> Q (200 ps, 1.15 -> 0.65 eV).
EXPERIMENT_REFERENCE = (
    StepReference(3.0, 1.40, 1.30),
    StepReference(1.0, 1.30, 1.15),
    StepReference(200.0, 1.15, 0.65),
)


class ResonanceNotFoundError(RuntimeError):
    """No doublet close enough to the incoming electron energy."""


@dataclass(frozen=True)
class PairLevels:
    """Solved levels of one pair, with the shift onto the global reference."""

    index: int  # 1-based pair number; 4 = closing pair
    labels: tuple[str, str]
    offset_ev: float
    result: SolveResult

    @property
    def name(self) -> str:
        return f"{self.labels[0]}-{self.labels[1]}"

    def global_energies(self) -> tuple[float, ...]:
        return tuple(lv.energy + self.offset_ev for lv in self.result.levels)


@dataclass(frozen=True)
class WellSummary:
    label: str
    width: float
    depth_ev: float
    floor_ev: float
    ground_ev: float  # global energy of the well's own ground-class level


@dataclass(frozen=True)
class Absorption:
    from_ev: float
    to_ev: float
    delta_ev: float
    wavelength_nm: float


@dataclass(frozen=True)
class CascadeReport:
    spec: CascadeSpec
    solver: SolverConfig
    wells: tuple[WellSummary, ...]
    pairs: tuple[PairLevels, ...]
    resonances: tuple[ResonantPair, ...]
    absorption: Absorption
    steps: tuple[TransferStep, ...]
    notes: tuple[str, ...]


def _select_doublet(
    pair_levels: PairLevels, incoming_ev: float, window_ev: float
) -> ResonantPair:
    """Nearest doublet whose members both lie within the window."""
    energies = pair_levels.global_energies()
    candidates = []
    for lo, hi in zip(energies, energies[1:]):
        if abs(lo - incoming_ev) <= window_ev and abs(hi - incoming_ev) <= window_ev:
            center = 0.5 * (lo + hi)
            candidates.append((abs(center - incoming_ev), hi - lo, lo, hi))
    if not candidates:
        raise ResonanceNotFoundError(
            f"pair {pair_levels.index} ({pair_levels.name}): no resonant doublet "
            f"within {window_ev} eV of {incoming_ev:.6f} eV"
        )
    candidates.sort()
    _, _, lo, hi = candidates[0]
    return ResonantPair(e_plus=hi, e_minus=lo)


def _ground_class(pair_levels: PairLevels, member_is_deep: bool) -> float:
    """Global ground-class energy of one member well of a solved pair.

    The deep member's ground is the pair's lowest level; the shallow member's
    is the lowest regime-B level (the first level above its floor).
    """
    levels = pair_levels.result.levels
    if not levels:
        raise ResonanceNotFoundError(
            f"pair {pair_levels.index} ({pair_levels.name}) has no bound states"
        )
    if member_is_deep:
        return levels[0].energy + pair_levels.offset_ev
    for lv in levels:
        if lv.regime is Regime.B:
            return lv.energy + pair_levels.offset_ev
    raise ResonanceNotFoundError(
        f"pair {pair_levels.index} ({pair_levels.name}): shallow well binds no level"
    )


def solve_cascade(
    spec: CascadeSpec,
    config: SolverConfig | None = None,
    *,
    constants: PhysicalConstants = CODATA2018,
) -> CascadeReport:
    """Solve the chain pairwise and assemble the full transfer schedule."""
    cfg = config or SolverConfig()

    # one solve batch: every level of the four pairs is located in lockstep
    results = _solve_all(
        [spec.pair(i) for i in range(len(spec.distances))], cfg, None, None, constants
    )
    pairs = tuple(
        PairLevels(
            index=i + 1,
            labels=spec.pair_labels(i),
            offset_ev=spec.pair_offset(i),
            result=result,
        )
        for i, result in enumerate(results)
    )

    grounds, doublets = [], []
    for i, pair_levels in enumerate(pairs[:3]):
        deep = spec.depths[i] > spec.depths[i + 1]
        grounds.append(_ground_class(pair_levels, member_is_deep=deep))
        incoming = grounds[0] + spec.absorption_target_ev if i == 0 else grounds[i]
        doublets.append(_select_doublet(pair_levels, incoming, spec.resonance_window_ev))
    grounds.append(_ground_class(pairs[2], member_is_deep=spec.depths[3] > spec.depths[2]))

    delta = doublets[0].e_minus - grounds[0]
    if delta <= 0.0:
        raise ResonanceNotFoundError(
            f"absorption energy must be positive, got {delta:.6f} eV"
        )
    absorption = Absorption(
        from_ev=grounds[0],
        to_ev=doublets[0].e_minus,
        delta_ev=delta,
        wavelength_nm=photon_wavelength_nm(delta, constants),
    )

    steps = []
    for i, doublet in enumerate(doublets):
        gap = doublet.e_plus - grounds[i + 1]
        if gap <= 0.0:
            raise ResonanceNotFoundError(
                f"step {i + 1}: decay gap is not positive "
                f"({doublet.e_plus:.6f} -> {grounds[i + 1]:.6f} eV)"
            )
        steps.append(
            TransferStep(
                from_site=spec.labels[i],
                to_site=spec.labels[i + 1],
                resonance=doublet,
                tunneling_time_s=tunneling_time(doublet, 0, constants),
                decay_gap_ev=gap,
                decay_time_s=decay_time(gap, constants),
            )
        )

    floors = spec.floors()
    wells = tuple(
        WellSummary(
            label=spec.labels[i],
            width=spec.widths[i],
            depth_ev=spec.depths[i],
            floor_ev=floors[i],
            ground_ev=grounds[i],
        )
        for i in range(4)
    )

    ratios = [s.tunneling_vs_decay_ratio for s in steps]
    notes = (
        "tunneling dominates every step: tunneling/decay time ratios are "
        + ", ".join(f"{r:.1f}" for r in ratios),
        "the reference model claims the tunneling time exceeds the decay time "
        f"by at least two orders of magnitude; the first step here gives {ratios[0]:.1f}x",
        "the closing pair (last well back to the first) is solved for information "
        "only; the return of the electron is outside this model",
    )

    return CascadeReport(
        spec=spec,
        solver=cfg,
        wells=wells,
        pairs=pairs,
        resonances=tuple(doublets),
        absorption=absorption,
        steps=tuple(steps),
        notes=notes,
    )


@dataclass(frozen=True)
class ComparisonRow:
    step: int
    sites: str
    model_time_ps: float
    reference_time_ps: float
    time_ratio: float
    same_order: bool
    model_energy_from_ev: float
    model_energy_to_ev: float
    reference_energy_from_ev: float
    reference_energy_to_ev: float
    energy_from_deviation_ev: float
    energy_to_deviation_ev: float


def compare_to_experiment(
    report: CascadeReport,
    reference: tuple[StepReference, ...] = EXPERIMENT_REFERENCE,
) -> tuple[ComparisonRow, ...]:
    """Model schedule against a per-step reference (experiment by default)."""
    if len(reference) != len(report.steps):
        raise ValueError(
            f"reference has {len(reference)} steps, report has {len(report.steps)}"
        )
    rows = []
    for i, (step, ref) in enumerate(zip(report.steps, reference)):
        model_time_ps = step.tunneling_time_s * 1e12
        start = step.resonance.e_plus
        end = start - step.decay_gap_ev
        ratio = model_time_ps / ref.time_ps
        rows.append(
            ComparisonRow(
                step=i + 1,
                sites=f"{step.from_site}->{step.to_site}",
                model_time_ps=model_time_ps,
                reference_time_ps=ref.time_ps,
                time_ratio=ratio,
                same_order=0.1 <= ratio <= 10.0,
                model_energy_from_ev=start,
                model_energy_to_ev=end,
                reference_energy_from_ev=ref.energy_from_ev,
                reference_energy_to_ev=ref.energy_to_ev,
                energy_from_deviation_ev=start - ref.energy_from_ev,
                energy_to_deviation_ev=end - ref.energy_to_ev,
            )
        )
    return tuple(rows)


def tunneling_vs_decay(report: CascadeReport) -> list[float]:
    """Per-step ratio tunneling_time / decay_time."""
    return [s.tunneling_vs_decay_ratio for s in report.steps]

