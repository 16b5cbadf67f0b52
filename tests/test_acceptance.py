"""Acceptance gate: every criterion prints one PASS line when it holds.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they go;
each criterion pins its tolerance explicitly.
"""

import math

import numpy as np
import pytest

from wellcascade.cascade import solve_cascade
from wellcascade.dynamics import (
    ResonantPair,
    first_maximum_time,
    rabi_probability,
    tunneling_time,
)
from wellcascade.eigensolver import calibrate_distance, solve_pair
from wellcascade.oracle import FdConfig, count_nodes, fd_solve
from wellcascade.potential import WellPair, pair_profile
from wellcascade.quantities import CODATA2018
from wellcascade.wavefunctions import build_wavefunction, sample_wavefunction
from wellcascade.cli import main

RANDOM_PAIR_SEED = 20260810


def _ok(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num:02d} PASS: {text}")


@pytest.fixture(scope="module")
def report(reference_spec):
    return solve_cascade(reference_spec)


def random_pairs(n, seed):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        a = rng.uniform(5.0, 50.0)
        v_deep = rng.uniform(0.3, 2.0)
        v_shallow = rng.uniform(0.1, 0.9 * v_deep)
        distance = a + rng.uniform(3.0, 20.0)
        out.append(WellPair(width=a, distance=distance, v_shallow=v_shallow, v_deep=v_deep))
    return out


def test_criterion_01_pair1_resonances_via_calibration(pair1):
    result = calibrate_distance(pair1, [1.445, 1.460], (60.0, 65.0))
    assert 60.0 <= result.value <= 65.0
    hits = []
    for target in (1.445, 1.460):
        nearest = min(result.levels, key=lambda e: abs(e - target))
        assert abs(nearest - target) <= 5e-3
        hits.append(nearest)
    _ok(
        1,
        f"pair-1 levels {hits[0]:.6f}/{hits[1]:.6f} eV hit 1.445/1.460 within 0.005 "
        f"at calibrated L = {result.value:.4f} A",
    )


def test_criterion_02_well1_ground_state(report):
    ground = report.wells[0].ground_ev
    assert abs(ground - 0.01828) <= 5e-4
    _ok(2, f"well-1 ground state {ground:.6f} eV within 0.0005 of 0.01828")


def test_criterion_03_cascade_levels(report):
    values = (
        report.resonances[1].e_minus,
        report.resonances[1].e_plus,
        report.resonances[2].e_minus,
        report.resonances[2].e_plus,
        report.wells[3].ground_ev,
    )
    targets = (1.329, 1.335, 1.0785, 1.0787, 0.6529)
    for value, target in zip(values, targets):
        assert abs(value - target) <= 0.01
    rendered = ", ".join(f"{v:.5f}" for v in values)
    _ok(3, f"cascade levels {{{rendered}}} eV within 0.01 of the reference set")


def test_criterion_04_absorption(report):
    delta = report.absorption.delta_ev
    lam = report.absorption.wavelength_nm
    assert abs(delta - 1.4267) <= 1e-3
    assert abs(lam - 869.7) <= 2e-3 * 869.7
    _ok(4, f"absorption {delta:.6f} eV (0.001 of 1.4267), wavelength {lam:.2f} nm (0.2% of 869.7)")


def test_criterion_05_tunneling_times_from_reference_splittings():
    doublets = (
        ResonantPair(e_plus=1.460, e_minus=1.445),
        ResonantPair(e_plus=1.335, e_minus=1.329),
        ResonantPair(e_plus=1.0787, e_minus=1.0785),
    )
    expected_ps = (0.138, 0.345, 10.3)
    tolerances = (0.05, 0.05, 0.10)
    got = []
    for doublet, want, tol in zip(doublets, expected_ps, tolerances):
        t_ps = tunneling_time(doublet, 0) * 1e12
        assert abs(t_ps - want) <= tol * want
        got.append(t_ps)
    _ok(5, f"times {got[0]:.4f}/{got[1]:.4f}/{got[2]:.2f} ps vs 0.138/0.345/10.3 (5%/5%/10%)")


def test_criterion_06_oracle_equivalence(pair1, pair2, pair3):
    pairs = random_pairs(25, RANDOM_PAIR_SEED) + [pair1, pair2, pair3]
    worst = 0.0
    for pair in pairs:
        levels = [lv.energy for lv in solve_pair(pair).levels]
        fd = fd_solve(pair_profile(pair), max(len(levels), 1) + 2, FdConfig()).levels
        assert len(fd) == len(levels)
        for mine, ref in zip(levels, fd):
            assert abs(mine - ref) <= 5e-3
            worst = max(worst, abs(mine - ref))
    # doublet splittings on the three reference pairs, default then Richardson
    doublet_targets = ((1.445, 1.460), (0.268, 0.274), (0.4432, 0.4434))
    for pair, (t_lo, t_hi) in zip((pair1, pair2, pair3), doublet_targets):
        energies = [lv.energy for lv in solve_pair(pair).levels]
        i = min(range(len(energies)), key=lambda j: abs(energies[j] - t_lo))
        j = min(range(len(energies)), key=lambda k: abs(energies[k] - t_hi))
        exact = energies[j] - energies[i]
        profile = pair_profile(pair)
        plain = fd_solve(profile, j + 1, FdConfig())
        split_plain = plain.levels[j] - plain.levels[i]
        assert abs(split_plain - exact) <= 0.30 * exact
        rich = fd_solve(profile, j + 1, FdConfig(extrapolate=True))
        split_rich = rich.levels[j] - rich.levels[i]
        assert abs(split_rich - exact) <= 0.10 * exact
    _ok(
        6,
        f"25 random + 3 reference pairs: counts equal, levels within 5e-3 eV "
        f"(worst {worst:.2e}), splittings within 30% (10% extrapolated)",
    )


def test_criterion_07_rabi_properties():
    rng = np.random.default_rng(424242)
    checked = 0
    for _ in range(100):
        e_minus = rng.uniform(0.1, 2.0)
        splitting = 10.0 ** rng.uniform(-5, -1)
        pair = ResonantPair(e_plus=e_minus + splitting, e_minus=e_minus)
        period = 2.0 * math.pi * CODATA2018.hbar_eV_s / pair.splitting
        for t in rng.uniform(0.0, 3.0 * period, 100):
            p = rabi_probability(float(t), pair)
            assert 0.0 <= p <= 1.0
            checked += 1
        assert rabi_probability(float(period / 3.0) + period, pair) == pytest.approx(
            rabi_probability(float(period / 3.0), pair), abs=1e-12
        )
    assert checked == 10_000
    for _ in range(20):
        e_minus = rng.uniform(0.1, 2.0)
        splitting = 10.0 ** rng.uniform(-4, -1)
        pair = ResonantPair(e_plus=e_minus + splitting, e_minus=e_minus)
        assert first_maximum_time(pair) == pytest.approx(tunneling_time(pair, 0), rel=1e-6)
    _ok(7, "P in [0,1] on 10^4 samples, first maximum matches the closed form to 1e-6, "
           "period 2*pi*hbar/splitting to 1e-12")


def test_criterion_08_tunneling_vs_decay(report):
    ratios = [s.tunneling_vs_decay_ratio for s in report.steps]
    assert all(r >= 50.0 for r in ratios)
    assert 50.0 <= ratios[0] <= 60.0
    assert any("two orders of magnitude" in note for note in report.notes)
    rendered = ", ".join(f"{r:.1f}" for r in ratios)
    _ok(8, f"tunneling/decay ratios {{{rendered}}} all >= 50; step 1 ~ 55; claim noted in report")


def test_criterion_09_wavefunction_reconstruction(pair1, pair2, pair3):
    worst_resid = 0.0
    worst_norm = 0.0
    for pair in (pair1, pair2, pair3):
        for level in solve_pair(pair).levels[:5]:
            wf = build_wavefunction(pair, level)
            assert wf.wall_residual < 1e-8
            x, psi = sample_wavefunction(wf, 10001)
            norm = float(np.trapezoid(psi**2, x))
            assert abs(norm - 1.0) <= 1e-3
            assert count_nodes(psi) == level.index
            worst_resid = max(worst_resid, wf.wall_residual)
            worst_norm = max(worst_norm, abs(norm - 1.0))
    _ok(
        9,
        f"15 reference states: wall residual <= {worst_resid:.1e} (< 1e-8), "
        f"norm error <= {worst_norm:.1e} (< 1e-3), node counts = level indices",
    )


def test_criterion_10_deterministic_report(tmp_path, reference_config_file):
    dir_a, dir_b = tmp_path / "run_a", tmp_path / "run_b"
    assert main(["cascade", "--config", str(reference_config_file), "--output-dir", str(dir_a)]) == 0
    assert main(["cascade", "--config", str(reference_config_file), "--output-dir", str(dir_b)]) == 0
    bytes_a = (dir_a / "report.json").read_bytes()
    bytes_b = (dir_b / "report.json").read_bytes()
    assert bytes_a == bytes_b
    _ok(10, f"two cascade runs produced byte-identical report.json ({len(bytes_a)} bytes)")
