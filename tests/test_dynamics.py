import math

import numpy as np
import pytest

from wellcascade.dynamics import (
    ResonantPair,
    TransferStep,
    decay_time,
    rabi_probability,
    tunneling_time,
)
from wellcascade.quantities import CODATA2018

from helpers import first_maximum_time

HBAR = CODATA2018.hbar_eV_s

# splittings of the reference model's three doublets
PAIR1 = ResonantPair(e_plus=1.460, e_minus=1.445)
PAIR2 = ResonantPair(e_plus=1.335, e_minus=1.329)
PAIR3 = ResonantPair(e_plus=1.0787, e_minus=1.0785)


def random_resonant_pairs(n, seed):
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n):
        e_minus = rng.uniform(0.1, 2.0)
        splitting = 10.0 ** rng.uniform(-5, -1)
        pairs.append(ResonantPair(e_plus=e_minus + splitting, e_minus=e_minus))
    return pairs


def test_probability_zero_at_t0():
    assert rabi_probability(0.0, PAIR1) == 0.0


def test_probability_one_at_first_maximum():
    t_max = math.pi * HBAR / PAIR1.splitting
    assert rabi_probability(t_max, PAIR1) == pytest.approx(1.0, abs=1e-12)


def test_exact_resonance_prefactor_is_one():
    coupled = ResonantPair(e_plus=1.46, e_minus=1.445, e1=1.0, e2=1.0, w12=0.003)
    t_max = math.pi * HBAR / coupled.splitting
    assert rabi_probability(t_max, coupled) == pytest.approx(1.0, abs=1e-12)


def test_detuned_prefactor_caps_probability():
    coupled = ResonantPair(e_plus=1.46, e_minus=1.445, e1=1.0, e2=1.01, w12=0.003)
    cap = 4 * 0.003**2 / (0.01**2 + 4 * 0.003**2)
    t_max = math.pi * HBAR / coupled.splitting
    assert rabi_probability(t_max, coupled) == pytest.approx(cap, rel=1e-12)


def test_probability_rejects_negative_time():
    with pytest.raises(ValueError):
        rabi_probability(-1e-15, PAIR1)


def test_probability_bounded_on_random_samples():
    rng = np.random.default_rng(12345)
    for pair in random_resonant_pairs(40, seed=99):
        period = 2.0 * math.pi * HBAR / pair.splitting
        for t in rng.uniform(0.0, 3.0 * period, 50):
            p = rabi_probability(float(t), pair)
            assert 0.0 <= p <= 1.0


def test_probability_periodicity():
    rng = np.random.default_rng(2024)
    for pair in random_resonant_pairs(10, seed=5):
        period = 2.0 * math.pi * HBAR / pair.splitting
        for t in rng.uniform(0.0, 2.0 * period, 20):
            assert rabi_probability(float(t) + period, pair) == pytest.approx(
                rabi_probability(float(t), pair), abs=1e-12
            )


def test_tunneling_times_from_reference_splittings():
    assert tunneling_time(PAIR1) * 1e12 == pytest.approx(0.138, rel=5e-2)
    assert tunneling_time(PAIR2) * 1e12 == pytest.approx(0.345, rel=5e-2)
    assert tunneling_time(PAIR3) * 1e12 == pytest.approx(10.3, rel=1e-1)


def test_tunneling_time_linear_in_odd_k():
    t0 = tunneling_time(PAIR1, 0)
    assert tunneling_time(PAIR1, 1) == pytest.approx(3.0 * t0, rel=1e-15)
    assert tunneling_time(PAIR1, 4) == pytest.approx(9.0 * t0, rel=1e-15)


def test_tunneling_time_monotone():
    times_k = [tunneling_time(PAIR1, k) for k in range(4)]
    assert times_k == sorted(times_k) and len(set(times_k)) == 4
    narrow = ResonantPair(e_plus=1.0 + 1e-4, e_minus=1.0)
    wide = ResonantPair(e_plus=1.0 + 1e-2, e_minus=1.0)
    assert tunneling_time(narrow) > tunneling_time(wide)


def test_tunneling_time_rejects_bad_k():
    with pytest.raises(ValueError):
        tunneling_time(PAIR1, -1)


def test_doublet_requires_positive_splitting():
    with pytest.raises(ValueError):
        ResonantPair(e_plus=1.0, e_minus=1.0)
    with pytest.raises(ValueError):
        ResonantPair(e_plus=0.9, e_minus=1.0)


def test_partial_coupling_fields_rejected():
    with pytest.raises(ValueError):
        ResonantPair(e_plus=1.1, e_minus=1.0, w12=0.01)
    with pytest.raises(ValueError):
        ResonantPair(e_plus=1.1, e_minus=1.0, e1=1.0, e2=1.05, w12=0.0)


def test_decay_times():
    expected_1 = HBAR / (2.0 * 0.131)
    assert decay_time(0.131) == pytest.approx(expected_1, rel=1e-12)
    assert decay_time(0.131) == pytest.approx(2.51e-15, rel=1e-2)
    assert decay_time(0.4258) == pytest.approx(7.7e-16, rel=1e-2)


def test_decay_time_monotone_decreasing():
    gaps = np.logspace(-3, 2, 12)
    times = [decay_time(float(g)) for g in gaps]
    assert times == sorted(times, reverse=True)


def test_decay_time_rejects_nonpositive():
    with pytest.raises(ValueError):
        decay_time(0.0)
    with pytest.raises(ValueError):
        decay_time(-0.1)


def test_first_maximum_matches_closed_form():
    for pair in (PAIR1, PAIR2, PAIR3):
        t_scan = first_maximum_time(pair)
        t_formula = tunneling_time(pair, 0)
        assert t_scan == pytest.approx(t_formula, rel=1e-6)


def test_first_maximum_scaling():
    base = ResonantPair(e_plus=1.0 + 1e-3, e_minus=1.0)
    scaled = ResonantPair(e_plus=1.0 + 1e-2, e_minus=1.0)
    assert first_maximum_time(scaled) == pytest.approx(
        first_maximum_time(base) / 10.0, rel=1e-6
    )


def test_first_maximum_dominates_earlier_times():
    t_star = first_maximum_time(PAIR2)
    p_star = rabi_probability(t_star, PAIR2)
    for frac in np.linspace(0.05, 0.95, 19):
        assert p_star >= rabi_probability(float(frac) * t_star, PAIR2)


def test_first_maximum_requires_resonant_mode():
    coupled = ResonantPair(e_plus=1.1, e_minus=1.0, e1=1.0, e2=1.05, w12=0.01)
    with pytest.raises(ValueError):
        first_maximum_time(coupled)


def test_transfer_step_validation():
    with pytest.raises(ValueError):
        TransferStep(
            from_site="P",
            to_site="B",
            resonance=PAIR1,
            tunneling_time_s=0.0,
            decay_gap_ev=0.1,
            decay_time_s=1e-15,
        )
    with pytest.raises(ValueError):
        TransferStep(
            from_site="P",
            to_site="B",
            resonance=PAIR1,
            tunneling_time_s=1e-13,
            decay_gap_ev=0.1,
            decay_time_s=-1e-15,
        )
