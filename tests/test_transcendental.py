import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wellcascade import eigensolver
from wellcascade.eigensolver import find_levels
from wellcascade.potential import WellPair
from wellcascade.quantities import CODATA2018
from wellcascade import transcendental
from wellcascade.transcendental import (
    Regime,
    characteristic,
    classify_regime,
    grid_scan,
    _wavenumbers,
)

mp.mp.dps = 50


def _raw_sides(pair, energies):
    """grid_scan's sides with the common exp(-beta (L-a)) factor multiplied back out."""
    e = np.atleast_1d(np.asarray(energies, dtype=float))
    scan = grid_scan(pair, e)
    beta = CODATA2018.wavenumber_factor * np.sqrt(pair.v_deep - e)
    grow = np.exp(beta * (pair.distance - pair.width))
    return scan.lhs * grow, scan.rhs * grow, scan.pole


def _mismatch(pair, energy):
    return float(grid_scan(pair, np.array([energy])).mismatch[0])


def _literal_sides(pair, energy):
    """Table of matching functions transcribed literally at 50 digits."""
    e = mp.mpf(energy)
    a, l = mp.mpf(pair.width), mp.mpf(pair.distance)
    factor = mp.sqrt(
        2 * mp.mpf(9.1093837015e-31) * mp.mpf(1.602176634e-19)
    ) / mp.mpf(1.054571817e-34) * mp.mpf(1e-10)
    k2 = factor * mp.sqrt(e)
    beta = factor * mp.sqrt(mp.mpf(pair.v_deep) - e)
    gap = mp.mpf(pair.v_deep) - mp.mpf(pair.v_shallow)
    if e < gap:
        k1 = factor * mp.sqrt(gap - e)
        f = (
            ((k1 - beta) * mp.e ** (k1 * (l - a)) + (k1 + beta) * mp.e ** (k1 * (l + a)))
            * mp.e ** (beta * (l - a))
        ) / ((-k1 + beta) * mp.e ** (k1 * (l + a)) - (k1 + beta) * mp.e ** (k1 * (l - a)))
    else:
        k1 = factor * mp.sqrt(e - gap)
        cot1 = mp.cos(k1 * a) / mp.sin(k1 * a)
        f = (beta + k1 * cot1) * mp.e ** (beta * (l - a)) / (beta - k1 * cot1)
    cot2 = mp.cos(k2 * a) / mp.sin(k2 * a)
    g = (beta - k2 * cot2) * mp.e ** (-beta * (l - a)) / (beta + k2 * cot2)
    return f, g


def test_classify_regime(pair1):
    assert classify_regime(pair1, 1.0) is Regime.A
    assert classify_regime(pair1, 1.445) is Regime.B
    # boundary assigned to B by convention
    assert classify_regime(pair1, pair1.shallow_floor) is Regime.B
    with pytest.raises(ValueError):
        classify_regime(pair1, 0.0)
    with pytest.raises(ValueError):
        classify_regime(pair1, pair1.v_deep)


def test_wavenumbers_consistency(pair1):
    factor = CODATA2018.wavenumber_factor
    energies = (0.5, 1.2, 1.45)
    for e, k1, beta, k2 in zip(energies, *_wavenumbers(pair1, np.array(energies))):
        assert k2 == pytest.approx(factor * math.sqrt(e), rel=1e-14)
        assert beta == pytest.approx(factor * math.sqrt(pair1.v_deep - e), rel=1e-14)
        expected = abs(pair1.shallow_floor - e)
        assert k1 == pytest.approx(factor * math.sqrt(expected), rel=1e-14)
        assert (k1, beta, k2) == tuple(_wavenumbers(pair1, e))


def test_sides_match_literal_high_precision(pair1):
    rng = np.random.default_rng(42)
    checked = 0
    for e in rng.uniform(0.01, pair1.v_deep - 0.01, 20):
        (lhs,), (rhs,), (pole,) = _raw_sides(pair1, e)
        if pole:
            continue
        f, g = _literal_sides(pair1, float(e))
        assert lhs == pytest.approx(float(f), rel=1e-10)
        assert rhs == pytest.approx(float(g), rel=1e-10)
        checked += 1
    assert checked >= 18


def test_rescaled_sides_carry_common_decay_factor(pair1):
    rng = np.random.default_rng(3)
    for e in rng.uniform(0.05, pair1.v_deep - 0.05, 10):
        scan = grid_scan(pair1, np.array([e]))
        if scan.pole[0]:
            continue
        f, g = _literal_sides(pair1, float(e))
        beta = mp.mpf(float(_wavenumbers(pair1, float(e))[1]))
        decay = mp.e ** (-beta * (mp.mpf(pair1.distance) - mp.mpf(pair1.width)))
        assert scan.lhs[0] == pytest.approx(float(f * decay), rel=1e-10)
        assert scan.rhs[0] == pytest.approx(float(g * decay), rel=1e-10)


def test_rhs_at_cot_zero_reduces_to_barrier_decay(pair1):
    # k2*a = pi/2 makes cot(k2 a) vanish: g collapses to exp(-beta (L-a))
    factor = CODATA2018.wavenumber_factor
    e = (0.5 * math.pi / (factor * pair1.width)) ** 2
    beta = factor * math.sqrt(pair1.v_deep - e)
    expected = math.exp(-beta * (pair1.distance - pair1.width))
    (rhs,) = _raw_sides(pair1, e)[1]
    assert rhs == pytest.approx(expected, rel=1e-10)


def test_mismatch_small_at_resonance_roots(pair1):
    levels = find_levels(pair1, e_min=1.40, e_max=1.50)
    energies = [lv.energy for lv in levels]
    assert len(energies) == 2
    for e in energies:
        assert abs(_mismatch(pair1, e)) < 1e-6


def test_mismatch_sign_change_around_isolated_root(pair1):
    (root,) = [lv.energy for lv in find_levels(pair1, e_min=1.43, e_max=1.45)]
    before = _mismatch(pair1, root - 1e-6)
    after = _mismatch(pair1, root + 1e-6)
    assert math.isfinite(before) and math.isfinite(after)
    assert (before > 0) != (after > 0)


def _rhs_denominator(pair, e):
    factor = CODATA2018.wavenumber_factor
    k2 = factor * math.sqrt(e)
    beta = factor * math.sqrt(pair.v_deep - e)
    return beta * math.sin(k2 * pair.width) + k2 * math.cos(k2 * pair.width)


def _lhs_denominator(pair, e):
    # regime B form only (sufficient for the tested window)
    factor = CODATA2018.wavenumber_factor
    k1 = factor * math.sqrt(e - pair.shallow_floor)
    beta = factor * math.sqrt(pair.v_deep - e)
    return beta * math.sin(k1 * pair.width) - k1 * math.cos(k1 * pair.width)


def test_mismatch_sign_changes_only_at_roots_or_poles(pair1):
    e_lo, e_hi, step = 1.40, 1.50, 1e-5
    n = int((e_hi - e_lo) / step) + 1
    energies = e_lo + step * np.arange(n)
    scan = grid_scan(pair1, energies)
    mism = scan.mismatch
    roots = [lv.energy for lv in find_levels(pair1, e_min=e_lo, e_max=e_hi)]
    flips = np.nonzero(np.sign(mism[:-1]) * np.sign(mism[1:]) < 0)[0]
    assert len(flips) > 0
    for i in flips:
        lo, hi = energies[i], energies[i + 1]
        has_root = any(lo <= r <= hi for r in roots)
        pole_rhs = _rhs_denominator(pair1, lo) * _rhs_denominator(pair1, hi) < 0
        pole_lhs = _lhs_denominator(pair1, lo) * _lhs_denominator(pair1, hi) < 0
        assert has_root or pole_rhs or pole_lhs


def test_pole_flag_and_nan_at_lhs_pole(pair1):
    # bisect a zero of the regime-B lhs denominator (an isolated shallow-well level)
    lo, hi = None, None
    e_grid = np.linspace(1.33, 1.45, 2001)
    vals = [_lhs_denominator(pair1, e) for e in e_grid]
    for i in range(len(e_grid) - 1):
        if vals[i] * vals[i + 1] < 0:
            lo, hi = e_grid[i], e_grid[i + 1]
            break
    assert lo is not None, "no lhs pole in the scanned window"
    f_lo = _lhs_denominator(pair1, lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            break
        f_mid = _lhs_denominator(pair1, mid)
        if f_mid == 0.0:
            lo = hi = mid
            break
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    scan = grid_scan(pair1, np.array([0.5 * (lo + hi)]))
    assert scan.pole[0]
    assert math.isnan(scan.lhs[0]) and math.isnan(scan.mismatch[0])


def test_roots_unchanged_by_rescaling(pair1):
    """Bracket the raw (unrescaled) mismatch independently; roots must agree."""
    step = 1e-5
    n = int(0.10 / step) + 1
    energies = 1.40 + step * np.arange(n)
    raw_lhs, raw_rhs, _ = _raw_sides(pair1, energies)
    mism = raw_lhs - raw_rhs

    def raw_mismatch(e):
        (lhs,), (rhs,), _ = _raw_sides(pair1, e)
        return lhs - rhs

    raw_roots = []
    for i in np.nonzero(np.sign(mism[:-1]) * np.sign(mism[1:]) < 0)[0]:
        # skip intervals that bracket a pole rather than a root
        if _rhs_denominator(pair1, energies[i]) * _rhs_denominator(pair1, energies[i + 1]) < 0:
            continue
        if _lhs_denominator(pair1, energies[i]) * _lhs_denominator(pair1, energies[i + 1]) < 0:
            continue
        lo, hi = energies[i], energies[i + 1]
        f_lo = raw_mismatch(lo)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            f_mid = raw_mismatch(mid)
            if f_mid == 0.0:
                lo = hi = mid
                break
            if (f_mid > 0) == (f_lo > 0):
                lo, f_lo = mid, f_mid
            else:
                hi = mid
        raw_roots.append(0.5 * (lo + hi))

    solver_roots = [lv.energy for lv in find_levels(pair1, e_min=1.40, e_max=1.50)]
    assert len(raw_roots) == len(solver_roots)
    for raw_e, ref_e in zip(sorted(raw_roots), solver_roots):
        assert raw_e == pytest.approx(ref_e, abs=1e-9)


def test_all_roots_inside_open_interval(pair1):
    for lv in find_levels(pair1):
        assert 0.0 < lv.energy < pair1.v_deep


def test_grid_scan_rejects_out_of_range(pair1):
    with pytest.raises(ValueError):
        grid_scan(pair1, np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        grid_scan(pair1, np.array([pair1.v_deep]))


def _same_bits(x, y) -> bool:
    """Equal bit for bit, any NaN equal to any NaN."""
    x, y = np.asarray(x), np.asarray(y)
    if x.dtype != y.dtype or x.shape != y.shape:
        return False
    if x.dtype.kind != "f":
        return np.array_equal(x, y)
    nan = np.isnan(x)
    return np.array_equal(nan, np.isnan(y)) and x[~nan].tobytes() == y[~nan].tobytes()


@settings(max_examples=40, deadline=None)
@given(
    geometries=st.lists(
        st.tuples(st.floats(5.0, 50.0), st.floats(0.5, 30.0), st.floats(0.3, 2.0),
                  st.floats(0.1, 0.9)),
        min_size=1, max_size=5,
    ),
    fractions=st.lists(st.floats(0.001, 0.999), min_size=1, max_size=60),
)
def test_batched_scan_equals_scan_of_each_pair(geometries, fractions):
    # the solver evaluates the cleared form of many pairs in one call, one
    # geometry per energy; every value must be the pair's own scan, bit for bit
    pairs = [WellPair(width=a, distance=a + barrier, v_shallow=share * v_deep, v_deep=v_deep)
             for a, barrier, v_deep, share in geometries]
    which = np.arange(len(fractions)) % len(pairs)
    # the regime boundary of every pair is one of its energies
    energies = np.array([f * pairs[i].v_deep for i, f in zip(which, fractions)]
                        + [p.shallow_floor for p in pairs])
    which = np.append(which, np.arange(len(pairs)))
    geometry = eigensolver._Geometry.of(pairs).take(which)
    batched = grid_scan(geometry, energies)
    for i, pair in enumerate(pairs):
        own = which == i
        alone = grid_scan(pair, energies[own])
        for name in ("energies", "regime_b", "pole", "char", "char_scale", "lhs", "rhs"):
            assert _same_bits(getattr(batched, name)[own], getattr(alone, name)), name
        assert _same_bits(characteristic(geometry, energies)[own], alone.char)


def test_cleared_form_in_one_regime_or_both_equals_each_energy_alone(pair1):
    # the cleared form evaluates only the regimes its energies fall in: a
    # window all below the shallow floor, one all above it, and one across it
    # with an energy exactly on it must each give every energy's own value
    floor = pair1.shallow_floor
    windows = (
        np.linspace(0.05, floor - 0.05, 9),
        np.linspace(floor + 0.01, pair1.v_deep - 0.01, 9),
        np.append(np.linspace(floor - 0.02, floor + 0.02, 8), floor),
    )
    for energies in windows:
        distances = pair1.distance + 0.5 * np.arange(energies.size)
        pairs = [WellPair(pair1.width, d, pair1.v_shallow, pair1.v_deep) for d in distances]
        geometry = eigensolver._Geometry.varied(pair1, "distance", distances)
        columns = eigensolver._Geometry(*(x[:, None] for x in geometry))
        for pair, e, own in ((pair1, energies, [pair1] * energies.size),
                             (geometry, energies, pairs),
                             (columns, energies[:, None], pairs)):
            alone = [grid_scan(p, np.array([x])) for p, x in zip(own, energies)]
            assert _same_bits(characteristic(pair, e).ravel(),
                              np.concatenate([a.char for a in alone]))
            for i, term in enumerate(grid_scan(pair, e).terms):
                assert _same_bits(term.ravel(), np.concatenate([a.terms[i] for a in alone]))


def _quotient_poles(n, d):
    """The pole test by division: tolerance, or no finite quotient."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return (np.abs(d) < transcendental.POLE_RTOL * np.abs(n)) | ~np.isfinite(n / d)


def test_pole_mask_matches_the_quotient_test_at_edge_values():
    # zeros of both signs, subnormals, overflowing quotients and NaN
    values = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-300, 1e-12, 1.0, -2.5, 1e300, math.nan]
    n, d = np.array([(a, b) for a in values for b in values]).T
    assert np.array_equal(transcendental._poles(n, d), _quotient_poles(n, d))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(allow_infinity=False), st.floats(allow_infinity=False)),
                min_size=1, max_size=20))
def test_pole_mask_matches_the_quotient_test(terms):
    n, d = np.array(terms).T
    assert np.array_equal(transcendental._poles(n, d), _quotient_poles(n, d))


def test_scan_sides_are_formed_on_first_read(pair1):
    scan = grid_scan(pair1, np.linspace(0.01, 1.5, 300))
    assert "lhs" not in vars(scan) and "rhs" not in vars(scan)
    nl, dl, nr, dr = scan.terms
    assert _same_bits(scan.lhs, np.where(scan.pole, np.nan, nl / dl))
    assert scan.lhs is scan.lhs and scan.rhs is scan.rhs
