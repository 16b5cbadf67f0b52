import math

import numpy as np
import pytest

from wellcascade.potential import WellPair
from wellcascade.quantities import CODATA2018, PhysicalConstants, photon_wavelength_nm
from wellcascade.transcendental import _wavenumbers

# Independent recomputation from CODATA-2018 literals (the test-side oracle).
M_E = 9.1093837015e-31
HBAR = 1.054571817e-34
EV = 1.602176634e-19
H_PLANCK = 6.62607015e-34
C_LIGHT = 299_792_458.0

# a pair deep enough that every test energy lies below its barrier top
DEEP = WellPair(width=40.0, distance=60.0, v_shallow=50.0, v_deep=200.0)


def test_wavenumber_zero_energy():
    # k2 vanishes at the deep-well bottom, k1 at the shallow-well floor
    k1, beta, k2 = _wavenumbers(DEEP, np.array([0.0, DEEP.shallow_floor]))
    assert k2[0] == 0.0 and k1[1] == 0.0
    assert beta[0] == CODATA2018.wavenumber_factor * math.sqrt(DEEP.v_deep)


def test_wavenumber_one_ev_matches_codata():
    expected = math.sqrt(2.0 * M_E * EV) / HBAR * 1e-10
    got = CODATA2018.wavenumber_factor
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(0.51231, abs=1e-4)
    assert _wavenumbers(DEEP, 1.0)[2] == got


def test_wavenumber_sqrt_scaling():
    _, _, k2 = _wavenumbers(DEEP, np.array([1.0, 4.0]))
    assert k2[1] == pytest.approx(2.0 * k2[0], rel=1e-15)


def test_wavenumber_rejects_negative():
    # the factor is derived, so no value of it can be set; its inputs must be positive
    for factor in (-CODATA2018.wavenumber_factor, math.nan):
        with pytest.raises(TypeError, match="unexpected keyword argument 'wavenumber_factor'"):
            PhysicalConstants(wavenumber_factor=factor)
    with pytest.raises(ValueError, match="electron_mass_kg must be finite and positive"):
        PhysicalConstants(electron_mass_kg=-M_E)


def test_ev_joule_reference_points():
    assert 1.445 * CODATA2018.eV_in_J == pytest.approx(2.3149e-19, rel=1e-4)
    assert 1.460 * CODATA2018.eV_in_J == pytest.approx(2.3389e-19, rel=1e-4)
    assert CODATA2018.eV_in_J == EV


def test_ev_joule_round_trip():
    # hbar in eV*s is hbar in J*s converted by eV_in_J, for any override
    for ev in (EV, 2.0 * EV):
        c = PhysicalConstants(eV_in_J=ev)
        assert c.hbar_eV_s * c.eV_in_J == pytest.approx(c.hbar_J_s, rel=1e-14)


def test_wavenumber_energy_recovery():
    rng = np.random.default_rng(7)
    e = rng.uniform(1e-4, 100.0, 30)
    k1, beta, k2 = _wavenumbers(DEEP, e)
    kinetic = CODATA2018.kinetic_coefficient()
    np.testing.assert_allclose(k2 * k2 * kinetic, e, rtol=1e-12)
    np.testing.assert_allclose(beta * beta * kinetic, DEEP.v_deep - e, rtol=1e-12)
    np.testing.assert_allclose(k1 * k1 * kinetic, np.abs(e - DEEP.shallow_floor), rtol=1e-12)


def test_photon_wavelength_reference():
    lam = photon_wavelength_nm(1.426676)
    # the published model quotes 869.7 nm; CODATA constants land 0.08% below
    assert lam == pytest.approx(869.7, rel=2e-3)
    assert lam == pytest.approx(869.0, abs=0.2)


def test_photon_wavelength_definition_point():
    assert photon_wavelength_nm(CODATA2018.hc_eV_nm) == pytest.approx(1.0, rel=1e-15)


def test_photon_wavelength_independent_hc():
    hc = H_PLANCK * C_LIGHT / EV * 1e9
    assert photon_wavelength_nm(1.42) == pytest.approx(hc / 1.42, rel=1e-12)


def test_photon_wavelength_rejects_nonpositive():
    with pytest.raises(ValueError):
        photon_wavelength_nm(0.0)
    with pytest.raises(ValueError):
        photon_wavelength_nm(-1.0)


def test_constants_all_positive():
    for name in (
        "hbar_eV_s",
        "hbar_J_s",
        "electron_mass_kg",
        "eV_in_J",
        "hc_eV_nm",
        "wavenumber_factor",
    ):
        assert getattr(CODATA2018, name) > 0.0


def test_constants_consistency_10_digits():
    # the derived constants are computed from the fields, so they agree exactly
    derived = math.sqrt(2.0 * CODATA2018.electron_mass_kg * CODATA2018.eV_in_J)
    derived /= CODATA2018.hbar_J_s
    derived *= 1e-10
    assert CODATA2018.wavenumber_factor == derived
    assert CODATA2018.hbar_eV_s == CODATA2018.hbar_J_s / CODATA2018.eV_in_J


def test_make_constants_recomputes_derived_fields():
    # a keyword of PhysicalConstants overrides one field; the derived constants follow it
    tweaked = PhysicalConstants(electron_mass_kg=2.0 * M_E)
    assert tweaked.wavenumber_factor == pytest.approx(
        math.sqrt(2.0) * CODATA2018.wavenumber_factor, rel=1e-12
    )
    assert tweaked.hc_eV_nm == CODATA2018.hc_eV_nm


def test_make_constants_rejects_unknown_and_derived():
    # only the four fields of PhysicalConstants can be set: the derived constants are
    # no keywords of its constructor
    for name, value in (
        ("planck_length", 1.0),
        ("wavenumber_factor", 2.0 * CODATA2018.wavenumber_factor),
        ("hbar_eV_s", CODATA2018.hbar_eV_s),
    ):
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
            PhysicalConstants(**{name: value})


def test_non_finite_inputs_rejected():
    with pytest.raises(ValueError):
        PhysicalConstants(eV_in_J=math.inf)
    with pytest.raises(ValueError):
        PhysicalConstants(hbar_J_s=math.nan)


def test_default_constants_are_codata_2018_bit_for_bit():
    # the six values every golden number was computed with, as exact hex floats
    pinned = {
        "hbar_J_s": "0x1.185a7054e4c91p-113",
        "electron_mass_kg": "0x1.279dcc8b6b7edp-100",
        "eV_in_J": "0x1.7a4da290c1653p-63",
        "hc_eV_nm": "0x1.35f5e312406c8p+10",
        "hbar_eV_s": "0x1.7b6ef0a8654dfp-51",
        "wavenumber_factor": "0x1.064e609ec8f90p-1",
    }
    for constants in (PhysicalConstants(), CODATA2018):
        assert {name: getattr(constants, name).hex() for name in pinned} == pinned
    assert PhysicalConstants().hc_eV_nm == H_PLANCK * C_LIGHT / EV * 1e9
