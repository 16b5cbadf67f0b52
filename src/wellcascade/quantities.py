"""Physical constants and unit conversions.

Single source of truth for every numeric physics factor used by the
package.  Internal working units are eV and Angstrom (seconds for times),
which keeps all magnitudes within a comfortable floating-point range; SI
conversions happen only at I/O boundaries.

Constants are pinned to CODATA-2018 so golden tests are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

__all__ = [
    "PhysicalConstants",
    "CODATA2018",
    "make_constants",
    "photon_wavelength_nm",
]

# CODATA-2018 primitives (eV_in_J and h are exact by the 2019 SI redefinition).
_HBAR_J_S = 1.054571817e-34
_ELECTRON_MASS_KG = 9.1093837015e-31
_EV_IN_J = 1.602176634e-19
_PLANCK_J_S = 6.62607015e-34
_LIGHT_SPEED_M_S = 299_792_458.0

# Relative consistency demanded between derived and stored fields (10 digits).
_CONSISTENCY_RTOL = 5e-10


@dataclass(frozen=True)
class PhysicalConstants:
    """Immutable record of the physics factors the solver needs.

    Attributes:
        hbar_eV_s: reduced Planck constant in eV*s.
        hbar_J_s: reduced Planck constant in J*s.
        electron_mass_kg: electron mass in kg.
        eV_in_J: one electronvolt in joule.
        hc_eV_nm: photon energy-wavelength product in eV*nm.
        wavenumber_factor: sqrt(2*m_e*eV_in_J)/hbar in 1/Angstrom, so that
            k = wavenumber_factor * sqrt(E_eV) for a free electron.
    """

    hbar_eV_s: float
    hbar_J_s: float
    electron_mass_kg: float
    eV_in_J: float
    hc_eV_nm: float
    wavenumber_factor: float

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(
                    f"constant {field.name} must be finite and positive, got {value!r}"
                )
        derived_factor = (
            math.sqrt(2.0 * self.electron_mass_kg * self.eV_in_J) / self.hbar_J_s * 1e-10
        )
        if abs(self.wavenumber_factor - derived_factor) > _CONSISTENCY_RTOL * derived_factor:
            raise ValueError(
                "wavenumber_factor inconsistent with mass/hbar/eV fields: "
                f"{self.wavenumber_factor!r} vs derived {derived_factor!r}"
            )
        derived_hbar_ev = self.hbar_J_s / self.eV_in_J
        if abs(self.hbar_eV_s - derived_hbar_ev) > _CONSISTENCY_RTOL * derived_hbar_ev:
            raise ValueError(
                f"hbar_eV_s inconsistent with hbar_J_s/eV_in_J: "
                f"{self.hbar_eV_s!r} vs derived {derived_hbar_ev!r}"
            )

    def kinetic_coefficient(self) -> float:
        """hbar^2/(2 m) in eV*Angstrom^2; the 1D kinetic-energy prefactor."""
        return 1.0 / self.wavenumber_factor**2


def make_constants(**overrides: float) -> PhysicalConstants:
    """Build a constants record, recomputing derived fields from overrides.

    ``hbar_eV_s`` and ``wavenumber_factor`` are rederived from the primitive
    fields unless given explicitly (explicit values must stay consistent).
    Intended for sensitivity studies via the ``[constants]`` config section.
    """
    unknown = set(overrides) - {field.name for field in fields(PhysicalConstants)}
    if unknown:
        raise ValueError(f"unknown constant override(s): {sorted(unknown)}")
    hbar_j = overrides.get("hbar_J_s", _HBAR_J_S)
    mass = overrides.get("electron_mass_kg", _ELECTRON_MASS_KG)
    ev = overrides.get("eV_in_J", _EV_IN_J)
    defaults = {
        "hbar_J_s": hbar_j,
        "electron_mass_kg": mass,
        "eV_in_J": ev,
        "hc_eV_nm": _PLANCK_J_S * _LIGHT_SPEED_M_S / _EV_IN_J * 1e9,
        "hbar_eV_s": hbar_j / ev,
        "wavenumber_factor": math.sqrt(2.0 * mass * ev) / hbar_j * 1e-10,
    }
    return PhysicalConstants(**{**defaults, **overrides})


CODATA2018 = make_constants()


def photon_wavelength_nm(delta_e_ev: float, constants: PhysicalConstants = CODATA2018) -> float:
    """Wavelength in nm of a photon carrying ``delta_e_ev`` of energy."""
    if not math.isfinite(delta_e_ev) or delta_e_ev <= 0.0:
        raise ValueError(f"photon energy must be positive, got {delta_e_ev!r}")
    return constants.hc_eV_nm / delta_e_ev
