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
from functools import cached_property

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


@dataclass(frozen=True)
class PhysicalConstants:
    """Immutable record of the physics factors the solver needs.

    Attributes:
        hbar_J_s: reduced Planck constant in J*s.
        electron_mass_kg: electron mass in kg.
        eV_in_J: one electronvolt in joule.
        hc_eV_nm: photon energy-wavelength product in eV*nm.

    ``hbar_eV_s`` and ``wavenumber_factor`` are derived from these fields,
    once per instance.
    """

    hbar_J_s: float
    electron_mass_kg: float
    eV_in_J: float
    hc_eV_nm: float

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(
                    f"constant {field.name} must be finite and positive, got {value!r}"
                )

    @cached_property
    def hbar_eV_s(self) -> float:
        """Reduced Planck constant in eV*s."""
        return self.hbar_J_s / self.eV_in_J

    @cached_property
    def wavenumber_factor(self) -> float:
        """sqrt(2*m_e*eV_in_J)/hbar in 1/Angstrom: k = wavenumber_factor * sqrt(E_eV)."""
        return math.sqrt(2.0 * self.electron_mass_kg * self.eV_in_J) / self.hbar_J_s * 1e-10

    def kinetic_coefficient(self) -> float:
        """hbar^2/(2 m) in eV*Angstrom^2; the 1D kinetic-energy prefactor."""
        return 1.0 / self.wavenumber_factor**2


def make_constants(**overrides: float) -> PhysicalConstants:
    """Build a constants record: CODATA-2018 values, any of the four fields overridden.

    The derived ``hbar_eV_s`` and ``wavenumber_factor`` follow the overrides
    and cannot be set themselves.  Intended for sensitivity studies via the
    ``[constants]`` config section.
    """
    unknown = set(overrides) - {field.name for field in fields(PhysicalConstants)}
    if unknown:
        raise ValueError(f"unknown constant override(s): {sorted(unknown)}")
    defaults = {
        "hbar_J_s": _HBAR_J_S,
        "electron_mass_kg": _ELECTRON_MASS_KG,
        "eV_in_J": _EV_IN_J,
        "hc_eV_nm": _PLANCK_J_S * _LIGHT_SPEED_M_S / _EV_IN_J * 1e9,
    }
    return PhysicalConstants(**{**defaults, **overrides})


CODATA2018 = make_constants()


def photon_wavelength_nm(delta_e_ev: float, constants: PhysicalConstants = CODATA2018) -> float:
    """Wavelength in nm of a photon carrying ``delta_e_ev`` of energy."""
    if not math.isfinite(delta_e_ev) or delta_e_ev <= 0.0:
        raise ValueError(f"photon energy must be positive, got {delta_e_ev!r}")
    return constants.hc_eV_nm / delta_e_ev
