"""Physical constants and unit conversions.

Single source of truth for every numeric physics factor used by the
package.  Internal working units are eV and Angstrom (seconds for times),
which keeps all magnitudes within a comfortable floating-point range; SI
conversions happen only at I/O boundaries.

Constants are pinned to CODATA-2018 so golden tests are deterministic:
they are the defaults of :class:`PhysicalConstants`, and ``CODATA2018`` is
the record built from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

__all__ = [
    "PhysicalConstants",
    "CODATA2018",
    "photon_wavelength_nm",
]


@dataclass(frozen=True)
class PhysicalConstants:
    """Immutable record of the physics factors the solver needs.

    Attributes:
        hbar_J_s: reduced Planck constant in J*s.
        electron_mass_kg: electron mass in kg.
        eV_in_J: one electronvolt in joule.
        hc_eV_nm: photon energy-wavelength product in eV*nm.

    Each field defaults to its CODATA-2018 value, so ``PhysicalConstants()``
    is the reference record and a keyword overrides one field (the
    ``[constants]`` config section).  ``hbar_eV_s`` and ``wavenumber_factor``
    are derived from the fields, once per instance, and cannot be set.
    """

    # eV_in_J and h are exact by the 2019 SI redefinition; hc = h*c/eV_in_J
    hbar_J_s: float = 1.054571817e-34
    electron_mass_kg: float = 9.1093837015e-31
    eV_in_J: float = 1.602176634e-19
    hc_eV_nm: float = 6.62607015e-34 * 299_792_458.0 / 1.602176634e-19 * 1e9

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


CODATA2018 = PhysicalConstants()


def photon_wavelength_nm(delta_e_ev: float, constants: PhysicalConstants = CODATA2018) -> float:
    """Wavelength in nm of a photon carrying ``delta_e_ev`` of energy."""
    if not math.isfinite(delta_e_ev) or delta_e_ev <= 0.0:
        raise ValueError(f"photon energy must be positive, got {delta_e_ev!r}")
    return constants.hc_eV_nm / delta_e_ev
