"""Boundary-matching functions of the asymmetric double square well.

For a :class:`~wellcascade.potential.WellPair` the bound-state energies in
(0, v_deep) are the roots of ``lhs(E) = rhs(E)``, where both sides follow
from matching the piecewise wavefunction and its derivative at the two
barrier edges.  Two regimes exist, selected by the sign of the squared
wavenumber in the shallow-well region:

* regime A (``E < v_deep - v_shallow``): the shallow region is evanescent,
  ``lhs = (beta + k1*coth(k1*a)) * exp(beta*(L-a)) / (beta - k1*coth(k1*a))``
* regime B (``E > v_deep - v_shallow``): the shallow region oscillates,
  ``lhs = (beta + k1*cot(k1*a)) * exp(beta*(L-a)) / (beta - k1*cot(k1*a))``

with ``rhs = (beta - k2*cot(k2*a)) * exp(-beta*(L-a)) / (beta + k2*cot(k2*a))``
in both regimes.  Here ``a`` is the well width, ``L`` the center distance,
``k1`` the shallow-region wavenumber, ``k2`` the deep-region wavenumber and
``beta`` the barrier decay rate.  The boundary energy itself is assigned to
regime B (measure-zero tie-break, documented for determinism).

Numerical notes
---------------
* Reported ``lhs``/``rhs`` carry a common positive factor ``exp(-beta*(L-a))``
  so magnitudes stay near unity; a positive common factor cannot move roots.
  Inside each side the ratio is evaluated with numerator and denominator
  normalised by the same positive quantity (``exp(k1*a)`` in regime A,
  ``sin`` instead of ``cot`` in the trigonometric parts), again value
  preserving.
* Both sides have poles where their denominators vanish.  A point is flagged
  as a pole when the denominator magnitude drops below ``1e-12`` of the
  numerator scale or the side has no finite value (``0/0`` at the exact
  regime boundary); flagged evaluations report NaN instead of a number.  The
  mask needs no division, and the sides themselves are divided out only
  when read, since the solver reads the cleared form alone.
* Deep-well-dominated eigenvalues lie exponentially close to poles of
  ``rhs`` (within ~1e-13 eV for the reference geometry), so root finding
  never uses the raw mismatch.  :func:`characteristic` evaluates the
  denominator-cleared form ``Nl*Dr - Nr*Dl`` over an array of energies (the
  values of :attr:`GridScan.char`); it has the same roots, no poles, and a
  well-conditioned sign everywhere.
* The cleared form is evaluated in two stages, and :func:`characteristic`
  and :func:`grid_scan` both compose them, so the formula has one
  implementation.  The window stage (``_window_terms``) computes everything
  that does not read the center distance: the wavenumbers
  (:func:`wavenumbers`, three square roots), the regime mask, ``Nl``,
  ``Dl``, ``beta*s2 - k2*c2`` and ``Dr``, with one exponential and two
  sine-cosine pairs per energy.  The distance stage (``_cleared_terms``)
  adds ``decay = exp(-2 beta (L-a))`` and ``Nr = decay * (beta*s2 - k2*c2)``.
  A scan returns its :class:`Window`, and a scan of the same energies for a
  pair that differs only in ``distance`` may pass it back to pay for the
  distance stage alone; every value is the same bit for bit, since each
  expression keeps its operation order.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .potential import WellPair
from .quantities import CODATA2018, PhysicalConstants

__all__ = [
    "Regime",
    "Window",
    "GridScan",
    "classify_regime",
    "wavenumbers",
    "characteristic",
    "grid_scan",
]

POLE_RTOL = 1e-12
_SMALLEST = np.finfo(float).smallest_subnormal


class Regime(str, enum.Enum):
    """Energy regime of the shallow-well region."""

    A = "A"  # below the shallow-well floor: evanescent
    B = "B"  # above the shallow-well floor: oscillatory

    def __str__(self) -> str:  # CSV/JSON friendly
        return self.value


def classify_regime(pair: WellPair, energy_ev: float) -> Regime:
    """Regime A below the shallow floor, B at or above it."""
    if not (math.isfinite(energy_ev) and 0.0 < energy_ev < pair.v_deep):
        raise ValueError(
            f"energy must lie in (0, v_deep={pair.v_deep}); got {energy_ev!r}"
        )
    return Regime.A if energy_ev < pair.shallow_floor else Regime.B


def wavenumbers(
    pair: WellPair,
    energies,
    constants: PhysicalConstants = CODATA2018,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Region wavenumbers ``(k1, beta, k2)`` in 1/Angstrom over an array of energies.

    ``k1 = f*sqrt(|E - shallow_floor|)`` serves both regimes: it is the decay
    rate of the shallow region in regime A and its wavenumber in regime B.
    ``pair`` may carry its parameters as arrays (see :func:`_window_terms`).
    The energies are not checked; callers keep them inside (0, v_deep).
    """
    e = np.asarray(energies, dtype=float)
    f = constants.wavenumber_factor
    k1 = f * np.sqrt(np.abs(e - pair.shallow_floor))
    beta = f * np.sqrt(pair.v_deep - e)
    k2 = f * np.sqrt(e)
    return k1, beta, k2


class Window(NamedTuple):
    """The distance-free factors of the cleared form on one array of energies.

    Only ``decay = exp(-2 beta (L-a))`` reads the center distance, so pairs
    that differ in nothing but ``distance`` share one window on a shared grid
    (see module notes).  ``tr`` is ``Nr`` without its decay.
    """

    energies: np.ndarray
    beta: np.ndarray
    regime_b: np.ndarray
    nl: np.ndarray
    dl: np.ndarray
    tr: np.ndarray
    dr: np.ndarray


@dataclass(frozen=True)
class GridScan:
    """Vectorised evaluation over an energy grid (used by solver and CLI).

    The solver reads only ``char``, ``char_scale`` and ``pole``.  The sides
    ``lhs`` and ``rhs`` cost a division and a pole mask each, so they are
    formed from ``terms`` on first read (the scan CSV and tests).
    """

    energies: np.ndarray
    regime_b: np.ndarray  # bool, True where regime B
    pole: np.ndarray  # bool, denominator below pole tolerance on either side
    char: np.ndarray  # denominator-cleared mismatch Nl*Dr - Nr*Dl
    char_scale: np.ndarray  # |Nl*Dr| + |Nr*Dl|, for relative residuals
    window: Window  # the distance-free factors, for a scan of the next distance
    terms: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]  # Nl, Dl, Nr, Dr

    @cached_property
    def lhs(self) -> np.ndarray:
        return _side(self.terms[0], self.terms[1], self.pole)

    @cached_property
    def rhs(self) -> np.ndarray:
        return _side(self.terms[2], self.terms[3], self.pole)

    @property
    def mismatch(self) -> np.ndarray:
        return self.lhs - self.rhs


def _poles(n: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Where ``n / d`` counts as a pole: ``|d| < POLE_RTOL * |n|`` or no finite quotient.

    No division is needed: the terms are finite, so the quotient fails to be
    finite only where ``d`` is zero (``0/0`` at the exact regime boundary; the
    floor at the smallest subnormal catches it) or ``|d| < |n| / DBL_MAX``,
    well inside the tolerance; a NaN fails the comparison.
    """
    return ~(np.abs(d) >= np.maximum(POLE_RTOL * np.abs(n), _SMALLEST))


def _side(n: np.ndarray, d: np.ndarray, pole: np.ndarray) -> np.ndarray:
    """One rescaled side ``n / d``, NaN at the poles of either side."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(pole, np.nan, n / d)


def _window_terms(pair: WellPair, energies: np.ndarray, constants: PhysicalConstants) -> Window:
    """Window stage of the cleared form: every factor that does not read ``distance``.

    ``pair`` may carry its ``width``, ``v_deep`` and ``shallow_floor`` as
    arrays that broadcast against ``energies`` (one geometry per energy); the
    formula is the same elementwise.

    Regime A lhs uses ``q = exp(-2 k1 a)`` so that
    ``Nl = beta*(1-q) + k1*(1+q)`` is ``(beta + k1*coth(k1 a)) * (1 - q)``
    up to the common positive factor; trigonometric parts are multiplied
    through by the relevant ``sin`` so ``cot`` poles become ordinary zeros.
    """
    e = np.asarray(energies, dtype=float)
    a = pair.width
    k1, beta, k2 = wavenumbers(pair, e, constants)
    reg_b = e >= pair.shallow_floor

    # both branches read the one k1; each is kept only where its regime holds
    q = np.exp(-2.0 * k1 * a)
    nl_a = beta * (1.0 - q) + k1 * (1.0 + q)
    dl_a = beta * (1.0 - q) - k1 * (1.0 + q)

    s1, c1 = np.sin(k1 * a), np.cos(k1 * a)
    nl_b = beta * s1 + k1 * c1
    dl_b = beta * s1 - k1 * c1

    s2, c2 = np.sin(k2 * a), np.cos(k2 * a)
    return Window(
        energies=e,
        beta=beta,
        regime_b=reg_b,
        nl=np.where(reg_b, nl_b, nl_a),
        dl=np.where(reg_b, dl_b, dl_a),
        tr=beta * s2 - k2 * c2,
        dr=beta * s2 + k2 * c2,
    )


def _cleared_terms(pair: WellPair, window: Window):
    """Distance stage: numerators/denominators of the rescaled sides, free of poles.

    ``Nr`` absorbs the full ``exp(-2 beta (L-a))`` of the rescaled rhs; it is
    the only term that reads ``pair.distance``.
    """
    decay = np.exp(-2.0 * window.beta * (pair.distance - pair.width))
    return window.nl, window.dl, decay * window.tr, window.dr


def grid_scan(
    pair: WellPair,
    energies: np.ndarray,
    constants: PhysicalConstants = CODATA2018,
    window: Window | None = None,
) -> GridScan:
    """Evaluate the cleared form and its pole mask over an energy grid.

    All energies must lie in (0, v_deep).  The sides carry the common
    ``exp(-beta (L-a))`` factor (see module notes).  ``window`` is the
    :attr:`GridScan.window` of an earlier scan of the same ``energies`` and the
    same ``width``, ``v_deep`` and ``shallow_floor``; given one, the scan
    evaluates only the distance stage.
    """
    if window is None:
        e = np.asarray(energies, dtype=float)
        if e.size and not (np.all(e > 0.0) and np.all(e < pair.v_deep)):
            raise ValueError("grid energies must lie strictly inside (0, v_deep)")
        window = _window_terms(pair, e, constants)
    nl, dl, nr, dr = _cleared_terms(pair, window)
    return GridScan(
        energies=window.energies,
        regime_b=window.regime_b,
        pole=_poles(nl, dl) | _poles(nr, dr),
        char=nl * dr - nr * dl,
        char_scale=np.abs(nl * dr) + np.abs(nr * dl),
        window=window,
        terms=(nl, dl, nr, dr),
    )


def characteristic(
    pair: WellPair,
    energies: np.ndarray,
    constants: PhysicalConstants = CODATA2018,
) -> np.ndarray:
    """Denominator-cleared mismatch ``Nl*Dr - Nr*Dl`` over an array of energies.

    Vanishes exactly at the bound-state energies and equals :attr:`GridScan.char`
    at the same points.  ``pair`` is a :class:`WellPair` or per-energy arrays
    of its parameters (see :func:`_window_terms`), so one call can evaluate
    brackets of several pairs.  The energies are not checked: callers pass
    points inside a grid that :func:`grid_scan` has already validated.
    """
    nl, dl, nr, dr = _cleared_terms(pair, _window_terms(pair, energies, constants))
    return nl * dr - nr * dl
